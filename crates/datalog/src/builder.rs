//! Embedded DSL for constructing Datalog programs programmatically.
//!
//! This is the Rust analogue of the paper's Scala-embedded DSL (§V-A): rules
//! and facts are first-class values constructed with ordinary function
//! calls, so workloads can be generated, transformed and composed by host
//! code.
//!
//! ```
//! use carac_datalog::builder::{ProgramBuilder, TermSpec};
//!
//! let mut b = ProgramBuilder::new();
//! b.relation("Edge", 2);
//! b.relation("Path", 2);
//! b.rule("Path", &["x", "y"]).when("Edge", &["x", "y"]).end();
//! b.rule("Path", &["x", "y"])
//!     .when("Edge", &["x", "z"])
//!     .when("Path", &["z", "y"])
//!     .end();
//! b.fact_ints("Edge", &[1, 2]);
//! b.fact_ints("Edge", &[2, 3]);
//! let program = b.build().unwrap();
//! assert_eq!(program.rules().len(), 2);
//! ```

use carac_storage::{AggFunc, CmpOp, RelId, SymbolTable, Tuple, Value};

use crate::ast::{
    AggregateSpec, Atom, Constraint, Literal, RelationDecl, Rule, RuleId, RuleOrigin, Term, VarId,
};
use crate::error::DatalogError;
use carac_storage::hasher::FxHashMap;

use crate::precedence::Stratification;
use crate::program::Program;
use crate::validate;

/// A term as written by the user: a named variable, an integer constant, a
/// string constant, a pre-resolved raw value, or (in rule heads only) an
/// aggregate over a variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TermSpec {
    /// A named variable ("x", "y", ...).
    Var(String),
    /// A small integer constant.
    Int(u32),
    /// A string constant, interned on build.
    Str(String),
    /// A raw, already-interned value.  Used when rebuilding programs (e.g.
    /// alias elimination) so constants round-trip bit-identically; the
    /// builder takes the value as-is without re-interning.
    Value(Value),
    /// An aggregate over a variable (`min d`, `count y`, ...).  Only valid
    /// in rule-head positions.
    Agg(AggFunc, String),
}

impl From<&str> for TermSpec {
    /// Bare strings in rule positions are variables — the common case when
    /// writing analysis rules.  Use [`TermSpec::Str`] (or the [`s`] helper)
    /// for string constants.
    fn from(name: &str) -> Self {
        TermSpec::Var(name.to_string())
    }
}

impl From<u32> for TermSpec {
    fn from(n: u32) -> Self {
        TermSpec::Int(n)
    }
}

/// Helper constructing a variable term.
pub fn v(name: &str) -> TermSpec {
    TermSpec::Var(name.to_string())
}

/// Helper constructing an integer constant term.
pub fn c(n: u32) -> TermSpec {
    TermSpec::Int(n)
}

/// Helper constructing a string constant term.
pub fn s(text: &str) -> TermSpec {
    TermSpec::Str(text.to_string())
}

/// Helper constructing an aggregate head term (`agg(AggFunc::Min, "d")`).
pub fn agg(func: AggFunc, var: &str) -> TermSpec {
    TermSpec::Agg(func, var.to_string())
}

/// Helper constructing a `count` head term.
pub fn count_of(var: &str) -> TermSpec {
    agg(AggFunc::Count, var)
}

/// Helper constructing a `sum` head term.
pub fn sum_of(var: &str) -> TermSpec {
    agg(AggFunc::Sum, var)
}

/// Helper constructing a `min` head term.
pub fn min_of(var: &str) -> TermSpec {
    agg(AggFunc::Min, var)
}

/// Helper constructing a `max` head term.
pub fn max_of(var: &str) -> TermSpec {
    agg(AggFunc::Max, var)
}

/// Partially built rule; finish with [`RuleBuilder::end`].
#[must_use = "call .end() to add the rule to the program"]
pub struct RuleBuilder<'a> {
    builder: &'a mut ProgramBuilder,
    head_rel: String,
    head_terms: Vec<TermSpec>,
    body: Vec<(String, Vec<TermSpec>, bool)>,
    constraints: Vec<(TermSpec, CmpOp, TermSpec)>,
    origin: RuleOrigin,
}

impl<'a> RuleBuilder<'a> {
    /// Adds a positive body literal.
    pub fn when<T: Into<TermSpec> + Clone>(mut self, rel: &str, terms: &[T]) -> Self {
        self.body.push((
            rel.to_string(),
            terms.iter().cloned().map(Into::into).collect(),
            false,
        ));
        self
    }

    /// Adds a negated body literal.
    pub fn when_not<T: Into<TermSpec> + Clone>(mut self, rel: &str, terms: &[T]) -> Self {
        self.body.push((
            rel.to_string(),
            terms.iter().cloned().map(Into::into).collect(),
            true,
        ));
        self
    }

    /// Adds a comparison constraint `lhs op rhs` to the rule body.  Both
    /// operands may be variables or constants; every variable must be bound
    /// by a positive body literal.
    pub fn constrain<L: Into<TermSpec>, R: Into<TermSpec>>(
        mut self,
        lhs: L,
        op: CmpOp,
        rhs: R,
    ) -> Self {
        self.constraints.push((lhs.into(), op, rhs.into()));
        self
    }

    /// Adds a `lhs < rhs` constraint.
    pub fn lt<L: Into<TermSpec>, R: Into<TermSpec>>(self, lhs: L, rhs: R) -> Self {
        self.constrain(lhs, CmpOp::Lt, rhs)
    }

    /// Adds a `lhs <= rhs` constraint.
    pub fn le<L: Into<TermSpec>, R: Into<TermSpec>>(self, lhs: L, rhs: R) -> Self {
        self.constrain(lhs, CmpOp::Le, rhs)
    }

    /// Adds a `lhs > rhs` constraint.
    pub fn gt<L: Into<TermSpec>, R: Into<TermSpec>>(self, lhs: L, rhs: R) -> Self {
        self.constrain(lhs, CmpOp::Gt, rhs)
    }

    /// Adds a `lhs >= rhs` constraint.
    pub fn ge<L: Into<TermSpec>, R: Into<TermSpec>>(self, lhs: L, rhs: R) -> Self {
        self.constrain(lhs, CmpOp::Ge, rhs)
    }

    /// Adds a `lhs != rhs` constraint.
    pub fn ne<L: Into<TermSpec>, R: Into<TermSpec>>(self, lhs: L, rhs: R) -> Self {
        self.constrain(lhs, CmpOp::Ne, rhs)
    }

    /// Attaches a human-readable label to the rule, cited by validation
    /// errors and analyzer diagnostics instead of the bare rule number.
    pub fn label(mut self, label: &str) -> Self {
        self.origin.label = Some(label.to_string());
        self
    }

    /// Records the 1-based source `(line, column)` of the rule head (used by
    /// the parser; host programs normally use [`RuleBuilder::label`]).
    pub fn at(mut self, line: usize, column: usize) -> Self {
        self.origin.position = Some((line, column));
        self
    }

    /// Finishes the rule and records it in the program builder.
    pub fn end(self) {
        self.builder.raw_rules.push(RawRule {
            head_rel: self.head_rel,
            head_terms: self.head_terms,
            body: self.body,
            constraints: self.constraints,
            origin: self.origin,
        });
    }
}

/// An aggregation before name resolution: output relation, input relation,
/// `(column, function)` pairs.
type RawAggregate = (String, String, Vec<(usize, AggFunc)>);

/// A rule before name resolution.
#[derive(Debug, Clone)]
struct RawRule {
    head_rel: String,
    head_terms: Vec<TermSpec>,
    body: Vec<(String, Vec<TermSpec>, bool)>,
    constraints: Vec<(TermSpec, CmpOp, TermSpec)>,
    origin: RuleOrigin,
}

/// Incremental program builder.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    relations: Vec<(String, usize)>,
    raw_rules: Vec<RawRule>,
    raw_facts: Vec<(String, Vec<TermSpec>)>,
    /// Facts taken over by `RelId` from an already validated program; they
    /// precede `raw_facts` in the built program.
    resolved_facts: Vec<(RelId, Tuple)>,
    raw_aggregates: Vec<RawAggregate>,
    symbols: SymbolTable,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Declares a relation with the given arity.  Declaring the same
    /// relation twice with the same arity is a no-op; conflicting arities
    /// are reported at [`build`](ProgramBuilder::build) time.
    pub fn relation(&mut self, name: &str, arity: usize) -> &mut Self {
        self.relations.push((name.to_string(), arity));
        self
    }

    /// Starts a rule with the given head.  Head terms may include aggregate
    /// specs ([`TermSpec::Agg`], built with [`agg`]/[`min_of`]/...): such a
    /// rule defines its head relation by stratified aggregation.
    pub fn rule<T: Into<TermSpec> + Clone>(&mut self, head: &str, terms: &[T]) -> RuleBuilder<'_> {
        RuleBuilder {
            head_rel: head.to_string(),
            head_terms: terms.iter().cloned().map(Into::into).collect(),
            body: Vec::new(),
            constraints: Vec::new(),
            origin: RuleOrigin::default(),
            builder: self,
        }
    }

    /// Registers a pre-resolved aggregation: `output` receives the rows of
    /// `input` grouped on the non-aggregated columns.  This is the low-level
    /// form used when rebuilding programs (alias elimination); writing an
    /// aggregate head term via [`ProgramBuilder::rule`] creates the hidden
    /// input relation and this registration automatically.
    pub fn aggregate(&mut self, output: &str, input: &str, aggs: &[(usize, AggFunc)]) -> &mut Self {
        self.raw_aggregates
            .push((output.to_string(), input.to_string(), aggs.to_vec()));
        self
    }

    /// Seeds the builder's symbol table (used when rebuilding a program so
    /// that previously interned constants keep their exact bit patterns).
    pub fn with_symbols(&mut self, symbols: SymbolTable) -> &mut Self {
        self.symbols = symbols;
        self
    }

    /// Adds a ground fact with arbitrary term specs (must all be constants).
    pub fn fact(&mut self, rel: &str, terms: &[TermSpec]) -> &mut Self {
        self.raw_facts.push((rel.to_string(), terms.to_vec()));
        self
    }

    /// Takes over the facts of an already validated program by `RelId`,
    /// skipping the by-name resolution of [`ProgramBuilder::fact`].  The
    /// caller must declare that program's relations first and in order, so
    /// every id keeps its meaning.  In the built program these facts come
    /// before all facts added by name.
    pub(crate) fn resolved_facts(&mut self, facts: &[(RelId, Tuple)]) -> &mut Self {
        self.resolved_facts.extend_from_slice(facts);
        self
    }

    /// Adds a ground fact of integer constants.
    pub fn fact_ints(&mut self, rel: &str, ints: &[u32]) -> &mut Self {
        let terms = ints.iter().map(|&n| TermSpec::Int(n)).collect::<Vec<_>>();
        self.raw_facts.push((rel.to_string(), terms));
        self
    }

    /// Interns a string constant eagerly (useful when the same value must be
    /// referenced both in facts and by host code inspecting results).
    pub fn intern(&mut self, text: &str) -> Value {
        self.symbols.intern(text)
    }

    /// Resolves names, validates the program, computes the stratification
    /// and returns the immutable [`Program`].
    pub fn build(mut self) -> Result<Program, DatalogError> {
        // 0. Rewrite aggregate rules: `Dist(y, min d) :- Body` becomes an
        //    ordinary rule `Dist__agg_input(y, d) :- Body` plus an
        //    aggregation registration from the hidden input to `Dist`.
        self.rewrite_aggregate_rules()?;

        // 1. Deduplicate relation declarations, checking arities.
        let mut decls: Vec<RelationDecl> = Vec::new();
        let mut by_name: FxHashMap<String, RelId> = FxHashMap::default();
        for (name, arity) in &self.relations {
            if let Some(&existing) = by_name.get(name) {
                let prev = &decls[existing.index()];
                if prev.arity != *arity {
                    return Err(DatalogError::ConflictingDeclaration {
                        name: name.clone(),
                        first: prev.arity,
                        second: *arity,
                    });
                }
                continue;
            }
            let id = RelId(decls.len() as u32);
            by_name.insert(name.clone(), id);
            decls.push(RelationDecl {
                id,
                name: name.clone(),
                arity: *arity,
                is_edb: true, // refined below once rules are known
            });
        }

        let lookup =
            |name: &str, by_name: &FxHashMap<String, RelId>| -> Result<RelId, DatalogError> {
                by_name
                    .get(name)
                    .copied()
                    .ok_or_else(|| DatalogError::UnknownRelation(name.to_string()))
            };

        // 2. Resolve rules: map names to RelIds and variable names to dense
        //    per-rule VarIds.
        let mut rules: Vec<Rule> = Vec::new();
        for (rule_idx, raw) in self.raw_rules.iter().enumerate() {
            let mut var_names: Vec<String> = Vec::new();
            let mut var_ids: FxHashMap<String, VarId> = FxHashMap::default();
            // The user-facing name of the rule's head: aggregate heads were
            // rewritten to the hidden input relation, so diagnostics strip
            // the reserved suffix back off.
            let display_head = raw
                .head_rel
                .strip_suffix(AGG_INPUT_SUFFIX)
                .unwrap_or(&raw.head_rel);
            // `where_` names the relation (or, for constraints, the rule
            // head) an aggregate term was illegally found in.
            let mut resolve_term = |spec: &TermSpec,
                                    symbols: &mut SymbolTable,
                                    where_: &str|
             -> Result<Term, DatalogError> {
                match spec {
                    TermSpec::Var(name) => {
                        let id = *var_ids.entry(name.clone()).or_insert_with(|| {
                            let id = VarId(var_names.len() as u32);
                            var_names.push(name.clone());
                            id
                        });
                        Ok(Term::Var(id))
                    }
                    TermSpec::Int(n) => {
                        if *n >= Value::SYMBOL_BASE {
                            return Err(DatalogError::IntegerOutOfRange { value: *n });
                        }
                        Ok(Term::Const(Value::int(*n)))
                    }
                    TermSpec::Str(text) => Ok(Term::Const(symbols.intern(text))),
                    TermSpec::Value(value) => Ok(Term::Const(*value)),
                    TermSpec::Agg(..) => Err(DatalogError::AggregateMisplaced {
                        relation: where_.to_string(),
                    }),
                }
            };
            let mut resolve_terms = |specs: &[TermSpec],
                                     symbols: &mut SymbolTable,
                                     where_: &str|
             -> Result<Vec<Term>, DatalogError> {
                specs
                    .iter()
                    .map(|s| resolve_term(s, symbols, where_))
                    .collect()
            };

            let head_rel = lookup(&raw.head_rel, &by_name)?;
            let head_terms = resolve_terms(&raw.head_terms, &mut self.symbols, display_head)?;
            let mut body = Vec::with_capacity(raw.body.len());
            for (rel_name, terms, negated) in &raw.body {
                let rel = lookup(rel_name, &by_name)?;
                let atom = Atom::new(rel, resolve_terms(terms, &mut self.symbols, rel_name)?);
                body.push(Literal {
                    atom,
                    negated: *negated,
                });
            }
            let mut constraints = Vec::with_capacity(raw.constraints.len());
            for (lhs, op, rhs) in &raw.constraints {
                constraints.push(Constraint {
                    op: *op,
                    lhs: resolve_term(lhs, &mut self.symbols, display_head)?,
                    rhs: resolve_term(rhs, &mut self.symbols, display_head)?,
                });
            }
            rules.push(Rule {
                id: RuleId(rule_idx as u32),
                head: Atom::new(head_rel, head_terms),
                body,
                constraints,
                var_names,
                origin: raw.origin.clone(),
            });
        }

        // 3. Classify relations: anything appearing in a rule head — or
        //    receiving an aggregation — is IDB.
        for rule in &rules {
            decls[rule.head.rel.index()].is_edb = false;
        }
        for (output, _, _) in &self.raw_aggregates {
            let rel = lookup(output, &by_name)?;
            decls[rel.index()].is_edb = false;
        }

        // 4. Resolve facts (after the ones taken over by id).
        let mut facts: Vec<(RelId, Tuple)> = std::mem::take(&mut self.resolved_facts);
        for (rel_name, terms) in &self.raw_facts {
            let rel = lookup(rel_name, &by_name)?;
            let mut values = Vec::with_capacity(terms.len());
            for term in terms {
                match term {
                    TermSpec::Int(n) => {
                        if *n >= Value::SYMBOL_BASE {
                            return Err(DatalogError::IntegerOutOfRange { value: *n });
                        }
                        values.push(Value::int(*n));
                    }
                    TermSpec::Str(text) => values.push(self.symbols.intern(text)),
                    TermSpec::Value(value) => values.push(*value),
                    TermSpec::Var(_) => return Err(DatalogError::NonGroundFact(rel_name.clone())),
                    TermSpec::Agg(..) => {
                        return Err(DatalogError::AggregateMisplaced {
                            relation: rel_name.clone(),
                        })
                    }
                }
            }
            facts.push((rel, Tuple::new(values)));
        }

        // 4b. Resolve aggregations and check their shape: the output must be
        //     defined by the aggregation alone (no rules, no facts, exactly
        //     one spec) and share the input's arity.
        let mut aggregates: Vec<AggregateSpec> = Vec::new();
        for (output_name, input_name, aggs) in &self.raw_aggregates {
            let output = lookup(output_name, &by_name)?;
            let input = lookup(input_name, &by_name)?;
            if rules.iter().any(|r| r.head.rel == output)
                || facts.iter().any(|(rel, _)| *rel == output)
                || aggregates.iter().any(|a| a.output == output)
            {
                return Err(DatalogError::AggregateConflict {
                    relation: output_name.clone(),
                });
            }
            let (out_arity, in_arity) = (decls[output.index()].arity, decls[input.index()].arity);
            if out_arity != in_arity {
                return Err(DatalogError::ArityMismatch {
                    relation: output_name.clone(),
                    expected: out_arity,
                    actual: in_arity,
                });
            }
            for &(col, _) in aggs {
                if col >= out_arity {
                    return Err(DatalogError::ArityMismatch {
                        relation: output_name.clone(),
                        expected: out_arity,
                        actual: col + 1,
                    });
                }
            }
            aggregates.push(AggregateSpec {
                output,
                input,
                aggs: aggs.clone(),
                // Refined during stratification: set when input and output
                // share a recursive stratum.
                lattice: false,
            });
        }

        // 5. Validate arities, safety (including constraint safety) and fact
        //    shapes.
        validate::validate(&decls, &rules, &facts, &self.symbols)?;

        // 6. Stratify (rejects negation through recursion and classifies
        //    each aggregate as stratified or monotone-lattice).
        let stratification = Stratification::compute(&decls, &rules, &mut aggregates)?;

        Ok(Program::new(
            decls,
            rules,
            facts,
            aggregates,
            self.symbols,
            stratification,
        ))
    }

    /// Rewrites every rule whose head contains aggregate terms into an
    /// ordinary rule deriving a hidden `<head>__agg_input` relation, plus a
    /// raw aggregation registration from the hidden input to the original
    /// head.
    ///
    /// Several rules may aggregate into the same output — e.g. the base and
    /// recursive rules of a lattice fold like single-rule shortest path —
    /// as long as every rule deriving that head aggregates the same columns
    /// with the same functions; they all feed one shared hidden input and
    /// register one aggregation.  Mixing aggregate and plain rules on one
    /// head stays rejected.
    fn rewrite_aggregate_rules(&mut self) -> Result<(), DatalogError> {
        // Count rules per head so aggregate heads can insist that every
        // sibling rule is also an aggregate rule.
        let mut head_counts: FxHashMap<String, usize> = FxHashMap::default();
        for raw in &self.raw_rules {
            *head_counts.entry(raw.head_rel.clone()).or_insert(0) += 1;
        }
        // Phase 1: group the aggregate rules by output, checking signature
        // agreement, and check that each hidden name is genuinely fresh —
        // `<head>__agg_input` is reserved, so any user declaration, rule or
        // fact touching it would silently contaminate the aggregate's input
        // and is rejected instead.
        // Rule indices sharing the head, plus the agreed (column, function)
        // aggregate signature.
        type AggGroup = (Vec<usize>, Vec<(usize, AggFunc)>);
        let mut outputs: Vec<String> = Vec::new();
        let mut grouped: FxHashMap<String, AggGroup> = FxHashMap::default();
        for (idx, raw) in self.raw_rules.iter().enumerate() {
            let agg_cols: Vec<(usize, AggFunc)> = raw
                .head_terms
                .iter()
                .enumerate()
                .filter_map(|(i, t)| match t {
                    TermSpec::Agg(func, _) => Some((i, *func)),
                    _ => None,
                })
                .collect();
            if agg_cols.is_empty() {
                continue;
            }
            let output = raw.head_rel.clone();
            match grouped.get_mut(&output) {
                Some((idxs, cols)) => {
                    if *cols != agg_cols {
                        return Err(DatalogError::AggregateConflict { relation: output });
                    }
                    idxs.push(idx);
                }
                None => {
                    outputs.push(output.clone());
                    grouped.insert(output, (vec![idx], agg_cols));
                }
            }
        }
        for output in &outputs {
            let (idxs, _) = &grouped[output];
            // Every rule deriving this head must be one of the aggregate
            // rules; a plain sibling rule would bypass the fold.
            if head_counts.get(output).copied().unwrap_or(0) != idxs.len() {
                return Err(DatalogError::AggregateConflict {
                    relation: output.clone(),
                });
            }
            let hidden = format!("{output}{AGG_INPUT_SUFFIX}");
            let mentioned = self.relations.iter().any(|(n, _)| n == &hidden)
                || self.raw_facts.iter().any(|(n, _)| n == &hidden)
                || self
                    .raw_rules
                    .iter()
                    .any(|r| r.head_rel == hidden || r.body.iter().any(|(n, _, _)| n == &hidden));
            if mentioned {
                return Err(DatalogError::AggregateConflict { relation: hidden });
            }
        }
        // Phase 2: apply — declare the hidden relation once per output,
        // retarget every member rule's head at it, register the aggregation.
        for output in outputs {
            let (idxs, agg_cols) = grouped.remove(&output).expect("grouped by construction");
            let hidden = format!("{output}{AGG_INPUT_SUFFIX}");
            let arity = self.raw_rules[idxs[0]].head_terms.len();
            self.relations.push((hidden.clone(), arity));
            for idx in idxs {
                let raw = &mut self.raw_rules[idx];
                for term in &mut raw.head_terms {
                    if let TermSpec::Agg(_, var) = term {
                        *term = TermSpec::Var(std::mem::take(var));
                    }
                }
                raw.head_rel = hidden.clone();
            }
            self.raw_aggregates.push((output, hidden, agg_cols));
        }
        Ok(())
    }
}

/// Suffix of the hidden relation holding an aggregate rule's raw
/// (pre-aggregation) rows.  The name is reserved: user programs may not
/// declare, derive or assert facts into `<relation>__agg_input`.
const AGG_INPUT_SUFFIX: &str = "__agg_input";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_declaration_same_arity_is_ok() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Edge", 2);
        assert!(b.build().is_ok());
    }

    #[test]
    fn conflicting_arity_is_rejected() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Edge", 3);
        assert!(matches!(
            b.build(),
            Err(DatalogError::ConflictingDeclaration { .. })
        ));
    }

    #[test]
    fn unknown_relation_in_rule_is_rejected() {
        let mut b = ProgramBuilder::new();
        b.relation("Path", 2);
        b.rule("Path", &["x", "y"]).when("Edge", &["x", "y"]).end();
        assert!(matches!(b.build(), Err(DatalogError::UnknownRelation(_))));
    }

    #[test]
    fn string_constants_are_interned() {
        let mut b = ProgramBuilder::new();
        b.relation("InvFuns", 2);
        b.fact("InvFuns", &[s("deserialize"), s("serialize")]);
        b.fact("InvFuns", &[s("deserialize"), s("serialize")]);
        let p = b.build().unwrap();
        assert_eq!(p.facts().len(), 2);
        let (_, t) = &p.facts()[0];
        assert_eq!(p.symbols().display(t.get(0).unwrap()), "deserialize");
    }

    #[test]
    fn facts_with_variables_are_rejected() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.fact("Edge", &[v("x"), c(1)]);
        assert!(matches!(b.build(), Err(DatalogError::NonGroundFact(_))));
    }

    #[test]
    fn variables_are_shared_within_a_rule() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Path", 2);
        b.rule("Path", &["x", "y"])
            .when("Edge", &["x", "z"])
            .when("Path", &["z", "y"])
            .end();
        let p = b.build().unwrap();
        let rule = &p.rules()[0];
        // x, y, z → 3 distinct variables.
        assert_eq!(rule.num_vars(), 3);
        // The `z` in both body atoms resolves to the same VarId.
        let edge_z = rule.body[0].atom.terms[1];
        let path_z = rule.body[1].atom.terms[0];
        assert_eq!(edge_z, path_z);
    }

    #[test]
    fn out_of_range_int_term_is_an_error_not_a_panic() {
        // Regression: `TermSpec::Int` beyond the plain-integer range used to
        // abort via the `Value::int` assert inside `build()`.
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.fact("Edge", &[TermSpec::Int(3_000_000_000), c(1)]);
        assert!(matches!(
            b.build(),
            Err(DatalogError::IntegerOutOfRange {
                value: 3_000_000_000
            })
        ));

        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Out", 1);
        b.rule("Out", &[v("x")])
            .when("Edge", &[v("x"), TermSpec::Int(u32::MAX)])
            .end();
        assert!(matches!(
            b.build(),
            Err(DatalogError::IntegerOutOfRange { .. })
        ));
    }

    #[test]
    fn raw_value_terms_pass_through_unchanged() {
        let mut b = ProgramBuilder::new();
        let sym = b.intern("handler");
        b.relation("Tagged", 2);
        b.fact(
            "Tagged",
            &[TermSpec::Value(sym), TermSpec::Value(Value::int(9))],
        );
        let p = b.build().unwrap();
        let (_, t) = &p.facts()[0];
        assert_eq!(t.get(0), Some(sym));
        assert_eq!(t.get(1), Some(Value::int(9)));
    }

    #[test]
    fn constraints_are_recorded_and_validated() {
        let mut b = ProgramBuilder::new();
        b.relation("R", 2);
        b.relation("Out", 2);
        b.rule("Out", &["x", "y"])
            .when("R", &["x", "y"])
            .lt(v("x"), v("y"))
            .ge(v("y"), c(2))
            .end();
        let p = b.build().unwrap();
        assert_eq!(p.rules()[0].constraints.len(), 2);
        assert_eq!(p.rules()[0].constraints[0].op, CmpOp::Lt);

        // A constraint over a variable bound nowhere is unsafe.
        let mut b = ProgramBuilder::new();
        b.relation("R", 1);
        b.relation("Out", 1);
        b.rule("Out", &["x"])
            .when("R", &["x"])
            .lt(v("x"), v("nope"))
            .end();
        assert!(matches!(
            b.build(),
            Err(DatalogError::UnsafeConstraintVariable { .. })
        ));
    }

    #[test]
    fn aggregate_heads_create_hidden_input_and_spec() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Deg", 2);
        b.rule("Deg", &[v("x"), count_of("y")])
            .when("Edge", &["x", "y"])
            .end();
        let p = b.build().unwrap();
        assert_eq!(p.aggregates().len(), 1);
        let spec = &p.aggregates()[0];
        assert_eq!(p.relation(spec.output).name, "Deg");
        assert_eq!(p.relation(spec.input).name, "Deg__agg_input");
        assert_eq!(spec.aggs, vec![(1, AggFunc::Count)]);
        assert_eq!(p.aggregate_for(spec.output), Some(spec));
        assert!(!p.relation(spec.output).is_edb);
    }

    #[test]
    fn aggregate_misuse_is_rejected() {
        // Aggregate term in a body literal.
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Out", 2);
        b.rule("Out", &["x", "y"])
            .when("Edge", &[v("x"), min_of("y")])
            .end();
        assert!(matches!(
            b.build(),
            Err(DatalogError::AggregateMisplaced { .. })
        ));

        // Aggregated relation with a second (ordinary) rule.
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Deg", 2);
        b.rule("Deg", &[v("x"), count_of("y")])
            .when("Edge", &["x", "y"])
            .end();
        b.rule("Deg", &["x", "y"]).when("Edge", &["x", "y"]).end();
        assert!(matches!(
            b.build(),
            Err(DatalogError::AggregateConflict { .. })
        ));

        // Facts into an aggregated relation.
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Deg", 2);
        b.rule("Deg", &[v("x"), count_of("y")])
            .when("Edge", &["x", "y"])
            .end();
        b.fact_ints("Deg", &[1, 1]);
        assert!(matches!(
            b.build(),
            Err(DatalogError::AggregateConflict { .. })
        ));
    }

    #[test]
    fn hidden_aggregate_input_name_is_reserved() {
        // A fact asserted into the reserved `<rel>__agg_input` name would
        // silently contaminate the aggregate's input; it must be rejected.
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Deg", 2);
        b.relation("Deg__agg_input", 2);
        b.rule("Deg", &[v("x"), count_of("y")])
            .when("Edge", &["x", "y"])
            .end();
        b.fact_ints("Deg__agg_input", &[5, 9]);
        assert!(matches!(
            b.build(),
            Err(DatalogError::AggregateConflict { relation }) if relation == "Deg__agg_input"
        ));

        // Likewise a user rule deriving the hidden relation.
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Deg", 2);
        b.relation("Deg__agg_input", 2);
        b.rule("Deg", &[v("x"), count_of("y")])
            .when("Edge", &["x", "y"])
            .end();
        b.rule("Deg__agg_input", &["x", "y"])
            .when("Edge", &["x", "y"])
            .end();
        assert!(matches!(
            b.build(),
            Err(DatalogError::AggregateConflict { .. })
        ));
    }

    #[test]
    fn aggregate_misplaced_names_the_offending_relation() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Out", 2);
        b.rule("Out", &["x", "y"])
            .when("Edge", &[v("x"), min_of("y")])
            .end();
        match b.build() {
            Err(DatalogError::AggregateMisplaced { relation }) => {
                assert_eq!(relation, "Edge");
            }
            other => panic!("expected AggregateMisplaced, got {other:?}"),
        }
    }

    #[test]
    fn rule_labels_and_positions_reach_the_resolved_rule() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Path", 2);
        b.rule("Path", &["x", "y"])
            .when("Edge", &["x", "y"])
            .label("base-case")
            .end();
        b.rule("Path", &["x", "y"])
            .when("Edge", &["x", "z"])
            .when("Path", &["z", "y"])
            .at(2, 1)
            .end();
        let p = b.build().unwrap();
        assert_eq!(p.rules()[0].origin.label.as_deref(), Some("base-case"));
        assert_eq!(p.rules()[0].origin.position, None);
        assert_eq!(p.rules()[1].origin.position, Some((2, 1)));
        assert!(p.rules()[1].origin.label.is_none());
    }

    #[test]
    fn mixed_term_specs_via_into() {
        let mut b = ProgramBuilder::new();
        b.relation("Fact", 2);
        b.relation("Out", 1);
        // `1u32.into()` is a constant, "x" is a variable.
        b.rule("Out", &[v("x")])
            .when("Fact", &[TermSpec::Int(1), v("x")])
            .end();
        let p = b.build().unwrap();
        let body_atom = &p.rules()[0].body[0].atom;
        assert_eq!(body_atom.terms[0], Term::Const(Value::int(1)));
        assert!(matches!(body_atom.terms[1], Term::Var(_)));
    }
}
