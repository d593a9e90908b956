//! Goal-directed evaluation: the magic-set rewrite.
//!
//! A full fixpoint answers every query the program could ever be asked; a
//! *point query* such as `Path(3, X)?` only needs the facts reachable from
//! its bound arguments.  [`magic_rewrite`] specializes a validated
//! [`Program`] to one query pattern using the classic magic-set
//! transformation:
//!
//! * every demanded relation `p` is *adorned* with the query's
//!   bound/free pattern (`p__bf` for "first argument bound, second free"),
//! * a *magic predicate* `m__p__bf` holds the set of bound-argument
//!   tuples actually demanded; the adorned rules are guarded by it so they
//!   derive only demanded facts,
//! * demand flows *sideways* through each rule body: the atoms are walked in
//!   a statically chosen sideways-information-passing (SIP) order — the same
//!   most-bound-columns-first greedy the optimizer's `atom_score` machinery
//!   applies at runtime — and every eligible body atom with at least one
//!   bound column spawns a magic rule propagating the demand,
//! * the query constants seed the goal's magic predicate with one fact.
//!
//! The constants enter only through that seed.  [`magic_template`] builds
//! everything else from the goal and its adornment alone, so a caller
//! answering many queries of one shape rewrites once and adds each query's
//! [`seed`]; [`magic_rewrite`] is the template plus the seed as the last
//! fact.
//!
//! The rewritten program is an ordinary validated [`Program`]: it
//! stratifies, plans and executes through the existing pipeline unchanged,
//! on every engine (interpreter, specialized kernels, bytecode VM).
//!
//! ## Negation and aggregation
//!
//! Demand must never restrict a relation whose *absence* or *aggregate* is
//! observed: under-computing a negated relation would fabricate facts, and
//! under-feeding an aggregation would corrupt its folds.  The rewrite is
//! therefore conservative:
//!
//! * a relation appearing under negation anywhere, participating in an
//!   aggregation (either side), carrying base facts, or extensional, is
//!   *ineligible* — adorned rules read the original, fully evaluated
//!   relation instead, and its defining rules (plus everything they depend
//!   on, transitively) are kept for full evaluation;
//! * if the **goal relation itself** is ineligible — or the pattern binds
//!   nothing — the rewrite falls back to the unmodified program and reports
//!   it via [`MagicProgram::fallback`] (surfaced as the `magic_fallback`
//!   flag on `RunStats` by the engine).
//!
//! Either way the contract is the same and differentially tested: the
//! rewritten program's answer set, filtered on the bound constants, is
//! bit-identical to filtering the full fixpoint.

use std::collections::VecDeque;

use carac_storage::hasher::FxHashSet;
use carac_storage::{CmpOp, RelId, Tuple, Value};

use crate::ast::{Atom, Literal, Rule, Term};
use crate::builder::{ProgramBuilder, TermSpec};
use crate::error::DatalogError;
use crate::program::Program;

/// Name prefix of every generated magic predicate (`m__Path__bf`).  The
/// optimizer uses [`is_magic_name`] to score magic relations as
/// high-selectivity demand guards.
pub const MAGIC_PREFIX: &str = "m__";

/// Whether `name` is a generated magic predicate of a rewritten program.
pub fn is_magic_name(name: &str) -> bool {
    name.starts_with(MAGIC_PREFIX)
}

/// One argument position of a goal-directed query: either pinned to a
/// constant or left free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryBinding {
    /// The argument must equal this value.
    Bound(Value),
    /// The argument is unconstrained.
    Free,
}

impl QueryBinding {
    /// A bound small-integer argument (panics above the plain-integer
    /// range, like [`Value::int`]).
    pub fn bound_int(n: u32) -> Self {
        QueryBinding::Bound(Value::int(n))
    }

    /// Whether the argument is bound.
    pub fn is_bound(&self) -> bool {
        matches!(self, QueryBinding::Bound(_))
    }

    /// Whether `value` satisfies this binding.
    pub fn matches(&self, value: Value) -> bool {
        match self {
            QueryBinding::Bound(b) => *b == value,
            QueryBinding::Free => true,
        }
    }
}

/// The outcome of [`magic_rewrite`]: the rewritten (or, on fallback, the
/// original) program plus everything the engine needs to run the query.
#[derive(Debug, Clone)]
pub struct MagicProgram {
    /// The program to evaluate.  Original relations keep their [`RelId`]s
    /// (facts added at runtime against the original program stay valid);
    /// adorned and magic relations are appended after them.
    pub program: Program,
    /// Name of the relation holding the query answers: the goal's adorned
    /// relation, or the original relation on fallback.  Callers must still
    /// filter on the bound constants — recursive demand can put more than
    /// one tuple into the goal's magic set, so the adorned relation may
    /// hold answers for every demanded binding, a superset of the query's.
    pub answer_relation: String,
    /// Whether the rewrite fell back to full evaluation (goal ineligible
    /// for demand restriction, or nothing bound in the pattern).
    pub fallback: bool,
    /// Names of the generated magic predicates (empty on fallback) — the
    /// optimizer treats these as high-selectivity.
    pub magic_relations: Vec<String>,
    /// Mapping from each adorned relation name (`Path__bf`) back to the
    /// original relation it specializes (`Path`), empty on fallback.
    /// Provenance reconstruction unions an original relation's facts with
    /// its adorned variants' to recover the demanded cone per relation.
    pub adorned_map: Vec<(String, String)>,
}

/// A generated rule before emission through the builder.
struct GenRule {
    head: (String, Vec<TermSpec>),
    body: Vec<(String, Vec<TermSpec>, bool)>,
    constraints: Vec<(TermSpec, CmpOp, TermSpec)>,
}

/// `"bf"`-style rendering of an adornment.
fn adn_str(adn: &[bool]) -> String {
    adn.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
}

/// Name of the adorned variant of `name` under `adn`.
fn adorned_name(name: &str, adn: &[bool]) -> String {
    format!("{name}__{}", adn_str(adn))
}

/// Name of the magic predicate guarding `name` under `adn`.
fn magic_name(name: &str, adn: &[bool]) -> String {
    format!("{MAGIC_PREFIX}{name}__{}", adn_str(adn))
}

/// Round-trips a term into the builder spec, preserving constants
/// bit-exactly (same contract as alias elimination).
fn to_spec(term: &Term, rule: &Rule) -> TermSpec {
    match term {
        Term::Var(v) => TermSpec::Var(rule.var_names[v.index()].clone()),
        Term::Const(c) => TermSpec::Value(*c),
    }
}

/// The atom's terms at the bound positions of `adn` — the magic predicate's
/// column layout.
fn bound_specs(atom: &Atom, adn: &[bool], rule: &Rule) -> Vec<TermSpec> {
    atom.terms
        .iter()
        .zip(adn)
        .filter(|(_, &b)| b)
        .map(|(t, _)| to_spec(t, rule))
        .collect()
}

/// Static sideways-information-passing order over the positive body: the
/// greedy most-bound-columns-first walk (constants and already-bound
/// variables count), ties keeping the written order.  This is the static
/// twin of the optimizer's `atom_score` greedy — no cardinalities exist at
/// rewrite time, so bound-column count stands in for selectivity; at
/// runtime the adaptive reorderer re-sorts the adorned bodies with live
/// cardinalities and the magic guards scored as high-selectivity.
fn sip_order(positives: &[&Literal], head_bound: &[bool]) -> Vec<usize> {
    let n = positives.len();
    let mut bound = head_bound.to_vec();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    while !remaining.is_empty() {
        let mut best_pos = 0;
        let mut best_score = -1i64;
        for (pos, &i) in remaining.iter().enumerate() {
            let score = positives[i]
                .atom
                .terms
                .iter()
                .filter(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound[v.index()],
                })
                .count() as i64;
            if score > best_score {
                best_score = score;
                best_pos = pos;
            }
        }
        let chosen = remaining.remove(best_pos);
        for (_, v) in positives[chosen].atom.variables() {
            bound[v.index()] = true;
        }
        order.push(chosen);
    }
    order
}

/// The constant-free part of a magic rewrite: everything [`magic_rewrite`]
/// produces for one `(goal, adornment)` except the seed fact.  Queries that
/// bind the same argument positions share one template and differ only in
/// their [`seed`].
#[derive(Debug, Clone)]
pub struct MagicTemplate {
    /// The rewritten program without the seed: relations, adorned and magic
    /// rules, kept original rules and aggregations, and the original facts
    /// in their original order.
    pub program: Program,
    /// Name of the goal's adorned relation (see
    /// [`MagicProgram::answer_relation`]).
    pub answer_relation: String,
    /// Names of the generated magic predicates, the goal's first.
    pub magic_relations: Vec<String>,
    /// Adorned relation name → the original relation it specializes.
    pub adorned_map: Vec<(String, String)>,
    /// The goal's magic predicate: the relation a query's [`seed`] goes to.
    pub seed_relation: RelId,
}

/// The seed fact of a query: its bound constants in column order, demanded
/// unconditionally in the goal's magic predicate.
pub fn seed(pattern: &[QueryBinding]) -> Tuple {
    Tuple::new(
        pattern
            .iter()
            .filter_map(|b| match b {
                QueryBinding::Bound(v) => Some(*v),
                QueryBinding::Free => None,
            })
            .collect(),
    )
}

/// Rewrites `program` for the goal `goal` queried under `pattern` (one
/// binding per column).  `extra_fact_rels` lists relations that receive
/// facts at runtime beyond the program's own (`Carac`'s `add_fact_*`
/// surface): intensional relations among them carry asserted base facts the
/// demand restriction would lose, so they are treated as ineligible exactly
/// like relations with static program facts.
///
/// Returns the rewritten program (see [`MagicProgram`]), or the original
/// program with [`MagicProgram::fallback`] set when the goal cannot soundly
/// be demand-restricted.  The rewritten program is the
/// [`magic_template`] of the pattern's adornment with the [`seed`] appended
/// as its last fact.
pub fn magic_rewrite(
    program: &Program,
    goal: RelId,
    pattern: &[QueryBinding],
    extra_fact_rels: &[RelId],
) -> Result<MagicProgram, DatalogError> {
    let adornment: Vec<bool> = pattern.iter().map(QueryBinding::is_bound).collect();
    let Some(template) = magic_template(program, goal, &adornment, extra_fact_rels)? else {
        return Ok(MagicProgram {
            program: program.clone(),
            answer_relation: program.relation(goal).name.clone(),
            fallback: true,
            magic_relations: Vec::new(),
            adorned_map: Vec::new(),
        });
    };
    let mut rewritten = template.program;
    rewritten.push_fact(template.seed_relation, seed(pattern));
    Ok(MagicProgram {
        program: rewritten,
        answer_relation: template.answer_relation,
        fallback: false,
        magic_relations: template.magic_relations,
        adorned_map: template.adorned_map,
    })
}

/// The constant-free half of [`magic_rewrite`]: rewrites `program` for the
/// goal `goal` under `adornment` (`true` = bound), with `extra_fact_rels`
/// as in [`magic_rewrite`].  Returns `Ok(None)` when the goal falls back to
/// full evaluation of the unmodified program.
pub fn magic_template(
    program: &Program,
    goal: RelId,
    adornment: &[bool],
    extra_fact_rels: &[RelId],
) -> Result<Option<MagicTemplate>, DatalogError> {
    let goal_decl = program.relation(goal);
    if adornment.len() != goal_decl.arity {
        return Err(DatalogError::ArityMismatch {
            relation: goal_decl.name.clone(),
            expected: goal_decl.arity,
            actual: adornment.len(),
        });
    }
    let adornment = adornment.to_vec();

    // --- eligibility: which relations may be demand-restricted -----------
    let mut negated_anywhere: FxHashSet<RelId> = FxHashSet::default();
    for rule in program.rules() {
        for literal in rule.negative_body() {
            negated_anywhere.insert(literal.atom.rel);
        }
    }
    let agg_pinned: FxHashSet<RelId> = program
        .aggregates()
        .iter()
        .flat_map(|a| [a.input, a.output])
        .collect();
    let mut fact_bearing: FxHashSet<RelId> = program.facts().iter().map(|(rel, _)| *rel).collect();
    fact_bearing.extend(extra_fact_rels.iter().copied());
    let eligible = |rel: RelId| -> bool {
        !program.relation(rel).is_edb
            && !negated_anywhere.contains(&rel)
            && !agg_pinned.contains(&rel)
            && !fact_bearing.contains(&rel)
    };

    if !adornment.iter().any(|&b| b) || !eligible(goal) {
        return Ok(None);
    }

    // --- adornment worklist ----------------------------------------------
    let mut queue: VecDeque<(RelId, Vec<bool>)> = VecDeque::new();
    let mut processed: FxHashSet<(RelId, Vec<bool>)> = FxHashSet::default();
    let mut adorned: Vec<(RelId, Vec<bool>)> = Vec::new();
    queue.push_back((goal, adornment.clone()));
    processed.insert((goal, adornment.clone()));
    adorned.push((goal, adornment.clone()));

    // Relations read fully by adorned rules (negated subgoals, aggregate
    // outputs, unbound demands, ...): their defining rules are kept.
    let mut full_needed: Vec<RelId> = Vec::new();
    let need_full = |rel: RelId, full_needed: &mut Vec<RelId>| {
        if !program.relation(rel).is_edb && !full_needed.contains(&rel) {
            full_needed.push(rel);
        }
    };
    let mut gen_rules: Vec<GenRule> = Vec::new();

    while let Some((rel, adn)) = queue.pop_front() {
        for rule in program.rules_for(rel) {
            let positives: Vec<&Literal> = rule.positive_body().collect();
            // Variables bound by the demand: head variables at bound
            // adornment positions.
            let mut head_bound = vec![false; rule.num_vars()];
            for (col, &b) in adn.iter().enumerate() {
                if b {
                    if let Term::Var(v) = rule.head.terms[col] {
                        head_bound[v.index()] = true;
                    }
                }
            }
            let sip = sip_order(&positives, &head_bound);

            // The adorned rule body grows left to right; `body` doubles as
            // the magic-rule prefix at every step.
            let guard = (
                magic_name(&goal_name_of(program, rel), &adn),
                bound_specs(&rule.head, &adn, rule),
            );
            let mut body: Vec<(String, Vec<TermSpec>, bool)> = vec![(guard.0, guard.1, false)];
            let mut bound = head_bound;
            for &i in &sip {
                let atom = &positives[i].atom;
                let sub_adn: Vec<bool> = atom
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => bound[v.index()],
                    })
                    .collect();
                let decl = program.relation(atom.rel);
                let name = if eligible(atom.rel) && sub_adn.iter().any(|&b| b) {
                    if processed.insert((atom.rel, sub_adn.clone())) {
                        queue.push_back((atom.rel, sub_adn.clone()));
                        adorned.push((atom.rel, sub_adn.clone()));
                    }
                    // Demand propagation: the bound columns of this atom,
                    // derivable from the guard plus the SIP prefix.
                    gen_rules.push(GenRule {
                        head: (
                            magic_name(&decl.name, &sub_adn),
                            bound_specs(atom, &sub_adn, rule),
                        ),
                        body: body.clone(),
                        constraints: Vec::new(),
                    });
                    adorned_name(&decl.name, &sub_adn)
                } else {
                    // Ineligible (or nothing bound flows in): read the
                    // original relation, fully evaluated.
                    need_full(atom.rel, &mut full_needed);
                    decl.name.clone()
                };
                body.push((
                    name,
                    atom.terms.iter().map(|t| to_spec(t, rule)).collect(),
                    false,
                ));
                for (_, v) in atom.variables() {
                    bound[v.index()] = true;
                }
            }
            // Negated subgoals always read the original, fully evaluated
            // relation: demand must not cross a negation.
            for literal in rule.negative_body() {
                let decl = program.relation(literal.atom.rel);
                need_full(literal.atom.rel, &mut full_needed);
                body.push((
                    decl.name.clone(),
                    literal
                        .atom
                        .terms
                        .iter()
                        .map(|t| to_spec(t, rule))
                        .collect(),
                    true,
                ));
            }
            gen_rules.push(GenRule {
                head: (
                    adorned_name(&program.relation(rel).name, &adn),
                    rule.head.terms.iter().map(|t| to_spec(t, rule)).collect(),
                ),
                body,
                constraints: rule
                    .constraints
                    .iter()
                    .map(|c| (to_spec(&c.lhs, rule), c.op, to_spec(&c.rhs, rule)))
                    .collect(),
            });
        }
    }

    // --- closure of fully evaluated relations ----------------------------
    let mut kept_rules = vec![false; program.rules().len()];
    let mut kept_aggs: Vec<&crate::ast::AggregateSpec> = Vec::new();
    let mut i = 0;
    while i < full_needed.len() {
        let rel = full_needed[i];
        i += 1;
        if let Some(spec) = program.aggregate_for(rel) {
            kept_aggs.push(spec);
            if !full_needed.contains(&spec.input) {
                full_needed.push(spec.input);
            }
        }
        for rule in program.rules_for(rel) {
            if kept_rules[rule.id.index()] {
                continue;
            }
            kept_rules[rule.id.index()] = true;
            for literal in &rule.body {
                need_full(literal.atom.rel, &mut full_needed);
            }
        }
    }

    // --- reserved-name check ---------------------------------------------
    let existing: FxHashSet<&str> = program
        .relations()
        .iter()
        .map(|d| d.name.as_str())
        .collect();
    for (rel, adn) in &adorned {
        let decl = program.relation(*rel);
        for name in [adorned_name(&decl.name, adn), magic_name(&decl.name, adn)] {
            if existing.contains(name.as_str()) {
                return Err(DatalogError::ReservedName { relation: name });
            }
        }
    }

    // --- emission ----------------------------------------------------------
    let mut builder = ProgramBuilder::new();
    builder.with_symbols(program.symbols().clone());
    // Original relations first, in order, so RelIds are preserved.
    for decl in program.relations() {
        builder.relation(&decl.name, decl.arity);
    }
    let mut magic_relations = Vec::with_capacity(adorned.len());
    let mut adorned_map = Vec::with_capacity(adorned.len());
    for (rel, adn) in &adorned {
        let decl = program.relation(*rel);
        let adorned = adorned_name(&decl.name, adn);
        builder.relation(&adorned, decl.arity);
        adorned_map.push((adorned, decl.name.clone()));
        let magic = magic_name(&decl.name, adn);
        builder.relation(&magic, adn.iter().filter(|&&b| b).count());
        magic_relations.push(magic);
    }
    // Kept original rules (full evaluation), in original order.
    for rule in program.rules() {
        if !kept_rules[rule.id.index()] {
            continue;
        }
        let head_specs: Vec<TermSpec> = rule.head.terms.iter().map(|t| to_spec(t, rule)).collect();
        let mut rb = builder.rule(&program.relation(rule.head.rel).name, &head_specs);
        for literal in &rule.body {
            let name = &program.relation(literal.atom.rel).name;
            let specs: Vec<TermSpec> = literal
                .atom
                .terms
                .iter()
                .map(|t| to_spec(t, rule))
                .collect();
            rb = if literal.negated {
                rb.when_not(name, &specs)
            } else {
                rb.when(name, &specs)
            };
        }
        for c in &rule.constraints {
            rb = rb.constrain(to_spec(&c.lhs, rule), c.op, to_spec(&c.rhs, rule));
        }
        rb.end();
    }
    // Generated adorned and magic rules, in generation order.
    for g in &gen_rules {
        let mut rb = builder.rule(&g.head.0, &g.head.1);
        for (name, specs, negated) in &g.body {
            rb = if *negated {
                rb.when_not(name, specs)
            } else {
                rb.when(name, specs)
            };
        }
        for (lhs, op, rhs) in &g.constraints {
            rb = rb.constrain(lhs.clone(), *op, rhs.clone());
        }
        rb.end();
    }
    // All original facts (EDB inputs and any kept IDB base facts), taken
    // over by id: they were validated with the source program.
    builder.resolved_facts(program.facts());
    // Kept aggregations.
    for spec in kept_aggs {
        builder.aggregate(
            &program.relation(spec.output).name,
            &program.relation(spec.input).name,
            &spec.aggs,
        );
    }
    let rewritten = builder.build()?;
    let seed_relation = rewritten.relation_by_name(&magic_name(&goal_decl.name, &adornment))?;
    Ok(Some(MagicTemplate {
        answer_relation: adorned_name(&goal_decl.name, &adornment),
        program: rewritten,
        magic_relations,
        adorned_map,
        seed_relation,
    }))
}

/// Helper reading a relation's name (kept out of the closure-captured
/// borrows above).
fn goal_name_of(program: &Program, rel: RelId) -> String {
    program.relation(rel).name.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{c, v};
    use crate::parser::parse;

    fn tc() -> Program {
        parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2). Edge(2, 3). Edge(5, 6).",
        )
        .unwrap()
    }

    #[test]
    fn rewrites_point_query_with_seed_and_guards() {
        let p = tc();
        let path = p.relation_by_name("Path").unwrap();
        let mp = magic_rewrite(
            &p,
            path,
            &[QueryBinding::bound_int(1), QueryBinding::Free],
            &[],
        )
        .unwrap();
        assert!(!mp.fallback);
        assert_eq!(mp.answer_relation, "Path__bf");
        assert_eq!(mp.magic_relations, vec!["m__Path__bf".to_string()]);
        let rp = &mp.program;
        // Original relations keep their ids.
        assert_eq!(
            rp.relation_by_name("Edge").unwrap(),
            p.relation_by_name("Edge").unwrap()
        );
        assert_eq!(rp.relation_by_name("Path").unwrap(), path);
        let answer = rp.relation_by_name("Path__bf").unwrap();
        let magic = rp.relation_by_name("m__Path__bf").unwrap();
        assert_eq!(rp.relation(answer).arity, 2);
        assert_eq!(rp.relation(magic).arity, 1);
        // Every adorned rule is guarded by the magic predicate.
        for rule in rp.rules_for(answer) {
            assert_eq!(rule.body[0].atom.rel, magic, "unguarded adorned rule");
        }
        // The seed fact carries the query constant.
        assert!(rp
            .facts()
            .iter()
            .any(|(rel, t)| *rel == magic && t.values() == [Value::int(1)]));
        // The original Path rules are gone (Path is fully demand-restricted).
        assert_eq!(rp.rules_for(path).count(), 0);
    }

    #[test]
    fn unbound_pattern_falls_back() {
        let p = tc();
        let path = p.relation_by_name("Path").unwrap();
        let mp = magic_rewrite(&p, path, &[QueryBinding::Free, QueryBinding::Free], &[]).unwrap();
        assert!(mp.fallback);
        assert_eq!(mp.answer_relation, "Path");
        assert!(mp.magic_relations.is_empty());
        assert_eq!(mp.program.rules().len(), p.rules().len());
    }

    #[test]
    fn negated_goal_falls_back_and_negated_subgoals_stay_full() {
        let p = parse(
            "Composite(x) :- Div(x, d).\n\
             Prime(x) :- Num(x), !Composite(x).\n\
             Num(2). Num(3). Num(4). Div(4, 2).",
        )
        .unwrap();
        // Composite appears under negation: queries on it fall back.
        let composite = p.relation_by_name("Composite").unwrap();
        let mp = magic_rewrite(&p, composite, &[QueryBinding::bound_int(4)], &[]).unwrap();
        assert!(mp.fallback);
        // Prime is eligible; its negated subgoal keeps Composite (and its
        // rules) fully evaluated.
        let prime = p.relation_by_name("Prime").unwrap();
        let mp = magic_rewrite(&p, prime, &[QueryBinding::bound_int(3)], &[]).unwrap();
        assert!(!mp.fallback);
        let rp = &mp.program;
        let composite = rp.relation_by_name("Composite").unwrap();
        assert_eq!(
            rp.rules_for(composite).count(),
            1,
            "negated dep must stay full"
        );
        let answer = rp.relation_by_name(&mp.answer_relation).unwrap();
        let rule = rp.rules_for(answer).next().unwrap();
        assert!(rule
            .body
            .iter()
            .any(|l| l.negated && l.atom.rel == composite));
    }

    #[test]
    fn aggregated_relations_fall_back() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Deg", 2);
        b.rule("Deg", &[v("x"), crate::builder::count_of("y")])
            .when("Edge", &["x", "y"])
            .end();
        let p = b.build().unwrap();
        let deg = p.relation_by_name("Deg").unwrap();
        let mp = magic_rewrite(
            &p,
            deg,
            &[QueryBinding::bound_int(1), QueryBinding::Free],
            &[],
        )
        .unwrap();
        assert!(mp.fallback);
    }

    #[test]
    fn idb_base_facts_force_fallback() {
        // Path carries an asserted base fact: demand restriction would lose
        // it, so the goal is ineligible.
        let p = parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2). Path(7, 8).",
        )
        .unwrap();
        let path = p.relation_by_name("Path").unwrap();
        let mp = magic_rewrite(
            &p,
            path,
            &[QueryBinding::bound_int(1), QueryBinding::Free],
            &[],
        )
        .unwrap();
        assert!(mp.fallback);
        // The same applies when the facts arrive at runtime.
        let p = tc();
        let path = p.relation_by_name("Path").unwrap();
        let mp = magic_rewrite(
            &p,
            path,
            &[QueryBinding::bound_int(1), QueryBinding::Free],
            &[path],
        )
        .unwrap();
        assert!(mp.fallback);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let p = tc();
        let path = p.relation_by_name("Path").unwrap();
        assert!(matches!(
            magic_rewrite(&p, path, &[QueryBinding::bound_int(1)], &[]),
            Err(DatalogError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn reserved_name_collision_is_rejected() {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Path", 2);
        b.relation("m__Path__bf", 1); // user-declared collision
        b.rule("Path", &["x", "y"]).when("Edge", &["x", "y"]).end();
        b.rule("m__Path__bf", &["x"])
            .when("Edge", &[v("x"), c(1)])
            .end();
        let p = b.build().unwrap();
        let path = p.relation_by_name("Path").unwrap();
        assert!(matches!(
            magic_rewrite(
                &p,
                path,
                &[QueryBinding::bound_int(1), QueryBinding::Free],
                &[]
            ),
            Err(DatalogError::ReservedName { .. })
        ));
    }

    #[test]
    fn demand_propagates_through_multi_relation_bodies() {
        // Same-generation: the recursive rule passes demand through Parent
        // into Sg with the first column bound.
        let p = parse(
            "Sg(x, y) :- Parent(p, x), Parent(p, y).\n\
             Sg(x, y) :- Parent(px, x), Sg(px, py), Parent(py, y).\n\
             Parent(1, 2). Parent(1, 3). Parent(2, 4). Parent(3, 5).",
        )
        .unwrap();
        let sg = p.relation_by_name("Sg").unwrap();
        let mp = magic_rewrite(
            &p,
            sg,
            &[QueryBinding::bound_int(4), QueryBinding::Free],
            &[],
        )
        .unwrap();
        assert!(!mp.fallback);
        // The recursive body atom Sg(px, py) is demanded as Sg__bf again
        // (px becomes bound through Parent(px, x) with x bound).
        let rp = &mp.program;
        assert!(rp.relation_by_name("Sg__bf").is_ok());
        let magic = rp.relation_by_name("m__Sg__bf").unwrap();
        // The magic predicate is recursive: demand grows through the rule.
        assert!(rp.rules_for(magic).count() >= 1);
    }

    #[test]
    fn magic_name_detection() {
        assert!(is_magic_name("m__Path__bf"));
        assert!(!is_magic_name("Path__bf"));
        assert!(!is_magic_name("Path"));
    }
}
