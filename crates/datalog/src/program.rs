//! The validated, fully resolved Datalog program.

use carac_storage::{RelId, SymbolTable, Tuple};

use crate::ast::{AggregateSpec, RelationDecl, Rule, RuleId};
use crate::error::DatalogError;
use crate::precedence::Stratification;

/// A complete, validated Datalog program: relation declarations, rules,
/// ground facts, stratified aggregations, interned symbols, and its
/// stratification.
///
/// `Program` is immutable once built; the engine owns its own mutable
/// storage and treats the program purely as a query description.
#[derive(Debug, Clone)]
pub struct Program {
    relations: Vec<RelationDecl>,
    rules: Vec<Rule>,
    facts: Vec<(RelId, Tuple)>,
    aggregates: Vec<AggregateSpec>,
    symbols: SymbolTable,
    stratification: Stratification,
}

impl Program {
    /// Assembles a program from its parts.  Intended to be called by the
    /// builder after validation; library users normally go through
    /// [`ProgramBuilder`](crate::builder::ProgramBuilder) or the parser.
    pub(crate) fn new(
        relations: Vec<RelationDecl>,
        rules: Vec<Rule>,
        facts: Vec<(RelId, Tuple)>,
        aggregates: Vec<AggregateSpec>,
        symbols: SymbolTable,
        stratification: Stratification,
    ) -> Self {
        Program {
            relations,
            rules,
            facts,
            aggregates,
            symbols,
            stratification,
        }
    }

    /// All relation declarations in id order.
    pub fn relations(&self) -> &[RelationDecl] {
        &self.relations
    }

    /// Declaration of a single relation.
    pub fn relation(&self, id: RelId) -> &RelationDecl {
        &self.relations[id.index()]
    }

    /// Looks a relation up by name.
    pub fn relation_by_name(&self, name: &str) -> Result<RelId, DatalogError> {
        self.relations
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.id)
            .ok_or_else(|| DatalogError::UnknownRelation(name.to_string()))
    }

    /// All rules in definition order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// A single rule.
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.index()]
    }

    /// Rules whose head is `rel`.
    pub fn rules_for(&self, rel: RelId) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(move |r| r.head.rel == rel)
    }

    /// Ground facts attached to the program (facts can also be inserted into
    /// the engine at runtime; these are the statically known ones).
    pub fn facts(&self) -> &[(RelId, Tuple)] {
        &self.facts
    }

    /// Appends one ground fact.  The caller guarantees that `tuple` matches
    /// the arity of `rel`; facts do not affect the stratification.
    pub(crate) fn push_fact(&mut self, rel: RelId, tuple: Tuple) {
        debug_assert_eq!(tuple.arity(), self.relation(rel).arity);
        self.facts.push((rel, tuple));
    }

    /// The stratified aggregations of the program, one per aggregate rule.
    pub fn aggregates(&self) -> &[AggregateSpec] {
        &self.aggregates
    }

    /// The aggregation producing `rel`, if `rel` is an aggregated relation.
    pub fn aggregate_for(&self, rel: RelId) -> Option<&AggregateSpec> {
        self.aggregates.iter().find(|a| a.output == rel)
    }

    /// The symbol table used to intern string constants.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The stratification (strata in evaluation order).
    pub fn stratification(&self) -> &Stratification {
        &self.stratification
    }

    /// Ids of all intensional relations.
    pub fn idb_relations(&self) -> Vec<RelId> {
        self.relations
            .iter()
            .filter(|r| !r.is_edb)
            .map(|r| r.id)
            .collect()
    }

    /// Ids of all extensional relations.
    pub fn edb_relations(&self) -> Vec<RelId> {
        self.relations
            .iter()
            .filter(|r| r.is_edb)
            .map(|r| r.id)
            .collect()
    }

    /// Returns a copy of the program with the positive body atoms of every
    /// rule permuted by `permute(rule) -> order`.  Used to derive the
    /// "unoptimized" and "hand-optimized" formulations of a workload and by
    /// the ahead-of-time ("macro") optimizer.
    pub fn map_rule_orders<F>(&self, mut permute: F) -> Program
    where
        F: FnMut(&Rule) -> Option<Vec<usize>>,
    {
        let rules = self
            .rules
            .iter()
            .map(|r| match permute(r) {
                Some(order) => r.with_positive_order(&order),
                None => r.clone(),
            })
            .collect();
        Program {
            relations: self.relations.clone(),
            rules,
            facts: self.facts.clone(),
            aggregates: self.aggregates.clone(),
            symbols: self.symbols.clone(),
            stratification: self.stratification.clone(),
        }
    }

    /// Human-readable rendering of a rule (used in error messages and the
    /// `Display` of plans).
    pub fn display_rule(&self, rule: &Rule) -> String {
        let atom = |a: &crate::ast::Atom| {
            let terms: Vec<String> = a
                .terms
                .iter()
                .map(|t| match t {
                    crate::ast::Term::Var(v) => rule
                        .var_names
                        .get(v.index())
                        .cloned()
                        .unwrap_or_else(|| format!("{v:?}")),
                    crate::ast::Term::Const(c) => self.symbols.display(*c),
                })
                .collect();
            format!("{}({})", self.relation(a.rel).name, terms.join(", "))
        };
        let term = |t: &crate::ast::Term| match t {
            crate::ast::Term::Var(v) => rule
                .var_names
                .get(v.index())
                .cloned()
                .unwrap_or_else(|| format!("{v:?}")),
            crate::ast::Term::Const(c) => self.symbols.display(*c),
        };
        let mut body: Vec<String> = rule
            .body
            .iter()
            .map(|l| {
                if l.negated {
                    format!("!{}", atom(&l.atom))
                } else {
                    atom(&l.atom)
                }
            })
            .collect();
        body.extend(
            rule.constraints
                .iter()
                .map(|c| format!("{} {} {}", term(&c.lhs), c.op.symbol(), term(&c.rhs))),
        );
        if body.is_empty() {
            format!("{}.", atom(&rule.head))
        } else {
            format!("{} :- {}.", atom(&rule.head), body.join(", "))
        }
    }

    /// Human-readable rendering of a stratified aggregation, e.g.
    /// `Dist(_, min _) <- Dist__agg_input`.
    pub fn display_aggregate(&self, spec: &AggregateSpec) -> String {
        let arity = self.relation(spec.output).arity;
        let cols: Vec<String> = (0..arity)
            .map(|c| match spec.aggs.iter().find(|(col, _)| *col == c) {
                Some((_, func)) => format!("{} _", func.name()),
                None => "_".to_string(),
            })
            .collect();
        format!(
            "{}({}) <- {}",
            self.relation(spec.output).name,
            cols.join(", "),
            self.relation(spec.input).name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn transitive_closure() -> Program {
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Path", 2);
        b.rule("Path", &["x", "y"]).when("Edge", &["x", "y"]).end();
        b.rule("Path", &["x", "y"])
            .when("Edge", &["x", "z"])
            .when("Path", &["z", "y"])
            .end();
        b.fact_ints("Edge", &[1, 2]);
        b.build().unwrap()
    }

    #[test]
    fn relations_are_classified_by_rule_heads() {
        let p = transitive_closure();
        let edge = p.relation_by_name("Edge").unwrap();
        let path = p.relation_by_name("Path").unwrap();
        assert!(p.relation(edge).is_edb);
        assert!(!p.relation(path).is_edb);
        assert_eq!(p.idb_relations(), vec![path]);
        assert_eq!(p.edb_relations(), vec![edge]);
    }

    #[test]
    fn rules_for_filters_by_head() {
        let p = transitive_closure();
        let path = p.relation_by_name("Path").unwrap();
        assert_eq!(p.rules_for(path).count(), 2);
        let edge = p.relation_by_name("Edge").unwrap();
        assert_eq!(p.rules_for(edge).count(), 0);
    }

    #[test]
    fn display_rule_round_trips_names() {
        let p = transitive_closure();
        let shown = p.display_rule(&p.rules()[1]);
        assert_eq!(shown, "Path(x, y) :- Edge(x, z), Path(z, y).");
    }

    #[test]
    fn map_rule_orders_swaps_atoms() {
        let p = transitive_closure();
        let swapped = p.map_rule_orders(|r| {
            if r.positive_body().count() == 2 {
                Some(vec![1, 0])
            } else {
                None
            }
        });
        let shown = swapped.display_rule(&swapped.rules()[1]);
        assert_eq!(shown, "Path(x, y) :- Path(z, y), Edge(x, z).");
        // Original program untouched.
        assert_eq!(
            p.display_rule(&p.rules()[1]),
            "Path(x, y) :- Edge(x, z), Path(z, y)."
        );
    }

    #[test]
    fn facts_are_recorded() {
        let p = transitive_closure();
        assert_eq!(p.facts().len(), 1);
    }
}
