//! Seeded inputs: the programs each workload evaluates and the generators
//! of their facts and update streams.  The engine only ever sees what these
//! functions return.

use std::collections::HashSet;

use carac::datalog::{Program, ProgramBuilder};
use carac_analysis::rng::SmallRng;

/// An edge list.
pub type Edges = Vec<(u32, u32)>;

/// A well-mixed 64-bit value for sub-stream `index` of `seed` (SplitMix64
/// finalizer), so neighbouring seeds and indices give unrelated inputs.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn add_edges(b: &mut ProgramBuilder, relation: &str, edges: &[(u32, u32)]) {
    for &(x, y) in edges {
        b.fact_ints(relation, &[x, y]);
    }
}

/// The CSPA program in its *unoptimized* formulation (the atom orders of
/// Fig. 1(a), as `carac_analysis::program_analysis::cspa` writes them) over
/// the given facts.
pub fn cspa_unoptimized(assign: &[(u32, u32)], derefr: &[(u32, u32)]) -> Program {
    let mut b = ProgramBuilder::new();
    for rel in ["Assign", "Derefr", "VaFlow", "VAlias", "MAlias"] {
        b.relation(rel, 2);
    }
    b.rule("VaFlow", &["v2", "v1"])
        .when("Assign", &["v2", "v1"])
        .end();
    b.rule("VaFlow", &["v1", "v1"])
        .when("Assign", &["v1", "v2"])
        .end();
    b.rule("VaFlow", &["v1", "v1"])
        .when("Assign", &["v2", "v1"])
        .end();
    b.rule("MAlias", &["v1", "v1"])
        .when("Assign", &["v2", "v1"])
        .end();
    b.rule("MAlias", &["v1", "v1"])
        .when("Assign", &["v1", "v2"])
        .end();
    b.rule("VaFlow", &["v1", "v2"])
        .when("MAlias", &["v3", "v2"])
        .when("Assign", &["v1", "v3"])
        .end();
    b.rule("VaFlow", &["v1", "v2"])
        .when("VaFlow", &["v3", "v2"])
        .when("VaFlow", &["v1", "v3"])
        .end();
    b.rule("MAlias", &["v1", "v0"])
        .when("VAlias", &["v2", "v3"])
        .when("Derefr", &["v3", "v0"])
        .when("Derefr", &["v2", "v1"])
        .end();
    b.rule("VAlias", &["v1", "v2"])
        .when("VaFlow", &["v3", "v2"])
        .when("VaFlow", &["v3", "v1"])
        .end();
    b.rule("VAlias", &["v1", "v2"])
        .when("VaFlow", &["v0", "v2"])
        .when("VaFlow", &["v3", "v1"])
        .when("MAlias", &["v3", "v0"])
        .end();
    add_edges(&mut b, "Assign", assign);
    add_edges(&mut b, "Derefr", derefr);
    b.build().expect("CSPA program validates")
}

/// The CSDA program in its hand-optimized formulation over `nullflow`.
pub fn csda_optimized(nullflow: &[(u32, u32)]) -> Program {
    let mut b = ProgramBuilder::new();
    b.relation("Nullflow", 2);
    b.relation("Dataflow", 2);
    b.rule("Dataflow", &["x", "y"])
        .when("Nullflow", &["x", "y"])
        .end();
    b.rule("Dataflow", &["x", "y"])
        .when("Nullflow", &["x", "z"])
        .when("Dataflow", &["z", "y"])
        .end();
    add_edges(&mut b, "Nullflow", nullflow);
    b.build().expect("CSDA program validates")
}

/// Transitive closure of `Edge` into `Path`.  `left_linear` writes the
/// recursive rule as `Path(x, z), Edge(z, y)` — the shape a bound-first
/// point query demand-restricts best; otherwise `Edge(x, z), Path(z, y)`.
pub fn transitive_closure(edges: &[(u32, u32)], left_linear: bool) -> Program {
    let mut b = ProgramBuilder::new();
    b.relation("Edge", 2);
    b.relation("Path", 2);
    b.rule("Path", &["x", "y"]).when("Edge", &["x", "y"]).end();
    if left_linear {
        b.rule("Path", &["x", "y"])
            .when("Path", &["x", "z"])
            .when("Edge", &["z", "y"])
            .end();
    } else {
        b.rule("Path", &["x", "y"])
            .when("Edge", &["x", "z"])
            .when("Path", &["z", "y"])
            .end();
    }
    add_edges(&mut b, "Edge", edges);
    b.build().expect("transitive-closure program validates")
}

/// A uniform random digraph of exactly `edges` distinct, self-loop-free
/// arcs over `nodes` vertices.
pub fn distinct_digraph(nodes: u32, edges: usize, seed: u64) -> Edges {
    let n = u64::from(nodes);
    assert!(
        (edges as u64) <= n * n.saturating_sub(1),
        "more arcs than {nodes} nodes admit"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen = HashSet::with_capacity(edges);
    let mut out = Vec::with_capacity(edges);
    while out.len() < edges {
        let edge = (rng.gen_range_u32(0, nodes), rng.gen_range_u32(0, nodes));
        if edge.0 != edge.1 && seen.insert(edge) {
            out.push(edge);
        }
    }
    out
}

/// One update batch: `retracts` were live before it, `inserts` were not,
/// and the two are disjoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Edges leaving the graph.
    pub retracts: Edges,
    /// Edges entering the graph.
    pub inserts: Edges,
}

/// A random digraph made of `blocks` disjoint blocks of `block` nodes, each
/// holding `arcs` distinct, self-loop-free arcs drawn uniformly inside it
/// (node `i` of block `b` is `b * block + i`).
pub fn block_digraph(blocks: u32, block: u32, arcs: usize, seed: u64) -> Edges {
    (0..blocks)
        .flat_map(|b| {
            distinct_digraph(block, arcs, mix(seed, u64::from(b)))
                .into_iter()
                .map(move |(x, y)| (b * block + x, b * block + y))
        })
        .collect()
}

/// An endless, seeded stream of edge-churn batches against a live edge
/// set on nodes grouped into blocks of `block` consecutive ids: every batch
/// retracts `churn` live edges and, for each, inserts an absent edge inside
/// the same block, so neither the edge count nor any block's share of it
/// ever changes.
#[derive(Debug, Clone)]
pub struct EdgeStream {
    block: u32,
    churn: usize,
    live: Edges,
    live_set: HashSet<(u32, u32)>,
    rng: SmallRng,
}

impl EdgeStream {
    /// A stream over `base`: distinct, self-loop-free edges, each inside
    /// one block, no block near complete.
    pub fn new(base: &[(u32, u32)], block: u32, churn: usize, seed: u64) -> Self {
        let live_set: HashSet<(u32, u32)> = base.iter().copied().collect();
        assert_eq!(live_set.len(), base.len(), "base edges must be distinct");
        assert!(
            base.iter().all(|&(a, b)| a / block == b / block && a != b),
            "base edges must be self-loop-free and inside one block"
        );
        EdgeStream {
            block,
            churn,
            live: base.to_vec(),
            live_set,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The live edge set after every batch drawn so far.
    pub fn live(&self) -> &[(u32, u32)] {
        &self.live
    }

    /// Draws the next batch and applies it to the tracked edge set.
    pub fn next_batch(&mut self) -> Batch {
        let mut retracts = Vec::with_capacity(self.churn);
        for _ in 0..self.churn.min(self.live.len()) {
            let pos = self.rng.gen_range_usize(0, self.live.len());
            let edge = self.live.swap_remove(pos);
            self.live_set.remove(&edge);
            retracts.push(edge);
        }
        let mut inserts = Vec::with_capacity(self.churn);
        for &(from, _) in &retracts {
            let first = from / self.block * self.block;
            loop {
                let a = first + self.rng.gen_range_u32(0, self.block);
                let b = first + self.rng.gen_range_u32(0, self.block);
                let edge = (a, b);
                // A retracted edge may not come back in the same batch: the
                // batch's inserts and retracts stay disjoint.
                if a == b || self.live_set.contains(&edge) || retracts.contains(&edge) {
                    continue;
                }
                self.live_set.insert(edge);
                self.live.push(edge);
                inserts.push(edge);
                break;
            }
        }
        Batch { retracts, inserts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carac_analysis::program_analysis::{csda, cspa};

    fn rule_text(program: &Program) -> Vec<String> {
        program
            .rules()
            .iter()
            .map(|r| program.display_rule(r))
            .collect()
    }

    #[test]
    fn formulations_match_the_analysis_suite() {
        let facts = carac_analysis::generators::cspa_facts(24, 5);
        let ours = cspa_unoptimized(&facts.assign, &facts.derefr);
        let theirs = cspa(24, 5).unoptimized;
        assert_eq!(rule_text(&ours), rule_text(&theirs));
        assert_eq!(ours.facts(), theirs.facts());

        let edges = carac_analysis::generators::csda_facts(40, 5);
        let ours = csda_optimized(&edges);
        let theirs = csda(40, 5).optimized;
        assert_eq!(rule_text(&ours), rule_text(&theirs));
        assert_eq!(ours.facts(), theirs.facts());
    }

    fn per_block(edges: &HashSet<(u32, u32)>, block: u32) -> Vec<usize> {
        let mut counts = vec![0; 5];
        for &(a, _) in edges {
            counts[(a / block) as usize] += 1;
        }
        counts
    }

    #[test]
    fn edge_stream_keeps_its_invariants() {
        let base = block_digraph(5, 10, 12, 9);
        let mut live: HashSet<(u32, u32)> = base.iter().copied().collect();
        let blocks = per_block(&live, 10);
        assert_eq!(blocks, vec![12; 5]);
        let mut stream = EdgeStream::new(&base, 10, 3, 11);
        for _ in 0..2000 {
            let batch = stream.next_batch();
            assert_eq!(batch.retracts.len(), 3);
            assert_eq!(batch.inserts.len(), 3);
            for edge in &batch.retracts {
                assert!(live.remove(edge), "phantom retract of {edge:?}");
            }
            for &edge in &batch.inserts {
                assert!(edge.0 != edge.1, "self-loop {edge:?}");
                assert_eq!(edge.0 / 10, edge.1 / 10, "edge {edge:?} leaves its block");
                assert!(!batch.retracts.contains(&edge), "retract+insert {edge:?}");
                assert!(live.insert(edge), "duplicate insert of {edge:?}");
            }
            assert_eq!(live.len(), base.len(), "edge count drifted");
            assert_eq!(per_block(&live, 10), blocks, "a block's edge count drifted");
            let tracked: HashSet<(u32, u32)> = stream.live().iter().copied().collect();
            assert_eq!(tracked, live);
        }
    }

    #[test]
    fn streams_repeat_for_a_seed() {
        let base = block_digraph(3, 10, 10, 1);
        let mut a = EdgeStream::new(&base, 10, 2, 4);
        let mut b = EdgeStream::new(&base, 10, 2, 4);
        for _ in 0..50 {
            assert_eq!(a.next_batch(), b.next_batch());
        }
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
    }

    #[test]
    fn distinct_digraph_has_no_duplicates_or_loops() {
        let edges = distinct_digraph(20, 200, 3);
        let set: HashSet<_> = edges.iter().copied().collect();
        assert_eq!(edges.len(), 200);
        assert_eq!(set.len(), edges.len());
        assert!(edges.iter().all(|&(a, b)| a != b));
    }
}
