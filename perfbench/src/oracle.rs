//! Reference answers computed without the engine.
//!
//! Every workload's output is compared tuple-for-tuple against these plain
//! Rust fixpoints.  They use a different algorithm from the engine on
//! purpose: CSPA is iterated naively over dense bit matrices, and every
//! transitive closure is a breadth-first search per source node.

use std::collections::VecDeque;

/// A binary relation as a sorted, duplicate-free list of pairs.
pub type Pairs = Vec<(u32, u32)>;

/// A dense square bit matrix over the node universe `0..n`.
#[derive(Clone, PartialEq, Eq)]
struct BitMatrix {
    n: usize,
    words: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitMatrix {
            n,
            words,
            bits: vec![0; n * words],
        }
    }

    fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Self {
        let mut m = BitMatrix::new(n);
        for &(a, b) in pairs {
            m.set(a as usize, b as usize);
        }
        m
    }

    fn set(&mut self, row: usize, col: usize) {
        self.bits[row * self.words + col / 64] |= 1 << (col % 64);
    }

    fn get(&self, row: usize, col: usize) -> bool {
        self.bits[row * self.words + col / 64] & (1 << (col % 64)) != 0
    }

    fn row(&self, row: usize) -> &[u64] {
        &self.bits[row * self.words..(row + 1) * self.words]
    }

    /// `self ∪= other`.
    fn union_with(&mut self, other: &BitMatrix) {
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Boolean product `self · other`: `(i, k)` iff some `j` has `(i, j)`
    /// in `self` and `(j, k)` in `other`.
    fn compose(&self, other: &BitMatrix) -> BitMatrix {
        let mut out = BitMatrix::new(self.n);
        for i in 0..self.n {
            for j in 0..self.n {
                if self.get(i, j) {
                    let start = i * out.words;
                    for (w, b) in out.bits[start..start + out.words]
                        .iter_mut()
                        .zip(other.row(j))
                    {
                        *w |= b;
                    }
                }
            }
        }
        out
    }

    fn transpose(&self) -> BitMatrix {
        let mut out = BitMatrix::new(self.n);
        for i in 0..self.n {
            for j in 0..self.n {
                if self.get(i, j) {
                    out.set(j, i);
                }
            }
        }
        out
    }

    fn pairs(&self) -> Pairs {
        let mut out = Vec::new();
        for i in 0..self.n {
            for j in 0..self.n {
                if self.get(i, j) {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }
}

/// The derived relations of the CSPA program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CspaAnswer {
    /// `VaFlow` pairs.
    pub vaflow: Pairs,
    /// `VAlias` pairs.
    pub valias: Pairs,
    /// `MAlias` pairs.
    pub malias: Pairs,
}

fn universe(relations: &[&[(u32, u32)]]) -> usize {
    relations
        .iter()
        .flat_map(|r| r.iter())
        .map(|&(a, b)| a.max(b) as usize + 1)
        .max()
        .unwrap_or(0)
}

/// Context-sensitive pointer analysis (Fig. 1 of the paper), evaluated
/// naively over bit matrices until no relation grows:
///
/// ```text
/// VaFlow(v2, v1) :- Assign(v2, v1).
/// VaFlow(v1, v1) :- Assign(v1, _).        VaFlow(v1, v1) :- Assign(_, v1).
/// MAlias(v1, v1) :- Assign(v1, _).        MAlias(v1, v1) :- Assign(_, v1).
/// VaFlow(v1, v2) :- Assign(v1, v3), MAlias(v3, v2).
/// VaFlow(v1, v2) :- VaFlow(v1, v3), VaFlow(v3, v2).
/// MAlias(v1, v0) :- Derefr(v2, v1), VAlias(v2, v3), Derefr(v3, v0).
/// VAlias(v1, v2) :- VaFlow(v3, v1), VaFlow(v3, v2).
/// VAlias(v1, v2) :- MAlias(v3, v0), VaFlow(v3, v1), VaFlow(v0, v2).
/// ```
pub fn cspa(assign: &[(u32, u32)], derefr: &[(u32, u32)]) -> CspaAnswer {
    let n = universe(&[assign, derefr]);
    let a = BitMatrix::from_pairs(n, assign);
    let d = BitMatrix::from_pairs(n, derefr);
    let dt = d.transpose();
    let mut diag = BitMatrix::new(n);
    for &(x, y) in assign {
        diag.set(x as usize, x as usize);
        diag.set(y as usize, y as usize);
    }
    let mut vaflow = a.clone();
    vaflow.union_with(&diag);
    let mut malias = diag;
    let mut valias = BitMatrix::new(n);
    loop {
        let before = (vaflow.clone(), valias.clone(), malias.clone());
        let ft = vaflow.transpose();
        let mut f = vaflow.clone();
        f.union_with(&a.compose(&malias));
        f.union_with(&vaflow.compose(&vaflow));
        let mut m = malias.clone();
        m.union_with(&dt.compose(&valias).compose(&d));
        let mut v = valias.clone();
        v.union_with(&ft.compose(&vaflow));
        v.union_with(&ft.compose(&malias).compose(&vaflow));
        vaflow = f;
        malias = m;
        valias = v;
        if (vaflow.clone(), valias.clone(), malias.clone()) == before {
            break;
        }
    }
    CspaAnswer {
        vaflow: vaflow.pairs(),
        valias: valias.pairs(),
        malias: malias.pairs(),
    }
}

/// A digraph as adjacency lists, for reach-set queries.
#[derive(Debug, Clone)]
pub struct Graph {
    adj: Vec<Vec<u32>>,
}

impl Graph {
    /// The graph of `edges` over the nodes `0..=max id`.
    pub fn new(edges: &[(u32, u32)]) -> Self {
        let mut adj = vec![Vec::new(); universe(&[edges])];
        for &(a, b) in edges {
            adj[a as usize].push(b);
        }
        Graph { adj }
    }

    fn reach_in(&self, src: u32, seen: &mut [bool], out: &mut Vec<u32>) {
        let mut queue = VecDeque::new();
        if let Some(next) = self.adj.get(src as usize) {
            queue.extend(next.iter().copied());
        }
        while let Some(node) = queue.pop_front() {
            if seen[node as usize] {
                continue;
            }
            seen[node as usize] = true;
            out.push(node);
            queue.extend(self.adj[node as usize].iter().copied());
        }
    }

    /// Every node reachable from `src` over one or more edges, sorted — the
    /// answer to `Path(src, y)` for `Path` the transitive closure.
    pub fn reach(&self, src: u32) -> Vec<u32> {
        let mut seen = vec![false; self.adj.len()];
        let mut out = Vec::new();
        self.reach_in(src, &mut seen, &mut out);
        out.sort_unstable();
        out
    }

    /// The transitive closure as sorted pairs: one search per source node.
    pub fn closure(&self) -> Pairs {
        let mut seen = vec![false; self.adj.len()];
        let mut reached = Vec::new();
        let mut out = Vec::new();
        for src in 0..self.adj.len() as u32 {
            self.reach_in(src, &mut seen, &mut reached);
            reached.sort_unstable();
            out.extend(reached.iter().map(|&y| (src, y)));
            for &y in &reached {
                seen[y as usize] = false;
            }
            reached.clear();
        }
        out
    }
}

/// The transitive closure of `edges` as sorted pairs.
pub fn closure(edges: &[(u32, u32)]) -> Pairs {
    Graph::new(edges).closure()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reach_follows_paths_of_length_one_or_more() {
        // 0 → 1 → 2 → 0 is a cycle; 3 → 0 feeds it; 4 is isolated.
        let graph = Graph::new(&[(0, 1), (1, 2), (2, 0), (3, 0)]);
        assert_eq!(graph.reach(0), vec![0, 1, 2]);
        assert_eq!(graph.reach(3), vec![0, 1, 2]);
        assert_eq!(graph.reach(4), Vec::<u32>::new());
        // A node without a self-loop does not reach itself.
        assert_eq!(Graph::new(&[(0, 1)]).reach(0), vec![1]);
    }

    #[test]
    fn closure_of_a_chain_and_a_cycle() {
        assert_eq!(closure(&[(0, 1), (1, 2)]), vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(
            closure(&[(0, 1), (1, 0)]),
            vec![(0, 0), (0, 1), (1, 0), (1, 1)]
        );
        // Duplicate edges change nothing.
        assert_eq!(closure(&[(2, 3), (2, 3)]), vec![(2, 3)]);
    }

    #[test]
    fn cspa_on_a_hand_checked_program() {
        // Assign(1, 0): variable 1 is assigned from 0.  Derefr(0, 2) and
        // Derefr(1, 3): dereferencing 0 yields 2, dereferencing 1 yields 3.
        let answer = cspa(&[(1, 0)], &[(0, 2), (1, 3)]);
        // VaFlow: the assignment plus the reflexive pairs of 0 and 1.
        assert_eq!(answer.vaflow, vec![(0, 0), (1, 0), (1, 1)]);
        // VAlias(v1, v2) :- VaFlow(v3, v1), VaFlow(v3, v2): v3 = 0 gives
        // (0, 0); v3 = 1 gives every pair over {0, 1}.
        assert_eq!(answer.valias, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        // MAlias: reflexive 0 and 1, plus every pair over the dereferenced
        // {2, 3} since 0 and 1 alias each other and themselves.
        assert_eq!(
            answer.malias,
            vec![(0, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
        );
    }

    #[test]
    fn cspa_second_round_feeds_vaflow_through_malias() {
        // Assign(0, 2), Assign(1, 0); Derefr(0, 3), Derefr(1, 4).
        let answer = cspa(&[(0, 2), (1, 0)], &[(0, 3), (1, 4)]);
        // VaFlow(1, 0), VaFlow(0, 2), so VaFlow(1, 2) by transitivity.
        assert!(answer.vaflow.contains(&(1, 2)));
        // VAlias(0, 1) through VaFlow(1, 0) and VaFlow(1, 1), so
        // MAlias(3, 4) through Derefr(0, 3), VAlias(0, 1), Derefr(1, 4).
        assert!(answer.valias.contains(&(0, 1)));
        assert!(answer.malias.contains(&(3, 4)));
        assert!(answer.malias.contains(&(4, 3)));
        // MAlias(4, 4) via Derefr(1, 4), VAlias(1, 1), Derefr(1, 4).
        assert!(answer.malias.contains(&(4, 4)));
    }
}
