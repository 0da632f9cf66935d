//! Flat CSR adjacency — the unified graph representation behind every
//! CDG verdict path.
//!
//! A [`Csr`] stores a channel-indexed dependency graph as two flat
//! arrays (`row_start`, `col`) with ascending rows. Dally cycle
//! detection ([`find_cycle`]), the channel-ordering certificate
//! (`topological_order`) and the Duato escape check (via
//! [`crate::dally::verify_turn_set`]) all walk this one structure, and
//! the one cycle search behind them also runs where no CSR was built
//! (`Successors`): the turn-model enumerations and the incremental
//! verifier ([`crate::incremental::IncrementalVerifier`]) read their
//! verdicts off a [`crate::graph::Skeleton`] with it. The simulator's
//! deadlock post-mortem runs [`find_cycle`] on its wait-for graph.
//!
//! All traversals share one thread-local visitation scratch buffer
//! (colors, the DFS stack, in-degrees, ready-heap), so repeated
//! queries on same-sized graphs perform zero allocations in steady
//! state — the same discipline as the allocation-free engine cycle
//! loop (see `crates/cdg/tests/scratch_allocs.rs`).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Compressed-sparse-row adjacency over `u32` node indices.
///
/// Rows are laid out in node-index order, and traversals walk a row in
/// the order stored, which decides the witness: the CDG build stores
/// every row ascending (channel-enumeration order), the simulator's
/// wait-for graph in the order the waits were found.
#[derive(Debug, Clone)]
pub struct Csr {
    n: usize,
    /// `row_start[i]..row_start[i + 1]` indexes `col` for node `i`.
    row_start: Vec<u32>,
    /// Successor node indices, row by row.
    col: Vec<u32>,
}

impl Csr {
    /// Wraps prebuilt CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics when `row_start` is not a monotone prefix over `col` with
    /// `n + 1` entries.
    pub fn new(n: usize, row_start: Vec<u32>, col: Vec<u32>) -> Csr {
        assert_eq!(row_start.len(), n + 1, "row_start needs n + 1 entries");
        assert_eq!(*row_start.last().unwrap() as usize, col.len());
        assert!(row_start.windows(2).all(|w| w[0] <= w[1]));
        Csr { n, row_start, col }
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.col.len()
    }

    /// Successors of node `u`, in stored order.
    pub fn row(&self, u: usize) -> &[u32] {
        &self.col[self.row_start[u] as usize..self.row_start[u + 1] as usize]
    }
}

/// Shared visitation scratch: every traversal borrows this per-thread
/// buffer instead of allocating its own, so steady-state queries on
/// same-sized graphs never touch the allocator.
struct Scratch {
    color: Vec<u8>,
    /// The search's stack: `(node, next candidate, end of candidates)`.
    frames: Vec<(u32, u32, u32)>,
    indeg: Vec<u32>,
    heap: BinaryHeap<Reverse<u32>>,
}

const WHITE: u8 = 0;
const GRAY: u8 = 1;
const BLACK: u8 = 2;

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            color: Vec::new(),
            frames: Vec::new(),
            indeg: Vec::new(),
            heap: BinaryHeap::new(),
        })
    };
}

/// What the cycle search walks: per node an ascending range of candidate
/// cursors, some of which are edges. CSR rows are the case where every
/// candidate is one; [`crate::graph::Skeleton`] filters the channels
/// leaving a link's head node by a class relation.
pub(crate) trait Successors {
    /// Called once, when the search first reaches `u`: the cursors of
    /// its candidate successors.
    fn open(&mut self, u: u32) -> Range<u32>;

    /// The successor behind candidate `at` of `u`, or `None` when that
    /// candidate is not an edge.
    fn successor(&self, u: u32, at: u32) -> Option<u32>;
}

/// The rows of a [`Csr`] as [`search`] walks them.
struct Rows<'a>(&'a Csr);

impl Successors for Rows<'_> {
    fn open(&mut self, u: u32) -> Range<u32> {
        self.0.row_start[u as usize]..self.0.row_start[u as usize + 1]
    }

    fn successor(&self, _: u32, at: u32) -> Option<u32> {
        Some(self.0.col[at as usize])
    }
}

/// The one cycle search: an iterative three-colour DFS (no recursion —
/// CDGs of large tori can be deep) from every one of the view's `n`
/// nodes in turn, over the shared scratch buffer. Candidates are visited
/// in ascending order, so every view of one graph reports the same
/// cycle. `cycle` receives the nodes along the cycle found (the stack
/// from the back edge's target up) and is left empty when there is
/// none; returns the number of edges visited.
pub(crate) fn search<S: Successors>(view: &mut S, n: usize, cycle: &mut Vec<u32>) -> u64 {
    SCRATCH.with(|s| walk(&mut s.borrow_mut(), view, n, cycle))
}

/// [`search`] with the scratch buffer in hand. A function of its own:
/// inlined into the closure above the search ran 1.17x slower.
fn walk<S: Successors>(s: &mut Scratch, view: &mut S, n: usize, cycle: &mut Vec<u32>) -> u64 {
    cycle.clear();
    s.color.clear();
    s.color.resize(n, WHITE);
    s.frames.clear();
    let mut edges_visited = 0u64;
    for start in 0..n as u32 {
        if s.color[start as usize] != WHITE {
            continue;
        }
        s.color[start as usize] = GRAY;
        let candidates = view.open(start);
        s.frames.push((start, candidates.start, candidates.end));
        while let Some(&mut (node, ref mut next, end)) = s.frames.last_mut() {
            if *next == end {
                s.color[node as usize] = BLACK;
                s.frames.pop();
                continue;
            }
            let at = *next;
            *next += 1;
            let Some(v) = view.successor(node, at) else {
                continue;
            };
            edges_visited += 1;
            match s.color[v as usize] {
                WHITE => {
                    s.color[v as usize] = GRAY;
                    let candidates = view.open(v);
                    s.frames.push((v, candidates.start, candidates.end));
                }
                GRAY => {
                    // Back edge node -> v: the stack from v up.
                    let from = s.frames.iter().rposition(|f| f.0 == v);
                    let from = from.expect("a grey node is on the stack");
                    cycle.extend(s.frames[from..].iter().map(|f| f.0));
                    return edges_visited;
                }
                _ => {}
            }
        }
    }
    edges_visited
}

/// Finds a directed cycle, returning the node indices along it, or
/// `None` for acyclic graphs: the one cycle search over the flat CSR
/// arrays — no allocation beyond the witness itself.
/// `tests/kernel_differential.rs` pins the witness against the
/// adjacency-list kernel this replaced.
pub fn find_cycle(csr: &Csr) -> Option<Vec<u32>> {
    let _p = ebda_obs::prof::phase("cdg/cycle");
    let n = csr.node_count();
    let mut cycle = Vec::new();
    let edges_visited = search(&mut Rows(csr), n, &mut cycle);
    let found = (!cycle.is_empty()).then_some(cycle);
    ebda_obs::prof::work("cdg/cycle", "edges_visited", edges_visited);
    ebda_obs::prof::work("cdg/cycle", "cycles_found", u64::from(found.is_some()));
    found
}

/// A deterministic topological order of the node indices, or `None`
/// when the graph is cyclic. Among ready nodes the lowest index goes
/// first — identical output to the `BTreeSet`-based order the CDG used
/// before, but via the scratch min-heap.
pub(crate) fn topological_order(csr: &Csr) -> Option<Vec<u32>> {
    let n = csr.node_count();
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        s.indeg.clear();
        s.indeg.resize(n, 0);
        for u in 0..n {
            for &v in csr.row(u) {
                s.indeg[v as usize] += 1;
            }
        }
        s.heap.clear();
        for v in 0..n as u32 {
            if s.indeg[v as usize] == 0 {
                s.heap.push(Reverse(v));
            }
        }
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(v)) = s.heap.pop() {
            order.push(v);
            for &b in csr.row(v as usize) {
                s.indeg[b as usize] -= 1;
                if s.indeg[b as usize] == 0 {
                    s.heap.push(Reverse(b));
                }
            }
        }
        (order.len() == n).then_some(order)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr_of(edges: &[Vec<u32>]) -> Csr {
        let mut row_start = vec![0u32];
        let mut col = Vec::new();
        for row in edges {
            col.extend_from_slice(row);
            row_start.push(col.len() as u32);
        }
        Csr::new(edges.len(), row_start, col)
    }

    #[test]
    fn topological_order_is_min_first() {
        // Diamond: among ready nodes the lowest index goes first.
        let g = vec![vec![1, 2], vec![3], vec![3], vec![]];
        assert_eq!(topological_order(&csr_of(&g)), Some(vec![0, 1, 2, 3]));
        assert_eq!(topological_order(&csr_of(&[vec![0u32]])), None);
    }

    #[test]
    fn deep_chain_does_not_overflow_scratch_dfs() {
        let n = 100_000;
        let mut g: Vec<Vec<u32>> = (0..n - 1).map(|i| vec![i as u32 + 1]).collect();
        g.push(vec![]);
        let csr = csr_of(&g);
        assert!(find_cycle(&csr).is_none());
        assert_eq!(topological_order(&csr).unwrap().len(), n);
    }
}
