//! Flat CSR adjacency — the unified graph representation behind every
//! CDG verdict path.
//!
//! A [`Csr`] stores a channel-indexed dependency graph as two flat
//! arrays (`row_start`, `col`); rows ascend, so edge membership is a
//! binary search over a handful of targets. Dally cycle detection
//! ([`find_cycle`]), the iterative Tarjan SCC pass ([`tarjan`]) and the
//! Duato escape check (via [`crate::dally::verify_turn_set`]) all walk
//! this one structure, and the one cycle search behind them also runs
//! where no CSR was built (`Successors`); the incremental engine
//! ([`crate::incremental::IncrementalVerifier`]) additionally masks
//! individual edge slots with an [`EdgeMask`] to answer what-if queries
//! without rebuilding anything.
//!
//! All traversals share one thread-local visitation scratch buffer
//! (colors, DFS stacks, in-degrees, ready-heap), so repeated
//! queries on same-sized graphs perform zero allocations in steady
//! state — the same discipline as the allocation-free engine cycle
//! loop (see `crates/cdg/tests/scratch_allocs.rs`).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::ops::Range;

/// Compressed-sparse-row adjacency over `u32` node indices.
///
/// Construction invariant (documented, relied upon for byte-identical
/// witnesses): rows are laid out in node-index order and every row's
/// successor list ascends. The CDG build guarantees this by enumerating
/// candidate successors in channel-enumeration order.
#[derive(Debug, Clone)]
pub struct Csr {
    n: usize,
    /// `row_start[i]..row_start[i + 1]` indexes `col` for node `i`.
    row_start: Vec<u32>,
    /// Successor node indices, ascending within each row.
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
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.col.len()
    }

    /// Successors of node `u`, ascending.
    pub fn row(&self, u: usize) -> &[u32] {
        &self.col[self.row_start[u] as usize..self.row_start[u + 1] as usize]
    }

    /// The flat edge-slot index of the first edge of node `u` — edge
    /// `k` of `u`'s row occupies slot `edge_base(u) + k`, the indexing
    /// an [`EdgeMask`] uses.
    pub fn edge_base(&self, u: usize) -> usize {
        self.row_start[u] as usize
    }

    /// The edge-slot index of `u -> v`, or `None` when absent. Rows
    /// ascend, so this is a binary search.
    pub fn edge_index(&self, u: usize, v: u32) -> Option<usize> {
        let row = self.row(u);
        row.binary_search(&v).ok().map(|k| self.edge_base(u) + k)
    }

    /// Whether the edge `u -> v` exists (binary search, as
    /// [`Csr::edge_index`]).
    pub fn has_edge(&self, u: usize, v: u32) -> bool {
        self.edge_index(u, v).is_some()
    }
}

/// A bitset over the edge *slots* of one [`Csr`] — the overlay the
/// incremental engine uses to mark edges as removed without touching
/// the shared arrays. Slot `k` is edge `k` in `col` order (see
/// [`Csr::edge_base`]).
#[derive(Debug, Clone)]
pub struct EdgeMask {
    words: Vec<u64>,
    set: usize,
}

impl EdgeMask {
    /// An all-clear mask over `edges` slots.
    pub fn new(edges: usize) -> EdgeMask {
        EdgeMask {
            words: vec![0u64; edges.div_ceil(64)],
            set: 0,
        }
    }

    /// Marks slot `i`; returns `true` when it was newly set.
    pub fn set(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        let fresh = self.words[w] >> b & 1 == 0;
        self.words[w] |= 1 << b;
        self.set += usize::from(fresh);
        fresh
    }

    /// Whether slot `i` is marked.
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// How many slots are marked.
    pub fn count(&self) -> usize {
        self.set
    }
}

/// Strongly-connected-component structure of a [`Csr`], from [`tarjan`].
/// Components are numbered in discovery (reverse topological) order.
#[derive(Debug, Clone)]
pub struct SccInfo {
    /// Component id per node.
    pub comp_of: Vec<u32>,
    /// Member nodes per component, in Tarjan pop order.
    pub comp_nodes: Vec<Vec<u32>>,
    /// Whether the component can carry a cycle (more than one node, or
    /// a self-loop).
    pub cyclic: Vec<bool>,
}

impl SccInfo {
    /// Whether the whole graph is acyclic (no cyclic component).
    pub fn acyclic(&self) -> bool {
        !self.cyclic.iter().any(|&c| c)
    }
}

/// Shared visitation scratch: every traversal borrows this per-thread
/// buffer instead of allocating its own, so steady-state queries on
/// same-sized graphs never touch the allocator.
struct Scratch {
    color: Vec<u8>,
    /// The search's stack: `(node, next candidate, end of candidates)`.
    frames: Vec<(u32, u32, u32)>,
    stack: Vec<(u32, u32)>,
    indeg: Vec<u32>,
    heap: BinaryHeap<Reverse<u32>>,
    low: Vec<u32>,
    index: Vec<u32>,
    on_stack: Vec<bool>,
    scc_stack: Vec<u32>,
}

const WHITE: u8 = 0;
const GRAY: u8 = 1;
const BLACK: u8 = 2;

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            color: Vec::new(),
            frames: Vec::new(),
            stack: Vec::new(),
            indeg: Vec::new(),
            heap: BinaryHeap::new(),
            low: Vec::new(),
            index: Vec::new(),
            on_stack: Vec::new(),
            scc_stack: Vec::new(),
        })
    };
}

/// What the cycle search walks: per node an ascending range of candidate
/// cursors, some of which are edges. CSR rows are the case where every
/// candidate is one; [`has_cycle_within`] filters them by a component
/// and an [`EdgeMask`], [`crate::graph::Skeleton`] the channels leaving
/// a link's head node by a class relation.
pub(crate) trait Successors {
    /// Called once, when the search first reaches `u`: the cursors of
    /// its candidate successors.
    fn open(&mut self, u: u32) -> Range<u32>;

    /// The successor behind candidate `at` of `u`, or `None` when that
    /// candidate is not an edge.
    fn successor(&self, u: u32, at: u32) -> Option<u32>;
}

/// The rows of a [`Csr`] as [`walk`] walks them, keeping the edge
/// slots `keep(slot, target)` accepts.
struct Rows<'a, F>(&'a Csr, F);

impl<F: Fn(usize, u32) -> bool> Successors for Rows<'_, F> {
    fn open(&mut self, u: u32) -> Range<u32> {
        self.0.row_start[u as usize]..self.0.row_start[u as usize + 1]
    }

    fn successor(&self, _: u32, at: u32) -> Option<u32> {
        let v = self.0.col[at as usize];
        self.1(at as usize, v).then_some(v)
    }
}

/// The one cycle search: an iterative three-colour DFS (no recursion —
/// CDGs of large tori can be deep) from each of `roots` in turn, which
/// the caller has coloured white in `s`. Candidates are visited in
/// ascending order, so every view of one graph reports the same cycle.
/// `cycle` receives the nodes along the cycle found (the stack from the
/// back edge's target up) and is left empty when there is none; returns
/// the number of edges visited.
fn walk<S: Successors>(
    s: &mut Scratch,
    view: &mut S,
    roots: impl Iterator<Item = u32>,
    cycle: &mut Vec<u32>,
) -> u64 {
    cycle.clear();
    s.frames.clear();
    let mut edges_visited = 0u64;
    for start in roots {
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

/// [`walk`] from every one of the view's `n` nodes, over the shared
/// scratch buffer.
pub(crate) fn search<S: Successors>(view: &mut S, n: usize, cycle: &mut Vec<u32>) -> u64 {
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        s.color.clear();
        s.color.resize(n, WHITE);
        walk(s, view, 0..n as u32, cycle)
    })
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
    let edges_visited = search(&mut Rows(csr, |_, _| true), n, &mut cycle);
    let found = (!cycle.is_empty()).then_some(cycle);
    ebda_obs::prof::work("cdg/cycle", "edges_visited", edges_visited);
    ebda_obs::prof::work("cdg/cycle", "cycles_found", u64::from(found.is_some()));
    found
}

/// A deterministic topological order of the node indices, or `None`
/// when the graph is cyclic. Among ready nodes the lowest index goes
/// first — identical output to the `BTreeSet`-based order the CDG used
/// before, but via the scratch min-heap.
pub fn topological_order(csr: &Csr) -> Option<Vec<u32>> {
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

/// Tarjan's strongly connected components (iterative) over the CSR,
/// returning the dense [`SccInfo`] the incremental engine indexes by.
/// Components come out in reverse topological order; singleton
/// components without self-loops are included.
pub fn tarjan(csr: &Csr) -> SccInfo {
    let _p = ebda_obs::prof::phase("cdg/scc");
    let n = csr.node_count();
    ebda_obs::prof::work("cdg/scc", "nodes", n as u64);
    let mut comp_of = vec![u32::MAX; n];
    let mut comp_nodes: Vec<Vec<u32>> = Vec::new();
    let mut cyclic = Vec::new();
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        s.index.clear();
        s.index.resize(n, u32::MAX);
        s.low.clear();
        s.low.resize(n, 0);
        s.on_stack.clear();
        s.on_stack.resize(n, false);
        s.scc_stack.clear();
        s.stack.clear();
        let mut next_index = 0u32;
        for start in 0..n as u32 {
            if s.index[start as usize] != u32::MAX {
                continue;
            }
            s.stack.push((start, 0));
            s.index[start as usize] = next_index;
            s.low[start as usize] = next_index;
            next_index += 1;
            s.scc_stack.push(start);
            s.on_stack[start as usize] = true;
            while let Some(&mut (node, ref mut cursor)) = s.stack.last_mut() {
                let succs = csr.row(node as usize);
                if (*cursor as usize) < succs.len() {
                    let v = succs[*cursor as usize];
                    *cursor += 1;
                    if s.index[v as usize] == u32::MAX {
                        s.index[v as usize] = next_index;
                        s.low[v as usize] = next_index;
                        next_index += 1;
                        s.scc_stack.push(v);
                        s.on_stack[v as usize] = true;
                        s.stack.push((v, 0));
                    } else if s.on_stack[v as usize] {
                        s.low[node as usize] = s.low[node as usize].min(s.index[v as usize]);
                    }
                } else {
                    s.stack.pop();
                    if let Some(&(parent, _)) = s.stack.last() {
                        s.low[parent as usize] = s.low[parent as usize].min(s.low[node as usize]);
                    }
                    if s.low[node as usize] == s.index[node as usize] {
                        let id = comp_nodes.len() as u32;
                        let mut comp = Vec::new();
                        loop {
                            let v = s.scc_stack.pop().expect("tarjan stack underflow");
                            s.on_stack[v as usize] = false;
                            comp_of[v as usize] = id;
                            comp.push(v);
                            if v == node {
                                break;
                            }
                        }
                        cyclic.push(comp.len() > 1 || csr.has_edge(comp[0] as usize, comp[0]));
                        comp_nodes.push(comp);
                    }
                }
            }
        }
    });
    ebda_obs::prof::work("cdg/scc", "components", comp_nodes.len() as u64);
    SccInfo {
        comp_of,
        comp_nodes,
        cyclic,
    }
}

/// Localized cycle recheck: whether the subgraph induced by one
/// strongly connected component still has a cycle once the edges
/// marked in `skip` are removed. Only edges staying inside the
/// component are followed — a cycle of the reduced graph lies entirely
/// within one SCC of the base graph, so this restriction loses
/// nothing. Returns the verdict and the number of edges visited.
pub fn has_cycle_within(
    csr: &Csr,
    nodes: &[u32],
    comp_of: &[u32],
    comp: u32,
    skip: &EdgeMask,
) -> (bool, u64) {
    let mut view = Rows(csr, |slot, v| {
        comp_of[v as usize] == comp && !skip.get(slot)
    });
    let mut cycle = Vec::new();
    let edges_visited = SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        // The view leads to no node outside `nodes`: only they need a
        // colour.
        if s.color.len() < csr.node_count() {
            s.color.resize(csr.node_count(), BLACK);
        }
        for &v in nodes {
            s.color[v as usize] = WHITE;
        }
        walk(s, &mut view, nodes.iter().copied(), &mut cycle)
    });
    (!cycle.is_empty(), edges_visited)
}

/// Whether `dst` is reachable from `src` over the CSR's edges plus the
/// `extra` successors per node — the probe of an edge addition, before
/// the edges exist anywhere. Returns the answer and the number of edges
/// visited.
pub(crate) fn reaches(
    csr: &Csr,
    extra: &BTreeMap<u32, Vec<u32>>,
    src: u32,
    dst: u32,
) -> (bool, u64) {
    let mut edges_visited = 0u64;
    let hit = SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        let (visited, stack) = (&mut s.on_stack, &mut s.scc_stack);
        visited.clear();
        visited.resize(csr.node_count(), false);
        stack.clear();
        stack.push(src);
        while let Some(x) = stack.pop() {
            if x == dst {
                return true;
            }
            if std::mem::replace(&mut visited[x as usize], true) {
                continue;
            }
            let more = extra.get(&x).map_or(&[][..], Vec::as_slice);
            edges_visited += (csr.row(x as usize).len() + more.len()) as u64;
            stack.extend_from_slice(csr.row(x as usize));
            stack.extend_from_slice(more);
        }
        false
    });
    (hit, edges_visited)
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
    fn has_edge_and_edge_index_find_exactly_the_edges() {
        let g = vec![vec![1, 3], vec![2], vec![0, 1, 3], vec![]];
        let csr = csr_of(&g);
        for (u, succs) in g.iter().enumerate() {
            for v in 0..4u32 {
                assert_eq!(csr.has_edge(u, v), succs.contains(&v), "edge {u}->{v}");
                assert_eq!(csr.edge_index(u, v).is_some(), succs.contains(&v));
            }
        }
        assert_eq!(csr.edge_index(2, 1), Some(csr.edge_base(2) + 1));
    }

    #[test]
    fn topological_order_is_min_first() {
        // Diamond: among ready nodes the lowest index goes first.
        let g = vec![vec![1, 2], vec![3], vec![3], vec![]];
        assert_eq!(topological_order(&csr_of(&g)), Some(vec![0, 1, 2, 3]));
        assert_eq!(topological_order(&csr_of(&[vec![0u32]])), None);
    }

    #[test]
    fn edge_mask_masks_a_cycle_away() {
        // 0 -> 1 -> 2 -> 0 is one SCC; masking one edge breaks it.
        let g = vec![vec![1], vec![2], vec![0]];
        let csr = csr_of(&g);
        let scc = tarjan(&csr);
        assert_eq!(scc.comp_nodes.len(), 1);
        assert!(scc.cyclic[0]);
        let comp = scc.comp_of[0];
        let clear = EdgeMask::new(csr.edge_count());
        let (cyc, visited) = has_cycle_within(&csr, &scc.comp_nodes[0], &scc.comp_of, comp, &clear);
        assert!(cyc);
        assert!(visited >= 3);
        let mut mask = EdgeMask::new(csr.edge_count());
        assert!(mask.set(csr.edge_index(1, 2).unwrap()));
        assert!(!mask.set(csr.edge_index(1, 2).unwrap()), "idempotent");
        assert_eq!(mask.count(), 1);
        let (cyc, _) = has_cycle_within(&csr, &scc.comp_nodes[0], &scc.comp_of, comp, &mask);
        assert!(!cyc);
    }

    #[test]
    fn deep_chain_does_not_overflow_scratch_dfs() {
        let n = 100_000;
        let mut g: Vec<Vec<u32>> = (0..n - 1).map(|i| vec![i as u32 + 1]).collect();
        g.push(vec![]);
        let csr = csr_of(&g);
        assert!(find_cycle(&csr).is_none());
        assert_eq!(tarjan(&csr).comp_nodes.len(), n);
        assert_eq!(topological_order(&csr).unwrap().len(), n);
    }
}
