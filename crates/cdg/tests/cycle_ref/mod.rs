//! The `Vec<Vec<u32>>` cycle/SCC kernel `ebda_cdg::csr` replaced, kept as
//! the differential reference (`mod cycle_ref;` in `proptest_cycles.rs`
//! and `kernel_differential.rs`): iterative three-colour DFS with a cycle
//! witness, and Tarjan's strongly connected components.

use ebda_cdg::Csr;

/// The adjacency list `edges` (rows ascending) as the CSR the shipping
/// kernel walks.
pub fn csr_of(edges: &[Vec<u32>]) -> Csr {
    let mut row_start = vec![0u32];
    let mut col = Vec::new();
    for row in edges {
        col.extend_from_slice(row);
        row_start.push(col.len() as u32);
    }
    Csr::new(edges.len(), row_start, col)
}

/// The shipping kernel's counterpart of [`cyclic_components`]: the
/// components `csr::tarjan` flags as able to carry a cycle.
pub fn csr_knots(csr: &Csr) -> Vec<Vec<u32>> {
    let scc = ebda_cdg::csr::tarjan(csr);
    let knots = scc.comp_nodes.into_iter().zip(scc.cyclic);
    knots
        .filter(|(_, cyclic)| *cyclic)
        .map(|(comp, _)| comp)
        .collect()
}

/// Finds a directed cycle in an adjacency-list graph, returning the node
/// indices along the cycle (first node repeated implicitly), or `None` for
/// acyclic graphs.
///
/// Runs an iterative DFS (no recursion — CDGs of large tori can be deep).
pub fn find_cycle(edges: &[Vec<u32>]) -> Option<Vec<u32>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let n = edges.len();
    let mut color = vec![Color::White; n];
    let mut parent = vec![u32::MAX; n];
    // Stack holds (node, next-successor-index).
    let mut stack: Vec<(u32, usize)> = Vec::new();
    for start in 0..n as u32 {
        if color[start as usize] != Color::White {
            continue;
        }
        color[start as usize] = Color::Gray;
        stack.push((start, 0));
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succs = &edges[node as usize];
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                match color[s as usize] {
                    Color::White => {
                        parent[s as usize] = node;
                        color[s as usize] = Color::Gray;
                        stack.push((s, 0));
                    }
                    Color::Gray => {
                        // Found a back edge node -> s: walk parents back.
                        let mut cycle = vec![node];
                        let mut cur = node;
                        while cur != s {
                            cur = parent[cur as usize];
                            cycle.push(cur);
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Color::Black => {}
                }
            } else {
                color[node as usize] = Color::Black;
                stack.pop();
            }
        }
    }
    None
}

/// Tarjan's strongly connected components (iterative), in reverse
/// topological order. Singleton components without self-loops are included.
pub fn tarjan_scc(edges: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let n = edges.len();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs = Vec::new();
    // Explicit DFS state: (node, successor cursor).
    let mut work: Vec<(u32, usize)> = Vec::new();

    for start in 0..n as u32 {
        if index[start as usize] != u32::MAX {
            continue;
        }
        work.push((start, 0));
        index[start as usize] = next_index;
        low[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;

        while let Some(&mut (node, ref mut cursor)) = work.last_mut() {
            let succs = &edges[node as usize];
            if *cursor < succs.len() {
                let s = succs[*cursor];
                *cursor += 1;
                if index[s as usize] == u32::MAX {
                    index[s as usize] = next_index;
                    low[s as usize] = next_index;
                    next_index += 1;
                    stack.push(s);
                    on_stack[s as usize] = true;
                    work.push((s, 0));
                } else if on_stack[s as usize] {
                    low[node as usize] = low[node as usize].min(index[s as usize]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent as usize] = low[parent as usize].min(low[node as usize]);
                }
                if low[node as usize] == index[node as usize] {
                    let mut comp = Vec::new();
                    loop {
                        let v = stack.pop().expect("tarjan stack underflow");
                        on_stack[v as usize] = false;
                        comp.push(v);
                        if v == node {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

/// Returns the strongly connected components with more than one node (or a
/// self-loop) — the deadlock-capable knots of a CDG.
pub fn cyclic_components(edges: &[Vec<u32>]) -> Vec<Vec<u32>> {
    tarjan_scc(edges)
        .into_iter()
        .filter(|comp| comp.len() > 1 || edges[comp[0] as usize].contains(&comp[0]))
        .collect()
}
