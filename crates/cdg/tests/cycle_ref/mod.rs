//! The `Vec<Vec<u32>>` cycle kernel `ebda_cdg::csr` replaced, kept as
//! the differential reference (`mod cycle_ref;` in `proptest_cycles.rs`
//! and `kernel_differential.rs`): iterative three-colour DFS with a cycle
//! witness.

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
