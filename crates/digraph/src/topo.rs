//! Topological sorting with cycle witnesses.
//!
//! Two classic algorithms are provided: Kahn's queue-based sort ([`kahn`])
//! and an iterative depth-first sort ([`dfs`]). Both run in `O(V + E)`.
//! On cyclic input both fail with a [`CycleError`]; the DFS variant
//! additionally reports a concrete witness cycle, which is what the
//! in-place conversion algorithm's cycle-breaking policies need.

use crate::{Digraph, NodeId};
use std::collections::VecDeque;
use std::fmt;

/// Error returned when a topological sort encounters a cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleError {
    /// A witness cycle `c0 -> c1 -> ... -> ck -> c0`, listed without
    /// repeating the first node. Empty when the algorithm proves a cycle
    /// exists but does not materialize one (Kahn's algorithm).
    pub cycle: Vec<NodeId>,
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cycle.is_empty() {
            write!(f, "digraph contains a cycle")
        } else {
            write!(
                f,
                "digraph contains a cycle through {} nodes",
                self.cycle.len()
            )
        }
    }
}

impl std::error::Error for CycleError {}

/// Kahn's algorithm: repeatedly emit a node of in-degree zero.
///
/// Ties are broken by smallest node id, so the output is deterministic.
/// Returns the nodes in a topological order (every edge `u -> v` has `u`
/// before `v`).
///
/// # Errors
///
/// Returns [`CycleError`] (without a witness) if the graph is cyclic.
///
/// # Example
///
/// ```
/// use ipr_digraph::{Digraph, topo};
///
/// let g = Digraph::from_edges(3, [(2, 1), (1, 0)]);
/// assert_eq!(topo::kahn(&g).unwrap(), vec![2, 1, 0]);
/// ```
pub fn kahn(g: &Digraph) -> Result<Vec<NodeId>, CycleError> {
    let n = g.node_count();
    let mut indeg = vec![0usize; n];
    for u in 0..n as NodeId {
        for &v in g.successors(u) {
            indeg[v as usize] += 1;
        }
    }
    // A binary heap would give strict smallest-first order; a sorted seed
    // plus FIFO suffices for determinism and keeps this O(V + E).
    let mut queue: VecDeque<NodeId> = (0..n as NodeId)
        .filter(|&v| indeg[v as usize] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in g.successors(u) {
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                queue.push_back(v);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        Err(CycleError { cycle: Vec::new() })
    }
}

/// Whether the digraph is acyclic.
#[must_use]
pub fn is_acyclic(g: &Digraph) -> bool {
    kahn(g).is_ok()
}

/// Iterative depth-first topological sort that reports a witness cycle.
///
/// Returns the nodes in a topological order. On cyclic input, the returned
/// [`CycleError::cycle`] holds the nodes of one directed cycle in order.
///
/// # Errors
///
/// Returns [`CycleError`] with a non-empty witness if the graph is cyclic.
///
/// # Example
///
/// ```
/// use ipr_digraph::{Digraph, topo};
///
/// let g = Digraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
/// let err = topo::dfs(&g).unwrap_err();
/// assert_eq!(err.cycle.len(), 3);
/// ```
pub fn dfs(g: &Digraph) -> Result<Vec<NodeId>, CycleError> {
    let n = g.node_count();
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    // Finish-time order; reversed at the end.
    let mut finished = Vec::with_capacity(n);
    // Explicit stack of (node, next-successor-index).
    let mut stack: Vec<(NodeId, usize)> = Vec::new();

    for root in 0..n as NodeId {
        if color[root as usize] != Color::White {
            continue;
        }
        color[root as usize] = Color::Gray;
        stack.push((root, 0));
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            let succs = g.successors(u);
            if *next < succs.len() {
                let v = succs[*next];
                *next += 1;
                match color[v as usize] {
                    Color::White => {
                        color[v as usize] = Color::Gray;
                        stack.push((v, 0));
                    }
                    Color::Gray => {
                        // Back edge u -> v: the cycle is v ..stack.. u.
                        let start = stack
                            .iter()
                            .position(|&(w, _)| w == v)
                            .expect("gray node must be on the DFS stack");
                        let cycle = stack[start..].iter().map(|&(w, _)| w).collect();
                        return Err(CycleError { cycle });
                    }
                    Color::Black => {}
                }
            } else {
                color[u as usize] = Color::Black;
                finished.push(u);
                stack.pop();
            }
        }
    }
    finished.reverse();
    Ok(finished)
}

/// Finds one directed cycle if the graph has any.
///
/// Convenience wrapper over [`dfs`].
#[must_use]
pub fn find_cycle(g: &Digraph) -> Option<Vec<NodeId>> {
    match dfs(g) {
        Ok(_) => None,
        Err(e) => Some(e.cycle),
    }
}

/// Checks that `order` is a topological order of `g`: it contains every
/// node exactly once and no edge points backwards.
#[must_use]
pub fn is_topological_order(g: &Digraph, order: &[NodeId]) -> bool {
    let n = g.node_count();
    if order.len() != n {
        return false;
    }
    let mut pos = vec![usize::MAX; n];
    for (i, &u) in order.iter().enumerate() {
        if (u as usize) >= n || pos[u as usize] != usize::MAX {
            return false;
        }
        pos[u as usize] = i;
    }
    g.edges().all(|(u, v)| pos[u as usize] < pos[v as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Digraph {
        Digraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn kahn_sorts_diamond() {
        let g = diamond();
        let order = kahn(&g).unwrap();
        assert!(is_topological_order(&g, &order));
    }

    #[test]
    fn dfs_sorts_diamond() {
        let g = diamond();
        let order = dfs(&g).unwrap();
        assert!(is_topological_order(&g, &order));
    }

    #[test]
    fn kahn_detects_cycle() {
        let g = Digraph::from_edges(2, [(0, 1), (1, 0)]);
        assert!(kahn(&g).is_err());
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn dfs_reports_witness_cycle() {
        let g = Digraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)]);
        let err = dfs(&g).unwrap_err();
        assert_eq!(err.cycle, vec![1, 2, 3]);
        // The witness really is a cycle.
        for w in err.cycle.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
        assert!(g.has_edge(*err.cycle.last().unwrap(), err.cycle[0]));
    }

    #[test]
    fn self_loop_is_a_cycle_of_one() {
        let g = Digraph::from_edges(2, [(0, 0), (0, 1)]);
        let err = dfs(&g).unwrap_err();
        assert_eq!(err.cycle, vec![0]);
        assert!(kahn(&g).is_err());
    }

    #[test]
    fn empty_and_edgeless_graphs_sort() {
        assert_eq!(kahn(&Digraph::new(0)).unwrap(), Vec::<NodeId>::new());
        let g = Digraph::new(3);
        assert_eq!(kahn(&g).unwrap(), vec![0, 1, 2]);
        assert_eq!(dfs(&g).unwrap().len(), 3);
    }

    #[test]
    fn order_validator_rejects_bad_orders() {
        let g = diamond();
        assert!(!is_topological_order(&g, &[3, 1, 2, 0]));
        assert!(!is_topological_order(&g, &[0, 1, 2])); // missing node
        assert!(!is_topological_order(&g, &[0, 0, 1, 3])); // duplicate
    }

    #[test]
    fn find_cycle_none_on_dag() {
        assert!(find_cycle(&diamond()).is_none());
    }
}
