//! Exact minimum-cost feedback vertex set for small digraphs.
//!
//! The paper shows that choosing the minimum-compression-cost set of copy
//! commands to convert (so the CRWI digraph becomes acyclic) is NP-hard by
//! reduction from Karp's feedback vertex set. This module provides an exact
//! exponential-time solver usable on small graphs, so the heuristic
//! cycle-breaking policies (constant-time, locally-minimum) can be compared
//! against the true optimum in ablation experiments.
//!
//! The search decomposes the graph into strongly connected components
//! (cycles never cross components) and enumerates removal subsets per
//! cyclic component, so the cost is `O(sum over cyclic SCCs of 2^|scc|)`
//! rather than `2^|V|`.

use crate::{scc, topo, Digraph, NodeId};
use std::fmt;

/// Error returned when a cyclic strongly connected component exceeds the
/// caller's exhaustive-search limit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentTooLarge {
    /// Size of the offending component.
    pub size: usize,
    /// The caller-supplied limit.
    pub limit: usize,
}

impl fmt::Display for ComponentTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "strongly connected component of {} nodes exceeds exhaustive FVS limit {}",
            self.size, self.limit
        )
    }
}

impl std::error::Error for ComponentTooLarge {}

/// Computes an exact minimum-cost feedback vertex set.
///
/// Returns a set of nodes (ascending id order) of minimum total `cost`
/// whose removal leaves `g` acyclic. `cost[v]` is the price of removing
/// node `v`; for the in-place problem it is the compression lost by
/// converting copy command `v` to an add command.
///
/// Ties between equal-cost optima are broken deterministically (the
/// lexicographically smallest removal bitmask per component wins).
///
/// # Errors
///
/// Returns [`ComponentTooLarge`] if any cyclic strongly connected component
/// has more than `limit` nodes (the per-component search enumerates up to
/// `2^|scc|` subsets; limits above ~25 are impractical).
///
/// # Panics
///
/// Panics if `cost.len() != g.node_count()`.
///
/// # Example
///
/// ```
/// use ipr_digraph::{Digraph, fvs};
///
/// // Two 2-cycles sharing no nodes; cheapest vertex of each must go.
/// let g = Digraph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)]);
/// let set = fvs::minimum_feedback_vertex_set(&g, &[5, 1, 1, 5], 16).unwrap();
/// assert_eq!(set, vec![1, 2]);
/// ```
pub fn minimum_feedback_vertex_set(
    g: &Digraph,
    cost: &[u64],
    limit: usize,
) -> Result<Vec<NodeId>, ComponentTooLarge> {
    assert_eq!(
        cost.len(),
        g.node_count(),
        "cost vector length must equal node count"
    );
    let limit = limit.min(63); // bitmask search space
    let sccs = scc::tarjan(g);
    let mut removed: Vec<NodeId> = Vec::new();
    for comp in sccs.cyclic_components(g) {
        if comp.len() > limit {
            return Err(ComponentTooLarge {
                size: comp.len(),
                limit,
            });
        }
        removed.extend(solve_component(g, cost, comp));
    }
    removed.sort_unstable();
    Ok(removed)
}

/// Exhaustively solves one cyclic strongly connected component.
fn solve_component(g: &Digraph, cost: &[u64], comp: &[NodeId]) -> Vec<NodeId> {
    // Sort members so tie-breaking is in ascending node-id order rather than
    // Tarjan discovery order.
    let mut comp = comp.to_vec();
    comp.sort_unstable();
    let comp = &comp[..];
    let k = comp.len();
    debug_assert!(k <= 64, "component too large for bitmask search");
    // Local adjacency restricted to the component.
    let mut local_pos = std::collections::HashMap::with_capacity(k);
    for (i, &v) in comp.iter().enumerate() {
        local_pos.insert(v, i);
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &v) in comp.iter().enumerate() {
        for &w in g.successors(v) {
            if let Some(&j) = local_pos.get(&w) {
                adj[i].push(j);
            }
        }
    }

    let total: u128 = 1u128 << k;
    let mut best_mask: u64 = (1u64 << (k - 1)) | ((1u64 << (k - 1)) - 1); // all nodes
    let mut best_cost: u64 = comp.iter().map(|&v| cost[v as usize]).sum();

    let mut mask: u128 = 0;
    while mask < total {
        let m = mask as u64;
        let c: u64 = (0..k)
            .filter(|&i| m & (1 << i) != 0)
            .map(|i| cost[comp[i] as usize])
            .sum();
        if (c < best_cost || (c == best_cost && m < best_mask))
            && is_acyclic_after_removal(&adj, k, m)
        {
            best_cost = c;
            best_mask = m;
        }
        mask += 1;
    }

    (0..k)
        .filter(|&i| best_mask & (1 << i) != 0)
        .map(|i| comp[i])
        .collect()
}

/// Kahn's algorithm on the component with `removed` nodes masked out.
fn is_acyclic_after_removal(adj: &[Vec<usize>], k: usize, removed: u64) -> bool {
    let mut indeg = vec![0usize; k];
    for (i, succs) in adj.iter().enumerate() {
        if removed & (1 << i) != 0 {
            continue;
        }
        for &j in succs {
            if removed & (1 << j) == 0 {
                indeg[j] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..k)
        .filter(|&i| removed & (1 << i) == 0 && indeg[i] == 0)
        .collect();
    let mut seen = queue.len();
    while let Some(i) = queue.pop() {
        for &j in &adj[i] {
            if removed & (1 << j) != 0 {
                continue;
            }
            indeg[j] -= 1;
            if indeg[j] == 0 {
                queue.push(j);
                seen += 1;
            }
        }
    }
    let kept = k - removed.count_ones() as usize;
    seen == kept
}

/// Verifies that removing `set` from `g` leaves an acyclic graph.
///
/// # Example
///
/// ```
/// use ipr_digraph::{Digraph, fvs};
///
/// let g = Digraph::from_edges(2, [(0, 1), (1, 0)]);
/// assert!(fvs::is_feedback_vertex_set(&g, &[0]));
/// assert!(!fvs::is_feedback_vertex_set(&g, &[]));
/// ```
#[must_use]
pub fn is_feedback_vertex_set(g: &Digraph, set: &[NodeId]) -> bool {
    let mut keep = vec![true; g.node_count()];
    for &v in set {
        if (v as usize) < keep.len() {
            keep[v as usize] = false;
        }
    }
    topo::is_acyclic(&g.induced(&keep))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_on_dag() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2)]);
        let set = minimum_feedback_vertex_set(&g, &[1, 1, 1], 10).unwrap();
        assert!(set.is_empty());
    }

    #[test]
    fn single_cycle_removes_cheapest() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let set = minimum_feedback_vertex_set(&g, &[10, 3, 7], 10).unwrap();
        assert_eq!(set, vec![1]);
        assert!(is_feedback_vertex_set(&g, &set));
    }

    #[test]
    fn self_loop_must_remove_that_node() {
        let g = Digraph::from_edges(2, [(0, 0), (0, 1)]);
        let set = minimum_feedback_vertex_set(&g, &[100, 1], 10).unwrap();
        assert_eq!(set, vec![0]);
    }

    #[test]
    fn figure2_tree_optimum_is_root() {
        // Paper Fig. 2: cycles (v0, ..., vi, v0) for each leaf vi; the root v0
        // participates in every cycle. Model: root -> internal nodes -> leaves,
        // leaf -> root. Local-minimum would delete every leaf; the optimum
        // deletes the root.
        // Nodes: 0 = root; 1,2 internal; 3..7 leaves.
        let g = Digraph::from_edges(
            7,
            [
                (0, 1),
                (0, 2),
                (1, 3),
                (1, 4),
                (2, 5),
                (2, 6),
                (3, 0),
                (4, 0),
                (5, 0),
                (6, 0),
            ],
        );
        // Root slightly more expensive than a single leaf but cheaper than all.
        let cost = [3, 2, 2, 2, 2, 2, 2];
        let set = minimum_feedback_vertex_set(&g, &cost, 16).unwrap();
        assert_eq!(set, vec![0]);
        assert!(is_feedback_vertex_set(&g, &set));
    }

    #[test]
    fn two_disjoint_cycles() {
        let g = Digraph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)]);
        let set = minimum_feedback_vertex_set(&g, &[2, 9, 9, 2], 10).unwrap();
        assert_eq!(set, vec![0, 3]);
    }

    #[test]
    fn overlapping_cycles_single_removal_suffices() {
        // Two triangles sharing node 0: removing 0 kills both.
        let g = Digraph::from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        let set = minimum_feedback_vertex_set(&g, &[5, 4, 4, 4, 4], 16).unwrap();
        assert_eq!(set, vec![0]);
    }

    #[test]
    fn limit_enforced() {
        let n = 20;
        let edges: Vec<(NodeId, NodeId)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Digraph::from_edges(n as usize, edges);
        let err = minimum_feedback_vertex_set(&g, &vec![1; n as usize], 8).unwrap_err();
        assert_eq!(err.size, 20);
        assert_eq!(err.limit, 8);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn deterministic_tie_break() {
        let g = Digraph::from_edges(2, [(0, 1), (1, 0)]);
        let set = minimum_feedback_vertex_set(&g, &[1, 1], 10).unwrap();
        assert_eq!(set, vec![0]); // smallest mask wins ties
    }
}
