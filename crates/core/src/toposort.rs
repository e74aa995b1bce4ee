//! The enhanced topological sort (§4.2, step 4): a depth-first sort that
//! detects cycles and breaks them by deleting a vertex chosen by a
//! [`CyclePolicy`].

use crate::policy::CyclePolicy;
use ipr_digraph::fvs::{self, ComponentTooLarge};
use ipr_digraph::scc::{tarjan_into, Sccs};
use ipr_digraph::{topo, Digraph, NodeId};

/// Result of the cycle-breaking topological sort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SortOutcome {
    /// Retained vertices in topological order: for every edge `u -> v`
    /// between retained vertices, `u` precedes `v`.
    pub order: Vec<NodeId>,
    /// Deleted vertices (their copy commands must be converted to adds),
    /// in ascending id order.
    pub removed: Vec<NodeId>,
    /// Number of cycles the sort broke.
    pub cycles_broken: usize,
    /// Vertices examined while scanning cycles — 0 for the constant-time
    /// policy, the total length of found cycles for locally-minimum (the
    /// paper's measure of the policy's extra work).
    pub cycle_nodes_examined: usize,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Color {
    White,
    Gray,
    Black,
}

/// Per-call counters of the cycle-breaking sort (the [`SortOutcome`]
/// fields that are not vertex lists).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Number of cycles the sort broke.
    pub cycles_broken: usize,
    /// Vertices examined while scanning cycles (see
    /// [`SortOutcome::cycle_nodes_examined`]).
    pub cycle_nodes_examined: usize,
}

/// Working storage for [`truncating_dfs_into`].
#[derive(Debug, Default)]
struct DfsScratch {
    color: Vec<Color>,
    removed: Vec<bool>,
    removed_list: Vec<NodeId>,
    finished: Vec<NodeId>,
    stack: Vec<(NodeId, usize)>,
    pos_in_stack: Vec<usize>,
}

/// Reusable working storage for [`sort_breaking_cycles_into`].
///
/// Owns every buffer the heuristic sort needs — the Tarjan SCC scratch,
/// per-component remapping tables, the local component digraph, and the
/// truncating-DFS state — plus the output `order`/`removed` vectors.
/// Buffers are cleared, never freed, so a warmed-up scratch performs no
/// allocations in steady state.
#[derive(Debug, Default)]
pub struct SortScratch {
    scc: Sccs,
    /// Current component's members, sorted ascending (local id `i` is
    /// `comp_members[i]`).
    comp_members: Vec<NodeId>,
    /// Dense global-id → local-id map. Never reset: reads are guarded by
    /// an SCC membership check, so stale entries are unreachable.
    local_of: Vec<NodeId>,
    local: Digraph,
    local_spare: Vec<Vec<NodeId>>,
    local_cost: Vec<u64>,
    dfs: DfsScratch,
    order: Vec<NodeId>,
    removed: Vec<NodeId>,
}

impl SortScratch {
    /// Creates an empty scratch. Storage is grown on first use and reused
    /// afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Retained vertices in topological order, from the most recent
    /// [`sort_breaking_cycles_into`] call.
    #[must_use]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Deleted vertices in ascending id order, from the most recent
    /// [`sort_breaking_cycles_into`] call.
    #[must_use]
    pub fn removed(&self) -> &[NodeId] {
        &self.removed
    }
}

/// Topologically sorts `graph`, deleting vertices per `policy` whenever a
/// cycle blocks progress. `cost[v]` is the compression lost by deleting
/// vertex `v` (used by [`CyclePolicy::LocallyMinimum`] and
/// [`CyclePolicy::Exhaustive`]).
///
/// # Errors
///
/// Only [`CyclePolicy::Exhaustive`] can fail, with [`ComponentTooLarge`]
/// when a cyclic strongly connected component exceeds its limit.
///
/// # Panics
///
/// Panics if `cost.len() != graph.node_count()`.
///
/// # Example
///
/// ```
/// use ipr_digraph::Digraph;
/// use ipr_core::{sort_breaking_cycles, CyclePolicy};
///
/// // A 3-cycle: one vertex must go.
/// let g = Digraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
/// let out = sort_breaking_cycles(&g, &[10, 1, 10], CyclePolicy::LocallyMinimum).unwrap();
/// assert_eq!(out.removed, vec![1]); // cheapest vertex of the cycle
/// assert_eq!(out.order.len(), 2);
/// ```
pub fn sort_breaking_cycles(
    graph: &Digraph,
    cost: &[u64],
    policy: CyclePolicy,
) -> Result<SortOutcome, ComponentTooLarge> {
    let mut scratch = SortScratch::new();
    let stats = sort_breaking_cycles_into(graph, cost, policy, &mut scratch)?;
    Ok(SortOutcome {
        order: std::mem::take(&mut scratch.order),
        removed: std::mem::take(&mut scratch.removed),
        cycles_broken: stats.cycles_broken,
        cycle_nodes_examined: stats.cycle_nodes_examined,
    })
}

/// Scratch-based core of [`sort_breaking_cycles`]: identical results, but
/// all working storage (and the output `order`/`removed` lists) live in
/// `scratch`, so repeated calls allocate nothing once the scratch is warm.
///
/// Read the results from [`SortScratch::order`] and
/// [`SortScratch::removed`].
///
/// # Errors
///
/// Only [`CyclePolicy::Exhaustive`] can fail, with [`ComponentTooLarge`]
/// when a cyclic strongly connected component exceeds its limit (the
/// exhaustive solver is exempt from the no-allocation guarantee).
///
/// # Panics
///
/// Panics if `cost.len() != graph.node_count()`.
pub fn sort_breaking_cycles_into(
    graph: &Digraph,
    cost: &[u64],
    policy: CyclePolicy,
    scratch: &mut SortScratch,
) -> Result<SortStats, ComponentTooLarge> {
    assert_eq!(
        cost.len(),
        graph.node_count(),
        "cost vector length must equal node count"
    );
    match policy {
        CyclePolicy::Exhaustive { limit } => {
            let out = exhaustive_sort(graph, cost, limit)?;
            scratch.order.clear();
            scratch.order.extend_from_slice(&out.order);
            scratch.removed.clear();
            scratch.removed.extend_from_slice(&out.removed);
            Ok(SortStats {
                cycles_broken: out.cycles_broken,
                cycle_nodes_examined: out.cycle_nodes_examined,
            })
        }
        CyclePolicy::ConstantTime | CyclePolicy::LocallyMinimum => {
            Ok(dfs_sort_into(graph, cost, policy, scratch))
        }
    }
}

/// Exact variant: solve feedback vertex set first, then sort the acyclic
/// remainder.
fn exhaustive_sort(
    graph: &Digraph,
    cost: &[u64],
    limit: usize,
) -> Result<SortOutcome, ComponentTooLarge> {
    let removed = fvs::minimum_feedback_vertex_set(graph, cost, limit)?;
    let mut keep = vec![true; graph.node_count()];
    for &v in &removed {
        keep[v as usize] = false;
    }
    let induced = graph.induced(&keep);
    let order: Vec<NodeId> = topo::kahn(&induced)
        .expect("graph is acyclic after removing a feedback vertex set")
        .into_iter()
        .filter(|&v| keep[v as usize])
        .collect();
    let cycles_broken = removed.len();
    Ok(SortOutcome {
        order,
        removed,
        cycles_broken,
        cycle_nodes_examined: 0,
    })
}

/// Heuristic sort, localized per strongly connected component.
///
/// Every cycle lives inside one SCC, so cycle breaking (and the stack
/// rewinding it forces) never needs to touch nodes outside the component:
/// running the truncating DFS per component bounds the rework of repeated
/// cycle breaking to `O(removals · component size)` instead of the whole
/// graph. Components are emitted in condensation topological order
/// (descending Tarjan id), which keeps cross-component edges forward.
fn dfs_sort_into(
    graph: &Digraph,
    cost: &[u64],
    policy: CyclePolicy,
    scratch: &mut SortScratch,
) -> SortStats {
    let SortScratch {
        scc,
        comp_members,
        local_of,
        local,
        local_spare,
        local_cost,
        dfs,
        order,
        removed,
    } = scratch;
    tarjan_into(graph, scc);
    order.clear();
    removed.clear();
    if local_of.len() < graph.node_count() {
        local_of.resize(graph.node_count(), 0);
    }
    let mut stats = SortStats::default();
    for cid in (0..scc.count() as u32).rev() {
        let members = scc.members(cid);
        if members.len() == 1 && !graph.has_edge(members[0], members[0]) {
            order.push(members[0]);
            continue;
        }
        // Local compact ids, ascending global id for determinism.
        comp_members.clear();
        comp_members.extend_from_slice(members);
        comp_members.sort_unstable();
        for (i, &v) in comp_members.iter().enumerate() {
            local_of[v as usize] = i as NodeId;
        }
        local.reset_with_spare(comp_members.len(), local_spare);
        local_cost.clear();
        for (i, &v) in comp_members.iter().enumerate() {
            local_cost.push(cost[v as usize]);
            for &w in graph.successors(v) {
                if scc.component_of(w) == cid {
                    local.add_edge(i as NodeId, local_of[w as usize]);
                }
            }
        }
        let sub = truncating_dfs_into(local, local_cost, policy, dfs);
        order.extend(dfs.finished.iter().map(|&i| comp_members[i as usize]));
        removed.extend(dfs.removed_list.iter().map(|&i| comp_members[i as usize]));
        stats.cycles_broken += sub.cycles_broken;
        stats.cycle_nodes_examined += sub.cycle_nodes_examined;
    }
    removed.sort_unstable();
    stats
}

/// Iterative DFS with in-flight cycle breaking (the §4.2 enhanced sort).
///
/// Results land in `s.finished` (topological order) and `s.removed_list`
/// (ascending); the returned stats cover only this call.
fn truncating_dfs_into(
    graph: &Digraph,
    cost: &[u64],
    policy: CyclePolicy,
    s: &mut DfsScratch,
) -> SortStats {
    let n = graph.node_count();
    let DfsScratch {
        color,
        removed,
        removed_list,
        finished,
        // (node, next successor index); parallel position index for O(1)
        // cycle extraction.
        stack,
        pos_in_stack,
    } = s;
    color.clear();
    color.resize(n, Color::White);
    removed.clear();
    removed.resize(n, false);
    removed_list.clear();
    finished.clear();
    stack.clear();
    pos_in_stack.clear();
    pos_in_stack.resize(n, usize::MAX);
    let mut cycles_broken = 0usize;
    let mut cycle_nodes_examined = 0usize;

    // After a mid-stack deletion reverts vertices to white, the root scan
    // must revisit them; `root_hint` tracks the smallest possibly-white id.
    let mut root_hint: usize = 0;
    loop {
        // Find the next unvisited root.
        let mut root = None;
        for v in root_hint..n {
            if color[v] == Color::White && !removed[v] {
                root = Some(v as NodeId);
                root_hint = v;
                break;
            }
        }
        let Some(root) = root else { break };

        color[root as usize] = Color::Gray;
        pos_in_stack[root as usize] = 0;
        stack.push((root, 0));

        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            let succs = graph.successors(u);
            if *next >= succs.len() {
                color[u as usize] = Color::Black;
                pos_in_stack[u as usize] = usize::MAX;
                finished.push(u);
                stack.pop();
                continue;
            }
            let v = succs[*next];
            *next += 1;
            if removed[v as usize] {
                continue;
            }
            match color[v as usize] {
                Color::White => {
                    color[v as usize] = Color::Gray;
                    pos_in_stack[v as usize] = stack.len();
                    stack.push((v, 0));
                }
                Color::Black => {}
                Color::Gray => {
                    // Back edge u -> v: the stack segment from v to u is a
                    // cycle. Choose the victim.
                    cycles_broken += 1;
                    let cycle_start = pos_in_stack[v as usize];
                    let victim_pos = match policy {
                        CyclePolicy::ConstantTime => stack.len() - 1,
                        CyclePolicy::LocallyMinimum => {
                            cycle_nodes_examined += stack.len() - cycle_start;
                            let mut best = stack.len() - 1;
                            let mut best_cost = cost[stack[best].0 as usize];
                            // Scan the whole cycle for the cheapest vertex;
                            // ties break toward the earliest stack position
                            // for determinism.
                            for p in cycle_start..stack.len() {
                                let c = cost[stack[p].0 as usize];
                                if c < best_cost || (c == best_cost && p < best) {
                                    best = p;
                                    best_cost = c;
                                }
                            }
                            best
                        }
                        CyclePolicy::Exhaustive { .. } => {
                            unreachable!("exhaustive policy handled separately")
                        }
                    };
                    let victim = stack[victim_pos].0;
                    removed[victim as usize] = true;
                    removed_list.push(victim);
                    // Unwind the stack to below the victim; everything at or
                    // above it reverts to white (the victim itself is
                    // removed) and will be re-explored through other paths.
                    for &(w, _) in &stack[victim_pos..] {
                        color[w as usize] = Color::White;
                        pos_in_stack[w as usize] = usize::MAX;
                        root_hint = root_hint.min(w as usize);
                    }
                    stack.truncate(victim_pos);
                }
            }
        }
    }

    finished.reverse();
    removed_list.sort_unstable();
    SortStats {
        cycles_broken,
        cycle_nodes_examined,
    }
}

/// Checks that `outcome` is a valid result for `graph`: the retained order
/// is topological over the retained subgraph and `removed` ∪ `order` is a
/// partition of the vertices.
#[must_use]
pub fn is_valid_outcome(graph: &Digraph, outcome: &SortOutcome) -> bool {
    let n = graph.node_count();
    let mut seen = vec![0u8; n];
    for &v in &outcome.order {
        seen[v as usize] += 1;
    }
    for &v in &outcome.removed {
        seen[v as usize] += 1;
    }
    if seen.iter().any(|&s| s != 1) {
        return false;
    }
    let mut pos = vec![usize::MAX; n];
    for (i, &v) in outcome.order.iter().enumerate() {
        pos[v as usize] = i;
    }
    graph.edges().all(|(u, v)| {
        let (pu, pv) = (pos[u as usize], pos[v as usize]);
        // Edges touching removed vertices are moot.
        pu == usize::MAX || pv == usize::MAX || pu < pv
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(g: &Digraph, cost: &[u64], policy: CyclePolicy) -> SortOutcome {
        let out = sort_breaking_cycles(g, cost, policy).unwrap();
        assert!(is_valid_outcome(g, &out), "invalid outcome for {policy}");
        out
    }

    #[test]
    fn acyclic_graph_keeps_everything() {
        let g = Digraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        for policy in [
            CyclePolicy::ConstantTime,
            CyclePolicy::LocallyMinimum,
            CyclePolicy::Exhaustive { limit: 10 },
        ] {
            let out = run(&g, &[1; 4], policy);
            assert!(out.removed.is_empty());
            assert_eq!(out.cycles_broken, 0);
            assert_eq!(out.order.len(), 4);
        }
    }

    #[test]
    fn single_cycle_breaks_once() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        for policy in [CyclePolicy::ConstantTime, CyclePolicy::LocallyMinimum] {
            let out = run(&g, &[5, 5, 5], policy);
            assert_eq!(out.removed.len(), 1, "{policy}");
            assert_eq!(out.cycles_broken, 1);
            assert_eq!(out.order.len(), 2);
        }
    }

    #[test]
    fn locally_minimum_picks_cheapest() {
        let g = Digraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let out = run(&g, &[9, 9, 2, 9], CyclePolicy::LocallyMinimum);
        assert_eq!(out.removed, vec![2]);
        assert_eq!(out.cycle_nodes_examined, 4);
    }

    #[test]
    fn constant_time_does_no_cycle_scanning() {
        let g = Digraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let out = run(&g, &[9, 9, 2, 9], CyclePolicy::ConstantTime);
        assert_eq!(out.removed.len(), 1);
        assert_eq!(out.cycle_nodes_examined, 0);
    }

    #[test]
    fn exhaustive_is_optimal_on_shared_vertex_cycles() {
        // Two triangles sharing vertex 0: heuristics may delete two
        // vertices, the optimum deletes only vertex 0.
        let g = Digraph::from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        let cost = [5, 4, 4, 4, 4];
        let exact = run(&g, &cost, CyclePolicy::Exhaustive { limit: 16 });
        assert_eq!(exact.removed, vec![0]);
        let lm = run(&g, &cost, CyclePolicy::LocallyMinimum);
        let lm_cost: u64 = lm.removed.iter().map(|&v| cost[v as usize]).sum();
        assert!(lm_cost >= 5);
    }

    #[test]
    fn exhaustive_respects_limit() {
        let n: u32 = 12;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Digraph::from_edges(n as usize, edges);
        let err = sort_breaking_cycles(
            &g,
            &vec![1; n as usize],
            CyclePolicy::Exhaustive { limit: 4 },
        )
        .unwrap_err();
        assert_eq!(err.size, 12);
    }

    #[test]
    fn self_loop_always_removed() {
        let g = Digraph::from_edges(2, [(0, 0), (0, 1)]);
        for policy in [CyclePolicy::ConstantTime, CyclePolicy::LocallyMinimum] {
            let out = run(&g, &[1, 1], policy);
            assert_eq!(out.removed, vec![0], "{policy}");
            assert_eq!(out.order, vec![1]);
        }
    }

    #[test]
    fn figure2_tree_defeats_locally_minimum() {
        // Paper Fig. 2: a binary tree with an edge from every leaf back to
        // the root. Each root-to-leaf path plus the back edge is a cycle.
        // The locally-minimum policy deletes a minimum-cost vertex per
        // cycle; with leaves cheapest it deletes every leaf (k deletions)
        // where deleting the root alone (1 deletion) is optimal.
        let depth = 3usize;
        let nodes = (1 << (depth + 1)) - 1; // complete binary tree
        let mut edges = Vec::new();
        for i in 0..nodes {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            if l < nodes {
                edges.push((i as NodeId, l as NodeId));
            }
            if r < nodes {
                edges.push((i as NodeId, r as NodeId));
            }
        }
        let first_leaf = (1 << depth) - 1;
        for leaf in first_leaf..nodes {
            edges.push((leaf as NodeId, 0));
        }
        let g = Digraph::from_edges(nodes, edges);
        // Root costs slightly more than any single leaf (cost C+1 vs C).
        let mut cost = vec![100u64; nodes];
        cost[0] = 11;
        for c in cost.iter_mut().take(nodes).skip(first_leaf) {
            *c = 10;
        }

        let lm = run(&g, &cost, CyclePolicy::LocallyMinimum);
        let exact = run(&g, &cost, CyclePolicy::Exhaustive { limit: 40 });

        let leaves = nodes - first_leaf;
        assert_eq!(
            lm.removed.len(),
            leaves,
            "locally-minimum deletes every leaf"
        );
        assert_eq!(exact.removed, vec![0], "optimum deletes the root");

        let lm_cost: u64 = lm.removed.iter().map(|&v| cost[v as usize]).sum();
        let exact_cost: u64 = exact.removed.iter().map(|&v| cost[v as usize]).sum();
        assert!(lm_cost > exact_cost * (leaves as u64) / 2);
    }

    #[test]
    fn dense_random_graph_all_policies_agree_on_validity() {
        // Deterministic pseudo-random dense-ish graph.
        let n = 40u32;
        let mut edges = Vec::new();
        let mut x = 12345u64;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 33) as u32 % n;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) as u32 % n;
            if u != v {
                edges.push((u, v));
            }
        }
        let g = Digraph::from_edges(n as usize, edges);
        let cost: Vec<u64> = (0..n as u64).map(|i| i % 7 + 1).collect();
        for policy in [CyclePolicy::ConstantTime, CyclePolicy::LocallyMinimum] {
            let out = run(&g, &cost, policy);
            assert!(out.order.len() + out.removed.len() == n as usize);
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_across_graphs() {
        // One scratch driven across heterogeneous graphs and policies must
        // reproduce the fresh-scratch (wrapper) results exactly.
        let graphs = [
            Digraph::from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]),
            Digraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]),
            Digraph::from_edges(
                6,
                vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)],
            ),
            Digraph::from_edges(2, vec![(0, 0), (0, 1)]),
            Digraph::from_edges(1, vec![]),
        ];
        let mut scratch = SortScratch::new();
        for g in &graphs {
            let cost: Vec<u64> = (0..g.node_count() as u64).map(|i| i % 5 + 1).collect();
            for policy in [
                CyclePolicy::ConstantTime,
                CyclePolicy::LocallyMinimum,
                CyclePolicy::Exhaustive { limit: 16 },
            ] {
                let fresh = sort_breaking_cycles(g, &cost, policy).unwrap();
                let stats = sort_breaking_cycles_into(g, &cost, policy, &mut scratch).unwrap();
                assert_eq!(scratch.order(), fresh.order.as_slice(), "{policy}");
                assert_eq!(scratch.removed(), fresh.removed.as_slice(), "{policy}");
                assert_eq!(stats.cycles_broken, fresh.cycles_broken);
                assert_eq!(stats.cycle_nodes_examined, fresh.cycle_nodes_examined);
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g = Digraph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]);
        let a = run(&g, &[3, 1, 2, 2, 1, 3], CyclePolicy::LocallyMinimum);
        let b = run(&g, &[3, 1, 2, 2, 1, 3], CyclePolicy::LocallyMinimum);
        assert_eq!(a, b);
    }
}
