//! Tarjan's strongly connected components.
//!
//! Used to localize cycle-breaking work: every directed cycle lies entirely
//! inside one strongly connected component, so exact feedback-vertex-set
//! search ([`crate::fvs`]) and cycle statistics can be computed per
//! component.

use crate::{Digraph, NodeId};

/// The strongly connected components of a digraph, with the working
/// storage that computed them.
///
/// [`tarjan`] returns a fresh one; [`tarjan_into`] refills one in place.
/// Members of every component live back-to-back in one flat array, so a
/// value reused across runs grows to the high-water graph size and then
/// performs no heap allocation at all.
#[derive(Clone, Debug, Default)]
pub struct Sccs {
    index: Vec<u32>,
    lowlink: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<NodeId>,
    call: Vec<(NodeId, usize)>,
    /// `component[v]` is the id of the SCC containing node `v`.
    component: Vec<u32>,
    /// Flat member storage; component `c` occupies
    /// `offsets[c]..offsets[c + 1]`, in Tarjan stack pop order.
    members: Vec<NodeId>,
    offsets: Vec<u32>,
}

impl Sccs {
    /// Creates an empty value; storage is grown on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of components.
    #[must_use]
    pub fn count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The component id of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[must_use]
    pub fn component_of(&self, v: NodeId) -> u32 {
        self.component[v as usize]
    }

    /// The members of component `c`, in discovery order.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    #[must_use]
    pub fn members(&self, c: u32) -> &[NodeId] {
        let lo = self.offsets[c as usize] as usize;
        let hi = self.offsets[c as usize + 1] as usize;
        &self.members[lo..hi]
    }

    /// Components that can contain a cycle: size > 1, or a single node with a
    /// self-loop in `g`.
    #[must_use]
    pub fn cyclic_components<'a>(&'a self, g: &'a Digraph) -> Vec<&'a [NodeId]> {
        (0..self.count() as u32)
            .map(|c| self.members(c))
            .filter(|m| m.len() > 1 || (m.len() == 1 && g.has_edge(m[0], m[0])))
            .collect()
    }
}

/// Computes the strongly connected components with an iterative Tarjan
/// algorithm in `O(V + E)`.
///
/// Component ids are assigned in reverse topological order of the
/// condensation (a Tarjan property): if component `a` has an edge into
/// component `b` (`a != b`), then `a`'s id is greater than `b`'s.
///
/// # Example
///
/// ```
/// use ipr_digraph::{Digraph, scc};
///
/// let g = Digraph::from_edges(4, [(0, 1), (1, 0), (1, 2), (2, 3)]);
/// let sccs = scc::tarjan(&g);
/// assert_eq!(sccs.count(), 3);
/// assert_eq!(sccs.component_of(0), sccs.component_of(1));
/// ```
#[must_use]
pub fn tarjan(g: &Digraph) -> Sccs {
    let mut sccs = Sccs::new();
    tarjan_into(g, &mut sccs);
    sccs
}

/// Allocation-free variant of [`tarjan`]: runs the same algorithm with all
/// working storage and results held in `scratch`, which it overwrites.
///
/// Component ids and per-component member order are identical to
/// [`tarjan`] (which is a thin wrapper over this function).
pub fn tarjan_into(g: &Digraph, scratch: &mut Sccs) {
    let n = g.node_count();
    const UNVISITED: u32 = u32::MAX;
    let Sccs {
        index,
        lowlink,
        on_stack,
        stack,
        call,
        component,
        members,
        offsets,
    } = scratch;
    index.clear();
    index.resize(n, UNVISITED);
    lowlink.clear();
    lowlink.resize(n, 0);
    on_stack.clear();
    on_stack.resize(n, false);
    stack.clear();
    call.clear();
    component.clear();
    component.resize(n, UNVISITED);
    members.clear();
    offsets.clear();
    offsets.push(0);
    let mut next_index = 0u32;
    let mut next_component = 0u32;

    for root in 0..n as NodeId {
        if index[root as usize] != UNVISITED {
            continue;
        }
        call.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (u, ref mut pos)) = call.last_mut() {
            let succs = g.successors(u);
            if *pos < succs.len() {
                let v = succs[*pos];
                *pos += 1;
                if index[v as usize] == UNVISITED {
                    index[v as usize] = next_index;
                    lowlink[v as usize] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v as usize] = true;
                    call.push((v, 0));
                } else if on_stack[v as usize] {
                    lowlink[u as usize] = lowlink[u as usize].min(index[v as usize]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    lowlink[p as usize] = lowlink[p as usize].min(lowlink[u as usize]);
                }
                if lowlink[u as usize] == index[u as usize] {
                    // A whole SCC sits on top of the stack; pop it into the
                    // flat member array (members of one component are
                    // therefore contiguous).
                    let id = next_component;
                    next_component += 1;
                    loop {
                        let w = stack.pop().expect("SCC stack underflow");
                        on_stack[w as usize] = false;
                        component[w as usize] = id;
                        members.push(w);
                        if w == u {
                            break;
                        }
                    }
                    offsets.push(members.len() as u32);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_on_dag() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2)]);
        let s = tarjan(&g);
        assert_eq!(s.count(), 3);
        assert_ne!(s.component_of(0), s.component_of(1));
    }

    #[test]
    fn one_big_cycle() {
        let g = Digraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let s = tarjan(&g);
        assert_eq!(s.count(), 1);
        assert_eq!(s.members(0).len(), 4);
    }

    #[test]
    fn two_cycles_and_bridge() {
        let g = Digraph::from_edges(6, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 3), (4, 5)]);
        let s = tarjan(&g);
        assert_eq!(s.count(), 4);
        assert_eq!(s.component_of(0), s.component_of(1));
        assert_eq!(s.component_of(3), s.component_of(4));
        assert_ne!(s.component_of(0), s.component_of(3));
        let cyclic = s.cyclic_components(&g);
        assert_eq!(cyclic.len(), 2);
    }

    #[test]
    fn self_loop_counts_as_cyclic() {
        let g = Digraph::from_edges(2, [(0, 0)]);
        let s = tarjan(&g);
        assert_eq!(s.count(), 2);
        let cyclic = s.cyclic_components(&g);
        assert_eq!(cyclic.len(), 1);
        assert_eq!(cyclic[0], &[0]);
    }

    #[test]
    fn condensation_order_property() {
        // Edge between different components implies source id > target id.
        let g = Digraph::from_edges(5, [(0, 1), (1, 0), (1, 2), (3, 2), (3, 4), (4, 3)]);
        let s = tarjan(&g);
        for (u, v) in g.edges() {
            let (cu, cv) = (s.component_of(u), s.component_of(v));
            if cu != cv {
                assert!(cu > cv, "edge {u}->{v} violates condensation order");
            }
        }
    }

    #[test]
    fn empty_graph() {
        let s = tarjan(&Digraph::new(0));
        assert_eq!(s.count(), 0);
    }

    /// SplitMix64, for deterministic pseudo-random graphs without an RNG
    /// dependency.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn scratch_reuse_matches_fresh_on_random_graphs() {
        let mut scratch = Sccs::new();
        let mut state = 0x1234_5678u64;
        for case in 0..50 {
            let n = (splitmix64(&mut state) % 40) as usize;
            let edges = (splitmix64(&mut state) % 120) as usize;
            let mut g = Digraph::new(n);
            if n > 0 {
                for _ in 0..edges {
                    let u = (splitmix64(&mut state) % n as u64) as NodeId;
                    let v = (splitmix64(&mut state) % n as u64) as NodeId;
                    g.add_edge(u, v);
                }
            }
            let fresh = tarjan(&g);
            tarjan_into(&g, &mut scratch);
            assert_eq!(fresh.count(), scratch.count(), "case {case}");
            for v in 0..n as NodeId {
                assert_eq!(fresh.component_of(v), scratch.component_of(v));
            }
            for c in 0..fresh.count() as u32 {
                assert_eq!(fresh.members(c), scratch.members(c));
            }
        }
    }
}
