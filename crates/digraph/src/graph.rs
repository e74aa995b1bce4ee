//! A compact adjacency-list digraph.

use std::fmt;

/// Identifier of a node in a [`Digraph`]; nodes are numbered `0..n`.
pub type NodeId = u32;

/// A directed graph stored as per-node adjacency lists.
///
/// Nodes are dense integers `0..node_count()`. Parallel edges are permitted
/// by `add_edge` (the CRWI construction never produces them, but the
/// substrate does not forbid them); self-loops are permitted as well and are
/// relevant to cycle analysis.
///
/// # Example
///
/// ```
/// use ipr_digraph::Digraph;
///
/// let mut g = Digraph::new(4);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// g.add_edge(2, 3);
/// assert_eq!(g.edge_count(), 3);
/// assert_eq!(g.successors(1), &[2]);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Digraph {
    adj: Vec<Vec<NodeId>>,
    edges: usize,
}

impl Digraph {
    /// Creates a digraph with `nodes` nodes and no edges.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds `u32::MAX` node identifiers.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        assert!(
            u32::try_from(nodes).is_ok(),
            "digraph node count {nodes} exceeds u32 id space"
        );
        Self {
            adj: vec![Vec::new(); nodes],
            edges: 0,
        }
    }

    /// Builds a digraph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= nodes`.
    #[must_use]
    pub fn from_edges(nodes: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut g = Self::new(nodes);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Adds the directed edge `u -> v`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is not a node of the graph.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        let n = self.adj.len();
        assert!(
            (u as usize) < n,
            "edge source {u} out of bounds ({n} nodes)"
        );
        assert!(
            (v as usize) < n,
            "edge target {v} out of bounds ({n} nodes)"
        );
        self.adj[u as usize].push(v);
        self.edges += 1;
    }

    /// Resets the graph to `nodes` nodes and no edges, recycling adjacency
    /// storage through `spare` instead of freeing it.
    ///
    /// Shrinking pushes surplus (cleared) adjacency lists into `spare`;
    /// growing pops them back, and makes room in `spare` for every list,
    /// so a smaller graph after a larger one parks its lists without
    /// growing it. Once the graph has reached the high-water node count of
    /// a workload, repeated resets perform no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds `u32::MAX` node identifiers.
    pub fn reset_with_spare(&mut self, nodes: usize, spare: &mut Vec<Vec<NodeId>>) {
        assert!(
            u32::try_from(nodes).is_ok(),
            "digraph node count {nodes} exceeds u32 id space"
        );
        for list in &mut self.adj {
            list.clear();
        }
        while self.adj.len() > nodes {
            let list = self.adj.pop().expect("len checked above");
            spare.push(list);
        }
        while self.adj.len() < nodes {
            self.adj.push(spare.pop().unwrap_or_default());
        }
        spare.reserve(self.adj.len());
        self.edges = 0;
    }

    /// The successors of `u` in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of the graph.
    #[must_use]
    pub fn successors(&self, u: NodeId) -> &[NodeId] {
        &self.adj[u as usize]
    }

    /// Out-degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of the graph.
    #[must_use]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.adj[u as usize].len()
    }

    /// Whether the edge `u -> v` exists (linear in `out_degree(u)`).
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of the graph.
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u as usize].contains(&v)
    }

    /// The graph with every edge reversed.
    ///
    /// # Example
    ///
    /// ```
    /// use ipr_digraph::Digraph;
    ///
    /// let g = Digraph::from_edges(2, [(0, 1)]);
    /// assert!(g.reversed().has_edge(1, 0));
    /// ```
    #[must_use]
    pub fn reversed(&self) -> Digraph {
        let mut rev = Digraph::new(self.adj.len());
        for (u, succs) in self.adj.iter().enumerate() {
            for &v in succs {
                rev.add_edge(v, u as NodeId);
            }
        }
        rev
    }

    /// The subgraph induced by keeping exactly the nodes where
    /// `keep[node]` is true. Node ids are preserved; edges touching removed
    /// nodes are dropped.
    ///
    /// # Example
    ///
    /// ```
    /// use ipr_digraph::Digraph;
    ///
    /// let g = Digraph::from_edges(3, [(0, 1), (1, 2)]);
    /// let sub = g.induced(&[true, false, true]);
    /// assert_eq!(sub.edge_count(), 0); // both edges touched node 1
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != node_count()`.
    #[must_use]
    pub fn induced(&self, keep: &[bool]) -> Digraph {
        assert_eq!(
            keep.len(),
            self.adj.len(),
            "keep mask length must equal node count"
        );
        let mut g = Digraph::new(self.adj.len());
        for (u, succs) in self.adj.iter().enumerate() {
            if !keep[u] {
                continue;
            }
            for &v in succs {
                if keep[v as usize] {
                    g.add_edge(u as NodeId, v);
                }
            }
        }
        g
    }

    /// Renders the graph in Graphviz DOT syntax, labelling each node with
    /// `label(id)`.
    ///
    /// # Example
    ///
    /// ```
    /// use ipr_digraph::Digraph;
    ///
    /// let g = Digraph::from_edges(2, [(0, 1)]);
    /// let dot = g.to_dot(|v| format!("n{v}"));
    /// assert!(dot.contains("0 -> 1;"));
    /// assert!(dot.contains("label=\"n1\""));
    /// ```
    pub fn to_dot<F: Fn(NodeId) -> String>(&self, label: F) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph crwi {\n");
        for v in 0..self.adj.len() as NodeId {
            let text = label(v).replace('"', "\\\"");
            writeln!(out, "  {v} [label=\"{text}\"];").expect("writing to String");
        }
        for (u, v) in self.edges() {
            writeln!(out, "  {u} -> {v};").expect("writing to String");
        }
        out.push_str("}\n");
        out
    }

    /// Iterates all edges as `(source, target)` pairs.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            node: 0,
            pos: 0,
        }
    }
}

impl fmt::Debug for Digraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Digraph")
            .field("nodes", &self.adj.len())
            .field("edges", &self.edges)
            .finish()
    }
}

/// Iterator over the edges of a [`Digraph`], produced by [`Digraph::edges`].
#[derive(Clone, Debug)]
pub struct EdgeIter<'a> {
    graph: &'a Digraph,
    node: usize,
    pos: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        while self.node < self.graph.adj.len() {
            let succs = &self.graph.adj[self.node];
            if self.pos < succs.len() {
                let edge = (self.node as NodeId, succs[self.pos]);
                self.pos += 1;
                return Some(edge);
            }
            self.node += 1;
            self.pos = 0;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.graph.edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Digraph::new(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = Digraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(2, 0);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.successors(0), &[1, 2]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(1), 0);
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn edge_target_out_of_bounds_panics() {
        let mut g = Digraph::new(1);
        g.add_edge(0, 1);
    }

    #[test]
    fn from_edges_collects() {
        let g = Digraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            vec![(0, 1), (1, 2), (2, 3), (3, 0)]
        );
    }

    #[test]
    fn reversed_flips_all_edges() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2)]);
        let r = g.reversed();
        assert!(r.has_edge(1, 0));
        assert!(r.has_edge(2, 1));
        assert_eq!(r.edge_count(), 2);
    }

    #[test]
    fn induced_subgraph_drops_edges() {
        let g = Digraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let sub = g.induced(&[true, true, false, true]);
        assert_eq!(sub.edge_count(), 2); // 0 -> 1 and 3 -> 0 survive
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(3, 0));
        assert!(!sub.has_edge(1, 2));
        assert!(!sub.has_edge(2, 3));
    }

    #[test]
    fn self_loops_allowed() {
        let mut g = Digraph::new(1);
        g.add_edge(0, 0);
        assert!(g.has_edge(0, 0));
    }

    #[test]
    fn debug_is_nonempty() {
        let g = Digraph::new(2);
        assert!(!format!("{g:?}").is_empty());
    }

    #[test]
    fn dot_output_escapes_and_lists_everything() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let dot = g.to_dot(|v| format!("say \"{v}\""));
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("label=\"say \\\"1\\\"\""));
        assert_eq!(dot.matches(" -> ").count(), 3);
    }
}
