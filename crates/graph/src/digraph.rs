//! A compact directed graph with stable node identifiers.

use std::fmt;

/// Identifier of a node inside a [`DiGraph`].
///
/// Node ids are dense indices assigned in insertion order; they remain valid
/// for the lifetime of the graph (nodes are never removed, matching how the
/// SheLL flow uses the connectivity graph: it is built once per netlist and
/// then only read).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed edge expressed as a `(source, target)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeRef {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
}

/// A directed graph with per-node payloads and adjacency lists in both
/// directions.
///
/// The payload type `T` is typically a netlist cell identifier or a name.
/// Parallel edges are permitted (two cells can be wired together more than
/// once — e.g. both operands of an AND driven by the same net); degree-based
/// measures deliberately count multiplicity because each connection is a
/// routing resource the eFPGA must provide.
#[derive(Debug, Clone, Default)]
pub struct DiGraph<T> {
    payloads: Vec<T>,
    successors: Vec<Vec<NodeId>>,
    predecessors: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl<T> DiGraph<T> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self {
            payloads: Vec::new(),
            successors: Vec::new(),
            predecessors: Vec::new(),
            edge_count: 0,
        }
    }

    /// Creates an empty graph with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        Self {
            payloads: Vec::with_capacity(nodes),
            successors: Vec::with_capacity(nodes),
            predecessors: Vec::with_capacity(nodes),
            edge_count: 0,
        }
    }

    /// Adds a node carrying `payload` and returns its id.
    pub fn add_node(&mut self, payload: T) -> NodeId {
        let id = NodeId(self.payloads.len() as u32);
        self.payloads.push(payload);
        self.successors.push(Vec::new());
        self.predecessors.push(Vec::new());
        id
    }

    /// Adds a directed edge `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        assert!(from.index() < self.payloads.len(), "invalid source node");
        assert!(to.index() < self.payloads.len(), "invalid target node");
        self.successors[from.index()].push(to);
        self.predecessors[to.index()].push(from);
        self.edge_count += 1;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.payloads.len()
    }

    /// Number of edges (counting parallel edges).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Payload of `node`.
    pub fn payload(&self, node: NodeId) -> &T {
        &self.payloads[node.index()]
    }

    /// Iterator over all node ids in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.payloads.len() as u32).map(NodeId)
    }

    /// Successors of `node` (out-neighbors, with multiplicity).
    pub fn successors(&self, node: NodeId) -> &[NodeId] {
        &self.successors[node.index()]
    }

    /// Predecessors of `node` (in-neighbors, with multiplicity).
    pub fn predecessors(&self, node: NodeId) -> &[NodeId] {
        &self.predecessors[node.index()]
    }

    /// Out-degree of `node`, counting parallel edges.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.successors[node.index()].len()
    }

    /// In-degree of `node`, counting parallel edges.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.predecessors[node.index()].len()
    }

    /// Iterator over every edge.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.successors.iter().enumerate().flat_map(|(i, succs)| {
            let from = NodeId(i as u32);
            succs.iter().map(move |&to| EdgeRef { from, to })
        })
    }

    /// Returns `true` if an edge `from -> to` exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.successors[from.index()].contains(&to)
    }

    /// Maps payloads to a new type, preserving the structure.
    pub fn map<U>(&self, mut f: impl FnMut(NodeId, &T) -> U) -> DiGraph<U> {
        let mut g = DiGraph::with_capacity(self.node_count());
        for (i, p) in self.payloads.iter().enumerate() {
            g.add_node(f(NodeId(i as u32), p));
        }
        g.successors = self.successors.clone();
        g.predecessors = self.predecessors.clone();
        g.edge_count = self.edge_count;
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        (g, [a, b, c, d])
    }

    #[test]
    fn node_and_edge_counts() {
        let (g, _) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(!g.is_empty());
        assert!(DiGraph::<()>::new().is_empty());
    }

    #[test]
    fn degrees() {
        let (g, [a, _b, _c, d]) = diamond();
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.out_degree(d), 0);
    }

    #[test]
    fn parallel_edges_counted() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b);
        g.add_edge(a, b);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(b), 2);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn payload_access() {
        let (g, [a, ..]) = diamond();
        assert_eq!(*g.payload(a), "a");
    }

    #[test]
    fn edges_iterator_complete() {
        let (g, _) = diamond();
        assert_eq!(g.edges().count(), 4);
    }

    #[test]
    fn map_preserves_structure() {
        let (g, [a, ..]) = diamond();
        let m = g.map(|id, s| format!("{id}:{s}"));
        assert_eq!(m.node_count(), 4);
        assert_eq!(m.edge_count(), 4);
        assert_eq!(m.payload(a), "n0:a");
    }

    #[test]
    #[should_panic(expected = "invalid target node")]
    fn invalid_edge_panics() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId(7));
    }
}
