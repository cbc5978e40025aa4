//! Directed-graph algorithms used by the SheLL framework.
//!
//! The SheLL selection pipeline (steps 1–3 of Fig. 4 in the paper) converts a
//! gate-level netlist into a connectivity graph and scores each node with a
//! mix of *graph-based* centrality measures and *circuit-based* attributes
//! (Table II). This crate provides the graph container and every centrality
//! measure the score function Eq. 1 needs:
//!
//! * in/out **degree centrality** (`iDgC`, `oDgC`),
//! * **closeness centrality** to designated observable/controllable nodes
//!   (`ClsC`),
//! * **betweenness centrality** restricted to observable/controllable node
//!   pairs (`BtwC`, Brandes' algorithm),
//! * **eigenvector centrality** (`EigC`, power iteration),
//!
//! plus the structural analyses the redaction flow relies on: strongly
//! connected components and combinational-cycle detection (the cyclic-reduction
//! preprocessing of \[26\] rules out cyclical blocks before an attack),
//! breadth-first distances, and the coverage metric (selection rule (ii): the
//! chosen sub-circuit must cover ≥50 % of design nodes).
//!
//! # Example
//!
//! ```
//! use shell_graph::{bfs_distances, DiGraph};
//!
//! let mut g = DiGraph::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! let c = g.add_node("c");
//! g.add_edge(a, b);
//! g.add_edge(b, c);
//! assert_eq!(g.out_degree(a), 1);
//! assert_eq!(bfs_distances(&g, a), vec![0, 1, 2]);
//! ```

mod centrality;
mod coverage;
mod digraph;
mod scc;
mod traversal;

pub use centrality::{
    betweenness_centrality_between, closeness_to_targets, degree_centrality,
    eigenvector_centrality, DegreeCentrality,
};
pub use coverage::coverage_fraction;
pub use digraph::{DiGraph, EdgeRef, NodeId};
pub use scc::{
    condensation, for_each_scc, mark_dead_end, strongly_connected_components, CycleInfo, SccBuffers,
};
pub use traversal::bfs_distances;
