//! Strongly connected components and combinational-cycle detection.
//!
//! §III of the paper observes that a significant portion of eFPGA routing can
//! create *combinational cyclical blocks*; since the redacted module is
//! usually acyclic, an attacker rules those out as pre-processing ("cyclic
//! reduction", \[26\]). Both the attack side (`shell-attacks`) and the shrinking
//! step 8 of SheLL need to find cycles; this module provides the machinery.

use crate::digraph::{DiGraph, NodeId};

/// Summary of the cyclic structure of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleInfo {
    /// Strongly connected components with more than one node, plus
    /// single-node components that have a self-loop.
    pub cyclic_components: Vec<Vec<NodeId>>,
    /// Total number of nodes participating in some cycle.
    pub nodes_in_cycles: usize,
}

/// Tarjan's strongly connected components, iteratively.
///
/// Components are returned in reverse topological order of the condensation
/// (standard for Tarjan). Every node appears in exactly one component.
pub fn strongly_connected_components<T>(g: &DiGraph<T>) -> Vec<Vec<NodeId>> {
    let mut components = Vec::new();
    for_each_scc(
        g.node_count(),
        (0..g.node_count() as u32).map(NodeId),
        |u| g.successors(u),
        |comp| components.push(comp.to_vec()),
    );
    components
}

/// Tarjan's algorithm over the nodes `0..n` of a graph given by its
/// successor lists, for callers that keep their own flat adjacency instead
/// of a [`DiGraph`]. A DFS starts from each of `roots` in turn that no
/// earlier one reached, so nodes no root reaches are left out; successors
/// are tried in list order. `visit` receives each component as it
/// completes: in reverse topological order of the condensation, each one's
/// nodes in the order they leave the Tarjan stack (its DFS root last).
pub fn for_each_scc<'a>(
    n: usize,
    roots: impl IntoIterator<Item = NodeId>,
    successors: impl Fn(NodeId) -> &'a [NodeId],
    mut visit: impl FnMut(&[NodeId]),
) {
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut comp: Vec<NodeId> = Vec::new();
    // Iterative Tarjan: frame = (node, next successor position).
    let mut call: Vec<(NodeId, usize)> = Vec::new();
    let mut next_index = 0u32;

    for root in roots {
        if index[root.index()] != UNSET {
            continue;
        }
        call.push((root, 0));
        while let Some(&mut (u, ref mut pos)) = call.last_mut() {
            if *pos == 0 {
                index[u.index()] = next_index;
                lowlink[u.index()] = next_index;
                next_index += 1;
                stack.push(u);
                on_stack[u.index()] = true;
            }
            let succs = successors(u);
            if *pos < succs.len() {
                let v = succs[*pos];
                *pos += 1;
                if index[v.index()] == UNSET {
                    call.push((v, 0));
                } else if on_stack[v.index()] {
                    lowlink[u.index()] = lowlink[u.index()].min(index[v.index()]);
                }
            } else {
                if lowlink[u.index()] == index[u.index()] {
                    comp.clear();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w.index()] = false;
                        comp.push(w);
                        if w == u {
                            break;
                        }
                    }
                    visit(&comp);
                }
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    lowlink[parent.index()] =
                        lowlink[parent.index()].min(lowlink[u.index()]);
                }
            }
        }
    }
}

/// Returns `true` when the graph contains at least one directed cycle
/// (including self-loops).
pub fn has_cycle<T>(g: &DiGraph<T>) -> bool {
    for comp in strongly_connected_components(g) {
        if comp.len() > 1 {
            return true;
        }
        let u = comp[0];
        if g.successors(u).contains(&u) {
            return true;
        }
    }
    false
}

/// Computes the cyclic components of the graph (see [`CycleInfo`]).
pub fn condensation<T>(g: &DiGraph<T>) -> CycleInfo {
    let mut cyclic = Vec::new();
    let mut count = 0usize;
    for comp in strongly_connected_components(g) {
        let is_cycle = comp.len() > 1 || g.successors(comp[0]).contains(&comp[0]);
        if is_cycle {
            count += comp.len();
            cyclic.push(comp);
        }
    }
    CycleInfo {
        cyclic_components: cyclic,
        nodes_in_cycles: count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_has_no_cycles() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(a, c);
        assert!(!has_cycle(&g));
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 3);
        assert!(sccs.iter().all(|c| c.len() == 1));
        assert_eq!(condensation(&g).nodes_in_cycles, 0);
    }

    #[test]
    fn simple_cycle_detected() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, a);
        assert!(has_cycle(&g));
        let info = condensation(&g);
        assert_eq!(info.cyclic_components.len(), 1);
        assert_eq!(info.nodes_in_cycles, 3);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a);
        assert!(has_cycle(&g));
        assert_eq!(condensation(&g).nodes_in_cycles, 1);
    }

    #[test]
    fn two_sccs_plus_bridge() {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        // SCC {0,1}, bridge 1->2, SCC {3,4} reached from 2.
        g.add_edge(ids[0], ids[1]);
        g.add_edge(ids[1], ids[0]);
        g.add_edge(ids[1], ids[2]);
        g.add_edge(ids[2], ids[3]);
        g.add_edge(ids[3], ids[4]);
        g.add_edge(ids[4], ids[3]);
        let info = condensation(&g);
        assert_eq!(info.cyclic_components.len(), 2);
        assert_eq!(info.nodes_in_cycles, 4);
        assert_eq!(strongly_connected_components(&g).len(), 3);
    }

    #[test]
    fn components_and_members_come_in_documented_order() {
        // A = {0, 1, 2} with a duplicate edge 1 -> 2, a bridge 2 -> 3 into
        // singleton 3, then B = {4, 5}; 6 only feeds A.
        let succ: Vec<Vec<NodeId>> = [&[1][..], &[2, 2], &[0, 3], &[4], &[5], &[4], &[0]]
            .iter()
            .map(|s| s.iter().map(|&v| NodeId(v)).collect())
            .collect();
        let run = |roots: &[u32]| {
            let mut comps: Vec<Vec<u32>> = Vec::new();
            for_each_scc(
                succ.len(),
                roots.iter().map(|&r| NodeId(r)),
                |u| &succ[u.index()],
                |comp| comps.push(comp.iter().map(|n| n.0).collect()),
            );
            comps
        };
        // Reverse topological order of the condensation; within a
        // component, stack-pop order with the DFS root last, so the root
        // order decides A's member order.
        assert_eq!(
            run(&[3, 1, 6, 0, 2, 4, 5]),
            vec![vec![5, 4], vec![3], vec![0, 2, 1], vec![6]]
        );
        assert_eq!(
            run(&[0, 1, 2, 3, 4, 5, 6]),
            vec![vec![5, 4], vec![3], vec![2, 1, 0], vec![6]]
        );
        // A node no root reaches is left out.
        assert_eq!(run(&[3, 1]), vec![vec![5, 4], vec![3], vec![0, 2, 1]]);
    }

    #[test]
    fn every_node_in_exactly_one_scc() {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..8).map(|_| g.add_node(())).collect();
        for i in 0..7 {
            g.add_edge(ids[i], ids[i + 1]);
        }
        g.add_edge(ids[5], ids[2]);
        let sccs = strongly_connected_components(&g);
        let mut seen = vec![0; 8];
        for c in &sccs {
            for n in c {
                seen[n.index()] += 1;
            }
        }
        assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // Iterative Tarjan must survive a 100k-node chain.
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..100_000).map(|_| g.add_node(())).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        assert!(!has_cycle(&g));
    }
}
