//! Reachability and node-coverage metrics.
//!
//! SheLL's sub-circuit selection rule (ii) requires the chosen nodes to
//! "cover (indirect connection) a good portion of the design nodes
//! (≥ 50 % node coverage)". Coverage here means: the union of nodes that can
//! reach, or be reached from, any selected node.

use crate::digraph::{DiGraph, NodeId};
use std::collections::VecDeque;

/// All nodes reachable from `sources` by following edges forward
/// (the sources themselves are included).
fn reachable_from<T>(g: &DiGraph<T>, sources: &[NodeId]) -> Vec<bool> {
    sweep(g, sources, false)
}

/// All nodes that can reach one of `sinks` by following edges forward
/// (i.e. reachability in the reversed graph; sinks included).
fn reaches_to<T>(g: &DiGraph<T>, sinks: &[NodeId]) -> Vec<bool> {
    sweep(g, sinks, true)
}

fn sweep<T>(g: &DiGraph<T>, seeds: &[NodeId], reverse: bool) -> Vec<bool> {
    let mut seen = vec![false; g.node_count()];
    let mut queue = VecDeque::new();
    for &s in seeds {
        if !seen[s.index()] {
            seen[s.index()] = true;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let next = if reverse {
            g.predecessors(u)
        } else {
            g.successors(u)
        };
        for &v in next {
            if !seen[v.index()] {
                seen[v.index()] = true;
                queue.push_back(v);
            }
        }
    }
    seen
}

/// Nodes covered by `selection`: anything in the forward or backward cone of
/// any selected node (selection rule (ii)).
fn covered_nodes<T>(g: &DiGraph<T>, selection: &[NodeId]) -> Vec<bool> {
    let fwd = reachable_from(g, selection);
    let bwd = reaches_to(g, selection);
    fwd.iter().zip(&bwd).map(|(&a, &b)| a || b).collect()
}

/// Fraction of all nodes covered by `selection` (0.0 ..= 1.0).
///
/// An empty graph counts as fully covered.
pub fn coverage_fraction<T>(g: &DiGraph<T>, selection: &[NodeId]) -> f64 {
    let n = g.node_count();
    if n == 0 {
        return 1.0;
    }
    let covered = covered_nodes(g, selection);
    covered.iter().filter(|&&c| c).count() as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -> 1 -> 2,  3 -> 4 (two disjoint chains).
    fn two_chains() -> (DiGraph<()>, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        g.add_edge(ids[0], ids[1]);
        g.add_edge(ids[1], ids[2]);
        g.add_edge(ids[3], ids[4]);
        (g, ids)
    }

    #[test]
    fn forward_reachability() {
        let (g, ids) = two_chains();
        let r = reachable_from(&g, &[ids[0]]);
        assert_eq!(r, vec![true, true, true, false, false]);
    }

    #[test]
    fn backward_reachability() {
        let (g, ids) = two_chains();
        let r = reaches_to(&g, &[ids[2]]);
        assert_eq!(r, vec![true, true, true, false, false]);
    }

    #[test]
    fn coverage_middle_node_covers_whole_chain() {
        let (g, ids) = two_chains();
        assert!((coverage_fraction(&g, &[ids[1]]) - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_of_both_chains() {
        let (g, ids) = two_chains();
        assert!((coverage_fraction(&g, &[ids[1], ids[3]]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_selection_covers_nothing() {
        let (g, _) = two_chains();
        assert_eq!(coverage_fraction(&g, &[]), 0.0);
    }

    #[test]
    fn empty_graph_fully_covered() {
        let g: DiGraph<()> = DiGraph::new();
        assert_eq!(coverage_fraction(&g, &[]), 1.0);
    }

    #[test]
    fn duplicate_seeds_ok() {
        let (g, ids) = two_chains();
        let r = reachable_from(&g, &[ids[0], ids[0]]);
        assert_eq!(r.iter().filter(|&&x| x).count(), 3);
    }
}
