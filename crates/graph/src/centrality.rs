//! Centrality measures backing the SheLL score function (Eq. 1, Table II).
//!
//! The paper scores every candidate node with
//! `score = α·iDgC + β·oDgC + γ·ClsC + λ·BtwC + ξ·EigC + σ·LuTR`.
//! The four graph-based terms come from this module; `LuTR` (LUT-resource
//! estimation) is circuit-based and lives in `shell-synth`.

use crate::digraph::{DiGraph, NodeId};
use std::collections::VecDeque;

/// In- and out-degree centrality of every node, normalized by `n - 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeCentrality {
    /// Normalized in-degree per node (`iDgC` in Table II).
    pub in_degree: Vec<f64>,
    /// Normalized out-degree per node (`oDgC` in Table II).
    pub out_degree: Vec<f64>,
}

/// Computes normalized in/out degree centrality.
///
/// A node wired to every other node scores 1.0. For graphs with a single
/// node the centrality is defined as 0.
pub fn degree_centrality<T>(g: &DiGraph<T>) -> DegreeCentrality {
    let n = g.node_count();
    let norm = if n > 1 { (n - 1) as f64 } else { 1.0 };
    DegreeCentrality {
        in_degree: g.nodes().map(|u| g.in_degree(u) as f64 / norm).collect(),
        out_degree: g.nodes().map(|u| g.out_degree(u) as f64 / norm).collect(),
    }
}

/// Closeness of every node to a designated *target set* (the
/// observable/controllable nodes of Table II's `ClsC`).
///
/// For each node `u` the value is `1 / (1 + d(u))` where `d(u)` is the
/// shortest undirected-style distance between `u` and the nearest target,
/// measured over edges in either direction (a node near a primary output is
/// observable through its fanout; a node near a primary input is controllable
/// through its fanin). Nodes with no path to any target score 0; targets
/// themselves score 1.
pub fn closeness_to_targets<T>(g: &DiGraph<T>, targets: &[NodeId]) -> Vec<f64> {
    let n = g.node_count();
    let mut dist = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    for &t in targets {
        if dist[t.index()] != 0 {
            dist[t.index()] = 0;
            queue.push_back(t);
        }
    }
    // Multi-source BFS over both edge directions.
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for &v in g.successors(u).iter().chain(g.predecessors(u)) {
            if dist[v.index()] == usize::MAX {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist.into_iter()
        .map(|d| {
            if d == usize::MAX {
                0.0
            } else {
                1.0 / (1.0 + d as f64)
            }
        })
        .collect()
}

/// Betweenness restricted to shortest paths between `sources` and `sinks`
/// (Table II's `BtwC`: "node occurrence in the shortest paths between
/// observable/controllable nodes"), normalized by `(n - 1)(n - 2)`.
///
/// Brandes' accumulation from every source, with dependencies seeded only
/// at sink nodes, so only paths that start at a source and end at a sink
/// contribute.
pub fn betweenness_centrality_between<T>(
    g: &DiGraph<T>,
    sources: &[NodeId],
    sinks: &[NodeId],
) -> Vec<f64> {
    let n = g.node_count();
    let mut bc = vec![0.0f64; n];
    if n < 3 {
        return bc;
    }
    let mut is_sink = vec![false; n];
    for &s in sinks {
        is_sink[s.index()] = true;
    }
    let mut sigma = vec![0.0f64; n];
    let mut dist = vec![usize::MAX; n];
    let mut delta = vec![0.0f64; n];
    let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for &s in sources {
        // Reset scratch state.
        for v in 0..n {
            sigma[v] = 0.0;
            dist[v] = usize::MAX;
            delta[v] = 0.0;
            preds[v].clear();
        }
        sigma[s.index()] = 1.0;
        dist[s.index()] = 0;
        let mut stack: Vec<NodeId> = Vec::new();
        let mut queue = VecDeque::new();
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            stack.push(u);
            let du = dist[u.index()];
            for &v in g.successors(u) {
                if dist[v.index()] == usize::MAX {
                    dist[v.index()] = du + 1;
                    queue.push_back(v);
                }
                if dist[v.index()] == du + 1 {
                    sigma[v.index()] += sigma[u.index()];
                    preds[v.index()].push(u);
                }
            }
        }
        // Dependency accumulation (reverse BFS order).
        while let Some(w) = stack.pop() {
            let seed = if is_sink[w.index()] && w != s {
                1.0
            } else {
                0.0
            };
            let coeff = (seed + delta[w.index()]) / sigma[w.index()].max(1.0);
            for &p in &preds[w.index()] {
                delta[p.index()] += sigma[p.index()] * coeff;
            }
            if w != s {
                bc[w.index()] += delta[w.index()];
            }
        }
    }
    let norm = ((n - 1) * (n - 2)) as f64;
    for b in &mut bc {
        *b /= norm;
    }
    bc
}

/// Eigenvector centrality via power iteration on `A + Aᵀ` (treating the
/// circuit graph as undirected for neighborhood influence, which matches
/// Table II's `EigC`: "neighboring node(s) type").
///
/// Returns a vector normalized to unit max-norm. Converges within `max_iter`
/// iterations or returns the last iterate; for the sparse circuit graphs used
/// here 100 iterations are ample.
pub fn eigenvector_centrality<T>(g: &DiGraph<T>, max_iter: usize, tol: f64) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let mut x = vec![1.0f64 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..max_iter {
        for v in next.iter_mut() {
            *v = 0.0;
        }
        for e in g.edges() {
            // Undirected influence propagation.
            next[e.to.index()] += x[e.from.index()];
            next[e.from.index()] += x[e.to.index()];
        }
        let norm = next.iter().fold(0.0f64, |m, &v| m.max(v));
        if norm == 0.0 {
            return vec![0.0; n];
        }
        let mut diff = 0.0f64;
        for i in 0..n {
            let scaled = next[i] / norm;
            diff = diff.max((scaled - x[i]).abs());
            x[i] = scaled;
        }
        if diff < tol {
            break;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Star graph: center 0 with edges to/from 4 leaves.
    fn star() -> DiGraph<()> {
        let mut g = DiGraph::new();
        let c = g.add_node(());
        for _ in 0..4 {
            let leaf = g.add_node(());
            g.add_edge(c, leaf);
            g.add_edge(leaf, c);
        }
        g
    }

    /// Path graph 0 -> 1 -> 2 -> 3 -> 4.
    fn path5() -> DiGraph<()> {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g
    }

    #[test]
    fn degree_centrality_star() {
        let g = star();
        let dc = degree_centrality(&g);
        assert!((dc.in_degree[0] - 1.0).abs() < 1e-12);
        assert!((dc.out_degree[0] - 1.0).abs() < 1e-12);
        assert!((dc.in_degree[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn degree_centrality_single_node() {
        let mut g = DiGraph::new();
        g.add_node(());
        let dc = degree_centrality(&g);
        assert_eq!(dc.in_degree, vec![0.0]);
    }

    #[test]
    fn closeness_to_targets_distance_decay() {
        let g = path5();
        let cls = closeness_to_targets(&g, &[NodeId(4)]);
        assert!((cls[4] - 1.0).abs() < 1e-12);
        assert!((cls[3] - 0.5).abs() < 1e-12);
        assert!((cls[0] - 1.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn closeness_to_targets_uses_both_directions() {
        // 0 -> 1; target {0}: node 1 should still be at distance 1.
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b);
        let cls = closeness_to_targets(&g, &[a]);
        assert!((cls[b.index()] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn betweenness_path_middle_highest() {
        let g = path5();
        // All pairs: every node is a source and a sink.
        let all: Vec<NodeId> = g.nodes().collect();
        let bc = betweenness_centrality_between(&g, &all, &all);
        // For a directed path of 5 nodes, node 2 is interior to paths
        // 0->3, 0->4, 1->3, 1->4 → raw 4, normalized by (4)(3)=12.
        assert!((bc[2] - 4.0 / 12.0).abs() < 1e-9, "bc[2]={}", bc[2]);
        assert_eq!(bc[0], 0.0);
        assert_eq!(bc[4], 0.0);
        // Symmetric neighbors: node 1 interior to 0->2,0->3,0->4 → 3/12.
        assert!((bc[1] - 3.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn betweenness_between_restricted_pairs() {
        let g = path5();
        // Only count paths from node 0 to node 4 — every interior node lies
        // on the unique shortest path.
        let bc = betweenness_centrality_between(&g, &[NodeId(0)], &[NodeId(4)]);
        let norm = 12.0;
        for (i, b) in bc.iter().enumerate().take(4).skip(1) {
            assert!((b - 1.0 / norm).abs() < 1e-9, "bc[{i}]={b}");
        }
        assert_eq!(bc[0], 0.0);
        assert_eq!(bc[4], 0.0);
    }

    #[test]
    fn betweenness_counts_path_multiplicity() {
        // Two shortest paths 0->{1,2}->3: each middle node gets 0.5 weight.
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        let bc = betweenness_centrality_between(&g, &[a], &[d]);
        let norm = ((4 - 1) * (4 - 2)) as f64;
        assert!((bc[b.index()] - 0.5 / norm).abs() < 1e-9);
        assert!((bc[c.index()] - 0.5 / norm).abs() < 1e-9);
    }

    #[test]
    fn eigenvector_star_center_dominates() {
        let g = star();
        let ec = eigenvector_centrality(&g, 200, 1e-10);
        assert!((ec[0] - 1.0).abs() < 1e-6);
        for leaf in 1..5 {
            assert!(ec[leaf] < ec[0]);
            assert!(ec[leaf] > 0.0);
        }
    }

    #[test]
    fn eigenvector_empty_and_edgeless() {
        let g: DiGraph<()> = DiGraph::new();
        assert!(eigenvector_centrality(&g, 10, 1e-9).is_empty());
        let mut g2 = DiGraph::new();
        g2.add_node(());
        g2.add_node(());
        assert_eq!(eigenvector_centrality(&g2, 10, 1e-9), vec![0.0, 0.0]);
    }
}
