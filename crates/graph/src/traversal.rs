//! Breadth-first distances.

use crate::digraph::{DiGraph, NodeId};
use std::collections::VecDeque;

/// Unweighted shortest-path distances (in edges) from `source` to every node.
///
/// Unreachable nodes get `usize::MAX`.
pub fn bfs_distances<T>(g: &DiGraph<T>, source: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.node_count()];
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for &v in g.successors(u) {
            if dist[v.index()] == usize::MAX {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> DiGraph<usize> {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..n).map(|i| g.add_node(i)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g
    }

    #[test]
    fn bfs_distances_chain() {
        let g = chain(5);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d2 = bfs_distances(&g, NodeId(4));
        assert_eq!(d2[0], usize::MAX);
        assert_eq!(d2[4], 0);
    }
}
