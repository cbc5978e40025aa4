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
        &mut SccBuffers::default(),
        &mut vec![false; g.node_count()],
        (0..g.node_count() as u32).map(NodeId),
        |u| g.successors(u),
        |comp, _| components.push(comp.to_vec()),
    );
    components
}

/// The work buffers of [`for_each_scc`]. A caller that runs many passes
/// keeps one and hands it to every pass, so no pass allocates.
#[derive(Debug, Default)]
pub struct SccBuffers {
    /// Per node: its DFS number while it is on the Tarjan stack, else
    /// `UNSET` (not reached yet) or `DONE` (emitted, or skipped).
    index: Vec<u32>,
    lowlink: Vec<u32>,
    stack: Vec<NodeId>,
    comp: Vec<NodeId>,
    /// Iterative Tarjan: frame = (node, next successor position).
    call: Vec<(NodeId, usize)>,
}

/// Tarjan's algorithm over the nodes `0..skip.len()` of a graph given by
/// its successor lists, for callers that keep their own flat adjacency
/// instead of a [`DiGraph`]. A DFS starts from each of `roots` in turn that
/// no earlier one reached, so nodes no root reaches are left out; successors
/// are tried in list order. `visit` receives each component as it
/// completes: in reverse topological order of the condensation, each one's
/// nodes in the order they leave the Tarjan stack (its DFS root last).
///
/// A node marked in `skip` is neither a root nor a successor. Skipping any
/// set of nodes that reach no cyclic component leaves every other node's
/// component, the order of those components and the order of their members
/// as they are without the skip: such a node only reaches other such nodes,
/// finishes before its DFS parent, and never lowers the parent's lowlink.
/// `visit` also gets the marks, so it can grow them with [`mark_dead_end`]
/// during the pass. Returns the number of nodes visited.
pub fn for_each_scc<'a>(
    buffers: &mut SccBuffers,
    skip: &mut [bool],
    roots: impl IntoIterator<Item = NodeId>,
    successors: impl Fn(NodeId) -> &'a [NodeId],
    mut visit: impl FnMut(&[NodeId], &mut [bool]),
) -> usize {
    const UNSET: u32 = u32::MAX;
    // A reached node off the stack is in an emitted component, so one
    // `index` load tells all three cases apart.
    const DONE: u32 = u32::MAX - 1;
    debug_assert!(skip.len() < DONE as usize);
    let SccBuffers {
        index,
        lowlink,
        stack,
        comp,
        call,
    } = buffers;
    // `stack` and `call` end every pass empty, `comp` is cleared before each
    // use, and `lowlink` is written before it is read.
    index.clear();
    index.extend(skip.iter().map(|&s| if s { DONE } else { UNSET }));
    lowlink.resize(skip.len(), 0);
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
            }
            // Take u's successors up to the first one not reached yet.
            let succs = successors(u);
            let mut unreached = None;
            while let Some(&v) = succs.get(*pos) {
                *pos += 1;
                match index[v.index()] {
                    UNSET => {
                        unreached = Some(v);
                        break;
                    }
                    DONE => {}
                    on_stack => lowlink[u.index()] = lowlink[u.index()].min(on_stack),
                }
            }
            if let Some(v) = unreached {
                call.push((v, 0));
                continue;
            }
            if lowlink[u.index()] == index[u.index()] {
                comp.clear();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    index[w.index()] = DONE;
                    comp.push(w);
                    if w == u {
                        break;
                    }
                }
                visit(comp, skip);
            }
            call.pop();
            if let Some(&mut (parent, _)) = call.last_mut() {
                lowlink[parent.index()] = lowlink[parent.index()].min(lowlink[u.index()]);
            }
        }
    }
    next_index as usize
}

/// The rule that grows `skip` during a [`for_each_scc`] pass: `u`, just
/// completed as a component of its own without a self-loop, is marked when
/// every one of its `successors` is. By induction over the components'
/// reverse topological order, every marked node then reaches no cyclic
/// component, as long as a marked node gains no unmarked successor later.
pub fn mark_dead_end(skip: &mut [bool], u: NodeId, successors: &[NodeId]) {
    skip[u.index()] = successors.iter().all(|v| skip[v.index()]);
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
    use shell_util::{forall, Rng};

    #[test]
    fn dag_has_no_cycles() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(a, c);
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
        let info = condensation(&g);
        assert_eq!(info.cyclic_components.len(), 1);
        assert_eq!(info.nodes_in_cycles, 3);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a);
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
                &mut SccBuffers::default(),
                &mut vec![false; succ.len()],
                roots.iter().map(|&r| NodeId(r)),
                |u| &succ[u.index()],
                |comp, _| comps.push(comp.iter().map(|n| n.0).collect()),
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

    /// One pass over `succ` from `roots` with `skip`, growing the marks
    /// with [`mark_dead_end`] when `mark` is set: the components and the
    /// number of nodes visited.
    fn pass(
        buffers: &mut SccBuffers,
        skip: &mut [bool],
        succ: &[Vec<NodeId>],
        roots: &[NodeId],
        mark: bool,
    ) -> (Vec<Vec<NodeId>>, usize) {
        let mut comps = Vec::new();
        let visited = for_each_scc(
            buffers,
            skip,
            roots.iter().copied(),
            |u| &succ[u.index()],
            |comp, skip| {
                if let [u] = *comp {
                    let succs = &succ[u.index()];
                    if mark && !succs.contains(&u) {
                        mark_dead_end(skip, u, succs);
                    }
                }
                comps.push(comp.to_vec());
            },
        );
        (comps, visited)
    }

    /// Textbook recursive Tarjan from `roots` in turn: the components, in
    /// order and member for member, that [`for_each_scc`] must give.
    fn recursive_tarjan(succ: &[Vec<NodeId>], roots: &[NodeId]) -> Vec<Vec<NodeId>> {
        struct Dfs<'a> {
            succ: &'a [Vec<NodeId>],
            index: Vec<Option<u32>>,
            lowlink: Vec<u32>,
            on_stack: Vec<bool>,
            stack: Vec<NodeId>,
            next: u32,
            comps: Vec<Vec<NodeId>>,
        }
        fn visit(d: &mut Dfs, u: NodeId) {
            d.index[u.index()] = Some(d.next);
            d.lowlink[u.index()] = d.next;
            d.next += 1;
            d.stack.push(u);
            d.on_stack[u.index()] = true;
            let succ = d.succ;
            for &v in &succ[u.index()] {
                match d.index[v.index()] {
                    None => {
                        visit(d, v);
                        d.lowlink[u.index()] = d.lowlink[u.index()].min(d.lowlink[v.index()]);
                    }
                    Some(j) if d.on_stack[v.index()] => {
                        d.lowlink[u.index()] = d.lowlink[u.index()].min(j);
                    }
                    Some(_) => {}
                }
            }
            if Some(d.lowlink[u.index()]) == d.index[u.index()] {
                let mut comp = Vec::new();
                loop {
                    let w = d.stack.pop().unwrap();
                    d.on_stack[w.index()] = false;
                    comp.push(w);
                    if w == u {
                        break;
                    }
                }
                d.comps.push(comp);
            }
        }
        let n = succ.len();
        let mut d = Dfs {
            succ,
            index: vec![None; n],
            lowlink: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            next: 0,
            comps: Vec::new(),
        };
        for &r in roots {
            if d.index[r.index()].is_none() {
                visit(&mut d, r);
            }
        }
        d.comps
    }

    #[test]
    fn skipping_nodes_that_reach_no_cycle_keeps_every_other_component() {
        forall(
            "skipping dead ends keeps the cycle-reaching components and their order",
            0x5CC_DEAD,
            300,
            |rng| {
                let n = 1 + rng.gen_range(0..24);
                let edges: Vec<(usize, usize)> = (0..rng.gen_range(0..3 * n))
                    .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                    .collect();
                (n, edges, rng.next_u64())
            },
            |(n, edges, seed)| {
                let n = (*n).max(1);
                let mut succ = vec![Vec::new(); n];
                for &(u, v) in edges.iter().filter(|&&(u, v)| u < n && v < n) {
                    succ[u].push(NodeId(v as u32));
                }
                let mut rng = Rng::seed_from_u64(*seed);
                let mut roots: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
                rng.shuffle(&mut roots);
                let want = recursive_tarjan(&succ, &roots);
                let (got, _) = pass(
                    &mut SccBuffers::default(),
                    &mut vec![false; n],
                    &succ,
                    &roots,
                    false,
                );
                if got != want {
                    return Err(format!("components {got:?}, recursive Tarjan {want:?}"));
                }
                // Reaching a cycle, by a search from every node.
                let cyclic: Vec<bool> = {
                    let mut c = vec![false; n];
                    for comp in &want {
                        if comp.len() > 1 || succ[comp[0].index()].contains(&comp[0]) {
                            comp.iter().for_each(|u| c[u.index()] = true);
                        }
                    }
                    c
                };
                let reaches_cycle: Vec<bool> = (0..n)
                    .map(|s| {
                        let mut seen = vec![false; n];
                        let mut todo = vec![s];
                        while let Some(u) = todo.pop() {
                            if std::mem::replace(&mut seen[u], true) {
                                continue;
                            }
                            if cyclic[u] {
                                return true;
                            }
                            todo.extend(succ[u].iter().map(|v| v.index()));
                        }
                        false
                    })
                    .collect();
                let live = |comps: &[Vec<NodeId>]| -> Vec<Vec<NodeId>> {
                    comps
                        .iter()
                        .filter(|c| reaches_cycle[c[0].index()])
                        .cloned()
                        .collect()
                };
                let subset: Vec<bool> = (0..n)
                    .map(|u| !reaches_cycle[u] && rng.gen_bool(0.5))
                    .collect();
                let skipped = subset.iter().filter(|&&s| s).count();

                // One set of buffers for every pass below.
                let mut buffers = SccBuffers::default();
                let mut skip = subset.clone();
                let (got, visited) = pass(&mut buffers, &mut skip, &succ, &roots, false);
                if live(&got) != live(&want) {
                    return Err(format!(
                        "skipping {subset:?} changed {:?} to {:?}",
                        live(&want),
                        live(&got)
                    ));
                }
                if visited != n - skipped {
                    return Err(format!("visited {visited} of {n} nodes, {skipped} skipped"));
                }
                // Marking during a pass marks exactly the nodes that reach
                // no cycle, and a later pass that skips them all agrees.
                let mut marks = subset.clone();
                let (got, _) = pass(&mut buffers, &mut marks, &succ, &roots, true);
                if live(&got) != live(&want) {
                    return Err("a marking pass changed the components".into());
                }
                let dead: Vec<bool> = reaches_cycle.iter().map(|r| !r).collect();
                if marks != dead {
                    return Err(format!("marked {marks:?}, reaching no cycle {dead:?}"));
                }
                let (got, _) = pass(&mut buffers, &mut marks, &succ, &roots, true);
                if got != live(&want) {
                    return Err("skipping every dead end changed the components".into());
                }
                let (got, _) = pass(&mut buffers, &mut vec![false; n], &succ, &roots, false);
                if got != want {
                    return Err("reused buffers give other components than fresh ones".into());
                }
                Ok(())
            },
        );
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
        let mut seen = [0; 8];
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
        assert_eq!(condensation(&g).nodes_in_cycles, 0);
    }
}
