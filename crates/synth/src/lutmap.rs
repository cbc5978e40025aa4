//! Cut-based k-LUT technology mapping (the "LUT-based synthesis" of step 5).
//!
//! A FlowMap-flavored priority-cut mapper:
//!
//! 1. the netlist is decomposed to a two-input network ([`crate::decompose`]),
//! 2. cuts of size ≤ k are enumerated per node in topological order, keeping
//!    the best few per node ranked by (depth, size),
//! 3. a depth-optimal cover is chosen backward from the primary outputs and
//!    register inputs,
//! 4. each selected cut becomes one LUT whose truth table is derived by
//!    exhaustively simulating the covered cone.
//!
//! The mapping is functionally exact; tests verify mapped netlists against
//! the originals.

use crate::decompose::{decompose_keeping_mux4, decompose_to_two_input};
use crate::error::SynthError;
use crate::opt::clean_netlist;
use shell_netlist::{CellId, CellKind, LutMask, NetId, Netlist};
use std::collections::HashMap;

/// Maximum cuts retained per node (priority cuts).
const CUTS_PER_NODE: usize = 8;

/// Result of LUT mapping.
#[derive(Debug, Clone)]
pub struct LutMapping {
    /// The mapped netlist: LUT cells, DFFs, constants and port buffers only.
    pub netlist: Netlist,
    /// Number of LUT cells emitted.
    pub lut_count: usize,
    /// Depth of the mapping in LUT levels.
    pub depth: usize,
    /// LUT arity used.
    pub k: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Cut {
    /// Sorted leaf nets.
    leaves: Vec<NetId>,
    /// LUT levels needed to produce this cut's root from primary sources.
    depth: usize,
}

/// Maps `netlist` onto k-input LUTs (2 ≤ k ≤ 6).
///
/// The input is cleaned and decomposed first, so any gate mix is accepted.
/// Sequential cells (DFFs, latches) are preserved; their inputs and the
/// primary outputs delimit the combinational cones being mapped.
///
/// ```
/// use shell_netlist::{Netlist, CellKind};
/// use shell_synth::lut_map;
///
/// let mut n = Netlist::new("maj");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let c = n.add_input("c");
/// let ab = n.add_cell("ab", CellKind::And, vec![a, b]);
/// let bc = n.add_cell("bc", CellKind::And, vec![b, c]);
/// let ca = n.add_cell("ca", CellKind::And, vec![c, a]);
/// let f = n.add_cell("f", CellKind::Or, vec![ab, bc, ca]);
/// n.add_output("f", f);
/// let mapped = lut_map(&n, 4).unwrap();
/// assert!(mapped.lut_count <= 3);
/// assert_eq!(mapped.netlist.eval_comb(&[true, true, false]), vec![true]);
/// assert_eq!(mapped.netlist.eval_comb(&[true, false, false]), vec![false]);
/// ```
///
/// # Errors
///
/// [`SynthError::Cyclic`] if the netlist is combinationally cyclic.
///
/// # Panics
///
/// Panics if `k` is outside `2..=6` (a caller bug, not an input property).
pub fn lut_map(netlist: &Netlist, k: usize) -> Result<LutMapping, SynthError> {
    lut_map_impl(netlist, k, false)
}

/// Hybrid mapping: like [`lut_map`], but `Mux2`/`Mux4` cells are preserved
/// verbatim instead of being absorbed into LUTs — their outputs act as cut
/// leaves and their inputs as mapping roots. This is the "second Yosys call"
/// of the SheLL flow: ROUTE mux cascades stay muxes (bound for the fabric's
/// chain blocks) while the surrounding LGC is LUT-mapped.
///
/// # Errors
///
/// [`SynthError::Cyclic`] if the netlist is combinationally cyclic.
///
/// # Panics
///
/// Panics if `k` is outside `2..=6` (a caller bug, not an input property).
pub fn lut_map_hybrid(netlist: &Netlist, k: usize) -> Result<LutMapping, SynthError> {
    lut_map_impl(netlist, k, true)
}

fn lut_map_impl(netlist: &Netlist, k: usize, keep_muxes: bool) -> Result<LutMapping, SynthError> {
    let _span = shell_trace::span!("synth.lutmap");
    assert!((2..=6).contains(&k), "LUT arity must be in 2..=6");
    // Reject cycles before the cleanup passes (which assume acyclicity).
    if netlist.topo_order().is_err() {
        return Err(SynthError::cyclic(netlist.name()));
    }
    let cleaned = clean_netlist(netlist);
    let prepared = if keep_muxes {
        decompose_keeping_mux4(&cleaned)?
    } else {
        decompose_to_two_input(&cleaned)?
    };
    let is_kept = |kind: CellKind| -> bool { keep_muxes && kind.is_mux() };

    // --- Phase 1: cut enumeration --------------------------------------
    let n_nets = prepared.net_count();
    // Depth of each net (0 for sources).
    let mut net_depth = vec![0usize; n_nets];
    // Best cuts per *cell* output net.
    let mut cuts: HashMap<NetId, Vec<Cut>> = HashMap::new();
    let order = prepared
        .topo_order()
        .map_err(|_| SynthError::cyclic(prepared.name()))?;
    // Bucket combinational cells by structural level (1 + max level of the
    // driving cells; sources sit at 0): a cell's cut merge only reads the
    // cuts and depths of strictly lower levels, so each bucket enumerates
    // in parallel and commits sequentially in topological order. The commit
    // order is the bucket's (deterministic) order, never thread order.
    let mut net_level = vec![0usize; n_nets];
    let mut level_buckets: Vec<Vec<CellId>> = Vec::new();
    for cid in &order {
        let c = prepared.cell(*cid);
        if c.kind.is_sequential() || matches!(c.kind, CellKind::Const(_)) {
            // Constants are sources with a zero-leaf cut handled at build.
            continue;
        }
        let lvl = 1 + c
            .inputs
            .iter()
            .map(|n| net_level[n.index()])
            .max()
            .unwrap_or(0);
        net_level[c.output.index()] = lvl;
        if level_buckets.len() < lvl {
            level_buckets.resize(lvl, Vec::new());
        }
        level_buckets[lvl - 1].push(*cid);
    }
    for bucket in &level_buckets {
        let results: Vec<(NetId, Option<Vec<Cut>>, usize)> = {
            let (net_depth, cuts) = (&net_depth, &cuts);
            shell_exec::parallel_map_grain(bucket, 8, |&cid| {
                let c = prepared.cell(cid);
                if is_kept(c.kind) {
                    // Preserved mux: its output is a cut leaf downstream.
                    let d = 1 + c
                        .inputs
                        .iter()
                        .map(|n| net_depth[n.index()])
                        .max()
                        .unwrap_or(0);
                    (c.output, None, d)
                } else {
                    let node_cuts = enumerate_cuts(c, k, net_depth, cuts);
                    let d = node_cuts[0].depth;
                    (c.output, Some(node_cuts), d)
                }
            })
        };
        let mut cuts_enumerated = 0u64;
        for (out, node_cuts, d) in results {
            net_depth[out.index()] = d;
            if let Some(nc) = node_cuts {
                cuts_enumerated += nc.len() as u64;
                cuts.insert(out, nc);
            }
        }
        // Counted at the sequential commit, so the total is independent of
        // how the parallel enumeration was grained.
        shell_trace::counter_add("synth.cuts", cuts_enumerated);
    }

    // --- Phase 2: covering ----------------------------------------------
    // Roots that must be realized: primary outputs + sequential data inputs.
    let mut required: Vec<NetId> = prepared.outputs().iter().map(|(_, n)| *n).collect();
    for cid in prepared.sequential_cells() {
        required.extend(prepared.cell(cid).inputs.iter().copied());
    }
    if keep_muxes {
        for (_, c) in prepared.cells() {
            if is_kept(c.kind) {
                required.extend(c.inputs.iter().copied());
            }
        }
    }
    let mut selected: HashMap<NetId, Cut> = HashMap::new();
    let mut work = required.clone();
    while let Some(net) = work.pop() {
        if selected.contains_key(&net) {
            continue;
        }
        let Some(driver) = prepared.net(net).driver else {
            continue; // PI / key / floating
        };
        let dc = prepared.cell(driver);
        if dc.kind.is_sequential() || matches!(dc.kind, CellKind::Const(_)) || is_kept(dc.kind) {
            continue;
        }
        let best = cuts[&net][0].clone();
        for &leaf in &best.leaves {
            work.push(leaf);
        }
        selected.insert(net, best);
    }

    // --- Phase 3: netlist construction ----------------------------------
    let mut out = Netlist::new(prepared.name());
    let mut map: Vec<Option<NetId>> = vec![None; n_nets];
    for &n in prepared.inputs() {
        map[n.index()] = Some(out.add_input(prepared.net(n).name.clone()));
    }
    for &n in prepared.key_inputs() {
        map[n.index()] = Some(out.add_key_input(prepared.net(n).name.clone()));
    }
    for (_, c) in prepared.cells() {
        match c.kind {
            kind if kind.is_sequential() => {
                map[c.output.index()] = Some(out.add_net(prepared.net(c.output).name.clone()));
            }
            CellKind::Const(v) => {
                map[c.output.index()] =
                    Some(out.add_cell(c.name.clone(), CellKind::Const(v), vec![]));
            }
            _ => {}
        }
    }
    // Cone truth tables are pure functions of the prepared netlist and the
    // selected cuts — simulate them all in parallel before the (inherently
    // sequential) netlist construction below consumes them in topo order.
    let masks: HashMap<NetId, u64> = {
        let pos: HashMap<CellId, usize> = order.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let roots: Vec<(NetId, &Cut)> = order
            .iter()
            .filter_map(|cid| {
                let c = prepared.cell(*cid);
                if is_kept(c.kind) {
                    return None;
                }
                selected.get(&c.output).map(|cut| (c.output, cut))
            })
            .collect();
        let tables = shell_exec::parallel_map_grain(&roots, 8, |&(root, cut)| {
            cone_truth_table(&prepared, root, &cut.leaves, &pos)
        });
        roots
            .iter()
            .zip(tables)
            .map(|(&(root, _), mask)| (root, mask))
            .collect()
    };
    // Emit LUTs (and preserved muxes) in topological order.
    let mut lut_count = 0usize;
    for cid in &order {
        let c = prepared.cell(*cid);
        if is_kept(c.kind) {
            let ins: Vec<NetId> = c
                .inputs
                .iter()
                .map(|n| map[n.index()].expect("mux input realized"))
                .collect();
            let new_net = out.add_cell(c.name.clone(), c.kind, ins);
            map[c.output.index()] = Some(new_net);
            continue;
        }
        let root = c.output;
        let Some(cut) = selected.get(&root) else {
            continue;
        };
        let mask = masks[&root];
        let ins: Vec<NetId> = cut
            .leaves
            .iter()
            .map(|l| map[l.index()].expect("leaf already realized"))
            .collect();
        let new_net = out.add_cell(
            format!("lut_{}", prepared.net(root).name),
            CellKind::Lut(LutMask::new(mask, cut.leaves.len())),
            ins,
        );
        map[root.index()] = Some(new_net);
        lut_count += 1;
    }
    // Sequential cells.
    for cid in prepared.sequential_cells() {
        let c = prepared.cell(cid);
        let ins: Vec<NetId> = c
            .inputs
            .iter()
            .map(|n| map[n.index()].expect("register input realized"))
            .collect();
        let pre = map[c.output.index()].expect("pre-created");
        out.add_cell_driving(c.name.clone(), c.kind, ins, pre)
            .expect("lutmap sequential");
    }
    // Outputs.
    for (name, n) in prepared.outputs() {
        let m = map[n.index()].expect("output realized");
        out.add_output(name.clone(), m);
    }

    let depth = prepared
        .outputs()
        .iter()
        .map(|(_, n)| net_depth[n.index()])
        .chain(
            prepared
                .sequential_cells()
                .into_iter()
                .map(|cid| net_depth[prepared.cell(cid).inputs[0].index()]),
        )
        .max()
        .unwrap_or(0);

    Ok(LutMapping {
        netlist: out,
        lut_count,
        depth,
        k,
    })
}

/// One cell's priority-cut list: trivial fanin cuts plus the fanins' own
/// cut lists, Cartesian-merged, ranked and truncated. Reads only the cuts
/// and depths of the cell's fanins, so cells of one structural level can
/// run concurrently.
fn enumerate_cuts(
    c: &shell_netlist::Cell,
    k: usize,
    net_depth: &[usize],
    cuts: &HashMap<NetId, Vec<Cut>>,
) -> Vec<Cut> {
    // Fanin cut lists: a leaf net contributes its own trivial cut.
    let fanin_cuts: Vec<Vec<Cut>> = c
        .inputs
        .iter()
        .map(|&inp| {
            let mut list = vec![Cut {
                leaves: vec![inp],
                depth: net_depth[inp.index()],
            }];
            if let Some(sub) = cuts.get(&inp) {
                list.extend(sub.iter().cloned());
            }
            list
        })
        .collect();
    // Cartesian merge.
    let mut merged: Vec<Cut> = vec![Cut {
        leaves: Vec::new(),
        depth: 0,
    }];
    for fc in &fanin_cuts {
        let mut next: Vec<Cut> = Vec::new();
        for base in &merged {
            for add in fc {
                let mut leaves = base.leaves.clone();
                for &l in &add.leaves {
                    if !leaves.contains(&l) {
                        leaves.push(l);
                    }
                }
                if leaves.len() > k {
                    continue;
                }
                next.push(Cut {
                    leaves,
                    depth: base.depth.max(add.depth),
                });
            }
        }
        // Prune aggressively to keep the product bounded; same ranking
        // as the final cut list (depth, then wider-first).
        next.sort_by(|a, b| {
            a.depth
                .cmp(&b.depth)
                .then(b.leaves.len().cmp(&a.leaves.len()))
        });
        next.dedup_by(|a, b| {
            a.leaves.len() == b.leaves.len() && {
                let mut x = a.leaves.clone();
                let mut y = b.leaves.clone();
                x.sort_unstable();
                y.sort_unstable();
                x == y
            }
        });
        next.truncate(CUTS_PER_NODE * 2);
        merged = next;
    }
    let mut node_cuts: Vec<Cut> = merged
        .into_iter()
        .map(|c| Cut {
            leaves: {
                let mut l = c.leaves;
                l.sort_unstable();
                l
            },
            depth: c.depth + 1,
        })
        .collect();
    // Rank: minimal depth first; at equal depth prefer *larger* cuts —
    // a wider cut swallows more interior logic into one LUT, which is
    // what keeps the area of the cover down.
    node_cuts.sort_by(|a, b| {
        a.depth
            .cmp(&b.depth)
            .then(b.leaves.len().cmp(&a.leaves.len()))
    });
    node_cuts.dedup_by(|a, b| a.leaves == b.leaves);
    node_cuts.truncate(CUTS_PER_NODE);
    debug_assert!(!node_cuts.is_empty(), "every node has at least one cut");
    node_cuts
}

/// Truth table of the cone rooted at `root` with the given leaf nets,
/// computed by exhaustive simulation of the cone. `pos` is the global
/// topological position of every cell (shared across calls — rebuilding it
/// per cone dominated mapping time on wide netlists).
fn cone_truth_table(
    netlist: &Netlist,
    root: NetId,
    leaves: &[NetId],
    pos: &HashMap<CellId, usize>,
) -> u64 {
    let k = leaves.len();
    debug_assert!(k <= 6);
    // Collect cone cells by reverse DFS bounded at leaves.
    let mut cone: Vec<CellId> = Vec::new();
    let mut visited: HashMap<NetId, ()> = HashMap::new();
    let mut stack = vec![root];
    while let Some(net) = stack.pop() {
        if visited.contains_key(&net) || leaves.contains(&net) {
            continue;
        }
        visited.insert(net, ());
        if let Some(drv) = netlist.net(net).driver {
            let c = netlist.cell(drv);
            if c.kind.is_sequential() {
                continue; // register output behaves as a leaf
            }
            cone.push(drv);
            for &i in &c.inputs {
                stack.push(i);
            }
        }
    }
    // Order cone cells topologically (they are a sub-DAG; sort by the global
    // topological position).
    cone.sort_by_key(|c| pos[c]);

    let mut mask = 0u64;
    let mut values: HashMap<NetId, bool> = HashMap::new();
    for pattern in 0..(1usize << k) {
        values.clear();
        for (i, &l) in leaves.iter().enumerate() {
            values.insert(l, (pattern >> i) & 1 == 1);
        }
        for &cid in &cone {
            let c = netlist.cell(cid);
            let ins: Vec<bool> = c
                .inputs
                .iter()
                .map(|n| *values.get(n).unwrap_or(&false))
                .collect();
            values.insert(c.output, c.kind.eval_comb(&ins));
        }
        if *values.get(&root).unwrap_or(&false) {
            mask |= 1 << pattern;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_netlist::equiv::{equiv_exhaustive, equiv_sequential_random, EquivResult};
    use shell_netlist::NetlistBuilder;

    fn assert_equiv(a: &Netlist, b: &Netlist) {
        match equiv_exhaustive(a, b, &[], &[]) {
            EquivResult::Equivalent => {}
            other => panic!("not equivalent: {other:?}"),
        }
    }

    fn adder(width: usize) -> Netlist {
        let mut b = NetlistBuilder::new("adder");
        let x = b.input_bus("x", width);
        let y = b.input_bus("y", width);
        let (s, c) = b.adder(&x, &y);
        b.output_bus("s", &s);
        b.output("c", c);
        b.finish()
    }

    #[test]
    fn map_adder_k4_exact() {
        let n = adder(4);
        let m = lut_map(&n, 4).unwrap();
        assert_equiv(&n, &m.netlist);
        assert!(m.lut_count > 0);
        // Every combinational cell must be a LUT or constant.
        for (_, c) in m.netlist.cells() {
            assert!(
                matches!(
                    c.kind,
                    CellKind::Lut(_) | CellKind::Const(_) | CellKind::Dff
                ),
                "unexpected {:?}",
                c.kind
            );
        }
    }

    #[test]
    fn map_adder_all_arities() {
        let n = adder(3);
        let mut counts = Vec::new();
        for k in 2..=6 {
            let m = lut_map(&n, k).unwrap();
            assert_equiv(&n, &m.netlist);
            assert_eq!(m.k, k);
            assert!(m.lut_count > 0);
            counts.push(m.lut_count);
        }
        // Widest LUTs need no more cells than the narrowest.
        assert!(
            counts[4] <= counts[0],
            "k=6 {} vs k=2 {}",
            counts[4],
            counts[0]
        );
    }

    #[test]
    fn depth_shrinks_with_wider_luts() {
        let n = adder(6);
        let d2 = lut_map(&n, 2).unwrap().depth;
        let d6 = lut_map(&n, 6).unwrap().depth;
        assert!(d6 <= d2, "k=6 depth {d6} vs k=2 depth {d2}");
    }

    #[test]
    fn map_mux_network() {
        let mut b = NetlistBuilder::new("muxnet");
        let sel = b.input_bus("sel", 2);
        let words: Vec<Vec<NetId>> = (0..4).map(|i| b.input_bus(&format!("w{i}"), 2)).collect();
        let o = b.mux_tree(&sel, &words);
        b.output_bus("o", &o);
        let n = b.finish();
        let m = lut_map(&n, 4).unwrap();
        assert_equiv(&n, &m.netlist);
    }

    #[test]
    fn map_sequential_design() {
        let mut b = NetlistBuilder::new("ctr");
        let en = b.input("en");
        let zero = b.constant(false);
        // 3-bit counter with enable.
        let q = b.reg_word_en(en, &[zero, zero, zero]);
        // Feedback: q+1 into the register inputs would need net surgery;
        // simpler: output = q XOR (en en en).
        let ens = vec![en, en, en];
        let o = b.xor_word(&q, &ens);
        b.output_bus("o", &o);
        let n = b.finish();
        let m = lut_map(&n, 4).unwrap();
        assert_eq!(
            m.netlist.sequential_cells().len(),
            n.sequential_cells().len()
        );
        assert!(equiv_sequential_random(&n, &m.netlist, &[], &[], 32, 11).is_equivalent());
    }

    #[test]
    fn map_keyed_design() {
        let mut b = NetlistBuilder::new("locked");
        let a = b.input_bus("a", 3);
        let k = b.key_bus("k", 3);
        let x = b.xor_word(&a, &k);
        let f = b.reduce(CellKind::And, &x);
        b.output("f", f);
        let n = b.finish();
        let m = lut_map(&n, 4).unwrap();
        assert_eq!(m.netlist.key_inputs().len(), 3);
        for key in [0b000u64, 0b101, 0b111] {
            let kb: Vec<bool> = (0..3).map(|i| (key >> i) & 1 == 1).collect();
            match equiv_exhaustive(&n, &m.netlist, &kb, &kb) {
                EquivResult::Equivalent => {}
                other => panic!("key={key:b}: {other:?}"),
            }
        }
    }

    #[test]
    fn map_constant_circuit() {
        let mut n = Netlist::new("c");
        let a = n.add_input("a");
        let one = n.add_cell("one", CellKind::Const(true), vec![]);
        let f = n.add_cell("f", CellKind::Or, vec![a, one]);
        n.add_output("f", f);
        let m = lut_map(&n, 4).unwrap();
        assert_equiv(&n, &m.netlist);
    }

    #[test]
    fn lut_count_reasonable_for_adder() {
        // A 4-bit ripple adder fits comfortably in ≤ 12 4-LUTs.
        let n = adder(4);
        let m = lut_map(&n, 4).unwrap();
        assert!(m.lut_count <= 12, "got {}", m.lut_count);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn bad_arity_panics() {
        let _ = lut_map(&adder(2), 7);
    }

    #[test]
    fn cyclic_input_is_typed_error_not_panic() {
        use crate::error::SynthError;
        let mut n = Netlist::new("ring");
        let a = n.add_input("a");
        let q = n.add_net("q");
        let x = n.add_cell("x", CellKind::And, vec![a, q]);
        n.add_cell_driving("loop", CellKind::Or, vec![x, a], q)
            .unwrap();
        n.add_output("f", q);
        assert_eq!(lut_map(&n, 4).err(), Some(SynthError::cyclic("ring")));
        assert_eq!(
            lut_map_hybrid(&n, 4).err(),
            Some(SynthError::cyclic("ring"))
        );
        assert!(crate::decompose_to_two_input(&n).is_err());
    }

    #[test]
    fn hybrid_mapping_preserves_muxes() {
        // Mix of mux cascade and surrounding logic.
        let mut b = NetlistBuilder::new("hyb");
        let s0 = b.input("s0");
        let s1 = b.input("s1");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.and2(a, c); // LGC around the route
        let m1 = b.mux2(s0, a, g);
        let m2 = b.mux2(s1, m1, c);
        let h = b.xor2(m2, g); // LGC after the route
        b.output("h", h);
        let n = b.finish();
        let m = lut_map_hybrid(&n, 4).unwrap();
        assert_equiv(&n, &m.netlist);
        let mux_count = m.netlist.cells().filter(|(_, c)| c.kind.is_mux()).count();
        assert_eq!(mux_count, 2, "both muxes survive hybrid mapping");
        assert!(m.lut_count >= 1, "surrounding LGC became LUTs");
        for (_, c) in m.netlist.cells() {
            assert!(
                matches!(
                    c.kind,
                    CellKind::Lut(_)
                        | CellKind::Mux2
                        | CellKind::Mux4
                        | CellKind::Const(_)
                        | CellKind::Dff
                ),
                "unexpected {:?}",
                c.kind
            );
        }
    }

    #[test]
    fn hybrid_mapping_mux4_kept() {
        let mut n = Netlist::new("h4");
        let s1 = n.add_input("s1");
        let s0 = n.add_input("s0");
        let d: Vec<NetId> = (0..4).map(|i| n.add_input(format!("d{i}"))).collect();
        let m = n.add_cell("m", CellKind::Mux4, vec![s1, s0, d[0], d[1], d[2], d[3]]);
        let f = n.add_cell("f", CellKind::Not, vec![m]);
        n.add_output("f", f);
        let mapped = lut_map_hybrid(&n, 4).unwrap();
        assert_equiv(&n, &mapped.netlist);
        assert!(mapped
            .netlist
            .cells()
            .any(|(_, c)| c.kind == CellKind::Mux4));
    }
}
