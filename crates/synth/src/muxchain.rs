//! MUX-chain mapping for ROUTE circuits.
//!
//! The central efficiency claim of the paper (Table I, §IV) is that routing
//! sub-circuits — networks dominated by multiplexers, like an AXI crossbar —
//! should be mapped onto the eFPGA's **MUX chains** (M4-based switch
//! structures with latch-backed configuration, per the FABulous custom cells
//! of \[21\]) rather than decomposed into LUTs. This module performs that
//! mapping:
//!
//! * adjacent 2:1 muxes are packed pairwise into 4:1 chain elements
//!   (`Mux4`), halving the element count along select paths,
//! * non-mux "residue" logic (the small LGC glue inside a ROUTE cone) is
//!   reported separately so the caller can LUT-map it,
//! * the result stays a functional [`Netlist`] plus a resource summary the
//!   fabric sizing step consumes.

use crate::error::SynthError;
use crate::opt::clean_netlist;
use shell_netlist::{CellKind, NetId, Netlist};

/// Outcome of MUX-chain mapping.
#[derive(Debug, Clone)]
pub struct MuxChainMapping {
    /// The rewritten netlist (Mux4 chains + remaining Mux2 + residue logic).
    pub netlist: Netlist,
    /// 4:1 chain elements used.
    pub m4_count: usize,
    /// Residual 2:1 elements (odd tree levels that could not pair).
    pub m2_count: usize,
    /// Combinational non-mux cells left for LUT mapping.
    pub residue_cells: usize,
    /// Sequential cells passed through.
    pub dff_count: usize,
    /// Number of distinct chain segments (maximal mux-only paths) detected.
    pub chain_count: usize,
}

/// Maps `netlist` onto MUX chains.
///
/// The transformation packs pairs of cascaded `Mux2` cells that share a
/// tree topology (a mux whose *data* input is another mux with single
/// fanout) into `Mux4` elements. Functionality is preserved exactly.
///
/// # Errors
///
/// [`SynthError::Cyclic`] on combinationally cyclic input.
pub fn mux_chain_map(netlist: &Netlist) -> Result<MuxChainMapping, SynthError> {
    // Reject cycles before the cleanup passes (which assume acyclicity).
    if netlist.topo_order().is_err() {
        return Err(SynthError::cyclic(netlist.name()));
    }
    let cleaned = clean_netlist(netlist);
    let fanout = cleaned.fanout_table();

    // Identify pairable muxes: child Mux2 feeding exactly one parent Mux2
    // data pin (pin 1 or 2), child not a primary output.
    let mut absorbed = vec![false; cleaned.cell_count()];
    let mut pairs: Vec<(usize, usize, usize)> = Vec::new(); // (parent, child, data pin)
    for (cid, c) in cleaned.cells() {
        if c.kind != CellKind::Mux2 || absorbed[cid.index()] {
            continue;
        }
        // Look at data pins 1 and 2 for a single-fanout mux child.
        for pin in [1usize, 2usize] {
            let child_net = c.inputs[pin];
            if cleaned.is_primary_output(child_net) {
                continue;
            }
            let Some(drv) = cleaned.net(child_net).driver else {
                continue;
            };
            let dc = cleaned.cell(drv);
            if dc.kind != CellKind::Mux2 || absorbed[drv.index()] || drv == cid {
                continue;
            }
            if fanout[child_net.index()].len() != 1 {
                continue;
            }
            absorbed[drv.index()] = true;
            absorbed[cid.index()] = true;
            pairs.push((cid.index(), drv.index(), pin));
            break;
        }
    }
    let pair_of_parent: std::collections::HashMap<usize, (usize, usize)> =
        pairs.iter().map(|&(p, ch, pin)| (p, (ch, pin))).collect();
    let absorbed_children: std::collections::HashSet<usize> =
        pairs.iter().map(|&(_, ch, _)| ch).collect();

    // Rebuild with Mux4 packing.
    let mut out = Netlist::new(cleaned.name());
    let mut map: Vec<Option<NetId>> = vec![None; cleaned.net_count()];
    for &n in cleaned.inputs() {
        map[n.index()] = Some(out.add_input(cleaned.net(n).name.clone()));
    }
    for &n in cleaned.key_inputs() {
        map[n.index()] = Some(out.add_key_input(cleaned.net(n).name.clone()));
    }
    for (_, c) in cleaned.cells() {
        if c.kind.is_sequential() {
            map[c.output.index()] = Some(out.add_net(cleaned.net(c.output).name.clone()));
        }
    }
    let order = cleaned
        .topo_order()
        .map_err(|_| SynthError::cyclic(cleaned.name()))?;
    let mut m4_count = 0usize;
    let mut m2_count = 0usize;
    let mut residue_cells = 0usize;
    for cid in &order {
        let c = cleaned.cell(*cid);
        if c.kind.is_sequential() || absorbed_children.contains(&cid.index()) {
            continue;
        }
        let resolve = |map: &Vec<Option<NetId>>, n: NetId| -> NetId {
            map[n.index()].expect("input realized before use")
        };
        if let Some(&(child_idx, pin)) = pair_of_parent.get(&cid.index()) {
            // parent = mux2(sp, a, b) where input `pin` is child mux2(sc, x, y).
            let child = cleaned.cell(shell_netlist::CellId(child_idx as u32));
            let sp = resolve(&map, c.inputs[0]);
            let sc = resolve(&map, child.inputs[0]);
            let x = resolve(&map, child.inputs[1]);
            let y = resolve(&map, child.inputs[2]);
            // out = sp ? in2 : in1. The child sits on `pin`.
            // Mux4 semantics: [s1, s0, d0, d1, d2, d3] selects d_{s1s0}.
            let new_net = if pin == 1 {
                // out = sp ? b : child = sp ? b : (sc ? y : x)
                // s1 = sp, s0 = sc → d00=x, d01=y, d10=b, d11=b.
                let b_net = resolve(&map, c.inputs[2]);
                out.add_cell(
                    format!("m4_{}", c.name),
                    CellKind::Mux4,
                    vec![sp, sc, x, y, b_net, b_net],
                )
            } else {
                // out = sp ? child : a = sp ? (sc ? y : x) : a
                let a_net = resolve(&map, c.inputs[1]);
                out.add_cell(
                    format!("m4_{}", c.name),
                    CellKind::Mux4,
                    vec![sp, sc, a_net, a_net, x, y],
                )
            };
            m4_count += 1;
            map[c.output.index()] = Some(new_net);
            // The child's output net aliases nothing externally (single
            // fanout into the parent), but map it for completeness.
            map[child.output.index()] = Some(new_net);
            continue;
        }
        // Unpaired cell: copy through.
        let ins: Vec<NetId> = c.inputs.iter().map(|&n| resolve(&map, n)).collect();
        let new_net = out.add_cell(c.name.clone(), c.kind, ins);
        map[c.output.index()] = Some(new_net);
        match c.kind {
            CellKind::Mux2 => m2_count += 1,
            CellKind::Mux4 => m4_count += 1,
            CellKind::Const(_) => {}
            _ => residue_cells += 1,
        }
    }
    for cid in cleaned.sequential_cells() {
        let c = cleaned.cell(cid);
        let ins: Vec<NetId> = c
            .inputs
            .iter()
            .map(|n| map[n.index()].expect("register input realized"))
            .collect();
        let pre = map[c.output.index()].expect("pre-created");
        out.add_cell_driving(c.name.clone(), c.kind, ins, pre)
            .expect("muxchain sequential");
    }
    for (name, n) in cleaned.outputs() {
        let m = map[n.index()].expect("output realized");
        out.add_output(name.clone(), m);
    }

    let chain_count = count_chains(&out);
    let dff_count = out.sequential_cells().len();
    Ok(MuxChainMapping {
        netlist: out,
        m4_count,
        m2_count,
        residue_cells,
        dff_count,
        chain_count,
    })
}

/// Counts maximal mux-only chain segments: connected runs of Mux2/Mux4 cells
/// linked through data pins.
fn count_chains(netlist: &Netlist) -> usize {
    let mut chain_heads = 0usize;
    for (_, c) in netlist.cells() {
        if !c.kind.is_mux() {
            continue;
        }
        // A chain head is a mux none of whose data inputs comes from a mux.
        let data_pins: &[usize] = match c.kind {
            CellKind::Mux2 => &[1, 2],
            CellKind::Mux4 => &[2, 3, 4, 5],
            _ => unreachable!(),
        };
        let fed_by_mux = data_pins.iter().any(|&p| {
            netlist
                .net(c.inputs[p])
                .driver
                .is_some_and(|d| netlist.cell(d).kind.is_mux())
        });
        if !fed_by_mux {
            chain_heads += 1;
        }
    }
    chain_heads
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_netlist::equiv::{equiv_exhaustive, equiv_random, EquivResult};
    use shell_netlist::NetlistBuilder;

    fn assert_equiv(a: &Netlist, b: &Netlist) {
        match equiv_exhaustive(a, b, &[], &[]) {
            EquivResult::Equivalent => {}
            other => panic!("not equivalent: {other:?}"),
        }
    }

    fn mux_tree_circuit(n_words: usize, width: usize) -> Netlist {
        let mut b = NetlistBuilder::new("xbar");
        let sel_bits = (usize::BITS - (n_words - 1).leading_zeros()) as usize;
        let sel = b.input_bus("sel", sel_bits);
        let words: Vec<Vec<NetId>> = (0..n_words)
            .map(|i| b.input_bus(&format!("w{i}"), width))
            .collect();
        let o = b.mux_tree(&sel, &words);
        b.output_bus("o", &o);
        b.finish()
    }

    #[test]
    fn pack_pairs_into_mux4() {
        let n = mux_tree_circuit(4, 1);
        let m = mux_chain_map(&n).unwrap();
        assert_equiv(&n, &m.netlist);
        // A 4:1 tree of three mux2 packs into one M4 + one M2, or better.
        assert!(m.m4_count >= 1, "expected at least one Mux4");
        assert!(
            m.m4_count + m.m2_count < 3,
            "packing must reduce element count: m4={} m2={}",
            m.m4_count,
            m.m2_count
        );
    }

    #[test]
    fn functional_on_wide_xbar() {
        let n = mux_tree_circuit(8, 4);
        let m = mux_chain_map(&n).unwrap();
        assert!(equiv_random(&n, &m.netlist, &[], &[], 300, 13).is_equivalent());
        assert!(m.m4_count > 0);
        assert_eq!(m.residue_cells, 0, "pure mux circuit leaves no residue");
    }

    #[test]
    fn element_savings_on_pure_tree() {
        // 8:1 tree = 7 mux2 per bit. Pairing should reach ~3-4 elements/bit.
        let n = mux_tree_circuit(8, 2);
        let m = mux_chain_map(&n).unwrap();
        let total = m.m4_count + m.m2_count;
        assert!(
            total <= 10,
            "8:1 x2 tree should need ≤10 elements, got {total}"
        );
    }

    #[test]
    fn residue_logic_counted() {
        let mut b = NetlistBuilder::new("mix");
        let s = b.input("s");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.and2(a, c); // residue
        let m = b.mux2(s, a, g);
        b.output("f", m);
        let n = b.finish();
        let r = mux_chain_map(&n).unwrap();
        assert_equiv(&n, &r.netlist);
        assert_eq!(r.residue_cells, 1);
        assert_eq!(r.m2_count + r.m4_count, 1);
    }

    #[test]
    fn shared_fanout_not_absorbed() {
        // Child mux feeds two parents: must not be absorbed into either.
        let mut b = NetlistBuilder::new("sh");
        let s = b.input("s");
        let t = b.input("t");
        let u = b.input("u");
        let a = b.input("a");
        let c = b.input("c");
        let child = b.mux2(s, a, c);
        let p1 = b.mux2(t, child, a);
        let p2 = b.mux2(u, child, c);
        b.output("p1", p1);
        b.output("p2", p2);
        let n = b.finish();
        let r = mux_chain_map(&n).unwrap();
        assert_equiv(&n, &r.netlist);
        // All three survive as elements (no illegal duplication semantics).
        assert_eq!(r.m2_count + 2 * r.m4_count, 3);
    }

    #[test]
    fn chains_detected() {
        let n = mux_tree_circuit(8, 1);
        let r = mux_chain_map(&n).unwrap();
        assert!(r.chain_count >= 1);
    }

    #[test]
    fn sequential_passthrough() {
        let mut b = NetlistBuilder::new("seq");
        let s = b.input("s");
        let a = b.input("a");
        let c = b.input("c");
        let m = b.mux2(s, a, c);
        let q = b.dff(m);
        b.output("q", q);
        let n = b.finish();
        let r = mux_chain_map(&n).unwrap();
        assert_eq!(r.dff_count, 1);
        use shell_netlist::equiv::equiv_sequential_random;
        assert!(equiv_sequential_random(&n, &r.netlist, &[], &[], 16, 2).is_equivalent());
    }
}
