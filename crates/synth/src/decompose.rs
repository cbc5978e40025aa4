//! Reduction of a netlist to a two-input gate network.
//!
//! The cut-based LUT mapper assumes bounded fanin per node; this pass turns
//! variadic AND/OR/XOR gates into balanced trees of 2-input gates, expands
//! NAND/NOR/XNOR into the positive gate plus an inverter, converts MUX4 into
//! three MUX2s, and leaves NOT/BUF/MUX2/LUT/DFF/LATCH/CONST untouched.

use crate::error::SynthError;
use shell_netlist::{CellKind, NetId, Netlist};

/// Converts `netlist` into an equivalent network where every combinational
/// cell is one of NOT, BUF, CONST, MUX2, 2-input AND/OR/XOR, or a LUT.
///
/// # Errors
///
/// [`SynthError::Cyclic`] if the netlist has a combinational cycle.
pub fn decompose_to_two_input(netlist: &Netlist) -> Result<Netlist, SynthError> {
    decompose_impl(netlist, false)
}

/// Like [`decompose_to_two_input`] but leaves `Mux4` cells intact — used by
/// the hybrid mapping that routes mux cascades to fabric chain blocks.
///
/// # Errors
///
/// [`SynthError::Cyclic`] if the netlist has a combinational cycle.
pub fn decompose_keeping_mux4(netlist: &Netlist) -> Result<Netlist, SynthError> {
    decompose_impl(netlist, true)
}

fn decompose_impl(netlist: &Netlist, keep_mux4: bool) -> Result<Netlist, SynthError> {
    let mut out = Netlist::new(netlist.name());
    let mut map: Vec<Option<NetId>> = vec![None; netlist.net_count()];
    for &n in netlist.inputs() {
        map[n.index()] = Some(out.add_input(netlist.net(n).name.clone()));
    }
    for &n in netlist.key_inputs() {
        map[n.index()] = Some(out.add_key_input(netlist.net(n).name.clone()));
    }
    for (_, c) in netlist.cells() {
        if c.kind.is_sequential() {
            map[c.output.index()] = Some(out.add_net(netlist.net(c.output).name.clone()));
        }
    }
    let order = netlist
        .topo_order()
        .map_err(|_| SynthError::cyclic(netlist.name()))?;
    let resolve = |out: &mut Netlist, map: &mut Vec<Option<NetId>>, n: NetId| -> NetId {
        if let Some(m) = map[n.index()] {
            m
        } else {
            let m = out.add_net("floating");
            map[n.index()] = Some(m);
            m
        }
    };
    for cid in order {
        let c = netlist.cell(cid);
        if c.kind.is_sequential() {
            continue;
        }
        let ins: Vec<NetId> = c
            .inputs
            .iter()
            .map(|&n| resolve(&mut out, &mut map, n))
            .collect();
        let result = match c.kind {
            CellKind::And | CellKind::Or | CellKind::Xor => tree(&mut out, &c.name, c.kind, &ins),
            CellKind::Nand => {
                let t = tree(&mut out, &c.name, CellKind::And, &ins);
                out.add_cell(format!("{}_inv", c.name), CellKind::Not, vec![t])
            }
            CellKind::Nor => {
                let t = tree(&mut out, &c.name, CellKind::Or, &ins);
                out.add_cell(format!("{}_inv", c.name), CellKind::Not, vec![t])
            }
            CellKind::Xnor => {
                let t = tree(&mut out, &c.name, CellKind::Xor, &ins);
                out.add_cell(format!("{}_inv", c.name), CellKind::Not, vec![t])
            }
            CellKind::Mux4 if keep_mux4 => out.add_cell(c.name.clone(), CellKind::Mux4, ins),
            CellKind::Mux4 => {
                let lo = out.add_cell(
                    format!("{}_lo", c.name),
                    CellKind::Mux2,
                    vec![ins[1], ins[2], ins[3]],
                );
                let hi = out.add_cell(
                    format!("{}_hi", c.name),
                    CellKind::Mux2,
                    vec![ins[1], ins[4], ins[5]],
                );
                out.add_cell(c.name.clone(), CellKind::Mux2, vec![ins[0], lo, hi])
            }
            other => out.add_cell(c.name.clone(), other, ins),
        };
        map[c.output.index()] = Some(result);
    }
    for (_, c) in netlist.cells() {
        if !c.kind.is_sequential() {
            continue;
        }
        let ins: Vec<NetId> = c
            .inputs
            .iter()
            .map(|&n| map[n.index()].expect("mapped"))
            .collect();
        let pre = map[c.output.index()].expect("pre-created");
        out.add_cell_driving(c.name.clone(), c.kind, ins, pre)
            .expect("decompose sequential");
    }
    for (name, n) in netlist.outputs() {
        let m = map[n.index()].expect("output net mapped");
        out.add_output(name.clone(), m);
    }
    Ok(out)
}

/// Balanced binary tree of 2-input `kind` gates. A single input passes
/// through unchanged.
fn tree(out: &mut Netlist, base: &str, kind: CellKind, ins: &[NetId]) -> NetId {
    let mut layer: Vec<NetId> = ins.to_vec();
    let mut counter = 0usize;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            if pair.len() == 2 {
                counter += 1;
                next.push(out.add_cell(format!("{base}_t{counter}"), kind, vec![pair[0], pair[1]]));
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
    }
    layer[0]
}

/// `true` when every combinational cell has at most two data inputs
/// (MUX2's select counts as its own input; LUTs are exempt — the mapper
/// consumes them natively).
pub fn is_two_input(netlist: &Netlist) -> bool {
    netlist.cells().all(|(_, c)| match c.kind {
        CellKind::And | CellKind::Or | CellKind::Xor => c.inputs.len() <= 2,
        CellKind::Nand | CellKind::Nor | CellKind::Xnor | CellKind::Mux4 => false,
        _ => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_netlist::equiv::{equiv_exhaustive, EquivResult};

    fn assert_equiv(a: &Netlist, b: &Netlist) {
        match equiv_exhaustive(a, b, &[], &[]) {
            EquivResult::Equivalent => {}
            other => panic!("not equivalent: {other:?}"),
        }
    }

    #[test]
    fn wide_gates_become_trees() {
        let mut n = Netlist::new("w");
        let ins: Vec<NetId> = (0..7).map(|i| n.add_input(format!("i{i}"))).collect();
        let f = n.add_cell("f", CellKind::And, ins.clone());
        let g = n.add_cell("g", CellKind::Xor, ins.clone());
        let h = n.add_cell("h", CellKind::Or, vec![f, g]);
        n.add_output("h", h);
        let d = decompose_to_two_input(&n).unwrap();
        assert!(is_two_input(&d));
        assert_equiv(&n, &d);
    }

    #[test]
    fn inverted_gates_split() {
        let mut n = Netlist::new("inv");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let x = n.add_cell("x", CellKind::Nand, vec![a, b, c]);
        let y = n.add_cell("y", CellKind::Nor, vec![x, a]);
        let z = n.add_cell("z", CellKind::Xnor, vec![y, b, c]);
        n.add_output("z", z);
        let d = decompose_to_two_input(&n).unwrap();
        assert!(is_two_input(&d));
        assert_equiv(&n, &d);
    }

    #[test]
    fn mux4_becomes_mux2s() {
        let mut n = Netlist::new("m");
        let s1 = n.add_input("s1");
        let s0 = n.add_input("s0");
        let data: Vec<NetId> = (0..4).map(|i| n.add_input(format!("d{i}"))).collect();
        let f = n.add_cell(
            "f",
            CellKind::Mux4,
            vec![s1, s0, data[0], data[1], data[2], data[3]],
        );
        n.add_output("f", f);
        let d = decompose_to_two_input(&n).unwrap();
        assert!(is_two_input(&d));
        assert_equiv(&n, &d);
        assert_eq!(d.cell_count(), 3);
    }

    #[test]
    fn sequential_kept() {
        let mut n = Netlist::new("s");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let w = n.add_cell("w", CellKind::And, vec![a, b, c]);
        let q = n.add_cell("q", CellKind::Dff, vec![w]);
        n.add_output("q", q);
        let d = decompose_to_two_input(&n).unwrap();
        assert!(is_two_input(&d));
        assert_eq!(d.sequential_cells().len(), 1);
        use shell_netlist::equiv::equiv_sequential_random;
        assert!(equiv_sequential_random(&n, &d, &[], &[], 16, 3).is_equivalent());
    }

    #[test]
    fn already_two_input_unchanged_count() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let f = n.add_cell("f", CellKind::And, vec![a, b]);
        n.add_output("f", f);
        let d = decompose_to_two_input(&n).unwrap();
        assert_eq!(d.cell_count(), 1);
        assert_equiv(&n, &d);
    }
}
