//! A hierarchical SoC platform (Fig. 3a): multiple IP cores behind an
//! AXI-style crossbar, expressed as a [`shell_netlist::Design`] with real
//! module instances — the input shape of SheLL's SoC-level flow, whose
//! step 1 flattens and uniquifies before the connectivity analysis.

use crate::common::select_bits;
use shell_netlist::{CellKind, Design, Instance, ModuleDef, NetId, Netlist, PortBinding};

/// Builds a small IP core module: `width`-bit in/out, a per-core constant
/// mixed into an XOR/AND pipeline with one register stage.
fn ip_core(name: &str, width: usize, flavor: u64) -> Netlist {
    let mut m = Netlist::new(name);
    let din: Vec<NetId> = (0..width)
        .map(|i| m.add_input(format!("din[{i}]")))
        .collect();
    let mut stage = Vec::with_capacity(width);
    for (i, &d) in din.iter().enumerate() {
        let bit = (flavor >> (i % 8)) & 1 == 1;
        let c = m.add_cell(format!("coef{i}"), CellKind::Const(bit), vec![]);
        let x = m.add_cell(format!("mix{i}"), CellKind::Xor, vec![d, c]);
        let neighbor = din[(i + 1) % width];
        let a = m.add_cell(format!("and{i}"), CellKind::And, vec![x, neighbor]);
        let q = m.add_cell(format!("reg{i}"), CellKind::Dff, vec![a]);
        stage.push(q);
    }
    for (i, &q) in stage.iter().enumerate() {
        m.add_output(format!("dout[{i}]"), q);
    }
    m
}

/// Builds the hierarchical SoC: `cores` IP instances whose outputs feed a
/// one-hot crossbar column selected by `addr`, producing `out`.
///
/// The returned design's top has one instance per core plus explicit
/// crossbar logic (the ROUTE SheLL targets at SoC level). Flatten it with
/// [`Design::flatten`] to obtain the netlist the redaction flow consumes.
///
/// # Panics
///
/// Panics when `cores < 2` or `width == 0`.
pub fn soc_platform(cores: usize, width: usize) -> Design {
    assert!(cores >= 2, "a platform needs at least two cores");
    assert!(width > 0);
    let mut design = Design::new("soc");
    for c in 0..cores {
        design.add_leaf_module(ip_core(&format!("core{c}"), width, 0xA5 + c as u64 * 37));
    }
    let top: &mut ModuleDef = design.top_mut();
    let din: Vec<NetId> = (0..width)
        .map(|i| top.netlist.add_input(format!("din[{i}]")))
        .collect();
    let addr: Vec<NetId> = (0..select_bits(cores).max(1))
        .map(|i| top.netlist.add_input(format!("addr[{i}]")))
        .collect();
    // Instantiate every core on the shared input bus.
    let mut core_outs: Vec<Vec<NetId>> = Vec::with_capacity(cores);
    for c in 0..cores {
        let mut bindings = Vec::new();
        for (i, &d) in din.iter().enumerate() {
            bindings.push(PortBinding {
                port: format!("din[{i}]"),
                net: d,
            });
        }
        let outs: Vec<NetId> = (0..width)
            .map(|i| {
                let net = top.netlist.add_net(format!("c{c}_out{i}"));
                bindings.push(PortBinding {
                    port: format!("dout[{i}]"),
                    net,
                });
                net
            })
            .collect();
        core_outs.push(outs);
        top.instances.push(Instance {
            name: format!("u_core{c}"),
            module: format!("core{c}"),
            bindings,
        });
    }
    // The Xbar: memory-addressed one-hot arbitration (the ROUTE of Fig. 3c).
    let hot = crate::common::one_hot_decode(&mut top.netlist, "xbar_arb", &addr, cores);
    let out = crate::common::one_hot_route(&mut top.netlist, "xbar", &hot[1..], &core_outs);
    for (i, &o) in out.iter().enumerate() {
        top.netlist.add_output(format!("out[{i}]"), o);
    }
    design
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_netlist::builder::{from_bits, to_bits};
    use shell_netlist::Simulator;

    #[test]
    fn platform_flattens_and_validates() {
        let design = soc_platform(4, 4);
        assert_eq!(design.module_count(), 5); // top + 4 cores
        let flat = design.flatten().expect("flattens");
        flat.validate().expect("valid");
        assert!(flat.cell_count() > 60);
        assert!(!flat.is_combinational(), "cores have registers");
        // Uniquified hierarchical names present.
        assert!(flat.find_cell("u_core0.reg0").is_some());
        assert!(flat.find_cell("u_core3.mix1").is_some());
        // The Xbar block is addressable by prefix.
        assert!(!crate::common::cells_of_block(&flat, "xbar").is_empty());
    }

    #[test]
    fn xbar_selects_core_outputs() {
        let design = soc_platform(4, 4);
        let flat = design.flatten().unwrap();
        let mut sim = Simulator::new(&flat);
        // Two cycles so core registers fill, then read each address.
        let w = 4;
        let addr_bits = 2;
        let din = 0b1011u64;
        for addr in 0..4u64 {
            sim.reset();
            let mut inp = to_bits(din, w);
            inp.extend(to_bits(addr, addr_bits));
            sim.step(&inp, &[]);
            let out = sim.step(&inp, &[]);
            // The selected core's registered function of din: nonzero for
            // at least one address and address-dependent overall.
            let _ = from_bits(&out);
        }
        // Different addresses yield different outputs (cores differ).
        let outputs: Vec<Vec<bool>> = (0..4u64)
            .map(|addr| {
                sim.reset();
                let mut inp = to_bits(din, w);
                inp.extend(to_bits(addr, addr_bits));
                sim.step(&inp, &[]);
                sim.step(&inp, &[])
            })
            .collect();
        assert!(
            outputs
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 1,
            "core selection must matter"
        );
    }

    #[test]
    fn deterministic() {
        let a = soc_platform(3, 3).flatten().unwrap();
        let b = soc_platform(3, 3).flatten().unwrap();
        use shell_netlist::equiv::equiv_sequential_random;
        assert!(equiv_sequential_random(&a, &b, &[], &[], 16, 4).is_equivalent());
    }

    #[test]
    #[should_panic(expected = "two cores")]
    fn needs_two_cores() {
        soc_platform(1, 4);
    }
}
