//! Step 4 — decoupling the selected sub-circuit from the host design.
//!
//! Given the selected cell set, the design splits into
//!
//! * the **sub-circuit netlist** (the part to be redacted): its primary
//!   inputs are the boundary nets feeding the selection from outside, its
//!   outputs the selection-driven nets the rest of the design (or a primary
//!   output) reads;
//! * the **host**: the original design with the selection removed, exposed
//!   as a [`shell_netlist::Design`] whose top instantiates a placeholder
//!   `redacted` module — after PnR the placeholder is replaced by the
//!   (locked or configured) fabric netlist and flattened back into one
//!   netlist.

use shell_netlist::{CellId, Design, Instance, ModuleDef, NetId, Netlist, PortBinding};
use std::collections::HashSet;

/// The two halves of a redaction.
#[derive(Debug, Clone)]
pub struct RedactionPartition {
    /// The sub-circuit to map onto the fabric.
    pub sub: Netlist,
    /// Host module with an instance hole named `redacted`.
    pub host: ModuleDef,
    /// Number of boundary input bits of the hole.
    pub boundary_inputs: usize,
    /// Number of boundary output bits.
    pub boundary_outputs: usize,
    /// Cells moved into the sub-circuit.
    pub cells_moved: usize,
    /// How many of the moved cells are muxes (the ROUTE share).
    pub route_cells: usize,
}

impl RedactionPartition {
    /// Reassembles a complete flat netlist by instantiating `replacement`
    /// (any netlist port-compatible with the sub-circuit — the locked
    /// fabric, the configured fabric, or the sub itself) into the host hole.
    ///
    /// # Errors
    ///
    /// Returns a [`shell_netlist::NetlistError`] when the replacement's
    /// ports do not match the hole.
    pub fn reassemble(&self, replacement: Netlist) -> Result<Netlist, shell_netlist::NetlistError> {
        // Check the replacement covers every bound port before flattening
        // (flatten tolerates extra unbound *outputs*, so a port-less
        // replacement would silently leave the hole floating).
        for binding in &self.host.instances[0].bindings {
            let has_input = replacement
                .inputs()
                .iter()
                .any(|&n| replacement.net(n).name == binding.port);
            let has_output = replacement
                .outputs()
                .iter()
                .any(|(name, _)| name == &binding.port);
            if !has_input && !has_output {
                return Err(shell_netlist::NetlistError::InvalidId(format!(
                    "replacement lacks port `{}`",
                    binding.port
                )));
            }
        }
        let mut design = Design::new(self.host.netlist.name().to_string());
        *design.top_mut() = self.host.clone();
        let mut replacement = replacement;
        replacement.set_name("redacted");
        design.add_leaf_module(replacement);
        design.flatten()
    }
}

/// Partitions `netlist` into the sub-circuit spanned by `selected` and the
/// surrounding host.
///
/// Boundary naming: the sub's inputs are called `hin<i>`, its outputs
/// `hout<i>`, in deterministic net order; the host's `redacted` instance
/// binds the same names. Sequential cells inside the selection move with it
/// (they become fabric CLB registers).
///
/// # Panics
///
/// Panics when `selected` is empty or references out-of-range cells.
pub fn partition_by_cells(netlist: &Netlist, selected: &[CellId]) -> RedactionPartition {
    assert!(!selected.is_empty(), "cannot redact an empty selection");
    let sel: HashSet<CellId> = selected.iter().copied().collect();
    for &c in selected {
        assert!(c.index() < netlist.cell_count(), "invalid cell id {c}");
    }
    let fanout = netlist.fanout_table();

    // Boundary nets.
    let mut boundary_in: Vec<NetId> = Vec::new(); // read by sel, driven outside
    let mut boundary_out: Vec<NetId> = Vec::new(); // driven by sel, read outside/PO
    let mut seen_in: HashSet<NetId> = HashSet::new();
    let mut seen_out: HashSet<NetId> = HashSet::new();
    for &cid in selected {
        let c = netlist.cell(cid);
        for &inp in &c.inputs {
            let external = match netlist.net(inp).driver {
                Some(drv) => !sel.contains(&drv),
                None => true, // PI/key/floating
            };
            if external && seen_in.insert(inp) {
                boundary_in.push(inp);
            }
        }
        let out = c.output;
        let read_outside = fanout[out.index()]
            .iter()
            .any(|(reader, _)| !sel.contains(reader))
            || netlist.is_primary_output(out);
        if read_outside && seen_out.insert(out) {
            boundary_out.push(out);
        }
    }

    // --- Build the sub-circuit ---------------------------------------
    let mut sub = Netlist::new("redacted");
    let mut sub_map: Vec<Option<NetId>> = vec![None; netlist.net_count()];
    for (i, &n) in boundary_in.iter().enumerate() {
        sub_map[n.index()] = Some(sub.add_input(format!("hin{i}")));
    }
    // Pre-create sequential outputs inside the selection.
    for &cid in selected {
        let c = netlist.cell(cid);
        if c.kind.is_sequential() && sub_map[c.output.index()].is_none() {
            sub_map[c.output.index()] = Some(sub.add_net(netlist.net(c.output).name.clone()));
        }
    }
    let order = netlist.topo_order().expect("cyclic design");
    let mut route_cells = 0usize;
    for cid in &order {
        if !sel.contains(cid) {
            continue;
        }
        let c = netlist.cell(*cid);
        if c.kind.is_mux() {
            route_cells += 1;
        }
        let ins: Vec<NetId> = c
            .inputs
            .iter()
            .map(|&n| sub_map[n.index()].expect("boundary input mapped"))
            .collect();
        if c.kind.is_sequential() {
            let pre = sub_map[c.output.index()].expect("pre-created");
            sub.add_cell_driving(c.name.clone(), c.kind, ins, pre)
                .expect("sub sequential");
        } else {
            let out = sub.add_cell(c.name.clone(), c.kind, ins);
            sub_map[c.output.index()] = Some(out);
        }
    }
    for (i, &n) in boundary_out.iter().enumerate() {
        let m = sub_map[n.index()].expect("selected output realized");
        sub.add_output(format!("hout{i}"), m);
    }

    // --- Build the host ------------------------------------------------
    let mut host = Netlist::new(netlist.name());
    let mut host_map: Vec<Option<NetId>> = vec![None; netlist.net_count()];
    for &n in netlist.inputs() {
        host_map[n.index()] = Some(host.add_input(netlist.net(n).name.clone()));
    }
    for &n in netlist.key_inputs() {
        host_map[n.index()] = Some(host.add_key_input(netlist.net(n).name.clone()));
    }
    // Hole outputs become fresh (instance-driven) host nets.
    for &n in &boundary_out {
        host_map[n.index()] = Some(host.add_net(format!("hole_{}", netlist.net(n).name)));
    }
    // Pre-create host sequential outputs.
    for (cid, c) in netlist.cells() {
        if !sel.contains(&cid) && c.kind.is_sequential() && host_map[c.output.index()].is_none() {
            host_map[c.output.index()] = Some(host.add_net(netlist.net(c.output).name.clone()));
        }
    }
    for cid in &order {
        if sel.contains(cid) {
            continue;
        }
        let c = netlist.cell(*cid);
        let ins: Vec<NetId> = c
            .inputs
            .iter()
            .map(|&n| {
                if let Some(m) = host_map[n.index()] {
                    m
                } else {
                    let m = host.add_net(netlist.net(n).name.clone());
                    host_map[n.index()] = Some(m);
                    m
                }
            })
            .collect();
        if c.kind.is_sequential() {
            let pre = host_map[c.output.index()].expect("pre-created");
            host.add_cell_driving(c.name.clone(), c.kind, ins, pre)
                .expect("host sequential");
        } else {
            let out = host.add_cell(c.name.clone(), c.kind, ins);
            host_map[c.output.index()] = Some(out);
        }
    }
    for (name, n) in netlist.outputs() {
        let m = if let Some(m) = host_map[n.index()] {
            m
        } else {
            let m = host.add_net(netlist.net(*n).name.clone());
            host_map[n.index()] = Some(m);
            m
        };
        host.add_output(name.clone(), m);
    }
    // Instance bindings.
    let mut bindings = Vec::with_capacity(boundary_in.len() + boundary_out.len());
    for (i, &n) in boundary_in.iter().enumerate() {
        let host_net = if let Some(m) = host_map[n.index()] {
            m
        } else {
            let m = host.add_net(netlist.net(n).name.clone());
            host_map[n.index()] = Some(m);
            m
        };
        bindings.push(PortBinding {
            port: format!("hin{i}"),
            net: host_net,
        });
    }
    for (i, &n) in boundary_out.iter().enumerate() {
        bindings.push(PortBinding {
            port: format!("hout{i}"),
            net: host_map[n.index()].expect("hole net created"),
        });
    }
    let host_module = ModuleDef {
        netlist: host,
        instances: vec![Instance {
            name: "u_redacted".into(),
            module: "redacted".into(),
            bindings,
        }],
    };

    RedactionPartition {
        sub,
        host: host_module,
        boundary_inputs: boundary_in.len(),
        boundary_outputs: boundary_out.len(),
        cells_moved: selected.len(),
        route_cells,
    }
}

/// Selection helper shared with `select`: cells within undirected distance
/// `depth` of any cell in `seeds` (depth 0 = the seeds themselves).
pub fn expand_selection(netlist: &Netlist, seeds: &[CellId], depth: usize) -> Vec<CellId> {
    let fanout = netlist.fanout_table();
    let mut frontier: HashSet<CellId> = seeds.iter().copied().collect();
    let mut all = frontier.clone();
    for _ in 0..depth {
        let mut next = HashSet::new();
        for &cid in &frontier {
            let c = netlist.cell(cid);
            for &inp in &c.inputs {
                if let Some(drv) = netlist.net(inp).driver {
                    if all.insert(drv) {
                        next.insert(drv);
                    }
                }
            }
            for &(reader, _) in &fanout[c.output.index()] {
                if all.insert(reader) {
                    next.insert(reader);
                }
            }
        }
        frontier = next;
    }
    let mut out: Vec<CellId> = all.into_iter().collect();
    out.sort_unstable();
    out
}

/// Convenience: `CellKind`-agnostic check that reassembling the partition
/// with its own sub-circuit reproduces the original design (used by tests
/// and the pipeline's sanity pass).
pub fn partition_is_sound(original: &Netlist, partition: &RedactionPartition) -> bool {
    let Ok(rebuilt) = partition.reassemble(partition.sub.clone()) else {
        return false;
    };
    use shell_netlist::equiv::{equiv_random, equiv_sequential_random};
    let outcome = if original.is_combinational() && rebuilt.is_combinational() {
        equiv_random(original, &rebuilt, &[], &[], 256, 0xDECAF)
    } else {
        equiv_sequential_random(original, &rebuilt, &[], &[], 64, 0xDECAF)
    };
    outcome.is_equivalent()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_circuits::common::cells_of_block;
    use shell_circuits::{axi_xbar, generate, Benchmark, Scale};

    #[test]
    fn partition_roundtrip_combinational() {
        let n = axi_xbar(4, 3);
        // Select the crossbar mux block.
        let cells = cells_of_block(&n, "xbar");
        assert!(!cells.is_empty());
        let p = partition_by_cells(&n, &cells);
        assert_eq!(p.cells_moved, cells.len());
        assert!(p.route_cells > 0);
        assert!(p.boundary_inputs > 0 && p.boundary_outputs > 0);
        assert!(partition_is_sound(&n, &p), "reassembly must be exact");
    }

    #[test]
    fn partition_roundtrip_all_benchmarks() {
        for bench in Benchmark::all() {
            let n = generate(bench, Scale::small());
            let t = bench.redaction_targets();
            let mut cells = cells_of_block(&n, t.shell_route);
            cells.extend(cells_of_block(&n, t.shell_lgc));
            cells.sort_unstable();
            cells.dedup();
            let p = partition_by_cells(&n, &cells);
            assert!(
                partition_is_sound(&n, &p),
                "{}: partition broke the function",
                bench.name()
            );
        }
    }

    #[test]
    fn sub_ports_named_consistently() {
        let n = axi_xbar(4, 2);
        let cells = cells_of_block(&n, "xbar");
        let p = partition_by_cells(&n, &cells);
        assert_eq!(p.sub.inputs().len(), p.boundary_inputs);
        assert_eq!(p.sub.outputs().len(), p.boundary_outputs);
        assert_eq!(p.sub.net(p.sub.inputs()[0]).name, "hin0");
        assert_eq!(p.sub.outputs()[0].0, "hout0");
        // The host instance binds exactly the same port names.
        let inst = &p.host.instances[0];
        assert!(inst.bindings.iter().any(|b| b.port == "hin0"));
        assert!(inst.bindings.iter().any(|b| b.port == "hout0"));
    }

    #[test]
    fn sequential_cells_move_with_selection() {
        let n = generate(Benchmark::PicoSoc, Scale::small());
        let cells = cells_of_block(&n, "picorv32.mem_wr"); // register bank
        assert!(!cells.is_empty());
        let p = partition_by_cells(&n, &cells);
        assert!(!p.sub.is_combinational(), "registers must move into sub");
        assert!(partition_is_sound(&n, &p));
    }

    #[test]
    fn expand_selection_grows_monotonically() {
        let n = axi_xbar(4, 2);
        let seeds = cells_of_block(&n, "xbar");
        let d0 = expand_selection(&n, &seeds, 0);
        let d1 = expand_selection(&n, &seeds, 1);
        let d2 = expand_selection(&n, &seeds, 2);
        assert_eq!(d0.len(), seeds.len());
        assert!(d1.len() > d0.len());
        assert!(d2.len() >= d1.len());
        for c in &d0 {
            assert!(d1.contains(c));
        }
    }

    #[test]
    #[should_panic(expected = "empty selection")]
    fn empty_selection_panics() {
        let n = axi_xbar(2, 1);
        partition_by_cells(&n, &[]);
    }

    #[test]
    fn reassemble_with_wrong_shape_errors() {
        let n = axi_xbar(4, 2);
        let cells = cells_of_block(&n, "xbar");
        let p = partition_by_cells(&n, &cells);
        // Replacement with no ports at all.
        let bogus = Netlist::new("bogus");
        assert!(p.reassemble(bogus).is_err());
    }
}
