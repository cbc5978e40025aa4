//! Cyclic reduction — the attacker preprocessing of \[26\].
//!
//! Raw eFPGA routing meshes contain combinational cycles; since redacted
//! modules are (almost always) acyclic, an attacker cuts cycle-forming
//! edges before encoding the netlist for SAT. The cut is *heuristic*: when
//! it happens to sever an edge the true configuration relies on, the attack
//! proceeds on a wrong function — which is exactly the risk the paper's
//! baselines accept and SheLL's shrinking step removes.

use shell_graph::{strongly_connected_components, DiGraph};
use shell_guard::{Budget, Exhausted};
use shell_netlist::{CellId, CellKind, NetId, Netlist};

/// Outcome of the reduction.
#[derive(Debug, Clone)]
pub struct CyclicReductionReport {
    /// The acyclic netlist.
    pub netlist: Netlist,
    /// Number of cell input edges rewired to constant 0.
    pub edges_cut: usize,
    /// Number of cyclic components found before cutting.
    pub cycles_found: usize,
}

/// Cuts combinational cycles in `locked` by rewiring one in-cycle input of a
/// deterministic victim cell per cycle to constant 0, repeating until the
/// netlist is acyclic.
///
/// The victim choice prefers mux *data* pins (cutting a select would corrupt
/// far more configurations than cutting one data path).
pub fn cyclic_reduction(locked: &Netlist) -> CyclicReductionReport {
    cyclic_reduction_budgeted(locked, &Budget::unlimited())
        .expect("an unlimited budget cannot exhaust")
}

/// [`cyclic_reduction`] under a [`Budget`]: one quota step is spent per cut
/// edge, and the deadline/cancellation flag is polled once per SCC round
/// (each round recomputes the strongly connected components — the expensive
/// part of the loop).
///
/// # Errors
///
/// Returns the [`Exhausted`] reason when the budget runs out before the
/// netlist is acyclic.
pub fn cyclic_reduction_budgeted(
    locked: &Netlist,
    budget: &Budget,
) -> Result<CyclicReductionReport, Exhausted> {
    let _span = shell_trace::span!("attack.cyclic");
    let mut netlist = locked.clone();
    let mut edges_cut = 0usize;
    let mut cycles_found = 0usize;
    let mut zero: Option<NetId> = None;
    // Bounded: every iteration cuts at least one edge.
    for _round in 0..netlist.cell_count().max(1) {
        budget.checkpoint()?;
        let sccs = cyclic_components(&netlist);
        if sccs.is_empty() {
            break;
        }
        if cycles_found == 0 {
            cycles_found = sccs.len();
        }
        for comp in sccs {
            let in_comp: std::collections::HashSet<CellId> = comp.iter().copied().collect();
            // Victim: the highest-id mux with an in-component data pin, else
            // the highest-id cell with any in-component input.
            let mut victim: Option<(CellId, usize)> = None;
            for &cid in &comp {
                let c = netlist.cell(cid);
                let data_pins: Vec<usize> = match c.kind {
                    CellKind::Mux2 => vec![1, 2],
                    CellKind::Mux4 => vec![2, 3, 4, 5],
                    _ => (0..c.inputs.len()).collect(),
                };
                for pin in data_pins {
                    let src = netlist.net(c.inputs[pin]).driver;
                    if let Some(drv) = src {
                        if in_comp.contains(&drv) {
                            let better = match victim {
                                None => true,
                                Some((v, _)) => {
                                    let vc = netlist.cell(v);
                                    // Prefer muxes; break ties by id.
                                    (c.kind.is_mux() && !vc.kind.is_mux())
                                        || (c.kind.is_mux() == vc.kind.is_mux() && cid > v)
                                }
                            };
                            if better {
                                victim = Some((cid, pin));
                            }
                        }
                    }
                }
            }
            if let Some((cid, pin)) = victim {
                budget.spend(1)?;
                let z = *zero.get_or_insert_with(|| {
                    netlist.add_cell("cyc_tie0", CellKind::Const(false), vec![])
                });
                netlist.rewire_input(cid, pin, z);
                edges_cut += 1;
            }
        }
    }
    Ok(CyclicReductionReport {
        netlist,
        edges_cut,
        cycles_found,
    })
}

/// Cyclic SCCs (size > 1 or self-loop) of the combinational cell graph.
fn cyclic_components(netlist: &Netlist) -> Vec<Vec<CellId>> {
    let mut g: DiGraph<CellId> = DiGraph::with_capacity(netlist.cell_count());
    let nodes: Vec<_> = netlist.cells().map(|(id, _)| g.add_node(id)).collect();
    for (id, c) in netlist.cells() {
        if c.kind.is_sequential() {
            continue;
        }
        for &inp in &c.inputs {
            if let Some(drv) = netlist.net(inp).driver {
                if !netlist.cell(drv).kind.is_sequential() {
                    g.add_edge(nodes[drv.index()], nodes[id.index()]);
                }
            }
        }
    }
    strongly_connected_components(&g)
        .into_iter()
        .filter(|comp| comp.len() > 1 || g.successors(comp[0]).contains(&comp[0]))
        .map(|comp| comp.into_iter().map(|n| *g.payload(n)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_netlist_untouched() {
        let mut n = Netlist::new("a");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let f = n.add_cell("f", CellKind::And, vec![a, b]);
        n.add_output("f", f);
        let r = cyclic_reduction(&n);
        assert_eq!(r.edges_cut, 0);
        assert_eq!(r.cycles_found, 0);
        assert_eq!(r.netlist.cell_count(), 1);
    }

    #[test]
    fn mux_ring_cut() {
        // Two muxes in a combinational ring through their data pins.
        let mut n = Netlist::new("ring");
        let a = n.add_input("a");
        let k0 = n.add_key_input("k0");
        let k1 = n.add_key_input("k1");
        let t0 = n.add_net("t0");
        let t1 = n.add_net("t1");
        n.add_cell_driving("m0", CellKind::Mux2, vec![k0, a, t1], t0)
            .unwrap();
        n.add_cell_driving("m1", CellKind::Mux2, vec![k1, a, t0], t1)
            .unwrap();
        n.add_output("f", t1);
        assert!(n.topo_order().is_err());
        let r = cyclic_reduction(&n);
        assert!(r.netlist.topo_order().is_ok(), "reduced netlist acyclic");
        assert!(r.edges_cut >= 1);
        assert_eq!(r.cycles_found, 1);
        // Keys selecting the acyclic paths still behave as before:
        // k0 = 0, k1 = 0 → f = a.
        assert_eq!(
            r.netlist.eval_comb_with_key(&[true], &[false, false]),
            vec![true]
        );
    }

    #[test]
    fn reduction_preserves_acyclic_behavior() {
        // A cycle exists structurally but the keyed function for the
        // "correct" key never uses it; reduction must keep that function
        // intact when it cuts inside the ring.
        let mut n = Netlist::new("r");
        let a = n.add_input("a");
        let k = n.add_key_input("k");
        let loopback = n.add_net("loop");
        let m = n.add_cell("m", CellKind::Mux2, vec![k, a, loopback]);
        n.add_cell_driving("inv", CellKind::Not, vec![m], loopback)
            .unwrap();
        n.add_output("f", m);
        let r = cyclic_reduction(&n);
        assert!(r.netlist.topo_order().is_ok());
        // Correct key k=0 (uses `a`): unchanged.
        for v in [false, true] {
            assert_eq!(r.netlist.eval_comb_with_key(&[v], &[false]), vec![v]);
        }
    }

    #[test]
    fn multiple_rings_all_cut() {
        let mut n = Netlist::new("many");
        let a = n.add_input("a");
        for i in 0..3 {
            let k = n.add_key_input(format!("k{i}"));
            let t0 = n.add_net(format!("t0_{i}"));
            let t1 = n.add_net(format!("t1_{i}"));
            n.add_cell_driving(format!("m0_{i}"), CellKind::Mux2, vec![k, a, t1], t0)
                .unwrap();
            n.add_cell_driving(format!("m1_{i}"), CellKind::Mux2, vec![k, a, t0], t1)
                .unwrap();
            n.add_output(format!("f{i}"), t1);
        }
        let r = cyclic_reduction(&n);
        assert!(r.netlist.topo_order().is_ok());
        assert_eq!(r.cycles_found, 3);
        assert!(r.edges_cut >= 3);
    }

    #[test]
    fn budgeted_reduction_exhausts_with_typed_error() {
        use shell_guard::{Budget, Exhausted};
        let mut n = Netlist::new("many");
        let a = n.add_input("a");
        for i in 0..3 {
            let k = n.add_key_input(format!("k{i}"));
            let t0 = n.add_net(format!("t0_{i}"));
            let t1 = n.add_net(format!("t1_{i}"));
            n.add_cell_driving(format!("m0_{i}"), CellKind::Mux2, vec![k, a, t1], t0)
                .unwrap();
            n.add_cell_driving(format!("m1_{i}"), CellKind::Mux2, vec![k, a, t0], t1)
                .unwrap();
            n.add_output(format!("f{i}"), t1);
        }
        let r = cyclic_reduction_budgeted(&n, &Budget::unlimited().with_quota(1));
        assert_eq!(r.err(), Some(Exhausted::Quota));
        let ok = cyclic_reduction_budgeted(&n, &Budget::unlimited().with_quota(16)).unwrap();
        assert!(ok.netlist.topo_order().is_ok());
    }

    #[test]
    fn self_loop_cut() {
        let mut n = Netlist::new("s");
        let a = n.add_input("a");
        let q = n.add_net("q");
        n.add_cell_driving("g", CellKind::Or, vec![a, q], q)
            .unwrap();
        n.add_output("f", q);
        let r = cyclic_reduction(&n);
        assert!(r.netlist.topo_order().is_ok());
        assert_eq!(r.edges_cut, 1);
        // With the loop edge tied to 0, f = a.
        assert_eq!(r.netlist.eval_comb(&[true]), vec![true]);
        assert_eq!(r.netlist.eval_comb(&[false]), vec![false]);
    }
}
