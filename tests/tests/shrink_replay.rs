//! The shrink step's cycle cut against the loop it replaced.
//!
//! `shell_fabric::shrink::defender_cycle_cut` replays a loop that rebuilt
//! the whole netlist after every cut. That loop is kept here, unchanged
//! except that it also reports its cuts, as the oracle: on every input the
//! replay must make the same cuts, as (cell name, pin) pairs in the same
//! order, and return the same netlist, field for field.

use shell_circuits::{axi_xbar, generate, Benchmark, Scale};
use shell_fabric::shrink::{defender_cycle_cut, tie_off_unused};
use shell_fabric::{to_locked_netlist, Bitstream, Fabric, FabricConfig, IoMap};
use shell_graph::{condensation, DiGraph};
use shell_lock::{partition_by_cells, select_subcircuit, ShellOptions};
use shell_netlist::{CellId, CellKind, NetId, Netlist};
use shell_pnr::place_and_route_with_chains;
use shell_synth::{clean_netlist, propagate_constants_cyclic};
use shell_util::{forall, Rng};
use std::collections::{HashMap, HashSet};

/// The rebuild-per-cut loop: cuts cycle-forming mux alternatives that the
/// true key never selects, rebuilding the netlist after every step.
#[rustfmt::skip]
fn oracle_cycle_cut(mut netlist: Netlist, true_key: &[bool]) -> (Netlist, Vec<(String, usize)>) {
    let mut cuts = Vec::new();
    debug_assert_eq!(true_key.len(), netlist.key_inputs().len());
    for _ in 0..netlist.cell_count().max(1) {
        if netlist.topo_order().is_ok() {
            break;
        }
        // Build the combinational cell graph.
        let mut g: DiGraph<()> = DiGraph::with_capacity(netlist.cell_count());
        let nodes: Vec<_> = netlist.cells().map(|_| g.add_node(())).collect();
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
        let key_value: HashMap<_, bool> = netlist
            .key_inputs()
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, true_key[i]))
            .collect();
        let mut cut_any = false;
        for comp in condensation(&g).cyclic_components {
            let members: HashSet<usize> = comp.iter().map(|n| n.index()).collect();
            // Find a key-selected Mux2 whose UNSELECTED data pin closes the
            // cycle; tying that pin off is invisible under the true key.
            let mut cut: Option<(CellId, usize)> = None;
            'scan: for &node in &comp {
                let cid = CellId(node.index() as u32);
                let c = netlist.cell(cid);
                // Dead data pins under the true key: Mux2 with a keyed
                // select frees one pin; Mux4 with a keyed select frees two.
                let dead_pins: Vec<usize> = match c.kind {
                    CellKind::Mux2 => match key_value.get(&c.inputs[0]) {
                        Some(&kv) => vec![if kv { 1 } else { 2 }],
                        None => continue,
                    },
                    CellKind::Mux4 => {
                        let s1 = key_value.get(&c.inputs[0]).copied();
                        let s0 = key_value.get(&c.inputs[1]).copied();
                        match (s1, s0) {
                            (Some(h), Some(l)) => {
                                let live = 2 + ((h as usize) << 1) + l as usize;
                                (2..6).filter(|&p| p != live).collect()
                            }
                            (Some(h), None) => {
                                if h { vec![2, 3] } else { vec![4, 5] }
                            }
                            (None, Some(l)) => {
                                if l { vec![2, 4] } else { vec![3, 5] }
                            }
                            (None, None) => continue,
                        }
                    }
                    _ => continue,
                };
                for dead_pin in dead_pins {
                    if let Some(drv) = netlist.net(c.inputs[dead_pin]).driver {
                        if members.contains(&drv.index()) {
                            cut = Some((cid, dead_pin));
                            break 'scan;
                        }
                    }
                }
            }
            if let Some((cid, pin)) = cut {
                cuts.push((netlist.cell(cid).name.clone(), pin));
                let zero = netlist.add_cell(
                    format!("shrink_cut_{}", cid.index()),
                    CellKind::Const(false),
                    vec![],
                );
                netlist.rewire_input(cid, pin, zero);
                cut_any = true;
            }
        }
        if !cut_any {
            break; // nothing safely cuttable; report cycles as-is
        }
        netlist = propagate_constants_cyclic(&netlist);
    }
    let netlist = if netlist.topo_order().is_ok() {
        clean_netlist(&netlist)
    } else {
        netlist
    };
    (netlist, cuts)
}

/// Runs the replay and the oracle on `netlist`; returns the number of cuts
/// when they agree on every cut and on the whole netlist.
fn matches_oracle(netlist: &Netlist, true_key: &[bool]) -> Result<usize, String> {
    let (want, want_cuts) = oracle_cycle_cut(netlist.clone(), true_key);
    let got = defender_cycle_cut(netlist.clone(), true_key);
    if got.cuts != want_cuts {
        let at = got
            .cuts
            .iter()
            .zip(&want_cuts)
            .take_while(|(a, b)| a == b)
            .count();
        return Err(format!(
            "cut sequences differ at cut {at}: replay {:?}, oracle {:?} ({} vs {} cuts)",
            got.cuts.get(at),
            want_cuts.get(at),
            got.cuts.len(),
            want_cuts.len()
        ));
    }
    // `Debug` prints every net, cell, name and port in index order.
    if format!("{:?}", got.netlist) != format!("{want:?}") {
        return Err(format!(
            "netlists differ after the same {} cuts: replay {} cells, oracle {}",
            want_cuts.len(),
            got.netlist.cell_count(),
            want.cell_count()
        ));
    }
    Ok(want_cuts.len())
}

/// The true key of a bitstream: the values of its used bits, in order.
fn used_bits(bitstream: &Bitstream) -> Vec<bool> {
    (0..bitstream.len())
        .filter(|&i| bitstream.is_used(i))
        .map(|i| bitstream.bit(i))
        .collect()
}

/// A random bitstream over a small generated fabric, with its unused bits
/// tied off: what the cycle cut gets in the lock flow, and the true key.
fn random_fabric_input(
    width: usize,
    height: usize,
    chains: bool,
    seed: u64,
) -> (Netlist, Vec<bool>) {
    let fabric = Fabric::generate(FabricConfig::fabulous_style(chains), width, height);
    let io_map = IoMap {
        inputs: (0..fabric.io_input_count())
            .map(|p| (format!("in{p}"), p))
            .collect(),
        outputs: (0..fabric.io_output_count())
            .map(|p| (format!("out{p}"), p))
            .collect(),
    };
    let locked = to_locked_netlist(&fabric, &io_map);
    let mut rng = Rng::seed_from_u64(seed);
    let used = 0.05 + 0.5 * rng.gen_f64();
    let mut bitstream = Bitstream::zeros(fabric.config_bit_count());
    for i in 0..bitstream.len() {
        let value = rng.gen_bool(0.5);
        if rng.gen_bool(used) {
            bitstream.set(i, value);
        } else {
            bitstream.set_unused(i, value);
        }
    }
    (tie_off_unused(&locked, &bitstream), used_bits(&bitstream))
}

#[test]
fn replay_matches_oracle_on_random_bitstreams() {
    forall(
        "cycle-cut replay = rebuild-per-cut loop",
        0x5EED_C0DE,
        24,
        |rng| {
            (
                1 + rng.gen_range(0..2),
                1 + rng.gen_range(0..2),
                rng.gen_bool(0.5),
                rng.next_u64(),
            )
        },
        |&(width, height, chains, seed)| {
            let (netlist, key) = random_fabric_input(width.max(1), height.max(1), chains, seed);
            matches_oracle(&netlist, &key).map(|_| ())
        },
    );
}

/// The lock flow's first rung on `design`, up to the cycle cut (the
/// benchmark's layer probe takes the same steps): the cut's input and the
/// true key.
fn lock_flow_input(design: &Netlist) -> (Netlist, Vec<bool>) {
    let options = ShellOptions::default();
    let selection = select_subcircuit(design, &options.selection);
    let partition = partition_by_cells(design, &selection.cells);
    let pnr = place_and_route_with_chains(
        &partition.sub,
        FabricConfig::fabulous_style(true),
        &options.pnr,
    )
    .expect("the first rung fits");
    let locked = to_locked_netlist(&pnr.fabric, &pnr.io_map);
    (
        tie_off_unused(&locked, &pnr.bitstream),
        used_bits(&pnr.bitstream),
    )
}

#[test]
fn replay_matches_oracle_on_axi_xbar() {
    let (netlist, key) = lock_flow_input(&axi_xbar(4, 1));
    let cuts = matches_oracle(&netlist, &key).unwrap();
    assert!(cuts > 0, "the crossbar's fabric keeps cycles to cut");
}

/// The benchmark's whole lock corpus; too slow for a debug build, so run it
/// in release: `cargo test --release -p xtests --test shrink_replay --
/// --include-ignored`.
#[test]
#[ignore = "release only"]
fn replay_matches_oracle_on_lock_corpus() {
    let mut designs: Vec<Netlist> = Benchmark::all()
        .into_iter()
        .map(|b| generate(b, Scale::small()))
        .collect();
    designs.push(axi_xbar(4, 1));
    for design in &designs {
        let (netlist, key) = lock_flow_input(design);
        let cuts =
            matches_oracle(&netlist, &key).unwrap_or_else(|e| panic!("{}: {e}", design.name()));
        eprintln!("{}: {cuts} cuts", design.name());
    }
}

/// A netlist whose cut constants need more propagation rounds than the
/// cap allows, twice, so each step starts from where the cap stopped the
/// last one, and whose final netlist stays cyclic, so it is not cleaned and
/// shows exactly which cells the propagations resolved.
///
/// - `g1`..`g140` is a chain of ANDs, each reading the one before and input
///   `a`. `g1`..`g10` come after `m0` in cell order, so a constant crosses
///   them within one round; `g11`..`g140` come in reverse, so it moves one
///   cell per round there.
/// - Ring `m0 → g1 → … → g140 → m0` closes through the unselected pin of
///   key-selected `m0`, whose selected pin is constant 0. Cutting it makes
///   `m0` constant, then the chain, but the cap stops that at `g72`.
/// - Ring `m2 → g100 → … → g140 → m2` through `m2` outlives that first
///   propagation; its cut continues the chain, and the cap stops it again
///   at `g136`.
/// - `or = g0 | g20` becomes an alias of `g20` once `m0` is constant, so
///   `and = or & a` only sees `g20`'s constant through that alias.
/// - `u1`/`u2` is a loop no key selects; it is never cut.
fn capped_chain() -> (Netlist, Vec<bool>) {
    const CHAIN: usize = 140;
    let mut n = Netlist::new("capped_chain");
    let a = n.add_input("a");
    let k0 = n.add_key_input("k0");
    let k2 = n.add_key_input("k2");
    let g: Vec<NetId> = (0..=CHAIN).map(|i| n.add_net(format!("g{i}"))).collect();
    let m2 = n.add_net("m2");
    let link = |n: &mut Netlist, i: usize| {
        let ins = if i == 100 {
            vec![g[i - 1], m2, a]
        } else {
            vec![g[i - 1], a]
        };
        n.add_cell_driving(format!("g{i}"), CellKind::And, ins, g[i])
            .unwrap();
    };
    for i in (11..=CHAIN).rev() {
        link(&mut n, i);
    }
    // `m2` reads `g140` before `m0` does, so Tarjan pops `m0` first.
    n.add_cell_driving("m2", CellKind::Mux2, vec![k2, a, g[CHAIN]], m2)
        .unwrap();
    let z = n.add_cell("z", CellKind::Const(false), vec![]);
    n.add_cell_driving("m0", CellKind::Mux2, vec![k0, z, g[CHAIN]], g[0])
        .unwrap();
    for i in 1..=10 {
        link(&mut n, i);
    }
    let or = n.add_cell("or", CellKind::Or, vec![g[0], g[20]]);
    n.add_cell("and", CellKind::And, vec![or, a]);
    let u2 = n.add_net("u2");
    let u1 = n.add_cell("u1", CellKind::And, vec![u2, a]);
    n.add_cell_driving("u2", CellKind::And, vec![u1, a], u2)
        .unwrap();
    n.add_output("f", g[CHAIN]);
    n.add_output("u", u2);
    (n, vec![false, false])
}

#[test]
fn replay_matches_oracle_past_the_round_cap() {
    let (netlist, key) = capped_chain();
    let (want, cuts) = oracle_cycle_cut(netlist.clone(), &key);
    assert_eq!(cuts, vec![("m0".to_string(), 2), ("m2".to_string(), 2)]);
    let kept = |name: &str| want.find_cell(name).is_some();
    assert!(
        kept("g137") && !kept("g136"),
        "the second propagation stops at the cap"
    );
    assert!(kept("u1") && !kept("and"), "cyclic result, alias followed");
    assert_eq!(matches_oracle(&netlist, &key), Ok(2));
}

/// Keyed mux `m` reads `d` through both data pins, and the true key leaves
/// the lower one dead. Step 1 cuts that pin, and its propagation resolves
/// nothing but the cut constant, so `d → m` must stay in the graph once,
/// for the live pin: ring `m2 → d → m → m2` stays cyclic and step 2 cuts
/// `m2`. Without that edge the replay would stop after one cut.
fn one_driver_two_pins() -> (Netlist, Vec<bool>) {
    let mut n = Netlist::new("one_driver_two_pins");
    let a = n.add_input("a");
    let km = n.add_key_input("km");
    let k2 = n.add_key_input("k2");
    let m = n.add_net("m");
    let m2 = n.add_cell("m2", CellKind::Mux2, vec![k2, a, m]);
    let d = n.add_cell("d", CellKind::And, vec![m2, a]);
    n.add_cell_driving("m", CellKind::Mux2, vec![km, d, d], m)
        .unwrap();
    n.add_output("f", m);
    (n, vec![true, false])
}

#[test]
fn replay_matches_oracle_when_one_driver_feeds_two_pins() {
    let (netlist, key) = one_driver_two_pins();
    let (_, cuts) = oracle_cycle_cut(netlist.clone(), &key);
    assert_eq!(cuts, vec![("m".to_string(), 1), ("m2".to_string(), 2)]);
    assert_eq!(matches_oracle(&netlist, &key), Ok(2));
}

/// Cell `c` reads constant 1 on its lower data pin and constant 0 on its
/// higher one, so from step 2 on the rebuilt netlist has `tie1`, then
/// `tie0`, right before `c`, and Tarjan starts from `tie1`. `c` leads
/// nowhere; `tie1` then enters ring `x0 ↔ x1` at `x1`, which makes `x0` the
/// ring's first member and its pin the cut. Entered from `tie0`, at `x0`,
/// the ring would lose `x1`'s pin instead. The ring's selects reach their
/// keys through buffers, so step 1 cannot cut it; self-loop `s` gives step 1
/// its cut, and that step's propagation resolves the buffers and constants.
fn both_ties_before_one_cell() -> (Netlist, Vec<bool>) {
    let mut n = Netlist::new("both_ties_before_one_cell");
    let a = n.add_input("a");
    let kc = n.add_key_input("kc");
    let k0 = n.add_key_input("k0");
    let k1 = n.add_key_input("k1");
    let ks = n.add_key_input("ks");
    let one = n.add_cell("one", CellKind::Const(true), vec![]);
    let zero = n.add_cell("zero", CellKind::Const(false), vec![]);
    let c = n.add_cell("c", CellKind::Mux2, vec![kc, one, zero]);
    let b0 = n.add_cell("b0", CellKind::Buf, vec![k0]);
    let b1 = n.add_cell("b1", CellKind::Buf, vec![k1]);
    let x0 = n.add_net("x0");
    let x1 = n.add_net("x1");
    n.add_cell_driving("x0", CellKind::Mux2, vec![b0, zero, x1], x0)
        .unwrap();
    n.add_cell_driving("x1", CellKind::Mux2, vec![b1, one, x0], x1)
        .unwrap();
    let s = n.add_net("s");
    n.add_cell_driving("s", CellKind::Mux2, vec![ks, a, s], s)
        .unwrap();
    n.add_output("c", c);
    n.add_output("x", x1);
    n.add_output("s", s);
    (n, vec![false; 4])
}

#[test]
fn replay_matches_oracle_with_both_ties_before_one_cell() {
    let (netlist, key) = both_ties_before_one_cell();
    let (_, cuts) = oracle_cycle_cut(netlist.clone(), &key);
    assert_eq!(cuts, vec![("s".to_string(), 2), ("x0".to_string(), 2)]);
    assert_eq!(matches_oracle(&netlist, &key), Ok(2));
}

/// A cut can give `tie0` its first edge into a cycle, so the replay never
/// marks a tie as reaching none. Step 1 cuts self-loop `s`, whose cut pin
/// then reads constant 0, so from step 2 on `tie0` is the first DFS root and
/// leads only to `s`. Step 2 cuts pin 3 of `x` in ring `y ↔ x`, which `x`
/// still closes through pin 4, and that cut gives `tie0` the edge into `x`.
/// Step 3 enters the ring from `tie0` at `x`, which makes `y` the ring's
/// first member and its pin the cut. With `tie0` skipped, root `y` would
/// enter the ring at `y` and lose `x`'s pin 4 instead. The ring's selects
/// reach their keys through buffers, so step 1 cannot cut it.
fn tie_enters_a_cycle_after_a_cut() -> (Netlist, Vec<bool>) {
    let mut n = Netlist::new("tie_enters_a_cycle_after_a_cut");
    let a = n.add_input("a");
    let ks = n.add_key_input("ks");
    let ky = n.add_key_input("ky");
    let kx1 = n.add_key_input("kx1");
    let kx0 = n.add_key_input("kx0");
    let s = n.add_net("s");
    n.add_cell_driving("s", CellKind::Mux2, vec![ks, a, s], s)
        .unwrap();
    let by = n.add_cell("by", CellKind::Buf, vec![ky]);
    let bx1 = n.add_cell("bx1", CellKind::Buf, vec![kx1]);
    let bx0 = n.add_cell("bx0", CellKind::Buf, vec![kx0]);
    let x = n.add_net("x");
    let y = n.add_cell("y", CellKind::Mux2, vec![by, a, x]);
    n.add_cell_driving("x", CellKind::Mux4, vec![bx1, bx0, a, y, y, a], x)
        .unwrap();
    n.add_output("s", s);
    n.add_output("x", x);
    (n, vec![false; 4])
}

#[test]
fn replay_matches_oracle_when_a_cut_leads_a_tie_into_a_cycle() {
    let (netlist, key) = tie_enters_a_cycle_after_a_cut();
    let (_, cuts) = oracle_cycle_cut(netlist.clone(), &key);
    assert_eq!(
        cuts,
        vec![
            ("s".to_string(), 2),
            ("x".to_string(), 3),
            ("y".to_string(), 2)
        ]
    );
    assert_eq!(matches_oracle(&netlist, &key), Ok(3));
}
