//! Structural (ML-attack stand-in) analysis of MUX-based routing locking.
//!
//! UNTANGLE \[8\] breaks localized MUX locking by *link prediction*: graph
//! features around each key-controlled mux reveal which data input is the
//! original connection. This module implements a feature-based guesser of
//! the same spirit — deliberately simple, but strong enough to demonstrate
//! the Fig. 1 taxonomy point: **localized** mux locking (Fig. 1c) leaks
//! structure, while eFPGA-grade redaction (uniform switch fabrics) does not
//! give the features any signal.
//!
//! For every `Mux2` cell whose select pin is a key input, the attack scores
//! the two data candidates by locality features (shared fanin, logic-level
//! distance, name-agnostic fanout overlap) and guesses the more "natural"
//! one. The report compares guesses against the true key.

use shell_graph::{bfs_distances, DiGraph, NodeId};
use shell_guard::{Budget, Exhausted};
use shell_netlist::{CellKind, Netlist};
use std::collections::HashSet;

/// Result of the structural mux attack.
#[derive(Debug, Clone, PartialEq)]
pub struct StructuralReport {
    /// Number of key-controlled muxes analyzed.
    pub key_muxes: usize,
    /// Guessed key bits, indexed like the netlist's key inputs (bits whose
    /// key input does not drive a mux select stay `None`).
    pub guesses: Vec<Option<bool>>,
    /// Fraction of analyzed bits guessed correctly against `true_key`
    /// (0.5 ≈ no structural leak; 1.0 = fully predicted).
    pub accuracy: f64,
}

/// Runs the structural guesser against a known `true_key` (evaluation mode:
/// the defender measures how much structure leaks).
///
/// # Panics
///
/// Panics when `true_key` length differs from the key count.
pub fn structural_mux_attack(locked: &Netlist, true_key: &[bool]) -> StructuralReport {
    structural_mux_attack_budgeted(locked, true_key, &Budget::unlimited())
        .expect("an unlimited budget cannot exhaust")
}

/// [`structural_mux_attack`] under a [`Budget`]: one quota step is spent per
/// analyzed key mux (spent up front, in deterministic cell order, so the
/// exhaustion point is identical at any `SHELL_JOBS`), and the deadline /
/// cancellation flag is polled per mux.
///
/// # Errors
///
/// Returns the [`Exhausted`] reason when the budget runs out before every
/// key mux has been admitted.
///
/// # Panics
///
/// Panics when `true_key` length differs from the key count.
pub fn structural_mux_attack_budgeted(
    locked: &Netlist,
    true_key: &[bool],
    budget: &Budget,
) -> Result<StructuralReport, Exhausted> {
    let _span = shell_trace::span!("attack.structural");
    assert_eq!(
        true_key.len(),
        locked.key_inputs().len(),
        "key width mismatch"
    );
    // Cell graph for locality features.
    let mut g: DiGraph<()> = DiGraph::with_capacity(locked.cell_count());
    let nodes: Vec<NodeId> = locked.cells().map(|_| g.add_node(())).collect();
    for (id, c) in locked.cells() {
        for &inp in &c.inputs {
            if let Some(drv) = locked.net(inp).driver {
                g.add_edge(nodes[drv.index()], nodes[id.index()]);
            }
        }
    }

    let key_of_net: std::collections::HashMap<_, usize> = locked
        .key_inputs()
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i))
        .collect();

    // Scoring one mux walks the whole cell graph (a BFS plus fanin scans)
    // but writes nothing — the per-mux loop is the attack's hot path and
    // maps cleanly over workers. Guesses come back in job order (cell
    // order), so the report is independent of scheduling.
    let mux_jobs: Vec<(shell_netlist::CellId, usize)> = locked
        .cells()
        .filter(|(_, c)| c.kind == CellKind::Mux2)
        .filter_map(|(cid, c)| key_of_net.get(&c.inputs[0]).map(|&ki| (cid, ki)))
        .collect();
    let key_muxes = mux_jobs.len();
    // Admit jobs against the budget *sequentially* before the parallel
    // scoring pass: the exhaustion point depends only on the job order.
    for _ in &mux_jobs {
        budget.spend(1)?;
    }
    let scored: Vec<(usize, bool)> = shell_exec::parallel_map(&mux_jobs, |&(cid, key_idx)| {
        let c = locked.cell(cid);
        // Candidates: data pin 1 (selected by key = 0) vs pin 2 (key = 1).
        let score = |data_net: shell_netlist::NetId| -> f64 {
            let mut s = 0.0;
            let Some(drv) = locked.net(data_net).driver else {
                // Primary-input data: locality = how many of the mux's
                // sink-side neighbors also read this input.
                return 0.5;
            };
            // Feature 1: shared fanin between the candidate driver and the
            // mux's downstream consumers (real connections sit in cones
            // that reconverge; decoys are pulled from far away).
            let drv_inputs: HashSet<_> = locked.cell(drv).inputs.iter().copied().collect();
            let mux_out = c.output;
            let mut shared = 0usize;
            for (_, other) in locked.cells() {
                if other.inputs.contains(&mux_out) {
                    for &oi in &other.inputs {
                        if drv_inputs.contains(&oi) {
                            shared += 1;
                        }
                    }
                }
            }
            s += shared as f64;
            // Feature 2: graph proximity driver → mux (short forward paths
            // beyond the direct edge indicate reconvergence; decoys rarely
            // reconverge).
            let dist = bfs_distances(&g, nodes[drv.index()]);
            let reachable_close = g
                .successors(nodes[cid.index()])
                .iter()
                .filter(|&&succ| dist[succ.index()] != usize::MAX && dist[succ.index()] <= 3)
                .count();
            s += reachable_close as f64 * 0.5;
            s
        };
        let s0 = score(c.inputs[1]);
        let s1 = score(c.inputs[2]);
        // key = 0 selects pin 1; guess the higher-scoring candidate as the
        // true connection.
        (key_idx, s1 > s0)
    });
    let mut guesses: Vec<Option<bool>> = vec![None; true_key.len()];
    for (key_idx, guess) in scored {
        guesses[key_idx] = Some(guess);
    }

    let analyzed: Vec<(usize, bool)> = guesses
        .iter()
        .enumerate()
        .filter_map(|(i, g)| g.map(|v| (i, v)))
        .collect();
    let correct = analyzed.iter().filter(|(i, v)| *v == true_key[*i]).count();
    let accuracy = if analyzed.is_empty() {
        0.0
    } else {
        correct as f64 / analyzed.len() as f64
    };
    Ok(StructuralReport {
        key_muxes,
        guesses,
        accuracy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_netlist::{NetId, Netlist};

    /// Builds a locked netlist in the Fig. 1(c) style: each key mux chooses
    /// between the true local connection (inside a reconvergent cone) and a
    /// decoy pulled from an unrelated region.
    fn localized_mux_lock(bits: usize) -> (Netlist, Vec<bool>) {
        let mut n = Netlist::new("loc");
        let mut true_key = Vec::new();
        // Unrelated decoy region.
        let da = n.add_input("da");
        let db = n.add_input("db");
        let decoy = n.add_cell("decoy", CellKind::Xor, vec![da, db]);
        n.add_output("decoy_o", decoy);
        for i in 0..bits {
            let a = n.add_input(format!("a{i}"));
            let b = n.add_input(format!("b{i}"));
            let t = n.add_cell(format!("t{i}"), CellKind::And, vec![a, b]);
            let k = n.add_key_input(format!("k{i}"));
            // True connection on pin chosen by parity; reconvergence: the
            // consumer also reads `a` (shared fanin with t's driver cone).
            let key_bit = i % 2 == 1;
            let (p1, p2): (NetId, NetId) = if key_bit { (decoy, t) } else { (t, decoy) };
            let m = n.add_cell(format!("km{i}"), CellKind::Mux2, vec![k, p1, p2]);
            let f = n.add_cell(format!("f{i}"), CellKind::Or, vec![m, a]);
            n.add_output(format!("o{i}"), f);
            true_key.push(key_bit);
        }
        (n, true_key)
    }

    #[test]
    fn localized_locking_leaks_structure() {
        let (locked, key) = localized_mux_lock(8);
        let report = structural_mux_attack(&locked, &key);
        assert_eq!(report.key_muxes, 8);
        assert!(
            report.accuracy >= 0.75,
            "localized mux locking should leak: accuracy {}",
            report.accuracy
        );
    }

    #[test]
    fn no_key_muxes_no_guesses() {
        let mut n = Netlist::new("plain");
        let a = n.add_input("a");
        let k = n.add_key_input("k");
        let f = n.add_cell("f", CellKind::Xor, vec![a, k]);
        n.add_output("f", f);
        let report = structural_mux_attack(&n, &[false]);
        assert_eq!(report.key_muxes, 0);
        assert_eq!(report.guesses, vec![None]);
        assert_eq!(report.accuracy, 0.0);
    }

    #[test]
    fn symmetric_choices_give_chance_accuracy() {
        // Both mux inputs structurally identical: accuracy ≈ coin flip, not
        // systematically high.
        let mut n = Netlist::new("sym");
        let mut key = Vec::new();
        for i in 0..8 {
            let a = n.add_input(format!("a{i}"));
            let b = n.add_input(format!("b{i}"));
            let k = n.add_key_input(format!("k{i}"));
            let m = n.add_cell(format!("m{i}"), CellKind::Mux2, vec![k, a, b]);
            n.add_output(format!("o{i}"), m);
            key.push(i % 2 == 0);
        }
        let report = structural_mux_attack(&n, &key);
        assert_eq!(report.key_muxes, 8);
        // With no structural signal the guesser collapses to a constant
        // choice → 50 % on this balanced key.
        assert!(
            report.accuracy <= 0.55,
            "symmetric structure must not leak: {}",
            report.accuracy
        );
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_key_width_panics() {
        let (locked, _) = localized_mux_lock(2);
        structural_mux_attack(&locked, &[true]);
    }

    #[test]
    fn budget_exhaustion_is_typed() {
        use shell_guard::{Budget, Exhausted};
        let (locked, key) = localized_mux_lock(8);
        let b = Budget::unlimited().with_quota(3);
        assert_eq!(
            structural_mux_attack_budgeted(&locked, &key, &b),
            Err(Exhausted::Quota)
        );
        // A sufficient quota matches the unbudgeted run exactly.
        let full =
            structural_mux_attack_budgeted(&locked, &key, &Budget::unlimited().with_quota(8))
                .unwrap();
        assert_eq!(full, structural_mux_attack(&locked, &key));
    }
}
