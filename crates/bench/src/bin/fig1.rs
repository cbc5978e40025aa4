//! Fig. 1 — the reconfigurable-locking taxonomy ladder.
//!
//! Locks one benchmark circuit with each scheme of the taxonomy —
//! (a) random LUT insertion, (b) heuristic LUT insertion, (c) MUX routing
//! locking, (d) MUX+LUT locking, (e) eFPGA redaction (SheLL) — and attacks
//! every result with the oracle-guided SAT attack and the structural
//! (UNTANGLE-flavored) guesser.
//!
//! Expected shape, left to right: SAT iterations/robustness increase;
//! the localized MUX scheme (c) leaks structure (high guess accuracy);
//! the eFPGA scheme resists both within budget.

use shell_attacks::{sat_attack, structural_mux_attack, SatAttackOutcome};
use shell_bench::{attack_budget, check_resilience, f2, Table};
use shell_circuits::ripple_adder;
use shell_lock::{
    lock_lut_heuristic, lock_lut_random, lock_mux_lut, lock_mux_routing, shell_lock, LockedDesign,
    ShellOptions,
};

fn attack_row(t: &mut Table, scheme: &str, lock: &LockedDesign, oracle: &shell_netlist::Netlist) {
    let outcome = sat_attack(&lock.locked, oracle, &attack_budget());
    let (sat_cell, iters) = match &outcome {
        SatAttackOutcome::Broken { iterations, .. } => {
            (format!("BROKEN({iterations})"), *iterations)
        }
        SatAttackOutcome::Resilient { iterations, .. } => ("resilient".into(), *iterations),
        SatAttackOutcome::WrongKey { iterations, .. } => ("resilient*".into(), *iterations),
    };
    let structural = structural_mux_attack(&lock.locked, &lock.key);
    // A consistently-wrong predictor leaks as much as a consistently-right
    // one (the attacker calibrates); report max(acc, 1 - acc).
    let calibrated = structural.accuracy.max(1.0 - structural.accuracy);
    t.row(vec![
        scheme.into(),
        lock.key.len().to_string(),
        sat_cell,
        iters.to_string(),
        if structural.key_muxes > 0 {
            f2(calibrated)
        } else {
            "n/a".into()
        },
    ]);
}

fn main() {
    shell_bench::trace_init();
    let oracle = ripple_adder(6);
    let mut t = Table::new(&[
        "Scheme (Fig. 1)",
        "key bits",
        "SAT attack",
        "DIP iters",
        "structural guess acc.",
    ]);

    let a = lock_lut_random(&oracle, 4, 0xF1);
    attack_row(&mut t, "(a) LUT insertion, random", &a, &oracle);
    let b = lock_lut_heuristic(&oracle, 4, 0xF1);
    attack_row(&mut t, "(b) LUT insertion, heuristic", &b, &oracle);
    let c = lock_mux_routing(&oracle, 12, 0xF1);
    attack_row(&mut t, "(c) MUX routing locking", &c, &oracle);
    let d = lock_mux_lut(&oracle, 16, 0xF1);
    attack_row(&mut t, "(d) MUX+LUT locking", &d, &oracle);

    // (e) eFPGA redaction: SheLL on a mux-bearing design (the adder has no
    // muxes, so use the crossbar workload the redaction schemes target).
    // Scale matters: a toy 4x2 crossbar's shrunk key can fall within the
    // budget; the 8x2 instance below is the smallest that reliably
    // exhausts it — the paper's full-size fabrics are far beyond either.
    let route_oracle = shell_circuits::axi_xbar(8, 2);
    match shell_lock(&route_oracle, &ShellOptions::default()) {
        Ok(outcome) => {
            let res = check_resilience(&route_oracle, &outcome);
            t.row(vec![
                "(e) eFPGA redaction (SheLL)".into(),
                outcome.key_bits().to_string(),
                res.cell(),
                "-".into(),
                "n/a".into(),
            ]);
        }
        Err(e) => t.row(vec![
            "(e) eFPGA redaction (SheLL)".into(),
            "-".into(),
            format!("error: {e}"),
            "-".into(),
            "-".into(),
        ]),
    }

    t.print("Fig. 1 — Robustness Ladder of Reconfigurability-Based Locking");
    match shell_bench::write_results_json("fig1", &t.to_json()) {
        Ok(path) => eprintln!("json: {path}"),
        Err(e) => eprintln!("could not write results json: {e}"),
    }
    println!("expected: robustness grows (a) -> (e); (c) leaks structure to the");
    println!("link-prediction guesser (accuracy >> 0.5), which is the paper's argument");
    println!("for fabric-grade (symmetric, distributed) reconfigurability.");
    shell_bench::trace_finish("fig1");
}
