//! Cross-crate pins for the incremental SAT attack: key recovery on a
//! unique-key lock, run-to-run determinism, and the interrupt/resume
//! accounting contract.
//!
//! The load-bearing property: a resumed attack must produce **byte-identical
//! report JSON** to the same attack run uninterrupted, by deterministic
//! replay of the DIP prefix — even when both stop at budget exhaustion,
//! which holds only because neither the report nor the checkpoint counts the
//! partial conflicts of the interrupted iteration.

use shell_attacks::{
    sat_attack_report, scan_frame, xor_lock_outputs, AttackCheckpoint, AttackReport,
    SatAttackOptions, SatAttackOutcome,
};
use shell_circuits::{axi_xbar, ripple_adder};
use shell_guard::{Budget, Exhausted};
use shell_netlist::{CellKind, NetId, Netlist};

/// A SARLock-flavored point lock: key bit `i` is observable only on inputs
/// whose `prefix_bits`-wide prefix equals `i`, so the attack needs one DIP
/// per key bit — enough iterations to interrupt mid-flight. The last prefix
/// value carries no key bit: no key assignment then shifts the output
/// globally, so the correct key stays unique even composed with
/// [`xor_lock_outputs`].
fn point_lock(oracle: &Netlist, prefix_bits: usize) -> (Netlist, Vec<bool>) {
    let mut locked = oracle.clone();
    locked.set_name(format!("{}_pl", oracle.name()));
    let ins: Vec<NetId> = locked.inputs()[..prefix_bits].to_vec();
    let nots: Vec<NetId> = ins
        .iter()
        .enumerate()
        .map(|(b, &n)| locked.add_cell(format!("pl_not{b}"), CellKind::Not, vec![n]))
        .collect();
    let mut key = Vec::new();
    let mut terms = Vec::new();
    for i in 0..(1usize << prefix_bits) - 1 {
        let mut guard: Vec<NetId> = (0..prefix_bits)
            .map(|b| if (i >> b) & 1 == 1 { ins[b] } else { nots[b] })
            .collect();
        let k = locked.add_key_input(format!("pk{i}"));
        let invert = i % 2 == 1;
        let sensed = if invert {
            key.push(true);
            locked.add_cell(format!("pk_inv{i}"), CellKind::Not, vec![k])
        } else {
            key.push(false);
            k
        };
        guard.push(sensed);
        terms.push(locked.add_cell(format!("pl_term{i}"), CellKind::And, guard));
    }
    let any = locked.add_cell("pl_any", CellKind::Or, terms);
    let out0 = locked.outputs()[0].1;
    let xo = locked.add_cell("pl_x", CellKind::Xor, vec![out0, any]);
    locked.set_output_net(0, xo);
    (locked, key)
}

fn report_bytes(r: &AttackReport) -> String {
    r.to_json().to_string_pretty()
}

fn broken_key(r: &AttackReport) -> &[bool] {
    match &r.outcome {
        SatAttackOutcome::Broken { key, .. } => key,
        other => panic!("expected Broken, got {other:?}"),
    }
}

/// Runs the attack at increasing quotas until it is interrupted mid-flight
/// with at least one DIP recorded; returns the quota and the checkpoint.
fn interrupt_mid_flight(
    locked: &Netlist,
    oracle: &Netlist,
    cp_path: &std::path::Path,
) -> (u64, AttackCheckpoint) {
    for quota in 1..10_000 {
        let opts = SatAttackOptions {
            budget: Budget::unlimited().with_quota(quota),
            checkpoint_path: Some(cp_path.to_path_buf()),
            ..Default::default()
        };
        let partial = sat_attack_report(locked, oracle, &opts);
        if matches!(partial.outcome, SatAttackOutcome::Resilient { .. }) && partial.dips_found >= 1
        {
            assert_eq!(partial.stop, Some(Exhausted::Quota));
            let cp = AttackCheckpoint::load(cp_path).expect("checkpoint readable");
            // Satellite pin: interrupted report and checkpoint agree —
            // partial conflicts of the broken-off iteration are in neither.
            assert_eq!(partial.conflicts_spent, cp.conflicts_spent);
            assert_eq!(partial.dips_found, cp.iterations);
            return (quota, cp);
        }
        if partial.outcome.is_broken() {
            panic!("attack completed at quota {quota} before an interruptible point");
        }
    }
    panic!("no interruptible quota found");
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("shell_sat_inc_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// The `axi_xbar(4,1)` scan frame under a 4-bit-prefix point lock, then an
/// output-XOR lock: both keys are unique, so the attack must recover exactly
/// the planted one.
#[test]
fn recovers_the_unique_key_of_the_point_locked_xbar() {
    let oracle = scan_frame(&axi_xbar(4, 1));
    let (point_locked, point_key) = point_lock(&oracle, 4);
    let (locked, xor_key) = xor_lock_outputs(&point_locked, 4);
    let true_key: Vec<bool> = point_key.into_iter().chain(xor_key).collect();
    let report = sat_attack_report(&locked, &oracle, &SatAttackOptions::default());
    assert_eq!(broken_key(&report), true_key);
}

#[test]
fn incremental_reports_are_run_to_run_deterministic() {
    let oracle = ripple_adder(3);
    let (locked, _) = point_lock(&oracle, 3);
    let opts = SatAttackOptions::default();
    let a = sat_attack_report(&locked, &oracle, &opts);
    let b = sat_attack_report(&locked, &oracle, &opts);
    assert!(a.outcome.is_broken());
    assert_eq!(report_bytes(&a), report_bytes(&b));
}

#[test]
fn incremental_resume_matches_uninterrupted_at_exhaustion() {
    let oracle = ripple_adder(3);
    let (locked, _) = point_lock(&oracle, 3);
    let dir = tmp_dir("inc_exhaust");
    let cp_path = dir.join("cp.json");

    let (q1, cp) = interrupt_mid_flight(&locked, &oracle, &cp_path);
    // A larger quota that still exhausts, strictly past the checkpoint.
    let q2 = loop_quota_past(&locked, &oracle, q1, cp.iterations);

    let uninterrupted = sat_attack_report(
        &locked,
        &oracle,
        &SatAttackOptions {
            budget: Budget::unlimited().with_quota(q2),
            ..Default::default()
        },
    );
    // Resume replays the prefix from iteration 0, re-spending the same
    // conflicts from the same quota — so a plain with_quota(q2) budget
    // reproduces the uninterrupted trajectory exactly.
    let resumed = sat_attack_report(
        &locked,
        &oracle,
        &SatAttackOptions {
            budget: Budget::unlimited().with_quota(q2),
            resume_from: Some(cp.clone()),
            ..Default::default()
        },
    );
    assert_eq!(resumed.resumed_from, cp.iterations);
    assert_eq!(report_bytes(&resumed), report_bytes(&uninterrupted));
    std::fs::remove_dir_all(&dir).ok();
}

/// Finds a quota `> from` at which the attack still exhausts but records
/// strictly more iterations than `past_iterations` (so the resumed segment
/// is non-empty on both sides of the comparison).
fn loop_quota_past(locked: &Netlist, oracle: &Netlist, from: u64, past_iterations: usize) -> u64 {
    for quota in (from + 1)..20_000 {
        let report = sat_attack_report(
            locked,
            oracle,
            &SatAttackOptions {
                budget: Budget::unlimited().with_quota(quota),
                ..Default::default()
            },
        );
        match report.outcome {
            SatAttackOutcome::Resilient { iterations, .. } if iterations > past_iterations => {
                return quota;
            }
            SatAttackOutcome::Resilient { .. } => continue,
            _ => panic!("attack completed at quota {quota}; cannot pin exhaustion alignment"),
        }
    }
    panic!("no exhausting quota past {from} found");
}
