//! Integration tests of the shell-guard robustness layer: the fit loop's
//! auto-upsizing, typed errors instead of panics on impossible inputs, and
//! checkpoint/resume of a cancelled SAT attack.

use shell_attacks::{sat_attack_report, AttackCheckpoint, SatAttackOptions, SatAttackOutcome};
use shell_circuits::ripple_adder;
use shell_fabric::FabricConfig;
use shell_guard::Budget;
use shell_lock::lock_lut_random;
use shell_pnr::{place_and_route, PnrError, PnrOptions};
use shell_synth::lut_map;

/// A fabric whose first size guess is too small for the design is grown by
/// the fit loop until the design fits, and the result records how many
/// attempts that took.
#[test]
fn undersized_fabric_auto_upsizes_and_completes() {
    let design = ripple_adder(4);
    let mapped = lut_map(&design, 4).expect("acyclic").netlist;
    // A minimum-width channel starves the router on the first size guess,
    // so the flow must expand at least once before everything routes.
    let config = FabricConfig {
        channel_width: 8,
        ..FabricConfig::fabulous_style(false)
    };
    let result =
        place_and_route(&mapped, config, &PnrOptions::default()).expect("fit loop recovers");
    assert!(
        result.fit_attempts > 1,
        "expected the fit loop to expand an undersized fabric, \
         but the first size fit (attempts = {})",
        result.fit_attempts
    );
    assert!(
        result.degraded.is_empty(),
        "unlimited budget never degrades"
    );
}

/// A design that cannot be routed within the configured attempt budget
/// comes back as a structured [`PnrError`], never a panic.
#[test]
fn unroutable_design_returns_structured_error() {
    let design = ripple_adder(4);
    let mapped = lut_map(&design, 4).expect("acyclic").netlist;
    let config = FabricConfig {
        channel_width: 2,
        ..FabricConfig::fabulous_style(false)
    };
    let options = PnrOptions {
        max_fit_attempts: 1,
        max_route_iterations: 2,
        ..PnrOptions::default()
    };
    let err = place_and_route(&mapped, config, &options).expect_err("cannot route");
    assert!(
        matches!(err, PnrError::Unroutable(_) | PnrError::DoesNotFit(_)),
        "expected a fit/route error, got: {err}"
    );
    // The Display form is the operator-facing contract.
    let msg = err.to_string();
    assert!(
        msg.contains("unroutable") || msg.contains("does not fit"),
        "unhelpful error message: {msg}"
    );
}

/// Cancelling a SAT attack mid-flight leaves a checkpoint on disk; resuming
/// from it recovers the same key and a report byte-identical to an
/// uninterrupted run.
#[test]
fn cancelled_attack_checkpoint_resumes_to_identical_key() {
    let oracle = ripple_adder(2);
    let locked = lock_lut_random(&oracle, 12, 0xD1CE);

    // Reference: one uninterrupted run.
    let full = sat_attack_report(&locked.locked, &oracle, &SatAttackOptions::default());
    let (full_key, full_iters) = match &full.outcome {
        SatAttackOutcome::Broken {
            key, iterations, ..
        } => (key.clone(), *iterations),
        other => panic!("expected the attack to break the lock, got {other:?}"),
    };
    assert!(full_iters >= 2, "need a multi-iteration attack to cancel");

    // Cancelled run: a watcher thread pulls the plug as soon as the first
    // per-iteration checkpoint lands on disk. The DIP loop notices at its
    // next budget poll and stops at an iteration boundary, so whatever is
    // on disk is a complete prefix of the uninterrupted run.
    let dir = std::env::temp_dir().join(format!("shell_guard_cancel_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cp_path = dir.join("sat_attack.json");
    let _ = std::fs::remove_file(&cp_path);

    let budget = Budget::unlimited();
    let watcher = {
        let budget = budget.clone();
        let cp_path = cp_path.clone();
        std::thread::spawn(move || {
            while !cp_path.exists() {
                std::thread::yield_now();
            }
            budget.cancel();
        })
    };
    let cancelled = sat_attack_report(
        &locked.locked,
        &oracle,
        &SatAttackOptions {
            budget,
            checkpoint_path: Some(cp_path.clone()),
            ..SatAttackOptions::default()
        },
    );
    watcher.join().expect("watcher thread");

    // The cancel lands at a nondeterministic iteration — the attack may
    // even finish first if the race goes long — but the checkpoint is
    // valid either way, and resuming must reconverge on the same run.
    let checkpoint = AttackCheckpoint::load(&cp_path).expect("checkpoint readable");
    assert!(checkpoint.iterations >= 1);
    if !cancelled.outcome.is_broken() {
        assert!(checkpoint.iterations < full_iters);
    }

    let resumed = sat_attack_report(
        &locked.locked,
        &oracle,
        &SatAttackOptions {
            resume_from: Some(checkpoint.clone()),
            ..SatAttackOptions::default()
        },
    );
    assert_eq!(resumed.resumed_from, checkpoint.iterations);
    match &resumed.outcome {
        SatAttackOutcome::Broken {
            key, iterations, ..
        } => {
            assert_eq!(*key, full_key, "resumed attack must recover the same key");
            assert_eq!(*iterations, full_iters);
        }
        other => panic!("resumed attack failed to break the lock: {other:?}"),
    }
    assert_eq!(
        resumed.to_json().to_string_pretty(),
        full.to_json().to_string_pretty(),
        "resumed report must be byte-identical to the uninterrupted one"
    );
    let _ = std::fs::remove_file(&cp_path);
    let _ = std::fs::remove_dir(&dir);
}
