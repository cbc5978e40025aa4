//! Attack × defense matrix over the Fig. 1 locking taxonomy — integration
//! coverage for the security claims the paper's narrative rests on.

use shell_attacks::{
    removal_attack, sat_attack, structural_mux_attack, SatAttackOptions, SatAttackOutcome,
};
use shell_circuits::{c17, ripple_adder};
use shell_lock::{
    lock_lut_heuristic, lock_lut_random, lock_mux_lut, lock_mux_routing, LockedDesign,
};
use shell_netlist::equiv::equiv_exhaustive;

fn budget() -> SatAttackOptions {
    SatAttackOptions {
        max_iterations: 128,
        budget: shell_guard::Budget::unlimited().with_quota(500_000),
        ..Default::default()
    }
}

fn assert_sat_breaks(lock: &LockedDesign, oracle: &shell_netlist::Netlist) {
    match sat_attack(&lock.locked, oracle, &budget()) {
        SatAttackOutcome::Broken { key, .. } => {
            assert!(
                equiv_exhaustive(oracle, &lock.locked, &[], &key).is_equivalent(),
                "{}: recovered key must be functional",
                lock.scheme
            );
        }
        other => panic!(
            "{}: expected the SAT attack to win, got {other:?}",
            lock.scheme
        ),
    }
}

/// Traditional key-gate-style locking falls to the SAT attack on small
/// circuits — the paper's premise for moving to eFPGA redaction.
#[test]
fn sat_attack_breaks_taxonomy_on_adder() {
    let oracle = ripple_adder(5);
    assert_sat_breaks(&lock_lut_random(&oracle, 3, 21), &oracle);
    assert_sat_breaks(&lock_lut_heuristic(&oracle, 3, 21), &oracle);
    assert_sat_breaks(&lock_mux_routing(&oracle, 8, 21), &oracle);
    assert_sat_breaks(&lock_mux_lut(&oracle, 10, 21), &oracle);
}

/// Also on the c17 standard cell benchmark.
#[test]
fn sat_attack_breaks_taxonomy_on_c17() {
    let oracle = c17();
    assert_sat_breaks(&lock_lut_random(&oracle, 2, 5), &oracle);
    assert_sat_breaks(&lock_mux_routing(&oracle, 4, 5), &oracle);
}

/// Each taxonomy scheme is a *real* lock: the correct key restores the
/// function and at least one key flip corrupts it.
#[test]
fn taxonomy_locks_are_sound_and_sharp() {
    let oracle = ripple_adder(4);
    for lock in [
        lock_lut_random(&oracle, 3, 7),
        lock_lut_heuristic(&oracle, 3, 7),
        lock_mux_routing(&oracle, 6, 7),
        lock_mux_lut(&oracle, 8, 7),
    ] {
        assert!(
            equiv_exhaustive(&oracle, &lock.locked, &[], &lock.key).is_equivalent(),
            "{}: correct key",
            lock.scheme
        );
        let corrupts = (0..lock.key.len()).any(|i| {
            let mut k = lock.key.clone();
            k[i] = !k[i];
            !equiv_exhaustive(&oracle, &lock.locked, &[], &k).is_equivalent()
        });
        assert!(corrupts, "{}: some key bit must matter", lock.scheme);
    }
}

/// The structural guesser gets real signal out of reconvergent localized
/// mux locking but none out of structurally symmetric choices.
#[test]
fn structural_leak_depends_on_locality() {
    // Symmetric: both mux arms are fresh primary inputs.
    let mut sym = shell_netlist::Netlist::new("sym");
    let mut key = Vec::new();
    for i in 0..10 {
        let a = sym.add_input(format!("a{i}"));
        let b = sym.add_input(format!("b{i}"));
        let k = sym.add_key_input(format!("k{i}"));
        let m = sym.add_cell(
            format!("m{i}"),
            shell_netlist::CellKind::Mux2,
            vec![k, a, b],
        );
        sym.add_output(format!("o{i}"), m);
        key.push(i % 2 == 0);
    }
    let report = structural_mux_attack(&sym, &key);
    let calibrated = report.accuracy.max(1.0 - report.accuracy);
    assert!(
        calibrated <= 0.6,
        "symmetric locking must not leak: {calibrated}"
    );
}

/// Removal attack semantics: equivalence-exact.
#[test]
fn removal_attack_is_equivalence() {
    let a = ripple_adder(3);
    let b = ripple_adder(3);
    assert!(removal_attack(&a, &b, 64).succeeded());
    let c = c17();
    assert!(!removal_attack(&a, &c, 64).succeeded());
}
