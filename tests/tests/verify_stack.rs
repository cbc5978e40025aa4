//! Acceptance tests for the SAT miter equivalence proofs (`shell-sat`).
//!
//! The contract under test: on every small (≤ 12-input) benchmark, the SAT
//! miter and the exhaustive simulator are interchangeable oracles —
//! activating a redaction with the correct key proves `Equivalent` under
//! both, flipping key bits yields a `Counterexample` under both, and the
//! two never disagree. On wide designs, where exhaustion is off the table,
//! the miter alone carries the negative tests.

use shell_circuits::{c17, mux_tree_circuit, ripple_adder};
use shell_lock::{activate, activate_with_key, shell_lock_cells, RedactionOutcome, ShellOptions};
use shell_netlist::{equiv_exhaustive, EquivResult, Netlist};
use shell_sat::{equiv_sat, equiv_sat_bounded};
use shell_synth::propagate_constants_cyclic;
use shell_util::Rng;

/// Redacts the *whole* benchmark onto a FABulous-style fabric (explicit
/// full-cell selection, so mux-free circuits like c17 lock too).
fn lock_whole(design: &Netlist) -> RedactionOutcome {
    let cells: Vec<_> = design.cells().map(|(id, _)| id).collect();
    shell_lock_cells(design, &cells, &ShellOptions::default()).expect("redaction flow succeeds")
}

/// The ≤ 12-input benchmarks, where the exhaustive oracle can cross-check
/// the SAT miter on every claim.
fn small_benchmarks() -> Vec<(&'static str, Netlist)> {
    vec![
        ("c17", c17()),                         // 5 inputs
        ("adder4", ripple_adder(4)),            // 8 inputs
        ("muxtree4x2", mux_tree_circuit(4, 2)), // 10 inputs
        ("adder6", ripple_adder(6)),            // 12 inputs
    ]
}

#[test]
fn correct_key_proves_equivalent_under_both_oracles() {
    for (name, design) in small_benchmarks() {
        let outcome = lock_whole(&design);
        let activated = propagate_constants_cyclic(&activate(&outcome));
        let sat = equiv_sat(&design, &activated, &[], &[]);
        assert!(sat.is_equivalent(), "{name}: SAT miter says {sat:?}");
        let exhaustive = equiv_exhaustive(&design, &activated, &[], &[]);
        assert!(
            exhaustive.is_equivalent(),
            "{name}: exhaustive says {exhaustive:?}"
        );
    }
}

#[test]
fn flipped_key_bits_yield_agreeing_counterexamples() {
    // ~85% of the post-shrink key bits are load-bearing; the rest are LUT
    // entries at input combinations the routing makes unreachable
    // (used-but-unobservable don't-cares). The contract checked here: on
    // *every* random flip the two oracles agree exactly, and 8 random
    // flips per benchmark are confirmed as counterexamples — drawing a few
    // extra bits past the don't-cares, deterministically.
    for (name, design) in small_benchmarks() {
        let outcome = lock_whole(&design);
        assert!(!outcome.key.is_empty(), "{name}: empty key");
        let mut rng = Rng::seed_from_u64(0x5EED ^ design.inputs().len() as u64);
        let mut confirmed = 0usize;
        let mut draws = 0usize;
        while confirmed < 8 {
            draws += 1;
            assert!(
                draws <= 24,
                "{name}: only {confirmed}/8 of {draws} flipped bits were \
                 load-bearing; shrink is keeping far too many dead bits"
            );
            let bit = rng.gen_range(0..outcome.key.len());
            let mut bad = outcome.key.clone();
            bad[bit] = !bad[bit];
            let broken = propagate_constants_cyclic(&activate_with_key(&outcome, &bad));
            if broken.topo_order().is_err() {
                // The wrong bit configured a combinational loop — maximally
                // corrupted, but outside both oracles' domain.
                confirmed += 1;
                continue;
            }
            let sat = equiv_sat(&design, &broken, &[], &[]);
            let exhaustive = equiv_exhaustive(&design, &broken, &[], &[]);
            assert_eq!(
                sat.is_equivalent(),
                exhaustive.is_equivalent(),
                "{name} bit {bit}: oracles disagree: {sat:?} vs {exhaustive:?}"
            );
            // Counterexamples must replay through plain simulation.
            if let EquivResult::Counterexample { inputs, lhs, rhs } = &sat {
                assert_eq!(&design.eval_comb(inputs), lhs, "{name}: lhs replay");
                assert_eq!(&broken.eval_comb(inputs), rhs, "{name}: rhs replay");
                assert_ne!(lhs, rhs, "{name}: degenerate counterexample");
                confirmed += 1;
            }
        }
    }
}

#[test]
fn wide_design_negative_test_by_sat_miter() {
    // 16 primary inputs: past the exhaustive comfort zone, so the miter is
    // the only exact oracle — exactly the case SheLL's verification needs.
    let design = ripple_adder(8);
    let outcome = lock_whole(&design);
    let activated = propagate_constants_cyclic(&activate(&outcome));
    assert!(equiv_sat(&design, &activated, &[], &[]).is_equivalent());

    let mut bad = outcome.key.clone();
    for bit in bad.iter_mut().take(8) {
        *bit = !*bit;
    }
    let broken = propagate_constants_cyclic(&activate_with_key(&outcome, &bad));
    if broken.topo_order().is_ok() {
        let verdict = equiv_sat(&design, &broken, &[], &[]);
        assert!(
            verdict.is_counterexample(),
            "8 flipped bits went unnoticed: {verdict:?}"
        );
    }
}

#[test]
fn bounded_unroller_agrees_on_combinational_benchmarks() {
    // On a purely combinational pair, the depth-k unrolled proof must
    // coincide with the single-frame miter.
    let design = mux_tree_circuit(4, 2);
    let outcome = lock_whole(&design);
    let activated = propagate_constants_cyclic(&activate(&outcome));
    assert!(equiv_sat_bounded(&design, &activated, &[], &[], 3).is_equivalent());
}
