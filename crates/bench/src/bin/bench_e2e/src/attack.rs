//! The two attack workloads: oracle-guided SAT attacks on locked scan
//! frames, one set where the solver does the work and one where the DIP
//! loop around it does.

use crate::corpus::dip_instance;
use crate::tally::Tally;
use shell_attacks::{sat_attack_report, SatAttackOptions, SatAttackOutcome};
use shell_guard::Budget;
use shell_lock::{lock_lut_random, lock_mux_lut, lock_mux_routing};
use shell_netlist::{equiv_random, Netlist};
use std::time::Instant;

/// Key bits each Fig. 1 locker inserts in `attack_sat`.
const SAT_LOCK_BITS: usize = 32;
/// `attack_sat`'s per-attack conflict quota. Small enough that every attack
/// ends by quota, iteration cap or success within half a second, so no single
/// instance dominates a pass and a pass costs about the same at any seed.
const SAT_QUOTA: u64 = 10_000;
/// `attack_sat`'s DIP-iteration cap (the table harnesses' budget).
const SAT_ITERATIONS: usize = 24;
/// `attack_dip`'s per-attack conflict quota: never reached, since each DIP
/// is a cheap solve.
const DIP_QUOTA: u64 = 150_000;
/// `attack_dip`'s iteration cap: above the 131 DIPs a unique-key point lock
/// can need.
const DIP_ITERATIONS: usize = 1_000;
/// Vectors of the attack's own key verification.
const VERIFY_VECTORS: usize = 128;
/// Seed of the benchmark's independent key check.
const KEY_CHECK_SEED: u64 = 0xB0B;

/// The corpus frames `attack_dip` locks. AES turns solver-bound under the
/// point lock and `axi_xbar(4,1)` has too few inputs for a 7-bit prefix.
const DIP_FRAMES: [&str; 4] = ["picosoc_frame", "fir_frame", "spmv_frame", "dla_frame"];

/// One attack to run: a locked frame, its oracle, and the planted key when
/// that key is the only correct one.
pub struct Instance<'a> {
    label: String,
    oracle: &'a Netlist,
    locked: Netlist,
    unique_key: Option<Vec<bool>>,
}

/// `attack_sat`'s instances: the Fig. 1 ladder lockers (random LUT, MUX
/// routing, MUX+LUT) on every frame.
pub fn sat_instances(frames: &[Netlist], seed: u64) -> Vec<Instance<'_>> {
    frames
        .iter()
        .flat_map(|frame| {
            [
                lock_lut_random(frame, SAT_LOCK_BITS, seed),
                lock_mux_routing(frame, SAT_LOCK_BITS, seed),
                lock_mux_lut(frame, SAT_LOCK_BITS, seed),
            ]
            .into_iter()
            .map(move |lock| Instance {
                label: format!("{} {}", frame.name(), lock.scheme),
                oracle: frame,
                locked: lock.locked,
                unique_key: None,
            })
        })
        .collect()
}

/// `attack_dip`'s instances: a point lock plus an output-XOR lock on each
/// frame named in [`DIP_FRAMES`].
pub fn dip_instances(frames: &[Netlist], seed: u64) -> Vec<Instance<'_>> {
    frames
        .iter()
        .filter(|frame| DIP_FRAMES.contains(&frame.name()))
        .map(|frame| {
            let (locked, key) = dip_instance(frame, seed);
            Instance {
                label: format!("{} point lock", frame.name()),
                oracle: frame,
                locked,
                unique_key: Some(key),
            }
        })
        .collect()
}

/// Attack options with a fresh budget: a `Budget` is shared by its clones,
/// so reusing one would drain its quota across attacks.
fn options(quota: u64, max_iterations: usize) -> SatAttackOptions {
    SatAttackOptions {
        max_iterations,
        budget: Budget::unlimited().with_quota(quota),
        verify_key: true,
        verify_vectors: VERIFY_VECTORS,
        ..SatAttackOptions::default()
    }
}

/// The benchmark's own check of a recovered key: with it bound, `locked`
/// must agree with `oracle` on random vectors.
pub fn unlocks(oracle: &Netlist, locked: &Netlist, key: &[bool]) -> bool {
    key.len() == locked.key_inputs().len()
        && equiv_random(oracle, locked, &[], key, VERIFY_VECTORS, KEY_CHECK_SEED).is_equivalent()
}

/// One pass of `attack_sat` (`dip == false`) or `attack_dip`: every instance
/// is attacked as one timed operation.
pub fn pass(instances: &[Instance<'_>], dip: bool, tally: &mut Tally) {
    for instance in instances {
        let options = if dip {
            options(DIP_QUOTA, DIP_ITERATIONS)
        } else {
            options(SAT_QUOTA, SAT_ITERATIONS)
        };
        let t0 = Instant::now();
        let report = {
            let _span = shell_trace::span!("bench.attack");
            sat_attack_report(&instance.locked, instance.oracle, &options)
        };
        tally.op(t0.elapsed());
        let broken_key = match &report.outcome {
            SatAttackOutcome::Broken { key, .. } => Some(key),
            _ => None,
        };
        tally.count_verdict(broken_key.is_some());
        let problem = match (&instance.unique_key, broken_key) {
            (Some(planted), Some(key)) if key != planted => {
                Some("recovered key is not the planted one")
            }
            (Some(_), None) => Some("the attack did not recover the unique key"),
            (None, Some(key)) if !unlocks(instance.oracle, &instance.locked, key) => {
                Some("a broken verdict carries a key that does not unlock the design")
            }
            _ => None,
        };
        tally.check(problem.map(|p| format!("{}: {p}", instance.label)));
    }
}
