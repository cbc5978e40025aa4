//! The `lock` workload: each corpus design through the SheLL flow, framed
//! readback, and a functional check of the activated design.

use crate::tally::Tally;
use shell_fabric::bind_keys;
use shell_lock::{shell_lock, RedactionOutcome, ShellOptions};
use shell_netlist::{equiv_random, equiv_sequential_random, Netlist};
use shell_synth::propagate_constants_cyclic;
use std::time::Instant;

/// Random vectors of the combinational equivalence check.
const EQUIV_VECTORS: usize = 256;
/// Clock cycles of the sequential equivalence check.
const EQUIV_CYCLES: usize = 48;
/// Seed of both equivalence checks.
const EQUIV_SEED: u64 = 0xACE;

/// What a lock produced, for comparing two locks of one design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockFacts {
    /// Post-shrink key bits.
    pub key_bits: usize,
    /// Configuration bits before shrinking.
    pub key_bits_before_shrink: usize,
    /// SHA-256 of the framed bitstream's JSON form.
    pub digest: [u8; 32],
}

impl LockFacts {
    /// Facts of `outcome`.
    pub fn of(outcome: &RedactionOutcome) -> LockFacts {
        LockFacts {
            key_bits: outcome.key_bits(),
            key_bits_before_shrink: outcome.key_bits_before_shrink,
            digest: digest(&outcome.framed),
        }
    }
}

/// SHA-256 of a framed bitstream's JSON form.
pub fn digest(framed: &shell_fabric::FramedBitstream) -> [u8; 32] {
    shell_serve::sha256(framed.to_json().to_string_compact().as_bytes())
}

/// Binds `key` into `locked`, cleans up the constants and compares the
/// result with the original design.
pub fn activates_correctly(design: &Netlist, locked: &Netlist, key: &[bool]) -> bool {
    let activated = propagate_constants_cyclic(&bind_keys(locked, key));
    let result = if design.is_combinational() && activated.is_combinational() {
        equiv_random(design, &activated, &[], &[], EQUIV_VECTORS, EQUIV_SEED)
    } else {
        equiv_sequential_random(design, &activated, &[], &[], EQUIV_CYCLES, EQUIV_SEED)
    };
    result.is_equivalent()
}

/// Counts the designs whose lock in `facts` produced another bitstream than
/// in `reference` into `changed`.
pub fn mark_changes(
    changed: &mut [bool],
    reference: &[Option<LockFacts>],
    facts: &[Option<LockFacts>],
) {
    for ((flag, want), got) in changed.iter_mut().zip(reference).zip(facts) {
        if let (Some(want), Some(got)) = (want, got) {
            *flag |= want.digest != got.digest;
        }
    }
}

/// One pass: every design is locked with the flow's default options (PnR
/// seed included), read back and verified, as one timed operation each.
/// Returns the facts of each design's lock (`None` where the flow failed).
///
/// The PnR seed stays the default on every pass and in every run: the fit
/// loop's work varies up to twofold between seeds (FIR took 1.3 s to 2.9 s),
/// which kept runs with seed-drawn PnR seeds from agreeing within 15 %. The
/// corpus itself has no random inputs, so this workload does not use the
/// workload seed.
pub fn pass(corpus: &[Netlist], tally: &mut Tally) -> Vec<Option<LockFacts>> {
    let options = ShellOptions::default();
    corpus
        .iter()
        .map(|design| {
            let t0 = Instant::now();
            let outcome = {
                let _span = shell_trace::span!("bench.lock");
                shell_lock(design, &options)
            };
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(e) => {
                    tally.op(t0.elapsed());
                    tally.check(Some(format!("{}: lock failed: {e}", design.name())));
                    return None;
                }
            };
            let readback = {
                let _span = shell_trace::span!("bench.readback");
                outcome.framed.to_flat()
            };
            let equivalent = {
                let _span = shell_trace::span!("bench.verify");
                activates_correctly(design, &outcome.locked, &outcome.key)
            };
            tally.op(t0.elapsed());
            let problem = if readback.as_ref().ok() != Some(&outcome.bitstream) {
                Some("framed readback differs from the flat bitstream")
            } else if !equivalent {
                Some("activated design is not equivalent to the original")
            } else if outcome.key_bits() == 0
                || outcome.key_bits() >= outcome.key_bits_before_shrink
            {
                Some("shrinking did not leave 0 < key bits < configuration bits")
            } else {
                None
            };
            tally.check(problem.map(|p| format!("{}: {p}", design.name())));
            Some(LockFacts::of(&outcome))
        })
        .collect()
}
