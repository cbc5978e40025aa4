//! Seeded fault-injection campaign over configured fabrics.
//!
//! The robustness contract of the flow is that a corrupted bitstream is
//! either *detected* by verification or *provably harmless* — and that no
//! corruption, however adversarial, panics the verifier. This module turns
//! that contract into a measurement: inject seeded bit-flips and stuck-at
//! faults into a PnR result's bitstream, re-run the functional check for
//! each faulted configuration inside a panic guard, and classify every
//! fault as detected, masked (with the equivalence proof as witness), or —
//! the failure modes — undetected or panicked.
//!
//! Since the addressed bitstream landed, the campaign also tampers with
//! the *frame codewords* themselves (single/double flips and stuck-ats on
//! payload, CRC or ECC bits): singles must come back
//! [`FaultOutcome::Corrected`] with the SECDED witness, doubles must be
//! refused by the decoder, and an accepted double counts as undetected.
//!
//! The campaign is deterministic: the fault list is derived sequentially
//! from the seed before any parallel work, and the faults are evaluated
//! with [`shell_exec::parallel_map`] (index-ordered results), so the report
//! is byte-identical at every `SHELL_JOBS` setting.

use shell_fabric::frame::{decode_frame, FRAME_TOTAL_BITS};
use shell_fabric::{to_configured_netlist, Bitstream, Fabric, FramedBitstream, IoMap};
use shell_netlist::equiv::{equiv_exhaustive, equiv_random, EquivResult};
use shell_netlist::Netlist;
use shell_util::{Json, Rng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Input-space size (in bits) up to which equivalence runs exhaustively,
/// making a "masked" verdict a proof rather than a sample.
const EXHAUSTIVE_INPUT_LIMIT: usize = 10;

/// Monte-Carlo vectors for wide designs (a sample, not a proof — surviving
/// faults on used bits are then conservatively counted as undetected).
const SAMPLE_VECTORS: usize = 256;

/// What a fault does to its target bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Invert the bit.
    BitFlip,
    /// Force the bit to 0.
    StuckAt0,
    /// Force the bit to 1.
    StuckAt1,
    /// Invert the i-th *used* bit — key material after shrinking, so this
    /// models a wrong-key bit rather than random config corruption.
    KeyFlip,
    /// Flip one bit of a frame *codeword* (payload, CRC or ECC bit — a
    /// single-event upset on the addressed artifact). SECDED must correct
    /// it.
    FrameFlip,
    /// Flip two distinct bits of the same frame codeword. SECDED must
    /// refuse to decode it.
    FrameDouble,
    /// Force one frame codeword bit to 0.
    FrameStuck0,
    /// Force one frame codeword bit to 1.
    FrameStuck1,
}

impl FaultKind {
    fn label(self) -> &'static str {
        match self {
            FaultKind::BitFlip => "bit_flip",
            FaultKind::StuckAt0 => "stuck_at_0",
            FaultKind::StuckAt1 => "stuck_at_1",
            FaultKind::KeyFlip => "key_flip",
            FaultKind::FrameFlip => "frame_flip",
            FaultKind::FrameDouble => "frame_double",
            FaultKind::FrameStuck0 => "frame_stuck_0",
            FaultKind::FrameStuck1 => "frame_stuck_1",
        }
    }

    /// Whether the fault targets the frame-codeword space (`bit` indexes
    /// `frame_count * FRAME_TOTAL_BITS` positions) rather than the flat
    /// configuration bits.
    pub fn is_frame(self) -> bool {
        matches!(
            self,
            FaultKind::FrameFlip
                | FaultKind::FrameDouble
                | FaultKind::FrameStuck0
                | FaultKind::FrameStuck1
        )
    }
}

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The corruption applied.
    pub kind: FaultKind,
    /// Absolute bitstream position it lands on.
    pub bit: usize,
}

/// How the verifier handled a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Verification found a functional mismatch (or a structurally broken
    /// configuration — an unreadable bitstream or a combinational loop).
    Detected,
    /// The faulted configuration is equivalent to the reference and the
    /// check was a proof: the write was a no-op, the bit is unused, or
    /// exhaustive equivalence held (a genuine don't-care).
    Masked,
    /// SECDED repaired the upset at readback: the decoded payload equals
    /// the pristine frame, with the correction position as witness. Only
    /// frame faults can earn this verdict.
    Corrected,
    /// Equivalence was only sampled (wide design) and no mismatch surfaced
    /// on a used, actually-changed bit — possibly a missed corruption, so
    /// it counts against the campaign.
    Undetected,
    /// The verifier panicked. Always a bug; the campaign exists to keep
    /// this at zero.
    Panicked,
}

impl FaultOutcome {
    fn label(self) -> &'static str {
        match self {
            FaultOutcome::Detected => "detected",
            FaultOutcome::Masked => "masked",
            FaultOutcome::Corrected => "corrected",
            FaultOutcome::Undetected => "undetected",
            FaultOutcome::Panicked => "panicked",
        }
    }
}

/// One fault with its verdict.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// The injected fault.
    pub fault: Fault,
    /// Whether the faulted bit was marked used in the pristine bitstream.
    pub used: bool,
    /// The verifier's verdict.
    pub outcome: FaultOutcome,
}

/// Campaign result: verdict counters plus the full per-fault log.
#[derive(Debug, Clone)]
pub struct FaultCampaignReport {
    /// Name of the reference design.
    pub design: String,
    /// Campaign seed.
    pub seed: u64,
    /// Per-fault records, in injection order.
    pub records: Vec<FaultRecord>,
}

impl FaultCampaignReport {
    /// Faults with the given verdict.
    pub fn count(&self, outcome: FaultOutcome) -> usize {
        self.records.iter().filter(|r| r.outcome == outcome).count()
    }

    /// `true` when every fault was detected, masked-with-proof or
    /// ECC-corrected and nothing panicked — the campaign's pass condition.
    pub fn all_accounted_for(&self) -> bool {
        self.count(FaultOutcome::Undetected) == 0 && self.count(FaultOutcome::Panicked) == 0
    }

    /// Deterministic JSON view (insertion-ordered keys, no timestamps).
    pub fn to_json(&self) -> Json {
        let records: Vec<Json> = self
            .records
            .iter()
            .map(|r| {
                Json::obj([
                    ("kind", Json::from(r.fault.kind.label())),
                    ("bit", Json::from(r.fault.bit)),
                    ("used", Json::from(r.used)),
                    ("outcome", Json::from(r.outcome.label())),
                ])
            })
            .collect();
        Json::obj([
            ("design", Json::from(self.design.as_str())),
            ("seed", Json::from(self.seed)),
            ("faults", Json::from(self.records.len())),
            ("detected", Json::from(self.count(FaultOutcome::Detected))),
            ("masked", Json::from(self.count(FaultOutcome::Masked))),
            ("corrected", Json::from(self.count(FaultOutcome::Corrected))),
            (
                "undetected",
                Json::from(self.count(FaultOutcome::Undetected)),
            ),
            ("panics", Json::from(self.count(FaultOutcome::Panicked))),
            ("records", Json::Arr(records)),
        ])
    }
}

/// Derives the seeded fault list. Sequential on purpose: the list must not
/// depend on how the campaign is later scheduled.
///
/// `code_space` is the frame-codeword bit space
/// (`frame_count * FRAME_TOTAL_BITS`); frame faults index into it, flat
/// faults into the bitstream.
fn fault_list(bitstream: &Bitstream, code_space: usize, faults: usize, seed: u64) -> Vec<Fault> {
    let used_bits: Vec<usize> = (0..bitstream.len())
        .filter(|&i| bitstream.is_used(i))
        .collect();
    let mut rng = Rng::seed_from_u64(seed);
    (0..faults)
        .map(|_| {
            let kind = match rng.bounded(8) {
                0 => FaultKind::BitFlip,
                1 => FaultKind::StuckAt0,
                2 => FaultKind::StuckAt1,
                3 if !used_bits.is_empty() => FaultKind::KeyFlip,
                3 => FaultKind::BitFlip,
                4 => FaultKind::FrameFlip,
                5 => FaultKind::FrameDouble,
                6 => FaultKind::FrameStuck0,
                _ => FaultKind::FrameStuck1,
            };
            let bit = if kind == FaultKind::KeyFlip {
                used_bits[rng.bounded(used_bits.len() as u64) as usize]
            } else if kind.is_frame() {
                rng.bounded(code_space.max(1) as u64) as usize
            } else {
                rng.bounded(bitstream.len().max(1) as u64) as usize
            };
            Fault { kind, bit }
        })
        .collect()
}

/// Applies `fault` to `bits`; returns `false` when the write was a no-op
/// (the bit already held the forced value).
fn apply(bits: &mut Bitstream, fault: Fault) -> bool {
    let old = bits.bit(fault.bit);
    let new = match fault.kind {
        FaultKind::BitFlip | FaultKind::KeyFlip => !old,
        FaultKind::StuckAt0 => false,
        FaultKind::StuckAt1 => true,
        _ => unreachable!("frame fault routed to the flat-bit path"),
    };
    bits.set(fault.bit, new);
    new != old
}

/// Runs a seeded campaign of `faults` faults against a configured fabric.
///
/// `reference` is the netlist PnR verified the pristine configuration
/// against (the mapped sub-circuit); `fabric`, `bitstream` and `io_map`
/// come straight from a [`shell_pnr::PnrResult`]. Each fault perturbs a
/// fresh copy of the bitstream, re-derives the configured netlist, and
/// checks it against `reference` inside a panic guard.
pub fn fault_campaign(
    reference: &Netlist,
    fabric: &Fabric,
    bitstream: &Bitstream,
    io_map: &IoMap,
    faults: usize,
    seed: u64,
) -> FaultCampaignReport {
    let _span = shell_trace::span!("verify.fault_campaign");
    let framed =
        FramedBitstream::from_flat(fabric, bitstream).expect("PnR bitstream packs into frames");
    let geometry = *framed.geometry();
    let code_space = geometry.frame_count() * FRAME_TOTAL_BITS;
    let list = fault_list(bitstream, code_space, faults, seed);
    let records = shell_exec::parallel_map(&list, |&fault| {
        let used = if fault.kind.is_frame() {
            // A frame fault touches 32 flat bits at once: report whether
            // any of them is load-bearing.
            let addr = geometry.address_at(fault.bit / FRAME_TOTAL_BITS);
            let (start, end) = geometry.bit_range(addr).expect("valid address");
            (start..end).any(|i| bitstream.is_used(i))
        } else {
            bitstream.is_used(fault.bit)
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if fault.kind.is_frame() {
                classify_frame(&framed, fault)
            } else {
                classify(reference, fabric, bitstream, io_map, fault)
            }
        }))
        .unwrap_or(FaultOutcome::Panicked);
        FaultRecord {
            fault,
            used,
            outcome,
        }
    });
    FaultCampaignReport {
        design: reference.name().to_string(),
        seed,
        records,
    }
}

fn classify(
    reference: &Netlist,
    fabric: &Fabric,
    bitstream: &Bitstream,
    io_map: &IoMap,
    fault: Fault,
) -> FaultOutcome {
    let mut bits = bitstream.clone();
    if !apply(&mut bits, fault) {
        // Forcing a bit to the value it already holds cannot corrupt
        // anything: masked by construction.
        return FaultOutcome::Masked;
    }
    let configured = match to_configured_netlist(fabric, &bits, io_map) {
        Ok(n) => n,
        // The faulted bitstream no longer describes a readable
        // configuration — verification caught it at the structural stage.
        Err(_) => return FaultOutcome::Detected,
    };
    if reference.is_combinational() && configured.topo_order().is_err() {
        // The fault closed a combinational loop; structurally detected
        // (and exhaustive evaluation would not terminate meaningfully).
        return FaultOutcome::Detected;
    }
    let exhaustive = reference.is_combinational()
        && configured.is_combinational()
        && reference.inputs().len() <= EXHAUSTIVE_INPUT_LIMIT;
    let outcome = if exhaustive {
        equiv_exhaustive(reference, &configured, &[], &[])
    } else if reference.is_combinational() && configured.is_combinational() {
        equiv_random(
            reference,
            &configured,
            &[],
            &[],
            SAMPLE_VECTORS,
            seed_of(fault),
        )
    } else {
        // A fault that flips the sequential/combinational character of the
        // design is a detected structural change.
        return FaultOutcome::Detected;
    };
    match outcome {
        EquivResult::Equivalent if exhaustive => FaultOutcome::Masked,
        EquivResult::Equivalent if !bitstream.is_used(fault.bit) => {
            // Unused bits are don't-cares by the shrink step's own
            // accounting; sampled equivalence plus the usage mask is an
            // acceptable proof.
            FaultOutcome::Masked
        }
        EquivResult::Equivalent => FaultOutcome::Undetected,
        _ => FaultOutcome::Detected,
    }
}

/// Classifies a frame-codeword tamper against the SECDED contract:
///
/// * single flips (and effective stuck-ats) must decode to the pristine
///   payload with a correction witness → [`FaultOutcome::Corrected`];
/// * double flips must be refused by the decoder →
///   [`FaultOutcome::Detected`]; a decoder that *accepts* one is the
///   campaign failure → [`FaultOutcome::Undetected`];
/// * a stuck-at forcing a bit to the value it already holds is
///   [`FaultOutcome::Masked`] by construction.
fn classify_frame(framed: &FramedBitstream, fault: Fault) -> FaultOutcome {
    let geometry = framed.geometry();
    let frame = fault.bit / FRAME_TOTAL_BITS;
    let bit = (fault.bit % FRAME_TOTAL_BITS) as u32;
    let addr = geometry.address_at(frame);
    let code = framed.frame_code(addr).expect("valid address");
    let pristine = match decode_frame(code, frame) {
        Ok(rb) => rb,
        // A pristine frame that does not decode would be a packing bug;
        // it is still *caught*, so it cannot count as silent.
        Err(_) => return FaultOutcome::Detected,
    };
    let tampered = match fault.kind {
        FaultKind::FrameFlip => code ^ (1u64 << bit),
        FaultKind::FrameDouble => {
            // Deterministic second position, never equal to the first.
            let delta = 1 + (bit as usize % (FRAME_TOTAL_BITS - 1)) as u32;
            let second = (bit + delta) % FRAME_TOTAL_BITS as u32;
            code ^ (1u64 << bit) ^ (1u64 << second)
        }
        FaultKind::FrameStuck0 | FaultKind::FrameStuck1 => {
            let forced = fault.kind == FaultKind::FrameStuck1;
            if (code >> bit) & 1 == u64::from(forced) {
                return FaultOutcome::Masked;
            }
            code ^ (1u64 << bit)
        }
        _ => unreachable!("flat fault routed to classify_frame"),
    };
    match decode_frame(tampered, frame) {
        // SECDED says a double upset must never decode: acceptance is the
        // silent failure the campaign exists to catch.
        Ok(_) if fault.kind == FaultKind::FrameDouble => FaultOutcome::Undetected,
        Ok(rb) if rb.corrected.is_some() && rb.data == pristine.data => FaultOutcome::Corrected,
        Ok(_) => FaultOutcome::Undetected,
        Err(_) => FaultOutcome::Detected,
    }
}

/// Per-fault sampling seed: decorrelates the Monte-Carlo vectors of
/// different faults without global state.
fn seed_of(fault: Fault) -> u64 {
    (fault.bit as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(fault.kind.label().len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_pnr::{place_and_route, PnrOptions};
    use shell_synth::lut_map;

    fn small_pnr() -> (Netlist, shell_pnr::PnrResult) {
        let design = shell_circuits::ripple_adder(2);
        let mapped = lut_map(&design, 4).expect("acyclic").netlist;
        let result = place_and_route(
            &mapped,
            shell_fabric::FabricConfig::fabulous_style(false),
            &PnrOptions::default(),
        )
        .expect("fits");
        (mapped, result)
    }

    #[test]
    fn campaign_accounts_for_every_fault() {
        let (mapped, pnr) = small_pnr();
        let report = fault_campaign(
            &mapped,
            &pnr.fabric,
            &pnr.bitstream,
            &pnr.io_map,
            64,
            0xFA017,
        );
        assert_eq!(report.records.len(), 64);
        assert!(
            report.all_accounted_for(),
            "undetected={} panics={}",
            report.count(FaultOutcome::Undetected),
            report.count(FaultOutcome::Panicked)
        );
        // Key flips must actually corrupt: at least one detection.
        assert!(report.count(FaultOutcome::Detected) > 0);
    }

    #[test]
    fn campaign_report_is_deterministic() {
        let (mapped, pnr) = small_pnr();
        let run = || {
            fault_campaign(&mapped, &pnr.fabric, &pnr.bitstream, &pnr.io_map, 24, 7)
                .to_json()
                .to_string_pretty()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn frame_faults_honor_the_secded_contract() {
        let (_, pnr) = small_pnr();
        let framed = FramedBitstream::from_flat(&pnr.fabric, &pnr.bitstream).expect("packs");
        let code_space = framed.geometry().frame_count() * FRAME_TOTAL_BITS;
        // Every single flip anywhere in the codeword space is corrected.
        for bit in [0usize, 1, 46, 47, code_space - 1] {
            assert_eq!(
                classify_frame(
                    &framed,
                    Fault {
                        kind: FaultKind::FrameFlip,
                        bit
                    }
                ),
                FaultOutcome::Corrected,
                "bit {bit}"
            );
        }
        // Every double flip is detected, never silently accepted.
        for bit in [0usize, 13, 46, code_space / 2, code_space - 1] {
            assert_eq!(
                classify_frame(
                    &framed,
                    Fault {
                        kind: FaultKind::FrameDouble,
                        bit
                    }
                ),
                FaultOutcome::Detected,
                "bit {bit}"
            );
        }
        // A stuck-at matching the stored bit is masked; the opposite
        // polarity behaves like a flip and gets corrected.
        let addr = framed.geometry().address_at(0);
        let held = framed.code_bit(addr, 3).unwrap();
        let (same, other) = if held {
            (FaultKind::FrameStuck1, FaultKind::FrameStuck0)
        } else {
            (FaultKind::FrameStuck0, FaultKind::FrameStuck1)
        };
        assert_eq!(
            classify_frame(&framed, Fault { kind: same, bit: 3 }),
            FaultOutcome::Masked
        );
        assert_eq!(
            classify_frame(
                &framed,
                Fault {
                    kind: other,
                    bit: 3
                }
            ),
            FaultOutcome::Corrected
        );
    }

    #[test]
    fn campaign_mixes_in_frame_faults() {
        let (mapped, pnr) = small_pnr();
        let report = fault_campaign(
            &mapped,
            &pnr.fabric,
            &pnr.bitstream,
            &pnr.io_map,
            96,
            0xF4A3E,
        );
        assert!(report.all_accounted_for());
        let frame_faults = report
            .records
            .iter()
            .filter(|r| r.fault.kind.is_frame())
            .count();
        assert!(frame_faults > 0, "the mix must include frame tampers");
        assert!(
            report.count(FaultOutcome::Corrected) > 0,
            "single-bit upsets must be ECC-corrected"
        );
        let json = report.to_json();
        assert_eq!(
            json.get("corrected").and_then(Json::as_usize),
            Some(report.count(FaultOutcome::Corrected))
        );
    }

    #[test]
    fn stuck_at_matching_value_is_masked() {
        let (mapped, pnr) = small_pnr();
        let bit = 0;
        let kind = if pnr.bitstream.bit(bit) {
            FaultKind::StuckAt1
        } else {
            FaultKind::StuckAt0
        };
        let outcome = classify(
            &mapped,
            &pnr.fabric,
            &pnr.bitstream,
            &pnr.io_map,
            Fault { kind, bit },
        );
        assert_eq!(outcome, FaultOutcome::Masked);
    }
}
