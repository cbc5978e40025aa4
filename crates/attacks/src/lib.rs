//! Attack suite for evaluating locked designs — the resilience side of every
//! table in the paper.
//!
//! * [`sat_attack()`](sat_attack::sat_attack) — the oracle-guided key-recovery SAT attack \[6\]: a miter
//!   of two locked-circuit copies with shared inputs and independent keys
//!   yields *distinguishing input patterns* (DIPs); each DIP is resolved
//!   against the oracle and added as an IO constraint until no DIP remains,
//!   at which point any consistent key is functionally correct. One
//!   persistent solver (learned clauses included) serves all DIP iterations
//!   and key extraction, and a checkpointed run resumes by replaying its DIP
//!   prefix; a conflict and iteration budget reproduces the paper's 48-hour
//!   timeout at this scale.
//! * [`cyclic_reduction`] — the preprocessing of \[26\]: combinational cycles
//!   introduced by eFPGA routing are cut before encoding, mirroring how an
//!   attacker rules out cyclical configurations. Cutting can sever paths the
//!   true key needs — the attack then recovers a wrong key, which the
//!   verification step reports.
//! * [`scan_frame`] — the full-scan threat model: flip-flops become
//!   pseudo-ports so one combinational frame is attacked, exactly what a
//!   fully scanned chip exposes. [`attack_scan_frames`] is the standard
//!   pipeline the harnesses share: frame both designs, reduce a cyclic
//!   lock, attack.
//! * [`removal_attack`] — the Xbar-replacement attack SheLL's LGC twisting
//!   defends against: the adversary replaces the whole redacted fabric with
//!   a guessed plain implementation and checks the result against the
//!   oracle.
//! * [`structural`] — an UNTANGLE-flavored \[8\] structural stand-in: key
//!   muxes of routing-locked netlists are guessed from graph features,
//!   demonstrating why *localized* MUX locking (Fig. 1c) falls to ML-style
//!   attacks.

pub mod cyclic;
pub mod removal;
pub mod sat_attack;
pub mod structural;

pub use cyclic::{cyclic_reduction, cyclic_reduction_budgeted, CyclicReductionReport};
pub use removal::{removal_attack, RemovalOutcome};
pub use sat_attack::{
    attack_scan_frames, sat_attack, sat_attack_report, scan_frame, try_scan_frame, xor_lock_cells,
    xor_lock_outputs, AttackCheckpoint, AttackReport, SatAttackOptions, SatAttackOutcome,
    ScanError, DEFAULT_CONFLICT_QUOTA,
};
pub use structural::{structural_mux_attack, structural_mux_attack_budgeted, StructuralReport};
