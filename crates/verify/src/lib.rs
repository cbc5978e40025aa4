//! `shell-verify` — the verification campaigns of the SheLL reproduction.
//!
//! The equivalence checks themselves live below this crate: sampling and
//! exhaustive simulation in `shell-netlist`, the SAT miter proofs
//! ([`shell_sat::equiv_sat()`], [`shell_sat::equiv_sat_bounded`]) in
//! `shell-sat`. This crate runs them at scale:
//!
//! * [`fault`] — the seeded fault-injection campaign: bit-flips and
//!   stuck-at faults injected into configured bitstreams, every faulted
//!   configuration re-verified inside a panic guard and classified as
//!   detected / corrected / masked-with-proof / undetected / panicked,
//! * [`fuzz`] — the differential flow fuzzer: seeded random netlists pushed
//!   through LUT-map → place-and-route → bitstream → fabric emulation →
//!   lock → activate, with every stage boundary miter-checked, mismatches
//!   delta-shrunk, and replayable JSON artifacts written.

#![warn(missing_docs)]

pub mod fault;
pub mod fuzz;

pub use fault::{fault_campaign, Fault, FaultCampaignReport, FaultKind, FaultOutcome, FaultRecord};
pub use fuzz::{
    replay_artifact, run_pipeline, FuzzConfig, FuzzReport, FuzzSpec, SampleReport, SampleStatus,
};
