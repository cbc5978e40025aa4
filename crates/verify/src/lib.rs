//! `shell-verify` — the verification stack of the SheLL reproduction.
//!
//! Simulation-based equivalence checking (in `shell-netlist`) can only
//! *find* counterexamples on wide designs; this crate adds the exact side:
//!
//! * [`equiv_sat()`] — combinational equivalence by SAT miter, built on the
//!   same [`shell_sat::encode_miter`] CNF the oracle-guided SAT attack
//!   uses. UNSAT is a proof; a model is replayed through simulation before
//!   being reported as a counterexample.
//! * [`equiv_sat_bounded`] — bounded sequential equivalence by time-frame
//!   expansion from the all-zero reset state.
//! * [`fault`] — the seeded fault-injection campaign: bit-flips and
//!   stuck-at faults injected into configured bitstreams, every faulted
//!   configuration re-verified inside a panic guard and classified as
//!   detected / corrected / masked-with-proof / undetected / panicked,
//! * [`fuzz`] — the differential flow fuzzer: seeded random netlists pushed
//!   through LUT-map → place-and-route → bitstream → fabric emulation →
//!   lock → activate, with every stage boundary miter-checked, mismatches
//!   delta-shrunk, and replayable JSON artifacts written.
//!
//! `shell-netlist` sits below this crate, so its [`Method::Sat`] dispatches
//! through a backend registry: call [`install`] once at startup (the `fuzz`
//! binary and the PnR verification path rely on it) and every
//! `equiv(.., Method::Sat)` call anywhere in the workspace resolves to
//! [`equiv_sat()`].
//!
//! [`Method::Sat`]: shell_netlist::Method

#![warn(missing_docs)]

pub mod equiv_sat;
pub mod fault;
pub mod fuzz;

pub use equiv_sat::{equiv_sat, equiv_sat_bounded};
pub use fault::{
    fault_campaign, Fault, FaultCampaignReport, FaultKind, FaultOutcome, FaultRecord,
};
pub use fuzz::{
    replay_artifact, run_pipeline, FuzzConfig, FuzzReport, FuzzSpec, SampleReport, SampleStatus,
};

/// Registers [`equiv_sat()`] as the process-wide backend for
/// [`shell_netlist::Method::Sat`]. Idempotent; returns `false` only if a
/// *different* backend was installed first.
pub fn install() -> bool {
    shell_netlist::install_sat_backend(equiv_sat)
}

#[cfg(test)]
mod tests {
    use shell_netlist::{equiv, CellKind, Method, Netlist};

    #[test]
    fn install_routes_method_sat() {
        assert!(super::install());
        assert!(shell_netlist::sat_backend_installed());
        let mut a = Netlist::new("a");
        let i = a.add_input("i");
        let o = a.add_cell("n", CellKind::Not, vec![i]);
        a.add_output("o", o);
        let b = a.clone();
        assert!(equiv(&a, &b, &[], &[], Method::Sat).is_equivalent());
    }
}
