//! **shell-explore** — fabric design-space exploration for eFPGA redaction.
//!
//! The papers behind this repo agree the fabric parameters *are* the
//! security/cost dial of eFPGA logic locking: a bigger or stranger fabric
//! resists the SAT attack longer but ships more silicon. This crate makes
//! that trade-off measurable. A [`SweepGrid`] enumerates fabric
//! configurations (LUT arity, channel width, switch-box topology,
//! MUX-chain length, array-dimension floor); [`run_sweep`] pushes every
//! point through the full lock → overhead-pricing → budgeted-SAT-attack
//! flow on the `shell-exec` worker pool; [`pareto_front`] keeps the
//! non-dominated points (resilience vs area/power/delay); and
//! [`pick_fabric`] answers the ARIANNA-style question directly: *the
//! smallest fabric that survives attack budget B on this circuit*.
//!
//! Sweeps are deterministic (fixed seed, conflict-quota attack budgets,
//! index-ordered merges: the same inputs give byte-identical reports at
//! any `SHELL_JOBS`), journaled (each finished point is atomically
//! committed to `journal_dir`, so an interrupted sweep resumes instead of
//! restarting), budgeted (a sweep-level [`shell_guard::Budget`] is honored
//! between points and inside each lock flow) and traced (`explore.*`
//! spans/counters, see `OBSERVABILITY.md`).
//!
//! # Example
//!
//! A two-point sweep over chain length on a small mux tree, then the
//! auto-customizer verdict:
//!
//! ```
//! use shell_explore::{pick_from_report, run_sweep, SweepGrid, SweepOptions};
//!
//! let design = shell_circuits::mux_tree_circuit(4, 2);
//! let grid = SweepGrid {
//!     lut_k: vec![4],
//!     channel_width: vec![16],
//!     switchbox: vec![shell_explore::Switchbox::Mux4Tree],
//!     chain_len: vec![0, 4],
//!     min_dims: vec![(2, 2)],
//! };
//! let opts = SweepOptions {
//!     attack_quota: 2_000, // budget B: solver conflicts per point
//!     max_attack_iterations: 8,
//!     ..SweepOptions::default()
//! };
//! let report = run_sweep(&design, &grid, &opts).expect("sweep completes");
//! assert_eq!(report.points.len(), 2);
//! assert!(!report.front().is_empty(), "the front is never empty");
//! // The smallest fabric surviving budget B, if any point survived:
//! if let Some(pick) = pick_from_report(&report) {
//!     assert!(pick.verdict.survived());
//! }
//! ```

#![warn(missing_docs)]

pub mod customize;
pub mod grid;
pub mod pareto;
pub mod sweep;

pub use customize::{pick_fabric, pick_from_report};
pub use grid::{FabricPoint, SweepGrid, Switchbox, MAX_POINTS};
pub use pareto::{dominates, pareto_front, pareto_json, resilience_score};
pub use sweep::{run_sweep, PointResult, PointVerdict, SweepError, SweepOptions, SweepReport};
