//! **shell-lock** — the SheLL framework: shrinking eFPGA fabrics for logic
//! locking (DATE 2023 reproduction).
//!
//! The crate implements the full 8-step pipeline of Fig. 4 plus everything
//! the evaluation compares against:
//!
//! 1. **Connectivity & modular analysis** — netlist → connectivity graph
//!    ([`shell_netlist::graph`]),
//! 2. **Connectivity scoring** — Eq. 1 over the Table II attributes
//!    ([`score`]),
//! 3. **Sub-circuit selection** — the (i)–(iv) rules, ROUTE-first with
//!    neighboring LGC at a configurable depth ([`select`]),
//! 4. **Decoupling LGC and ROUTE** — partitioning the design into the
//!    sub-circuit to redact and the host with a fabric-shaped hole
//!    ([`decouple`]),
//! 5. **Dual synthesis** — MUX chains for ROUTE, LUTs for LGC,
//! 6. **Fabric creation and mapping** — both delegated to [`shell_pnr`]'s
//!    chain flow,
//! 7. **Fit check** — its expand-on-misfit loop,
//! 8. **Shrinking** — unused configuration hardened to constants
//!    ([`shell_fabric::shrink`]).
//!
//! [`pipeline::shell_lock`] runs the whole flow; [`baselines`] provides the
//! paper's comparison cases (no-strategy/filtering × OpenFPGA/FABulous);
//! [`taxonomy`] implements the Fig. 1 locking family (LUT insertion, MUX
//! routing locking, MUX+LUT locking) for the robustness ladder; and
//! [`overhead`] prices any outcome in normalized area/power/delay against
//! the original design.

pub mod baselines;
pub mod decouple;
pub mod explore;
pub mod overhead;
pub mod pipeline;
pub mod score;
pub mod select;
pub mod taxonomy;

pub use baselines::{redact_baseline, BaselineCase};
pub use decouple::{partition_by_cells, RedactionPartition};
pub use explore::{corruption_rate, optimize_coefficients};
pub use overhead::{evaluate_overhead, Overhead};
pub use pipeline::{
    activate, activate_with_key, shell_lock, shell_lock_cells, shell_lock_cells_with_fabric,
    shell_lock_design, shell_lock_with_fabric, RedactionOutcome, ShellOptions,
};
pub use score::{score_cells, CellScore, Coefficients};
pub use select::{select_subcircuit, SelectionOptions, SelectionResult};
pub use taxonomy::{
    lock_lut_heuristic, lock_lut_random, lock_mux_lut, lock_mux_routing, LockedDesign,
};
