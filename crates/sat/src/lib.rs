//! A from-scratch CDCL SAT solver and circuit-to-CNF encoding.
//!
//! Every robustness claim in the paper is phrased against the **SAT attack**
//! \[6\] and its cyclic-reduction variant \[26\]; reproducing the evaluation
//! therefore requires a SAT solver. This crate provides
//!
//! * [`Cnf`] — a clause container with DIMACS import/export,
//! * [`Solver`] — an incremental CDCL solver (two-watched-literal scheme,
//!   VSIDS branching, first-UIP clause learning, geometric restarts, phase
//!   saving, solve-under-assumptions, and a conflict budget so attacks can
//!   time out the way the paper's 48-hour limit does),
//! * [`tseitin`] — the Tseitin transformation from a combinational
//!   [`shell_netlist::Netlist`] to CNF, with variable maps for primary
//!   inputs, key inputs and outputs (the raw material of the attack miter),
//! * [`miter`] — the shared miter construction over two encoded copies:
//!   the SAT attack's DIP mining and `shell-verify`'s equivalence proofs
//!   both build on [`encode_miter`].
//!
//! # Example
//!
//! ```
//! use shell_sat::{Solver, Lit, SatResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! // (a ∨ b) ∧ (¬a ∨ b) ∧ (¬b ∨ a) — forces a = b = true.
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(b), Lit::pos(a)]);
//! assert_eq!(s.solve(), SatResult::Sat);
//! assert_eq!(s.value(a), Some(true));
//! assert_eq!(s.value(b), Some(true));
//! ```

pub mod cnf;
pub mod miter;
pub mod solver;
pub mod tseitin;

pub use cnf::{Cnf, Lit, Var};
pub use miter::{constrain_some_output_differs, encode_miter, encode_miter_gated, Miter};
pub use solver::{SatResult, Solver, SolverStats};
pub use tseitin::{encode_cell, encode_netlist, CircuitCnf};
