//! Gate-level netlist intermediate representation for the SheLL reproduction.
//!
//! This crate plays the role that **Yosys RTLIL + FIRRTL + PyVerilog** play in
//! the paper's flow: it is the circuit data structure every other subsystem
//! operates on. It provides
//!
//! * a flat gate-level [`Netlist`] of [`Cell`]s connected by [`Net`]s, with
//!   named primary inputs/outputs, *key* inputs (for locking) and single-clock
//!   sequential elements (DFFs and transparent latches),
//! * a hierarchical [`Design`] of modules and instances with
//!   flatten/uniquify (step 1 of Fig. 4 flattens and uniquifies the design
//!   before connectivity analysis),
//! * a levelized, event-free [`sim::Simulator`] for combinational and
//!   sequential functional simulation (this is the "oracle" of the threat
//!   model — the activated chip with full scan access),
//! * equivalence checking ([`equiv()`](equiv::equiv)) — exhaustive for small cones, Monte
//!   Carlo for larger ones (the JasperGold stand-in),
//! * a structural-Verilog subset writer and parser ([`verilog`]),
//! * a word-level [`builder::NetlistBuilder`] that unit tests build small
//!   datapaths with, and
//! * conversion to the connectivity graph ([`graph::to_graph`]) consumed by
//!   SheLL's selection pipeline.
//!
//! # Example
//!
//! ```
//! use shell_netlist::{Netlist, CellKind};
//!
//! // Build f = a AND (NOT b).
//! let mut n = Netlist::new("demo");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let nb = n.add_cell("nb", CellKind::Not, vec![b]);
//! let f = n.add_cell("f", CellKind::And, vec![a, nb]);
//! n.add_output("f", f);
//! assert_eq!(n.eval_comb(&[true, false]), vec![true]);
//! ```

pub mod builder;
pub mod cell;
pub mod equiv;
pub mod graph;
pub mod hierarchy;
pub mod netlist;
pub mod sim;
pub mod stats;
pub mod verilog;

pub use builder::NetlistBuilder;
pub use cell::{CellKind, LutMask};
pub use equiv::{
    equiv, equiv_exhaustive, equiv_random, equiv_sequential_random, shape_check, EquivResult,
    Method,
};
pub use hierarchy::{Design, Instance, ModuleDef, PortBinding};
pub use netlist::{Cell, CellId, Net, NetId, Netlist, NetlistError};
pub use sim::Simulator;
pub use stats::NetlistStats;
