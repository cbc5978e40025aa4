//! Logic synthesis for the SheLL reproduction (the Yosys stand-in).
//!
//! The paper calls Yosys twice (step 5 of Fig. 4): once to synthesize the
//! **LGC** sub-circuit into LUTs for the CLBs, and once to map the **ROUTE**
//! sub-circuit onto MUX chains instead of LUTs. This crate implements both
//! paths from scratch:
//!
//! * [`opt`] — technology-independent cleanup: constant propagation, buffer
//!   sweeping, structural hashing and dead-code elimination,
//! * [`decompose`] — reduction of variadic gates to a two-input network
//!   (the pre-mapping normal form),
//! * [`lutmap`] — cut-based k-LUT technology mapping (FlowMap-style
//!   depth-oriented cut selection, truth tables derived by cone simulation);
//!   its hybrid mode keeps the ROUTE mux cascades as muxes, which
//!   `shell_pnr` links into the fabric's MUX chains,
//! * [`estimate`] — the per-node LUT-resource database behind Table II's
//!   `LuTR` attribute.
//!
//! Every mapping pass preserves functionality; the test suites verify the
//! mapped netlists against the originals exhaustively or by Monte-Carlo.

pub mod decompose;
pub mod error;
pub mod estimate;
pub mod lutmap;
pub mod opt;

pub use decompose::{decompose_keeping_mux4, decompose_to_two_input};
pub use error::SynthError;
pub use estimate::estimate_luts_for_kind;
pub use lutmap::{lut_map, lut_map_hybrid, LutMapping};
pub use opt::{
    clean_netlist, dead_code_elimination, propagate_constants_cyclic, rebuild_resolved, resolve,
    resolve_cell, Resolution, CYCLIC_PROPAGATION_ROUNDS,
};
