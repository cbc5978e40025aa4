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
//!   depth-oriented cut selection, truth tables derived by cone simulation),
//! * [`muxchain`] — MUX-chain extraction for ROUTE circuits: adjacent 2:1
//!   muxes are packed into 4:1 chain elements matching the FABulous switch
//!   architecture of \[21\],
//! * [`estimate`] — the per-node LUT-resource database behind Table II's
//!   `LuTR` attribute.
//!
//! Every mapping pass preserves functionality; the test suites verify the
//! mapped netlists against the originals exhaustively or by Monte-Carlo.

pub mod decompose;
pub mod error;
pub mod estimate;
pub mod lutmap;
pub mod muxchain;
pub mod opt;

pub use decompose::{decompose_keeping_mux4, decompose_to_two_input};
pub use error::SynthError;
pub use estimate::{estimate_luts_for_kind, estimate_luts_for_netlist, LutEstimator};
pub use lutmap::{lut_map, lut_map_hybrid, LutMapping};
pub use muxchain::{mux_chain_map, MuxChainMapping};
pub use opt::{
    clean_netlist, constant_propagation, dead_code_elimination, propagate_constants_cyclic,
    rebuild_resolved, resolve, resolve_cell, structural_hash, sweep_buffers, Resolution,
    CYCLIC_PROPAGATION_ROUNDS,
};
