//! Place and route for the modeled eFPGA fabrics (the VPR/nextPNR stand-in).
//!
//! Steps 6–7 of the SheLL flow map synthesized sub-circuits onto a fabric
//! and check the fit, expanding the fabric when placement or routing fails.
//! This crate implements that pipeline from scratch:
//!
//! * [`place`] — packing of LUT/DFF cells into CLB slots, simulated-annealing
//!   placement minimizing an integer cost (half-perimeter wirelength, plus
//!   penalties for tiles claiming more nets than their tracks carry and for
//!   slots on chain tiles) priced incrementally per move, and boundary IO
//!   pad assignment,
//! * [`route`] — a PathFinder-style negotiated-congestion router over the
//!   fabric's track graph (one signal per track node, history + present
//!   congestion costs, rip-up and re-route iterations),
//! * [`flow`] — the complete flows:
//!   [`flow::place_and_route`] for LUT-mapped (LGC) netlists, and
//!   [`flow::place_and_route_with_chains`] for ROUTE netlists whose mux
//!   cascades map onto the FABulous-style chain blocks; both emit a
//!   [`shell_fabric::Bitstream`] and are verified by comparing
//!   [`shell_fabric::to_configured_netlist`] against the input netlist, and
//!   both include the fit-check/expand loop of step 7.

pub mod flow;
pub mod place;
pub mod route;

pub use flow::{place_and_route, place_and_route_with_chains, PnrError, PnrOptions, PnrResult};
pub use place::{PlaceRequest, Placement, Slot, SlotContent};
pub use route::{RouteError, RouteRequest, Router, SinkKind, SourceKind};
