//! `shell-exec` — zero-dependency scoped parallelism for the SheLL workspace.
//!
//! The hermetic-build rule forbids `rayon`; this crate supplies the slice of
//! it the workspace needs, on nothing but `std::thread`:
//!
//! * [`parallel_map`] / [`parallel_map_grain`] — map a slice through a pure
//!   function on a scoped work-stealing pool, with **index-ordered
//!   deterministic reduction**: results are merged in input order, so the
//!   output `Vec` is byte-identical to `items.iter().map(f).collect()`
//!   regardless of the worker count or the interleaving of the steals.
//!
//! The worker count resolves through [`current_jobs`]: an in-process
//! override ([`with_jobs`], used by tests and the bench harnesses) wins over
//! the `SHELL_JOBS` environment variable, which wins over
//! [`std::thread::available_parallelism`]. At `jobs = 1` every entry point
//! degrades to a plain sequential loop on the calling thread — no threads
//! are spawned at all — which is both the reproducibility story (CI pins
//! `SHELL_JOBS=1`) and the proof obligation: parallel output must equal that
//! sequential fallback bit for bit.
//!
//! A panic on any worker is captured, the pool drains, and the first panic
//! payload is re-raised on the calling thread, so `parallel_map(f)` panics
//! exactly when `map(f)` would.
//!
//! Determinism is the contract of the whole workspace (every artifact is a
//! pure function of its seed); callers must therefore pass **pure**
//! closures. The *evaluation order* across workers is unspecified — only
//! the merged result order is.
//!
//! # Example
//!
//! ```
//! let items: Vec<u64> = (0..100).collect();
//! let squares = shell_exec::parallel_map(&items, |&x| x * x);
//!
//! // The deterministic-merge contract: whatever the worker count, the
//! // result equals the sequential map, element for element.
//! let sequential = shell_exec::with_jobs(1, || {
//!     shell_exec::parallel_map(&items, |&x| x * x)
//! });
//! assert_eq!(squares, sequential);
//! assert_eq!(squares[7], 49);
//! ```

#![warn(missing_docs)]

mod jobs;
mod pool;

pub use jobs::{current_jobs, with_jobs};
pub use pool::{parallel_map, parallel_map_grain};
