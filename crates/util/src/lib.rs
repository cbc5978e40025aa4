//! `shell-util` — the dependency-free substrate under the SheLL workspace.
//!
//! The build environment is hermetic (no crates.io access), and the paper's
//! evaluation only reproduces if every run is deterministic and
//! self-contained. This crate supplies the three pieces the workspace used
//! external crates for, with exactly the API surface the repo needs:
//!
//! | module    | replaces    | provides                                          |
//! |-----------|-------------|---------------------------------------------------|
//! | [`rng`]   | `rand`      | SplitMix64-seeded xoshiro256** ([`Rng`])          |
//! | [`prop`]  | `proptest`  | [`forall`] seeded property harness with shrinking |
//! | [`json`]  | `serde`     | [`Json`] value, writer and parser                 |
//!
//! Everything is pure `std`; there is no global state, no OS entropy, and
//! no wall-clock input anywhere.
//!
//! # Example
//!
//! ```
//! use shell_util::{Json, Rng};
//!
//! // Seeded PRNG: the same seed always replays the same stream.
//! let mut a = Rng::seed_from_u64(42);
//! let mut b = Rng::seed_from_u64(42);
//! assert_eq!(a.gen_range(0..1000), b.gen_range(0..1000));
//!
//! // JSON with insertion-ordered keys: artifacts are byte-reproducible.
//! let doc = Json::obj([
//!     ("design", Json::Str("axi_xbar".into())),
//!     ("luts", Json::Num(128.0)),
//! ]);
//! let text = doc.to_string_compact();
//! assert_eq!(Json::parse(&text).unwrap(), doc);
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod prop;
pub mod rng;

pub use json::{Json, MAX_PARSE_DEPTH};
pub use prop::{forall, shrink_to_minimal, Shrink};
pub use rng::{split_mix64, Rng};
