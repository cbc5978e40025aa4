//! Job requests: what a client asks for, and how a request canonicalizes
//! into a cache key.
//!
//! The canonicalization is the load-bearing part. A request can name a
//! circuit two ways — a generator (`{"circuit": {"gen": "ripple_adder",
//! "width": 8}}`) or inline Verilog — and two spellings of the same design
//! must share a cache entry. So the key is **not** a hash of the request
//! JSON: [`JobRequest::resolve`] first *builds* the netlist, then hashes a
//! canonical structural document ([`canonical_netlist_json`]) together
//! with every parameter that deterministically affects the artifact: flow
//! version, job kind, seed, key bits, sample count, shrink flag, conflict
//! quota. The structural form is what makes the two spellings converge:
//! the Verilog parser introduces port buffers and renames internal wires,
//! so the canonical document first runs [`clean_netlist`] (buffer sweep to
//! a fixpoint) and then drops every *internal* net name in favor of
//! positional labels — port names and cell order survive the parse/write
//! round trip, internal names do not.
//!
//! Deliberately *excluded* from the key: `deadline_ms`. A wall-clock
//! deadline makes the outcome depend on machine speed, so it must not
//! address a deterministic cache — instead, results that were actually
//! stopped by the deadline (or by cancellation) are never stored (see
//! `job::run`).

use crate::cache::FLOW_VERSION;
use crate::hash::ContentHash;
use shell_circuits::{axi_xbar, c17, generate, mux_tree_circuit, ripple_adder, Benchmark, Scale};
use shell_explore::SweepGrid;
use shell_netlist::verilog::parse_verilog;
use shell_netlist::Netlist;
use shell_synth::clean_netlist;
use shell_util::Json;
use std::collections::HashMap;

/// What flow a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// The full SheLL redaction flow: select → decouple → map → shrink.
    Lock,
    /// XOR-lock the circuit, then run the SAT attack against it. The only
    /// long-running interruptible kind, so it is also the one that
    /// checkpoints for crash-resume.
    Attack,
    /// Lock, activate, and prove original ≡ activated.
    Verify,
    /// Differential pipeline fuzzing over random circuits (no input
    /// circuit; the request's `seed`/`samples` drive generation).
    Fuzz,
    /// Fabric design-space sweep (`shell-explore`): lock → price → attack
    /// every grid point, emit the Pareto front and the auto-customizer
    /// pick. Long-running like attacks, so it journals per-point progress
    /// for crash-resume.
    Explore,
}

impl JobKind {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            JobKind::Lock => "lock",
            JobKind::Attack => "attack",
            JobKind::Verify => "verify",
            JobKind::Fuzz => "fuzz",
            JobKind::Explore => "explore",
        }
    }

    /// Parses a wire label.
    ///
    /// # Errors
    ///
    /// Names the unknown label.
    pub fn from_label(s: &str) -> Result<Self, String> {
        match s {
            "lock" => Ok(JobKind::Lock),
            "attack" => Ok(JobKind::Attack),
            "verify" => Ok(JobKind::Verify),
            "fuzz" => Ok(JobKind::Fuzz),
            "explore" => Ok(JobKind::Explore),
            other => Err(format!(
                "unknown job kind `{other}` (expected lock|attack|verify|fuzz|explore)"
            )),
        }
    }
}

/// How a request names its input circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitSpec {
    /// The ISCAS c17 reference netlist.
    C17,
    /// `ripple_adder(width)`.
    RippleAdder {
        /// Adder width in bits.
        width: usize,
    },
    /// `mux_tree_circuit(words, width)`.
    MuxTree {
        /// Selectable words.
        words: usize,
        /// Word width.
        width: usize,
    },
    /// `axi_xbar(channels, width)`.
    AxiXbar {
        /// Channel count.
        channels: usize,
        /// Data width.
        width: usize,
    },
    /// A Table-III benchmark by name (PicoSoC/AES/FIR/SPMV/DLA) at the
    /// small evaluation scale.
    Bench {
        /// Benchmark name, case-insensitive.
        name: String,
    },
    /// Inline Verilog source, parsed server-side.
    Verilog {
        /// The module source text.
        src: String,
    },
}

impl CircuitSpec {
    /// Builds the netlist this spec names.
    ///
    /// # Errors
    ///
    /// Unknown benchmark names, unparsable Verilog, or degenerate
    /// generator parameters.
    pub fn build(&self) -> Result<Netlist, String> {
        match self {
            CircuitSpec::C17 => Ok(c17()),
            CircuitSpec::RippleAdder { width } => {
                if *width == 0 || *width > 256 {
                    return Err(format!("ripple_adder width {width} out of range 1..=256"));
                }
                Ok(ripple_adder(*width))
            }
            CircuitSpec::MuxTree { words, width } => {
                if *words < 2 || *words > 64 || *width == 0 || *width > 64 {
                    return Err(format!(
                        "mux_tree words={words} width={width} out of range (2..=64, 1..=64)"
                    ));
                }
                Ok(mux_tree_circuit(*words, *width))
            }
            CircuitSpec::AxiXbar { channels, width } => {
                if *channels == 0 || *channels > 16 || *width == 0 || *width > 64 {
                    return Err(format!(
                        "axi_xbar channels={channels} width={width} out of range (1..=16, 1..=64)"
                    ));
                }
                Ok(axi_xbar(*channels, *width))
            }
            CircuitSpec::Bench { name } => {
                let wanted = name.to_ascii_lowercase();
                Benchmark::all()
                    .into_iter()
                    .find(|b| b.name().to_ascii_lowercase() == wanted)
                    .map(|b| generate(b, Scale::small()))
                    .ok_or_else(|| format!("unknown benchmark `{name}`"))
            }
            CircuitSpec::Verilog { src } => {
                parse_verilog(src).map_err(|e| format!("verilog parse error: {e}"))
            }
        }
    }

    /// Wire form.
    pub fn to_json(&self) -> Json {
        match self {
            CircuitSpec::C17 => Json::obj([("gen", Json::from("c17"))]),
            CircuitSpec::RippleAdder { width } => Json::obj([
                ("gen", Json::from("ripple_adder")),
                ("width", Json::from(*width)),
            ]),
            CircuitSpec::MuxTree { words, width } => Json::obj([
                ("gen", Json::from("mux_tree")),
                ("words", Json::from(*words)),
                ("width", Json::from(*width)),
            ]),
            CircuitSpec::AxiXbar { channels, width } => Json::obj([
                ("gen", Json::from("axi_xbar")),
                ("channels", Json::from(*channels)),
                ("width", Json::from(*width)),
            ]),
            CircuitSpec::Bench { name } => Json::obj([
                ("gen", Json::from("bench")),
                ("name", Json::from(name.clone())),
            ]),
            CircuitSpec::Verilog { src } => Json::obj([("verilog", Json::from(src.clone()))]),
        }
    }

    /// Parses the wire form.
    ///
    /// # Errors
    ///
    /// Malformed or incomplete specs.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        if let Some(src) = json.get("verilog").and_then(Json::as_str) {
            return Ok(CircuitSpec::Verilog {
                src: src.to_string(),
            });
        }
        let gen = json
            .get("gen")
            .and_then(Json::as_str)
            .ok_or("circuit spec needs `gen` or `verilog`")?;
        let field = |k: &str| -> Result<usize, String> {
            json.get(k)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("circuit spec `{gen}` needs numeric `{k}`"))
        };
        match gen {
            "c17" => Ok(CircuitSpec::C17),
            "ripple_adder" => Ok(CircuitSpec::RippleAdder {
                width: field("width")?,
            }),
            "mux_tree" => Ok(CircuitSpec::MuxTree {
                words: field("words")?,
                width: field("width")?,
            }),
            "axi_xbar" => Ok(CircuitSpec::AxiXbar {
                channels: field("channels")?,
                width: field("width")?,
            }),
            "bench" => Ok(CircuitSpec::Bench {
                name: json
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("circuit spec `bench` needs `name`")?
                    .to_string(),
            }),
            other => Err(format!("unknown circuit generator `{other}`")),
        }
    }
}

/// One job as submitted over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Which flow to run.
    pub kind: JobKind,
    /// The input circuit (`None` only for [`JobKind::Fuzz`]).
    pub circuit: Option<CircuitSpec>,
    /// Flow seed (PnR annealing, locking key draw, fuzz root seed).
    pub seed: u64,
    /// Key bits for [`JobKind::Attack`]'s XOR lock.
    pub key_bits: usize,
    /// Sample count for [`JobKind::Fuzz`].
    pub samples: usize,
    /// Skip the shrink step of the lock flow (ablation knob).
    pub skip_shrink: bool,
    /// Per-job wall-clock deadline, clamped server-side by
    /// `SHELL_SERVE_MAX_DEADLINE_MS`. Not part of the cache key.
    pub deadline_ms: Option<u64>,
    /// Per-job solver-conflict quota, clamped server-side by
    /// `SHELL_SERVE_MAX_CONFLICTS`. Part of the cache key (quota exhaustion
    /// is a deterministic outcome). For [`JobKind::Explore`] this is also
    /// the per-point attack budget *B*.
    pub conflict_quota: Option<u64>,
    /// Sweep grid for [`JobKind::Explore`] (the smoke-scale
    /// [`SweepGrid::tiny`] when omitted). Part of the cache key.
    pub grid: Option<SweepGrid>,
}

impl Default for JobRequest {
    fn default() -> Self {
        JobRequest {
            kind: JobKind::Lock,
            // The smallest design the full SheLL flow maps: the selection
            // step needs mux cells (c17 has none and only suits attacks).
            circuit: Some(CircuitSpec::MuxTree { words: 4, width: 2 }),
            seed: 0xC0FFEE,
            key_bits: 8,
            samples: 16,
            skip_shrink: false,
            deadline_ms: None,
            conflict_quota: None,
            grid: None,
        }
    }
}

impl JobRequest {
    /// Wire form (also what the server persists under `jobs/`).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("kind".to_string(), Json::from(self.kind.label())),
            ("seed".to_string(), Json::from(self.seed)),
            ("key_bits".to_string(), Json::from(self.key_bits)),
            ("samples".to_string(), Json::from(self.samples)),
            ("skip_shrink".to_string(), Json::from(self.skip_shrink)),
        ];
        if let Some(c) = &self.circuit {
            pairs.push(("circuit".to_string(), c.to_json()));
        }
        if let Some(ms) = self.deadline_ms {
            pairs.push(("deadline_ms".to_string(), Json::from(ms)));
        }
        if let Some(q) = self.conflict_quota {
            pairs.push(("conflict_quota".to_string(), Json::from(q)));
        }
        if let Some(g) = &self.grid {
            pairs.push(("grid".to_string(), g.to_json()));
        }
        Json::obj(pairs)
    }

    /// Parses the wire form, applying defaults for omitted knobs.
    ///
    /// # Errors
    ///
    /// Malformed requests (unknown kind, bad circuit spec, missing circuit
    /// for a kind that needs one).
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let kind = JobKind::from_label(
            json.get("kind")
                .and_then(Json::as_str)
                .ok_or("request needs a `kind`")?,
        )?;
        let defaults = JobRequest::default();
        let circuit = match json.get("circuit") {
            Some(spec) => Some(CircuitSpec::from_json(spec)?),
            None if kind == JobKind::Fuzz => None,
            None => defaults.circuit.clone(),
        };
        if circuit.is_none() && kind != JobKind::Fuzz {
            return Err(format!("{} jobs need a `circuit`", kind.label()));
        }
        Ok(JobRequest {
            kind,
            circuit,
            seed: json
                .get("seed")
                .and_then(Json::as_u64)
                .unwrap_or(defaults.seed),
            key_bits: json
                .get("key_bits")
                .and_then(Json::as_usize)
                .unwrap_or(defaults.key_bits),
            samples: json
                .get("samples")
                .and_then(Json::as_usize)
                .unwrap_or(defaults.samples),
            skip_shrink: json
                .get("skip_shrink")
                .and_then(Json::as_bool)
                .unwrap_or(defaults.skip_shrink),
            deadline_ms: json.get("deadline_ms").and_then(Json::as_u64),
            conflict_quota: json.get("conflict_quota").and_then(Json::as_u64),
            grid: match json.get("grid") {
                Some(g) => Some(SweepGrid::from_json(g).map_err(|e| format!("bad grid: {e}"))?),
                None => None,
            },
        })
    }

    /// Canonicalizes the request: builds the input netlist (if any) and
    /// derives the content-addressed cache key.
    ///
    /// # Errors
    ///
    /// Circuit construction errors and parameter validation.
    pub fn resolve(&self) -> Result<ResolvedJob, String> {
        let netlist = match &self.circuit {
            Some(spec) => Some(spec.build()?),
            None => None,
        };
        if self.kind == JobKind::Attack && (self.key_bits == 0 || self.key_bits > 64) {
            return Err(format!("key_bits {} out of range 1..=64", self.key_bits));
        }
        if self.kind == JobKind::Fuzz && (self.samples == 0 || self.samples > 4096) {
            return Err(format!("samples {} out of range 1..=4096", self.samples));
        }
        // Explore requests canonicalize their *effective* grid (the tiny
        // default fills in for an omitted one), so an explicit tiny grid
        // and an omitted grid share a cache entry. Service sweeps are
        // capped tighter than the library's MAX_POINTS: each point is a
        // full lock + attack.
        let effective_grid = if self.kind == JobKind::Explore {
            let grid = self.grid.clone().unwrap_or_else(SweepGrid::tiny);
            grid.validate().map_err(|e| format!("bad grid: {e}"))?;
            if grid.len() > 64 {
                return Err(format!(
                    "grid expands to {} points (service max 64)",
                    grid.len()
                ));
            }
            Some(grid)
        } else {
            None
        };
        // The canonical document. Field set and order are part of the key
        // definition — change either only together with a FLOW_VERSION bump.
        let canonical_circuit = netlist
            .as_ref()
            .map(canonical_netlist_json)
            .unwrap_or(Json::Null);
        let canonical = Json::obj([
            ("flow_version", Json::from(u64::from(FLOW_VERSION))),
            ("kind", Json::from(self.kind.label())),
            ("circuit", canonical_circuit),
            ("seed", Json::from(self.seed)),
            ("key_bits", Json::from(self.key_bits)),
            ("samples", Json::from(self.samples)),
            ("skip_shrink", Json::from(self.skip_shrink)),
            (
                "conflict_quota",
                self.conflict_quota.map(Json::from).unwrap_or(Json::Null),
            ),
            (
                "grid",
                effective_grid
                    .as_ref()
                    .map(SweepGrid::to_json)
                    .unwrap_or(Json::Null),
            ),
        ]);
        Ok(ResolvedJob {
            request: self.clone(),
            netlist,
            key: ContentHash::of_json(&canonical),
        })
    }

    /// The grid an explore job actually sweeps: the request's, or the tiny
    /// smoke grid when omitted.
    pub fn effective_grid(&self) -> SweepGrid {
        self.grid.clone().unwrap_or_else(SweepGrid::tiny)
    }
}

/// The canonical structural form of a netlist: what the cache key hashes.
///
/// Two constructions of the same design must serialize identically even
/// when one went through the Verilog parser, which inserts port buffers
/// and decorates internal wire names. So:
///
/// * the netlist is normalized with [`clean_netlist`] first (buffer sweep,
///   constant propagation, structural hashing, DCE — to a fixpoint);
/// * primary inputs, key inputs, and output *ports* keep their names
///   (they are the design's interface and survive a parse/write round
///   trip);
/// * every internal net is renamed positionally (`w<cell index>` of its
///   driving cell), and cell instance names are dropped entirely — both
///   are presentation, not function.
pub fn canonical_netlist_json(netlist: &Netlist) -> Json {
    let n = clean_netlist(netlist);
    // Port names pass through the Verilog writer's identifier
    // sanitization (`a[0]` → `a_0_`), so apply the same rule here — a
    // design built in memory and its parsed rendering then agree.
    let ident = |name: &str| -> String {
        let mut s: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '_' || c == '$' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        if s.is_empty() || s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            s.insert(0, '_');
        }
        s
    };
    let mut names: HashMap<usize, String> = HashMap::new();
    for id in n.inputs() {
        names.insert(id.index(), format!("in:{}", ident(&n.net(*id).name)));
    }
    for id in n.key_inputs() {
        names.insert(id.index(), format!("key:{}", ident(&n.net(*id).name)));
    }
    for (i, (_, cell)) in n.cells().enumerate() {
        names
            .entry(cell.output.index())
            .or_insert_with(|| format!("w{i}"));
    }
    // Anything still unnamed is an undriven non-port net; its given name is
    // the only identity it has.
    let canon = |id: shell_netlist::NetId| -> Json {
        Json::from(
            names
                .get(&id.index())
                .cloned()
                .unwrap_or_else(|| format!("undriven:{}", n.net(id).name)),
        )
    };
    Json::obj([
        ("name", Json::from(ident(n.name()))),
        ("inputs", Json::arr(n.inputs().iter().map(|id| canon(*id)))),
        (
            "key_inputs",
            Json::arr(n.key_inputs().iter().map(|id| canon(*id))),
        ),
        (
            "cells",
            Json::arr(n.cells().map(|(_, cell)| {
                Json::arr(
                    [Json::from(format!("{:?}", cell.kind)), canon(cell.output)]
                        .into_iter()
                        .chain(cell.inputs.iter().map(|id| canon(*id))),
                )
            })),
        ),
        (
            "outputs",
            Json::arr(
                n.outputs()
                    .iter()
                    .map(|(name, id)| Json::arr([Json::from(ident(name)), canon(*id)])),
            ),
        ),
    ])
}

/// A validated request plus its canonical identity.
pub struct ResolvedJob {
    /// The request as submitted.
    pub request: JobRequest,
    /// The built input netlist (`None` for fuzz jobs).
    pub netlist: Option<Netlist>,
    /// The content-addressed cache key.
    pub key: ContentHash,
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_netlist::verilog::write_verilog;

    #[test]
    fn request_json_round_trips() {
        let req = JobRequest {
            kind: JobKind::Attack,
            circuit: Some(CircuitSpec::RippleAdder { width: 4 }),
            seed: 42,
            key_bits: 6,
            samples: 16,
            skip_shrink: true,
            deadline_ms: Some(5000),
            conflict_quota: Some(100_000),
            grid: None,
        };
        assert_eq!(JobRequest::from_json(&req.to_json()).unwrap(), req);
    }

    #[test]
    fn explore_requests_round_trip_and_key_on_grid() {
        use shell_explore::SweepGrid;
        let req = JobRequest {
            kind: JobKind::Explore,
            grid: Some(SweepGrid::tiny()),
            ..JobRequest::default()
        };
        assert_eq!(JobRequest::from_json(&req.to_json()).unwrap(), req);
        // An omitted grid canonicalizes to the tiny default: same key.
        let omitted = JobRequest {
            kind: JobKind::Explore,
            grid: None,
            ..JobRequest::default()
        };
        assert_eq!(req.resolve().unwrap().key, omitted.resolve().unwrap().key);
        // A different grid changes the key.
        let bigger = JobRequest {
            kind: JobKind::Explore,
            grid: Some(SweepGrid::default()),
            ..JobRequest::default()
        };
        assert_ne!(req.resolve().unwrap().key, bigger.resolve().unwrap().key);
        // An oversized grid is rejected server-side.
        let huge = JobRequest {
            kind: JobKind::Explore,
            grid: Some(SweepGrid {
                chain_len: (0..20).collect(),
                min_dims: vec![(2, 2); 8],
                ..SweepGrid::tiny()
            }),
            ..JobRequest::default()
        };
        assert!(huge.resolve().is_err());
    }

    #[test]
    fn generator_and_inline_verilog_share_a_key() {
        // The same design spelled as a generator and as inline Verilog must
        // canonicalize to the same cache key.
        let by_gen = JobRequest {
            circuit: Some(CircuitSpec::RippleAdder { width: 3 }),
            ..JobRequest::default()
        };
        let by_src = JobRequest {
            circuit: Some(CircuitSpec::Verilog {
                src: write_verilog(&ripple_adder(3)),
            }),
            ..JobRequest::default()
        };
        assert_eq!(by_gen.resolve().unwrap().key, by_src.resolve().unwrap().key);
    }

    #[test]
    fn key_is_sensitive_to_content_but_not_deadline() {
        let base = JobRequest::default();
        let key = |r: &JobRequest| r.resolve().unwrap().key;
        let base_key = key(&base);
        // Different circuit → different key.
        let other_circuit = JobRequest {
            circuit: Some(CircuitSpec::RippleAdder { width: 2 }),
            ..base.clone()
        };
        assert_ne!(base_key, key(&other_circuit));
        // Different seed → different key.
        let other_seed = JobRequest {
            seed: base.seed + 1,
            ..base.clone()
        };
        assert_ne!(base_key, key(&other_seed));
        // Different kind → different key.
        let other_kind = JobRequest {
            kind: JobKind::Verify,
            ..base.clone()
        };
        assert_ne!(base_key, key(&other_kind));
        // Different quota → different key (quota exhaustion is part of the
        // deterministic outcome).
        let other_quota = JobRequest {
            conflict_quota: Some(123),
            ..base.clone()
        };
        assert_ne!(base_key, key(&other_quota));
        // Deadline is wall clock: same key.
        let with_deadline = JobRequest {
            deadline_ms: Some(1),
            ..base.clone()
        };
        assert_eq!(base_key, key(&with_deadline));
    }

    #[test]
    fn bench_names_resolve_case_insensitively() {
        for name in ["aes", "AES", "PicoSoC", "fir", "spmv", "dla"] {
            CircuitSpec::Bench { name: name.into() }
                .build()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert!(CircuitSpec::Bench {
            name: "nope".into()
        }
        .build()
        .is_err());
    }

    #[test]
    fn invalid_requests_are_rejected() {
        assert!(JobRequest::from_json(&Json::obj([("kind", Json::from("mine"))])).is_err());
        let zero_key = JobRequest {
            kind: JobKind::Attack,
            key_bits: 0,
            ..JobRequest::default()
        };
        assert!(zero_key.resolve().is_err());
        let huge_adder = JobRequest {
            circuit: Some(CircuitSpec::RippleAdder { width: 100_000 }),
            ..JobRequest::default()
        };
        assert!(huge_adder.resolve().is_err());
        assert!(CircuitSpec::from_json(&Json::obj([("gen", Json::from("warp"))])).is_err());
    }
}
