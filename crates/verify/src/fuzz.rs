//! Differential flow fuzzer with counterexample shrinking.
//!
//! Each sample is a seeded random combinational netlist ([`FuzzSpec`])
//! pushed through the real SheLL pipeline — LUT mapping, place-and-route,
//! bitstream emission, fabric emulation, locking and activation — with
//! every stage boundary miter-checked against the previous stage
//! ([`run_pipeline`]). Any disagreement, including the SAT miter and the
//! exhaustive simulator disagreeing *with each other*, is a mismatch.
//!
//! Mismatching specs are delta-shrunk with
//! [`shell_util::shrink_to_minimal`] (any-stage mismatch keeps a shrink
//! candidate alive, so the minimal spec may fail an earlier stage than the
//! original) and dumped as replayable JSON artifacts.
//!
//! Determinism is load-bearing: sample `i`'s sub-seed comes from
//! [`split_mix64`] over the root seed, each sample is a pure function of
//! its spec, and samples run under [`shell_exec::parallel_map`] whose
//! output order is index order — so [`FuzzReport::to_json`] is
//! byte-identical at any `SHELL_JOBS` setting (and deliberately carries no
//! job count or timestamp).

use shell_exec::parallel_map;
use shell_fabric::{bind_keys, to_configured_netlist, to_locked_netlist, FabricConfig};
use shell_lock::{activate, shell_lock, ShellOptions};
use shell_netlist::{equiv_exhaustive, CellKind, EquivResult, Netlist};
use shell_pnr::{place_and_route_with_chains, PnrOptions};
use shell_sat::equiv_sat;
use shell_synth::{lut_map_hybrid, propagate_constants_cyclic};
use shell_util::{shrink_to_minimal, split_mix64, Json, Rng, Shrink};
use std::path::{Path, PathBuf};

/// A random-netlist recipe: small enough to shrink structurally, total
/// enough that *every* byte pattern builds a valid netlist (gate kinds and
/// operand indices wrap), so shrinking never produces an unbuildable
/// candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzSpec {
    /// Primary input count (clamped to ≥ 1 when building).
    pub inputs: usize,
    /// Gates as `(kind, a, b, c)` bytes: `kind % 8` selects the cell type,
    /// operand bytes index the nets created so far, modulo their count.
    pub gates: Vec<(u8, u8, u8, u8)>,
}

impl FuzzSpec {
    /// Materializes the spec as a combinational netlist. Every net that no
    /// gate reads becomes a primary output (there is always at least one).
    pub fn build(&self) -> Netlist {
        let mut n = Netlist::new("fuzz");
        let n_inputs = self.inputs.max(1);
        let mut nets = Vec::with_capacity(n_inputs + self.gates.len());
        for i in 0..n_inputs {
            nets.push(n.add_input(format!("i{i}")));
        }
        let mut read = vec![false; n_inputs + self.gates.len()];
        for (g, &(kind, a, b, c)) in self.gates.iter().enumerate() {
            let pick = |x: u8| (x as usize) % nets.len();
            let (kind, operands) = match kind % 8 {
                0 => (CellKind::And, vec![pick(a), pick(b)]),
                1 => (CellKind::Or, vec![pick(a), pick(b)]),
                2 => (CellKind::Xor, vec![pick(a), pick(b)]),
                3 => (CellKind::Xnor, vec![pick(a), pick(b)]),
                4 => (CellKind::Nand, vec![pick(a), pick(b)]),
                5 => (CellKind::Nor, vec![pick(a), pick(b)]),
                6 => (CellKind::Not, vec![pick(a)]),
                _ => (CellKind::Mux2, vec![pick(c), pick(a), pick(b)]),
            };
            for &idx in &operands {
                read[idx] = true;
            }
            let ins = operands.iter().map(|&idx| nets[idx]).collect();
            nets.push(n.add_cell(format!("g{g}"), kind, ins));
        }
        let mut o = 0usize;
        for (idx, &net) in nets.iter().enumerate() {
            if !read[idx] && (idx >= n_inputs || self.gates.is_empty()) {
                n.add_output(format!("o{o}"), net);
                o += 1;
            }
        }
        if o == 0 {
            // All nets read (possible when every gate's output feeds a later
            // gate that was dropped by shrinking): expose the last net.
            n.add_output("o0", *nets.last().expect("inputs >= 1"));
        }
        n
    }

    /// JSON form (used by fuzz artifacts).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("inputs", Json::Num(self.inputs as f64)),
            (
                "gates",
                Json::arr(self.gates.iter().map(|&(k, a, b, c)| {
                    Json::arr([k, a, b, c].iter().map(|&x| Json::Num(f64::from(x))))
                })),
            ),
        ])
    }

    /// Parses the [`Self::to_json`] form.
    ///
    /// # Errors
    ///
    /// Reports missing or mistyped fields.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let inputs = json
            .get("inputs")
            .and_then(Json::as_usize)
            .ok_or("spec missing `inputs`")?;
        let gates = json
            .get("gates")
            .and_then(Json::as_arr)
            .ok_or("spec missing `gates`")?
            .iter()
            .map(|g| {
                let tuple: Vec<u8> = g
                    .as_arr()
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|x| x.as_u64().map(|v| v as u8))
                    .collect();
                match tuple[..] {
                    [k, a, b, c] => Ok((k, a, b, c)),
                    _ => Err(format!("bad gate entry {g:?}")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FuzzSpec { inputs, gates })
    }
}

impl Shrink for FuzzSpec {
    fn shrink(&self) -> Vec<Self> {
        let mut out: Vec<FuzzSpec> = self
            .gates
            .shrink()
            .into_iter()
            .map(|gates| FuzzSpec {
                inputs: self.inputs,
                gates,
            })
            .collect();
        if self.inputs > 1 {
            out.push(FuzzSpec {
                inputs: self.inputs - 1,
                gates: self.gates.clone(),
            });
        }
        out
    }
}

/// Outcome of pushing one spec through the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleStatus {
    /// Every stage boundary proved equivalent.
    Ok,
    /// A stage could not run (fabric does not fit, residual cycle, solver
    /// budget); deterministic, and **not** a correctness failure.
    Skipped {
        /// The stage that could not run.
        stage: String,
        /// Why.
        reason: String,
    },
    /// Two stages disagree — the bug the fuzzer exists to find.
    Mismatch {
        /// The stage whose output disagrees with the previous stage.
        stage: String,
        /// Distinguishing primary-input assignment.
        inputs: Vec<bool>,
        /// Previous stage's outputs.
        lhs: Vec<bool>,
        /// This stage's outputs.
        rhs: Vec<bool>,
        /// What kind of disagreement (miter counterexample vs the SAT and
        /// exhaustive oracles disagreeing with each other).
        detail: String,
    },
}

impl SampleStatus {
    /// `true` for [`SampleStatus::Mismatch`].
    pub fn is_mismatch(&self) -> bool {
        matches!(self, SampleStatus::Mismatch { .. })
    }
}

/// Checks one stage boundary. The SAT miter is the primary oracle; when the
/// cone is small (≤ 10 inputs) the exhaustive simulator cross-checks it,
/// and an oracle disagreement is itself reported as a mismatch.
fn check_boundary(stage: &str, reference: &Netlist, candidate: &Netlist) -> SampleStatus {
    let sat = equiv_sat(reference, candidate, &[], &[]);
    if let EquivResult::Incomparable(reason) = &sat {
        return SampleStatus::Skipped {
            stage: stage.into(),
            reason: reason.clone(),
        };
    }
    if reference.inputs().len() <= 10 {
        let exhaustive = equiv_exhaustive(reference, candidate, &[], &[]);
        if sat.is_equivalent() != exhaustive.is_equivalent() {
            let (inputs, lhs, rhs) = match (&sat, &exhaustive) {
                (EquivResult::Counterexample { inputs, lhs, rhs }, _)
                | (_, EquivResult::Counterexample { inputs, lhs, rhs }) => {
                    (inputs.clone(), lhs.clone(), rhs.clone())
                }
                _ => (Vec::new(), Vec::new(), Vec::new()),
            };
            return SampleStatus::Mismatch {
                stage: stage.into(),
                inputs,
                lhs,
                rhs,
                detail: format!(
                    "oracle disagreement: SAT says {}, exhaustive says {}",
                    verdict(&sat),
                    verdict(&exhaustive)
                ),
            };
        }
    }
    match sat {
        EquivResult::Counterexample { inputs, lhs, rhs } => SampleStatus::Mismatch {
            stage: stage.into(),
            inputs,
            lhs,
            rhs,
            detail: "miter counterexample".into(),
        },
        _ => SampleStatus::Ok,
    }
}

fn verdict(r: &EquivResult) -> &'static str {
    match r {
        EquivResult::Equivalent => "equivalent",
        EquivResult::Counterexample { .. } => "counterexample",
        EquivResult::Incomparable(_) => "incomparable",
    }
}

/// Runs one spec through the full flow, checking every stage boundary:
///
/// 1. `lutmap` — [`lut_map_hybrid`] output vs the base netlist,
/// 2. `bitstream` — the PnR'd fabric configured with its bitstream
///    ([`to_configured_netlist`], constants propagated) vs the LUT mapping,
/// 3. `activate` — the *locked* fabric with the bitstream bound as a key
///    ([`bind_keys`]) vs the configured fabric, and
/// 4. `shell_lock` — the end-to-end [`shell_lock()`](shell_lock::shell_lock) → [`activate`] round
///    trip vs the base netlist.
///
/// Pipeline steps that error (fabric does not fit, residual combinational
/// cycle) end the sample as [`SampleStatus::Skipped`]; the fuzzer's job is
/// functional agreement, not fit coverage.
pub fn run_pipeline(spec: &FuzzSpec) -> SampleStatus {
    let _span = shell_trace::span!("verify.fuzz_sample");
    let base = spec.build();

    let mapped = lut_map_hybrid(&base, 4).expect("acyclic").netlist;
    let s = check_boundary("lutmap", &base, &mapped);
    if s != SampleStatus::Ok {
        return s;
    }

    let pnr = match place_and_route_with_chains(
        &base,
        FabricConfig::fabulous_style(true),
        &PnrOptions::default(),
    ) {
        Ok(r) => r,
        Err(e) => {
            return SampleStatus::Skipped {
                stage: "bitstream".into(),
                reason: e.to_string(),
            }
        }
    };
    let configured = match to_configured_netlist(&pnr.fabric, &pnr.bitstream, &pnr.io_map) {
        Ok(n) => propagate_constants_cyclic(&n),
        Err(e) => {
            return SampleStatus::Skipped {
                stage: "bitstream".into(),
                reason: e.to_string(),
            }
        }
    };
    let s = check_boundary("bitstream", &mapped, &configured);
    if s != SampleStatus::Ok {
        return s;
    }

    let locked = to_locked_netlist(&pnr.fabric, &pnr.io_map);
    if locked.key_inputs().len() != pnr.bitstream.len() {
        return SampleStatus::Skipped {
            stage: "activate".into(),
            reason: format!(
                "locked key width {} != bitstream length {}",
                locked.key_inputs().len(),
                pnr.bitstream.len()
            ),
        };
    }
    let bound = propagate_constants_cyclic(&bind_keys(&locked, pnr.bitstream.as_bools()));
    let s = check_boundary("activate", &configured, &bound);
    if s != SampleStatus::Ok {
        return s;
    }

    if !base.cells().any(|(_, c)| c.kind.is_mux()) {
        // The default ROUTE-oriented selection asserts on mux-free designs.
        return SampleStatus::Skipped {
            stage: "shell_lock".into(),
            reason: "no mux cells; ROUTE-oriented selection does not apply".into(),
        };
    }
    let outcome = match shell_lock(&base, &ShellOptions::default()) {
        Ok(o) => o,
        Err(e) => {
            return SampleStatus::Skipped {
                stage: "shell_lock".into(),
                reason: e.to_string(),
            }
        }
    };
    let activated = propagate_constants_cyclic(&activate(&outcome));
    check_boundary("shell_lock", &base, &activated)
}

/// Fuzz campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of samples.
    pub samples: usize,
    /// Root seed; sample sub-seeds are [`split_mix64`] draws from it.
    pub seed: u64,
    /// Maximum primary inputs per sample (inputs are `1..=max_inputs`).
    pub max_inputs: usize,
    /// Maximum gates per sample.
    pub max_gates: usize,
    /// Where to dump mismatch artifacts (`None` disables writing).
    pub artifact_dir: Option<PathBuf>,
}

impl FuzzConfig {
    /// Default sizing: circuits small enough that PnR almost always fits
    /// and every stage boundary gets the exhaustive cross-check.
    pub fn new(samples: usize, seed: u64) -> Self {
        FuzzConfig {
            samples,
            seed,
            max_inputs: 6,
            max_gates: 16,
            artifact_dir: None,
        }
    }
}

/// A shrunk mismatch: the minimal spec still failing some stage boundary.
#[derive(Debug, Clone)]
pub struct ShrunkCase {
    /// Minimal failing spec.
    pub spec: FuzzSpec,
    /// Shrink steps taken.
    pub steps: usize,
    /// The minimal spec's own pipeline status (its mismatch may occur at an
    /// earlier stage than the original's).
    pub status: SampleStatus,
}

/// One sample's record in the report.
#[derive(Debug, Clone)]
pub struct SampleReport {
    /// Sample index (also the artifact index).
    pub index: usize,
    /// The SplitMix64-derived sub-seed that regenerates the spec.
    pub sub_seed: u64,
    /// The generated spec.
    pub spec: FuzzSpec,
    /// Pipeline outcome.
    pub status: SampleStatus,
    /// Present exactly when `status` is a mismatch.
    pub shrunk: Option<ShrunkCase>,
}

/// Deterministic campaign report.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Echo of [`FuzzConfig::samples`].
    pub samples: usize,
    /// Echo of [`FuzzConfig::seed`].
    pub seed: u64,
    /// Samples whose every stage boundary proved equivalent.
    pub ok: usize,
    /// Samples ending in a deterministic skip.
    pub skipped: usize,
    /// Samples that found a stage disagreement.
    pub mismatches: usize,
    /// Per-sample records, in index order.
    pub results: Vec<SampleReport>,
    /// Artifact files written (empty without an artifact dir).
    pub artifacts: Vec<PathBuf>,
}

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:#018x}"))
}

fn bools(v: &[bool]) -> Json {
    Json::arr(v.iter().map(|&b| Json::Bool(b)))
}

fn status_json(status: &SampleStatus) -> Json {
    match status {
        SampleStatus::Ok => Json::obj([("status", Json::Str("ok".into()))]),
        SampleStatus::Skipped { stage, reason } => Json::obj([
            ("status", Json::Str("skipped".into())),
            ("stage", Json::Str(stage.clone())),
            ("reason", Json::Str(reason.clone())),
        ]),
        SampleStatus::Mismatch {
            stage,
            inputs,
            lhs,
            rhs,
            detail,
        } => Json::obj([
            ("status", Json::Str("mismatch".into())),
            ("stage", Json::Str(stage.clone())),
            ("detail", Json::Str(detail.clone())),
            ("inputs", bools(inputs)),
            ("lhs", bools(lhs)),
            ("rhs", bools(rhs)),
        ]),
    }
}

impl FuzzReport {
    /// The report as JSON. Contains **no** job count, timestamps or host
    /// details: two runs with the same config must serialize
    /// byte-identically regardless of `SHELL_JOBS`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("samples", Json::Num(self.samples as f64)),
            ("seed", hex(self.seed)),
            ("ok", Json::Num(self.ok as f64)),
            ("skipped", Json::Num(self.skipped as f64)),
            ("mismatches", Json::Num(self.mismatches as f64)),
            (
                "results",
                Json::arr(self.results.iter().map(|r| {
                    let mut fields = vec![
                        ("index".to_string(), Json::Num(r.index as f64)),
                        ("sub_seed".to_string(), hex(r.sub_seed)),
                        ("spec".to_string(), r.spec.to_json()),
                        ("outcome".to_string(), status_json(&r.status)),
                    ];
                    if let Some(sc) = &r.shrunk {
                        fields.push((
                            "shrunk".to_string(),
                            Json::obj([
                                ("spec", sc.spec.to_json()),
                                ("steps", Json::Num(sc.steps as f64)),
                                ("outcome", status_json(&sc.status)),
                            ]),
                        ));
                    }
                    Json::Obj(fields)
                })),
            ),
        ])
    }
}

fn gen_spec(rng: &mut Rng, max_inputs: usize, max_gates: usize) -> FuzzSpec {
    let inputs = 1 + rng.gen_range(0..max_inputs.max(1));
    let n_gates = rng.gen_range(0..max_gates.max(1) + 1);
    let gates = (0..n_gates)
        .map(|_| {
            let w = rng.next_u64();
            // Bias toward Mux2 (kind 7): the ROUTE-oriented shell_lock
            // stage only runs on designs with at least one mux, and a
            // uniform 1/8 draw leaves too many samples mux-free.
            let kind = if rng.gen_range(0..4) == 0 { 7 } else { w as u8 };
            (kind, (w >> 8) as u8, (w >> 16) as u8, (w >> 24) as u8)
        })
        .collect();
    FuzzSpec { inputs, gates }
}

fn run_sample(index: usize, sub_seed: u64, config: &FuzzConfig) -> SampleReport {
    let mut rng = Rng::seed_from_u64(sub_seed);
    let spec = gen_spec(&mut rng, config.max_inputs, config.max_gates);
    let status = run_pipeline(&spec);
    let shrunk = if let SampleStatus::Mismatch { stage, detail, .. } = &status {
        // Keep any-stage mismatch alive while shrinking: a simpler spec
        // failing an *earlier* boundary is still the same class of bug and
        // a better reproducer.
        let check = |s: &FuzzSpec| match run_pipeline(s) {
            SampleStatus::Mismatch { stage, detail, .. } => Err(format!("{stage}: {detail}")),
            _ => Ok(()),
        };
        let (minimal, _, steps) =
            shrink_to_minimal(spec.clone(), format!("{stage}: {detail}"), &check);
        let status = run_pipeline(&minimal);
        Some(ShrunkCase {
            spec: minimal,
            steps,
            status,
        })
    } else {
        None
    };
    SampleReport {
        index,
        sub_seed,
        spec,
        status,
        shrunk,
    }
}

/// Runs a fuzz campaign. Samples execute under [`parallel_map`] (respecting
/// `SHELL_JOBS`); the report and any artifacts are identical at any job
/// count. Artifact writing happens sequentially after the parallel phase.
///
/// # Panics
///
/// Panics when an artifact file cannot be written.
pub fn run(config: &FuzzConfig) -> FuzzReport {
    let mut root = config.seed;
    let tasks: Vec<(usize, u64)> = (0..config.samples)
        .map(|i| (i, split_mix64(&mut root)))
        .collect();
    let results: Vec<SampleReport> = parallel_map(&tasks, |&(index, sub_seed)| {
        run_sample(index, sub_seed, config)
    });

    let ok = results
        .iter()
        .filter(|r| r.status == SampleStatus::Ok)
        .count();
    let mismatches = results.iter().filter(|r| r.status.is_mismatch()).count();
    let skipped = results.len() - ok - mismatches;

    let mut artifacts = Vec::new();
    if let Some(dir) = &config.artifact_dir {
        for r in results.iter().filter(|r| r.status.is_mismatch()) {
            artifacts.push(write_artifact(dir, config.seed, r).expect("write fuzz artifact"));
        }
    }

    FuzzReport {
        samples: config.samples,
        seed: config.seed,
        ok,
        skipped,
        mismatches,
        results,
        artifacts,
    }
}

/// Serializes one mismatch as a replayable artifact
/// (`fuzz_<seed>_<index>.json`).
fn write_artifact(dir: &Path, seed: u64, r: &SampleReport) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("fuzz_{seed:016x}_{:04}.json", r.index));
    let mut fields = vec![
        ("seed".to_string(), hex(seed)),
        ("index".to_string(), Json::Num(r.index as f64)),
        ("sub_seed".to_string(), hex(r.sub_seed)),
        ("spec".to_string(), r.spec.to_json()),
        ("outcome".to_string(), status_json(&r.status)),
    ];
    if let Some(sc) = &r.shrunk {
        fields.push((
            "shrunk".to_string(),
            Json::obj([
                ("spec", sc.spec.to_json()),
                ("steps", Json::Num(sc.steps as f64)),
                ("outcome", status_json(&sc.status)),
            ]),
        ));
    }
    std::fs::write(&path, Json::Obj(fields).to_string_pretty())?;
    Ok(path)
}

/// Replays a fuzz artifact: re-builds the (shrunk when present, else
/// original) spec and re-runs the pipeline, returning the spec and its
/// fresh status. A fixed artifact replays as [`SampleStatus::Ok`] or a
/// deterministic skip; an unfixed one reproduces its mismatch.
///
/// # Errors
///
/// Reports malformed artifact JSON.
pub fn replay_artifact(artifact: &Json) -> Result<(FuzzSpec, SampleStatus), String> {
    let spec_json = artifact
        .get("shrunk")
        .and_then(|s| s.get("spec"))
        .or_else(|| artifact.get("spec"))
        .ok_or("artifact has neither `shrunk.spec` nor `spec`")?;
    let spec = FuzzSpec::from_json(spec_json)?;
    let status = run_pipeline(&spec);
    Ok((spec, status))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_exec::with_jobs;

    #[test]
    fn every_spec_builds_a_valid_netlist() {
        shell_util::forall(
            "fuzz specs always build",
            0x5EED,
            48,
            |rng| gen_spec(rng, 6, 16),
            |spec| {
                let n = spec.build();
                if n.outputs().is_empty() {
                    return Err("no outputs".into());
                }
                if n.topo_order().is_err() {
                    return Err("cyclic".into());
                }
                Ok(())
            },
        );
    }

    #[test]
    fn spec_json_round_trip() {
        let spec = FuzzSpec {
            inputs: 3,
            gates: vec![(7, 1, 2, 0), (2, 0, 3, 9)],
        };
        let json = spec.to_json();
        let back = FuzzSpec::from_json(&Json::parse(&json.to_string_pretty()).unwrap()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn shrink_candidates_stay_buildable() {
        let spec = FuzzSpec {
            inputs: 4,
            gates: vec![(0, 0, 1, 0), (7, 200, 3, 255), (6, 4, 0, 0)],
        };
        for candidate in spec.shrink() {
            let n = candidate.build();
            assert!(!n.outputs().is_empty());
            assert!(n.topo_order().is_ok());
        }
    }

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let config = FuzzConfig::new(6, 0xF00D);
        let a = run(&config).to_json().to_string_pretty();
        let b = run(&config).to_json().to_string_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"mismatches\": 0"), "{a}");
    }

    #[test]
    fn report_identical_across_job_counts() {
        let config = FuzzConfig::new(5, 0xBEEF);
        let seq = with_jobs(1, || run(&config).to_json().to_string_pretty());
        let par = with_jobs(4, || run(&config).to_json().to_string_pretty());
        assert_eq!(seq, par);
    }

    #[test]
    fn artifact_write_parse_replay_round_trip() {
        let spec = FuzzSpec {
            inputs: 2,
            gates: vec![(0, 0, 1, 0)],
        };
        let report = SampleReport {
            index: 3,
            sub_seed: 0xABCD,
            spec: spec.clone(),
            status: SampleStatus::Mismatch {
                stage: "lutmap".into(),
                inputs: vec![true, false],
                lhs: vec![true],
                rhs: vec![false],
                detail: "miter counterexample".into(),
            },
            shrunk: Some(ShrunkCase {
                spec: spec.clone(),
                steps: 2,
                status: SampleStatus::Ok,
            }),
        };
        let dir =
            std::env::temp_dir().join(format!("shell_verify_artifact_{}", std::process::id()));
        let path = write_artifact(&dir, 7, &report).expect("artifact writes");
        assert_eq!(path.file_name().unwrap(), "fuzz_0000000000000007_0003.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = Json::parse(&text).expect("artifact is valid JSON");
        let (replayed, status) = replay_artifact(&parsed).expect("artifact replays");
        assert_eq!(replayed, spec);
        assert_eq!(status, run_pipeline(&spec));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_matches_direct_pipeline_run() {
        let spec = FuzzSpec {
            inputs: 2,
            gates: vec![(2, 0, 1, 0)],
        };
        let artifact = Json::obj([("spec", spec.to_json())]);
        let (replayed, status) = replay_artifact(&artifact).unwrap();
        assert_eq!(replayed, spec);
        assert_eq!(status, run_pipeline(&spec));
    }
}
