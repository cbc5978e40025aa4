//! The sweep driver: lock → attack → price every grid point on the
//! worker pool, journal each finished point, and survive interruption.

use crate::grid::{FabricPoint, SweepGrid};
use shell_attacks::{attack_scan_frames, SatAttackOptions, SatAttackOutcome};
use shell_chaos::{atomic_write, read_string, Io};
use shell_guard::{Budget, Exhausted};
use shell_lock::{evaluate_overhead, shell_lock_with_fabric, ShellOptions};
use shell_netlist::Netlist;
use shell_pnr::{PnrError, PnrOptions};
use shell_util::Json;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Journal schema version; a mismatch evicts the record and re-evaluates.
const JOURNAL_SCHEMA: u64 = 1;

/// Options of a sweep run.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// PnR seed used for every point.
    pub seed: u64,
    /// Budget *B*: solver-conflict quota of the per-point SAT attack. A
    /// point whose attack exhausts this quota counts as **survived**.
    pub attack_quota: u64,
    /// DIP-iteration cap of the per-point attack (structural timeout).
    pub max_attack_iterations: usize,
    /// Skip the shrink step on every point (ablation sweeps).
    pub skip_shrink: bool,
    /// Sweep-level budget. Its deadline and cancellation reach every
    /// point's lock flow and are re-checked between points; its quota is
    /// not consumed (per-point work is bounded by `attack_quota` and the
    /// PnR flow's structural caps instead, so one pathological fabric
    /// cannot starve the rest of the grid).
    pub budget: Budget,
    /// When set, every finished point is committed to
    /// `<dir>/point_<index>.json` via the atomic-commit primitive, and a
    /// later run with the same design/grid/options resumes from the
    /// journal instead of re-evaluating.
    pub journal_dir: Option<PathBuf>,
    /// Filesystem seam for the journal (swap in a `ChaosIo` to test
    /// crash/fault behavior).
    pub io: Arc<dyn Io>,
    /// Evaluate at most this many *unjournaled* points, then return
    /// [`SweepError::Interrupted`] — the deterministic stand-in for a
    /// mid-sweep kill in resume tests.
    pub point_limit: Option<usize>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            attack_quota: 20_000,
            max_attack_iterations: 24,
            skip_shrink: false,
            budget: Budget::from_env(),
            journal_dir: None,
            io: shell_chaos::real(),
            point_limit: None,
        }
    }
}

/// How a sweep run ended early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The grid failed validation.
    InvalidGrid(String),
    /// The sweep-level budget ran out; journaled points are preserved and
    /// a re-run with the same journal resumes from them.
    Exhausted(Exhausted),
    /// `point_limit` stopped the run before every point was evaluated.
    Interrupted {
        /// Points evaluated by this call (journal hits not counted).
        evaluated: usize,
        /// Points still missing a result.
        remaining: usize,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::InvalidGrid(m) => write!(f, "invalid grid: {m}"),
            SweepError::Exhausted(e) => write!(f, "sweep budget exhausted: {e}"),
            SweepError::Interrupted {
                evaluated,
                remaining,
            } => write!(
                f,
                "interrupted after {evaluated} points ({remaining} remaining)"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

/// Attack verdict of one point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointVerdict {
    /// The attack exhausted budget *B* — the fabric **survived**.
    Survived {
        /// DIP iterations completed.
        iterations: usize,
        /// Solver conflicts spent.
        conflicts: u64,
    },
    /// The attack terminated without a working key (unformable scan frame,
    /// frame-shape mismatch, or a non-functional extracted key) — survived
    /// for structural reasons rather than budget exhaustion.
    SurvivedStructural {
        /// DIP iterations completed.
        iterations: usize,
    },
    /// The attack recovered a working key within budget *B*.
    Broken {
        /// DIP iterations used.
        iterations: usize,
        /// Solver conflicts the break cost.
        conflicts: u64,
    },
    /// The lock flow itself failed (does not fit, unroutable, …); the
    /// point carries no cost metrics and is excluded from the Pareto front.
    Failed {
        /// The PnR error text.
        error: String,
    },
}

impl PointVerdict {
    /// `true` for both survived kinds.
    pub fn survived(&self) -> bool {
        matches!(
            self,
            PointVerdict::Survived { .. } | PointVerdict::SurvivedStructural { .. }
        )
    }

    /// Stable machine-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            PointVerdict::Survived { .. } => "survived",
            PointVerdict::SurvivedStructural { .. } => "survived-structural",
            PointVerdict::Broken { .. } => "broken",
            PointVerdict::Failed { .. } => "failed",
        }
    }
}

/// The full evaluation of one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Position in [`SweepGrid::points`] order.
    pub index: usize,
    /// The fabric knobs evaluated.
    pub point: FabricPoint,
    /// Attack verdict.
    pub verdict: PointVerdict,
    /// Post-shrink key length (0 for failed points).
    pub key_bits: usize,
    /// Fabric tile count (0 for failed points).
    pub tiles: usize,
    /// Fabric utilization (0.0 for failed points).
    pub utilization: f64,
    /// Normalized area overhead (locked / original; 0.0 for failed points).
    pub area: f64,
    /// Normalized power-proxy overhead.
    pub power: f64,
    /// Normalized delay overhead.
    pub delay: f64,
}

impl PointResult {
    /// JSON form (stable key order — journal and artifact schema).
    pub fn to_json(&self) -> Json {
        let (iterations, conflicts, error) = match &self.verdict {
            PointVerdict::Survived {
                iterations,
                conflicts,
            }
            | PointVerdict::Broken {
                iterations,
                conflicts,
            } => (*iterations, *conflicts, Json::Null),
            PointVerdict::SurvivedStructural { iterations } => (*iterations, 0, Json::Null),
            PointVerdict::Failed { error } => (0, 0, Json::from(error.as_str())),
        };
        Json::obj([
            ("index", Json::from(self.index)),
            ("point", self.point.to_json()),
            ("verdict", Json::from(self.verdict.label())),
            ("survived", Json::from(self.verdict.survived())),
            ("iterations", Json::from(iterations)),
            ("conflicts", Json::from(conflicts)),
            ("error", error),
            ("key_bits", Json::from(self.key_bits)),
            ("tiles", Json::from(self.tiles)),
            ("utilization", Json::from(self.utilization)),
            ("area", Json::from(self.area)),
            ("power", Json::from(self.power)),
            ("delay", Json::from(self.delay)),
        ])
    }

    /// Parses the [`Self::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let usize_field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("point result: missing '{key}'"))
        };
        let f64_field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("point result: missing '{key}'"))
        };
        let iterations = usize_field("iterations")?;
        let conflicts = doc
            .get("conflicts")
            .and_then(Json::as_u64)
            .ok_or("point result: missing 'conflicts'")?;
        let verdict = match doc.get("verdict").and_then(Json::as_str) {
            Some("survived") => PointVerdict::Survived {
                iterations,
                conflicts,
            },
            Some("survived-structural") => PointVerdict::SurvivedStructural { iterations },
            Some("broken") => PointVerdict::Broken {
                iterations,
                conflicts,
            },
            Some("failed") => PointVerdict::Failed {
                error: doc
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
            },
            _ => return Err("point result: unknown 'verdict'".into()),
        };
        Ok(Self {
            index: usize_field("index")?,
            point: FabricPoint::from_json(
                doc.get("point").ok_or("point result: missing 'point'")?,
            )?,
            verdict,
            key_bits: usize_field("key_bits")?,
            tiles: usize_field("tiles")?,
            utilization: f64_field("utilization")?,
            area: f64_field("area")?,
            power: f64_field("power")?,
            delay: f64_field("delay")?,
        })
    }
}

/// A completed sweep: one [`PointResult`] per grid point, index order.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-point results, `points[i].index == i`.
    pub points: Vec<PointResult>,
    /// How many points were restored from the journal rather than
    /// re-evaluated (not part of [`Self::to_json`]: a resumed run must be
    /// byte-identical to an uninterrupted one).
    pub resumed: usize,
}

impl SweepReport {
    /// Indices of the Pareto-optimal points (see [`crate::pareto`]).
    pub fn front(&self) -> Vec<usize> {
        crate::pareto::pareto_front(&self.points)
    }

    /// Deterministic JSON form: the per-point results plus the front.
    /// Identical across worker counts and across interrupted-and-resumed
    /// runs.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(JOURNAL_SCHEMA)),
            (
                "points",
                Json::arr(self.points.iter().map(PointResult::to_json)),
            ),
            ("front", Json::arr(self.front().into_iter().map(Json::from))),
        ])
    }
}

/// A cheap structural fingerprint binding journal records to the design,
/// grid point and options that produced them; any drift evicts the record.
fn sweep_fingerprint(design: &Netlist, opts: &SweepOptions) -> String {
    format!(
        "s{} i{} o{} c{} seed{} q{} it{} sk{}",
        JOURNAL_SCHEMA,
        design.inputs().len(),
        design.outputs().len(),
        design.cell_count(),
        opts.seed,
        opts.attack_quota,
        opts.max_attack_iterations,
        opts.skip_shrink
    )
}

fn journal_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("point_{index}.json"))
}

/// Tries to restore one point from the journal. Any parse or fingerprint
/// mismatch is treated as "not journaled".
fn load_journaled(
    io: &dyn Io,
    dir: &Path,
    index: usize,
    point: &FabricPoint,
    fingerprint: &str,
) -> Option<PointResult> {
    let text = read_string(io, &journal_path(dir, index)).ok()?;
    let doc = Json::parse(&text).ok()?;
    if doc.get("fingerprint").and_then(Json::as_str) != Some(fingerprint) {
        return None;
    }
    let result = PointResult::from_json(doc.get("result")?).ok()?;
    (result.index == index && result.point == *point).then_some(result)
}

/// Commits one finished point to the journal (atomic tmp+rename). Journal
/// IO failures are non-fatal: the sweep result is still returned, the
/// point just re-evaluates on resume.
fn store_journaled(io: &dyn Io, dir: &Path, result: &PointResult, fingerprint: &str) {
    let doc = Json::obj([
        ("schema", Json::from(JOURNAL_SCHEMA)),
        ("fingerprint", Json::from(fingerprint)),
        ("result", result.to_json()),
    ]);
    let _ = atomic_write(
        io,
        &journal_path(dir, result.index),
        doc.to_string_pretty().as_bytes(),
    );
}

/// Locks, prices and attacks one grid point.
///
/// Returns `Err` only for sweep-budget exhaustion (deadline/cancel reached
/// the lock flow); every other failure is a journaled [`PointVerdict`].
fn evaluate_point(
    design: &Netlist,
    point: &FabricPoint,
    index: usize,
    opts: &SweepOptions,
) -> Result<PointResult, Exhausted> {
    let _span = shell_trace::span!("explore.point", index = index);
    let failed = |error: String| PointResult {
        index,
        point: point.clone(),
        verdict: PointVerdict::Failed { error },
        key_bits: 0,
        tiles: 0,
        utilization: 0.0,
        area: 0.0,
        power: 0.0,
        delay: 0.0,
    };
    let shell_opts = ShellOptions {
        pnr: PnrOptions {
            seed: opts.seed,
            min_dims: point.min_dims,
            budget: opts.budget.clone(),
            ..PnrOptions::default()
        },
        skip_shrink: opts.skip_shrink,
        ..ShellOptions::default()
    };
    let outcome = match shell_lock_with_fabric(design, point.to_config(), &shell_opts) {
        Ok(outcome) => outcome,
        Err(PnrError::Exhausted(_)) => {
            // The *sweep* budget ran out mid-flow — not a property of the
            // point. Don't journal a verdict; let the caller stop.
            return Err(opts
                .budget
                .checkpoint()
                .err()
                .unwrap_or(Exhausted::Deadline));
        }
        Err(e) => {
            shell_trace::counter_add("explore.points_evaluated", 1);
            return Ok(failed(e.to_string()));
        }
    };
    let overhead = evaluate_overhead(design, &outcome);
    let verdict = attack_point(design, &outcome, opts);
    shell_trace::counter_add("explore.points_evaluated", 1);
    match verdict {
        PointVerdict::Broken { .. } => shell_trace::counter_add("explore.points_broken", 1),
        PointVerdict::Failed { .. } => {}
        _ => shell_trace::counter_add("explore.points_survived", 1),
    }
    Ok(PointResult {
        index,
        point: point.clone(),
        verdict,
        key_bits: outcome.key_bits(),
        tiles: outcome.fabric.tile_count(),
        utilization: outcome.utilization,
        area: overhead.area,
        power: overhead.power,
        delay: overhead.delay,
    })
}

/// The standard oracle-guided attack ([`attack_scan_frames`]) at budget
/// *B*, with the sweep's knobs. A locked design without a frame comparable
/// to the oracle's survives structurally.
fn attack_point(
    design: &Netlist,
    outcome: &shell_lock::RedactionOutcome,
    opts: &SweepOptions,
) -> PointVerdict {
    let attack_opts = SatAttackOptions {
        max_iterations: opts.max_attack_iterations,
        budget: Budget::unlimited().with_quota(opts.attack_quota),
        verify_key: true,
        verify_vectors: 128,
        ..SatAttackOptions::default()
    };
    match attack_scan_frames(design, &outcome.locked, &attack_opts) {
        None => PointVerdict::SurvivedStructural { iterations: 0 },
        Some(SatAttackOutcome::Broken {
            iterations,
            conflicts,
            ..
        }) => PointVerdict::Broken {
            iterations,
            conflicts,
        },
        Some(SatAttackOutcome::Resilient {
            iterations,
            conflicts,
        }) => PointVerdict::Survived {
            iterations,
            conflicts,
        },
        Some(SatAttackOutcome::WrongKey { iterations, .. }) => {
            PointVerdict::SurvivedStructural { iterations }
        }
    }
}

/// Runs the sweep: every grid point through lock → price → attack on the
/// `shell-exec` pool, with journal resume and cooperative budget checks.
///
/// Deterministic for a fixed design/grid/options: results are merged in
/// point-index order regardless of worker count, and the per-point attack
/// budget is a conflict quota, never wall-clock.
///
/// # Errors
///
/// [`SweepError::InvalidGrid`] before any work; [`SweepError::Exhausted`]
/// when the sweep budget runs out (finished points stay journaled);
/// [`SweepError::Interrupted`] when `point_limit` stopped the run early.
pub fn run_sweep(
    design: &Netlist,
    grid: &SweepGrid,
    opts: &SweepOptions,
) -> Result<SweepReport, SweepError> {
    let _span = shell_trace::span!("explore.sweep");
    grid.validate().map_err(SweepError::InvalidGrid)?;
    let points = grid.points();
    let fingerprint = sweep_fingerprint(design, opts);

    // Restore journaled points first.
    let mut results: Vec<Option<PointResult>> = vec![None; points.len()];
    let mut resumed = 0usize;
    if let Some(dir) = &opts.journal_dir {
        for (i, point) in points.iter().enumerate() {
            if let Some(r) = load_journaled(opts.io.as_ref(), dir, i, point, &fingerprint) {
                results[i] = Some(r);
                resumed += 1;
            }
        }
        if resumed > 0 {
            shell_trace::counter_add("explore.points_resumed", resumed as u64);
        }
    }

    let mut todo: Vec<usize> = (0..points.len())
        .filter(|&i| results[i].is_none())
        .collect();
    let total_todo = todo.len();
    let limited = opts.point_limit.is_some_and(|limit| limit < total_todo);
    if let Some(limit) = opts.point_limit {
        todo.truncate(limit);
    }

    opts.budget.checkpoint().map_err(SweepError::Exhausted)?;
    let evaluated: Vec<Result<PointResult, Exhausted>> = shell_exec::parallel_map(&todo, |&i| {
        // Cooperative stop between points: a cancelled or expired sweep
        // stops spawning work, already-running points finish and journal.
        opts.budget.checkpoint()?;
        let result = evaluate_point(design, &points[i], i, opts)?;
        if let Some(dir) = &opts.journal_dir {
            store_journaled(opts.io.as_ref(), dir, &result, &fingerprint);
        }
        Ok(result)
    });

    let mut stopped: Option<Exhausted> = None;
    for entry in evaluated {
        match entry {
            Ok(r) => {
                let i = r.index;
                results[i] = Some(r);
            }
            Err(e) => stopped = Some(e),
        }
    }
    if let Some(e) = stopped {
        return Err(SweepError::Exhausted(e));
    }
    if limited {
        let remaining = results.iter().filter(|r| r.is_none()).count();
        return Err(SweepError::Interrupted {
            evaluated: todo.len(),
            remaining,
        });
    }
    let points: Vec<PointResult> = results
        .into_iter()
        .map(|r| r.expect("all evaluated"))
        .collect();
    let report = SweepReport { points, resumed };
    shell_trace::gauge("explore.pareto_size", report.front().len() as f64);
    Ok(report)
}
