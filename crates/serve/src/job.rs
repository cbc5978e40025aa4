//! The job runners: one function per [`JobKind`], each mapping a resolved
//! request plus a [`Budget`] to a deterministic JSON artifact.
//!
//! Every payload here is designed to be **cacheable**: it carries only
//! run-invariant fields (no wall-clock, no host details, no job counts), so
//! the same request always produces the same bytes and a cache hit is
//! indistinguishable from a recomputation. The one wrinkle is *why* a job
//! stopped: quota exhaustion is deterministic (the N-th solver conflict is
//! the N-th solver conflict on any machine) and cacheable, while deadline
//! or cancellation stops depend on machine speed and operator action —
//! [`JobOutput::cacheable`] separates the two and the server only stores
//! the former.

use crate::request::{JobKind, ResolvedJob};
use shell_attacks::{sat_attack_report, xor_lock_cells, AttackCheckpoint, SatAttackOptions};
use shell_explore::{pick_from_report, run_sweep, SweepError, SweepOptions};
use shell_guard::{Budget, Exhausted};
use shell_lock::{activate, shell_lock, ShellOptions};
use shell_netlist::verilog::write_verilog;
use shell_netlist::{equiv_random, equiv_sequential_random, EquivResult};
use shell_synth::propagate_constants_cyclic;
use shell_util::Json;
use shell_verify::fuzz::run as fuzz_run;
use shell_verify::FuzzConfig;
use std::path::PathBuf;

/// What a runner hands back to the server.
pub struct JobOutput {
    /// The artifact payload (what `result` returns and the cache stores).
    pub payload: Json,
    /// Whether the payload may be cached: `false` when the run was cut
    /// short by a wall-clock deadline or a cancel — those outcomes are not
    /// functions of the request.
    pub cacheable: bool,
}

impl JobOutput {
    fn deterministic(payload: Json) -> Self {
        JobOutput {
            payload,
            cacheable: true,
        }
    }
}

fn bools_json(bits: &[bool]) -> Json {
    Json::arr(bits.iter().map(|&b| Json::Bool(b)))
}

/// `true` when `budget` was stopped by something deterministic (nothing, or
/// its quota). Deadline and cancellation poison cacheability.
fn budget_outcome_deterministic(budget: &Budget) -> bool {
    !matches!(
        budget.checkpoint(),
        Err(Exhausted::Deadline) | Err(Exhausted::Cancelled)
    )
}

/// Runs the full SheLL redaction flow.
///
/// # Errors
///
/// PnR failures and mis-specified requests, as display strings.
pub fn run_lock(job: &ResolvedJob, budget: &Budget) -> Result<JobOutput, String> {
    let _span = shell_trace::span!("serve.job.lock");
    let design = job.netlist.as_ref().ok_or("lock jobs need a circuit")?;
    let outcome = shell_lock(design, &lock_options(job, budget))
        .map_err(|e| format!("lock flow failed: {e}"))?;
    let payload = Json::obj([
        ("kind", Json::from(JobKind::Lock.label())),
        ("design", Json::from(design.name().to_string())),
        ("key_bits", Json::from(outcome.key_bits())),
        (
            "key_bits_before_shrink",
            Json::from(outcome.key_bits_before_shrink),
        ),
        ("key", bools_json(&outcome.key)),
        ("utilization", Json::from(outcome.utilization)),
        ("shrunk", Json::from(outcome.shrunk)),
        ("partition_cells", Json::from(outcome.partition_cells)),
        // The frame-addressed envelope is the canonical artifact since
        // flow version 8; the flat v1 view regenerates via `to_flat`.
        ("bitstream", outcome.framed.to_json()),
        ("locked_verilog", Json::from(write_verilog(&outcome.locked))),
        (
            "degraded",
            Json::arr(outcome.degraded.iter().map(|d| Json::from(d.clone()))),
        ),
    ]);
    Ok(JobOutput {
        payload,
        // A degraded-but-finished flow under a deadline is machine-speed
        // dependent; so is any deadline/cancel stop.
        cacheable: budget_outcome_deterministic(budget) && outcome.degraded.is_empty(),
    })
}

fn lock_options(job: &ResolvedJob, budget: &Budget) -> ShellOptions {
    let mut options = ShellOptions::default();
    options.pnr.seed = job.request.seed;
    options.pnr.budget = budget.clone();
    options.skip_shrink = job.request.skip_shrink;
    options
}

/// XOR-locks the circuit and runs the SAT attack against it, checkpointing
/// every DIP iteration to `checkpoint_path` and resuming from `resume` when
/// the server restarts over an in-flight job.
///
/// # Errors
///
/// Mis-specified requests and checkpoint/design mismatches.
pub fn run_attack(
    job: &ResolvedJob,
    budget: &Budget,
    checkpoint_path: Option<PathBuf>,
    resume: Option<AttackCheckpoint>,
    checkpoint_io: std::sync::Arc<dyn shell_chaos::Io>,
) -> Result<JobOutput, String> {
    let _span = shell_trace::span!("serve.job.attack");
    let oracle = job.netlist.as_ref().ok_or("attack jobs need a circuit")?;
    let (locked, true_key) = xor_lock_cells(oracle, job.request.key_bits);
    if let Some(cp) = &resume {
        if cp.design != locked.name() {
            return Err(format!(
                "checkpoint is for design `{}`, job locks `{}`",
                cp.design,
                locked.name()
            ));
        }
    }
    let options = SatAttackOptions {
        budget: budget.clone(),
        checkpoint_path,
        resume_from: resume,
        checkpoint_io,
        ..SatAttackOptions::default()
    };
    let report = sat_attack_report(&locked, oracle, &options);
    let cacheable = !matches!(
        report.stop,
        Some(Exhausted::Deadline) | Some(Exhausted::Cancelled)
    );
    let payload = Json::obj([
        ("kind", Json::from(JobKind::Attack.label())),
        ("design", Json::from(oracle.name().to_string())),
        ("key_bits", Json::from(job.request.key_bits)),
        ("true_key", bools_json(&true_key)),
        ("report", report.to_json()),
    ]);
    Ok(JobOutput { payload, cacheable })
}

/// Locks the circuit, activates it with the correct key, and proves (or
/// refutes) equivalence with the original.
///
/// # Errors
///
/// Lock-flow failures and mis-specified requests.
pub fn run_verify(job: &ResolvedJob, budget: &Budget) -> Result<JobOutput, String> {
    let _span = shell_trace::span!("serve.job.verify");
    let design = job.netlist.as_ref().ok_or("verify jobs need a circuit")?;
    let outcome = shell_lock(design, &lock_options(job, budget))
        .map_err(|e| format!("lock flow failed: {e}"))?;
    let activated = propagate_constants_cyclic(&activate(&outcome));
    let result = if design.is_combinational() && activated.is_combinational() {
        equiv_random(design, &activated, &[], &[], 256, 0xACE)
    } else {
        equiv_sequential_random(design, &activated, &[], &[], 48, 0xACE)
    };
    let (verdict, detail) = match &result {
        EquivResult::Equivalent => ("equivalent", Json::Null),
        EquivResult::Counterexample { inputs, .. } => {
            ("counterexample", bools_json(inputs))
        }
        EquivResult::Incomparable(reason) => ("incomparable", Json::from(reason.clone())),
    };
    let payload = Json::obj([
        ("kind", Json::from(JobKind::Verify.label())),
        ("design", Json::from(design.name().to_string())),
        ("key_bits", Json::from(outcome.key_bits())),
        ("verdict", Json::from(verdict)),
        ("detail", detail),
    ]);
    Ok(JobOutput {
        payload,
        cacheable: budget_outcome_deterministic(budget) && outcome.degraded.is_empty(),
    })
}

/// Runs a fabric design-space sweep (`shell-explore`): every grid point
/// through lock → price → attack, with per-point journal commits under
/// `journal_dir` so a server restart resumes instead of restarting. The
/// request's `conflict_quota` is budget *B* (the per-point attack quota);
/// the job budget's deadline/cancel stop the sweep between points.
///
/// # Errors
///
/// Mis-specified requests and invalid grids.
pub fn run_explore(
    job: &ResolvedJob,
    budget: &Budget,
    journal_dir: Option<PathBuf>,
    journal_io: std::sync::Arc<dyn shell_chaos::Io>,
) -> Result<JobOutput, String> {
    let _span = shell_trace::span!("serve.job.explore");
    let design = job.netlist.as_ref().ok_or("explore jobs need a circuit")?;
    let grid = job.request.effective_grid();
    let defaults = SweepOptions::default();
    let opts = SweepOptions {
        seed: job.request.seed,
        // Budget B per point: the request's (server-clamped) quota, or the
        // sweep default. The job budget itself is never quota-spent — its
        // deadline and cancellation govern the sweep as a whole.
        attack_quota: budget.remaining_quota().unwrap_or(defaults.attack_quota),
        skip_shrink: job.request.skip_shrink,
        budget: budget.clone(),
        journal_dir,
        io: journal_io,
        ..defaults
    };
    match run_sweep(design, &grid, &opts) {
        Ok(report) => {
            let pick = pick_from_report(&report)
                .map(|p| p.to_json())
                .unwrap_or(Json::Null);
            let payload = Json::obj([
                ("kind", Json::from(JobKind::Explore.label())),
                ("design", Json::from(design.name().to_string())),
                ("grid", grid.to_json()),
                ("report", report.to_json()),
                ("pareto", shell_explore::pareto_json(&report)),
                ("pick", pick),
            ]);
            Ok(JobOutput {
                payload,
                cacheable: budget_outcome_deterministic(budget),
            })
        }
        // A deadline/cancel stop mid-sweep is an artifact of machine speed
        // or operator action: report it as a stopped (never cached) result
        // rather than a job failure. Finished points stay in the journal
        // until the job reaches a terminal state.
        Err(SweepError::Exhausted(e)) => Ok(JobOutput {
            payload: Json::obj([
                ("kind", Json::from(JobKind::Explore.label())),
                ("design", Json::from(design.name().to_string())),
                ("status", Json::from("stopped")),
                ("reason", Json::from(e.label())),
            ]),
            cacheable: false,
        }),
        Err(e) => Err(format!("sweep failed: {e}")),
    }
}

/// Runs the differential pipeline fuzzer. Fuzz reports are deterministic by
/// construction (see `shell_verify::FuzzReport::to_json`), so the output is
/// always cacheable.
///
/// # Errors
///
/// Currently infallible; keeps the runner signature uniform.
pub fn run_fuzz(job: &ResolvedJob, _budget: &Budget) -> Result<JobOutput, String> {
    let _span = shell_trace::span!("serve.job.fuzz");
    let config = FuzzConfig::new(job.request.samples, job.request.seed);
    let report = fuzz_run(&config);
    Ok(JobOutput::deterministic(Json::obj([
        ("kind", Json::from(JobKind::Fuzz.label())),
        ("report", report.to_json()),
    ])))
}

/// Dispatches on the request's kind. `checkpoint_path`/`resume` feed the
/// attack checkpoint machinery; `journal_dir` is the explore sweep journal
/// (both travel through `checkpoint_io`).
///
/// # Errors
///
/// Whatever the kind-specific runner reports.
pub fn run(
    job: &ResolvedJob,
    budget: &Budget,
    checkpoint_path: Option<PathBuf>,
    resume: Option<AttackCheckpoint>,
    journal_dir: Option<PathBuf>,
    checkpoint_io: std::sync::Arc<dyn shell_chaos::Io>,
) -> Result<JobOutput, String> {
    match job.request.kind {
        JobKind::Lock => run_lock(job, budget),
        JobKind::Attack => run_attack(job, budget, checkpoint_path, resume, checkpoint_io),
        JobKind::Verify => run_verify(job, budget),
        JobKind::Fuzz => run_fuzz(job, budget),
        JobKind::Explore => run_explore(job, budget, journal_dir, checkpoint_io),
    }
}

/// Keeps `clippy` honest about unused-but-public helper visibility and
/// exercises the runners' determinism contract without the server.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{CircuitSpec, JobRequest};

    fn resolved(request: JobRequest) -> ResolvedJob {
        request.resolve().expect("request resolves")
    }

    #[test]
    fn lock_runs_are_deterministic_and_cacheable() {
        shell_verify::install();
        let job = resolved(JobRequest::default());
        let a = run(&job, &Budget::unlimited(), None, None, None, shell_chaos::real()).unwrap();
        let b = run(&job, &Budget::unlimited(), None, None, None, shell_chaos::real()).unwrap();
        assert!(a.cacheable);
        assert_eq!(
            a.payload.to_string_compact(),
            b.payload.to_string_compact(),
            "same request must produce byte-identical artifacts"
        );
    }

    #[test]
    fn attack_run_breaks_the_xor_lock_and_reports_the_key() {
        shell_verify::install();
        let job = resolved(JobRequest {
            kind: crate::request::JobKind::Attack,
            circuit: Some(CircuitSpec::RippleAdder { width: 3 }),
            key_bits: 5,
            ..JobRequest::default()
        });
        let out = run(&job, &Budget::unlimited(), None, None, None, shell_chaos::real()).unwrap();
        assert!(out.cacheable);
        let report = out.payload.get("report").unwrap();
        assert_eq!(report.get("status").and_then(Json::as_str), Some("broken"));
        // This lock has two correct keys, 01010 and 01110: key bit 2 is
        // unobservable. Which one the attack returns depends on its search
        // path, so the reported key only has to be one of them.
        let oracle = job.netlist.as_ref().unwrap();
        let (locked, _) = xor_lock_cells(oracle, 5);
        let correct: Vec<Json> = (0..32u32)
            .map(|code| (0..5).map(|i| (code >> i) & 1 == 1).collect::<Vec<bool>>())
            .filter(|key| {
                shell_netlist::equiv_exhaustive(oracle, &locked, &[], key).is_equivalent()
            })
            .map(|key| bools_json(&key))
            .collect();
        let planted = out.payload.get("true_key").unwrap();
        assert_eq!(
            correct.len(),
            2,
            "exactly two keys unlock the design: {correct:?}"
        );
        assert!(correct.contains(planted), "the planted key is correct");
        assert!(
            correct.contains(report.get("key").unwrap()),
            "the recovered key {:?} must unlock the design",
            report.get("key")
        );
    }

    #[test]
    fn cancelled_runs_are_not_cacheable() {
        shell_verify::install();
        let job = resolved(JobRequest {
            kind: crate::request::JobKind::Attack,
            circuit: Some(CircuitSpec::RippleAdder { width: 3 }),
            key_bits: 5,
            ..JobRequest::default()
        });
        let budget = Budget::unlimited();
        budget.cancel();
        let out = run(&job, &budget, None, None, None, shell_chaos::real()).unwrap();
        assert!(!out.cacheable, "a cancel-stopped result must not be cached");
    }

    #[test]
    fn verify_job_proves_the_default_roundtrip() {
        shell_verify::install();
        let job = resolved(JobRequest {
            kind: crate::request::JobKind::Verify,
            ..JobRequest::default()
        });
        let out = run(&job, &Budget::unlimited(), None, None, None, shell_chaos::real()).unwrap();
        assert_eq!(
            out.payload.get("verdict").and_then(Json::as_str),
            Some("equivalent")
        );
    }

    #[test]
    fn explore_job_reports_pareto_and_pick() {
        shell_verify::install();
        let job = resolved(JobRequest {
            kind: crate::request::JobKind::Explore,
            conflict_quota: Some(5_000),
            ..JobRequest::default()
        });
        let budget = Budget::unlimited().with_quota(5_000);
        let a = run(&job, &budget, None, None, None, shell_chaos::real()).unwrap();
        assert!(a.cacheable);
        let front = a.payload.get("report").unwrap().get("front").unwrap();
        assert!(
            !front.as_arr().unwrap().is_empty(),
            "tiny grid must yield a non-empty Pareto front"
        );
        // Deterministic: a second run produces byte-identical payloads.
        let b = run(&job, &budget.fresh(), None, None, None, shell_chaos::real()).unwrap();
        assert_eq!(a.payload.to_string_compact(), b.payload.to_string_compact());
    }

    #[test]
    fn explore_job_resumes_from_journal() {
        shell_verify::install();
        let dir = std::env::temp_dir().join(format!(
            "shell_serve_explore_journal_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let job = resolved(JobRequest {
            kind: crate::request::JobKind::Explore,
            conflict_quota: Some(5_000),
            ..JobRequest::default()
        });
        let budget = Budget::unlimited().with_quota(5_000);
        let cold = run(&job, &budget, None, None, Some(dir.clone()), shell_chaos::real())
            .unwrap();
        assert!(
            std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0) > 0,
            "journal must contain per-point records"
        );
        // Second run with the same journal resumes every point and must
        // reproduce the artifact byte for byte.
        let warm = run(&job, &budget.fresh(), None, None, Some(dir.clone()), shell_chaos::real())
            .unwrap();
        assert_eq!(
            cold.payload.to_string_compact(),
            warm.payload.to_string_compact()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fuzz_job_reports_sample_counts() {
        shell_verify::install();
        let job = resolved(JobRequest {
            kind: crate::request::JobKind::Fuzz,
            circuit: None,
            samples: 4,
            seed: 7,
            ..JobRequest::default()
        });
        let out = run(&job, &Budget::unlimited(), None, None, None, shell_chaos::real()).unwrap();
        let report = out.payload.get("report").unwrap();
        assert_eq!(report.get("samples").and_then(Json::as_u64), Some(4));
    }
}
