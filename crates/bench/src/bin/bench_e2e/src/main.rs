//! `bench_e2e`: the end-to-end and per-layer benchmark of the SheLL flow.
//!
//! One run is one process with one client and one worker thread
//! (`SHELL_JOBS=1`). It sets its workload up several times (reporting the
//! median), then runs a fixed number of measured passes, set by `--seconds`
//! and the workload's nominal pass time, so two builds given the same
//! arguments run the same passes on the same inputs. Every output is
//! checked; a run with a failed check exits 1. See `README.md` for the
//! workloads, the metrics and how to read a traced run.
//!
//! ```text
//! bench_e2e --workload <lock|attack_sat|attack_dip|serve_mix>
//!           [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`).

mod attack;
mod corpus;
mod host;
mod lock;
mod metrics;
mod probe;
mod serve;
mod stats;
mod tally;

use metrics::Metric;
use probe::ProbeFacts;
use shell_netlist::Netlist;
use shell_serve::Server;
use shell_trace::{Summary, TraceData, Tracer};
use shell_util::Json;
use stats::{median, quartiles};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use tally::Tally;

/// Set-up repetitions; `setup_s` is their median. The first few of a run
/// are up to half again slower than the rest (allocator and cache warm-up),
/// so the median needs many.
const SETUP_REPS: usize = 31;

const USAGE: &str = "usage: bench_e2e --workload <lock|attack_sat|attack_dip|serve_mix> \
[--seed <u64>] [--seconds <n>] [--trace <0|1>] [--out <dir>]";

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The SheLL flow, readback and verification over the corpus.
    Lock,
    /// Solver-bound SAT attacks on Fig. 1 locks of the corpus frames.
    AttackSat,
    /// DIP-bound SAT attacks on point locks of four corpus frames.
    AttackDip,
    /// One client of the service: new requests, then repeats.
    ServeMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Lock,
        Workload::AttackSat,
        Workload::AttackDip,
        Workload::ServeMix,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lock => "lock",
            Workload::AttackSat => "attack_sat",
            Workload::AttackDip => "attack_dip",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// About a pass's wall time on the development host (2 vCPUs of a
    /// shared virtual machine), s, including for `serve_mix` starting and
    /// stopping its service. Fixed here, not measured, so that the pass
    /// count does not depend on how fast the code under test is.
    fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::Lock => 5.0,
            Workload::AttackSat => 1.0,
            Workload::AttackDip => 0.7,
            Workload::ServeMix => 0.15,
        }
    }

    /// Measured passes of a run of about `seconds` seconds: at least one.
    fn passes(self, seconds: u64) -> usize {
        (seconds as f64 / self.nominal_pass_s()).ceil().max(1.0) as usize
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut parsed = Args {
            workload: Workload::Lock,
            seed: 12_648_430,
            seconds: 20,
            trace: false,
            out: PathBuf::from("target/bench_e2e"),
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => parsed.seed = number()?,
                "--seconds" => parsed.seconds = number()?,
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    }
                }
                "--out" => parsed.out = PathBuf::from(value),
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        parsed.workload = workload.ok_or("--workload is required")?;
        Ok(parsed)
    }
}

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)) {
        Ok(args) => shell_exec::with_jobs(1, || run(&args)),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// What the passes draw their inputs from.
struct Prepared {
    corpus: Vec<Netlist>,
    frames: Vec<Netlist>,
}

/// The workload's set-up: the corpus and its scan frames, and for the
/// service workload a started service with a connected client (returned so
/// that stopping it stays out of the timed set-up).
fn prepare(workload: Workload) -> Result<(Prepared, Option<Server>), String> {
    let corpus = corpus::corpus();
    let frames = corpus.iter().map(shell_attacks::scan_frame).collect();
    let service = match workload {
        Workload::ServeMix => {
            let (server, _client) =
                serve::start().map_err(|e| format!("service did not start: {e}"))?;
            Some(server)
        }
        _ => None,
    };
    Ok((Prepared { corpus, frames }, service))
}

/// Runs `f` under a fresh tracer when `enabled`, keeping its events
/// (offset to the run's clock) in `traces`. Whatever tracer is installed
/// when `f` returns is removed: the service installs one of its own when
/// none is, and a fresh service per pass must not inherit the last pass's.
fn traced<R>(
    enabled: bool,
    start: Instant,
    traces: &mut Vec<TraceData>,
    f: impl FnOnce() -> R,
) -> R {
    let offset_ns = start.elapsed().as_nanos() as u64;
    if enabled {
        shell_trace::install(Tracer::new());
    }
    let result = f();
    let installed = shell_trace::uninstall();
    if let (true, Some(tracer)) = (enabled, installed) {
        let mut data = tracer.snapshot();
        for thread in &mut data.threads {
            thread
                .spans
                .iter_mut()
                .for_each(|s| s.start_ns += offset_ns);
            thread.gauges.iter_mut().for_each(|g| g.at_ns += offset_ns);
        }
        traces.push(data);
    }
    result
}

/// All traced sections as one trace: threads side by side, counters summed.
fn merge(traces: Vec<TraceData>) -> TraceData {
    let mut counters = std::collections::BTreeMap::new();
    let mut threads = Vec::new();
    for data in traces {
        threads.extend(data.threads);
        for (name, value) in data.counters {
            *counters.entry(name).or_insert(0) += value;
        }
    }
    TraceData {
        threads,
        counters: counters.into_iter().collect(),
    }
}

fn run(args: &Args) -> ExitCode {
    let workload = args.workload;
    let mut tally = Tally::new();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (p, service) = match prepare(workload) {
            Ok(prepared) => prepared,
            Err(e) => {
                eprintln!("set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        setup_s.push(t0.elapsed().as_secs_f64() * tally.meter.factor());
        if let Some(server) = service {
            server.stop();
        }
        prepared = Some(p);
    }
    let Some(Prepared { corpus, frames }) = prepared else {
        return ExitCode::FAILURE;
    };

    let mut traces = Vec::new();
    // `lock` only: the first pass's locks, and which designs' bitstreams
    // differed from them in a later pass or the probe.
    let mut lock_reference: Option<Vec<_>> = None;
    let mut digest_changed = vec![false; corpus.len()];
    let mut peak_rss_mb = None;
    let requests = serve::requests();
    let start = Instant::now();
    for pass in 0..workload.passes(args.seconds) {
        let seed = corpus::pass_seed(args.seed, pass);
        tally.begin_pass(seed);
        let facts = traced(args.trace, start, &mut traces, || match workload {
            Workload::Lock => Some(lock::pass(&corpus, &mut tally)),
            Workload::AttackSat => {
                attack::pass(&attack::sat_instances(&frames, seed), false, &mut tally);
                None
            }
            Workload::AttackDip => {
                attack::pass(&attack::dip_instances(&frames, seed), true, &mut tally);
                None
            }
            Workload::ServeMix => {
                serve::session(&requests, &mut tally);
                None
            }
        });
        let counters = traces.last().map(|d| d.counters.clone());
        if let Some(pass) = tally.end_pass() {
            pass.counters = counters.unwrap_or_default();
        }
        // The memory set-up and one pass need; later passes only add
        // allocator drift (per-thread arenas of each pass's service threads
        // moved the whole-run peak by a third between runs).
        peak_rss_mb.get_or_insert_with(host::peak_rss_mb);
        if let Some(facts) = facts {
            match &lock_reference {
                None => lock_reference = Some(facts),
                Some(reference) => lock::mark_changes(&mut digest_changed, reference, &facts),
            }
        }
    }
    let measured_s = start.elapsed().as_secs_f64();

    let probe = match (&lock_reference, args.trace) {
        (Some(reference), true) => {
            let facts = traced(true, start, &mut traces, || {
                probe::run(&corpus, reference, &mut tally)
            });
            lock::mark_changes(&mut digest_changed, reference, &facts.designs);
            facts
        }
        _ => ProbeFacts::default(),
    };
    let digest_changes = lock_reference
        .is_some()
        .then(|| digest_changed.iter().filter(|&&c| c).count());
    let host_ref_ms = median(tally.meter.samples_ms());

    let e2e = metrics::end_to_end(&setup_s, &tally, peak_rss_mb.unwrap_or_default());
    let trace = merge(traces);
    let layers = args
        .trace
        .then(|| metrics::per_layer(&Summary::of(&trace), &tally, &probe, host_ref_ms));
    for m in e2e.iter().chain(layers.iter().flatten()) {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }

    let record = run_record(
        args,
        &setup_s,
        measured_s,
        &tally,
        digest_changes,
        &e2e,
        layers.as_deref(),
    );
    if let Err(e) = write_outputs(args, &record, args.trace.then_some(&trace)) {
        eprintln!("could not write results under {}: {e}", args.out.display());
    }

    let reported = layers.as_deref().unwrap_or(&e2e);
    let result = Json::obj([
        ("correct", Json::from(tally.failed == 0)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        (
            "metrics",
            Json::obj(reported.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })),
        ),
    ]);
    println!("{}", result.to_string_compact());
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn samples_json(values: &[f64]) -> Json {
    let (q1, q3) = quartiles(values);
    Json::obj([
        ("n", Json::from(values.len())),
        ("median", Json::from(median(values))),
        ("q1", Json::from(q1)),
        ("q3", Json::from(q3)),
        ("p99", Json::from(stats::percentile(values, 99.0))),
        ("samples", Json::arr(values.iter().map(|&v| Json::from(v)))),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("value", Json::from(m.value)),
                ("unit", Json::from(m.unit)),
                ("better", Json::from(m.better)),
            ]),
        )
    }))
}

/// The run record written to `<out>/<workload>[.traced].json`.
fn run_record(
    args: &Args,
    setup_s: &[f64],
    measured_s: f64,
    tally: &Tally,
    digest_changes: Option<usize>,
    e2e: &[Metric],
    layers: Option<&[Metric]>,
) -> Json {
    let pass_s: Vec<f64> = tally.passes.iter().map(|p| p.seconds()).collect();
    let warm_ms: Vec<f64> = tally
        .serve
        .warm_submit_ms
        .iter()
        .zip(&tally.serve.warm_result_ms)
        .map(|(s, r)| s + r)
        .collect();
    Json::obj([
        ("workload", Json::from(args.workload.name())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("traced", Json::from(args.trace)),
        ("jobs", Json::from(shell_exec::current_jobs())),
        ("measured_s", Json::from(measured_s)),
        ("peak_rss_mb_whole_run", Json::from(host::peak_rss_mb())),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        (
            "fail_rate",
            Json::from(tally.failed as f64 / tally.attempted.max(1) as f64),
        ),
        (
            "failures",
            Json::arr(tally.failures.iter().map(|f| Json::from(f.as_str()))),
        ),
        // Outcomes, not costs: they can be 0, so they are not metrics.
        ("attacks_broken", Json::from(tally.broken)),
        ("attacks_resilient", Json::from(tally.resilient)),
        (
            "lock_digest_changes",
            digest_changes.map_or(Json::Null, Json::from),
        ),
        ("end_to_end", metrics_json(e2e)),
        ("per_layer", layers.map_or(Json::Null, metrics_json)),
        (
            "samples",
            Json::obj([
                ("setup_s", samples_json(setup_s)),
                ("pass_s", samples_json(&pass_s)),
                ("op_ms", samples_json(&tally.op_ms())),
                ("host_kernel_ms", samples_json(tally.meter.samples_ms())),
                ("serve_warm_ms", samples_json(&warm_ms)),
            ]),
        ),
        (
            "passes",
            Json::arr(tally.passes.iter().map(|p| {
                Json::obj([
                    ("seed", Json::from(p.seed)),
                    ("seconds", Json::from(p.seconds())),
                    ("wall_s", Json::from(p.wall_ms.iter().sum::<f64>() / 1e3)),
                    ("ops", Json::from(p.op_ms.len())),
                    (
                        "counters",
                        Json::obj(p.counters.iter().map(|(k, v)| (k.as_str(), Json::from(*v)))),
                    ),
                ])
            })),
        ),
    ])
}

/// Writes the run record and, for a traced run, the Chrome trace and its
/// summary.
fn write_outputs(args: &Args, report: &Json, trace: Option<&TraceData>) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let name = args.workload.name();
    let suffix = if args.trace { ".traced" } else { "" };
    std::fs::write(
        args.out.join(format!("{name}{suffix}.json")),
        report.to_string_pretty(),
    )?;
    if let Some(trace) = trace {
        let (json, summary) =
            shell_trace::write_artifacts(&args.out, &format!("{name}.trace"), trace)?;
        eprintln!("trace: {} and {}", json.display(), summary.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_counts_follow_seconds_only() {
        for workload in Workload::ALL {
            assert_eq!(workload.passes(0), 1);
            assert!(workload.passes(20) >= workload.passes(10));
        }
        assert_eq!(Workload::Lock.passes(20), 4);
        assert_eq!(Workload::ServeMix.passes(20), 134);
    }
}
