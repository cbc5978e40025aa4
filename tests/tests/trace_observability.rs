//! Observability determinism: the shell-trace layer must describe the same
//! workload identically at any `SHELL_JOBS` setting — the normalized
//! summary (timings stripped) is compared byte for byte — and the Chrome
//! trace export must round-trip through the in-tree JSON parser. Also:
//! the bitstream counters of a partial reconfiguration, and (release only)
//! what the compiled-in probes cost while tracing is off.

use shell_circuits::axi_xbar;
use shell_fabric::{
    Bitstream, Fabric, FabricConfig, FrameGeometry, FramedBitstream, PartialReconfig,
};
use shell_guard::Budget;
use shell_pnr::{place_and_route_with_chains, PnrOptions};
use shell_sat::{Lit, SatResult, Solver};
use shell_trace::{Summary, SummaryMode, TraceData, Tracer};
use shell_util::Rng;
use std::sync::Mutex;
use std::time::Instant;

/// The tracer is process-global and `#[test]`s share the process: every
/// test that installs one serializes on this lock.
static GLOBAL_TRACER: Mutex<()> = Mutex::new(());

/// Runs the full chain flow under a fresh tracer at the given worker count
/// and returns the snapshot.
fn traced_flow(jobs: usize) -> shell_trace::TraceData {
    let design = axi_xbar(4, 2);
    let opts = PnrOptions::default();
    shell_trace::install(Tracer::new());
    shell_exec::with_jobs(jobs, || {
        place_and_route_with_chains(&design, FabricConfig::fabulous_style(true), &opts)
            .expect("maps");
    });
    shell_trace::uninstall().expect("tracer installed").snapshot()
}

#[test]
fn normalized_summary_identical_across_jobs() {
    let _lock = GLOBAL_TRACER.lock().unwrap();
    let sequential = Summary::of(&traced_flow(1)).render(SummaryMode::Normalized);
    let parallel = Summary::of(&traced_flow(4)).render(SummaryMode::Normalized);
    assert!(
        !sequential.is_empty(),
        "the flow must emit at least one event"
    );
    assert_eq!(
        sequential, parallel,
        "normalized span summary must not depend on SHELL_JOBS"
    );
}

#[test]
fn flow_emits_expected_taxonomy() {
    let _lock = GLOBAL_TRACER.lock().unwrap();
    let data = traced_flow(2);
    let summary = Summary::of(&data);
    let span_names: Vec<&str> = summary.spans.iter().map(|r| r.name.as_str()).collect();
    for expected in ["synth.lutmap", "place.anneal", "route.negotiate", "pnr.fit"] {
        assert!(
            span_names.contains(&expected),
            "expected span {expected} in {span_names:?}"
        );
    }
    let counter_names: Vec<&str> = summary.counters.iter().map(|(n, _)| n.as_str()).collect();
    for expected in ["pnr.fit_attempts", "place.moves", "route.spfa_relaxations", "synth.cuts"] {
        assert!(
            counter_names.contains(&expected),
            "expected counter {expected} in {counter_names:?}"
        );
    }
    let gauge_names: Vec<&str> = summary.gauges.iter().map(|g| g.name.as_str()).collect();
    assert!(
        gauge_names.contains(&"place.hpwl"),
        "expected gauge place.hpwl in {gauge_names:?}"
    );
    // Timed and normalized renders agree on structure: same row names.
    let timed = summary.render(SummaryMode::Timed);
    for name in span_names {
        assert!(timed.contains(name));
    }
}

#[test]
fn chrome_export_parses_and_carries_all_spans() {
    let _lock = GLOBAL_TRACER.lock().unwrap();
    let data = traced_flow(2);
    let text = shell_trace::chrome_trace(&data).to_string_pretty();
    let parsed = shell_util::Json::parse(&text).expect("chrome trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    let complete_events = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .count();
    assert_eq!(
        complete_events,
        data.span_count(),
        "every span becomes one complete event"
    );
    // Perfetto requires ts/dur/pid/tid on complete events.
    for ev in events {
        if ev.get("ph").and_then(|p| p.as_str()) == Some("X") {
            for field in ["ts", "dur", "pid", "tid", "name", "cat"] {
                assert!(ev.get(field).is_some(), "complete event missing {field}");
            }
        }
    }
}

#[test]
fn disabled_tracing_emits_nothing_and_costs_no_events() {
    let _lock = GLOBAL_TRACER.lock().unwrap();
    assert!(shell_trace::uninstall().is_none(), "no tracer leaked in");
    let design = axi_xbar(4, 2);
    let opts = PnrOptions::default();
    place_and_route_with_chains(&design, FabricConfig::fabulous_style(true), &opts)
        .expect("maps");
    assert!(shell_trace::current().is_none());
    // A tracer installed *after* the run sees a clean slate.
    shell_trace::install(Tracer::new());
    let data = shell_trace::uninstall().unwrap().snapshot();
    assert_eq!(data.span_count(), 0);
    assert!(data.counters.is_empty());
}

fn counter(data: &TraceData, name: &str) -> u64 {
    data.counters
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |&(_, v)| v)
}

/// A random flat bitstream with a random used mask.
fn demo_flat(geometry: FrameGeometry, seed: u64) -> Bitstream {
    let mut rng = Rng::seed_from_u64(seed);
    let mut flat = Bitstream::zeros(geometry.flat_bits());
    for i in 0..flat.len() {
        let v = rng.bounded(4);
        flat.set_unused(i, v & 1 == 1);
        if v & 2 == 2 {
            flat.mark_used(i);
        }
    }
    flat
}

/// Flipping one flat bit dirties exactly one frame; the partial
/// reconfiguration writes that frame, skips every other one, and the
/// `bitstream.frames_written` / `bitstream.frames_skipped` counters say so.
#[test]
fn one_dirty_frame_counts_one_written_and_the_rest_skipped() {
    let _lock = GLOBAL_TRACER.lock().unwrap();
    for (w, h) in [(2usize, 2usize), (3, 3), (4, 4)] {
        let fabric = Fabric::generate(FabricConfig::fabulous_style(true), w, h);
        let geometry = FrameGeometry::of(&fabric);
        let base_flat = demo_flat(geometry, 0xB17_57AE);
        let base = FramedBitstream::from_flat(&fabric, &base_flat).expect("packs");
        let mut target_flat = base_flat.clone();
        target_flat.set_unused(0, !target_flat.as_bools()[0]);
        let target = FramedBitstream::from_flat(&fabric, &target_flat).expect("packs");

        let mut device = base.clone();
        shell_trace::install(Tracer::new());
        let delta = PartialReconfig::diff(&device, &target).expect("diff");
        let written = delta.apply(&mut device).expect("apply");
        let data = shell_trace::uninstall().expect("tracer installed").snapshot();

        assert_eq!(written, 1, "{w}x{h}: one dirty frame");
        assert_eq!(counter(&data, "bitstream.frames_written"), 1, "{w}x{h}");
        assert_eq!(
            counter(&data, "bitstream.frames_skipped"),
            geometry.frame_count() as u64 - 1,
            "{w}x{h}"
        );
        assert_eq!(device.to_flat().expect("decodes").as_bools(), target_flat.as_bools());
    }
}

/// Median wall time of `f` in nanoseconds: 2 untimed warm-up runs, then 9
/// timed ones.
fn median_ns(mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f();
    }
    let mut samples: Vec<u128> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// Pigeonhole(8, 7) under an unlimited budget: small, conflict-heavy and
/// UNSAT, so the budget poll and the probes sit on a hot loop.
fn solve_pigeonhole_guarded() {
    let (pigeons, holes) = (8, 7);
    let mut s = Solver::new();
    let vars: Vec<_> = (0..pigeons * holes).map(|_| s.new_var()).collect();
    let p = |pigeon: usize, hole: usize| vars[pigeon * holes + hole];
    for i in 0..pigeons {
        let clause: Vec<Lit> = (0..holes).map(|h| Lit::pos(p(i, h))).collect();
        s.add_clause(&clause);
    }
    for h in 0..holes {
        for a in 0..pigeons {
            for b in (a + 1)..pigeons {
                s.add_clause(&[Lit::neg(p(a, h)), Lit::neg(p(b, h))]);
            }
        }
    }
    s.set_budget(Some(Budget::unlimited()));
    assert_eq!(s.solve(), SatResult::Unsat);
}

/// Release only: the price of shipping the probes. With no tracer
/// installed, a `span!` and a `counter_add` each cost under 10 ns. A
/// guarded solve crosses the probes 4 times (one `sat.solve` span, three
/// stat-delta counters); the probes cannot be compiled out at run time, so
/// their share of the median solve time is derived, and it stays under 2 %.
#[test]
#[ignore = "release only"]
fn disabled_probes_cost_under_10ns_and_2_percent_of_a_solve() {
    let _lock = GLOBAL_TRACER.lock().unwrap();
    assert!(shell_trace::uninstall().is_none(), "no tracer leaked in");
    const CALLS: u32 = 1_000_000;
    const PROBES_PER_SOLVE: f64 = 4.0;
    let span_ns = median_ns(|| {
        for _ in 0..CALLS {
            drop(std::hint::black_box(shell_trace::span!("bench.noop")));
        }
    }) / f64::from(CALLS);
    let counter_ns = median_ns(|| {
        for _ in 0..CALLS {
            shell_trace::counter_add("bench.noop", std::hint::black_box(1));
        }
    }) / f64::from(CALLS);
    assert!(
        span_ns < 10.0 && counter_ns < 10.0,
        "disabled probes must stay under 10 ns: span {span_ns:.2} ns, counter {counter_ns:.2} ns"
    );
    let solve_ns = median_ns(solve_pigeonhole_guarded);
    let overhead_pct = 100.0 * PROBES_PER_SOLVE * span_ns.max(counter_ns) / solve_ns;
    assert!(
        overhead_pct < 2.0,
        "disabled probes cost {overhead_pct:.4} % of a guarded solve; the bound is 2 %"
    );
}
