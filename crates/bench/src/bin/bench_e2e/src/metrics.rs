//! The metrics a run reports. `BENCHMARK.json` at the repository root
//! declares the same names, units and directions; a test keeps the two in
//! step.

use crate::probe::ProbeFacts;
use crate::stats::median;
use crate::tally::Tally;
use shell_trace::Summary;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, better: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        value,
    }
}

/// The end-to-end metrics, measured with tracing off. Times are corrected
/// to quiet-host speed (see [`crate::host`]); `peak_rss_mb` is the peak
/// after set-up and the first pass.
pub fn end_to_end(setup_s: &[f64], tally: &Tally, peak_rss_mb: f64) -> Vec<Metric> {
    let pass_s: Vec<f64> = tally.passes.iter().map(|p| p.seconds()).collect();
    vec![
        metric("setup_s", "s", "lower", median(setup_s)),
        metric("pass_s", "s", "lower", median(&pass_s)),
        metric("op_p50_ms", "ms", "lower", median(&tally.op_ms())),
        metric("peak_rss_mb", "MB", "lower", peak_rss_mb),
    ]
}

/// Span totals and counters of a traced run, by name.
struct Layers<'a>(&'a Summary);

impl Layers<'_> {
    fn span(&self, name: &str) -> Option<&shell_trace::SpanRow> {
        self.0.spans.iter().find(|row| row.name == name)
    }
    /// Summed duration of the spans called `name`, ms.
    fn total_ms(&self, name: &str) -> f64 {
        self.span(name).map_or(0.0, |row| row.total_ns as f64 / 1e6)
    }
    /// Summed self time of the spans called `name`, ms.
    fn self_ms(&self, name: &str) -> f64 {
        self.span(name).map_or(0.0, |row| row.self_ns as f64 / 1e6)
    }
    fn counter(&self, name: &str) -> f64 {
        self.0
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    }
    fn gauge_max(&self, name: &str) -> f64 {
        self.0
            .gauges
            .iter()
            .find(|g| g.name == name)
            .map_or(0.0, |g| g.max)
    }
}

/// `numerator / denominator`, or 0 when nothing was counted.
fn per(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run: totals over its measured passes
/// and, on `lock`, its layer probe. Times are self times unless the name
/// says total. A layer the workload does not run reads 0.
pub fn per_layer(
    summary: &Summary,
    tally: &Tally,
    probe: &ProbeFacts,
    host_ref_ms: f64,
) -> Vec<Metric> {
    let l = Layers(summary);
    let place_ms = l.self_ms("place.anneal");
    let route_ms = l.total_ms("route.negotiate");
    let shrink_ms = l.total_ms("bench.probe.shrink");
    let dip_overhead_ms = l.self_ms("attack.sat.dip");
    let solve_ms = l.self_ms("sat.solve");
    let job_ms: f64 = summary
        .spans
        .iter()
        .filter(|row| row.name.starts_with("serve.job."))
        .map(|row| row.total_ns as f64 / 1e6)
        .sum();
    let serve = &tally.serve;
    let lookup_us: Vec<f64> = serve.lookups.iter().map(|(us, _)| *us).collect();
    let lookup_kb: f64 = serve.lookups.iter().map(|(_, kb)| kb).sum();
    vec![
        metric(
            "core.select_ms",
            "ms",
            "lower",
            l.total_ms("bench.probe.select"),
        ),
        metric(
            "core.decouple_ms",
            "ms",
            "lower",
            l.total_ms("bench.probe.decouple"),
        ),
        metric(
            "core.reassemble_ms",
            "ms",
            "lower",
            l.total_ms("bench.probe.reassemble"),
        ),
        metric(
            "core.lock_flow_self_ms",
            "ms",
            "lower",
            l.self_ms("lock.flow"),
        ),
        metric("synth.lutmap_ms", "ms", "lower", l.self_ms("synth.lutmap")),
        metric("synth.cuts", "count", "lower", l.counter("synth.cuts")),
        metric("pnr.fit_ms", "ms", "lower", l.total_ms("pnr.fit")),
        metric(
            "pnr.fit_attempts",
            "count",
            "lower",
            l.counter("pnr.fit_attempts"),
        ),
        metric("pnr.place_ms", "ms", "lower", place_ms),
        metric(
            "pnr.place_moves",
            "count",
            "lower",
            l.counter("place.moves"),
        ),
        metric(
            "pnr.place_ns_per_move",
            "ns",
            "lower",
            per(place_ms * 1e6, l.counter("place.moves")),
        ),
        metric("pnr.route_ms", "ms", "lower", route_ms),
        metric(
            "pnr.route_relaxations",
            "count",
            "lower",
            l.counter("route.spfa_relaxations"),
        ),
        metric(
            "pnr.route_ns_per_relaxation",
            "ns",
            "lower",
            per(route_ms * 1e6, l.counter("route.spfa_relaxations")),
        ),
        metric(
            "fabric.netlist_gen_ms",
            "ms",
            "lower",
            l.total_ms("bench.probe.netlist_gen"),
        ),
        metric("fabric.shrink_ms", "ms", "lower", shrink_ms),
        metric(
            "fabric.shrink_cells_in",
            "count",
            "lower",
            probe.shrink_cells_in as f64,
        ),
        metric(
            "fabric.shrink_ns_per_cell",
            "ns",
            "lower",
            per(shrink_ms * 1e6, probe.shrink_cells_in as f64),
        ),
        metric(
            "fabric.frame_pack_ms",
            "ms",
            "lower",
            l.total_ms("bench.probe.frame_pack"),
        ),
        metric(
            "fabric.frame_readback_ms",
            "ms",
            "lower",
            l.total_ms("bench.readback"),
        ),
        metric("fabric.frames", "count", "lower", probe.frames as f64),
        metric("fabric.key_bits", "count", "higher", probe.key_bits as f64),
        metric(
            "netlist.verify_ms",
            "ms",
            "lower",
            l.total_ms("bench.verify"),
        ),
        metric("attacks.attack_ms", "ms", "lower", l.total_ms("attack.sat")),
        metric("attacks.dips", "count", "lower", l.counter("attack.dips")),
        metric("attacks.dip_overhead_ms", "ms", "lower", dip_overhead_ms),
        metric(
            "attacks.dip_overhead_us_per_dip",
            "us",
            "lower",
            per(dip_overhead_ms * 1e3, l.counter("attack.dips")),
        ),
        metric("sat.solve_ms", "ms", "lower", solve_ms),
        metric(
            "sat.conflicts",
            "count",
            "lower",
            l.counter("sat.conflicts"),
        ),
        metric(
            "sat.propagations",
            "count",
            "lower",
            l.counter("sat.propagations"),
        ),
        metric(
            "sat.ns_per_propagation",
            "ns",
            "lower",
            per(solve_ms * 1e6, l.counter("sat.propagations")),
        ),
        metric(
            "sat.clauses_db_max",
            "count",
            "lower",
            l.gauge_max("sat.clauses_db"),
        ),
        metric("serve.job_ms", "ms", "lower", job_ms),
        metric(
            "serve.cold_overhead_ms",
            "ms",
            "lower",
            serve.cold_ms - job_ms,
        ),
        metric(
            "serve.warm_submit_ms_p50",
            "ms",
            "lower",
            median(&serve.warm_submit_ms),
        ),
        metric(
            "serve.warm_result_ms_p50",
            "ms",
            "lower",
            median(&serve.warm_result_ms),
        ),
        metric(
            "serve.cache_lookup_us_p50",
            "us",
            "lower",
            median(&lookup_us),
        ),
        metric(
            "serve.cache_lookup_ns_per_kb",
            "ns",
            "lower",
            per(lookup_us.iter().sum::<f64>() * 1e3, lookup_kb),
        ),
        metric(
            "serve.artifact_kb_mean",
            "KB",
            "lower",
            per(lookup_kb, lookup_us.len() as f64),
        ),
        metric(
            "serve.cache_hits",
            "count",
            "higher",
            l.counter("cache.hits"),
        ),
        metric(
            "serve.cache_misses",
            "count",
            "lower",
            l.counter("cache.misses"),
        ),
        metric(
            "serve.cache_stores",
            "count",
            "lower",
            l.counter("cache.stores"),
        ),
        metric(
            "serve.journal_commits",
            "count",
            "lower",
            l.counter("journal.commits"),
        ),
        metric(
            "serve.requests",
            "count",
            "higher",
            l.counter("serve.requests"),
        ),
        metric("host.ref_ms", "ms", "lower", host_ref_ms),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use shell_util::Json;

    fn declared() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn empty_summary() -> Summary {
        Summary::of(&shell_trace::TraceData {
            threads: Vec::new(),
            counters: Vec::new(),
        })
    }

    /// `(name, unit, better)` of every metric a section declares.
    fn section(json: &Json, key: &str) -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("section")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn printed(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        let json = declared();
        let tally = Tally::new();
        assert_eq!(
            printed(&end_to_end(&[], &tally, 0.0)),
            section(&json, "end_to_end")
        );
        let layers = per_layer(&empty_summary(), &tally, &ProbeFacts::default(), 0.0);
        assert_eq!(printed(&layers), section(&json, "per_layer"));
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let json = declared();
        let mut names: Vec<String> = ["end_to_end", "per_layer"]
            .iter()
            .flat_map(|key| section(&json, key))
            .map(|(name, _, _)| name)
            .collect();
        for name in &names {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "metric names repeat");
    }

    #[test]
    fn declared_bounds_are_valid_and_setup_has_the_largest() {
        let json = declared();
        let bounds: Vec<(String, f64)> = json
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end")
            .iter()
            .map(|m| {
                let name = m
                    .get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string();
                (name, m.get("bound").and_then(Json::as_f64).expect("bound"))
            })
            .collect();
        for (name, bound) in &bounds {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound}");
        }
        let setup = bounds
            .iter()
            .find(|(n, _)| n == "setup_s")
            .expect("setup_s")
            .1;
        assert!(bounds.iter().all(|(_, b)| *b <= setup));
    }

    #[test]
    fn declared_workloads_are_the_ones_the_bin_runs() {
        let json = declared();
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let known: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, known);
    }

    #[test]
    fn ratios_of_nothing_are_zero_not_nan() {
        let layers = per_layer(&empty_summary(), &Tally::new(), &ProbeFacts::default(), 0.0);
        assert!(layers.iter().all(|m| m.value.is_finite()));
    }
}
