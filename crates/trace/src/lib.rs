//! shell-trace: zero-dependency structured tracing and metrics for the
//! SheLL flow.
//!
//! The flow spans synthesis → place-and-route → locking → SAT attack, with
//! parallelism (shell-exec) and budgets (shell-guard) layered on top. This
//! crate is the third leg: it makes both measurable. It provides an
//! [`Arc`](std::sync::Arc)-shared [`Tracer`] with nestable spans, monotonic
//! counters, and gauges, and exports either a Chrome-trace JSON (open it in
//! [Perfetto](https://ui.perfetto.dev)) or a human-readable summary with
//! self/total time, count, and p50/p95 per span name.
//!
//! Instrumentation is compiled into the hot paths permanently and gated at
//! runtime: when no tracer is installed, `span!`, [`counter_add`], and
//! [`gauge`] cost a single relaxed atomic load (&lt;10 ns, asserted by the
//! release-only test in `tests/tests/trace_observability.rs`). Binaries
//! enable it with the `SHELL_TRACE` environment variable via
//! [`init_from_env`].
//!
//! Events from shell-exec worker threads merge deterministically: each
//! thread records into a private shard and every event carries a
//! `(thread index, sequence)` pair. Summaries aggregate by span *name* with
//! order-independent statistics, so the [`SummaryMode::Normalized`] render
//! is byte-identical across `SHELL_JOBS` settings.
//!
//! # Example
//!
//! ```
//! use shell_trace::{SummaryMode, Summary, Tracer};
//!
//! shell_trace::install(Tracer::new());
//! {
//!     let _outer = shell_trace::span!("demo.outer");
//!     for i in 0..3 {
//!         let _inner = shell_trace::span!("demo.inner", iteration = i);
//!         shell_trace::counter_add("demo.items", 10);
//!     }
//!     shell_trace::gauge("demo.hpwl", 42.5);
//! }
//! let tracer = shell_trace::uninstall().unwrap();
//! let data = tracer.snapshot();
//! assert_eq!(data.span_count(), 4);
//! assert_eq!(data.counters, vec![("demo.items".to_string(), 30)]);
//!
//! let text = Summary::of(&data).render(SummaryMode::Normalized);
//! assert!(text.contains("demo.inner  count=3"));
//! // Chrome-trace JSON for Perfetto:
//! let json = shell_trace::chrome_trace(&data).to_string_pretty();
//! assert!(json.contains("\"traceEvents\""));
//! ```

mod chrome;
mod summary;
mod tracer;

pub use chrome::chrome_trace;
pub use summary::{GaugeRow, SpanRow, Summary, SummaryMode};
pub use tracer::{
    counter_add, current, enabled, gauge, init_from_env, install, span, span_arg, uninstall,
    GaugeEvent, Span, SpanEvent, ThreadTrace, TraceData, Tracer,
};

/// Opens a nestable span; the returned guard records the span when dropped.
///
/// ```
/// let _span = shell_trace::span!("route.negotiate");
/// let _with_arg = shell_trace::span!("attack.sat.dip", iteration = 3);
/// ```
///
/// With no tracer installed this is a single atomic load.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $key:ident = $value:expr) => {
        $crate::span_arg($name, stringify!($key), $value as f64)
    };
}

/// Writes the two trace artifacts for a snapshot into `dir`:
/// `{name}.json` (Chrome trace format) and `{name}.summary.txt` (timed
/// summary). Creates `dir` if needed and returns both paths.
pub fn write_artifacts(
    dir: &std::path::Path,
    name: &str,
    data: &TraceData,
) -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let json_path = dir.join(format!("{name}.json"));
    std::fs::write(&json_path, chrome_trace(data).to_string_pretty())?;
    let summary_path = dir.join(format!("{name}.summary.txt"));
    std::fs::write(&summary_path, Summary::of(data).render(SummaryMode::Timed))?;
    Ok((json_path, summary_path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The tracer is process-global; tests that install one must not
    /// interleave.
    static GLOBAL_TRACER: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_fast_path_records_nothing() {
        let _lock = GLOBAL_TRACER.lock().unwrap();
        assert!(uninstall().is_none() || true); // ensure clean slate
        assert!(!enabled());
        let span = span!("noop");
        assert!(!span.is_recording());
        drop(span);
        counter_add("noop.counter", 5);
        gauge("noop.gauge", 1.0);
        assert!(current().is_none());
    }

    #[test]
    fn nested_spans_attribute_self_time() {
        let _lock = GLOBAL_TRACER.lock().unwrap();
        install(Tracer::new());
        {
            let _outer = span!("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span!("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let data = uninstall().unwrap().snapshot();
        assert_eq!(data.span_count(), 2);
        let spans: Vec<_> = data.threads.iter().flat_map(|t| &t.spans).collect();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(outer.dur_ns >= inner.dur_ns);
        // outer's self time excludes inner's duration
        assert_eq!(outer.self_ns, outer.dur_ns - inner.dur_ns);
    }

    #[test]
    fn counters_sum_across_threads() {
        let _lock = GLOBAL_TRACER.lock().unwrap();
        install(Tracer::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _s = span!("worker.step");
                    counter_add("worker.items", 3);
                });
            }
        });
        let data = uninstall().unwrap().snapshot();
        assert_eq!(data.span_count(), 4);
        assert_eq!(data.counters, vec![("worker.items".to_string(), 12)]);
        // every thread got its own shard
        assert_eq!(data.threads.len(), 4);
    }

    #[test]
    fn counter_totals_match_the_snapshot() {
        let _lock = GLOBAL_TRACER.lock().unwrap();
        install(Tracer::new());
        {
            let _s = span!("demo.span");
            counter_add("demo.b", 2);
            counter_add("demo.a", 5);
            counter_add("demo.b", 1);
            gauge("demo.gauge", 1.0);
        }
        let tracer = uninstall().unwrap();
        let totals = tracer.counters();
        assert_eq!(totals, tracer.snapshot().counters);
        assert_eq!(
            totals,
            vec![("demo.a".to_string(), 5), ("demo.b".to_string(), 3)]
        );
    }

    #[test]
    fn chrome_trace_round_trips_through_json_parser() {
        let _lock = GLOBAL_TRACER.lock().unwrap();
        install(Tracer::new());
        {
            let _s = span!("demo.span", iteration = 1);
            gauge("demo.gauge", 7.25);
        }
        let data = uninstall().unwrap().snapshot();
        let text = chrome_trace(&data).to_string_pretty();
        let parsed = shell_util::Json::parse(&text).expect("chrome trace parses");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // metadata + 1 span + 1 gauge
        assert_eq!(events.len(), 3);
        let span_ev = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .unwrap();
        assert_eq!(span_ev.get("name").unwrap().as_str(), Some("demo.span"));
        assert_eq!(span_ev.get("cat").unwrap().as_str(), Some("demo"));
    }
}
