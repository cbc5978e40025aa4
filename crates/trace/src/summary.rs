//! Aggregated, human-readable summaries of a trace.
//!
//! Aggregation is strictly **by span name**, never by parent/child path:
//! with `SHELL_JOBS=1` a span emitted inside `shell_exec::parallel_map`
//! nests under its caller (inline execution), while with `SHELL_JOBS=4` it
//! runs on a worker thread with no parent. Name-keyed aggregation makes the
//! two indistinguishable, which is what the determinism contract requires.

use crate::tracer::TraceData;

/// One aggregated row per span name.
#[derive(Debug, Clone)]
pub struct SpanRow {
    /// Span name (dots express the taxonomy, e.g. `attack.sat.dip`).
    pub name: String,
    /// Number of closed spans with this name.
    pub count: u64,
    /// Sum of wall-clock durations, in nanoseconds.
    pub total_ns: u64,
    /// Sum of self times (duration minus same-thread children), ns.
    pub self_ns: u64,
    /// Median span duration, ns.
    pub p50_ns: u64,
    /// 95th-percentile span duration, ns.
    pub p95_ns: u64,
}

/// One aggregated row per gauge name (order-independent statistics only).
#[derive(Debug, Clone)]
pub struct GaugeRow {
    /// Gauge name, e.g. `place.hpwl`.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Smallest sampled value.
    pub min: f64,
    /// Largest sampled value.
    pub max: f64,
}

/// An aggregated view of a [`TraceData`], ready to render.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Span rows, sorted by name.
    pub spans: Vec<SpanRow>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge rows, sorted by name.
    pub gauges: Vec<GaugeRow>,
}

/// How much of a [`Summary`] to render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryMode {
    /// Everything, including wall-clock timings. For humans.
    Timed,
    /// Timings stripped: span counts, counter totals, gauge count/min/max.
    /// Byte-identical across `SHELL_JOBS` settings for the same workload —
    /// this is the mode the determinism tests compare.
    Normalized,
}

impl Summary {
    /// Aggregates a snapshot into per-name rows.
    pub fn of(data: &TraceData) -> Summary {
        use std::collections::BTreeMap;
        let mut spans: BTreeMap<&str, (u64, u64, u64, Vec<u64>)> = BTreeMap::new();
        let mut gauges: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for t in &data.threads {
            for s in &t.spans {
                let e = spans.entry(s.name).or_insert((0, 0, 0, Vec::new()));
                e.0 += 1;
                e.1 += s.dur_ns;
                e.2 += s.self_ns;
                e.3.push(s.dur_ns);
            }
            for g in &t.gauges {
                let e = gauges
                    .entry(g.name)
                    .or_insert((0, f64::INFINITY, f64::NEG_INFINITY));
                e.0 += 1;
                e.1 = e.1.min(g.value);
                e.2 = e.2.max(g.value);
            }
        }
        let spans = spans
            .into_iter()
            .map(|(name, (count, total_ns, self_ns, mut durs))| {
                durs.sort_unstable();
                SpanRow {
                    name: name.to_string(),
                    count,
                    total_ns,
                    self_ns,
                    p50_ns: percentile(&durs, 50),
                    p95_ns: percentile(&durs, 95),
                }
            })
            .collect();
        let gauges = gauges
            .into_iter()
            .map(|(name, (count, min, max))| GaugeRow {
                name: name.to_string(),
                count,
                min,
                max,
            })
            .collect();
        Summary {
            spans,
            counters: data.counters.clone(),
            gauges,
        }
    }

    /// Renders the summary as text.
    ///
    /// Span rows are sorted by name, and the dotted taxonomy is shown as
    /// indentation (one level per dot), giving a stable hierarchical view
    /// that does not depend on runtime nesting.
    pub fn render(&self, mode: SummaryMode) -> String {
        let mut out = String::new();
        out.push_str("== spans ==\n");
        for row in &self.spans {
            let indent = "  ".repeat(row.name.matches('.').count());
            match mode {
                SummaryMode::Timed => {
                    out.push_str(&format!(
                        "{indent}{name}  count={count}  total={total}  self={self_t}  p50={p50}  p95={p95}\n",
                        name = row.name,
                        count = row.count,
                        total = fmt_ns(row.total_ns),
                        self_t = fmt_ns(row.self_ns),
                        p50 = fmt_ns(row.p50_ns),
                        p95 = fmt_ns(row.p95_ns),
                    ));
                }
                SummaryMode::Normalized => {
                    out.push_str(&format!(
                        "{indent}{name}  count={count}\n",
                        name = row.name,
                        count = row.count,
                    ));
                }
            }
        }
        out.push_str("== counters ==\n");
        for (name, total) in &self.counters {
            out.push_str(&format!("{name}  total={total}\n"));
        }
        out.push_str("== gauges ==\n");
        for g in &self.gauges {
            out.push_str(&format!(
                "{name}  count={count}  min={min}  max={max}\n",
                name = g.name,
                count = g.count,
                min = g.min,
                max = g.max,
            ));
        }
        out
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (0 for empty input).
fn percentile(sorted: &[u64], pct: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct as usize * sorted.len()).div_ceil(100);
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Formats nanoseconds with a readable unit (ns / µs / ms / s).
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[], 50), 0);
    }
}
