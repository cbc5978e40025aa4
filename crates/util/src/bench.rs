//! Monotonic-clock micro-benchmark runner.
//!
//! Replaces `criterion` for the kernel benchmarks: warm up, time N
//! iterations on `std::time::Instant` (monotonic), report min / mean /
//! median / p95. No statistics machinery beyond order statistics — the
//! numbers the repo's tables quote — and a `Json` export so runs land in
//! `results/*.json` next to everything else.

use crate::json::Json;
use std::time::Instant;

/// Order-statistic summary of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Benchmark name.
    pub name: String,
    /// Timed iterations (after warmup).
    pub iters: usize,
    /// Fastest iteration, nanoseconds.
    pub min_ns: u64,
    /// Arithmetic mean, nanoseconds.
    pub mean_ns: u64,
    /// Median (p50), nanoseconds.
    pub median_ns: u64,
    /// 95th percentile, nanoseconds.
    pub p95_ns: u64,
    /// Worker count the benchmarked code ran with (`SHELL_JOBS` /
    /// available parallelism at record time, or whatever the harness set
    /// via [`Bench::set_jobs`]). `1` means sequential.
    pub jobs: usize,
}

impl BenchReport {
    /// One-line human summary (`name  median 1.234ms  p95 2.000ms ...`).
    pub fn line(&self) -> String {
        format!(
            "{:<32} median {:>10}  p95 {:>10}  min {:>10}  mean {:>10}  ({} iters, jobs={})",
            self.name,
            fmt_ns(self.median_ns),
            fmt_ns(self.p95_ns),
            fmt_ns(self.min_ns),
            fmt_ns(self.mean_ns),
            self.iters,
            self.jobs
        )
    }

    /// JSON object for `results/*.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("iters", Json::from(self.iters)),
            ("min_ns", Json::from(self.min_ns)),
            ("mean_ns", Json::from(self.mean_ns)),
            ("median_ns", Json::from(self.median_ns)),
            ("p95_ns", Json::from(self.p95_ns)),
            ("jobs", Json::from(self.jobs)),
        ])
    }
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// A benchmark harness: `warmup` untimed runs, then `iters` timed runs.
#[derive(Debug, Clone)]
pub struct Bench {
    warmup: usize,
    iters: usize,
    jobs: usize,
    reports: Vec<BenchReport>,
}

impl Bench {
    /// Creates a runner with the given warmup and iteration counts.
    ///
    /// Reports are stamped with the ambient worker count (`SHELL_JOBS`, or
    /// the machine's available parallelism) so `results/*.json` records how
    /// many threads the numbers were measured with; harnesses that pin the
    /// count in-process should call [`Bench::set_jobs`].
    ///
    /// # Panics
    ///
    /// Panics when `iters` is zero.
    #[must_use]
    pub fn new(warmup: usize, iters: usize) -> Self {
        assert!(iters > 0, "need at least one timed iteration");
        Self {
            warmup,
            iters,
            jobs: ambient_jobs(),
            reports: Vec::new(),
        }
    }

    /// Overrides the worker count stamped into subsequent reports. Use when
    /// the harness pins the count in-process (e.g. `shell_exec::with_jobs`)
    /// rather than through the `SHELL_JOBS` environment.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.max(1);
    }

    /// Times `f`, printing the summary line and recording the report.
    /// Returns `f`'s last result so call sites keep the value alive
    /// (prevents the optimizer from deleting the benchmarked work).
    pub fn run<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> T {
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        let mut samples = Vec::with_capacity(self.iters);
        let mut last = None;
        for _ in 0..self.iters {
            let start = Instant::now();
            let value = std::hint::black_box(f());
            samples.push(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            last = Some(value);
        }
        let report = summarize(name, &mut samples, self.jobs);
        println!("{}", report.line());
        self.reports.push(report);
        last.expect("iters > 0")
    }

    /// All reports recorded so far, in run order.
    pub fn reports(&self) -> &[BenchReport] {
        &self.reports
    }

    /// JSON array of every recorded report.
    pub fn to_json(&self) -> Json {
        Json::arr(self.reports.iter().map(BenchReport::to_json))
    }
}

fn summarize(name: &str, samples: &mut [u64], jobs: usize) -> BenchReport {
    samples.sort_unstable();
    let n = samples.len();
    let sum: u128 = samples.iter().map(|&s| s as u128).sum();
    BenchReport {
        name: name.to_string(),
        iters: n,
        min_ns: samples[0],
        mean_ns: (sum / n as u128) as u64,
        median_ns: samples[n / 2],
        // Nearest-rank p95, clamped to the last sample.
        p95_ns: samples[((n * 95).div_ceil(100)).saturating_sub(1).min(n - 1)],
        jobs,
    }
}

/// The worker count the environment implies: `SHELL_JOBS` (a positive
/// integer) when set, the machine's available parallelism otherwise. This
/// mirrors `shell-exec`'s resolution — duplicated here because `shell-util`
/// sits below `shell-exec` in the dependency order.
fn ambient_jobs() -> usize {
    if let Ok(v) = std::env::var("SHELL_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_reports() {
        let mut bench = Bench::new(1, 8);
        let out = bench.run("spin", || (0..1000u64).sum::<u64>());
        assert_eq!(out, 499_500);
        let reports = bench.reports();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.iters, 8);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.p95_ns);
    }

    #[test]
    fn summary_order_statistics() {
        let mut samples = vec![50, 10, 30, 20, 40];
        let r = summarize("s", &mut samples, 1);
        assert_eq!(r.min_ns, 10);
        assert_eq!(r.median_ns, 30);
        assert_eq!(r.mean_ns, 30);
        assert_eq!(r.p95_ns, 50);
    }

    #[test]
    fn p95_of_large_sample() {
        let mut samples: Vec<u64> = (1..=100).collect();
        let r = summarize("s", &mut samples, 1);
        assert_eq!(r.p95_ns, 95);
        assert_eq!(r.median_ns, 51);
    }

    #[test]
    fn json_shape() {
        let mut bench = Bench::new(0, 2);
        bench.set_jobs(3);
        bench.run("x", || 1);
        let json = bench.to_json();
        let arr = json.as_arr().unwrap();
        assert_eq!(arr[0].get("name").and_then(Json::as_str), Some("x"));
        assert!(arr[0].get("median_ns").and_then(Json::as_u64).is_some());
        assert_eq!(arr[0].get("jobs").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.500µs");
        assert_eq!(fmt_ns(2_000_000), "2.000ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000s");
    }
}
