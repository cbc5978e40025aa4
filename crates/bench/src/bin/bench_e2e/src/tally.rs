//! What a run records: timed operations grouped into passes, correctness
//! checks, and the service-side samples the per-layer metrics need.

use crate::host::Meter;
use std::time::Duration;

/// Measured work between two host-speed samples, ms: long enough that the
/// ~1 ms sample costs a few percent, short enough to follow the drift.
const SAMPLE_EVERY_MS: f64 = 25.0;

/// One measured pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// The seed its inputs were drawn from.
    pub seed: u64,
    /// Wall time of each timed operation, ms.
    pub wall_ms: Vec<f64>,
    /// The same times corrected to quiet-host speed, ms.
    pub op_ms: Vec<f64>,
    /// Trace counters of the pass (traced runs only).
    pub counters: Vec<(String, u64)>,
}

impl Pass {
    /// The pass's corrected time: the sum of its operations, in seconds.
    pub fn seconds(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / 1e3
    }
}

/// Samples taken around the service calls.
#[derive(Debug, Default)]
pub struct ServeSamples {
    /// Summed wall time of the cold (cache-missing) requests, ms.
    pub cold_ms: f64,
    /// Per warm request: the `submit` round trip, ms.
    pub warm_submit_ms: Vec<f64>,
    /// Per warm request: the `result` round trip, ms.
    pub warm_result_ms: Vec<f64>,
    /// Per in-process cache lookup: its time, µs, and the artifact size, KB.
    pub lookups: Vec<(f64, f64)>,
}

/// Everything a run records.
pub struct Tally {
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations whose outputs were wrong.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// The measured passes, in order.
    pub passes: Vec<Pass>,
    /// Attacks that recovered a working key.
    pub broken: u64,
    /// Attacks that ended without one.
    pub resilient: u64,
    /// Service samples of the `serve_mix` passes.
    pub serve: ServeSamples,
    /// Host-speed meter for the timed operations.
    pub meter: Meter,
    /// Whether [`Tally::op`] records into the last pass.
    open: bool,
    /// Wall times of the open pass not yet corrected, ms.
    pending_ms: Vec<f64>,
}

impl Tally {
    /// An empty tally with a fresh host-speed meter.
    pub fn new() -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            passes: Vec::new(),
            broken: 0,
            resilient: 0,
            serve: ServeSamples::default(),
            meter: Meter::new(),
            open: false,
            pending_ms: Vec::new(),
        }
    }

    /// Opens a measured pass; [`Tally::op`] adds to it until
    /// [`Tally::end_pass`].
    pub fn begin_pass(&mut self, seed: u64) {
        self.meter.factor();
        self.passes.push(Pass {
            seed,
            ..Pass::default()
        });
        self.open = true;
    }

    /// Closes the open pass and returns it.
    pub fn end_pass(&mut self) -> Option<&mut Pass> {
        self.correct_pending();
        self.open = false;
        self.passes.last_mut()
    }

    /// Records one timed operation of the open pass; outside a pass (the
    /// layer probe) operations are checked but not timed.
    pub fn op(&mut self, elapsed: Duration) {
        let (true, Some(pass)) = (self.open, self.passes.last_mut()) else {
            return;
        };
        let ms = elapsed.as_secs_f64() * 1e3;
        pass.wall_ms.push(ms);
        self.pending_ms.push(ms);
        if self.pending_ms.iter().sum::<f64>() >= SAMPLE_EVERY_MS {
            self.correct_pending();
        }
    }

    /// Samples host speed and corrects the operations timed since the last
    /// sample.
    fn correct_pending(&mut self) {
        if self.pending_ms.is_empty() {
            return;
        }
        let factor = self.meter.factor();
        if let Some(pass) = self.passes.last_mut() {
            pass.op_ms
                .extend(self.pending_ms.drain(..).map(|ms| ms * factor));
        }
    }

    /// Corrected time of every timed operation, ms.
    pub fn op_ms(&self) -> Vec<f64> {
        self.passes
            .iter()
            .flat_map(|p| p.op_ms.iter().copied())
            .collect()
    }

    /// Counts one attack verdict: `broken` when it recovered a key.
    pub fn count_verdict(&mut self, broken: bool) {
        if broken {
            self.broken += 1;
        } else {
            self.resilient += 1;
        }
    }

    /// Counts one checked operation; `problem` names what was wrong, if
    /// anything.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            eprintln!("check failed: {problem}");
            self.failed += 1;
            self.failures.push(problem);
        }
    }
}
