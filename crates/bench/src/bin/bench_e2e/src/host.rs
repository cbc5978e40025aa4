//! Host-speed correction and the process's peak memory.
//!
//! The benchmark runs on a shared host whose CPU speed drifts: the same pass
//! on the same inputs took 0.76 s in one run and 1.30 s in another, while
//! the guest saw no stolen time and memory latency did not move. An
//! arithmetic kernel slowed by the same factor as the workloads, so the
//! [`Meter`] times a fixed run of one between operations and scales every
//! measured time by `nominal / measured` kernel time: a time reads as it
//! would on the quiet host. The kernel lives here, not in a library crate,
//! so no change to the code under test can move it.

use std::time::Instant;

/// Double rounds of one kernel run.
const ROUNDS: u32 = 72_000;
/// The kernel run's wall time on a quiet host, ms: runs on 2 vCPUs of the
/// development machine had medians of 0.98–1.07 ms.
pub const NOMINAL_MS: f64 = 1.0;

/// One fixed run of the kernel: ChaCha-style add-rotate-xor double rounds
/// over a 16-word state, register-bound like the flows' inner loops.
fn kernel_ms(state: &mut [u32; 16]) -> f64 {
    fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(7);
    }
    let t0 = Instant::now();
    let mut s = std::hint::black_box(*state);
    for _ in 0..ROUNDS {
        quarter(&mut s, 0, 4, 8, 12);
        quarter(&mut s, 1, 5, 9, 13);
        quarter(&mut s, 2, 6, 10, 14);
        quarter(&mut s, 3, 7, 11, 15);
        quarter(&mut s, 0, 5, 10, 15);
        quarter(&mut s, 1, 6, 11, 12);
        quarter(&mut s, 2, 7, 8, 13);
        quarter(&mut s, 3, 4, 9, 14);
    }
    *state = std::hint::black_box(s);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Tracks host speed by timing the kernel between measured operations.
pub struct Meter {
    state: [u32; 16],
    last_ms: f64,
    samples_ms: Vec<f64>,
}

impl Meter {
    /// A meter with one sample taken.
    pub fn new() -> Meter {
        let mut state: [u32; 16] = std::array::from_fn(|i| 0x6170_7865 ^ i as u32);
        let last_ms = kernel_ms(&mut state);
        Meter {
            state,
            last_ms,
            samples_ms: vec![last_ms],
        }
    }

    /// Samples the kernel and returns the factor that turns a wall time
    /// measured since the previous sample into quiet-host time: the nominal
    /// kernel time over the mean of the two samples around the interval.
    pub fn factor(&mut self) -> f64 {
        let now_ms = kernel_ms(&mut self.state);
        let factor = NOMINAL_MS / ((self.last_ms + now_ms) / 2.0);
        self.last_ms = now_ms;
        self.samples_ms.push(now_ms);
        factor
    }

    /// Every kernel time sampled so far, ms.
    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }
}

/// Peak resident set size in MB (`VmHWM` of `/proc/self/status`); 0 where
/// the file does not exist.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_nominal_kernel_time() {
        let mut meter = Meter::new();
        let f = meter.factor();
        assert!(f.is_finite() && f > 0.0);
        let [a, b] = [meter.samples_ms()[0], meter.samples_ms()[1]];
        assert!((f - NOMINAL_MS / ((a + b) / 2.0)).abs() < 1e-12);
    }
}
