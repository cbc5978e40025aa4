//! Minimal deterministic property-test harness.
//!
//! `forall` replays a fixed number of cases from a root seed: each case gets
//! its own SplitMix64-derived sub-seed, a generator draws an input from the
//! case RNG, and the property checks it. On failure the harness shrinks the
//! input (halving integers, bisecting and truncating vectors) to a minimal
//! counterexample and panics with the property name, the case index, the
//! *sub-seed* that reproduces the raw draw, and the shrunk input — so a red
//! run in CI can be replayed locally with one seed, no corpus files.
//!
//! ```
//! use shell_util::{forall, Shrink};
//!
//! forall("sum commutes", 0xC0FFEE, 64,
//!     |rng| (rng.gen_range(0..100) as u64, rng.gen_range(0..100) as u64),
//!     |&(a, b)| {
//!         if a + b == b + a { Ok(()) } else { Err("sum not commutative".into()) }
//!     });
//! ```

use crate::rng::{split_mix64, Rng};
use std::fmt::Debug;

/// Types the harness knows how to shrink toward a minimal counterexample.
///
/// `shrink` returns *simpler* candidates (never the value itself); the
/// harness keeps any candidate that still fails and repeats until a fixed
/// point or budget. Halving is the workhorse: it reaches 0 from any integer
/// in ~64 steps and empties any vector in ~log n steps.
pub trait Shrink: Sized {
    /// Strictly-simpler candidate values, most aggressive first.
    fn shrink(&self) -> Vec<Self>;
}

macro_rules! shrink_uint {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                let mut out = Vec::new();
                if v != 0 {
                    out.push(0);
                    if v / 2 != 0 {
                        out.push(v / 2);
                    }
                    out.push(v - 1);
                }
                out.dedup();
                out
            }
        }
    )*};
}
shrink_uint!(u8, u16, u32, u64, usize);

impl Shrink for bool {
    fn shrink(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl<T: Shrink + Clone> Shrink for Vec<T> {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let n = self.len();
        if n == 0 {
            return out;
        }
        // Halving first: front half, back half, then single-element drops
        // near both ends (cheap, usually enough to localize the culprit).
        out.push(self[..n / 2].to_vec());
        out.push(self[n - n / 2..].to_vec());
        if n > 1 {
            out.push(self[1..].to_vec());
            out.push(self[..n - 1].to_vec());
        }
        // Element-wise: shrink each position once, keeping length.
        for i in 0..n {
            for candidate in self[i].shrink() {
                let mut v = self.clone();
                v[i] = candidate;
                out.push(v);
            }
        }
        out
    }
}

macro_rules! shrink_tuple {
    ($(($($name:ident : $idx:tt),+)),+) => {$(
        impl<$($name: Shrink + Clone),+> Shrink for ($($name,)+) {
            fn shrink(&self) -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink() {
                        let mut t = self.clone();
                        t.$idx = candidate;
                        out.push(t);
                    }
                )+
                out
            }
        }
    )+};
}
shrink_tuple!(
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3)
);

/// Maximum property evaluations spent shrinking one failure.
const SHRINK_BUDGET: usize = 2000;

/// Runs `cases` deterministic property cases.
///
/// `generate` draws an input from the per-case RNG; `check` returns
/// `Err(reason)` to fail the property. Panics (test failure) on the first
/// failing case after shrinking, naming the root seed, case index and
/// sub-seed needed to reproduce it.
///
/// # Panics
///
/// Panics when a case fails, with the shrunk counterexample in the message.
pub fn forall<T, G, C>(name: &str, seed: u64, cases: usize, generate: G, check: C)
where
    T: Shrink + Clone + Debug,
    G: Fn(&mut Rng) -> T,
    C: Fn(&T) -> Result<(), String>,
{
    let mut root = seed;
    for case in 0..cases {
        let sub_seed = split_mix64(&mut root);
        let mut rng = Rng::seed_from_u64(sub_seed);
        let input = generate(&mut rng);
        if let Err(reason) = check(&input) {
            let (minimal, min_reason, steps) = shrink_to_minimal(input, reason, &check);
            panic!(
                "property `{name}` failed (root seed {seed:#x}, case {case}/{cases}, \
                 sub-seed {sub_seed:#x}, {steps} shrink steps)\n  reason: {min_reason}\n  \
                 minimal input: {minimal:?}\n  replay: forall({name:?}, {seed:#x}, ..) \
                 or regenerate from sub-seed {sub_seed:#x}"
            );
        }
    }
}

/// Greedy shrink loop: repeatedly adopt the first simpler candidate that
/// still fails, until no candidate fails or the budget runs out.
///
/// `input` must already fail `check` with `reason`. Returns the minimal
/// failing input, its failure reason, and the number of shrink steps taken.
/// This is the same loop [`forall`] runs on a failing case; it is public so
/// other harnesses (e.g. the `shell-verify` differential fuzzer) can shrink
/// their own counterexamples with identical semantics.
pub fn shrink_to_minimal<T, C>(mut input: T, mut reason: String, check: &C) -> (T, String, usize)
where
    T: Shrink + Clone,
    C: Fn(&T) -> Result<(), String>,
{
    let mut evals = 0usize;
    let mut steps = 0usize;
    'outer: loop {
        for candidate in input.shrink() {
            evals += 1;
            if evals > SHRINK_BUDGET {
                break 'outer;
            }
            if let Err(r) = check(&candidate) {
                input = candidate;
                reason = r;
                steps += 1;
                continue 'outer;
            }
        }
        break; // fixed point: nothing simpler fails
    }
    (input, reason, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_is_quiet() {
        forall(
            "xor involution",
            1,
            128,
            |rng| rng.next_u64(),
            |&v| {
                if (v ^ 0xFF) ^ 0xFF == v {
                    Ok(())
                } else {
                    Err("xor".into())
                }
            },
        );
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let err = std::panic::catch_unwind(|| {
            forall(
                "no value exceeds 10",
                7,
                256,
                |rng| rng.gen_range(0..1000) as u64,
                |&v| {
                    if v <= 10 {
                        Ok(())
                    } else {
                        Err(format!("{v} > 10"))
                    }
                },
            );
        })
        .expect_err("property must fail");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is a String");
        assert!(msg.contains("no value exceeds 10"), "{msg}");
        assert!(msg.contains("sub-seed"), "{msg}");
        // Shrink-by-halving must land on the boundary counterexample.
        assert!(msg.contains("minimal input: 11"), "{msg}");
    }

    #[test]
    fn vec_shrink_finds_small_witness() {
        // Fails whenever the vec contains an element >= 5; minimal failing
        // input is a single-element vec [5].
        let err = std::panic::catch_unwind(|| {
            forall(
                "all elements small",
                99,
                64,
                |rng| {
                    let len = rng.gen_range(0..20);
                    (0..len)
                        .map(|_| rng.gen_range(0..100) as u64)
                        .collect::<Vec<u64>>()
                },
                |v| {
                    if v.iter().all(|&x| x < 5) {
                        Ok(())
                    } else {
                        Err("big element".into())
                    }
                },
            );
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().cloned().unwrap();
        assert!(msg.contains("minimal input: [5]"), "{msg}");
    }

    #[test]
    fn deterministic_across_runs() {
        // The failing case index and counterexample are a pure function of
        // the root seed: capture the panic message twice and compare.
        let run = || {
            std::panic::catch_unwind(|| {
                forall(
                    "p",
                    0xDEAD,
                    128,
                    |rng| rng.gen_range(0..50) as u64,
                    |&v| if v < 49 { Ok(()) } else { Err("hit".into()) },
                )
            })
            .expect_err("fails")
            .downcast_ref::<String>()
            .cloned()
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tuple_shrink_shrinks_each_slot() {
        let t = (4u64, vec![1u64, 2]);
        let candidates = t.shrink();
        assert!(candidates.iter().any(|(a, _)| *a == 0));
        assert!(candidates.iter().any(|(_, v)| v.len() < 2));
    }

    #[test]
    fn shrink_never_returns_self() {
        for v in [0u64, 1, 2, 97, u64::MAX] {
            assert!(!v.shrink().contains(&v));
        }
        let v = vec![1u64, 2, 3];
        assert!(!v.shrink().contains(&v));
    }
}
