//! The scoped work-stealing runner.
//!
//! Work is the index range `0..n`, pre-split into grain-sized tasks dealt
//! round-robin onto per-worker deques. A worker pops its own deque LIFO
//! (cache-warm, most recently dealt task first) and, when empty, steals
//! FIFO from the other deques in a fixed scan order — the classic
//! work-stealing discipline, here with mutex-guarded `VecDeque`s instead of
//! lock-free Chase-Lev deques (task grains are coarse enough that the lock
//! is noise).
//!
//! Each finished task yields `(start, results)`; after the scope joins, the
//! pieces are sorted by `start` and concatenated. That index-ordered merge
//! is what makes the parallel output identical to the sequential one no
//! matter how the steals interleave.

use crate::jobs::current_jobs;
use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps every element of `items` through `f` on the work-stealing pool and
/// returns the results **in input order**.
///
/// For a pure `f` the result equals `items.iter().map(f).collect()` exactly;
/// at `jobs = 1` (or for small inputs) that sequential loop is literally
/// what runs, on the calling thread.
///
/// # Panics
///
/// Re-raises the first panic any invocation of `f` produced.
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_grain(items, 1, f)
}

/// Like [`parallel_map`], but tasks hold at least `min_grain` elements —
/// the knob for kernels whose per-element cost is too small to pay a task's
/// bookkeeping (e.g. per-node cut enumeration).
///
/// # Panics
///
/// Re-raises the first panic any invocation of `f` produced.
pub fn parallel_map_grain<T, U, F>(items: &[T], min_grain: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let jobs = current_jobs();
    let grain = auto_grain(n, jobs, min_grain);
    if jobs <= 1 || n <= grain {
        return items.iter().map(f).collect();
    }
    run_ranges(n, jobs, grain, &|range: Range<usize>| {
        items[range].iter().map(&f).collect()
    })
}

/// Task size: aim for ~4 tasks per worker so steals have something to take
/// without shredding the input into per-element tasks.
fn auto_grain(n: usize, jobs: usize, min_grain: usize) -> usize {
    (n / (jobs.max(1) * 4)).max(min_grain).max(1)
}

/// The work-stealing core: applies `work` to grain-sized sub-ranges of
/// `0..n` on `jobs` scoped workers and merges the pieces in index order.
fn run_ranges<U: Send>(
    n: usize,
    jobs: usize,
    grain: usize,
    work: &(dyn Fn(Range<usize>) -> Vec<U> + Sync),
) -> Vec<U> {
    let workers = jobs.min(n.div_ceil(grain)).max(1);
    if workers == 1 {
        return work(0..n);
    }
    // Deal grain-sized tasks round-robin so every deque starts non-empty.
    let deques: Vec<Mutex<VecDeque<Range<usize>>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    {
        let mut start = 0usize;
        let mut next = 0usize;
        while start < n {
            let end = (start + grain).min(n);
            deques[next % workers].lock().unwrap().push_back(start..end);
            start = end;
            next += 1;
        }
    }
    let remaining = AtomicUsize::new(n);
    let poisoned = AtomicBool::new(false);
    let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let mut pieces: Vec<(usize, Vec<U>)> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for me in 0..workers {
            let deques = &deques;
            let remaining = &remaining;
            let poisoned = &poisoned;
            let panic_slot = &panic_slot;
            handles.push(s.spawn(move || {
                let mut local: Vec<(usize, Vec<U>)> = Vec::new();
                // Spin until every element is accounted for: a worker that
                // finds all deques empty may only exit once the in-flight
                // tasks of other workers have finished (or failed).
                while remaining.load(Ordering::Acquire) > 0 && !poisoned.load(Ordering::Acquire) {
                    let Some(range) = pop_or_steal(deques, me) else {
                        std::thread::yield_now();
                        continue;
                    };
                    let (start, len) = (range.start, range.len());
                    match catch_unwind(AssertUnwindSafe(|| work(range))) {
                        Ok(piece) => {
                            debug_assert_eq!(piece.len(), len);
                            local.push((start, piece));
                            remaining.fetch_sub(len, Ordering::AcqRel);
                        }
                        Err(payload) => {
                            let mut slot = panic_slot.lock().unwrap();
                            if slot.is_none() {
                                *slot = Some(payload);
                            }
                            poisoned.store(true, Ordering::Release);
                            break;
                        }
                    }
                }
                local
            }));
        }
        for handle in handles {
            // Workers catch their own panics; join can only fail if the
            // panic machinery itself panicked — surface that too.
            match handle.join() {
                Ok(local) => pieces.extend(local),
                Err(payload) => {
                    let mut slot = panic_slot.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
        }
    });
    if let Some(payload) = panic_slot.into_inner().unwrap() {
        resume_unwind(payload);
    }
    // Index-ordered merge: tasks are disjoint contiguous ranges, so sorting
    // by start and concatenating reproduces the sequential output exactly.
    pieces.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, mut piece) in pieces {
        out.append(&mut piece);
    }
    assert_eq!(out.len(), n, "every input element produced one output");
    out
}

/// Own deque LIFO first, then steal FIFO from victims in scan order.
fn pop_or_steal(deques: &[Mutex<VecDeque<Range<usize>>>], me: usize) -> Option<Range<usize>> {
    if let Some(range) = deques[me].lock().unwrap().pop_back() {
        return Some(range);
    }
    for offset in 1..deques.len() {
        let victim = (me + offset) % deques.len();
        if let Some(range) = deques[victim].lock().unwrap().pop_front() {
            return Some(range);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{override_lock, with_jobs};
    use shell_util::forall;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_matches_sequential_for_random_inputs() {
        let _override = override_lock();
        // The subsystem's core contract, as a property: for random sizes
        // (including 0 and 1), grains and worker counts, parallel_map equals
        // the sequential map element for element.
        forall(
            "parallel_map == sequential map",
            0x5EED_E8EC,
            48,
            |rng| {
                let len = rng.gen_range(0..200);
                let items: Vec<u64> = (0..len).map(|_| rng.next_u64() >> 32).collect();
                let jobs = rng.gen_range(1..9) as u64;
                let grain = rng.gen_range(1..8) as u64;
                (items, jobs, grain)
            },
            |(items, jobs, grain)| {
                let f = |&x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(7) ^ 0xA5;
                let expect: Vec<u64> = items.iter().map(f).collect();
                let got = with_jobs(*jobs as usize, || {
                    parallel_map_grain(items, *grain as usize, f)
                });
                if got == expect {
                    Ok(())
                } else {
                    Err(format!("mismatch at jobs={jobs} grain={grain}"))
                }
            },
        );
    }

    #[test]
    fn empty_and_single_element() {
        let _override = override_lock();
        for jobs in [1, 2, 8] {
            with_jobs(jobs, || {
                let empty: Vec<u32> = parallel_map(&[] as &[u32], |&x| x + 1);
                assert!(empty.is_empty());
                assert_eq!(parallel_map(&[41u32], |&x| x + 1), vec![42]);
            });
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let _override = override_lock();
        let caught = std::panic::catch_unwind(|| {
            with_jobs(4, || {
                let items: Vec<usize> = (0..64).collect();
                parallel_map(&items, |&i| {
                    if i == 37 {
                        panic!("task 37 exploded");
                    }
                    i
                })
            })
        })
        .expect_err("panic must cross the pool");
        let msg = caught
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("task 37"), "payload preserved: {msg}");
    }

    #[test]
    fn sequential_fallback_panic_propagates_too() {
        let _override = override_lock();
        let caught = std::panic::catch_unwind(|| {
            with_jobs(1, || parallel_map(&[1u8], |_| -> u8 { panic!("seq") }))
        });
        assert!(caught.is_err());
    }

    #[test]
    fn nested_scopes_compose() {
        let _override = override_lock();
        // A parallel_map whose tasks themselves call parallel_map — the
        // router does exactly this shape (map over nets, each consulting
        // shared read-only state). Inner pools just spawn their own scoped
        // workers; nothing deadlocks because no pool is global.
        let outer: Vec<usize> = (0..8).collect();
        let got = with_jobs(3, || {
            parallel_map(&outer, |&o| {
                let inner: Vec<usize> = (0..o + 1).collect();
                parallel_map(&inner, |&i| i * i).iter().sum::<usize>()
            })
        });
        let expect: Vec<usize> = outer
            .iter()
            .map(|&o| (0..o + 1).map(|i| i * i).sum())
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn oversubscription_stress() {
        let _override = override_lock();
        // Far more tasks than workers, tiny grain, workers outnumbering
        // cores: the steal/yield loop must neither lose nor duplicate work.
        let items: Vec<u64> = (0..10_000).collect();
        let calls = AtomicU64::new(0);
        let got = with_jobs(16, || {
            parallel_map(&items, |&x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x * 3 + 1
            })
        });
        assert_eq!(calls.load(Ordering::Relaxed), 10_000, "each element once");
        assert_eq!(got.len(), 10_000);
        for (i, &v) in got.iter().enumerate() {
            assert_eq!(v, i as u64 * 3 + 1);
        }
    }

    #[test]
    fn auto_grain_bounds() {
        assert_eq!(auto_grain(0, 4, 1), 1);
        assert_eq!(auto_grain(100, 4, 1), 6); // ~4 tasks per worker
        assert_eq!(auto_grain(100, 4, 16), 16); // floor wins
        assert_eq!(auto_grain(3, 8, 1), 1);
    }
}
