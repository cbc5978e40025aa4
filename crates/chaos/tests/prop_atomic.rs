//! Properties of `atomic_write`, the one durable-commit path:
//!
//! * for arbitrary seeded crash points, the observable state of the target
//!   is always the old value or the new value — never a torn hybrid — and
//!   the startup sweep leaves nothing else beside it. Counterexamples
//!   shrink via `shell_util::forall` down to the smallest (seed, crash op,
//!   payloads) case that violates the invariant;
//! * concurrent writers of one target never tear it for a reader.

use shell_chaos::{atomic_write, sweep_tmp, ChaosConfig, ChaosIo, Io, RealIo};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "shell_chaos_prop_{tag}_{}_{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One experiment: publish `old` cleanly into a directory that does not
/// exist yet, then publish `new` under a ChaosIo that crashes at mutating
/// op `crash_at`, sweep with real IO, and check the target holds exactly
/// `old` or exactly `new` and is alone in its directory.
fn run_case(seed: u64, crash_at: u64, old: &[u8], new: &[u8]) -> Result<(), String> {
    let dir = tmp_dir("case");
    let state = dir.join("state");
    let target = state.join("value.bin");

    atomic_write(&RealIo, &target, old).map_err(|e| format!("baseline commit: {e}"))?;
    let chaos = ChaosIo::new(ChaosConfig::crash_at(seed, crash_at));
    let outcome = atomic_write(&chaos, &target, new);

    // Fresh process: the startup sweep always runs on real IO.
    sweep_tmp(&RealIo, &state);

    let observed = std::fs::read(&target).map_err(|e| format!("read target: {e}"))?;
    let verdict = if outcome.is_ok() && observed != new {
        Err(format!(
            "commit reported success but target holds {} bytes != new",
            observed.len()
        ))
    } else if observed != old && observed != new {
        Err(format!(
            "torn state: {} bytes, neither old ({}) nor new ({})",
            observed.len(),
            old.len(),
            new.len()
        ))
    } else if RealIo
        .list_dir(&state)
        .map_err(|e| format!("list state dir: {e}"))?
        != vec![target.clone()]
    {
        Err("the sweep left litter beside the target".into())
    } else {
        Ok(())
    };
    let _ = std::fs::remove_dir_all(&dir);
    verdict
}

#[test]
fn atomic_write_is_old_or_new_under_arbitrary_crash_points() {
    // A commit performs 4 mutating ops (mkdir, temp write, sync, rename);
    // sampling crash points a little past that also covers "no crash".
    shell_util::forall(
        "atomic_write_old_or_new",
        0xA70_0717,
        64,
        |rng| {
            let seed = rng.next_u64();
            let crash_at = rng.bounded(6);
            let old_len = rng.gen_range(0..48);
            let new_len = rng.gen_range(1..48);
            let old: Vec<u8> = (0..old_len).map(|_| rng.bounded(256) as u8).collect();
            let new: Vec<u8> = (0..new_len).map(|_| rng.bounded(256) as u8).collect();
            (seed, crash_at, old, new)
        },
        |(seed, crash_at, old, new)| run_case(*seed, *crash_at, old, new),
    );
}

/// Four threads publish one payload to one target while the main thread
/// reads it, all released together: every publish succeeds, and every read
/// that finds the file sees the whole payload.
#[test]
fn concurrent_writers_of_one_target_never_tear() {
    const WRITERS: usize = 4;
    const COMMITS: usize = 200;
    let dir = tmp_dir("concurrent");
    let target = dir.join("artifact.json");
    let payload: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    let start = Barrier::new(WRITERS + 1);
    let finished = AtomicUsize::new(0);
    let (failed_writes, reads, torn_reads) = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let failed = (0..COMMITS)
                        .filter(|_| atomic_write(&RealIo, &target, &payload).is_err())
                        .count();
                    finished.fetch_add(1, Ordering::SeqCst);
                    failed
                })
            })
            .collect();
        let (mut reads, mut torn) = (0usize, 0usize);
        start.wait();
        while finished.load(Ordering::SeqCst) < WRITERS {
            if let Ok(bytes) = std::fs::read(&target) {
                reads += 1;
                if bytes != payload {
                    torn += 1;
                }
            }
        }
        let failed: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
        (failed, reads, torn)
    });
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(failed_writes, 0, "every concurrent publish must succeed");
    assert_eq!(
        torn_reads, 0,
        "{torn_reads} of {reads} reads saw a torn target"
    );
}
