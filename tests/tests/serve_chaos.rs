//! Chaos-facing integration tests of shell-serve: the crash-point matrix,
//! connection-level fault isolation (truncated frames, oversized length
//! prefixes, mid-frame disconnects, stalled clients), admission-queue
//! overload, drain-mode shutdown with checkpoint resume, orphaned-job
//! recovery, and the startup cache integrity scan. A release-only test
//! adds a denser matrix and the warm cache-hit latency bound.

use shell_chaos::{ChaosConfig, ChaosIo};
use shell_serve::{
    error_code, read_frame, run_matrix, CircuitSpec, Client, JobKind, JobRequest, MatrixOptions,
    Server, ServerConfig, FLOW_VERSION, MAX_FRAME_BYTES,
};
use shell_util::Json;
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT_MS: u64 = 120_000;

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shell_chaos_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_with(dir: &PathBuf, tweak: impl FnOnce(&mut ServerConfig)) -> (Server, Client) {
    let mut config = ServerConfig::ephemeral(dir.clone());
    tweak(&mut config);
    let server = Server::start(config).expect("server starts");
    let client = Client::connect(&server.local_addr().to_string()).expect("client connects");
    (server, client)
}

fn finished_payload(client: &mut Client, id: u64) -> Json {
    let doc = client.result(id, WAIT_MS).expect("result");
    assert_eq!(
        doc.get("status").and_then(Json::as_str),
        Some("done"),
        "job {id}: {doc:?}"
    );
    doc.get("result").expect("payload").clone()
}

fn attack_request(key_bits: usize, seed: u64) -> JobRequest {
    JobRequest {
        kind: JobKind::Attack,
        circuit: Some(CircuitSpec::RippleAdder { width: 3 }),
        key_bits,
        seed,
        ..JobRequest::default()
    }
}

fn fuzz_request(seed: u64) -> JobRequest {
    JobRequest {
        kind: JobKind::Fuzz,
        circuit: None,
        samples: 2,
        seed,
        ..JobRequest::default()
    }
}

// ---- the crash-point matrix -------------------------------------------

/// Kills and restarts a `workers`-thread service at every `stride`-th
/// durable commit step and proves every recovery converges to the
/// reference artifacts with zero torn states.
fn assert_matrix_converges(workers: usize, stride: usize) {
    let root = state_dir(&format!("matrix_w{workers}_s{stride}"));
    let options = MatrixOptions {
        workers,
        stride,
        ..MatrixOptions::default()
    };
    let report = run_matrix(&root, &options).expect("matrix runs");
    assert!(report.points > 0, "no commit steps recorded");
    assert!(report.tested_points > 0);
    assert_eq!(report.torn_states, 0, "torn state survived recovery: {report:?}");
    assert_eq!(
        report.report_mismatches, 0,
        "recovered artifacts diverged from the reference: {report:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn crash_point_matrix_converges_to_reference_artifacts() {
    assert_matrix_converges(2, 13);
}

/// Release only: the denser matrix at one and four workers, and the
/// warm-hit bound. On a default (journaled) server, a cached artifact's
/// in-process lookup (disk read, envelope parse, integrity hash) takes a
/// median under 1 ms.
#[test]
#[ignore = "release only"]
fn denser_matrix_and_warm_cache_lookup_under_1ms() {
    assert_matrix_converges(1, 7);
    assert_matrix_converges(4, 7);

    let dir = state_dir("warm_lookup");
    let (server, mut client) = start_with(&dir, |config| config.workers = 1);
    let lock = JobRequest { seed: 0xBE7C4, ..JobRequest::default() };
    let cold = client.submit(&lock).expect("submit");
    assert!(!cold.cached, "first request must miss the cache");
    finished_payload(&mut client, cold.id);
    assert!(client.submit(&lock).expect("submit").cached, "repeat request must hit the cache");
    let key = lock.resolve().expect("resolves").key;
    let mut samples: Vec<Duration> = (0..32)
        .map(|_| {
            let t0 = Instant::now();
            assert!(server.cache().lookup(&key).is_some(), "artifact must be cached");
            t0.elapsed()
        })
        .collect();
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    assert!(
        median < Duration::from_millis(1),
        "warm cache hit took {median:?}; the bound is 1 ms"
    );
}

// ---- connection-level chaos -------------------------------------------

/// Opens a raw TCP connection to the server, no protocol client.
fn raw_conn(server: &Server) -> TcpStream {
    TcpStream::connect(server.local_addr()).expect("raw connect")
}

#[test]
fn truncated_frame_fails_only_that_connection() {
    let dir = state_dir("trunc");
    let (server, mut client) = start_with(&dir, |_| {});

    // Header promises 100 bytes, connection dies after 10.
    let mut bad = raw_conn(&server);
    bad.write_all(&100u32.to_be_bytes()).unwrap();
    bad.write_all(b"0123456789").unwrap();
    drop(bad);

    // Header only, then disconnect mid-frame.
    let mut bad = raw_conn(&server);
    bad.write_all(&16u32.to_be_bytes()).unwrap();
    drop(bad);

    // The server is unaffected for everyone else.
    client.ping().expect("healthy connection still served");
    let id = client.submit(&fuzz_request(1)).expect("submit").id;
    finished_payload(&mut client, id);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_length_prefix_is_refused_before_allocation() {
    let dir = state_dir("oversize");
    let (server, mut client) = start_with(&dir, |_| {});

    let mut bad = raw_conn(&server);
    bad.write_all(&(MAX_FRAME_BYTES + 1).to_be_bytes()).unwrap();
    bad.write_all(b"x").unwrap();
    let response = read_frame(&mut bad).expect("typed error frame").expect("frame");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    let message = response.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(message.contains("exceeds the maximum"), "{message}");

    client.ping().expect("server survives the oversized header");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_client_is_cut_loose_without_pinning_a_worker() {
    let dir = state_dir("stall");
    let (server, mut client) = start_with(&dir, |c| c.read_deadline_ms = 200);

    // A slow-loris: the frame starts but never finishes.
    let mut loris = raw_conn(&server);
    loris.write_all(&64u32.to_be_bytes()).unwrap();
    loris.write_all(b"half a frame").unwrap();
    loris.flush().unwrap();
    std::thread::sleep(Duration::from_millis(700));

    // The server answered with a typed `[stalled]` error and dropped it.
    loris
        .set_read_timeout(Some(Duration::from_millis(2_000)))
        .unwrap();
    let response = read_frame(&mut loris).expect("stall error frame").expect("frame");
    let message = response.get("error").and_then(Json::as_str).unwrap_or("");
    assert_eq!(error_code(message), Some("stalled"), "{message}");

    // Meanwhile real work was never blocked.
    let id = client.submit(&fuzz_request(2)).expect("submit").id;
    finished_payload(&mut client, id);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- admission control and drain --------------------------------------

#[test]
fn overloaded_queue_rejects_with_typed_error_and_recovers() {
    let dir = state_dir("overload");
    let (server, mut client) = start_with(&dir, |c| {
        c.workers = 1;
        c.max_queue = 1;
    });

    // Distinct seeds: no cache hits, every submit wants a queue slot. The
    // worker can claim at most one job in the microseconds these take, so
    // at least one submit must bounce off the 1-deep queue.
    let mut accepted = Vec::new();
    let mut rejections = 0;
    for seed in 0..4u64 {
        match client.submit(&attack_request(5, seed)) {
            Ok(submitted) => accepted.push(submitted.id),
            Err(e) => {
                assert_eq!(
                    error_code(&e.to_string()),
                    Some("overloaded"),
                    "unexpected submit error: {e}"
                );
                rejections += 1;
            }
        }
    }
    assert!(rejections > 0, "queue bound never engaged");
    assert!(!accepted.is_empty(), "every submit was rejected");
    for id in accepted {
        finished_payload(&mut client, id);
    }
    // Once the queue drained, admission reopens.
    let id = client.submit(&attack_request(5, 99)).expect("submit").id;
    finished_payload(&mut client, id);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_checkpoints_running_attack_and_restart_finishes_it() {
    // Reference: the same attack uninterrupted.
    let ref_dir = state_dir("drainref");
    let request = attack_request(8, 3);
    let (ref_server, mut ref_client) = start_with(&ref_dir, |c| c.workers = 1);
    let ref_id = ref_client.submit(&request).expect("submit").id;
    let reference = finished_payload(&mut ref_client, ref_id).to_string_compact();
    ref_server.stop();

    let dir = state_dir("drain");
    let (server, mut client) = start_with(&dir, |c| c.workers = 1);
    let id = client.submit(&request).expect("submit").id;
    let ack = client.drain().expect("drain acknowledged");
    assert_eq!(ack.get("draining").and_then(Json::as_bool), Some(true));
    // New work is refused while draining (the server may also already be
    // gone if the job checkpointed instantly — both are acceptable).
    if let Err(e) = client.submit(&fuzz_request(7)) {
        let text = e.to_string();
        assert!(
            error_code(&text) == Some("draining") || error_code(&text).is_none(),
            "unexpected rejection: {text}"
        );
    }
    server.wait();

    // Restart resumes from the checkpoint and converges byte-identically.
    let (server, mut client) = start_with(&dir, |c| c.workers = 1);
    let payload = finished_payload(&mut client, id).to_string_compact();
    assert_eq!(payload, reference, "drained-and-resumed report diverged");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

// ---- durable-state recovery -------------------------------------------

#[test]
fn orphaned_and_torn_records_recover_without_double_runs() {
    // Reference for job 5 below: the same attack, uninterrupted.
    let attack = attack_request(5, 11);
    let ref_dir = state_dir("orphanref");
    let (ref_server, mut ref_client) = start_with(&ref_dir, |_| {});
    let ref_id = ref_client.submit(&attack).expect("submit").id;
    let reference = finished_payload(&mut ref_client, ref_id).to_string_compact();
    ref_server.stop();

    let dir = state_dir("orphan");
    for sub in ["jobs", "results", "checkpoints"] {
        std::fs::create_dir_all(dir.join(sub)).unwrap();
    }
    let pending = |id: u64, request: &JobRequest| {
        Json::obj([("id", Json::from(id)), ("request", request.to_json())]).to_string_pretty()
    };
    // Job 2: result committed but the pending file was never retired — the
    // exact gap the old code crashed in. The marker payload proves the job
    // is served from the result, not re-run.
    let done = fuzz_request(2);
    std::fs::write(
        dir.join("results/2.json"),
        Json::obj([
            ("id", Json::from(2u64)),
            ("status", Json::from("done")),
            ("request", done.to_json()),
            ("cached", Json::from(false)),
            ("result", Json::obj([("kind", Json::from("marker"))])),
            ("error", Json::Null),
        ])
        .to_string_pretty(),
    )
    .unwrap();
    std::fs::write(dir.join("jobs/2.json"), pending(2, &done)).unwrap();
    // Job 3: plain orphan — pending survived a crash, no result.
    std::fs::write(dir.join("jobs/3.json"), pending(3, &fuzz_request(3))).unwrap();
    // Job 4: result write crashed mid-commit leaving torn bytes; the
    // pending file must re-queue it and the torn record must be evicted.
    std::fs::write(dir.join("results/4.json"), "{\"id\": 4, \"stat").unwrap();
    std::fs::write(dir.join("jobs/4.json"), pending(4, &fuzz_request(4))).unwrap();
    // Job 5: a pending attack whose checkpoint has no `mode`, as written
    // before the persistent-solver attack. It must not resume (its design
    // name does not even match); the attack restarts from iteration 0.
    std::fs::write(dir.join("jobs/5.json"), pending(5, &attack)).unwrap();
    std::fs::write(
        dir.join("checkpoints/5.json"),
        Json::obj([
            ("design", Json::from("legacy")),
            ("iterations", Json::from(0u64)),
            ("conflicts_spent", Json::from(0u64)),
            ("dips", Json::arr([])),
        ])
        .to_string_pretty(),
    )
    .unwrap();

    let (server, mut client) = start_with(&dir, |_| {});
    let resolved = finished_payload(&mut client, 2);
    assert_eq!(
        resolved.get("kind").and_then(Json::as_str),
        Some("marker"),
        "job 2 must resolve to its committed result, not re-run: {resolved:?}"
    );
    assert!(
        !dir.join("jobs/2.json").exists(),
        "stale pending file must be retired at recovery"
    );
    for id in [3, 4] {
        let payload = finished_payload(&mut client, id);
        assert_eq!(payload.get("kind").and_then(Json::as_str), Some("fuzz"));
    }
    assert_eq!(
        finished_payload(&mut client, 5).to_string_compact(),
        reference,
        "an attack with an unreadable checkpoint must restart, not fail"
    );
    // A fresh submit gets an id beyond everything recovered.
    let fresh = client.submit(&fuzz_request(50)).expect("submit").id;
    assert!(fresh > 5, "recovered ids must not be reissued: {fresh}");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn startup_cache_scan_evicts_garbage_before_it_can_be_served() {
    let dir = state_dir("cachescan");
    let shard = dir.join("cache").join(format!("v{FLOW_VERSION}")).join("ab");
    std::fs::create_dir_all(&shard).unwrap();
    std::fs::write(shard.join("abcd1234.json"), "not an envelope").unwrap();

    let (server, mut client) = start_with(&dir, |_| {});
    let stats = client.stats().expect("stats");
    let evicted = stats
        .get("cache")
        .and_then(|c| c.get("evicted_startup"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(evicted >= 1, "startup scan missed the garbage entry: {stats:?}");
    assert!(
        !shard.join("abcd1234.json").exists(),
        "garbage cache entry must be evicted from disk"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Transient fault classification end-to-end: under a deterministic
/// sprinkle of ENOSPC and fsync failures, the bounded retry ladder absorbs
/// the faults and every job still commits and completes.
#[test]
fn transient_io_faults_are_absorbed_by_the_retry_ladder() {
    let dir = state_dir("transient");
    let chaos = Arc::new(ChaosIo::new(ChaosConfig {
        enospc_per_mille: 40,
        sync_fail_per_mille: 40,
        ..ChaosConfig::calm(0xD1CE)
    }));
    let (server, mut client) = start_with(&dir, |c| c.io = chaos.clone());
    for seed in 0..3u64 {
        let id = client.submit(&fuzz_request(seed)).expect("submit").id;
        finished_payload(&mut client, id);
    }
    assert!(chaos.injected() > 0, "chaos never fired; raise the rates");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
