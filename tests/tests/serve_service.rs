//! End-to-end tests of shell-serve: the TCP protocol, concurrent jobs, the
//! content-addressed artifact cache (hits, corruption, key sensitivity),
//! cooperative cancellation, and crash-resume of in-flight attack jobs.

use shell_fabric::{FramedBitstream, PartialReconfig};
use shell_serve::{CircuitSpec, Client, JobKind, JobRequest, Server, ServerConfig};
use shell_util::Json;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shell_serve_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(dir: &Path) -> (Server, Client) {
    let server = Server::start(ServerConfig::ephemeral(dir.to_path_buf())).expect("server starts");
    let client = Client::connect(&server.local_addr().to_string()).expect("client connects");
    (server, client)
}

const WAIT_MS: u64 = 120_000;

fn finished_payload(client: &mut Client, id: u64) -> Json {
    let doc = client.result(id, WAIT_MS).expect("result");
    assert_eq!(
        doc.get("status").and_then(Json::as_str),
        Some("done"),
        "job {id}: {doc:?}"
    );
    doc.get("result").expect("payload").clone()
}

#[test]
fn concurrent_job_mix_completes() {
    let dir = state_dir("mix");
    let (server, mut client) = start(&dir);

    let lock = JobRequest::default();
    let attack = JobRequest {
        kind: JobKind::Attack,
        circuit: Some(CircuitSpec::RippleAdder { width: 3 }),
        key_bits: 5,
        ..JobRequest::default()
    };
    let fuzz = JobRequest {
        kind: JobKind::Fuzz,
        circuit: None,
        samples: 3,
        seed: 9,
        ..JobRequest::default()
    };
    let ids: Vec<u64> = [&lock, &attack, &fuzz]
        .iter()
        .map(|r| client.submit(r).expect("submit").id)
        .collect();
    // A second connection can observe and wait on the same jobs.
    let mut other = Client::connect(&server.local_addr().to_string()).expect("connect");
    for &id in &ids {
        let payload = finished_payload(&mut other, id);
        assert!(payload.get("kind").is_some(), "job {id}: {payload:?}");
    }
    let stats = client.stats().expect("stats");
    let done = stats
        .get("jobs")
        .and_then(|j| j.get("done"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(done >= 3, "stats: {stats:?}");
    assert!(stats.get("requests").and_then(Json::as_u64).unwrap_or(0) >= 4);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_hit_serves_byte_identical_artifact() {
    let dir = state_dir("hit");
    let (server, mut client) = start(&dir);

    let request = JobRequest {
        seed: 11,
        ..JobRequest::default()
    };
    let first = client.submit(&request).expect("submit");
    assert!(!first.cached, "a fresh request must miss");
    let first_payload = finished_payload(&mut client, first.id).to_string_compact();

    let second = client.submit(&request).expect("submit again");
    assert!(second.cached, "an identical request must hit the cache");
    assert_eq!(first.key, second.key, "identical requests share one key");
    let second_payload = finished_payload(&mut client, second.id).to_string_compact();
    assert_eq!(
        first_payload, second_payload,
        "a cache hit must serve byte-identical artifact bytes"
    );
    assert!(server.cache().hits() >= 1);
    // The stats document exposes the same counters over the wire.
    let stats = client.stats().expect("stats");
    let hits = stats
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(hits >= 1, "stats: {stats:?}");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_artifact_is_detected_and_recomputed() {
    let dir = state_dir("corrupt");
    let (server, mut client) = start(&dir);

    let request = JobRequest {
        seed: 23,
        ..JobRequest::default()
    };
    let first = client.submit(&request).expect("submit");
    let reference = finished_payload(&mut client, first.id).to_string_compact();

    // Flip payload bytes on disk behind the cache's back.
    let key = shell_serve::ContentHash::from_hex(&first.key).expect("key parses");
    let path = server.cache().path_for(&key);
    let text = std::fs::read_to_string(&path).expect("artifact on disk");
    let tampered = text.replace("\"utilization\"", "\"utilizatioX\"");
    assert_ne!(text, tampered, "tamper must change the file");
    std::fs::write(&path, tampered).expect("tamper");

    // The stored hash no longer matches: the entry must not be served, and
    // the job must recompute the same artifact.
    let second = client.submit(&request).expect("submit");
    assert!(!second.cached, "corrupt entry must read as a miss");
    let recomputed = finished_payload(&mut client, second.id).to_string_compact();
    assert_eq!(
        reference, recomputed,
        "recomputation must reproduce the artifact"
    );
    assert!(server.cache().corrupt() >= 1, "corruption must be counted");

    // The re-stored artifact serves hits again.
    let third = client.submit(&request).expect("submit");
    assert!(third.cached, "after recomputation the cache must hit again");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_key_tracks_content_not_deadline() {
    let dir = state_dir("keys");
    let (server, mut client) = start(&dir);

    let base = JobRequest {
        seed: 5,
        ..JobRequest::default()
    };
    let base_key = client.submit(&base).expect("submit").key;
    let submit =
        |client: &mut Client, request: &JobRequest| client.submit(request).expect("submit").key;
    let other_seed = JobRequest {
        seed: 6,
        ..base.clone()
    };
    assert_ne!(base_key, submit(&mut client, &other_seed));
    let other_circuit = JobRequest {
        circuit: Some(CircuitSpec::RippleAdder { width: 4 }),
        ..base.clone()
    };
    assert_ne!(base_key, submit(&mut client, &other_circuit));
    let with_deadline = JobRequest {
        deadline_ms: Some(WAIT_MS),
        ..base.clone()
    };
    assert_eq!(
        base_key,
        submit(&mut client, &with_deadline),
        "a wall-clock deadline must not change the cache key"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancellation_reaches_queued_and_running_jobs() {
    let dir = state_dir("cancel");
    let (server, mut client) = start(&dir);

    // A job big enough that cancellation lands before completion.
    let slow = JobRequest {
        kind: JobKind::Attack,
        circuit: Some(CircuitSpec::AxiXbar {
            channels: 6,
            width: 4,
        }),
        key_bits: 40,
        ..JobRequest::default()
    };
    let id = client.submit(&slow).expect("submit").id;
    let answer = client.cancel(id).expect("cancel");
    let state = answer.get("state").and_then(Json::as_str).unwrap_or("?");
    assert!(
        matches!(state, "cancelled" | "cancelling"),
        "cancel answered `{state}`"
    );
    let doc = client.result(id, WAIT_MS).expect("terminal");
    assert_eq!(
        doc.get("status").and_then(Json::as_str),
        Some("cancelled"),
        "{doc:?}"
    );
    // Cancelling a finished job is a no-op reporting its terminal state.
    let again = client.cancel(id).expect("cancel again");
    assert_eq!(again.get("state").and_then(Json::as_str), Some("cancelled"));
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance e2e: a server killed mid-attack resumes the job from its
/// DIP checkpoint after restart and produces a report byte-identical to an
/// uninterrupted run.
#[test]
fn crashed_server_resumes_attack_with_identical_report() {
    let attack = |seed: u64| JobRequest {
        kind: JobKind::Attack,
        circuit: Some(CircuitSpec::AxiXbar {
            channels: 6,
            width: 4,
        }),
        key_bits: 40,
        seed,
        ..JobRequest::default()
    };

    // Reference: the uninterrupted run.
    let ref_dir = state_dir("resume_ref");
    let (ref_server, mut ref_client) = start(&ref_dir);
    let ref_id = ref_client.submit(&attack(1)).expect("submit").id;
    let reference = finished_payload(&mut ref_client, ref_id).to_string_compact();
    ref_server.stop();
    let _ = std::fs::remove_dir_all(&ref_dir);

    // Interrupted run: crash the server as soon as the job has a DIP
    // checkpoint on disk. The crash window is a race against the attack
    // finishing, so retry with fresh seeds (fresh cache keys) until the
    // crash genuinely lands mid-flight.
    let mut resumed: Option<String> = None;
    for attempt in 0..5u64 {
        let dir = state_dir(&format!("resume_{attempt}"));
        let (server, mut client) = start(&dir);
        let id = client.submit(&attack(100 + attempt)).expect("submit").id;
        let checkpoint = dir.join("checkpoints").join(format!("{id}.json"));
        let pending = dir.join("jobs").join(format!("{id}.json"));
        let deadline = Instant::now() + Duration::from_secs(60);
        while !checkpoint.exists() && pending.exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(300));
        }
        server.crash();
        if !(checkpoint.exists() && pending.exists()) {
            // The attack outran us; try again on a fresh state dir.
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }

        // Restart on the same state: the pending job must re-enqueue,
        // resume from the checkpoint, and finish.
        let (server, mut client2) = start(&dir);
        let payload = finished_payload(&mut client2, id).to_string_compact();
        server.stop();
        assert!(
            !pending.exists(),
            "finished job must clear its pending file"
        );
        let _ = std::fs::remove_dir_all(&dir);
        resumed = Some(payload);
        break;
    }
    let resumed = resumed.expect("could not interrupt the attack mid-flight in 5 attempts");
    assert_eq!(
        reference, resumed,
        "resumed report must be byte-identical to the uninterrupted run"
    );
}

/// A single flipped frame codeword inside a cached lock artifact must fail
/// envelope verification, evict the entry, and recompute — damaged
/// configuration bytes are never served.
#[test]
fn corrupted_frame_in_cached_artifact_is_evicted_and_recomputed() {
    let dir = state_dir("frame_corrupt");
    let (server, mut client) = start(&dir);

    let request = JobRequest {
        seed: 31,
        ..JobRequest::default()
    };
    let first = client.submit(&request).expect("submit");
    let reference = finished_payload(&mut client, first.id).to_string_compact();

    // Tamper with one frame codeword hex digit inside the stored envelope.
    let key = shell_serve::ContentHash::from_hex(&first.key).expect("key parses");
    let path = server.cache().path_for(&key);
    let text = std::fs::read_to_string(&path).expect("artifact on disk");
    let at = text
        .find("\"code\": \"")
        .expect("envelope holds frame codewords")
        + "\"code\": \"".len();
    let mut bytes = text.into_bytes();
    bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
    std::fs::write(&path, bytes).expect("tamper");

    let second = client.submit(&request).expect("submit");
    assert!(!second.cached, "frame-tampered entry must read as a miss");
    let recomputed = finished_payload(&mut client, second.id).to_string_compact();
    assert_eq!(
        reference, recomputed,
        "recomputation must reproduce the artifact"
    );
    assert!(
        server.cache().corrupt() >= 1,
        "frame tamper must count as corruption"
    );
    assert!(!client.submit(&request).expect("submit").cached || server.cache().hits() >= 1);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The partial-reconfiguration path over the wire: the server diffs two
/// cached lock artifacts into a `shell-reconfig` delta that, applied to the
/// base configuration, reproduces the target exactly — and the delta's
/// frame accounting is consistent.
#[test]
fn partial_reconfig_delta_round_trips_over_the_wire() {
    let dir = state_dir("delta");
    let (server, mut client) = start(&dir);

    let base_req = JobRequest {
        seed: 41,
        ..JobRequest::default()
    };
    let target_req = JobRequest {
        seed: 42,
        ..JobRequest::default()
    };

    // The delta endpoint only serves cached artifacts: asking before the
    // jobs ran is a typed error, and the connection survives it.
    let err = client
        .delta(&base_req, &target_req)
        .expect_err("uncached artifacts must be refused");
    assert!(err.to_string().contains("not cached"), "{err}");
    client.ping().expect("connection survives a refused delta");

    let base_id = client.submit(&base_req).expect("submit").id;
    let target_id = client.submit(&target_req).expect("submit").id;
    let base_frames = FramedBitstream::from_json(
        finished_payload(&mut client, base_id)
            .get("bitstream")
            .expect("bitstream"),
    )
    .expect("base frames parse");
    let target_frames = FramedBitstream::from_json(
        finished_payload(&mut client, target_id)
            .get("bitstream")
            .expect("bitstream"),
    )
    .expect("target frames parse");

    let answer = client.delta(&base_req, &target_req).expect("delta");
    let delta = PartialReconfig::from_json(answer.get("delta").expect("delta document"))
        .expect("delta parses");
    let total = answer.get("frames_total").and_then(Json::as_u64).unwrap();
    let written = answer.get("frames_written").and_then(Json::as_u64).unwrap();
    let skipped = answer.get("frames_skipped").and_then(Json::as_u64).unwrap();
    assert_eq!(total, base_frames.frame_count() as u64);
    assert_eq!(
        written + skipped,
        total,
        "every frame is written or skipped"
    );
    assert_eq!(written, delta.frames_written() as u64);
    assert!(
        written < total,
        "reconfiguring between two placements of the same design must not \
         rewrite every frame ({written}/{total})"
    );

    let mut patched = base_frames;
    delta
        .apply(&mut patched)
        .expect("delta applies to its base");
    assert_eq!(
        patched.to_flat().unwrap().as_bools(),
        target_frames.to_flat().unwrap().as_bools(),
        "base + delta must equal the target configuration"
    );

    // Non-lock requests have no frames to diff.
    let fuzz = JobRequest {
        kind: JobKind::Fuzz,
        circuit: None,
        samples: 3,
        seed: 9,
        ..JobRequest::default()
    };
    let fuzz_id = client.submit(&fuzz).expect("submit").id;
    finished_payload(&mut client, fuzz_id);
    let err = client
        .delta(&fuzz, &target_req)
        .expect_err("non-lock deltas must be refused");
    assert!(err.to_string().contains("lock"), "{err}");
    client.ping().expect("connection survives a refused delta");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_frames_and_commands_get_errors_not_crashes() {
    let dir = state_dir("errors");
    let (server, mut client) = start(&dir);

    // Unknown command.
    let err = client
        .request(&Json::obj([("cmd", Json::from("warp"))]))
        .expect_err("unknown command must error");
    assert!(err.to_string().contains("unknown command"), "{err}");
    // Missing fields (the connection survives the previous error).
    let err = client
        .request(&Json::obj([("cmd", Json::from("submit"))]))
        .expect_err("submit without request must error");
    assert!(err.to_string().contains("request"), "{err}");
    // Unknown ids.
    assert!(client.status(999).is_err());
    assert!(client.result(999, 0).is_err());
    // The server still answers afterwards.
    client.ping().expect("still alive");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
