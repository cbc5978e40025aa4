//! The crash-point matrix: enumerate every durable commit step the service
//! performs for a workload, kill-and-restart the server at each one, and
//! prove the recovered server converges to a state whose artifacts are
//! byte-identical to an uninterrupted run.
//!
//! ## How a matrix run works
//!
//! 1. **Reference pass** — the workload runs to completion on the real
//!    filesystem; the per-request result payloads (compact JSON) become the
//!    ground truth.
//! 2. **Recording pass** — the same workload runs under a *calm*
//!    [`ChaosIo`] (no faults injected) purely to count mutating filesystem
//!    operations. That count is the crash-point index space: every `write`,
//!    `sync`, `rename`, `remove` and `mkdir` the server issues is a place a
//!    power cut could land.
//! 3. **Matrix pass** — for each selected point `k`, a fresh server runs
//!    the workload under `ChaosIo::crash_at(seed, k)`: the k-th mutating op
//!    is *partially applied* (torn prefix write, coin-flipped rename) and
//!    every op after it fails, exactly like a kill. The server is then
//!    [`Server::crash`]ed, restarted over the same state dir on the real
//!    filesystem, the workload is resubmitted idempotently, and the final
//!    payloads are byte-compared against the reference. Afterwards the
//!    state dir is scanned for torn residue — unparseable records, orphaned
//!    temp files, any other stray file — all of which recovery must have
//!    evicted or swept.
//!
//! The matrix passes iff every point recovers with zero torn states and
//! zero payload mismatches.

use crate::client::Client;
use crate::request::JobRequest;
use crate::server::{Server, ServerConfig};
use shell_chaos::{ChaosConfig, ChaosIo, Io, TMP_EXT};
use shell_util::Json;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What to run and which crash points to test.
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    /// Seed for the chaos RNG (torn-write lengths, rename coin flips).
    pub seed: u64,
    /// Worker threads per server instance (`0` = `SHELL_JOBS` sizing).
    pub workers: usize,
    /// Test every `stride`-th crash point (`1` = exhaustive). The debug
    /// smoke test uses a stride to bound wall-clock; the release-only test
    /// runs stride 1.
    pub stride: usize,
    /// The workload submitted to every server instance.
    pub requests: Vec<JobRequest>,
    /// Server-side wait bound per result fetch, in milliseconds.
    pub wait_ms: u64,
}

impl MatrixOptions {
    /// A small workload that still touches every durable surface: an
    /// attack job (pending record, per-DIP checkpoint writes, result
    /// record, cache store) plus a fuzz job (queue + cache only).
    pub fn default_workload() -> Vec<JobRequest> {
        use crate::request::{CircuitSpec, JobKind};
        vec![
            JobRequest {
                kind: JobKind::Attack,
                circuit: Some(CircuitSpec::RippleAdder { width: 3 }),
                key_bits: 4,
                ..JobRequest::default()
            },
            JobRequest {
                kind: JobKind::Fuzz,
                circuit: None,
                samples: 2,
                seed: 11,
                ..JobRequest::default()
            },
        ]
    }
}

impl Default for MatrixOptions {
    fn default() -> Self {
        MatrixOptions {
            seed: 0xC4A511,
            workers: 0,
            stride: 1,
            requests: MatrixOptions::default_workload(),
            wait_ms: 60_000,
        }
    }
}

/// Outcome of a full matrix run.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Mutating filesystem ops counted by the recording pass — the size of
    /// the crash-point index space.
    pub points: u64,
    /// Points actually exercised (`points / stride`, rounded up).
    pub tested_points: usize,
    /// Points where the injected crash actually fired before the workload
    /// finished (late points on a shorter-than-recorded schedule may not).
    pub crashed_points: usize,
    /// Points whose post-recovery state dir still held torn residue:
    /// unparseable records, orphaned temp files, or other stray files.
    pub torn_states: usize,
    /// Points whose recovered payloads differed from the reference run.
    pub report_mismatches: usize,
}

impl MatrixReport {
    /// `true` iff every tested point recovered to a consistent state.
    pub fn consistent(&self) -> bool {
        self.torn_states == 0 && self.report_mismatches == 0
    }
}

fn start_server(dir: &Path, io: Arc<dyn Io>, workers: usize) -> io::Result<Server> {
    Server::start(ServerConfig {
        workers,
        io,
        ..ServerConfig::ephemeral(dir)
    })
}

/// Submits the workload and returns each job's result payload, compact.
/// Fails on any non-`done` outcome — used for the reference and recording
/// passes and the post-recovery convergence check.
fn run_workload(server: &Server, options: &MatrixOptions) -> io::Result<Vec<String>> {
    let mut client = Client::connect(&server.local_addr().to_string())?;
    let mut ids = Vec::with_capacity(options.requests.len());
    for request in &options.requests {
        ids.push(client.submit(request)?.id);
    }
    let mut payloads = Vec::with_capacity(ids.len());
    for id in ids {
        let doc = client.result(id, options.wait_ms)?;
        let status = doc.get("status").and_then(Json::as_str).unwrap_or("?");
        if status != "done" {
            let error = doc.get("error").and_then(Json::as_str).unwrap_or("");
            return Err(io::Error::other(format!(
                "job {id} finished `{status}` {error}"
            )));
        }
        payloads.push(doc.get("result").unwrap_or(&Json::Null).to_string_compact());
    }
    Ok(payloads)
}

/// Best-effort workload for the chaos pass: the injected fault makes every
/// call past the crash point fallible, and that is the point.
fn run_workload_lossy(server: &Server, options: &MatrixOptions) {
    let Ok(mut client) = Client::connect(&server.local_addr().to_string()) else {
        return;
    };
    let mut ids = Vec::new();
    for request in &options.requests {
        if let Ok(submitted) = client.submit(request) {
            ids.push(submitted.id);
        }
    }
    for id in ids {
        let _ = client.result(id, options.wait_ms);
    }
}

/// Counts torn residue under `dir` after recovery: files that should have
/// been evicted or swept. Everything durable in a consistent state dir is
/// parseable JSON with no temp or other litter.
pub fn scan_torn(dir: &Path) -> usize {
    fn walk(dir: &Path, torn: &mut usize) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, torn);
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
            // A durable dir holds only records; anything else is debris.
            let debris = ext == TMP_EXT || (ext != "json" && !name.starts_with('.'));
            let unparsable = ext == "json"
                && std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|text| Json::parse(&text).ok())
                    .is_none();
            if debris || unparsable {
                *torn += 1;
            }
        }
    }
    let mut torn = 0;
    walk(dir, &mut torn);
    torn
}

/// Runs the crash-point matrix under `root` (one subdirectory per pass).
///
/// # Errors
///
/// Reference/recording-pass failures (the workload must succeed without
/// chaos) and fresh-directory I/O errors. Per-point inconsistencies are
/// *reported*, not returned as errors — callers assert on
/// [`MatrixReport::consistent`].
pub fn run_matrix(root: &Path, options: &MatrixOptions) -> io::Result<MatrixReport> {
    let stride = options.stride.max(1);

    // Pass 1: ground truth on the real filesystem.
    let reference_dir = root.join("reference");
    let server = start_server(&reference_dir, shell_chaos::real(), options.workers)?;
    let reference = run_workload(&server, options)?;
    server.stop();

    // Pass 2: count the crash-point index space under a calm ChaosIo.
    let chaos = Arc::new(ChaosIo::new(ChaosConfig::calm(options.seed)));
    let recording_dir = root.join("recording");
    let server = start_server(&recording_dir, chaos.clone(), options.workers)?;
    let recorded = run_workload(&server, options)?;
    server.stop();
    if recorded != reference {
        return Err(io::Error::other(
            "calm chaos pass diverged from the reference run",
        ));
    }
    let points = chaos.mutating_ops();

    // Pass 3: crash at every selected point, restart, prove convergence.
    let mut report = MatrixReport {
        points,
        tested_points: 0,
        crashed_points: 0,
        torn_states: 0,
        report_mismatches: 0,
    };
    for k in (0..points).step_by(stride) {
        report.tested_points += 1;
        let dir = point_dir(root, k);
        let chaos = Arc::new(ChaosIo::new(ChaosConfig::crash_at(options.seed, k)));
        // When the injected crash lands inside startup itself, recovery
        // below must still cope with whatever half-state it left.
        if let Ok(server) = start_server(&dir, chaos.clone(), options.workers) {
            run_workload_lossy(&server, options);
            server.crash();
        }
        if chaos.crashed() {
            report.crashed_points += 1;
            shell_trace::counter_add("chaos.matrix_crashes", 1);
        }

        // Restart on the real filesystem: recovery, idempotent resubmit,
        // byte-compare against the uninterrupted reference.
        let server = match start_server(&dir, shell_chaos::real(), options.workers) {
            Ok(server) => server,
            Err(_) => {
                report.torn_states += 1;
                continue;
            }
        };
        match run_workload(&server, options) {
            Ok(payloads) if payloads == reference => {}
            _ => report.report_mismatches += 1,
        }
        server.stop();
        report.torn_states += scan_torn(&dir);
    }
    Ok(report)
}

fn point_dir(root: &Path, k: u64) -> PathBuf {
    root.join(format!("point{k}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::JobKind;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("shell-matrix-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fuzz_only_matrix_is_consistent_at_a_stride() {
        let root = temp_root("fuzz");
        let options = MatrixOptions {
            workers: 1,
            stride: 9,
            requests: vec![JobRequest {
                kind: JobKind::Fuzz,
                circuit: None,
                samples: 2,
                seed: 5,
                ..JobRequest::default()
            }],
            ..MatrixOptions::default()
        };
        let report = run_matrix(&root, &options).expect("matrix runs");
        assert!(report.points > 0, "recording pass must count commit steps");
        assert!(report.tested_points > 0);
        assert!(
            report.consistent(),
            "matrix found inconsistencies: {:?}",
            report
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn scan_torn_flags_litter_and_unparseable_records() {
        let root = temp_root("scan");
        std::fs::create_dir_all(root.join("jobs")).unwrap();
        std::fs::write(root.join("jobs/1.json"), "{\"id\": 1}").unwrap();
        assert_eq!(scan_torn(&root), 0);
        std::fs::write(root.join("jobs/2.json"), "{\"id\":").unwrap();
        std::fs::write(root.join("jobs/3.json.tmp"), "half").unwrap();
        std::fs::write(root.join("jobs/4.intent"), "{}").unwrap();
        assert_eq!(scan_torn(&root), 3);
        let _ = std::fs::remove_dir_all(&root);
    }
}
