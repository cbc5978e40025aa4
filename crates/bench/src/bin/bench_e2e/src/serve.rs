//! The `serve_mix` workload: one client of an in-process service, first
//! asking for new artifacts (cache misses that run the flows) and then
//! asking again (cache hits that only touch framing, cache and journal).
//!
//! The mix follows `bench_serve`, the service benchmark of `crates/bench`
//! (`src/bin/bench_serve.rs`): its latency request (the default lock job) asked once cold and
//! then [`WARM_ROUNDS`] times warm, and its throughput request (an `attack`
//! on `AxiXbar{6,4}` with 40 key bits). `bench_serve` submits eight attacks
//! that differ only in seed, but the service's attack ignores the seed, so
//! the eight are one computation under eight cache keys; here it is asked
//! once. A `verify` of the lock's circuit adds the service's third flow.

use crate::attack::unlocks;
use crate::tally::Tally;
use shell_attacks::xor_lock_cells;
use shell_chaos::Io;
use shell_serve::{CircuitSpec, Client, JobKind, JobRequest, Server, ServerConfig};
use shell_util::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How long one `result` call may block on an unfinished job.
const RESULT_WAIT_MS: u64 = 120_000;
/// Warm rounds per pass: each round asks for every request again
/// (`bench_serve`'s `WARM_ITERS`).
const WARM_ROUNDS: usize = 32;

/// The requests of every pass. Lock and verify keep the default request's
/// PnR seed, the flow default the `lock` workload uses too: the fit loop's
/// work varies up to twofold between PnR seeds. The attack ignores its
/// seed. So this workload does not use the workload seed.
pub fn requests() -> Vec<JobRequest> {
    let lock = JobRequest::default();
    let verify = JobRequest {
        kind: JobKind::Verify,
        ..lock.clone()
    };
    let attack = JobRequest {
        kind: JobKind::Attack,
        circuit: Some(CircuitSpec::AxiXbar {
            channels: 6,
            width: 4,
        }),
        key_bits: 40,
        ..JobRequest::default()
    };
    vec![lock, verify, attack]
}

/// The service's durable state, held in memory. Every write, sync, rename
/// and journal commit still runs through the service's storage code (and
/// counts in `journal.commits`), but none reaches a device. On the shared
/// disk of the development host the median warm request of five
/// back-to-back runs of one build ranged from 0.70 ms to 1.46 ms with state
/// on disk even with the syncs skipped, and up to 1.94 ms with them:
/// other tenants' I/O, not the service, set the number.
#[derive(Debug, Default)]
struct MemIo {
    state: Mutex<MemFs>,
}

#[derive(Debug, Default)]
struct MemFs {
    files: BTreeMap<PathBuf, Vec<u8>>,
    dirs: BTreeSet<PathBuf>,
}

fn not_found(path: &Path) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::NotFound, path.display().to_string())
}

impl MemIo {
    fn fs(&self) -> std::sync::MutexGuard<'_, MemFs> {
        self.state
            .lock()
            .expect("no thread panics while holding the state lock")
    }
}

impl Io for MemIo {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.fs()
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.fs().files.insert(path.to_path_buf(), bytes.to_vec());
        Ok(())
    }
    fn sync(&self, path: &Path) -> std::io::Result<()> {
        let fs = self.fs();
        if fs.files.contains_key(path) || fs.dirs.contains(path) {
            Ok(())
        } else {
            Err(not_found(path))
        }
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        let mut fs = self.fs();
        let bytes = fs.files.remove(from).ok_or_else(|| not_found(from))?;
        fs.files.insert(to.to_path_buf(), bytes);
        Ok(())
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.fs()
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        let mut fs = self.fs();
        for dir in path.ancestors() {
            fs.dirs.insert(dir.to_path_buf());
        }
        Ok(())
    }
    fn list_dir(&self, path: &Path) -> std::io::Result<Vec<PathBuf>> {
        let fs = self.fs();
        let mut entries: Vec<PathBuf> = fs
            .files
            .keys()
            .chain(fs.dirs.iter())
            .filter(|p| p.parent() == Some(path))
            .cloned()
            .collect();
        entries.sort();
        Ok(entries)
    }
    fn exists(&self, path: &Path) -> bool {
        let fs = self.fs();
        fs.files.contains_key(path) || fs.dirs.contains(path)
    }
}

/// Starts a one-worker service with empty in-memory state.
///
/// # Errors
///
/// Socket errors.
pub fn start() -> std::io::Result<(Server, Client)> {
    let mut config = ServerConfig::ephemeral("serve_state");
    config.workers = 1;
    config.io = Arc::new(MemIo::default());
    let server = Server::start(config)?;
    let client = Client::connect(&server.local_addr().to_string())?;
    Ok((server, client))
}

/// One client session against a fresh service: every request once (cold),
/// then [`WARM_ROUNDS`] more times (warm), each request one timed
/// operation; then one in-process cache lookup per request.
pub fn session(requests: &[JobRequest], tally: &mut Tally) {
    let (server, mut client) = match start() {
        Ok(started) => started,
        Err(e) => {
            tally.check(Some(format!("service did not start: {e}")));
            return;
        }
    };
    let mut cold = Vec::new();
    for request in requests {
        let t0 = Instant::now();
        let answer = ask(&mut client, request);
        let elapsed = t0.elapsed();
        tally.op(elapsed);
        tally.serve.cold_ms += elapsed.as_secs_f64() * 1e3;
        let problem = match &answer {
            Ok(answer) if answer.cached => {
                Some("a new request was served from the cache".to_string())
            }
            Ok(answer) => {
                if request.kind == JobKind::Attack {
                    let status = answer
                        .payload
                        .get("report")
                        .and_then(|r| r.get("status"))
                        .and_then(Json::as_str);
                    tally.count_verdict(status == Some("broken"));
                }
                payload_problem(request, &answer.payload)
            }
            Err(e) => Some(e.clone()),
        };
        tally.check(problem.map(|p| format!("cold {}: {p}", label(request))));
        cold.push(
            answer
                .map(|a| a.payload.to_string_compact())
                .unwrap_or_default(),
        );
    }
    for _ in 0..WARM_ROUNDS {
        for (request, cold_payload) in requests.iter().zip(&cold) {
            let t0 = Instant::now();
            let answer = ask(&mut client, request);
            tally.op(t0.elapsed());
            let problem = match &answer {
                Ok(answer) => {
                    tally.serve.warm_submit_ms.push(answer.submit_ms);
                    tally.serve.warm_result_ms.push(answer.result_ms);
                    if !answer.cached {
                        Some("a repeated request missed the cache".to_string())
                    } else if &answer.payload.to_string_compact() != cold_payload {
                        Some("the cached payload differs from the computed one".to_string())
                    } else {
                        None
                    }
                }
                Err(e) => Some(e.clone()),
            };
            tally.check(problem.map(|p| format!("warm {}: {p}", label(request))));
        }
    }
    for request in requests {
        let Ok(resolved) = request.resolve() else {
            continue;
        };
        let t0 = Instant::now();
        let artifact = {
            let _span = shell_trace::span!("bench.serve.lookup");
            server.cache().lookup(&resolved.key)
        };
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let kb = artifact.map_or(0.0, |a| a.to_string_compact().len() as f64 / 1024.0);
        tally.serve.lookups.push((us, kb));
    }
    server.stop();
}

/// A finished job as the client saw it.
struct Answer {
    cached: bool,
    payload: Json,
    submit_ms: f64,
    result_ms: f64,
}

/// Submits `request` and waits for its terminal document.
fn ask(client: &mut Client, request: &JobRequest) -> Result<Answer, String> {
    let t0 = Instant::now();
    let submitted = {
        let _span = shell_trace::span!("bench.serve.submit");
        client.submit(request)
    }
    .map_err(|e| format!("submit failed: {e}"))?;
    let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let doc = {
        let _span = shell_trace::span!("bench.serve.result");
        client.result(submitted.id, RESULT_WAIT_MS)
    }
    .map_err(|e| format!("result failed: {e}"))?;
    let result_ms = t1.elapsed().as_secs_f64() * 1e3;
    match doc.get("status").and_then(Json::as_str) {
        Some("done") => Ok(Answer {
            cached: submitted.cached,
            payload: doc.get("result").cloned().unwrap_or(Json::Null),
            submit_ms,
            result_ms,
        }),
        status => Err(format!("job ended {status:?}: {:?}", doc.get("error"))),
    }
}

/// What is wrong with a freshly computed payload, if anything.
fn payload_problem(request: &JobRequest, payload: &Json) -> Option<String> {
    match request.kind {
        JobKind::Verify => {
            let verdict = payload.get("verdict").and_then(Json::as_str);
            (verdict != Some("equivalent")).then(|| format!("verify verdict {verdict:?}"))
        }
        JobKind::Attack => {
            // The service XOR-locks internal cells, which admits more than
            // one correct key: judge the recovered key by what it unlocks.
            let key: Vec<bool> = payload
                .get("report")
                .and_then(|r| r.get("key"))
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_bool)
                .collect();
            let Some(oracle) = request.circuit.as_ref().and_then(|c| c.build().ok()) else {
                return Some("the attacked circuit does not build".to_string());
            };
            let (locked, _) = xor_lock_cells(&oracle, request.key_bits);
            (!unlocks(&oracle, &locked, &key))
                .then(|| "the recovered key does not unlock the design".to_string())
        }
        _ => {
            let bits = payload.get("key_bits").and_then(Json::as_u64).unwrap_or(0);
            (bits == 0).then(|| "the lock artifact has no key".to_string())
        }
    }
}

fn label(request: &JobRequest) -> String {
    format!("{} {:?}", request.kind.label(), request.circuit)
}
