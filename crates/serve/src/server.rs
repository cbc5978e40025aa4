//! The job server: a TCP accept loop, a worker pool sized off the
//! shell-exec job count, durable job state, and the cache in front of it
//! all.
//!
//! ## Job lifecycle
//!
//! ```text
//! submit ──▶ Queued ──▶ Running ──▶ Done
//!    │          │           ├─────▶ Failed
//!    │          └───────────┴─────▶ Cancelled
//!    └─(cache hit)─▶ Done, served from disk, no queue time
//! ```
//!
//! Every submitted job is persisted to `state_dir/jobs/<id>.json` *before*
//! the submit response goes out; terminal states move the record to
//! `state_dir/results/<id>.json` and delete the pending file. A server that
//! dies mid-run therefore restarts with the exact set of unfinished jobs on
//! disk, re-enqueues them in id order, and — for attack jobs — resumes from
//! the last per-iteration checkpoint in `state_dir/checkpoints/<id>.json`,
//! producing a report byte-identical to an uninterrupted run (the resume
//! contract of `shell_attacks::sat_attack_report`).
//!
//! ## Budgets and cancellation
//!
//! Each job runs under its own [`Budget`] built by [`Budget::for_request`]:
//! the request's `deadline_ms` / `conflict_quota` clamped to the
//! `SHELL_SERVE_MAX_DEADLINE_MS` / `SHELL_SERVE_MAX_CONFLICTS` maxima that
//! [`Server::start`] read once. The `cancel` command cancels the budget of
//! a running job cooperatively — the flow notices at its next checkpoint —
//! and dequeues a queued one immediately. On restart a resumed job gets a
//! *fresh* full budget: incremental resume replays the DIP prefix
//! (re-spending its conflicts), so only a fresh budget reproduces the
//! uninterrupted accounting.

use crate::cache::ArtifactCache;
use crate::job::{self, JobOutput};
use crate::protocol::{write_frame, FrameReader, FrameStep};
use crate::request::{JobKind, JobRequest, ResolvedJob};
use shell_attacks::AttackCheckpoint;
use shell_chaos::{with_retry, Io, Journal, RetryPolicy};
use shell_guard::Budget;
use shell_util::Json;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default bound on the admission queue (`SHELL_SERVE_MAX_QUEUE`
/// overrides): submits beyond it are rejected with a typed `[overloaded]`
/// error instead of growing memory and queue latency without bound.
pub const DEFAULT_MAX_QUEUE: usize = 256;

/// Default per-frame read deadline in milliseconds
/// (`SHELL_SERVE_READ_DEADLINE_MS` overrides): a frame that is still
/// incomplete this long after its first byte fails that connection with a
/// typed `[stalled]` error.
pub const DEFAULT_READ_DEADLINE_MS: u64 = 10_000;

/// How a server is stood up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Durable state root: `jobs/`, `results/`, `checkpoints/`, `cache/`.
    pub state_dir: PathBuf,
    /// Worker threads. `0` means [`shell_exec::current_jobs`], so
    /// `SHELL_JOBS` sizes the service exactly like the batch tools.
    pub workers: usize,
    /// Filesystem seam for all durable state. Production keeps the real
    /// filesystem; the crash-point matrix swaps in a
    /// [`shell_chaos::ChaosIo`].
    pub io: Arc<dyn Io>,
    /// Admission-queue bound. `0` means `SHELL_SERVE_MAX_QUEUE`, defaulting
    /// to [`DEFAULT_MAX_QUEUE`].
    pub max_queue: usize,
    /// Per-frame read deadline in ms. `0` means
    /// `SHELL_SERVE_READ_DEADLINE_MS`, defaulting to
    /// [`DEFAULT_READ_DEADLINE_MS`].
    pub read_deadline_ms: u64,
}

impl ServerConfig {
    /// Ephemeral-port config rooted at `state_dir`.
    pub fn ephemeral(state_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: state_dir.into(),
            workers: 0,
            io: shell_chaos::real(),
            max_queue: 0,
            read_deadline_ms: 0,
        }
    }
}

/// Lifecycle states a job moves through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted and persisted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished with an artifact.
    Done,
    /// Finished with an error.
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

impl JobStatus {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled
        )
    }
}

struct JobState {
    request: JobRequest,
    status: JobStatus,
    /// Set while Running, so `cancel` can reach the flow.
    budget: Option<Budget>,
    /// Artifact payload (Done) — also what `results/<id>.json` stores.
    result: Option<Json>,
    error: Option<String>,
    /// Served from the artifact cache without running.
    cached: bool,
    /// Trace-counter totals at job start; progress reports deltas.
    counters_at_start: HashMap<String, u64>,
}

struct Inner {
    state_dir: PathBuf,
    cache: ArtifactCache,
    io: Arc<dyn Io>,
    /// Write-ahead intent journal governing `jobs/` and `results/` commits.
    journal: Journal,
    max_deadline_ms: Option<u64>,
    max_conflicts: Option<u64>,
    max_queue: usize,
    read_deadline: Duration,
    /// Abort the process after an attack job spends this many conflicts —
    /// the crash-injection hook the restart-resume smoke test uses.
    crash_after_conflicts: Option<u64>,
    jobs: Mutex<BTreeMap<u64, JobState>>,
    /// Signalled on any job state change (workers and `result --wait`).
    jobs_cv: Condvar,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    /// Drain mode: submits are refused, running attacks are cancelled (so
    /// they checkpoint at the next DIP iteration) and their jobs revert to
    /// Queued with pending files preserved; the server exits once the last
    /// running job has checkpointed.
    draining: AtomicBool,
    /// Jobs currently executing (drain waits for this to hit zero).
    running: AtomicU64,
    /// Set by [`Server::crash`]: suppress terminal persistence so pending
    /// job files survive, exactly as they would across a SIGKILL.
    crashing: AtomicBool,
    requests: AtomicU64,
}

impl Inner {
    fn queue_depth(&self) -> usize {
        self.queue.lock().unwrap().len()
    }
}

/// A running shell-serve instance. Dropping it shuts it down cleanly.
pub struct Server {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn counters_now() -> HashMap<String, u64> {
    shell_trace::current()
        .map(|t| t.counters().into_iter().collect())
        .unwrap_or_default()
}

impl Server {
    /// Binds, loads durable state, and starts the accept loop plus the
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Bind and state-directory I/O errors.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        // The service reads trace counters for job progress, so a bare
        // `shell_serve serve` installs a tracer like the test harness does.
        if !shell_trace::enabled() {
            shell_trace::install(shell_trace::Tracer::new());
        }

        for sub in ["jobs", "results", "checkpoints", "cache"] {
            config.io.create_dir_all(&config.state_dir.join(sub))?;
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let journal = Journal::open(config.io.clone(), config.state_dir.join("journal"))?;
        let max_queue = if config.max_queue != 0 {
            config.max_queue
        } else {
            env_u64("SHELL_SERVE_MAX_QUEUE")
                .map(|n| n as usize)
                .filter(|&n| n > 0)
                .unwrap_or(DEFAULT_MAX_QUEUE)
        };
        let read_deadline_ms = if config.read_deadline_ms != 0 {
            config.read_deadline_ms
        } else {
            env_u64("SHELL_SERVE_READ_DEADLINE_MS")
                .filter(|&n| n > 0)
                .unwrap_or(DEFAULT_READ_DEADLINE_MS)
        };
        let inner = Arc::new(Inner {
            cache: ArtifactCache::with_io(config.state_dir.join("cache"), config.io.clone()),
            io: config.io,
            journal,
            state_dir: config.state_dir,
            max_deadline_ms: env_u64("SHELL_SERVE_MAX_DEADLINE_MS"),
            max_conflicts: env_u64("SHELL_SERVE_MAX_CONFLICTS"),
            max_queue,
            read_deadline: Duration::from_millis(read_deadline_ms),
            crash_after_conflicts: env_u64("SHELL_SERVE_CRASH_AFTER_CONFLICTS"),
            jobs: Mutex::new(BTreeMap::new()),
            jobs_cv: Condvar::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            running: AtomicU64::new(0),
            crashing: AtomicBool::new(false),
            requests: AtomicU64::new(0),
        });
        // Recovery order matters: resolve interrupted commits first (roll
        // forward/back), then verify the cache, then rebuild the job table
        // from what survived.
        inner.journal.recover();
        inner.cache.scan_startup();
        inner.recover_persisted_jobs();

        let worker_count = if config.workers == 0 {
            shell_exec::current_jobs().max(1)
        } else {
            config.workers
        };
        let workers = (0..worker_count)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.worker_loop())
            })
            .collect();
        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::spawn(move || accept_inner.accept_loop(listener));
        Ok(Server {
            inner,
            local_addr,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The artifact cache (for statistics in tests and benchmarks).
    pub fn cache(&self) -> &ArtifactCache {
        &self.inner.cache
    }

    /// Blocks until the server is told to shut down (protocol `shutdown`
    /// command or [`Server::stop`] from another thread), then joins all
    /// threads.
    pub fn wait(mut self) {
        self.join_threads();
    }

    /// Initiates shutdown and joins. Running jobs are cancelled via their
    /// budgets and marked `Cancelled` — their pending files are cleaned up
    /// normally.
    pub fn stop(mut self) {
        self.inner.begin_shutdown();
        self.join_threads();
    }

    /// Simulates a hard kill for crash-recovery tests: cancels every
    /// running budget, *suppresses all terminal persistence* (so pending
    /// job files and checkpoints stay on disk exactly as a SIGKILL would
    /// leave them), and joins the threads. A new [`Server::start`] on the
    /// same state dir must then recover and finish the jobs.
    pub fn crash(mut self) {
        self.inner.crashing.store(true, Ordering::SeqCst);
        self.inner.begin_shutdown();
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.inner.begin_shutdown();
        self.join_threads();
    }
}

impl Inner {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Cancel whatever is running so workers come back promptly.
        let jobs = self.jobs.lock().unwrap();
        for state in jobs.values() {
            if let Some(budget) = &state.budget {
                budget.cancel();
            }
        }
        drop(jobs);
        self.queue_cv.notify_all();
        self.jobs_cv.notify_all();
    }

    // ---- durable state ---------------------------------------------------

    fn job_path(&self, id: u64) -> PathBuf {
        self.state_dir.join("jobs").join(format!("{id}.json"))
    }

    fn result_path(&self, id: u64) -> PathBuf {
        self.state_dir.join("results").join(format!("{id}.json"))
    }

    fn checkpoint_path(&self, id: u64) -> PathBuf {
        self.state_dir
            .join("checkpoints")
            .join(format!("{id}.json"))
    }

    /// Explore jobs journal per-point sweep progress in a directory next
    /// to the attack checkpoints.
    fn explore_journal_dir(&self, id: u64) -> PathBuf {
        self.state_dir
            .join("checkpoints")
            .join(format!("{id}.explore"))
    }

    /// Best-effort removal of an explore job's sweep journal (terminal
    /// cleanup — every point file, through the fault-injectable seam).
    fn remove_explore_journal(&self, id: u64) {
        let dir = self.explore_journal_dir(id);
        if let Ok(entries) = self.io.list_dir(&dir) {
            for entry in entries {
                let _ = self.io.remove_file(&entry);
            }
        }
    }

    /// One journaled durable commit under the bounded transient-retry
    /// ladder.
    fn commit(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut ladder = Vec::new();
        with_retry(&RetryPolicy::default(), &mut ladder, || {
            self.journal.commit(path, bytes)
        })
    }

    fn persist_pending(&self, id: u64, request: &JobRequest) -> std::io::Result<()> {
        let doc = Json::obj([("id", Json::from(id)), ("request", request.to_json())]);
        self.commit(&self.job_path(id), doc.to_string_pretty().as_bytes())
    }

    /// Commits the terminal record to `results/` and — **only if that
    /// commit succeeded** — retires the pending job file and checkpoint.
    /// On commit failure the pending file survives, so a restart re-runs
    /// the job instead of stranding it with no record anywhere (the
    /// orphaned-job leak this replaces).
    fn persist_terminal(&self, id: u64, state: &JobState) {
        if self.crashing.load(Ordering::SeqCst) {
            return;
        }
        let doc = Json::obj([
            ("id", Json::from(id)),
            ("status", Json::from(state.status.label())),
            ("request", state.request.to_json()),
            ("cached", Json::from(state.cached)),
            ("result", state.result.clone().unwrap_or(Json::Null)),
            (
                "error",
                state.error.clone().map(Json::from).unwrap_or(Json::Null),
            ),
        ]);
        match self.commit(&self.result_path(id), doc.to_string_pretty().as_bytes()) {
            Ok(()) => {
                let _ = self.io.remove_file(&self.job_path(id));
                let _ = self.io.remove_file(&self.checkpoint_path(id));
                self.remove_explore_journal(id);
            }
            Err(_) => {
                shell_trace::counter_add("serve.result_commit_failed", 1);
            }
        }
    }

    /// Startup recovery: finished jobs come back queryable from
    /// `results/`, unfinished ones re-enqueue from `jobs/` in id order.
    ///
    /// Hardening invariants:
    ///
    /// * Temp litter in all three state dirs is swept first (a crash
    ///   mid-`atomic_write` leaves only litter, never a torn target).
    /// * A torn/unparseable record is **evicted and recomputed, never
    ///   served**: torn results are deleted (`serve.evicted_results`) so
    ///   the pending file — if any — re-queues the job; torn pending files
    ///   with no result are deleted too (`serve.evicted_jobs`, nothing left
    ///   to recompute from).
    /// * A job with both a result *and* a pending file (the result commit
    ///   landed but retiring the pending file crashed) resolves to the
    ///   result: the stale pending file is dropped
    ///   (`serve.orphans_resolved`) instead of double-running the job.
    fn recover_persisted_jobs(&self) {
        for sub in ["jobs", "results", "checkpoints"] {
            shell_chaos::sweep_tmp(&*self.io, &self.state_dir.join(sub));
        }
        let read_docs = |dir: &str| -> Vec<(u64, Option<Json>, PathBuf)> {
            let entries = self
                .io
                .list_dir(&self.state_dir.join(dir))
                .unwrap_or_default();
            let mut docs: Vec<(u64, Option<Json>, PathBuf)> = entries
                .into_iter()
                .filter_map(|path| {
                    // The file name is the id; a parse failure must still
                    // surface (as `None`) so the torn record gets evicted.
                    let id: u64 = path.file_stem()?.to_str()?.parse().ok()?;
                    let doc = shell_chaos::read_string(&*self.io, &path)
                        .ok()
                        .and_then(|text| Json::parse(&text).ok())
                        .filter(|doc| {
                            doc.get("id").and_then(Json::as_u64) == Some(id)
                                && doc
                                    .get("request")
                                    .is_some_and(|r| JobRequest::from_json(r).is_ok())
                        });
                    Some((id, doc, path))
                })
                .collect();
            docs.sort_by_key(|(id, _, _)| *id);
            docs
        };

        let mut max_id = 0u64;
        let mut jobs = self.jobs.lock().unwrap();
        for (id, doc, path) in read_docs("results") {
            max_id = max_id.max(id);
            let Some(doc) = doc else {
                // Torn terminal record: evict; the pending pass below
                // re-queues the job if its pending file survived.
                let _ = self.io.remove_file(&path);
                shell_trace::counter_add("serve.evicted_results", 1);
                continue;
            };
            let request =
                JobRequest::from_json(doc.get("request").expect("validated")).expect("validated");
            let status = match doc.get("status").and_then(Json::as_str) {
                Some("done") => JobStatus::Done,
                Some("cancelled") => JobStatus::Cancelled,
                _ => JobStatus::Failed,
            };
            jobs.insert(
                id,
                JobState {
                    request,
                    status,
                    budget: None,
                    result: doc.get("result").filter(|r| **r != Json::Null).cloned(),
                    error: doc.get("error").and_then(Json::as_str).map(str::to_string),
                    cached: doc.get("cached").and_then(Json::as_bool).unwrap_or(false),
                    counters_at_start: HashMap::new(),
                },
            );
        }
        for (id, doc, path) in read_docs("jobs") {
            max_id = max_id.max(id);
            if jobs.contains_key(&id) {
                // The terminal commit landed but the pending file was not
                // retired (crash in the gap): the result wins, the stale
                // pending file goes, the job does NOT re-run.
                let _ = self.io.remove_file(&path);
                shell_trace::counter_add("serve.orphans_resolved", 1);
                continue;
            }
            let Some(doc) = doc else {
                let _ = self.io.remove_file(&path);
                shell_trace::counter_add("serve.evicted_jobs", 1);
                continue;
            };
            let request =
                JobRequest::from_json(doc.get("request").expect("validated")).expect("validated");
            jobs.insert(
                id,
                JobState {
                    request,
                    status: JobStatus::Queued,
                    budget: None,
                    result: None,
                    error: None,
                    cached: false,
                    counters_at_start: HashMap::new(),
                },
            );
            self.queue.lock().unwrap().push_back(id);
            shell_trace::counter_add("serve.recovered_jobs", 1);
        }
        drop(jobs);
        self.next_id.store(max_id + 1, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    // ---- workers ---------------------------------------------------------

    fn worker_loop(&self) {
        loop {
            let id = {
                let mut queue = self.queue.lock().unwrap();
                loop {
                    if self.shutdown.load(Ordering::SeqCst) || self.draining.load(Ordering::SeqCst)
                    {
                        return;
                    }
                    if let Some(id) = queue.pop_front() {
                        break id;
                    }
                    queue = self.queue_cv.wait(queue).unwrap();
                }
            };
            self.run_job(id);
        }
    }

    fn run_job(&self, id: u64) {
        // Claim the job; a cancel (or a drain) may have beaten us to it.
        let (request, budget) = {
            let mut jobs = self.jobs.lock().unwrap();
            if self.draining.load(Ordering::SeqCst) {
                // Leave it Queued with its pending file; the restart after
                // the drain picks it up.
                return;
            }
            let Some(state) = jobs.get_mut(&id) else {
                return;
            };
            if state.status != JobStatus::Queued {
                return;
            }
            let mut deadline = state.request.deadline_ms;
            if let (Some(crash_at), JobKind::Attack) =
                (self.crash_after_conflicts, state.request.kind)
            {
                // Crash injection wants the quota exhausted at a known
                // point; a racing wall-clock deadline would make the abort
                // site nondeterministic.
                let quota = state.request.conflict_quota.unwrap_or(u64::MAX);
                state.request.conflict_quota = Some(quota.min(crash_at));
                deadline = None;
            }
            let budget = Budget::for_request(
                deadline,
                state.request.conflict_quota,
                self.max_deadline_ms,
                self.max_conflicts,
            );
            state.status = JobStatus::Running;
            state.budget = Some(budget.clone());
            state.counters_at_start = counters_now();
            self.running.fetch_add(1, Ordering::SeqCst);
            (state.request.clone(), budget)
        };
        self.jobs_cv.notify_all();
        shell_trace::counter_add("serve.jobs_started", 1);

        // Panics inside a flow (e.g. a selection precondition the request
        // violates) must fail the job, not kill the worker thread.
        let run = || {
            request.resolve().and_then(|resolved| {
                // A second chance at the cache: an identical job submitted
                // while this one sat in the queue may have already stored the
                // artifact.
                if let Some(payload) = self.cache.lookup(&resolved.key) {
                    return Ok((
                        JobOutput {
                            payload,
                            cacheable: false, // already stored
                        },
                        true,
                    ));
                }
                let (checkpoint_path, resume) = self.attack_state(id, &resolved);
                let journal_dir = self.explore_state(id, &resolved);
                let output = job::run(
                    &resolved,
                    &budget,
                    checkpoint_path,
                    resume,
                    journal_dir,
                    self.io.clone(),
                )?;
                if let (Some(_), JobKind::Attack) =
                    (self.crash_after_conflicts, resolved.request.kind)
                {
                    // The checkpoint for the interrupted iteration set is on
                    // disk; die like a SIGKILL would, before any terminal
                    // bookkeeping runs.
                    std::process::abort();
                }
                if output.cacheable {
                    let _ = self.cache.store(&resolved.key, &output.payload);
                }
                Ok((output, false))
            })
        };
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|panic| {
                let message = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("flow panicked");
                Err(format!("job panicked: {message}"))
            });

        let mut jobs = self.jobs.lock().unwrap();
        let Some(state) = jobs.get_mut(&id) else {
            return;
        };
        state.budget = None;
        match outcome {
            Ok((output, from_cache)) => {
                state.cached = from_cache;
                state.result = Some(output.payload);
                state.status = if budget.is_cancelled() && !from_cache {
                    JobStatus::Cancelled
                } else {
                    JobStatus::Done
                };
            }
            Err(message) => {
                state.error = Some(message);
                state.status = if budget.is_cancelled() {
                    JobStatus::Cancelled
                } else {
                    JobStatus::Failed
                };
            }
        }
        let drained = self.draining.load(Ordering::SeqCst)
            && state.status == JobStatus::Cancelled
            && budget.is_cancelled();
        if self.crashing.load(Ordering::SeqCst) {
            // Pretend the terminal transition never happened: the pending
            // file stays, the restart re-runs the job.
            state.status = JobStatus::Queued;
            state.result = None;
            state.error = None;
        } else if drained {
            // Drain-stopped, not operator-cancelled: the attack just
            // checkpointed (its budget was cancelled by the drain), so the
            // job reverts to Queued with its pending file and checkpoint
            // intact — the next incarnation resumes and reports
            // byte-identically.
            state.status = JobStatus::Queued;
            state.result = None;
            state.error = None;
            shell_trace::counter_add("serve.drained", 1);
        } else {
            self.persist_terminal(id, state);
            shell_trace::counter_add("serve.jobs_finished", 1);
        }
        drop(jobs);
        self.jobs_cv.notify_all();
        if self.running.fetch_sub(1, Ordering::SeqCst) == 1 && self.draining.load(Ordering::SeqCst)
        {
            // Last running job has checkpointed: the drain completes.
            self.begin_shutdown();
        }
    }

    /// Attack jobs checkpoint under `checkpoints/<id>.json`; a file already
    /// there is a previous incarnation's progress to resume from.
    fn attack_state(
        &self,
        id: u64,
        resolved: &ResolvedJob,
    ) -> (Option<PathBuf>, Option<AttackCheckpoint>) {
        if resolved.request.kind != JobKind::Attack {
            return (None, None);
        }
        let path = self.checkpoint_path(id);
        // A torn checkpoint (crash mid-save before atomic_write landed) is
        // simply absent: the attack restarts from iteration 0 and — being
        // deterministic — still produces the byte-identical report.
        let resume = AttackCheckpoint::load_with(&*self.io, &path).ok();
        if resume.is_some() {
            shell_trace::counter_add("serve.attack_resumes", 1);
        }
        (Some(path), resume)
    }

    /// Explore jobs journal under `checkpoints/<id>.explore/`; surviving
    /// point files from a previous incarnation are resumed, not recomputed
    /// (the sweep itself validates each record's fingerprint).
    fn explore_state(&self, id: u64, resolved: &ResolvedJob) -> Option<PathBuf> {
        if resolved.request.kind != JobKind::Explore {
            return None;
        }
        let dir = self.explore_journal_dir(id);
        if self
            .io
            .list_dir(&dir)
            .map(|e| !e.is_empty())
            .unwrap_or(false)
        {
            shell_trace::counter_add("serve.explore_resumes", 1);
        }
        Some(dir)
    }

    // ---- the protocol ----------------------------------------------------

    fn accept_loop(self: Arc<Inner>, listener: TcpListener) {
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    shell_trace::counter_add("serve.connections", 1);
                    let this = Arc::clone(&self);
                    connections.push(std::thread::spawn(move || this.serve_connection(stream)));
                    connections.retain(|c| !c.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        for c in connections {
            let _ = c.join();
        }
    }

    fn serve_connection(self: Arc<Inner>, stream: TcpStream) {
        // The socket timeout is the poll tick: FrameReader keeps partial
        // frame bytes across ticks (the old read_frame + `continue` loop
        // dropped them, corrupting framing for any client slower than one
        // tick) and enforces the per-frame deadline.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let _ = stream.set_nodelay(true);
        let mut reader = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let mut writer = stream;
        let mut frames = FrameReader::new(self.read_deadline);
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let request = match frames.step(&mut reader) {
                Ok(FrameStep::Frame(json)) => json,
                Ok(FrameStep::Idle) => continue,
                Ok(FrameStep::Eof) => return,
                Err(e) => {
                    // This one connection is unrecoverable (torn framing,
                    // stall, disconnect mid-frame); answer with a typed
                    // error if the write half still works, then drop it.
                    // The server keeps serving everyone else.
                    if e.kind() == std::io::ErrorKind::TimedOut {
                        shell_trace::counter_add("serve.stalled", 1);
                    }
                    shell_trace::counter_add("serve.conn_errors", 1);
                    let _ = write_frame(&mut writer, &err_json(&e.to_string()));
                    return;
                }
            };
            self.requests.fetch_add(1, Ordering::Relaxed);
            shell_trace::counter_add("serve.requests", 1);
            let response = self.dispatch(&request);
            if write_frame(&mut writer, &response).is_err() {
                return;
            }
            if request.get("cmd").and_then(Json::as_str) == Some("shutdown") {
                return;
            }
        }
    }

    fn dispatch(&self, request: &Json) -> Json {
        let Some(cmd) = request.get("cmd").and_then(Json::as_str) else {
            return err_json("request needs a `cmd`");
        };
        match cmd {
            "ping" => ok_json([("pong", Json::from(true))]),
            "submit" => self.cmd_submit(request),
            "status" => self.cmd_status(request),
            "result" => self.cmd_result(request),
            "cancel" => self.cmd_cancel(request),
            "delta" => self.cmd_delta(request),
            "stats" => self.cmd_stats(),
            "purge_cache" => match self.cache.purge() {
                Ok(()) => ok_json([("purged", Json::from(true))]),
                Err(e) => err_json(&format!("purge failed: {e}")),
            },
            "drain" => self.cmd_drain(),
            "shutdown" => {
                self.begin_shutdown();
                ok_json([("stopping", Json::from(true))])
            }
            other => err_json(&format!("unknown command `{other}`")),
        }
    }

    /// Drain-mode shutdown: refuse new submits, cancel the budgets of
    /// running jobs so they checkpoint at their next iteration, revert them
    /// to Queued with pending files and checkpoints preserved, and exit
    /// once the last one has stopped. A restart on the same state dir
    /// resumes every drained job from its checkpoint.
    fn cmd_drain(&self) -> Json {
        let first = !self.draining.swap(true, Ordering::SeqCst);
        let mut running = 0u64;
        if first {
            let jobs = self.jobs.lock().unwrap();
            for state in jobs.values() {
                if state.status == JobStatus::Running {
                    running += 1;
                    if let Some(budget) = &state.budget {
                        budget.cancel();
                    }
                }
            }
            drop(jobs);
            // Park the idle workers; busy ones exit via run_job's drain
            // path.
            self.queue_cv.notify_all();
            if self.running.load(Ordering::SeqCst) == 0 {
                self.begin_shutdown();
            }
        } else {
            running = self.running.load(Ordering::SeqCst);
        }
        ok_json([
            ("draining", Json::from(true)),
            ("running", Json::from(running)),
        ])
    }

    fn cmd_submit(&self, request: &Json) -> Json {
        let Some(req_json) = request.get("request") else {
            return err_json("submit needs a `request`");
        };
        let parsed = match JobRequest::from_json(req_json) {
            Ok(r) => r,
            Err(e) => return err_json(&e),
        };
        let resolved = match parsed.resolve() {
            Ok(r) => r,
            Err(e) => return err_json(&e),
        };
        if self.draining.load(Ordering::SeqCst) {
            return err_json("[draining] server is draining; resubmit after restart");
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);

        // Cache fast path: an identical request was computed before —
        // answer Done straight from disk, no queue, no worker.
        if let Some(payload) = self.cache.lookup(&resolved.key) {
            let state = JobState {
                request: parsed,
                status: JobStatus::Done,
                budget: None,
                result: Some(payload),
                error: None,
                cached: true,
                counters_at_start: HashMap::new(),
            };
            self.persist_terminal(id, &state);
            self.jobs.lock().unwrap().insert(id, state);
            self.jobs_cv.notify_all();
            return ok_json([
                ("id", Json::from(id)),
                ("status", Json::from(JobStatus::Done.label())),
                ("cached", Json::from(true)),
                ("key", Json::from(resolved.key.as_hex().to_string())),
            ]);
        }

        // Admission control: a full queue refuses work (typed, retryable)
        // instead of growing memory and queue latency without bound. Cache
        // hits above bypass this — they cost no queue slot.
        if self.queue_depth() >= self.max_queue {
            shell_trace::counter_add("serve.overloaded", 1);
            return err_json(&format!(
                "[overloaded] admission queue full ({} jobs); retry later",
                self.max_queue
            ));
        }
        if let Err(e) = self.persist_pending(id, &parsed) {
            return err_json(&format!("cannot persist job: {e}"));
        }
        self.jobs.lock().unwrap().insert(
            id,
            JobState {
                request: parsed,
                status: JobStatus::Queued,
                budget: None,
                result: None,
                error: None,
                cached: false,
                counters_at_start: HashMap::new(),
            },
        );
        self.queue.lock().unwrap().push_back(id);
        self.queue_cv.notify_all();
        shell_trace::gauge("serve.queue_depth", self.queue_depth() as f64);
        ok_json([
            ("id", Json::from(id)),
            ("status", Json::from(JobStatus::Queued.label())),
            ("cached", Json::from(false)),
            ("key", Json::from(resolved.key.as_hex().to_string())),
        ])
    }

    /// Partial-reconfiguration delta between two *cached* lock artifacts:
    /// the frame-level rewrite turning `base`'s configuration into
    /// `target`'s. Pure cache arithmetic — nothing is queued; requests
    /// whose artifacts are not cached yet are refused (submit the lock
    /// jobs first).
    fn cmd_delta(&self, request: &Json) -> Json {
        let cached_frames = |field: &str| -> Result<shell_fabric::FramedBitstream, String> {
            let req_json = request
                .get(field)
                .ok_or_else(|| format!("delta needs a `{field}` lock request"))?;
            let parsed = JobRequest::from_json(req_json)?;
            if parsed.kind != JobKind::Lock {
                return Err(format!("`{field}` must be a lock request"));
            }
            let resolved = parsed.resolve()?;
            let payload = self.cache.lookup(&resolved.key).ok_or_else(|| {
                format!("`{field}` artifact is not cached; submit the lock job first")
            })?;
            let framed_json = payload
                .get("bitstream")
                .ok_or_else(|| format!("`{field}` artifact carries no bitstream"))?;
            shell_fabric::FramedBitstream::from_json(framed_json)
                .map_err(|e| format!("`{field}` artifact bitstream: {e}"))
        };
        let base = match cached_frames("base") {
            Ok(b) => b,
            Err(e) => return err_json(&e),
        };
        let target = match cached_frames("target") {
            Ok(b) => b,
            Err(e) => return err_json(&e),
        };
        let delta = match shell_fabric::PartialReconfig::diff(&base, &target) {
            Ok(d) => d,
            Err(e) => return err_json(&format!("delta failed: {e}")),
        };
        shell_trace::counter_add("serve.deltas", 1);
        ok_json([
            ("delta", delta.to_json()),
            ("frames_total", Json::from(base.frame_count())),
            ("frames_written", Json::from(delta.frames_written())),
            (
                "frames_skipped",
                Json::from(base.frame_count() - delta.frames_written()),
            ),
        ])
    }

    fn cmd_status(&self, request: &Json) -> Json {
        let Some(id) = request.get("id").and_then(Json::as_u64) else {
            return err_json("status needs an `id`");
        };
        let jobs = self.jobs.lock().unwrap();
        let Some(state) = jobs.get(&id) else {
            return err_json(&format!("no such job {id}"));
        };
        let mut fields = vec![
            ("id".to_string(), Json::from(id)),
            ("status".to_string(), Json::from(state.status.label())),
            ("kind".to_string(), Json::from(state.request.kind.label())),
            ("cached".to_string(), Json::from(state.cached)),
        ];
        if let Some(e) = &state.error {
            fields.push(("error".to_string(), Json::from(e.clone())));
        }
        if state.status == JobStatus::Running {
            fields.push(("progress".to_string(), self.progress(id, state)));
        }
        ok_json(fields)
    }

    /// Progress for a running job: completed attack iterations from its
    /// checkpoint file, plus the server-wide trace-counter deltas since the
    /// job started (solver conflicts, PnR retries, …). The deltas are
    /// server-global — with concurrent jobs they over-approximate one
    /// job's work — but they move monotonically while the job does, which
    /// is what a liveness probe needs.
    fn progress(&self, id: u64, state: &JobState) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        if state.request.kind == JobKind::Attack {
            if let Ok(cp) = AttackCheckpoint::load(&self.checkpoint_path(id)) {
                fields.push(("iterations".to_string(), Json::from(cp.iterations)));
                fields.push((
                    "conflicts_spent".to_string(),
                    Json::from(cp.conflicts_spent),
                ));
            }
        }
        let mut deltas: Vec<(String, Json)> = counters_now()
            .into_iter()
            .filter_map(|(name, now)| {
                let before = state.counters_at_start.get(&name).copied().unwrap_or(0);
                (now > before).then(|| (name, Json::from(now - before)))
            })
            .collect();
        deltas.sort_by(|a, b| a.0.cmp(&b.0));
        fields.push(("counter_deltas".to_string(), Json::obj(deltas)));
        Json::obj(fields)
    }

    fn cmd_result(&self, request: &Json) -> Json {
        let Some(id) = request.get("id").and_then(Json::as_u64) else {
            return err_json("result needs an `id`");
        };
        let wait_ms = request.get("wait_ms").and_then(Json::as_u64).unwrap_or(0);
        let deadline = Instant::now() + Duration::from_millis(wait_ms);
        let mut jobs = self.jobs.lock().unwrap();
        loop {
            let Some(state) = jobs.get(&id) else {
                return err_json(&format!("no such job {id}"));
            };
            if state.status.is_terminal() {
                return ok_json([
                    ("id", Json::from(id)),
                    ("status", Json::from(state.status.label())),
                    ("cached", Json::from(state.cached)),
                    ("result", state.result.clone().unwrap_or(Json::Null)),
                    (
                        "error",
                        state.error.clone().map(Json::from).unwrap_or(Json::Null),
                    ),
                ]);
            }
            let now = Instant::now();
            if now >= deadline || self.shutdown.load(Ordering::SeqCst) {
                return err_json(&format!(
                    "job {id} still {}; pass `wait_ms` to block",
                    state.status.label()
                ));
            }
            let (guard, _timeout) = self
                .jobs_cv
                .wait_timeout(jobs, (deadline - now).min(Duration::from_millis(200)))
                .unwrap();
            jobs = guard;
        }
    }

    fn cmd_cancel(&self, request: &Json) -> Json {
        let Some(id) = request.get("id").and_then(Json::as_u64) else {
            return err_json("cancel needs an `id`");
        };
        let mut jobs = self.jobs.lock().unwrap();
        let Some(state) = jobs.get_mut(&id) else {
            return err_json(&format!("no such job {id}"));
        };
        let answer = match state.status {
            JobStatus::Queued => {
                state.status = JobStatus::Cancelled;
                self.queue.lock().unwrap().retain(|&q| q != id);
                self.persist_terminal(id, state);
                "cancelled"
            }
            JobStatus::Running => {
                if let Some(budget) = &state.budget {
                    budget.cancel();
                }
                // The worker observes the cancelled budget at its next
                // checkpoint and finishes the terminal transition itself.
                "cancelling"
            }
            terminal => terminal.label(),
        };
        shell_trace::counter_add("serve.cancels", 1);
        drop(jobs);
        self.jobs_cv.notify_all();
        ok_json([("id", Json::from(id)), ("state", Json::from(answer))])
    }

    fn cmd_stats(&self) -> Json {
        let jobs = self.jobs.lock().unwrap();
        let mut by_status: BTreeMap<&'static str, u64> = BTreeMap::new();
        for state in jobs.values() {
            *by_status.entry(state.status.label()).or_insert(0) += 1;
        }
        drop(jobs);
        ok_json([
            (
                "requests",
                Json::from(self.requests.load(Ordering::Relaxed)),
            ),
            ("queue_depth", Json::from(self.queue_depth())),
            ("max_queue", Json::from(self.max_queue)),
            ("draining", Json::from(self.draining.load(Ordering::SeqCst))),
            (
                "jobs",
                Json::obj(
                    by_status
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Json::from(v))),
                ),
            ),
            (
                "cache",
                Json::obj([
                    ("hits", Json::from(self.cache.hits())),
                    ("misses", Json::from(self.cache.misses())),
                    ("corrupt", Json::from(self.cache.corrupt())),
                    ("evicted_startup", Json::from(self.cache.evicted_startup())),
                ]),
            ),
        ])
    }
}

/// Extracts the typed code from an error message of the `[code] detail`
/// shape the server emits for retryable/structural refusals (`overloaded`,
/// `draining`, `stalled`), letting clients branch on the code without
/// parsing prose.
pub fn error_code(message: &str) -> Option<&str> {
    let rest = message.strip_prefix('[')?;
    let end = rest.find(']')?;
    let code = &rest[..end];
    (!code.is_empty() && code.chars().all(|c| c.is_ascii_lowercase() || c == '_')).then_some(code)
}

fn ok_json<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![("ok".to_string(), Json::from(true))];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.into(), v)));
    Json::obj(pairs)
}

fn err_json(message: &str) -> Json {
    Json::obj([
        ("ok", Json::from(false)),
        ("error", Json::from(message.to_string())),
    ])
}
