//! Tracer core: the shared event sink, per-thread shards, and span guards.
//!
//! Design constraints (see `OBSERVABILITY.md` at the repo root):
//!
//! * **No-op fast path.** Every recording entry point first checks a single
//!   process-global relaxed [`AtomicBool`]. When no tracer is installed the
//!   cost of `span!` / [`counter_add`] / [`gauge`] is one load plus a branch —
//!   well under 10 ns — so instrumentation can stay compiled into hot paths.
//! * **Thread-aware, deterministic merge.** Each thread that emits events
//!   registers a private shard with the tracer; events carry a per-thread
//!   sequence number, so a snapshot merges shards by `(thread index, seq)`
//!   without any cross-thread ordering dependence. Counter totals are
//!   order-independent sums, which is what keeps summaries byte-identical
//!   across `SHELL_JOBS` settings.
//! * **Scoped-thread safe.** shell-exec workers are short-lived scoped
//!   threads. A worker's thread-local state dies with it, but the tracer
//!   keeps an `Arc` to every registered shard, so nothing is lost and no
//!   lifetime gymnastics are needed.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// A closed (fully recorded) span.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Span name, e.g. `"route.negotiate"`. Dots express the taxonomy.
    pub name: &'static str,
    /// Start offset from the tracer's epoch, in nanoseconds.
    pub start_ns: u64,
    /// Total wall-clock duration, in nanoseconds.
    pub dur_ns: u64,
    /// Duration minus the time spent in child spans on the same thread.
    pub self_ns: u64,
    /// Nesting depth on the recording thread (0 = top level).
    pub depth: u32,
    /// Per-thread monotonic sequence number (shared with gauges).
    pub seq: u64,
    /// Optional numeric argument, e.g. `("iteration", 7.0)`.
    pub arg: Option<(&'static str, f64)>,
}

/// A point-in-time gauge sample (e.g. HPWL after an anneal pass).
#[derive(Debug, Clone)]
pub struct GaugeEvent {
    /// Gauge name, e.g. `"place.hpwl"`.
    pub name: &'static str,
    /// Offset from the tracer's epoch, in nanoseconds.
    pub at_ns: u64,
    /// Sampled value.
    pub value: f64,
    /// Per-thread monotonic sequence number (shared with spans).
    pub seq: u64,
}

#[derive(Default)]
struct ShardData {
    spans: Vec<SpanEvent>,
    gauges: Vec<GaugeEvent>,
}

struct Shard {
    thread: usize,
    data: Mutex<ShardData>,
}

struct Inner {
    epoch: Instant,
    shards: Mutex<Vec<Arc<Shard>>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

/// A shareable tracing sink. Clones share the same underlying storage.
///
/// A `Tracer` only receives events while it is [`install`]ed as the process
/// tracer; construct one, install it around the region of interest, then
/// [`uninstall`] and inspect the [`Tracer::snapshot`].
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Creates an empty tracer. Its epoch (time zero for all events) is the
    /// moment of construction.
    pub fn new() -> Tracer {
        Tracer {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                shards: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    fn register_shard(&self) -> Arc<Shard> {
        let mut shards = self.inner.shards.lock().unwrap();
        let shard = Arc::new(Shard {
            thread: shards.len(),
            data: Mutex::new(ShardData::default()),
        });
        shards.push(Arc::clone(&shard));
        shard
    }

    /// Collects everything recorded so far into an immutable [`TraceData`].
    ///
    /// Shards are ordered by thread index and events within a shard by their
    /// sequence number, so two snapshots of identical workloads agree on
    /// everything except wall-clock timings.
    pub fn snapshot(&self) -> TraceData {
        let shards = self.inner.shards.lock().unwrap();
        let mut threads: Vec<ThreadTrace> = shards
            .iter()
            .map(|s| {
                let data = s.data.lock().unwrap();
                ThreadTrace {
                    thread: s.thread,
                    spans: data.spans.clone(),
                    gauges: data.gauges.clone(),
                }
            })
            .collect();
        threads.sort_by_key(|t| t.thread);
        TraceData {
            threads,
            counters: self.counters(),
        }
    }

    /// Counter totals recorded so far, ordered by counter name: the
    /// `counters` of a [`Tracer::snapshot`], without copying any span or
    /// gauge.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    fn add_counter(&self, name: &'static str, delta: u64) {
        *self.inner.counters.lock().unwrap().entry(name).or_insert(0) += delta;
    }
}

/// An immutable snapshot of a [`Tracer`]'s recorded events.
#[derive(Debug, Clone)]
pub struct TraceData {
    /// Per-thread event streams, ordered by thread index.
    pub threads: Vec<ThreadTrace>,
    /// Monotonic counter totals, ordered by counter name.
    pub counters: Vec<(String, u64)>,
}

/// The events recorded by one thread, in emission order.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Registration index of the thread within the tracer.
    pub thread: usize,
    /// Closed spans, in close order (`seq` ascending).
    pub spans: Vec<SpanEvent>,
    /// Gauge samples, in emission order (`seq` ascending).
    pub gauges: Vec<GaugeEvent>,
}

impl TraceData {
    /// Total number of spans across all threads.
    pub fn span_count(&self) -> usize {
        self.threads.iter().map(|t| t.spans.len()).sum()
    }
}

// ---------------------------------------------------------------------------
// Process-global installation
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(1);
static CURRENT: OnceLock<RwLock<Option<Tracer>>> = OnceLock::new();

fn current_slot() -> &'static RwLock<Option<Tracer>> {
    CURRENT.get_or_init(|| RwLock::new(None))
}

/// Whether a tracer is currently installed. This is the no-op fast-path
/// check: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `tracer` as the process tracer, replacing any previous one.
///
/// Spans that are still open when the installed tracer changes are silently
/// discarded at close — they belong to neither tracer in full.
pub fn install(tracer: Tracer) {
    let mut slot = current_slot().write().unwrap();
    GENERATION.fetch_add(1, Ordering::Relaxed);
    *slot = Some(tracer);
    ENABLED.store(true, Ordering::Release);
}

/// Removes and returns the process tracer, disabling recording.
pub fn uninstall() -> Option<Tracer> {
    let mut slot = current_slot().write().unwrap();
    ENABLED.store(false, Ordering::Release);
    GENERATION.fetch_add(1, Ordering::Relaxed);
    slot.take()
}

/// A clone of the currently installed tracer, if any.
pub fn current() -> Option<Tracer> {
    if !enabled() {
        return None;
    }
    current_slot().read().unwrap().clone()
}

/// Installs a fresh tracer when the `SHELL_TRACE` environment variable is
/// set to anything other than `""` or `"0"`. Returns whether tracing was
/// enabled. Call this once at the top of a binary's `main`.
pub fn init_from_env() -> bool {
    match std::env::var("SHELL_TRACE") {
        Ok(v) if !v.is_empty() && v != "0" => {
            install(Tracer::new());
            true
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Thread-local recording state
// ---------------------------------------------------------------------------

struct OpenFrame {
    child_ns: u64,
}

struct Local {
    generation: u64,
    tracer: Tracer,
    shard: Arc<Shard>,
    stack: Vec<OpenFrame>,
    seq: u64,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's recording state for the current tracer,
/// registering a shard on first use. Returns `None` when no tracer is
/// installed (lost the race with `uninstall`).
fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> Option<R> {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let gen = GENERATION.load(Ordering::Relaxed);
        if slot.as_ref().map(|l| l.generation) != Some(gen) {
            let tracer = current_slot().read().unwrap().clone()?;
            let shard = tracer.register_shard();
            *slot = Some(Local {
                generation: gen,
                tracer,
                shard,
                stack: Vec::new(),
                seq: 0,
            });
        }
        slot.as_mut().map(f)
    })
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct ActiveSpan {
    name: &'static str,
    arg: Option<(&'static str, f64)>,
    generation: u64,
    start_ns: u64,
    depth: u32,
}

/// An RAII span guard: the span closes (and records its event) on drop.
///
/// Obtained from [`span`], [`span_arg`], or the [`crate::span!`] macro. When
/// tracing is disabled the guard is inert and free to drop.
#[must_use = "a span records its duration when dropped; bind it with `let _span = ...`"]
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Span {
    /// An inert guard that records nothing. Useful as a placeholder.
    pub fn disabled() -> Span {
        Span { active: None }
    }

    /// Whether this guard will record an event on drop.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

fn open_span(name: &'static str, arg: Option<(&'static str, f64)>) -> Span {
    let active = with_local(|local| {
        let start_ns = local.tracer.inner.epoch.elapsed().as_nanos() as u64;
        local.stack.push(OpenFrame { child_ns: 0 });
        ActiveSpan {
            name,
            arg,
            generation: local.generation,
            start_ns,
            depth: (local.stack.len() - 1) as u32,
        }
    });
    Span { active }
}

/// Opens a span named `name`. Prefer the [`crate::span!`] macro.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { active: None };
    }
    open_span(name, None)
}

/// Opens a span with one numeric argument (e.g. a DIP iteration index).
#[inline]
pub fn span_arg(name: &'static str, key: &'static str, value: f64) -> Span {
    if !enabled() {
        return Span { active: None };
    }
    open_span(name, Some((key, value)))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        LOCAL.with(|cell| {
            let mut slot = cell.borrow_mut();
            let Some(local) = slot.as_mut() else { return };
            if local.generation != active.generation {
                return; // tracer swapped while the span was open: discard
            }
            let Some(frame) = local.stack.pop() else { return };
            let end_ns = local.tracer.inner.epoch.elapsed().as_nanos() as u64;
            let dur_ns = end_ns.saturating_sub(active.start_ns);
            if let Some(parent) = local.stack.last_mut() {
                parent.child_ns += dur_ns;
            }
            let seq = local.seq;
            local.seq += 1;
            local.shard.data.lock().unwrap().spans.push(SpanEvent {
                name: active.name,
                start_ns: active.start_ns,
                dur_ns,
                self_ns: dur_ns.saturating_sub(frame.child_ns),
                depth: active.depth,
                seq,
                arg: active.arg,
            });
        });
    }
}

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

/// Adds `delta` to the monotonic counter `name`.
///
/// Counter totals are plain sums and therefore independent of thread
/// interleaving — the property that keeps normalized summaries identical
/// across `SHELL_JOBS` settings. Call this with batched deltas at span
/// boundaries (e.g. a solver's conflict delta per solve), never inside an
/// inner loop.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    if let Some(t) = with_local(|local| local.tracer.clone()) {
        t.add_counter(name, delta);
    }
}

/// Records a point-in-time sample of gauge `name`.
///
/// Summaries aggregate gauges by count/min/max only — those are the
/// order-independent statistics, so gauge output stays deterministic when
/// samples arrive from parallel workers.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_local(|local| {
        let at_ns = local.tracer.inner.epoch.elapsed().as_nanos() as u64;
        let seq = local.seq;
        local.seq += 1;
        local.shard.data.lock().unwrap().gauges.push(GaugeEvent {
            name,
            at_ns,
            value,
            seq,
        });
    });
}
