//! Flow-wide observability: stage spans, monotonic counters, latency
//! histograms, structured traces, live events, and JSON run manifests —
//! with zero dependencies, so every crate of the workspace can emit
//! metrics without widening its API.
//!
//! # Model
//!
//! A recorder holds three kinds of metrics:
//!
//! * **Counters** (`u64`, [`add`]) are *deterministic*: for a fixed seed
//!   and input they must not depend on the worker-thread count, the
//!   machine, or scheduling. Producers guarantee this by counting work
//!   whose amount is thread-count independent (e.g. per fault-shard, never
//!   per worker) and flushing with commutative adds.
//! * **Deterministic histograms** ([`hist_add`]) record distributions of
//!   thread-count-independent quantities (PODEM backtracks per fault,
//!   cluster sizes) in fixed power-of-two buckets. They are *encoded into
//!   the counter namespace* (`hist.<name>.count/.sum/.min/.max/.bNN`), so
//!   they ride along in manifests, determinism gates, and checkpoint
//!   snapshots with no extra plumbing. See [`hist`].
//! * **Volatile metrics** (`f64`, [`volatile_add`]) carry everything that
//!   legitimately varies run-to-run: wall-clock times, per-worker shard
//!   tallies, thread provenance. They are reported but never compared
//!   exactly. Each span additionally feeds a volatile *wall-time
//!   histogram* whose quantile summary lands in the manifest's `timings`.
//!
//! A [`Span`] (from [`span`]) bridges the kinds: dropping it bumps the
//! deterministic counter `span.<name>.calls`, adds the elapsed time to the
//! volatile metric `span.<name>.wall_ms`, feeds the volatile wall-time
//! histogram, and — when tracing is enabled — emits a [`trace`] event with
//! thread attribution. [`span_volatile`] is the counter-free variant for
//! stages whose call count is *not* thread-count independent (checkpoint
//! writes on a resumed run, for example).
//!
//! The metrics live in the recorder's *registry*. Next to it, every
//! recorder reaches the collected [`trace`] events and the subscribers of
//! the [`events`] bus of its root.
//!
//! # Scopes
//!
//! Every thread records into the recorder of its current [`Scope`]: a
//! recorder plus the job key that [`events`] are attributed to. A thread
//! that never entered a scope records into a root recorder of its own,
//! created on first use, so independent flows (and tests) on separate
//! threads never see each other's counts. A thread pool shares its
//! spawner's recorder by capturing [`Scope::current`] and entering it at
//! the top of each worker closure.
//!
//! A *child scope* ([`child_scope`], and [`events::job_scope`] with a job
//! key of its own) keeps its metrics in a registry of its own: reads,
//! [`reset`] and [`restore_counters`] inside it see and touch only what
//! it recorded. Its trace events and flow events go to its root's trace
//! and bus (subscribers, sequence numbers, [`events::published`]), and
//! worker threads that enter it record there too. When its guard drops,
//! its registry merges into its parent's by the rule of [`add_counters`]
//! (`hist.<name>.min`/`.max` by min/max, every other counter, volatile
//! metric and wall-time histogram by addition), so a parent's counts do
//! not depend on whether its work ran in children.
//!
//! # Hot path
//!
//! Span and counter keys are `&'static str`; every record lands in one
//! thread-local buffer (no lock, no `String` allocation): counters, span
//! aggregates and histograms aggregated per key, trace events while the
//! root's trace is armed, and high-frequency flow events. The buffer
//! publishes into the recorder when the thread reads a snapshot
//! ([`counters`], [`volatiles`], [`counter`]), calls [`flush`], or leaves
//! a scope — dropping a [`ScopeGuard`] flushes, so a worker that entered
//! its spawner's scope has published before its thread joins. A publish
//! takes the registry lock, and the root's lock too when trace or flow
//! events are buffered. [`lock_acquisitions`] counts both so tests can
//! assert the hot path stays off the locks.
//!
//! [`manifest::Run`] snapshots the recorder into a [`manifest::Manifest`]
//! — the machine-readable record a benchmark binary writes to
//! `results/manifest-<name>.json` and CI diffs against a checked-in
//! baseline (`check_manifest`). Everything outside the manifest's
//! `timings` object is byte-reproducible for a fixed seed, across thread
//! counts.

pub mod events;
pub mod hist;
pub mod json;
pub mod manifest;
pub mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

pub use hist::{hist_add, Hist};
pub use manifest::{Manifest, Run};

use events::{FlowEvent, Subscriber};
use trace::TraceEvent;

/// Everything one scope records into: its own registry, and the root it
/// shares with its parents and children.
#[derive(Default)]
struct Recorder {
    registry: Mutex<Registry>,
    root: Arc<Root>,
}

/// The metrics of one recorder.
#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    volatiles: BTreeMap<String, f64>,
    /// Volatile wall-time histograms, one per span name, in nanoseconds.
    wall_hists: BTreeMap<String, Hist>,
}

/// What a root recorder shares with its child scopes: the trace list and
/// the event bus's subscribers, plus the lock-free trace switch,
/// subscriber count, sequence, and lock tally.
#[derive(Default)]
struct Root {
    state: Mutex<RootState>,
    /// Lock acquisitions of the root and of every registry under it — the
    /// observability of the observability layer. Tests assert hot-path
    /// records do not move it.
    locks: AtomicU64,
    /// True while the trace is armed ([`trace::start`]).
    tracing: AtomicBool,
    /// Live-subscriber count — the publish fast-path gate, changed under
    /// the lock and read with one relaxed load.
    subscribers: AtomicUsize,
    /// Events delivered to at least one subscriber; also the last minted
    /// sequence number (assigned under the lock).
    published: AtomicU64,
}

#[derive(Default)]
struct RootState {
    /// Trace events collected since [`trace::start`].
    trace: Vec<TraceEvent>,
    subs: Vec<Arc<Subscriber>>,
}

impl Root {
    fn lock(&self) -> MutexGuard<'_, RootState> {
        self.locks.fetch_add(1, Ordering::Relaxed);
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Recorder {
    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.root.locks.fetch_add(1, Ordering::Relaxed);
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Moves this registry into `parent`'s (see "Scopes" in the crate
    /// docs) and leaves it empty.
    fn merge_into(&self, parent: &Recorder) {
        let child = std::mem::take(&mut *self.lock());
        let mut reg = parent.lock();
        merge_counters(&mut reg.counters, child.counters);
        for (name, v) in child.volatiles {
            *reg.volatiles.entry(name).or_insert(0.0) += v;
        }
        for (name, h) in child.wall_hists {
            reg.wall_hists.entry(name).or_default().merge(&h);
        }
    }
}

/// Merges counter `entries` into `counters`: `hist.<name>.min`/`.max`
/// carry absolute extremes and merge by min/max (exactly like
/// `hist::merge_into_counters`); every other key adds. A zero-valued entry
/// still creates its key.
fn merge_counters(
    counters: &mut BTreeMap<String, u64>,
    entries: impl IntoIterator<Item = (String, u64)>,
) {
    for (name, n) in entries {
        let extreme = |suffix| name.starts_with("hist.") && name.ends_with(suffix);
        if extreme(".min") {
            let e = counters.entry(name).or_insert(n);
            *e = (*e).min(n);
        } else if extreme(".max") {
            let e = counters.entry(name).or_insert(n);
            *e = (*e).max(n);
        } else {
            *counters.entry(name).or_insert(0) += n;
        }
    }
}

/// Where a thread records: a recorder and the job key its events carry.
///
/// Capture the current one with [`Scope::current`] and re-enter it on
/// another thread with [`Scope::enter`]: that is how worker threads record
/// into their spawner's registry, trace, and event bus.
#[derive(Clone, Default)]
pub struct Scope {
    recorder: Arc<Recorder>,
    job: u128,
}

impl Scope {
    /// The calling thread's scope (its own recorder if it never entered
    /// one).
    pub fn current() -> Scope {
        with_buf(|scope, _| scope.clone()).unwrap_or_default()
    }

    /// Makes this the calling thread's scope until the guard drops.
    /// Records already buffered are published to the previous scope first.
    #[must_use = "the scope ends when the guard drops"]
    pub fn enter(&self) -> ScopeGuard {
        let prev = BUF
            .try_with(|cell| {
                let mut buf = cell.borrow_mut();
                buf.flush();
                buf.scope.replace(self.clone())
            })
            .ok()
            .flatten();
        ScopeGuard { prev, merge: None, _thread: PhantomData }
    }

    /// Enters a child of this scope under `job` (see "Scopes" in the crate
    /// docs): a fresh registry on this scope's root, merged into this
    /// scope's registry when the guard drops.
    pub(crate) fn enter_child(&self, job: u128) -> ScopeGuard {
        let recorder = Arc::new(Recorder {
            registry: Mutex::default(),
            root: Arc::clone(&self.recorder.root),
        });
        let mut guard = Scope { recorder: Arc::clone(&recorder), job }.enter();
        guard.merge = Some((recorder, Arc::clone(&self.recorder)));
        guard
    }
}

/// Enters a child of the calling thread's scope, with the same job key,
/// until the guard drops. Inside it, [`counters`] reads only what the
/// child recorded; on drop its registry merges into the parent's (see
/// "Scopes" in the crate docs). Worker threads must leave the child
/// (join) before its guard drops, or their later records are lost.
#[must_use = "the child scope ends, and merges into its parent, when the guard drops"]
pub fn child_scope() -> ScopeGuard {
    let parent = Scope::current();
    parent.enter_child(parent.job)
}

/// Guard returned by [`Scope::enter`], [`child_scope`] and
/// [`events::job_scope`]. Dropping it (also during panic unwinding)
/// flushes the thread's buffer into the scope's recorder, restores the
/// previous scope, and merges a child scope's registry into its parent's.
pub struct ScopeGuard {
    prev: Option<Scope>,
    /// A child scope's recorder and the parent recorder it merges into.
    merge: Option<(Arc<Recorder>, Arc<Recorder>)>,
    /// Scopes are per-thread state: the guard must drop on its thread.
    _thread: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        let _ = BUF.try_with(|cell| {
            let mut buf = cell.borrow_mut();
            buf.flush();
            buf.scope = prev;
        });
        if let Some((child, parent)) = self.merge.take() {
            child.merge_into(&parent);
        }
    }
}

/// Per-span buffered aggregate: the deterministic call tally and the
/// volatile wall-clock sum + histogram, merged into the recorder at flush.
#[derive(Default)]
struct SpanAgg {
    calls: u64,
    wall_ms: f64,
    wall: Hist,
}

/// One thread's records since its last flush. Keys are `&'static str`, so
/// lookups are a short linear scan over pointer-comparable keys and
/// recording allocates nothing after the first touch of a key.
#[derive(Default)]
struct Records {
    /// Stable trace thread id.
    tid: u64,
    counters: Vec<(&'static str, u64)>,
    spans: Vec<(&'static str, SpanAgg)>,
    hists: Vec<(&'static str, Hist)>,
    trace: Vec<TraceEvent>,
    /// Flow events not yet delivered, with their job key.
    events: Vec<(u128, FlowEvent)>,
}

impl Records {
    fn count(&mut self, name: &'static str, n: u64) {
        match self.counters.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += n,
            None => self.counters.push((name, n)),
        }
    }

    fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.spans.is_empty()
            && self.hists.is_empty()
            && self.trace.is_empty()
            && self.events.is_empty()
    }

    /// Merges everything buffered into `rec` — metrics into its registry,
    /// trace and flow events into its root — clears the buffer, and
    /// returns the still-held registry lock.
    fn publish<'r>(&mut self, rec: &'r Recorder) -> MutexGuard<'r, Registry> {
        let mut reg = rec.lock();
        for &(name, n) in &self.counters {
            *reg.counters.entry(name.to_string()).or_insert(0) += n;
        }
        for (name, agg) in &self.spans {
            if agg.calls > 0 {
                *reg.counters.entry(format!("span.{name}.calls")).or_insert(0) += agg.calls;
            }
            *reg.volatiles.entry(format!("span.{name}.wall_ms")).or_insert(0.0) += agg.wall_ms;
            reg.wall_hists.entry((*name).to_string()).or_default().merge(&agg.wall);
        }
        for (name, h) in &self.hists {
            hist::merge_into_counters(&mut reg.counters, name, h);
        }
        self.counters.clear();
        self.spans.clear();
        self.hists.clear();
        if !self.trace.is_empty() || !self.events.is_empty() {
            let mut st = rec.root.lock();
            st.trace.append(&mut self.trace);
            events::deliver_buffered(&rec.root, &st, self);
        }
        reg
    }

    /// Appends one complete trace event when `rec`'s trace is armed.
    fn trace(&mut self, rec: &Recorder, name: &'static str, id: Option<u64>, start: Instant) {
        if rec.root.tracing.load(Ordering::Relaxed) {
            let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            self.trace.push(TraceEvent {
                name,
                tid: self.tid,
                ts_ns: ns(start.saturating_duration_since(trace::anchor())),
                dur_ns: ns(start.elapsed()),
                id,
            });
        }
    }
}

/// The thread-local buffer: the thread's current scope (created on first
/// use) and its unpublished records. Dropping it at thread exit is the
/// backstop flush.
struct Buf {
    scope: Option<Scope>,
    records: Records,
}

impl Buf {
    fn flush(&mut self) {
        if let (Some(scope), false) = (&self.scope, self.records.is_empty()) {
            drop(self.records.publish(&scope.recorder));
        }
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUF: RefCell<Buf> = RefCell::new(Buf {
        scope: None,
        records: Records { tid: trace::next_tid(), ..Records::default() },
    });
}

/// Runs `f` on the calling thread's scope and buffer. `None` once the
/// thread's buffer has been destroyed (thread exit): such late records
/// are dropped.
fn with_buf<R>(f: impl FnOnce(&Scope, &mut Records) -> R) -> Option<R> {
    BUF.try_with(|cell| {
        let mut buf = cell.borrow_mut();
        let Buf { scope, records } = &mut *buf;
        f(scope.get_or_insert_with(Scope::default), records)
    })
    .ok()
}

/// Runs `f` on the current recorder's registry, after publishing the
/// calling thread's buffer into it (one registry lock in all).
fn with_registry<R: Default>(f: impl FnOnce(&mut Registry) -> R) -> R {
    with_buf(|scope, records| f(&mut records.publish(&scope.recorder))).unwrap_or_default()
}

/// Runs `f` on the current root's shared state, after publishing the
/// calling thread's buffer.
fn with_root<R: Default>(f: impl FnOnce(&Root, &mut RootState) -> R) -> R {
    with_buf(|scope, records| {
        drop(records.publish(&scope.recorder));
        let root = &scope.recorder.root;
        f(root, &mut root.lock())
    })
    .unwrap_or_default()
}

/// Number of times the current root's locks (its own and those of every
/// registry under it) have been taken since the root was created.
/// Monotonic and never reset: stress tests snapshot it around a hot loop
/// to prove spans/counters/histograms buffer thread-locally instead of
/// hitting a mutex per call.
pub fn lock_acquisitions() -> u64 {
    with_buf(|scope, _| scope.recorder.root.locks.load(Ordering::Relaxed)).unwrap_or(0)
}

/// Publishes the calling thread's buffered metrics, trace events, and
/// hot flow events into its scope's recorder. Reads ([`counters`],
/// [`volatiles`], [`counter`], [`Run::finish`]) and scope exits do this
/// implicitly.
pub fn flush() {
    let _ = BUF.try_with(|cell| cell.borrow_mut().flush());
}

/// Clears every counter, histogram, and volatile metric of the current
/// recorder (the start of a run), the calling thread's buffered ones
/// included.
pub fn reset() {
    with_registry(|reg| *reg = Registry::default());
}

/// Adds `n` to the deterministic counter `name`, creating it at zero.
/// Zero increments create no counter.
pub fn add(name: &'static str, n: u64) {
    if n > 0 {
        with_buf(|_, records| records.count(name, n));
    }
}

/// Adds a batch of counter increments in one call — the flush primitive
/// for per-shard accumulators on the hot path. Increments land in the
/// thread-local buffer; no lock is taken.
pub fn add_many(entries: &[(&'static str, u64)]) {
    with_buf(|_, records| {
        entries.iter().filter(|e| e.1 > 0).for_each(|&(name, n)| records.count(name, n));
    });
}

/// Publishes a pre-aggregated histogram under `name`, merging it into the
/// deterministic `hist.<name>.*` counter encoding (see [`hist_add`]).
///
/// This is the write-through path for subsystems that keep their own
/// [`Hist`] — e.g. a server sampling its queue depth per enqueue — and
/// publish once at shutdown instead of paying a record per sample. The
/// name is dynamic (no `&'static str` requirement) because the merge goes
/// straight to the recorder. Empty histograms record nothing.
pub fn record_hist(name: &str, h: &Hist) {
    with_registry(|reg| hist::merge_into_counters(&mut reg.counters, name, h));
}

/// Replaces all deterministic counters of the current recorder with
/// `snapshot` (volatile metrics are untouched). The restore half of
/// checkpoint resume: the resumed run replays the decision log to rebuild
/// its design state, then replaces whatever the replay counted with the
/// counts the original run had at checkpoint time. Inside a child scope
/// (a server job's [`events::job_scope`]) that is the child's counters
/// only. Because deterministic histograms are encoded in the counter
/// namespace, they are restored by the same call. The calling thread's
/// buffered counts are folded in first, and so replaced too.
pub fn restore_counters(snapshot: &BTreeMap<String, u64>) {
    with_registry(|reg| reg.counters = snapshot.clone());
}

/// Adds a batch of *dynamic-name* counter deltas — the restore half of a
/// cross-run cache hit: the counters a compute recorded in its child
/// scope when it actually ran are re-applied verbatim when its cached
/// result is returned, so a hit stays byte-identical to a recompute in
/// the manifest.
///
/// Merge semantics are key-aware, mirroring how the counters were
/// produced: `hist.<name>.min`/`.max` entries carry *absolute* per-run
/// extremes and merge by min/max (exactly like
/// `hist::merge_into_counters`); every other key is an additive delta.
/// Zero-valued entries still create their key — a run can legitimately
/// leave `hist.<name>.sum` at zero, and the replayed registry must carry
/// the same keys as the original run's. A child scope's registry merges
/// into its parent's by the same rule.
///
/// Dynamic keys cannot use the `&'static str` thread-local fast path, so
/// this writes through to the recorder.
pub fn add_counters(entries: &BTreeMap<String, u64>) {
    with_registry(|reg| {
        merge_counters(&mut reg.counters, entries.iter().map(|(name, &n)| (name.clone(), n)));
    });
}

/// Adds `v` to the volatile (non-deterministic) metric `name`.
///
/// Volatile keys may be dynamic (`atpg.worker3.busy_ms`), so this writes
/// through to the recorder; it is meant for per-worker / per-run
/// frequencies, not per-fault hot paths.
pub fn volatile_add(name: &str, v: f64) {
    with_registry(|reg| *reg.volatiles.entry(name.to_string()).or_insert(0.0) += v);
}

/// Sets the volatile metric `name` to `v` (last write wins). A child
/// scope's volatile metrics merge into its parent's by addition.
pub fn volatile_set(name: &str, v: f64) {
    with_registry(|reg| reg.volatiles.insert(name.to_string(), v));
}

/// Snapshot of all deterministic counters (this thread's buffer included).
pub fn counters() -> BTreeMap<String, u64> {
    with_registry(|reg| reg.counters.clone())
}

/// Snapshot of all volatile metrics (this thread's buffer included).
pub fn volatiles() -> BTreeMap<String, f64> {
    with_registry(|reg| reg.volatiles.clone())
}

/// One counter's current value (0 when never touched).
pub fn counter(name: &str) -> u64 {
    with_registry(|reg| reg.counters.get(name).copied().unwrap_or(0))
}

/// A stage timer: created by [`span`] or [`span_volatile`], records on
/// drop.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct Span {
    name: &'static str,
    start: Instant,
    counted: bool,
}

/// Starts a span named `name`. On drop it bumps the counter
/// `span.<name>.calls` by one, adds the elapsed milliseconds to the
/// volatile metric `span.<name>.wall_ms`, feeds the span's volatile
/// wall-time histogram, and emits a [`trace`] event when tracing is
/// enabled. Spans may nest (inner stages are also part of their outer
/// stage's wall time). The key must be `&'static str`: recording buffers
/// thread-locally and never allocates.
pub fn span(name: &'static str) -> Span {
    Span { name, start: Instant::now(), counted: true }
}

/// Starts a volatile-only span: wall time, histogram, and trace event, but
/// **no** `span.<name>.calls` counter. Use it for stages whose call count
/// is legitimately run-dependent — e.g. checkpoint writes, which happen
/// three times in a full run but fewer times in its resumed half — so the
/// deterministic manifest section stays byte-identical.
pub fn span_volatile(name: &'static str) -> Span {
    Span { name, start: Instant::now(), counted: false }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Span { name, start, counted } = *self;
        let elapsed: Duration = start.elapsed();
        with_buf(|scope, records| {
            records.trace(&scope.recorder, name, None, start);
            let agg = match records.spans.iter().position(|(k, _)| *k == name) {
                Some(i) => &mut records.spans[i].1,
                None => {
                    records.spans.push((name, SpanAgg::default()));
                    &mut records.spans.last_mut().expect("just pushed").1
                }
            };
            agg.calls += u64::from(counted);
            agg.wall_ms += elapsed.as_secs_f64() * 1e3;
            agg.wall.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples in the span's volatile wall-time histogram.
    fn wall_calls(span: &str) -> Option<u64> {
        with_registry(|reg| reg.wall_hists.get(span).map(|h| h.count))
    }

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        add("a", 2);
        add("a", 3);
        add_many(&[("a", 1), ("b", 4), ("zero", 0)]);
        assert_eq!(counter("a"), 6);
        assert_eq!(counter("b"), 4);
        assert_eq!(counter("missing"), 0);
        assert!(!counters().contains_key("zero"), "zero adds do not create counters");
        reset();
        assert!(counters().is_empty());
    }

    #[test]
    fn record_hist_publishes_preaggregated_histograms() {
        reset();
        let mut h = Hist::default();
        for v in [1u64, 2, 2, 40] {
            h.record(v);
        }
        record_hist("queue.depth", &h);
        assert_eq!(counter("hist.queue.depth.count"), 4);
        assert_eq!(counter("hist.queue.depth.sum"), 45);
        let back = Hist::from_counters(&counters(), "queue.depth").expect("roundtrip");
        assert_eq!(back.count, 4);
        assert_eq!(back.min, 1);
        assert_eq!(back.max, 40);
        // Merging twice accumulates; empty publishes are no-ops.
        record_hist("queue.depth", &h);
        assert_eq!(counter("hist.queue.depth.count"), 8);
        record_hist("queue.empty", &Hist::default());
        assert!(!counters().contains_key("hist.queue.empty.count"));
        reset();
    }

    #[test]
    fn spans_record_calls_and_wall_time() {
        reset();
        {
            let _s = span("stage");
            let _inner = span("stage.inner");
        }
        assert_eq!(counter("span.stage.calls"), 1);
        assert_eq!(counter("span.stage.inner.calls"), 1);
        let v = volatiles();
        assert!(v.contains_key("span.stage.wall_ms"));
        assert!(*v.get("span.stage.wall_ms").unwrap() >= 0.0);
        assert_eq!(wall_calls("stage"), Some(1));
    }

    #[test]
    fn volatile_spans_skip_the_call_counter() {
        reset();
        {
            let _s = span_volatile("vstage");
        }
        assert_eq!(counter("span.vstage.calls"), 0);
        assert!(!counters().contains_key("span.vstage.calls"));
        assert!(volatiles().contains_key("span.vstage.wall_ms"));
        assert_eq!(wall_calls("vstage"), Some(1));
    }

    #[test]
    fn restore_counters_replaces_exactly() {
        reset();
        add("stale", 9);
        volatile_set("kept.volatile", 4.0);
        let snapshot = BTreeMap::from([("a".to_string(), 2u64), ("b".to_string(), 7u64)]);
        restore_counters(&snapshot);
        assert_eq!(counters(), snapshot);
        assert_eq!(volatiles().get("kept.volatile"), Some(&4.0));
    }

    #[test]
    fn volatile_set_overwrites() {
        reset();
        volatile_add("t", 1.5);
        volatile_add("t", 1.5);
        assert_eq!(volatiles().get("t"), Some(&3.0));
        volatile_set("t", 7.0);
        assert_eq!(volatiles().get("t"), Some(&7.0));
    }

    #[test]
    fn workers_that_enter_the_spawners_scope_publish_before_the_join() {
        reset();
        let scope = Scope::current();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _scope = scope.enter();
                    add("scoped", 10);
                    let _s = span("scoped.stage");
                });
            }
        });
        assert_eq!(counter("scoped"), 40);
        assert_eq!(counter("span.scoped.stage.calls"), 4);
        assert_eq!(wall_calls("scoped.stage"), Some(4));
    }

    #[test]
    fn scopes_isolate_recorders_and_restore_on_exit() {
        reset();
        add("outer", 1);
        // A thread that never entered a scope got a fresh recorder.
        let other = std::thread::scope(|s| s.spawn(Scope::current).join().unwrap());
        {
            let _scope = other.enter();
            assert!(counters().is_empty(), "the buffer flushed into the outer recorder first");
            add("inner", 1);
            reset();
            add("inner", 1);
        }
        assert_eq!(counters(), BTreeMap::from([("outer".to_string(), 1)]), "reset stayed inside");
        let _scope = other.enter();
        assert_eq!(counters(), BTreeMap::from([("inner".to_string(), 1)]));
    }

    #[test]
    fn child_scopes_record_apart_and_merge_into_the_parent_on_exit() {
        reset();
        add("both", 1);
        hist_add("h", 5);
        {
            let _child = child_scope();
            assert!(counters().is_empty(), "a child starts with an empty registry");
            add("both", 2);
            hist_add("h", 3);
            hist_add("h", 9);
            volatile_add("wall", 1.5);
            let scope = Scope::current();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _scope = scope.enter();
                    add("worker", 4);
                });
            });
            assert_eq!(counter("worker"), 4, "workers that enter the child record there");
            assert_eq!(counter("hist.h.min"), 3, "the child's own extremes");
        }
        let merged = counters();
        assert_eq!(merged.get("both"), Some(&3));
        assert_eq!(merged.get("worker"), Some(&4));
        assert_eq!(merged.get("hist.h.count"), Some(&3));
        assert_eq!(merged.get("hist.h.min"), Some(&3), "extremes merge by min");
        assert_eq!(merged.get("hist.h.max"), Some(&9), "extremes merge by max");
        assert_eq!(volatiles().get("wall"), Some(&1.5));
    }

    #[test]
    fn a_child_shares_its_roots_trace() {
        reset();
        trace::start();
        {
            let _child = child_scope();
            assert!(trace::enabled(), "the root's trace switch covers its children");
            let _s = span("child.stage");
        }
        let names: Vec<&str> = trace::stop().events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["child.stage"]);
    }
}
