//! Structured tracing: per-event timelines with thread attribution,
//! exported as Chrome-trace JSON (`trace.json`) loadable in
//! `ui.perfetto.dev` or `chrome://tracing`.
//!
//! # Model
//!
//! Tracing is off by default and costs one relaxed atomic load per span.
//! [`start`] arms the trace of the current recorder's root (see the crate
//! root's scopes); from then on every [`crate::Span`] drop — and every
//! [`zone`] guard — on a thread of that scope or of a child scope appends
//! one *complete event* (name, thread id, start offset, duration, optional
//! numeric id) to the thread's buffer. The buffer moves into the root
//! whenever the thread flushes (reads, scope exits, thread exit), and
//! [`stop`] disarms tracing and returns the collected [`Trace`].
//!
//! Parent/child nesting is not stored explicitly: complete events carry
//! start + duration, and containment within one thread's timeline *is* the
//! nesting — exactly how the Chrome trace viewer reconstructs flame
//! graphs, and how `trace_report` rebuilds the attribution tree.
//!
//! # Zones vs spans
//!
//! A [`crate::span`] records counters + wall time *always* and a trace
//! event when tracing is armed. A [`zone`] is trace-only: it exists for
//! high-cardinality attribution (one event per fault, per resynthesis
//! iteration, per backtracking group) where a deterministic counter per
//! instance would be noise and a `String` key per instance would be an
//! allocation. When tracing is off a zone is one thread-local read and
//! no clock read.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One complete event: `name` ran on thread `tid` from `ts_ns` (offset
/// from the trace anchor) for `dur_ns`, optionally labelled with a
/// producer-chosen `id` (fault ordinal, iteration number, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (span or zone name).
    pub name: &'static str,
    /// Stable per-thread ordinal (1 = first thread to record).
    pub tid: u64,
    /// Start, in nanoseconds since the trace anchor.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Producer-chosen instance label (`args.id` in the export).
    pub id: Option<u64>,
}

/// The process-wide thread-id allocator: ids stay unique across recorders,
/// so one trace never merges two threads' timelines.
pub(crate) fn next_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    NEXT_TID.fetch_add(1, Ordering::Relaxed)
}

/// The instant all event timestamps are relative to, pinned by the first
/// [`start`] and reused for the whole process lifetime so ts arithmetic
/// never underflows.
pub(crate) fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// True when the current root's trace is armed.
pub fn enabled() -> bool {
    crate::with_buf(|scope, _| scope.recorder.root.tracing.load(Ordering::Relaxed)).unwrap_or(false)
}

/// Arms the current root's trace: clears previously collected events
/// and pins the time anchor. Call it before the traced region; threads
/// that enter this scope record into the same trace.
pub fn start() {
    let _ = anchor();
    crate::with_root(|root, st| {
        st.trace.clear();
        root.tracing.store(true, Ordering::SeqCst);
    });
}

/// Disarms the current root's trace and returns everything collected
/// since [`start`], the calling thread's buffer included (workers that
/// entered the scope published theirs when they left it). Events are
/// sorted by (thread, start, longest-first) so nesting reads top-down.
pub fn stop() -> Trace {
    let mut collected = crate::with_root(|root, st| {
        root.tracing.store(false, Ordering::SeqCst);
        std::mem::take(&mut st.trace)
    });
    collected.sort_by(|a, b| {
        (a.tid, a.ts_ns, std::cmp::Reverse(a.dur_ns), a.name).cmp(&(
            b.tid,
            b.ts_ns,
            std::cmp::Reverse(b.dur_ns),
            b.name,
        ))
    });
    Trace { events: collected }
}

/// A trace-only timing guard (see the module docs). `id` labels the
/// instance — fault ordinal, iteration number, group size — and lands in
/// the exported event's `args.id`.
#[must_use = "a zone times the scope it is bound to"]
pub struct Zone(Option<(&'static str, u64, Instant)>);

/// Opens a zone named `name` labelled `id`. Free when tracing is off.
pub fn zone(name: &'static str, id: u64) -> Zone {
    if enabled() {
        Zone(Some((name, id, Instant::now())))
    } else {
        Zone(None)
    }
}

impl Drop for Zone {
    fn drop(&mut self) {
        if let Some((name, id, start)) = self.0.take() {
            crate::with_buf(|scope, records| {
                records.trace(&scope.recorder, name, Some(id), start);
            });
        }
    }
}

/// A collected trace: every event recorded between [`start`] and [`stop`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events sorted by (thread, start, longest-first).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// The distinct thread ids present, ascending.
    pub fn tids(&self) -> Vec<u64> {
        let mut tids: Vec<u64> = self.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        tids
    }

    /// Serialises the trace in Chrome Trace Event Format (JSON object
    /// form): one `"X"` (complete) event per span/zone with `ts`/`dur` in
    /// microseconds, plus one `"M"` thread-name metadata event per thread.
    /// The result loads directly in `ui.perfetto.dev`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for tid in self.tids() {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                if tid == 1 { "main".to_string() } else { format!("worker-{tid}") }
            );
        }
        for e in &self.events {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3}",
                e.tid,
                crate::json::escape(e.name),
                e.ts_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3,
            );
            if let Some(id) = e.id {
                let _ = write!(out, ",\"args\":{{\"id\":{id}}}");
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    /// Writes [`Trace::to_chrome_json`] to `path` (parent directories
    /// created).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_chrome(&self, path: impl AsRef<Path>) -> io::Result<PathBuf> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_chrome_json())?;
        Ok(path.to_path_buf())
    }
}

fn sep(out: &mut String, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn spans_and_zones_record_only_while_armed() {
        crate::reset();
        {
            let _off = crate::span("trace.cold");
            let _z = zone("trace.cold.zone", 1);
        }
        start();
        {
            let _s = crate::span("trace.hot");
            let _z = zone("trace.hot.zone", 42);
        }
        let scope = crate::Scope::current();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _scope = scope.enter();
                let _z = zone("trace.worker.zone", 7);
            });
            // A thread outside the scope records into its own trace.
            s.spawn(|| {
                start();
                let _z = zone("trace.other.zone", 8);
            });
        });
        let trace = stop();
        let names: Vec<&str> = trace.events.iter().map(|e| e.name).collect();
        assert!(!names.contains(&"trace.cold"), "{names:?}");
        assert!(names.contains(&"trace.hot"), "{names:?}");
        assert!(names.contains(&"trace.hot.zone"), "{names:?}");
        assert!(names.contains(&"trace.worker.zone"), "{names:?}");
        assert!(!names.contains(&"trace.other.zone"), "{names:?}");
        let worker = trace.events.iter().find(|e| e.name == "trace.worker.zone").unwrap();
        let main = trace.events.iter().find(|e| e.name == "trace.hot").unwrap();
        assert_ne!(worker.tid, main.tid, "worker events carry their own tid");
        assert_eq!(worker.id, Some(7));
        // Nothing records after stop().
        {
            let _z = zone("trace.after", 0);
        }
        assert!(stop().events.is_empty());
    }

    #[test]
    fn chrome_export_is_valid_json_with_thread_metadata() {
        let trace = Trace {
            events: vec![
                TraceEvent { name: "outer", tid: 1, ts_ns: 1000, dur_ns: 9000, id: None },
                TraceEvent { name: "inner", tid: 1, ts_ns: 2000, dur_ns: 3000, id: Some(5) },
                TraceEvent { name: "w", tid: 2, ts_ns: 1500, dur_ns: 100, id: None },
            ],
        };
        let text = trace.to_chrome_json();
        let root = json::parse(&text).unwrap();
        let events = root.get("traceEvents").unwrap();
        let arr = match events {
            json::Json::Arr(items) => items,
            other => panic!("traceEvents is not an array: {other:?}"),
        };
        // 2 thread-name metadata events + 3 complete events.
        assert_eq!(arr.len(), 5);
        let meta: Vec<&json::Json> =
            arr.iter().filter(|e| e.get("ph").and_then(json::Json::as_str) == Some("M")).collect();
        assert_eq!(meta.len(), 2);
        assert_eq!(
            meta[0].get("args").unwrap().get("name").and_then(json::Json::as_str),
            Some("main")
        );
        let inner = arr
            .iter()
            .find(|e| e.get("name").and_then(json::Json::as_str) == Some("inner"))
            .unwrap();
        assert_eq!(inner.get("ts").unwrap().as_f64(), Some(2.0));
        assert_eq!(inner.get("dur").unwrap().as_f64(), Some(3.0));
        assert_eq!(inner.get("args").unwrap().get("id").unwrap().as_u64(), Some(5));
    }
}
