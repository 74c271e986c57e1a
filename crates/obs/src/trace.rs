//! Structured tracing: spans, per-thread ring buffers, and trace trees.
//!
//! The design goal is a hot path that costs one branch when tracing is off
//! and one uncontended mutex acquire per *finished* span when it is on:
//!
//! * A [`Recorder`] is a cheap cloneable handle. [`Recorder::disabled`]
//!   carries no state at all; every call on it is a `None` check.
//! * Each thread that records spans registers one ring buffer with the
//!   recorder the first time it is used there. Finished spans are pushed
//!   into the *current thread's* ring, so the only cross-thread
//!   synchronization is the (rare) global drain and the per-ring mutex,
//!   which is effectively uncontended in steady state.
//! * Trace IDs are drawn from one monotonic atomic; span timestamps are
//!   nanoseconds since the recorder's epoch, so records from different
//!   threads order correctly inside one trace.
//! * Rings are bounded: a thread holds the last `capacity` spans it
//!   recorded, oldest evicted first. Tracing a giant batch keeps the most
//!   recent window instead of growing without bound.
//!
//! A span context (trace ID + depth) lives in thread-local storage while a
//! [`SpanGuard`] is alive, so nested spans chain automatically on one
//! thread. The engine answers a batch on the calling thread, so its spans
//! nest under the caller's request span with plain [`Recorder::span`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span, as stored in a thread ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// Static span name (`server.request`, `engine.group`, ...).
    pub name: &'static str,
    /// Free-form detail attached via [`SpanGuard::note`] (group target,
    /// case counts and resolution, status codes); empty when none was
    /// attached.
    pub detail: String,
    /// Nesting depth inside the trace (root = 0).
    pub depth: u32,
    /// Start time, nanoseconds since the recorder's epoch.
    pub start_nanos: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_nanos: u64,
}

/// A bounded per-thread span ring.
struct ThreadRing {
    spans: Mutex<VecDeque<SpanRecord>>,
}

/// Shared state behind an enabled recorder.
struct Inner {
    epoch: Instant,
    next_trace: AtomicU64,
    capacity: usize,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
}

thread_local! {
    /// This thread's tracing context: the ring registered with the current
    /// recorder (keyed by the recorder's address so two recorders never
    /// share a ring) and the active span stack as `(trace_id, depth)`.
    static CTX: RefCell<ThreadCtx> = const {
        RefCell::new(ThreadCtx { recorder_key: 0, ring: None, stack: Vec::new() })
    };
}

struct ThreadCtx {
    recorder_key: usize,
    ring: Option<Arc<ThreadRing>>,
    stack: Vec<(u64, u32)>,
}

/// A cheap cloneable tracing handle; see the module docs for the design.
#[derive(Clone)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl Recorder {
    /// An enabled recorder keeping up to `capacity_per_thread` finished
    /// spans per recording thread (clamped to at least 16).
    pub fn new(capacity_per_thread: usize) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_trace: AtomicU64::new(1),
                capacity: capacity_per_thread.max(16),
                rings: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The no-op recorder: every span call is one branch, nothing is stored.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The calling thread's innermost active span context as
    /// `(trace_id, depth)`.
    pub fn current(&self) -> Option<(u64, u32)> {
        self.inner.as_ref()?;
        CTX.with(|ctx| ctx.borrow().stack.last().copied())
    }

    /// Opens a root span under a **fresh** trace ID. The returned guard
    /// records the span when dropped; nested [`Recorder::span`] calls on
    /// this thread attach to the new trace while the guard is alive.
    pub fn trace(&self, name: &'static str) -> SpanGuard<'_> {
        let Some(inner) = &self.inner else {
            return SpanGuard::noop();
        };
        let trace_id = inner.next_trace.fetch_add(1, Ordering::Relaxed);
        self.enter(trace_id, 0, name)
    }

    /// Opens a span nested under the calling thread's current trace, or a
    /// fresh root trace when none is active.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        match self.current() {
            Some((trace_id, depth)) => self.enter(trace_id, depth + 1, name),
            None => self.trace(name),
        }
    }

    fn enter(&self, trace_id: u64, depth: u32, name: &'static str) -> SpanGuard<'_> {
        CTX.with(|ctx| ctx.borrow_mut().stack.push((trace_id, depth)));
        SpanGuard {
            recorder: Some(self),
            trace_id,
            depth,
            name,
            detail: String::new(),
            started: Instant::now(),
        }
    }

    /// Pushes a finished span into the calling thread's ring.
    fn record(&self, record: SpanRecord) {
        let Some(inner) = &self.inner else { return };
        let key = Arc::as_ptr(inner) as usize;
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            ctx.stack.pop();
            if ctx.recorder_key != key || ctx.ring.is_none() {
                // First span on this thread for this recorder: register a
                // fresh ring. A stale ring from a previous recorder stays
                // alive only through that recorder's own list.
                let ring = Arc::new(ThreadRing {
                    spans: Mutex::new(VecDeque::with_capacity(inner.capacity.min(1024))),
                });
                inner
                    .rings
                    .lock()
                    .expect("recorder ring list poisoned")
                    .push(Arc::clone(&ring));
                ctx.recorder_key = key;
                ctx.ring = Some(ring);
            }
            let ring = ctx.ring.as_ref().expect("ring registered above");
            let mut spans = ring.spans.lock().expect("span ring poisoned");
            if spans.len() >= inner.capacity {
                spans.pop_front();
            }
            spans.push_back(record);
        });
    }

    /// Nanoseconds since the recorder's epoch.
    fn since_epoch(&self, at: Instant) -> u64 {
        match &self.inner {
            Some(inner) => at.duration_since(inner.epoch).as_nanos() as u64,
            None => 0,
        }
    }

    /// Removes and returns every recorded span, across all threads.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let rings = inner.rings.lock().expect("recorder ring list poisoned");
        let mut all = Vec::new();
        for ring in rings.iter() {
            all.extend(ring.spans.lock().expect("span ring poisoned").drain(..));
        }
        all
    }

    /// Copies (without removing) every retained span belonging to one
    /// trace, sorted by start time — how the slow-query log captures a
    /// request's span timings without disturbing a `--trace` drain.
    pub fn spans_for_trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let rings = inner.rings.lock().expect("recorder ring list poisoned");
        let mut spans: Vec<SpanRecord> = rings
            .iter()
            .flat_map(|ring| {
                ring.spans
                    .lock()
                    .expect("span ring poisoned")
                    .iter()
                    .filter(|s| s.trace_id == trace_id)
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        spans.sort_by_key(|s| (s.start_nanos, s.depth));
        spans
    }
}

/// An open span; records itself into the recorder when dropped.
#[must_use = "a span measures the scope it is alive in"]
pub struct SpanGuard<'a> {
    recorder: Option<&'a Recorder>,
    trace_id: u64,
    depth: u32,
    name: &'static str,
    detail: String,
    started: Instant,
}

impl SpanGuard<'_> {
    fn noop() -> Self {
        SpanGuard {
            recorder: None,
            trace_id: 0,
            depth: 0,
            name: "",
            detail: String::new(),
            started: Instant::now(),
        }
    }

    /// The span's trace ID (0 on a disabled recorder) — the per-request
    /// trace ID the server logs and the slow-query log keys on.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Whether this guard records anything (false on a disabled recorder).
    pub fn is_recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Attaches free-form detail text, replacing any earlier note.
    pub fn note(&mut self, detail: impl Into<String>) {
        if self.recorder.is_some() {
            self.detail = detail.into();
        }
    }

    /// Elapsed time since the span opened.
    pub fn elapsed_nanos(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(recorder) = self.recorder else {
            return;
        };
        let record = SpanRecord {
            trace_id: self.trace_id,
            name: self.name,
            detail: std::mem::take(&mut self.detail),
            depth: self.depth,
            start_nanos: recorder.since_epoch(self.started),
            duration_nanos: self.started.elapsed().as_nanos() as u64,
        };
        recorder.record(record);
    }
}

/// One assembled trace: every retained span sharing a trace ID.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The trace ID.
    pub id: u64,
    /// Spans sorted by `(start_nanos, depth)`; the first is the root when
    /// the root span was retained.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// Groups drained span records into traces, slowest first (by root-span
    /// duration; a trace whose root was evicted sorts by its longest
    /// retained span).
    pub fn group(mut records: Vec<SpanRecord>) -> Vec<Trace> {
        records.sort_by_key(|s| (s.trace_id, s.start_nanos, s.depth));
        let mut traces: Vec<Trace> = Vec::new();
        for record in records {
            match traces.last_mut() {
                Some(trace) if trace.id == record.trace_id => trace.spans.push(record),
                _ => traces.push(Trace {
                    id: record.trace_id,
                    spans: vec![record],
                }),
            }
        }
        traces.sort_by_key(|t| std::cmp::Reverse(t.duration_nanos()));
        traces
    }

    /// The trace's duration: its slowest span (the root, when retained).
    pub fn duration_nanos(&self) -> u64 {
        self.spans
            .iter()
            .map(|s| s.duration_nanos)
            .max()
            .unwrap_or(0)
    }

    /// Renders the trace as an indented span tree, one span per line:
    ///
    /// ```text
    /// trace 17 · 142.3µs
    ///   server.request · 142.3µs · GET /reach status=200
    ///     engine.batch · 124.0µs · backend=k-reach queries=1
    ///       engine.group · 119.0µs · t=921 k=3 size=1 case1=0 case2=0 case3=0 case4=1 resolution=dense_bitset
    /// ```
    pub fn render_tree(&self) -> String {
        let mut out = format!(
            "trace {} · {:.1}µs\n",
            self.id,
            self.duration_nanos() as f64 / 1e3
        );
        for span in &self.spans {
            let indent = "  ".repeat(span.depth as usize + 1);
            out.push_str(&indent);
            out.push_str(span.name);
            out.push_str(&format!(" · {:.1}µs", span.duration_nanos as f64 / 1e3));
            if !span.detail.is_empty() {
                out.push_str(" · ");
                out.push_str(&span.detail);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let recorder = Recorder::disabled();
        assert!(!recorder.is_enabled());
        {
            let mut root = recorder.trace("root");
            assert_eq!(root.trace_id(), 0);
            assert!(!root.is_recording());
            root.note("ignored");
            let _child = recorder.span("child");
        }
        assert!(recorder.drain().is_empty());
        assert!(recorder.current().is_none());
    }

    #[test]
    fn nested_spans_share_a_trace_and_record_depths() {
        let recorder = Recorder::new(64);
        {
            let mut root = recorder.trace("request");
            root.note("GET /reach");
            assert!(root.trace_id() > 0);
            {
                let _mid = recorder.span("engine");
                let _leaf = recorder.span("backend");
            }
        }
        let spans = recorder.drain();
        assert_eq!(spans.len(), 3);
        let ids: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "{ids:?}");
        let mut by_depth: Vec<(&str, u32)> = spans.iter().map(|s| (s.name, s.depth)).collect();
        by_depth.sort();
        assert_eq!(
            by_depth,
            vec![("backend", 2), ("engine", 1), ("request", 0)]
        );
        let request = spans.iter().find(|s| s.name == "request").unwrap();
        assert_eq!(request.detail, "GET /reach");
        assert!(request.duration_nanos >= spans[0].duration_nanos.min(1));
        // Drain empties the rings.
        assert!(recorder.drain().is_empty());
    }

    #[test]
    fn separate_traces_get_distinct_monotonic_ids() {
        let recorder = Recorder::new(64);
        let first = {
            let guard = recorder.trace("a");
            guard.trace_id()
        };
        let second = {
            let guard = recorder.trace("b");
            guard.trace_id()
        };
        assert!(second > first);
        let traces = Trace::group(recorder.drain());
        assert_eq!(traces.len(), 2);
    }

    #[test]
    fn rings_are_bounded_and_keep_the_newest_spans() {
        let recorder = Recorder::new(16); // clamp floor
        for i in 0..100u64 {
            let mut span = recorder.trace("q");
            span.note(format!("i={i}"));
        }
        let spans = recorder.drain();
        assert_eq!(spans.len(), 16);
        assert!(spans.iter().any(|s| s.detail == "i=99"));
        assert!(!spans.iter().any(|s| s.detail == "i=0"));
    }

    #[test]
    fn spans_for_trace_filters_without_draining() {
        let recorder = Recorder::new(64);
        let wanted = {
            let _a = recorder.trace("other");
            drop(_a);
            let root = recorder.trace("slow");
            let id = root.trace_id();
            drop(root);
            id
        };
        let spans = recorder.spans_for_trace(wanted);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "slow");
        // Non-destructive: the full drain still sees both traces.
        assert_eq!(recorder.drain().len(), 2);
    }

    #[test]
    fn traces_group_and_render_slowest_first() {
        let recorder = Recorder::new(64);
        {
            let _fast = recorder.trace("fast");
        }
        {
            let _slow = recorder.trace("slow");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let traces = Trace::group(recorder.drain());
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].spans[0].name, "slow");
        let tree = traces[0].render_tree();
        assert!(
            tree.starts_with(&format!("trace {}", traces[0].id)),
            "{tree}"
        );
        assert!(tree.contains("slow · "), "{tree}");
    }
}
