//! The batch engine: answers a [`QueryBatch`] on the calling thread and
//! reports answers in batch order with serving statistics.
//!
//! There is one dispatch path, traced or not: the batch is sorted by
//! `(t, k, s)` and each same-`(t, k)` run is one
//! [`Reachability::query_group`] call, so per-target work is paid once per
//! run. A live recorder adds one `engine.group` span per run, nested under
//! the caller's trace; it never changes which kernel answers. Concurrency
//! comes from the callers: the server's connection handlers each run their
//! own requests, and the backend is shared between them.

use crate::backend::{Reachability, UpdateError, UpdateOutcome};
use crate::batch::{Query, QueryBatch};
use crate::casestats::CaseTally;
use crate::histogram::LatencyHistogram;
use kreach_core::dynamic::UpdateStats;
use kreach_graph::{EdgeUpdate, VertexId};
use kreach_obs::observe::{ProbeMark, CLASSES, CLASS_LABELS, RESOLUTIONS, RESOLUTION_LABELS};
use kreach_obs::{FlightRecorder, Recorder, WindowStats};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Largest vertex set a mutation batch may grow the graph to. Vertex
    /// growth allocates per-vertex adjacency state, so one hostile update
    /// line (`+ 0 4294967295`) would otherwise commit gigabytes before the
    /// backend could object; updates naming a vertex at or past this limit
    /// are rejected with [`UpdateError::VertexLimitExceeded`] before
    /// anything is applied.
    pub max_vertices: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_vertices: 1 << 24,
        }
    }
}

/// Reusable per-thread buffers for answering a batch. After the first few
/// batches on a thread they reach their high-water size, so a warmed batch
/// allocates nothing (asserted by the counting-allocator integration test).
#[derive(Default)]
struct Scratch {
    /// Batch indices of the queries, sorted by `(t, k, s)` for target
    /// grouping.
    order: Vec<u32>,
    /// Sources of the target group currently being dispatched.
    group_sources: Vec<VertexId>,
    /// Answers of the target group currently being dispatched.
    group_answers: Vec<bool>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// A batch run failed before any query executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A query referenced a vertex outside the backend graph.
    VertexOutOfRange {
        /// Index of the offending query within the batch.
        query_index: usize,
        /// The offending vertex id.
        vertex: u32,
        /// Vertex count of the served graph.
        n: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::VertexOutOfRange {
                query_index,
                vertex,
                n,
            } => write!(
                f,
                "query #{query_index} references vertex {vertex}, but the graph has {n} vertices"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Serving statistics for one batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Backend that answered the batch.
    pub backend: &'static str,
    /// Queries answered.
    pub queries: usize,
    /// Wall-clock time for the whole batch, in seconds.
    pub elapsed_secs: f64,
    /// Throughput in queries per second.
    pub queries_per_sec: f64,
    /// Median per-query latency in microseconds (2×-accurate histogram).
    pub p50_micros: f64,
    /// 99th-percentile per-query latency in microseconds.
    pub p99_micros: f64,
    /// Mean per-query latency in microseconds.
    pub mean_micros: f64,
    /// Served queries by Algorithm-2 class, index-aligned with
    /// [`CLASS_LABELS`] — the run's live Table-8 distribution. Sums to
    /// `queries`.
    pub case_counts: [u64; CLASSES],
    /// Served queries by resolution (dense bitset, sparse gallop, BFS,
    /// other), index-aligned with [`RESOLUTION_LABELS`].
    pub resolution_counts: [u64; RESOLUTIONS],
}

/// Renders parallel label/count arrays as one JSON object, e.g.
/// `{"case1":12,"case4":3}`.
fn labeled_counts_json(labels: &[&str], counts: &[u64]) -> String {
    let fields: Vec<String> = labels
        .iter()
        .zip(counts.iter())
        .map(|(label, count)| format!("\"{label}\":{count}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

impl EngineStats {
    /// The stats as a single JSON object (hand-rolled; no serializer in the
    /// hermetic build).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"backend\":\"{}\",\"queries\":{},",
                "\"elapsed_secs\":{:.6},\"queries_per_sec\":{:.1},",
                "\"p50_micros\":{:.3},\"p99_micros\":{:.3},\"mean_micros\":{:.3},",
                "\"cases\":{},\"resolutions\":{}}}"
            ),
            self.backend,
            self.queries,
            self.elapsed_secs,
            self.queries_per_sec,
            self.p50_micros,
            self.p99_micros,
            self.mean_micros,
            labeled_counts_json(&CLASS_LABELS, &self.case_counts),
            labeled_counts_json(&RESOLUTION_LABELS, &self.resolution_counts),
        )
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} · {} queries in {:.3}s ({:.0} q/s) · p50 {:.1}µs p99 {:.1}µs",
            self.backend,
            self.queries,
            self.elapsed_secs,
            self.queries_per_sec,
            self.p50_micros,
            self.p99_micros,
        )?;
        // The live Table-8 distribution, non-empty classes only.
        let cases: Vec<String> = CLASS_LABELS
            .iter()
            .zip(self.case_counts.iter())
            .filter(|(_, &n)| n > 0)
            .map(|(label, n)| format!("{label}={n}"))
            .collect();
        if !cases.is_empty() {
            write!(f, " · {}", cases.join(" "))?;
        }
        Ok(())
    }
}

/// A finished batch: answers in batch order plus the run's statistics.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One answer per query, in the batch's order.
    pub answers: Vec<bool>,
    /// Serving statistics for the run.
    pub stats: EngineStats,
    /// Per-case counts, latency histograms, and resolution counters for
    /// this run (the counts also appear in [`EngineStats::case_counts`];
    /// the tally adds the per-case latency distributions).
    pub tally: CaseTally,
}

/// A point-in-time snapshot of the engine's serving state, independent of
/// any single batch run — what a live `/stats` endpoint reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineInfo {
    /// Backend name.
    pub backend: &'static str,
    /// Vertex count of the served graph (may grow under mutations).
    pub vertex_count: usize,
    /// The backend's preferred hop bound.
    pub default_k: u32,
    /// Current mutation epoch.
    pub epoch: u64,
    /// Queries served across the engine's lifetime (sum of
    /// [`EngineInfo::case_counts`]).
    pub served_queries: u64,
    /// Lifetime served queries by Algorithm-2 class, index-aligned with
    /// [`CLASS_LABELS`].
    pub case_counts: [u64; CLASSES],
    /// Lifetime served queries by resolution, index-aligned with
    /// [`RESOLUTION_LABELS`].
    pub resolution_counts: [u64; RESOLUTIONS],
    /// Lifetime dense bitset words probed by served queries.
    pub dense_probes: u64,
    /// Lifetime sparse galloping intersections run by served queries.
    pub sparse_gallops: u64,
    /// Lifetime queries answered through the target-grouped batched
    /// kernel (each also counted in [`EngineInfo::case_counts`]).
    pub batched_queries: u64,
    /// Target groups dispatched through the batched kernel.
    pub batched_groups: u64,
    /// Bytes held by the backend's query acceleration (dense bitset rows
    /// plus position-space adjacency tables); `0` for backends without one.
    pub accel_bytes: usize,
    /// Cover rows the backend's index stores in dense (bitset) form; `0`
    /// for backends without one.
    pub accel_dense_rows: usize,
    /// Lifetime update-path counters accumulated over every mutation batch
    /// applied through the engine (rows patched/coalesced, cover repairs by
    /// arm, rebuild triggers, and the nanoseconds each arm spent).
    pub update_stats: UpdateStats,
}

/// A durable destination for applied mutation batches — the seam between
/// the engine and the write-ahead log in `kreach-store`.
///
/// [`BatchEngine::apply_updates`] calls [`DurabilitySink::append`] with the
/// batch and the epoch it produced *before* returning success, and fails the
/// update with [`UpdateError::Durability`] if the sink errors. An
/// implementation must not return until the record is actually durable
/// (written **and** fsynced), because a success return is what lets the
/// server acknowledge `POST /update` — success must imply the update
/// survives `kill -9`.
pub trait DurabilitySink: Send + Sync {
    /// Persists one applied mutation batch under the epoch it produced.
    fn append(&self, epoch: u64, updates: &[EdgeUpdate]) -> std::io::Result<()>;
}

/// Why and since when the engine is refusing writes (serving reads only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedInfo {
    /// The durability failure that triggered degraded mode, rendered.
    pub cause: String,
    /// Engine epoch when degraded mode was entered — the last epoch whose
    /// updates are known durable.
    pub since_epoch: u64,
    /// Failed recovery probes since entering ([`BatchEngine::probe_durability`]).
    pub probes: u64,
}

/// The batch query engine.
///
/// [`BatchEngine::run`] answers a batch on the calling thread against the
/// shared backend; any number of threads may call it at once on one
/// engine.
pub struct BatchEngine {
    backend: Arc<dyn Reachability>,
    max_vertices: usize,
    /// Mutation epoch: one bump per applied update batch. It stamps WAL
    /// records, `/healthz` and update echoes, and survives restarts through
    /// [`BatchEngine::restore_epoch`].
    epoch: AtomicU64,
    /// Tracing handle for batch, group and update spans; the disabled
    /// recorder in the common untraced case.
    recorder: Recorder,
    /// Lifetime per-case totals across every served batch.
    totals: Mutex<CaseTally>,
    /// Lifetime update-path totals across every applied mutation batch.
    update_totals: Mutex<UpdateStats>,
    /// Serializes [`BatchEngine::apply_updates`] end to end so the epoch
    /// sequence, the backend apply order, and the write-ahead-log append
    /// order always agree (concurrent updates racing between "backend
    /// applied" and "record appended" would otherwise let the log disagree
    /// with the in-memory apply order and replay to a different state).
    update_lock: Mutex<()>,
    /// Write-ahead destination for applied batches; `None` serves without
    /// durability (the default).
    durability: Mutex<Option<Arc<dyn DurabilitySink>>>,
    /// Rolling windowed telemetry fed once per served batch; `None` (the
    /// default) skips the feed entirely.
    windows: Mutex<Option<Arc<WindowStats>>>,
    /// Flight recorder for structured engine events (epoch bumps); `None`
    /// (the default) records nothing.
    events: Mutex<Option<Arc<FlightRecorder>>>,
    /// Fast fence for the update path: when set, the durability sink has
    /// failed and [`BatchEngine::apply_updates`] refuses writes until a
    /// [`BatchEngine::probe_durability`] proves the sink healthy again.
    degraded_flag: AtomicBool,
    /// Cause, entry epoch and probe count while degraded; `None` otherwise.
    degraded: Mutex<Option<DegradedInfo>>,
}

impl BatchEngine {
    /// Builds an engine over `backend` with the given configuration.
    pub fn new(backend: Arc<dyn Reachability>, config: EngineConfig) -> Self {
        Self::with_recorder(backend, config, Recorder::disabled())
    }

    /// Like [`BatchEngine::new`], with a tracing recorder: every batch opens
    /// an `engine.batch` span and every same-`(t, k)` run in it an
    /// `engine.group` span (nesting under the submitting thread's trace when
    /// one is active). Tracing never changes the dispatch: traced and
    /// untraced engines run the same grouped kernel. The recorder stays out
    /// of [`EngineConfig`] so the config remains a plain comparable value.
    pub fn with_recorder(
        backend: Arc<dyn Reachability>,
        config: EngineConfig,
        recorder: Recorder,
    ) -> Self {
        BatchEngine {
            backend,
            max_vertices: config.max_vertices.max(1),
            epoch: AtomicU64::new(0),
            recorder,
            totals: Mutex::new(CaseTally::new()),
            update_totals: Mutex::new(UpdateStats::default()),
            update_lock: Mutex::new(()),
            durability: Mutex::new(None),
            windows: Mutex::new(None),
            events: Mutex::new(None),
            degraded_flag: AtomicBool::new(false),
            degraded: Mutex::new(None),
        }
    }

    /// Builds an engine with default configuration.
    pub fn with_defaults(backend: Arc<dyn Reachability>) -> Self {
        Self::new(backend, EngineConfig::default())
    }

    /// The served backend.
    pub fn backend(&self) -> &Arc<dyn Reachability> {
        &self.backend
    }

    /// The backend's preferred hop bound (for building batches from plain
    /// `(s, t)` pairs).
    pub fn default_k(&self) -> u32 {
        self.backend.default_k()
    }

    /// The engine's tracing recorder (disabled unless the engine was built
    /// with [`BatchEngine::with_recorder`]).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Snapshot of the lifetime per-case totals — counts, per-case latency
    /// histograms, resolution counters, probe totals — for `/metrics`.
    pub fn case_tally(&self) -> CaseTally {
        self.totals.lock().expect("case totals poisoned").clone()
    }

    /// Snapshot of the lifetime update-path counters accumulated by
    /// [`BatchEngine::apply_updates`].
    pub fn update_totals(&self) -> UpdateStats {
        *self.update_totals.lock().expect("update totals poisoned")
    }

    /// The current mutation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Installs the durable destination every applied mutation batch is
    /// appended to (fsync-before-ack; see [`DurabilitySink`]). Replaces any
    /// previously installed sink.
    pub fn set_durability(&self, sink: Arc<dyn DurabilitySink>) {
        *self.durability.lock().expect("durability sink poisoned") = Some(sink);
    }

    /// Installs a rolling-window sink: after every served batch the engine
    /// feeds it that batch's per-case counts (the per-request latencies come
    /// from the caller — the server — which owns end-to-end timing).
    /// Replaces any previously installed sink.
    pub fn set_windows(&self, windows: Arc<WindowStats>) {
        *self.windows.lock().expect("window sink poisoned") = Some(windows);
    }

    /// Installs a flight recorder: epoch bumps are logged as structured
    /// events. Replaces any previously installed recorder.
    pub fn set_events(&self, events: Arc<FlightRecorder>) {
        *self.events.lock().expect("event sink poisoned") = Some(events);
    }

    /// Records one flight event when a recorder is installed (the untraced
    /// common case is a mutex lock on a batch-granularity path, never per
    /// query).
    fn flight_event(&self, kind: &'static str, detail: String) {
        let events = self.events.lock().expect("event sink poisoned");
        if let Some(rec) = events.as_ref() {
            rec.record(kind, detail);
        }
    }

    /// Re-establishes a restored mutation epoch — the crash-recovery path:
    /// after the checkpoint is loaded and the write-ahead log replayed, the
    /// engine resumes at the exact pre-crash epoch instead of restarting
    /// from zero, so acked epochs never appear to regress across a restart.
    pub fn restore_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
    }

    /// Snapshot of the engine's cumulative serving state (backend, epoch,
    /// per-case totals) — run-independent, for live `/stats`-style
    /// reporting by a network front end.
    pub fn info(&self) -> EngineInfo {
        let totals = self.totals.lock().expect("case totals poisoned");
        EngineInfo {
            backend: self.backend.name(),
            vertex_count: self.backend.vertex_count(),
            default_k: self.backend.default_k(),
            epoch: self.epoch(),
            served_queries: totals.total(),
            case_counts: *totals.counts(),
            resolution_counts: *totals.resolutions(),
            dense_probes: totals.dense_probes(),
            sparse_gallops: totals.sparse_gallops(),
            batched_queries: totals.batched_queries(),
            batched_groups: totals.batched_groups(),
            accel_bytes: self.backend.accel_bytes(),
            accel_dense_rows: self.backend.dense_rows(),
            update_stats: self.update_totals(),
        }
    }

    /// Whether the engine is in read-only degraded mode (its durability
    /// sink failed and has not yet been proven healthy again). A relaxed
    /// atomic load — safe to poll from request handlers.
    pub fn is_degraded(&self) -> bool {
        self.degraded_flag.load(Ordering::Relaxed)
    }

    /// Cause, entry epoch and failed-probe count while degraded; `None`
    /// when the engine is read-write.
    pub fn degraded(&self) -> Option<DegradedInfo> {
        self.degraded
            .lock()
            .expect("degraded state poisoned")
            .clone()
    }

    /// Blocks the update path for the lifetime of the returned guard — no
    /// batch can append to the WAL or bump the epoch while it is held. The
    /// checkpointer holds this across the WAL rotation + epoch read so a
    /// concurrent batch cannot log a record the rotation would orphan.
    pub fn quiesce_updates(&self) -> std::sync::MutexGuard<'_, ()> {
        self.update_lock.lock().expect("update lock poisoned")
    }

    /// Flips into degraded (read-only) mode, recording `cause`. Idempotent:
    /// repeated failures while already degraded keep the first cause.
    fn enter_degraded(&self, cause: String) {
        let mut slot = self.degraded.lock().expect("degraded state poisoned");
        if slot.is_none() {
            let since_epoch = self.epoch();
            *slot = Some(DegradedInfo {
                cause: cause.clone(),
                since_epoch,
                probes: 0,
            });
            self.degraded_flag.store(true, Ordering::Relaxed);
            drop(slot);
            self.flight_event("degraded", format!("epoch={since_epoch} cause={cause}"));
        }
    }

    /// Attempts to leave degraded mode by proving the durability sink
    /// healthy: appends an empty record at the current epoch (empty records
    /// replay as no-ops, so a successful probe costs one durable fsync and
    /// changes nothing). Returns `Ok(true)` when the engine transitioned
    /// back to read-write, `Ok(false)` when it was not degraded, and
    /// [`UpdateError::Durability`] — staying degraded, probe counted — when
    /// the sink is still failing.
    pub fn probe_durability(&self) -> Result<bool, UpdateError> {
        let _serialized = self.update_lock.lock().expect("update lock poisoned");
        if !self.degraded_flag.load(Ordering::Relaxed) {
            return Ok(false);
        }
        let sink = self
            .durability
            .lock()
            .expect("durability sink poisoned")
            .clone();
        if let Some(sink) = sink {
            if let Err(e) = sink.append(self.epoch(), &[]) {
                let mut slot = self.degraded.lock().expect("degraded state poisoned");
                if let Some(info) = slot.as_mut() {
                    info.probes += 1;
                }
                return Err(UpdateError::Durability {
                    message: e.to_string(),
                });
            }
        }
        let recovered = self
            .degraded
            .lock()
            .expect("degraded state poisoned")
            .take();
        self.degraded_flag.store(false, Ordering::Relaxed);
        if let Some(info) = recovered {
            self.flight_event(
                "recovered",
                format!(
                    "epoch={} probes={} cause={}",
                    self.epoch(),
                    info.probes,
                    info.cause
                ),
            );
        }
        Ok(true)
    }

    /// Decides — without mutating anything — whether `updates` will change
    /// the graph, simulating edge presence over [`Reachability::has_edge`]
    /// with an in-batch overlay (later updates see earlier ones). `None`
    /// when the backend cannot answer presence queries; those take the
    /// legacy append-after-apply path. The simulation must agree exactly
    /// with the backend's own no-op semantics: an insert changes the graph
    /// iff `u != v` and the edge is absent (out-of-range endpoints grow the
    /// vertex set, so they are just "absent"), a remove iff it is present.
    fn batch_effectiveness(&self, updates: &[EdgeUpdate]) -> Option<bool> {
        let mut overlay: std::collections::HashMap<(u32, u32), bool> =
            std::collections::HashMap::new();
        let mut effective = false;
        for update in updates {
            let (u, v) = update.endpoints();
            let present = match overlay.get(&(u.0, v.0)) {
                Some(&p) => p,
                None => self.backend.has_edge(u, v)?,
            };
            let changes = if update.is_insert() {
                u != v && !present
            } else {
                present
            };
            if changes {
                effective = true;
                overlay.insert((u.0, v.0), update.is_insert());
            }
        }
        Some(effective)
    }

    /// Applies a batch of edge mutations through the backend and, if any of
    /// them changed the graph, bumps the mutation epoch.
    ///
    /// **Ack order.** With a durability sink installed and a backend that
    /// answers [`Reachability::has_edge`], the batch is appended to the log
    /// (fsync) *before* it is applied in memory: a durability failure
    /// therefore leaves the served state exactly as it was — the failed,
    /// unacknowledged batch is never visible to queries — and flips the
    /// engine into read-only degraded mode until
    /// [`BatchEngine::probe_durability`] proves the sink healthy. Backends
    /// without presence queries keep the legacy apply-then-append order
    /// (their no-op structure is unknowable up front).
    ///
    /// Errors with [`UpdateError::Unsupported`] when the backend serves an
    /// immutable index (every backend except the dynamic one), with
    /// [`UpdateError::VertexLimitExceeded`] — before anything is applied —
    /// when an update names a vertex at or past
    /// [`EngineConfig::max_vertices`] (vertex growth allocates per-vertex
    /// state, so an absurd id must not reach the storage layer), and with
    /// [`UpdateError::Durability`] when the engine is degraded or the sink
    /// fails.
    pub fn apply_updates(&self, updates: &[EdgeUpdate]) -> Result<UpdateOutcome, UpdateError> {
        // One update batch at a time: the backend's write lock already
        // serializes the applies, but the epoch bump and the durability
        // append must stay in the same order as the applies or a replayed
        // log could reconstruct a different state.
        let _serialized = self.update_lock.lock().expect("update lock poisoned");
        if self.degraded_flag.load(Ordering::Relaxed) {
            let cause = self
                .degraded
                .lock()
                .expect("degraded state poisoned")
                .as_ref()
                .map(|d| d.cause.clone())
                .unwrap_or_default();
            return Err(UpdateError::Durability {
                message: format!("engine is degraded (read-only) after a storage fault: {cause}"),
            });
        }
        // Edges among already-existing vertices are always legitimate, so
        // the guard only rejects *growth* past the limit.
        let limit = self.max_vertices.max(self.backend.vertex_count());
        for update in updates {
            // Only inserts grow the vertex set; a remove naming an absurd id
            // is an ordinary absent-edge no-op and must stay one.
            if !update.is_insert() {
                continue;
            }
            let (u, v) = update.endpoints();
            if u.index().max(v.index()) >= limit {
                return Err(UpdateError::VertexLimitExceeded {
                    vertex: u.0.max(v.0),
                    limit,
                });
            }
        }
        let mut span = self.recorder.span("engine.update");
        let sink = self
            .durability
            .lock()
            .expect("durability sink poisoned")
            .clone();
        let effectiveness = if sink.is_some() {
            self.batch_effectiveness(updates)
        } else {
            // No sink: ordering is moot, skip the presence scan.
            None
        };
        if let (Some(sink), Some(true)) = (sink.as_ref(), effectiveness) {
            // Log-before-apply: the batch will bump the epoch to exactly
            // `epoch + 1` (one bump per applied batch), so its record can be
            // written — and fsynced — under that epoch before memory
            // changes. If the disk says no, nothing was applied: the failed
            // batch is invisible, the ack never happens, and the engine
            // fences itself read-only.
            let next_epoch = self.epoch() + 1;
            if let Err(e) = sink.append(next_epoch, updates) {
                self.enter_degraded(e.to_string());
                return Err(UpdateError::Durability {
                    message: e.to_string(),
                });
            }
        }
        let mut outcome = self.backend.apply_updates(updates)?;
        if let Some(decided) = effectiveness {
            // The pre-filter must agree with what the backend actually did:
            // a miss in either direction is a logged-but-unapplied or
            // applied-but-unlogged batch.
            debug_assert_eq!(
                decided,
                outcome.stats.applied() > 0,
                "batch_effectiveness disagreed with the backend apply"
            );
        }
        self.update_totals
            .lock()
            .expect("update totals poisoned")
            .absorb(&outcome.stats);
        if outcome.stats.applied() > 0 {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
        outcome.epoch = self.epoch();
        if outcome.stats.applied() > 0 {
            self.flight_event(
                "epoch",
                format!(
                    "epoch={} applied={} noops={} rows_patched={} rebuilds={}",
                    outcome.epoch,
                    outcome.stats.applied(),
                    outcome.stats.noops,
                    outcome.stats.rows_patched,
                    outcome.stats.full_rebuilds,
                ),
            );
        }
        if outcome.stats.applied() > 0 && effectiveness.is_none() {
            // Legacy order for backends without presence queries: the batch
            // is already applied, so a sink failure here cannot be unwound —
            // it surfaces as an un-acked (and possibly lost-on-restart)
            // update, and the engine fences itself. Fsync-before-ack still
            // holds: the server acknowledges off this Result. No-op batches
            // are not logged (they change nothing; replay does not need
            // them).
            if let Some(sink) = sink.as_ref() {
                if let Err(e) = sink.append(outcome.epoch, updates) {
                    self.enter_degraded(e.to_string());
                    return Err(UpdateError::Durability {
                        message: e.to_string(),
                    });
                }
            }
        }
        if span.is_recording() {
            span.note(format!(
                "applied={} noops={} rows_patched={} rebuilds={} epoch={}",
                outcome.stats.applied(),
                outcome.stats.noops,
                outcome.stats.rows_patched,
                outcome.stats.full_rebuilds,
                outcome.epoch,
            ));
        }
        Ok(outcome)
    }

    /// Executes a batch on the calling thread, returning answers in batch
    /// order.
    ///
    /// Answers are deterministic: for a fixed backend and batch, the answer
    /// vector is identical traced or not, and whichever threads call.
    ///
    /// # Panics
    /// Propagates a panic of the backend. The batch then has no answers,
    /// and the engine stays usable for the next one.
    pub fn run(&self, batch: &QueryBatch) -> Result<BatchOutcome, EngineError> {
        let mut answers = Vec::new();
        let (stats, tally) = self.run_into(batch, &mut answers)?;
        Ok(BatchOutcome {
            answers,
            stats,
            tally,
        })
    }

    /// Like [`BatchEngine::run`], but writes the answers into a
    /// caller-supplied buffer instead of allocating one — the allocation-free
    /// serving entry point. The buffer is cleared, resized to the batch
    /// length, and filled in batch order; a caller that recycles it across
    /// batches (the server does, per handler thread) pays zero heap
    /// allocations for answer storage once the buffer has reached its
    /// high-water size.
    pub fn run_into(
        &self,
        batch: &QueryBatch,
        answers: &mut Vec<bool>,
    ) -> Result<(EngineStats, CaseTally), EngineError> {
        let queries = batch.queries();
        let n = self.backend.vertex_count();
        for (i, q) in queries.iter().enumerate() {
            let bad = if q.s.index() >= n {
                Some(q.s.0)
            } else if q.t.index() >= n {
                Some(q.t.0)
            } else {
                None
            };
            if let Some(vertex) = bad {
                return Err(EngineError::VertexOutOfRange {
                    query_index: i,
                    vertex,
                    n,
                });
            }
        }

        let started = Instant::now();
        // The batch span nests under the caller's active trace (a server
        // request) when one exists, and the group spans nest under it.
        let mut span = self.recorder.span("engine.batch");
        answers.clear();
        answers.resize(queries.len(), false);
        let tally =
            SCRATCH.with(|cell| self.answer_groups(queries, answers, &mut cell.borrow_mut()));
        if span.is_recording() {
            span.note(format!(
                "backend={} queries={}",
                self.backend.name(),
                queries.len()
            ));
        }
        drop(span);
        self.totals
            .lock()
            .expect("case totals poisoned")
            .merge(&tally);

        let elapsed_secs = started.elapsed().as_secs_f64();
        {
            // Feed this batch's deltas (not lifetime totals — the windows
            // difference per second, so double-feeding totals would
            // quadratically inflate the rolling rates).
            let windows = self.windows.lock().expect("window sink poisoned");
            if let Some(w) = windows.as_ref() {
                tally.feed_window(w);
            }
        }
        let mut latencies = LatencyHistogram::new();
        for hist in tally.histograms() {
            latencies.merge(hist);
        }
        let stats = EngineStats {
            backend: self.backend.name(),
            queries: queries.len(),
            elapsed_secs,
            queries_per_sec: if elapsed_secs > 0.0 {
                queries.len() as f64 / elapsed_secs
            } else {
                0.0
            },
            p50_micros: latencies.p50_micros(),
            p99_micros: latencies.p99_micros(),
            mean_micros: latencies.mean_nanos() / 1e3,
            case_counts: *tally.counts(),
            resolution_counts: *tally.resolutions(),
        };
        Ok((stats, tally))
    }

    /// Answers `queries` into `answers` (already sized to match) and returns
    /// the batch's per-case tally.
    ///
    /// The queries are sorted by `(t, k, s)` and each same-`(t, k)` run, a
    /// one-query run included, is answered with one
    /// [`Reachability::query_group`] call, so per-target work (candidate
    /// translation, Case-4 scratch bitsets, lock acquisition, shared-row
    /// verdicts) is paid once per run instead of once per query.
    ///
    /// Each run is tallied from the one observation its call produced: its
    /// members by the Algorithm-2 case the kernel noted for each source
    /// (members with no noted case under the run's resolution, BFS fallback
    /// or unknown), every member at the run's mean latency, and the run's
    /// probe totals once. The class counts therefore sum to the served
    /// query count. Only runs of two or more count as batched
    /// (`engine.grouped_share`).
    fn answer_groups(
        &self,
        queries: &[Query],
        answers: &mut [bool],
        scratch: &mut Scratch,
    ) -> CaseTally {
        let mut tally = CaseTally::new();
        let count = u32::try_from(queries.len()).expect("a batch holds at most u32::MAX queries");
        scratch.order.clear();
        scratch.order.extend(0..count);
        // Sort by (t, k, s): groups become contiguous and duplicate sources
        // within a group sit next to each other for the memoized kernels.
        scratch.order.sort_unstable_by_key(|&i| {
            let q = &queries[i as usize];
            (q.t.0, q.k, q.s.0)
        });
        for group in scratch.order.chunk_by(|&a, &b| {
            let (a, b) = (&queries[a as usize], &queries[b as usize]);
            (a.t, a.k) == (b.t, b.k)
        }) {
            let Query { t, k, .. } = queries[group[0] as usize];
            scratch.group_sources.clear();
            scratch
                .group_sources
                .extend(group.iter().map(|&i| queries[i as usize].s));
            scratch.group_answers.clear();
            scratch.group_answers.resize(group.len(), false);
            // The span's clock times the group whether or not it records.
            let mut span = self.recorder.span("engine.group");
            let mark = ProbeMark::begin();
            self.backend
                .query_group(&scratch.group_sources, t, k, &mut scratch.group_answers);
            let obs = mark.observe();
            let size = group.len() as u64;
            let mean_nanos = span.elapsed_nanos() / size;
            if size > 1 {
                tally.note_batched_group(size);
            }
            for (&i, &answer) in group.iter().zip(&scratch.group_answers) {
                answers[i as usize] = answer;
            }
            tally.observe(&obs, size, mean_nanos);
            if span.is_recording() {
                let classes = obs.class_counts(size);
                span.note(format!(
                    "t={} k={k} size={size} case1={} case2={} case3={} case4={} resolution={}",
                    t.0,
                    classes[0],
                    classes[1],
                    classes[2],
                    classes[3],
                    obs.resolution.label()
                ));
            }
        }
        tally
    }
}

/// Handle on the background degraded-mode recovery prober; stops and joins
/// on [`DegradedProber::stop`] or drop.
pub struct DegradedProber {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl DegradedProber {
    /// Signals the thread and waits for it to exit.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.join().ok();
        }
    }
}

impl Drop for DegradedProber {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.join().ok();
        }
    }
}

/// Spawns the degraded-mode recovery loop: while the engine is read-write
/// it idles (one relaxed atomic load per tick); once degraded it calls
/// [`BatchEngine::probe_durability`] with capped exponential backoff plus
/// up to 25% jitter between failed probes, starting at `min_delay` and
/// capping at `max_delay`. The first successful probe restores read-write
/// serving automatically — no operator action, no restart.
pub fn spawn_degraded_prober(
    engine: Arc<BatchEngine>,
    min_delay: Duration,
    max_delay: Duration,
) -> DegradedProber {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let min_delay = min_delay.max(Duration::from_millis(10));
    let max_delay = max_delay.max(min_delay);
    let handle = std::thread::Builder::new()
        .name("kreach-degraded-probe".into())
        .spawn(move || {
            // xorshift64 jitter state, seeded off the clock once.
            let mut rng = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos() as u64)
                .unwrap_or(0)
                | 1;
            let mut delay = min_delay;
            loop {
                if stop_flag.load(Ordering::Relaxed) {
                    return;
                }
                if !engine.is_degraded() {
                    delay = min_delay;
                    std::thread::sleep(Duration::from_millis(25));
                    continue;
                }
                match engine.probe_durability() {
                    Ok(_) => delay = min_delay,
                    Err(_) => {
                        // Sleep in short ticks so stop() stays responsive,
                        // then double (capped) with jitter so a fleet over
                        // one sick disk does not probe in lockstep.
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let jitter_nanos = (delay.as_nanos() as u64 / 4).max(1);
                        let wait = delay + Duration::from_nanos(rng % jitter_nanos);
                        let deadline = Instant::now() + wait;
                        while Instant::now() < deadline {
                            if stop_flag.load(Ordering::Relaxed) {
                                return;
                            }
                            std::thread::sleep(Duration::from_millis(25).min(wait));
                        }
                        delay = (delay * 2).min(max_delay);
                    }
                }
            }
        })
        .expect("spawn degraded prober thread");
    DegradedProber {
        stop,
        handle: Some(handle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BfsBackend, KReachBackend};
    use crate::batch::Query;
    use kreach_core::{BuildOptions, KReachIndex};
    use kreach_graph::generators::GeneratorSpec;
    use kreach_graph::traversal::khop_reachable_bfs;
    use kreach_graph::{DiGraph, VertexId};

    fn engine_over(g: &Arc<DiGraph>, k: u32, config: EngineConfig) -> BatchEngine {
        let index = KReachIndex::build(g, k, BuildOptions::default());
        BatchEngine::new(Arc::new(KReachBackend::new(Arc::clone(g), index)), config)
    }

    fn exhaustive_batch(g: &DiGraph, k: u32) -> QueryBatch {
        let mut queries = Vec::new();
        for s in g.vertices() {
            for t in g.vertices() {
                queries.push(Query { s, t, k });
            }
        }
        QueryBatch::new(queries)
    }

    #[test]
    fn answers_match_ground_truth_in_batch_order() {
        let g = Arc::new(GeneratorSpec::ErdosRenyi { n: 60, m: 240 }.generate(5));
        let k = 3;
        let engine = engine_over(&g, k, EngineConfig::default());
        let batch = exhaustive_batch(&g, k);
        let outcome = engine.run(&batch).expect("valid batch");
        assert_eq!(outcome.answers.len(), batch.len());
        for (q, &answer) in batch.queries().iter().zip(outcome.answers.iter()) {
            assert_eq!(
                answer,
                khop_reachable_bfs(&g, q.s, q.t, k),
                "({},{})",
                q.s,
                q.t
            );
        }
        assert_eq!(outcome.stats.queries, batch.len());
        assert!(outcome.stats.queries_per_sec > 0.0);
    }

    #[test]
    fn worker_count_does_not_change_answers() {
        // The server's handler threads are the engine's workers: four of
        // them run batches on one shared engine at once, and each gets the
        // answers one caller alone gets, all equal to BFS.
        let g = Arc::new(
            GeneratorSpec::PowerLaw {
                n: 120,
                m: 500,
                hubs: 3,
            }
            .generate(9),
        );
        let k = 4;
        let batch = exhaustive_batch(&g, k);
        let engine = engine_over(&g, k, EngineConfig::default());
        let alone = engine.run(&batch).unwrap();
        for (q, &answer) in batch.queries().iter().zip(&alone.answers) {
            assert_eq!(answer, khop_reachable_bfs(&g, q.s, q.t, k), "{q:?}");
        }
        std::thread::scope(|scope| {
            let callers: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| engine.run(&batch).unwrap()))
                .collect();
            for caller in callers {
                let outcome = caller.join().expect("caller thread panicked");
                assert_eq!(outcome.answers, alone.answers);
                assert_eq!(outcome.stats.case_counts, alone.stats.case_counts);
            }
        });
        assert_eq!(engine.info().served_queries, 5 * batch.len() as u64);
    }

    #[test]
    fn panicking_backend_fails_the_batch_loudly_and_the_engine_survives() {
        /// A backend that panics on one poisoned pair.
        struct Trap;
        impl Reachability for Trap {
            fn name(&self) -> &'static str {
                "trap"
            }
            fn vertex_count(&self) -> usize {
                8
            }
            fn default_k(&self) -> u32 {
                1
            }
            fn query(&self, s: VertexId, t: VertexId, _k: u32) -> bool {
                assert!(!(s == VertexId(3) && t == VertexId(3)), "trap sprung");
                true
            }
        }
        let engine = BatchEngine::with_defaults(Arc::new(Trap));
        let query = |s, t| Query {
            s: VertexId(s),
            t: VertexId(t),
            k: 1,
        };
        let poisoned = QueryBatch::new(vec![query(0, 1), query(3, 3)]);
        let failed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run(&poisoned)));
        assert!(failed.is_err(), "a panicking backend must fail the batch");
        // The failed batch was not tallied, and the same engine answers a
        // clean batch.
        assert_eq!(engine.info().served_queries, 0);
        let clean = QueryBatch::new(vec![query(0, 1), query(2, 1)]);
        let outcome = engine.run(&clean).unwrap();
        assert_eq!(outcome.answers, vec![true, true]);
        assert_eq!(engine.info().served_queries, 2);
    }

    #[test]
    fn empty_batch_yields_empty_outcome() {
        let g = Arc::new(DiGraph::from_edges(3, [(0, 1)]));
        let engine = BatchEngine::with_defaults(Arc::new(BfsBackend::new(g, 2)));
        let outcome = engine.run(&QueryBatch::default()).unwrap();
        assert!(outcome.answers.is_empty());
        assert_eq!(outcome.stats.queries, 0);
        assert_eq!(outcome.stats.p50_micros, 0.0);
    }

    #[test]
    fn out_of_range_queries_are_rejected_up_front() {
        let g = Arc::new(DiGraph::from_edges(3, [(0, 1)]));
        let engine = BatchEngine::with_defaults(Arc::new(BfsBackend::new(g, 2)));
        let batch = QueryBatch::new(vec![
            Query {
                s: VertexId(0),
                t: VertexId(1),
                k: 2,
            },
            Query {
                s: VertexId(0),
                t: VertexId(9),
                k: 2,
            },
        ]);
        let err = engine.run(&batch).unwrap_err();
        assert_eq!(
            err,
            EngineError::VertexOutOfRange {
                query_index: 1,
                vertex: 9,
                n: 3
            }
        );
        assert!(err.to_string().contains("query #1"));
    }

    #[test]
    fn immutable_backend_rejects_updates_through_the_engine() {
        let g = Arc::new(DiGraph::from_edges(3, [(0, 1)]));
        let engine = BatchEngine::with_defaults(Arc::new(BfsBackend::new(g, 2)));
        let err = engine
            .apply_updates(&[EdgeUpdate::Insert(VertexId(1), VertexId(2))])
            .unwrap_err();
        assert!(matches!(
            err,
            crate::backend::UpdateError::Unsupported { .. }
        ));
        // A failed update must not advance the epoch.
        assert_eq!(engine.epoch(), 0);
    }

    #[test]
    fn answers_flip_with_mutations_and_the_epoch_advances() {
        use crate::backend::DynamicKReachBackend;
        use kreach_core::dynamic::DynamicOptions;

        // 0→1 and an isolated vertex 2: (0, 2) is unreachable at k = 2.
        let g = DiGraph::from_edges(3, [(0, 1)]);
        let engine = BatchEngine::new(
            Arc::new(DynamicKReachBackend::new(g, 2, DynamicOptions::default())),
            EngineConfig::default(),
        );
        let probe = QueryBatch::new(vec![
            Query {
                s: VertexId(0),
                t: VertexId(2),
                k: 2,
            };
            64
        ]);
        let before = engine.run(&probe).unwrap();
        assert!(before.answers.iter().all(|&a| !a));

        // Inserting (1, 2) flips the answer: 0→1→2 within 2 hops. The engine
        // must reflect it immediately.
        let outcome = engine
            .apply_updates(&[EdgeUpdate::Insert(VertexId(1), VertexId(2))])
            .expect("dynamic backend applies updates");
        assert_eq!(outcome.stats.inserts, 1);
        assert_eq!(outcome.epoch, 1);
        assert_eq!(engine.epoch(), 1);
        let after = engine.run(&probe).unwrap();
        assert!(
            after.answers.iter().all(|&a| a),
            "post-mutation queries must not answer the stale `false`"
        );

        // Removing the edge flips it back; the epoch advances again.
        engine
            .apply_updates(&[EdgeUpdate::Remove(VertexId(1), VertexId(2))])
            .unwrap();
        assert_eq!(engine.epoch(), 2);
        assert!(engine.run(&probe).unwrap().answers.iter().all(|&a| !a));

        // A no-op batch leaves the epoch alone.
        let noop = engine
            .apply_updates(&[EdgeUpdate::Remove(VertexId(1), VertexId(2))])
            .unwrap();
        assert_eq!(noop.epoch, 2);
        assert_eq!(engine.epoch(), 2);
        assert!(engine.run(&probe).unwrap().answers.iter().all(|&a| !a));
    }

    #[test]
    fn absurd_vertex_growth_is_rejected_before_allocation() {
        use crate::backend::DynamicKReachBackend;
        use crate::backend::UpdateError;
        use kreach_core::dynamic::DynamicOptions;

        let g = DiGraph::from_edges(3, [(0, 1)]);
        let engine = BatchEngine::new(
            Arc::new(DynamicKReachBackend::new(g, 2, DynamicOptions::default())),
            EngineConfig { max_vertices: 1000 },
        );
        // A hostile update line naming u32::MAX must error, not allocate
        // per-vertex state proportional to the id.
        let err = engine
            .apply_updates(&[EdgeUpdate::Insert(VertexId(0), VertexId(u32::MAX))])
            .unwrap_err();
        assert_eq!(
            err,
            UpdateError::VertexLimitExceeded {
                vertex: u32::MAX,
                limit: 1000
            }
        );
        assert!(err.to_string().contains("vertex limit"), "{err}");
        // Nothing was applied: the graph and epoch are untouched.
        assert_eq!(engine.epoch(), 0);
        // A remove naming an absurd id cannot allocate, so it stays an
        // ordinary absent-edge no-op rather than becoming an error.
        let outcome = engine
            .apply_updates(&[EdgeUpdate::Remove(VertexId(0), VertexId(u32::MAX))])
            .expect("out-of-range remove is a no-op");
        assert_eq!(outcome.stats.noops, 1);
        // Growth below the limit still works.
        let outcome = engine
            .apply_updates(&[EdgeUpdate::Insert(VertexId(0), VertexId(999))])
            .expect("in-limit growth applies");
        assert_eq!(outcome.vertex_count, 1000);
    }

    #[test]
    fn engine_info_snapshots_serving_state() {
        let g = Arc::new(DiGraph::from_edges(4, [(0, 1), (1, 2)]));
        let engine = engine_over(&g, 2, EngineConfig::default());
        let info = engine.info();
        assert_eq!(info.backend, "k-reach");
        assert_eq!(info.vertex_count, 4);
        assert_eq!(info.default_k, 2);
        assert_eq!(info.epoch, 0);
        assert_eq!(info.served_queries, 0);
        engine.run(&exhaustive_batch(&g, 2)).unwrap();
        let info = engine.info();
        assert_eq!(info.served_queries, 16);
    }

    #[test]
    fn case_counts_sum_to_the_query_count_across_batches() {
        let g = Arc::new(GeneratorSpec::ErdosRenyi { n: 40, m: 160 }.generate(11));
        let k = 3;
        let engine = engine_over(&g, k, EngineConfig::default());
        let batch = exhaustive_batch(&g, k);
        let total = batch.len() as u64;

        let first = engine.run(&batch).unwrap();
        assert_eq!(first.stats.case_counts.iter().sum::<u64>(), total);
        assert_eq!(first.stats.resolution_counts.iter().sum::<u64>(), total);
        assert_eq!(first.tally.total(), total);

        // A rerun is tallied afresh: same per-class split, and the
        // `cache_hit` resolution (kept for label stability) stays at 0.
        let second = engine.run(&batch).unwrap();
        assert_eq!(second.stats.case_counts, first.stats.case_counts);
        assert_eq!(second.stats.resolution_counts.iter().sum::<u64>(), total);
        assert_eq!(second.stats.resolution_counts[0], 0, "no cache hits");

        // Lifetime totals accumulate across runs.
        let info = engine.info();
        assert_eq!(info.served_queries, 2 * total);
        assert_eq!(info.case_counts.iter().sum::<u64>(), 2 * total);
        assert!(
            info.dense_probes + info.sparse_gallops > 0,
            "an exhaustive batch must exercise the successor representation"
        );
        assert_eq!(engine.case_tally().total(), 2 * total);

        let json = second.stats.to_json();
        assert!(json.contains("\"cases\":{\"case1\":"), "{json}");
        assert!(json.contains("\"resolutions\":{\"cache_hit\":0,"), "{json}");
        let text = format!("{}", second.stats);
        assert!(text.contains("case"), "{text}");
    }

    /// Fan-in traffic over `g`: every source asks about each of a handful
    /// of hot targets twice (duplicates must survive grouping too), so each
    /// batch holds large same-target runs for the batched kernel.
    fn fan_in_batch(g: &DiGraph, k: u32) -> QueryBatch {
        let mut queries = Vec::new();
        for t in [VertexId(0), VertexId(1), VertexId(17)] {
            for s in g.vertices() {
                queries.push(Query { s, t, k });
                queries.push(Query { s, t, k });
            }
        }
        QueryBatch::new(queries)
    }

    #[test]
    fn traced_engine_records_group_spans_under_one_trace() {
        let g = Arc::new(DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]));
        let index = KReachIndex::build(&g, 2, BuildOptions::default());
        let recorder = Recorder::new(4096);
        let engine = BatchEngine::with_recorder(
            Arc::new(KReachBackend::new(Arc::clone(&g), index)),
            EngineConfig::default(),
            recorder.clone(),
        );
        assert!(engine.recorder().is_enabled());
        let batch = exhaustive_batch(&g, 2);
        let root_id = {
            let root = recorder.trace("request");
            let id = root.trace_id();
            engine.run(&batch).unwrap();
            id
        };
        let spans = recorder.drain();
        assert!(
            spans.iter().any(|s| s.name == "engine.batch"),
            "batch span missing: {spans:?}"
        );
        let group_spans: Vec<_> = spans.iter().filter(|s| s.name == "engine.group").collect();
        // One span per same-(t, k) run: four targets, one k.
        assert_eq!(group_spans.len(), 4, "{group_spans:?}");
        let sizes: usize = group_spans
            .iter()
            .map(|s| {
                let size = s.detail.split(' ').find_map(|f| f.strip_prefix("size="));
                size.expect("group note carries its size")
                    .parse::<usize>()
                    .unwrap()
            })
            .sum();
        assert_eq!(sizes, batch.len());
        // Group spans joined the caller's trace instead of opening roots.
        assert!(spans.iter().all(|s| s.trace_id == root_id), "{spans:?}");
        assert!(
            group_spans
                .iter()
                .all(|s| ["t=", "k=", "case1=", "case4=", "resolution="]
                    .iter()
                    .all(|field| s.detail.contains(field))),
            "{group_spans:?}"
        );

        // Tracing never changes the dispatch: a fan-in batch runs the batched
        // kernel on a traced engine, with answers and case counts identical
        // to an untraced one.
        let g = Arc::new(
            GeneratorSpec::PowerLaw {
                n: 100,
                m: 420,
                hubs: 3,
            }
            .generate(11),
        );
        let fan_in = fan_in_batch(&g, 3);
        let config = EngineConfig::default();
        let traced = BatchEngine::with_recorder(
            Arc::new(KReachBackend::new(
                Arc::clone(&g),
                KReachIndex::build(&g, 3, BuildOptions::default()),
            )),
            config,
            Recorder::new(16),
        )
        .run(&fan_in)
        .unwrap();
        let untraced = engine_over(&g, 3, config).run(&fan_in).unwrap();
        assert_eq!(traced.answers, untraced.answers);
        assert_eq!(traced.stats.case_counts, untraced.stats.case_counts);
        assert!(traced.tally.batched_queries() > 0);
        assert_eq!(
            traced.tally.batched_queries(),
            untraced.tally.batched_queries()
        );
    }

    #[test]
    fn update_totals_accumulate_across_mutation_batches() {
        use crate::backend::DynamicKReachBackend;
        use kreach_core::dynamic::DynamicOptions;

        let g = DiGraph::from_edges(4, [(0, 1), (1, 2)]);
        let engine = BatchEngine::new(
            Arc::new(DynamicKReachBackend::new(g, 2, DynamicOptions::default())),
            EngineConfig::default(),
        );
        assert_eq!(engine.update_totals(), UpdateStats::default());
        engine
            .apply_updates(&[EdgeUpdate::Insert(VertexId(2), VertexId(3))])
            .unwrap();
        engine
            .apply_updates(&[
                EdgeUpdate::Remove(VertexId(2), VertexId(3)),
                EdgeUpdate::Remove(VertexId(2), VertexId(3)),
            ])
            .unwrap();
        let totals = engine.update_totals();
        assert_eq!(totals.inserts, 1);
        assert_eq!(totals.removes, 1);
        assert_eq!(totals.noops, 1);
        assert_eq!(totals.applied(), 2);
        assert_eq!(engine.info().update_stats, totals);
    }

    #[test]
    fn stats_render_as_json_and_text() {
        let g = Arc::new(DiGraph::from_edges(4, [(0, 1), (1, 2)]));
        let engine = engine_over(&g, 2, EngineConfig::default());
        let batch = exhaustive_batch(&g, 2);
        let stats = engine.run(&batch).unwrap().stats;
        let json = stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        for field in ["\"backend\"", "\"queries\":16", "\"resolutions\""] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        let text = format!("{stats}");
        assert!(
            text.contains("16 queries") && text.contains("q/s"),
            "{text}"
        );
    }

    #[test]
    fn grouped_dispatch_matches_per_query_answers_and_is_counted() {
        use crate::backend::DynamicKReachBackend;
        use kreach_core::dynamic::DynamicOptions;

        let g = Arc::new(
            GeneratorSpec::PowerLaw {
                n: 100,
                m: 420,
                hubs: 3,
            }
            .generate(11),
        );
        let k = 3;
        // 600 queries in large same-target runs.
        let batch = fan_in_batch(&g, k);
        // Byte-identical answers to the nested-loop reference, one query at
        // a time, and per-case counts equal to classifying each query:
        // grouping changes dispatch, never results or accounting.
        let index = KReachIndex::build(&g, k, BuildOptions::default());
        let expected: Vec<bool> = batch
            .queries()
            .iter()
            .map(|q| index.query_with_case_naive(g.as_ref(), q.s, q.t).0)
            .collect();
        let case_counts_of = |index: &KReachIndex| {
            let mut counts = [0u64; CLASSES];
            for q in batch.queries() {
                counts[index.classify(q.s, q.t).number() as usize - 1] += 1;
            }
            counts
        };
        let dynamic = Arc::new(DynamicKReachBackend::new(
            (*g).clone(),
            k,
            DynamicOptions::default(),
        ));
        // The maintainer computes its own cover; classify against it.
        let dynamic_cases = dynamic.with_state(|state| case_counts_of(state.index()));
        let runs = [
            (
                engine_over(&g, k, EngineConfig::default()),
                case_counts_of(&index),
            ),
            (BatchEngine::with_defaults(dynamic), dynamic_cases),
        ];
        for (engine, case_counts) in &runs {
            let backend = engine.backend().name();
            let grouped = engine.run(&batch).unwrap();
            assert_eq!(grouped.answers, expected, "{backend}");
            assert!(
                grouped.tally.batched_queries() > 0,
                "{backend}: shared-target traffic must engage the batched kernel"
            );
            assert!(grouped.tally.batched_groups() > 0);
            // Grouped queries are still tallied per class, once each.
            assert_eq!(grouped.tally.total(), batch.len() as u64);
            assert_eq!(&grouped.stats.case_counts, case_counts, "{backend}");
            let info = engine.info();
            assert_eq!(info.batched_queries, grouped.tally.batched_queries());
            assert_eq!(info.batched_groups, grouped.tally.batched_groups());
        }
    }

    #[test]
    fn default_engine_dispatches_fan_in_batches_grouped() {
        let g = Arc::new(
            GeneratorSpec::PowerLaw {
                n: 200,
                m: 900,
                hubs: 4,
            }
            .generate(5),
        );
        let k = 3;
        // 16 targets x 16 sources: one 256-query fan-in batch.
        let targets: Vec<VertexId> = (0..16).map(|t| VertexId(t * 7)).collect();
        let mut queries = Vec::new();
        for &t in &targets {
            for s in 0..16u32 {
                queries.push(Query {
                    s: VertexId(100 + s),
                    t,
                    k,
                });
            }
        }
        let batch = QueryBatch::new(queries);
        assert_eq!(batch.len(), 256);
        let engine = engine_over(&g, k, EngineConfig::default());
        let outcome = engine.run(&batch).unwrap();
        for (q, &answer) in batch.queries().iter().zip(&outcome.answers) {
            assert_eq!(answer, khop_reachable_bfs(&g, q.s, q.t, k), "{q:?}");
        }
        assert!(
            outcome.tally.batched_queries() > 0,
            "default serving must run the target-grouped kernel"
        );
    }

    #[test]
    fn run_into_reuses_the_callers_answer_buffer() {
        let g = Arc::new(GeneratorSpec::ErdosRenyi { n: 40, m: 160 }.generate(7));
        let k = 2;
        let engine = engine_over(&g, k, EngineConfig::default());
        let batch = exhaustive_batch(&g, k);
        let mut answers = Vec::new();
        let (stats, _) = engine.run_into(&batch, &mut answers).unwrap();
        assert_eq!(answers.len(), batch.len());
        assert_eq!(stats.queries, batch.len());
        let baseline = answers.clone();
        let capacity = answers.capacity();
        let ptr = answers.as_ptr();
        let (_, _) = engine.run_into(&batch, &mut answers).unwrap();
        assert_eq!(answers, baseline, "reruns answer identically");
        assert_eq!(
            (answers.as_ptr(), answers.capacity()),
            (ptr, capacity),
            "the warmed buffer is recycled, not reallocated"
        );
        // Shrinking batches reuse the same storage too.
        let small = QueryBatch::new(batch.queries()[..5].to_vec());
        engine.run_into(&small, &mut answers).unwrap();
        assert_eq!(answers.len(), 5);
        assert_eq!(answers.capacity(), capacity);
    }

    #[test]
    fn window_and_event_sinks_see_batches_and_epoch_bumps() {
        use crate::backend::DynamicKReachBackend;
        use kreach_core::dynamic::DynamicOptions;
        use kreach_obs::{FlightRecorder, WindowStats};

        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        let engine = BatchEngine::new(
            Arc::new(DynamicKReachBackend::new(g, 2, DynamicOptions::default())),
            EngineConfig::default(),
        );
        let windows = Arc::new(WindowStats::new());
        let events = Arc::new(FlightRecorder::new(16));
        engine.set_windows(Arc::clone(&windows));
        engine.set_events(Arc::clone(&events));

        let batch = QueryBatch::new(vec![
            Query {
                s: VertexId(0),
                t: VertexId(2),
                k: 2,
            };
            8
        ]);
        engine.run(&batch).unwrap();
        let snap = windows.snapshot(60);
        assert_eq!(snap.queries, 8, "batch tally reached the window");
        assert_eq!(snap.by_case.iter().sum::<u64>(), 8);

        engine
            .apply_updates(&[EdgeUpdate::Remove(VertexId(1), VertexId(2))])
            .unwrap();
        let epoch_event = events
            .events()
            .into_iter()
            .find(|e| e.kind == "epoch")
            .expect("applied batch records an epoch event");
        assert!(
            epoch_event.detail.contains("epoch=1"),
            "{}",
            epoch_event.detail
        );

        // No-op batches bump neither the epoch nor the recorder.
        let before = events.total();
        engine
            .apply_updates(&[EdgeUpdate::Remove(VertexId(1), VertexId(2))])
            .unwrap();
        assert_eq!(events.total(), before, "no-op batches record nothing");
    }
}
