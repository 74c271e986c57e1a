//! # kreach-obs
//!
//! The observability layer of the k-reach serving system: a hermetic
//! (std-only, dependency-free) crate threaded through every serving layer —
//! graph probes, core query dispatch, the batch engine, the network server,
//! the CLI and the bench bins — so one vocabulary describes a query whether
//! it is observed offline in `BENCH_query.json` or live on `GET /metrics`.
//!
//! ## Pieces
//!
//! * [`trace`] — a lightweight structured-tracing core: [`Recorder`] hands
//!   out monotonic trace IDs and records [`SpanRecord`]s into per-thread
//!   ring buffers (one uncontended mutex acquire per finished span), with a
//!   global drain that groups records back into [`Trace`] trees. The
//!   [`Recorder::disabled`] mode reduces every hot-path call to one branch.
//! * [`observe`] — thread-local side channels the query hot path writes
//!   *into* and the engine reads *out of*: how many queries each
//!   Algorithm-2 case (1–4) answered ([`observe::note_case`]), whether the answer came from a dense
//!   bitset probe or a sparse galloping merge (probe counters bumped by
//!   `kreach-graph`/`kreach-core`), or from the engine's off-bound BFS
//!   fallback. The engine classifies each query into one of
//!   [`observe::CLASSES`] resolution classes from these signals — the live
//!   Table-8 case breakdown.
//! * [`slowlog`] — a bounded ring buffer of requests that exceeded a
//!   configurable latency threshold, each entry carrying its trace's span
//!   timings; served by `GET /stats?slow=1` and the `kreach serve`
//!   shutdown summary.
//! * [`prom`] — Prometheus text exposition rendering (stable `kreach_`
//!   names; log2 histogram buckets; OpenMetrics exemplars) used by the
//!   server's `GET /metrics`.
//! * [`window`] — lock-light sliding 1s/10s/60s windows over qps, latency
//!   quantiles, shed-rate and the per-case mix: a ring of
//!   per-second atomic slots fed by the server and the engine, merged into
//!   [`WindowSnapshot`]s for `/metrics` gauges, the `/stats` `window`
//!   block, and the `--stats-interval` ticker.
//! * [`events`] — the [`FlightRecorder`]: a bounded ring of recent
//!   structured events (sheds, epoch bumps, checkpoints, slow queries)
//!   dumped as JSON-lines on drain, on panic, and via
//!   `POST /debug/flightrec`.
//! * [`durability`] — [`DurabilityStats`]: WAL append/fsync latency,
//!   bytes/records/segments, checkpoint duration/age/size and replay
//!   progress, written by `kreach-store` and rendered by the server.
//!
//! Everything here is compiled in unconditionally but designed to cost
//! almost nothing when idle: counters are thread-local `Cell`s, the
//! disabled recorder is a `None` check, and the slow-query log takes its
//! lock only for requests already slower than the threshold.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durability;
pub mod events;
pub mod observe;
pub mod prom;
pub mod slowlog;
pub mod trace;
pub mod window;

pub use durability::{AtomicHistogram, DurabilityStats};
pub use events::{FlightEvent, FlightRecorder};
pub use observe::{ProbeMark, QueryObservation, Resolution};
pub use slowlog::{SlowQueryEntry, SlowQueryLog};
pub use trace::{Recorder, SpanGuard, SpanRecord, Trace};
pub use window::{WindowSnapshot, WindowStats};
