//! The listener: an acceptor thread, a bounded connection-handler pool,
//! admission control, and graceful drain.
//!
//! ## Life of a connection
//!
//! The acceptor thread owns the [`TcpListener`]. Each accepted connection is
//! checked against the **in-flight budget** ([`ServerConfig::max_inflight`]:
//! connections admitted and not yet finished, queued ones included). Over
//! budget, the acceptor writes a one-line `503 Service Unavailable` and
//! closes — shedding costs one syscall-bounded write and never touches the
//! engine, so overload degrades into fast refusals instead of unbounded
//! queueing. Within budget, the connection is queued to a fixed pool of
//! handler threads.
//!
//! A handler sniffs the first line: an `HTTP/1.x` request line selects the
//! HTTP protocol (keep-alive supported), anything else selects the **line
//! protocol** — each line is one operation in the same grammar as the
//! `kreach update` workload files (`s t [k]`, `+ u v`, `- u v`), answered
//! with one line in the shared response format of
//! [`kreach_datasets::render_answer_line`].
//!
//! ## Graceful drain
//!
//! [`ServerHandle::shutdown`] (or `POST /shutdown`) flips a flag and wakes
//! the acceptor, which stops admitting and drops the queue's sender.
//! Handlers finish every admitted connection — in-flight batches run to
//! completion because [`kreach_engine::BatchEngine::run`] is synchronous —
//! then exit; [`ServerHandle::join`] joins them all and reports the final
//! counters.

use crate::http::{self, Request, RequestError};
use crate::metrics::{MetricsSnapshot, ServerMetrics};
use kreach_datasets::{
    read_update_workload, read_workload, render_answer_line, render_answer_lines,
    render_update_ack, UpdateOp,
};
use kreach_engine::{BatchEngine, Query, QueryBatch, UpdateError};
use kreach_graph::EdgeUpdate;
use kreach_graph::VertexId;
use kreach_obs::observe::{CLASS_LABELS, RESOLUTION_LABELS};
use kreach_obs::prom::{label, Exemplar, HistogramSeries, PromText};
use kreach_obs::window::WINDOW_SECS;
use kreach_obs::{
    DurabilityStats, FlightRecorder, Recorder, SlowQueryEntry, SlowQueryLog, WindowSnapshot,
    WindowStats,
};
use std::cell::RefCell;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TEXT: &str = "text/plain; charset=utf-8";
const JSON: &str = "application/json";
const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Slow-query entries retained (newest win); the monotone total keeps
/// counting past this.
const SLOW_LOG_CAPACITY: usize = 128;

thread_local! {
    /// Per-handler-thread answer buffer, loaned to the engine through
    /// [`BatchEngine::run_into`] and reused across requests: a warmed
    /// handler serves `/batch` and `/reach` without allocating answer
    /// storage.
    static HANDLER_ANSWERS: RefCell<Vec<bool>> = const { RefCell::new(Vec::new()) };
}

/// Runs a batch through the engine using this handler thread's reusable
/// answer buffer, handing the answers to `consume` while they are borrowed.
fn run_with_scratch<T>(
    engine: &BatchEngine,
    batch: &QueryBatch,
    consume: impl FnOnce(&[bool]) -> T,
) -> Result<T, kreach_engine::EngineError> {
    HANDLER_ANSWERS.with(|cell| {
        let mut answers = cell.borrow_mut();
        engine.run_into(batch, &mut answers)?;
        Ok(consume(&answers))
    })
}

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Interface to bind.
    pub host: String,
    /// Port to bind; `0` picks an ephemeral port (read it back from
    /// [`ServerHandle::port`]).
    pub port: u16,
    /// Connection-handler threads (clamped to at least 1). This bounds how
    /// many connections make progress concurrently. Each handler answers
    /// its requests' queries itself, on its own thread, so it is also the
    /// server's query parallelism; one batch runs on one thread.
    pub handlers: usize,
    /// Admission budget: connections admitted (queued + in service) before
    /// the acceptor starts shedding with fast 503s. Clamped to at least 1.
    pub max_inflight: usize,
    /// Largest accepted request body, in bytes; bigger declared bodies are
    /// refused with `413` before any body byte is read.
    pub max_body_bytes: usize,
    /// Slow-client guard, applied twice over: as the socket read/write
    /// timeout bounding each individual read, and as a whole-request
    /// deadline bounding their sum — so neither a stalled client nor one
    /// trickling a byte at a time can pin a handler past roughly twice
    /// this duration per request.
    pub read_timeout: Duration,
    /// Slow-query threshold in microseconds: requests whose end-to-end
    /// latency reaches it land in the slow-query ring (dumped by
    /// `GET /stats?slow=1` and counted by `kreach_slow_queries_total`).
    /// `0` disables the log.
    pub slow_query_us: u64,
    /// Replay-debt ceiling for `/healthz`: when the WAL holds more than
    /// this many epochs past the last checkpoint, health flips to 503
    /// `"degraded"` (the checkpointer is falling behind; a crash now pays
    /// that much replay). `None` disables the check.
    pub max_wal_lag: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            handlers: 4,
            max_inflight: 64,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(10),
            slow_query_us: 0,
            max_wal_lag: None,
        }
    }
}

/// The server's observability bundle: rolling windows, the flight
/// recorder, and (when serving a durable store) the durability counters.
///
/// [`start`] builds a default bundle; callers that own a store or want the
/// flight recorder dumped somewhere specific build one and pass it to
/// [`start_with_obs`]. All fields are shared handles, so a caller can keep
/// clones (for a stderr ticker, a drain-time dump, a panic hook) while the
/// server feeds them.
#[derive(Clone)]
pub struct ServerObs {
    /// Rolling 1s/10s/60s windowed telemetry, fed by every request and
    /// every engine batch.
    pub windows: Arc<WindowStats>,
    /// Bounded ring of structured events (sheds, epoch bumps, checkpoints,
    /// slow queries).
    pub events: Arc<FlightRecorder>,
    /// WAL/checkpoint instrumentation when a durable store backs the
    /// engine; `None` for in-memory serving.
    pub durability: Option<Arc<DurabilityStats>>,
    /// Where `POST /debug/flightrec` writes its `flightrec-<ts>.jsonl`
    /// dump; `None` serves the events in the response body only.
    pub flight_dump_dir: Option<PathBuf>,
}

impl Default for ServerObs {
    fn default() -> Self {
        ServerObs {
            windows: Arc::new(WindowStats::new()),
            events: Arc::new(FlightRecorder::default()),
            durability: None,
            flight_dump_dir: None,
        }
    }
}

struct Shared {
    engine: Arc<BatchEngine>,
    metrics: ServerMetrics,
    config: ServerConfig,
    addr: SocketAddr,
    inflight: AtomicUsize,
    shutting_down: AtomicBool,
    /// The engine's recorder, cloned so handlers can open `server.request`
    /// spans that the engine's own spans nest under. Disabled recorders
    /// make every span call a single branch.
    recorder: Recorder,
    slow_log: SlowQueryLog,
    obs: ServerObs,
}

impl Shared {
    fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Flips the drain flag and wakes the acceptor with a loopback
    /// connection so a quiet listener notices immediately. Idempotent.
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        // When bound to the unspecified address (0.0.0.0 / ::), connecting
        // to it is not portable — aim the wake-up at loopback instead.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST)
            } else {
                std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST)
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }

    /// Metrics snapshot with the admission gauge filled in (the in-flight
    /// count lives on `Shared`, not in `ServerMetrics`, because admission
    /// control is its consumer of record).
    fn snapshot(&self) -> MetricsSnapshot {
        self.metrics
            .snapshot(self.inflight.load(Ordering::Acquire) as u64)
    }
}

/// Final report returned by [`ServerHandle::join`] after a drain.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Metrics at the moment every thread had exited.
    pub metrics: MetricsSnapshot,
    /// Whether every server thread exited without panicking.
    pub clean: bool,
    /// Requests that crossed the slow-query threshold over the server's
    /// lifetime (0 when the log was disabled).
    pub slow_queries: u64,
}

/// A running server. Dropping the handle shuts the server down and joins
/// its threads; call [`ServerHandle::join`] to do that explicitly and get
/// the [`DrainReport`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the actual port when `port: 0` was asked).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.shared.addr.port()
    }

    /// The served engine.
    pub fn engine(&self) -> &Arc<BatchEngine> {
        &self.shared.engine
    }

    /// Point-in-time copy of the serving metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// Requests that crossed the slow-query threshold so far (monotone).
    pub fn slow_queries(&self) -> u64 {
        self.shared.slow_log.total()
    }

    /// The retained slow-query entries as one JSON array — the same
    /// document `GET /stats?slow=1` serves.
    pub fn slow_log_json(&self) -> String {
        self.shared.slow_log.to_json()
    }

    /// Whether a drain has been requested (by [`ServerHandle::shutdown`] or
    /// `POST /shutdown`).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.is_shutting_down()
    }

    /// Requests a graceful drain: stop admitting, finish every admitted
    /// connection, then let the threads exit. Returns immediately;
    /// [`ServerHandle::join`] waits for completion.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the server has fully drained (every thread joined) and
    /// reports the final counters. Does **not** initiate the drain — callers
    /// that want to stop the server call [`ServerHandle::shutdown`] first;
    /// callers serving until an external `POST /shutdown` just call `join`.
    pub fn join(mut self) -> DrainReport {
        self.join_threads()
    }

    fn join_threads(&mut self) -> DrainReport {
        let mut clean = true;
        if let Some(acceptor) = self.acceptor.take() {
            clean &= acceptor.join().is_ok();
        }
        for handle in self.handlers.drain(..) {
            clean &= handle.join().is_ok();
        }
        DrainReport {
            metrics: self.shared.snapshot(),
            clean,
            slow_queries: self.shared.slow_log.total(),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.handlers.is_empty() {
            self.shared.begin_shutdown();
            let _ = self.join_threads();
        }
    }
}

/// Binds the listener and spawns the acceptor and handler threads, serving
/// `engine` until a shutdown is requested. Uses a default observability
/// bundle (fresh windows and flight recorder, no durability stats); see
/// [`start_with_obs`] to share one with the caller.
pub fn start(engine: Arc<BatchEngine>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    start_with_obs(engine, config, ServerObs::default())
}

/// Like [`start`], with a caller-supplied observability bundle: the server
/// installs its windows and flight recorder on the engine (so batch tallies
/// and epoch events land in them) and exposes everything through
/// `/metrics`, `/stats`, `/healthz`, and `POST /debug/flightrec`.
pub fn start_with_obs(
    engine: Arc<BatchEngine>,
    config: ServerConfig,
    obs: ServerObs,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind((config.host.as_str(), config.port))?;
    let addr = listener.local_addr()?;
    let recorder = engine.recorder().clone();
    let slow_log = SlowQueryLog::new(config.slow_query_us, SLOW_LOG_CAPACITY);
    engine.set_windows(Arc::clone(&obs.windows));
    engine.set_events(Arc::clone(&obs.events));
    let shared = Arc::new(Shared {
        engine,
        metrics: ServerMetrics::new(),
        config: ServerConfig {
            handlers: config.handlers.max(1),
            max_inflight: config.max_inflight.max(1),
            ..config
        },
        addr,
        inflight: AtomicUsize::new(0),
        shutting_down: AtomicBool::new(false),
        recorder,
        slow_log,
        obs,
    });

    let (sender, receiver) = mpsc::channel::<TcpStream>();
    let receiver = Arc::new(Mutex::new(receiver));
    let handlers = (0..shared.config.handlers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            let receiver = Arc::clone(&receiver);
            std::thread::Builder::new()
                .name(format!("kreach-conn-{i}"))
                .spawn(move || loop {
                    // Hold the lock only while dequeuing.
                    let conn = match receiver.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => break,
                    };
                    match conn {
                        Ok(stream) => {
                            handle_connection(&shared, stream);
                            shared.inflight.fetch_sub(1, Ordering::AcqRel);
                        }
                        Err(_) => break, // acceptor gone and queue drained
                    }
                })
                .expect("failed to spawn connection handler")
        })
        .collect();

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("kreach-acceptor".to_string())
            .spawn(move || {
                accept_loop(&shared, listener, sender);
            })
            .expect("failed to spawn acceptor")
    };

    Ok(ServerHandle {
        shared,
        acceptor: Some(acceptor),
        handlers,
    })
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener, sender: mpsc::Sender<TcpStream>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                if shared.is_shutting_down() {
                    break;
                }
                // Persistent accept errors (EMFILE under fd exhaustion being
                // the classic) must not turn the acceptor into a busy-spin:
                // back off briefly so handlers can finish and free fds.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shared.is_shutting_down() {
            // The shutdown wake-up itself, or a straggler racing it: either
            // way nothing new is admitted during a drain.
            drop(stream);
            break;
        }
        shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
        // The acceptor is the only incrementer, so load-then-add cannot
        // over-admit; concurrent handler decrements only make room.
        if shared.inflight.load(Ordering::Acquire) >= shared.config.max_inflight {
            shed(shared, stream);
            continue;
        }
        shared.inflight.fetch_add(1, Ordering::AcqRel);
        shared.metrics.admitted.fetch_add(1, Ordering::Relaxed);
        if sender.send(stream).is_err() {
            break;
        }
    }
    // Dropping the sender lets handlers drain the queue and exit.
}

/// Fast 503: one bounded write on the acceptor thread, never touching the
/// engine or the handler pool.
fn shed(shared: &Arc<Shared>, mut stream: TcpStream) {
    shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
    shared.obs.windows.record_shed();
    shared.obs.events.record(
        "shed",
        format!(
            "inflight={} budget={}",
            shared.inflight.load(Ordering::Relaxed),
            shared.config.max_inflight
        ),
    );
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let body = format!(
        "overloaded: {} connections in flight (budget {}); retry\n",
        shared.inflight.load(Ordering::Relaxed),
        shared.config.max_inflight
    );
    if let Ok(n) = http::write_response_with(
        &mut stream,
        503,
        TEXT,
        body.as_bytes(),
        true,
        extra_headers(503),
    ) {
        shared
            .metrics
            .bytes_out
            .fetch_add(n as u64, Ordering::Relaxed);
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.read_timeout));
    // Request/response round-trips are latency-bound: never wait for ACKs
    // to coalesce segments.
    let _ = stream.set_nodelay(true);
    // Loopback peers may request a drain; remote ones may not (see route).
    let peer_is_loopback = stream
        .peer_addr()
        .map(|peer| peer.ip().is_loopback())
        .unwrap_or(false);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        // One whole-request budget: the socket timeout bounds each read,
        // the deadline bounds their sum (trickling clients).
        let deadline = Instant::now() + shared.config.read_timeout;
        let line = match http::read_line_bounded(&mut reader, http::MAX_LINE_BYTES, Some(deadline))
        {
            Ok(None) => break, // client closed between requests
            Ok(Some(line)) => line,
            Err(RequestError::Timeout) => {
                // Slow or stalled client: time it out explicitly so the
                // handler slot is reclaimed.
                respond(shared, &mut writer, 408, TEXT, b"request timed out\n", true);
                break;
            }
            Err(RequestError::Bad(message)) => {
                respond(
                    shared,
                    &mut writer,
                    400,
                    TEXT,
                    format!("{message}\n").as_bytes(),
                    true,
                );
                break;
            }
            Err(_) => break,
        };
        if line.is_empty() {
            continue; // stray blank line between requests
        }
        // The clock starts once a request line has arrived: the idle gap a
        // keep-alive client leaves between requests is its think time, not
        // serving latency, and must not pollute the /stats histogram.
        let started = Instant::now();
        if http::is_http_request_line(&line) {
            // Headers + body get their own whole-request budget from here.
            if !serve_http_request(
                shared,
                &line,
                &mut reader,
                &mut writer,
                started,
                started + shared.config.read_timeout,
                peer_is_loopback,
            ) {
                break;
            }
        } else {
            serve_line_session(shared, line, &mut reader, &mut writer);
            break;
        }
        if shared.is_shutting_down() {
            break;
        }
    }
}

/// Extra headers for a status: every 503 — shed, degraded `/update`,
/// unhealthy `/healthz` — carries `Retry-After: 1` so well-behaved clients
/// back off instead of hammering a server that already said "not now".
fn extra_headers(status: u16) -> &'static [(&'static str, &'static str)] {
    if status == 503 {
        &[("Retry-After", "1")]
    } else {
        &[]
    }
}

/// Writes a response, charging byte and status counters. Used for protocol
/// errors discovered outside normal routing.
fn respond(
    shared: &Arc<Shared>,
    writer: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
) {
    if let Ok(n) = http::write_response_with(
        writer,
        status,
        content_type,
        body,
        close,
        extra_headers(status),
    ) {
        shared
            .metrics
            .bytes_out
            .fetch_add(n as u64, Ordering::Relaxed);
    }
    shared.metrics.record_status(status);
}

/// Parses and answers one HTTP request; returns whether the connection may
/// serve another.
#[allow(clippy::too_many_arguments)]
fn serve_http_request(
    shared: &Arc<Shared>,
    request_line: &str,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    started: Instant,
    deadline: Instant,
    peer_is_loopback: bool,
) -> bool {
    let request = match Request::parse(
        request_line,
        reader,
        shared.config.max_body_bytes,
        Some(deadline),
    ) {
        Ok(request) => request,
        Err(RequestError::Timeout) => {
            respond(shared, writer, 408, TEXT, b"request timed out\n", true);
            return false;
        }
        Err(RequestError::Bad(message)) => {
            respond(
                shared,
                writer,
                400,
                TEXT,
                format!("{message}\n").as_bytes(),
                true,
            );
            return false;
        }
        Err(err @ RequestError::TooLarge { .. }) => {
            // The body was never read, so the connection is out of sync:
            // refuse and close.
            respond(
                shared,
                writer,
                413,
                TEXT,
                format!("{err}\n").as_bytes(),
                true,
            );
            return false;
        }
        Err(RequestError::Io(_)) => return false,
    };
    shared.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
    shared.metrics.bytes_in.fetch_add(
        (request_line.len() + request.head_bytes + request.body.len()) as u64,
        Ordering::Relaxed,
    );

    // The request span is the trace root: the engine's own spans
    // (engine.batch → engine.group → backend probes) nest under it because
    // `shared.recorder` is the engine's recorder.
    let mut span = shared.recorder.span("server.request");
    let trace_id = span.trace_id();
    let (status, content_type, body) = route(shared, &request, peer_is_loopback);
    span.note(format!(
        "{} {} status={status}",
        request.method, request.path
    ));
    drop(span);
    // A HEAD client will not read a response body, so any body bytes would
    // bleed into its next response: always close after answering one.
    let close = request.close || shared.is_shutting_down() || request.method == "HEAD";
    if let Ok(n) = http::write_response_with(
        writer,
        status,
        content_type,
        &body,
        close,
        extra_headers(status),
    ) {
        shared
            .metrics
            .bytes_out
            .fetch_add(n as u64, Ordering::Relaxed);
    } else {
        return false;
    }
    shared.metrics.record_status(status);
    let elapsed = started.elapsed();
    shared.metrics.record_latency(elapsed);
    shared.obs.windows.record_request(elapsed.as_nanos() as u64);
    let micros = elapsed.as_micros() as u64;
    if shared.slow_log.is_slow(micros) {
        let op = format!("{} {}", request.method, request.path);
        shared.obs.events.record(
            "slow_query",
            format!("trace_id={trace_id} op={op} status={status} micros={micros}"),
        );
        shared.slow_log.record(
            trace_id,
            op,
            status,
            micros,
            &shared.recorder.spans_for_trace(trace_id),
        );
    }
    !close
}

/// Dispatches one parsed request to its endpoint.
fn route(
    shared: &Arc<Shared>,
    request: &Request,
    peer_is_loopback: bool,
) -> (u16, &'static str, Vec<u8>) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let (status, body) = healthz_doc(shared);
            (status, JSON, body.into_bytes())
        }
        ("GET", "/metrics") => (200, PROM, metrics_text(shared).into_bytes()),
        ("GET", "/stats") => {
            // `?slow=1` swaps the stats document for the slow-query ring —
            // non-destructive by default (dashboards poll it); add
            // `&drain=1` to consume the ring (the monotone total keeps
            // counting either way).
            if request.query.iter().any(|(k, v)| k == "slow" && v == "1") {
                let drain = request.query.iter().any(|(k, v)| k == "drain" && v == "1");
                let entries = if drain {
                    shared.slow_log.drain()
                } else {
                    shared.slow_log.entries()
                };
                let mut body = slow_entries_json(&entries);
                body.push('\n');
                (200, JSON, body.into_bytes())
            } else {
                (200, JSON, stats_json(shared).into_bytes())
            }
        }
        ("GET", "/reach") => endpoint_reach(shared, request),
        ("POST", "/batch") => endpoint_batch(shared, request),
        ("POST", "/update") => endpoint_update(shared, request),
        ("POST", "/shutdown") => {
            // The drain endpoint is an operator control, not a data-plane
            // one: when the listener is bound beyond loopback (--host
            // 0.0.0.0), a remote peer must not be able to kill the server
            // with one unauthenticated request.
            if !peer_is_loopback {
                return (
                    403,
                    TEXT,
                    b"shutdown is only accepted from loopback clients\n".to_vec(),
                );
            }
            shared.begin_shutdown();
            (202, TEXT, b"draining\n".to_vec())
        }
        ("POST", "/debug/flightrec") => {
            // Like /shutdown, a debug control: the event ring can carry
            // operational detail (slow ops, epochs) a remote peer has no
            // business reading, and a configured dump dir means disk writes.
            if !peer_is_loopback {
                return (
                    403,
                    TEXT,
                    b"flight-recorder dumps are only accepted from loopback clients\n".to_vec(),
                );
            }
            let body = shared.obs.events.to_jsonl();
            if let Some(dir) = &shared.obs.flight_dump_dir {
                if let Err(e) = shared.obs.events.dump_to(dir) {
                    return (
                        500,
                        TEXT,
                        format!("flight-recorder dump to {} failed: {e}\n", dir.display())
                            .into_bytes(),
                    );
                }
            }
            // JSON-lines, not one JSON document: plain text is the honest
            // content type.
            (200, TEXT, body.into_bytes())
        }
        ("GET" | "POST", path) => (
            404,
            TEXT,
            format!("no route for {} {path}\n", request.method).into_bytes(),
        ),
        (method, _) => (
            405,
            TEXT,
            format!("method {method:?} not allowed\n").into_bytes(),
        ),
    }
}

/// `GET /reach?s=..&t=..[&k=..]` — one query through the batch path.
fn endpoint_reach(shared: &Arc<Shared>, request: &Request) -> (u16, &'static str, Vec<u8>) {
    let mut s = None;
    let mut t = None;
    let mut k = None;
    for (key, value) in &request.query {
        let slot = match key.as_str() {
            "s" => &mut s,
            "t" => &mut t,
            "k" => &mut k,
            other => {
                return (
                    400,
                    TEXT,
                    format!("unknown query parameter {other:?} (use s, t, k)\n").into_bytes(),
                )
            }
        };
        match value.parse::<u32>() {
            Ok(parsed) => *slot = Some(parsed),
            Err(e) => {
                return (
                    400,
                    TEXT,
                    format!("invalid {key} value {value:?}: {e}\n").into_bytes(),
                )
            }
        }
    }
    let (Some(s), Some(t)) = (s, t) else {
        return (
            400,
            TEXT,
            b"missing required parameters: /reach?s=<u32>&t=<u32>[&k=<u32>]\n".to_vec(),
        );
    };
    let query = Query {
        s: VertexId(s),
        t: VertexId(t),
        k: k.unwrap_or_else(|| shared.engine.default_k()),
    };
    let batch = QueryBatch::new(vec![query]);
    match run_with_scratch(&shared.engine, &batch, |answers| {
        let mut line = render_answer_line(query.s, query.t, query.k, answers[0]);
        line.push('\n');
        line
    }) {
        Ok(line) => {
            shared.metrics.queries.fetch_add(1, Ordering::Relaxed);
            (200, TEXT, line.into_bytes())
        }
        Err(e) => (400, TEXT, format!("{e}\n").into_bytes()),
    }
}

/// `POST /batch` — a pipelined batch: the body is a query workload file
/// (`s t [k]` lines), answered in order via the batch path. The response
/// body is byte-identical to what `kreach batch` prints for the same
/// workload.
fn endpoint_batch(shared: &Arc<Shared>, request: &Request) -> (u16, &'static str, Vec<u8>) {
    let entries = match read_workload(request.body.as_slice()) {
        Ok(entries) => entries,
        Err(e) => return (400, TEXT, format!("{e}\n").into_bytes()),
    };
    let batch = QueryBatch::from_triples(&entries, shared.engine.default_k());
    match run_with_scratch(&shared.engine, &batch, |answers| {
        render_answer_lines(batch.answered(answers))
    }) {
        Ok(body) => {
            shared
                .metrics
                .queries
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            (200, TEXT, body.into_bytes())
        }
        Err(e) => (400, TEXT, format!("{e}\n").into_bytes()),
    }
}

/// `POST /update` — a mixed mutation/query stream in the `kreach update`
/// workload grammar. Mutations bump the engine epoch; queries are answered
/// against all mutations before them in the body. On an error mid-stream
/// the mutations already applied stay applied (the response says how far it
/// got).
fn endpoint_update(shared: &Arc<Shared>, request: &Request) -> (u16, &'static str, Vec<u8>) {
    let ops = match read_update_workload(request.body.as_slice()) {
        Ok(ops) => ops,
        Err(e) => return (400, TEXT, format!("{e}\n").into_bytes()),
    };
    let mut body = String::new();
    let mut pending: Vec<Query> = Vec::new();
    for op in &ops {
        match *op {
            UpdateOp::Query { s, t, k } => pending.push(Query {
                s,
                t,
                k: k.unwrap_or_else(|| shared.engine.default_k()),
            }),
            UpdateOp::Insert { u, v } | UpdateOp::Remove { u, v } => {
                if let Err(resp) = flush_queries(shared, &mut pending, &mut body) {
                    return resp;
                }
                let insert = matches!(op, UpdateOp::Insert { .. });
                let update = if insert {
                    EdgeUpdate::Insert(u, v)
                } else {
                    EdgeUpdate::Remove(u, v)
                };
                match shared.engine.apply_updates(&[update]) {
                    Ok(outcome) => {
                        shared.metrics.mutations.fetch_add(1, Ordering::Relaxed);
                        body.push_str(&render_update_ack(
                            insert,
                            u,
                            v,
                            outcome.stats.applied() > 0,
                            outcome.epoch,
                        ));
                        body.push('\n');
                    }
                    Err(e @ UpdateError::Unsupported { .. }) => {
                        return (409, TEXT, format!("{body}error: {e}\n").into_bytes())
                    }
                    Err(e @ UpdateError::Durability { .. }) => {
                        // The update was refused (or could not be made
                        // durable) because storage is failing; the engine is
                        // now read-only. 503 + Retry-After tells well-behaved
                        // writers to back off and retry — the degraded prober
                        // restores read-write serving once the disk recovers.
                        return (503, TEXT, format!("{body}error: {e}\n").into_bytes());
                    }
                    Err(e) => return (400, TEXT, format!("{body}error: {e}\n").into_bytes()),
                }
            }
        }
    }
    if let Err(resp) = flush_queries(shared, &mut pending, &mut body) {
        return resp;
    }
    (200, TEXT, body.into_bytes())
}

/// Runs the queued queries of an `/update` stream as one batch, appending
/// their answer lines.
#[allow(clippy::type_complexity)]
fn flush_queries(
    shared: &Arc<Shared>,
    pending: &mut Vec<Query>,
    body: &mut String,
) -> Result<(), (u16, &'static str, Vec<u8>)> {
    if pending.is_empty() {
        return Ok(());
    }
    let batch = QueryBatch::new(std::mem::take(pending));
    match run_with_scratch(&shared.engine, &batch, |answers| {
        render_answer_lines(batch.answered(answers))
    }) {
        Ok(lines) => {
            shared
                .metrics
                .queries
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            body.push_str(&lines);
            Ok(())
        }
        Err(e) => Err((400, TEXT, format!("{body}error: {e}\n").into_bytes())),
    }
}

/// Renders a slice of slow-query entries as one JSON array (shared by the
/// non-destructive and draining variants of `GET /stats?slow=1`).
fn slow_entries_json(entries: &[SlowQueryEntry]) -> String {
    let body = entries
        .iter()
        .map(SlowQueryEntry::to_json)
        .collect::<Vec<_>>()
        .join(",");
    format!("[{body}]")
}

/// The `"window"` block of `/stats`: one snapshot object per rolling
/// window width, keyed `"1s"`, `"10s"`, `"60s"`.
fn window_block_json(windows: &WindowStats) -> String {
    let blocks = WINDOW_SECS
        .iter()
        .map(|&w| format!("\"{w}s\":{}", windows.snapshot(w).to_json()))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{blocks}}}")
}

/// The `/stats` document: engine snapshot + rolling windows + server
/// metrics, as one JSON object.
fn stats_json(shared: &Arc<Shared>) -> String {
    let info = shared.engine.info();
    let metrics = shared.snapshot();
    format!(
        concat!(
            "{{\"backend\":\"{}\",\"vertex_count\":{},\"default_k\":{},",
            "\"epoch\":{},",
            "\"accel\":{{\"bytes\":{},\"dense_rows\":{}}},",
            "\"batched\":{{\"groups\":{},\"queries\":{}}},",
            "\"admission\":{{\"max_inflight\":{},\"handlers\":{},\"shutting_down\":{}}},",
            "\"window\":{},",
            "\"flight_events\":{},",
            "\"server\":{}}}"
        ),
        info.backend,
        info.vertex_count,
        info.default_k,
        info.epoch,
        info.accel_bytes,
        info.accel_dense_rows,
        info.batched_groups,
        info.batched_queries,
        shared.config.max_inflight,
        shared.config.handlers,
        shared.is_shutting_down(),
        window_block_json(&shared.obs.windows),
        shared.obs.events.total(),
        metrics.to_json(),
    )
}

/// The `/healthz` document: liveness plus just enough identity to tell
/// *which* engine is healthy — backend name, mutation epoch, uptime, and
/// (when a durable store backs the engine) how stale the durable state is:
/// checkpoint age, the epoch it captured, the live WAL segment count, and
/// how many epochs sit in the WAL past that checkpoint.
///
/// The status code tracks the body: `200` with `"status":"ok"` while the
/// engine is read-write and replay debt is within bounds, `503` with
/// `"status":"degraded"` plus a `"cause"` field when the engine has fenced
/// itself read-only after a storage fault, or when `wal_lag` exceeds
/// [`ServerConfig::max_wal_lag`]. The schema stays back-compatible: every
/// pre-existing field keeps its name and type; degraded responses only
/// *add* fields.
fn healthz_doc(shared: &Arc<Shared>) -> (u16, String) {
    let info = shared.engine.info();
    let mut wal_lag = None;
    let durability = match &shared.obs.durability {
        Some(d) => {
            let age = match d.checkpoint_age_secs() {
                Some(age) => format!("{age:.3}"),
                None => "null".to_string(),
            };
            let lag = d.wal_lag(info.epoch);
            wal_lag = Some(lag);
            format!(
                ",\"checkpoint_age_secs\":{age},\"last_checkpoint_epoch\":{},\
                 \"wal_segments\":{},\"wal_lag\":{lag}",
                d.last_checkpoint_epoch.load(Ordering::Relaxed),
                d.wal_segments.load(Ordering::Relaxed),
            )
        }
        None => String::new(),
    };
    let degraded = shared.engine.degraded();
    let lag_breach = match (shared.config.max_wal_lag, wal_lag) {
        (Some(max), Some(lag)) => lag > max,
        _ => false,
    };
    let (status, state, extra) = if let Some(d) = degraded {
        (
            503,
            "degraded",
            format!(
                ",\"cause\":{},\"degraded_since_epoch\":{},\"degraded_probes\":{}",
                json_string(&d.cause),
                d.since_epoch,
                d.probes
            ),
        )
    } else if lag_breach {
        (
            503,
            "degraded",
            format!(
                ",\"cause\":{}",
                json_string(&format!(
                    "wal_lag {} exceeds --max-wal-lag {}",
                    wal_lag.unwrap_or(0),
                    shared.config.max_wal_lag.unwrap_or(0)
                ))
            ),
        )
    } else {
        (200, "ok", String::new())
    };
    let body = format!(
        "{{\"status\":\"{state}\",\"backend\":\"{}\",\"epoch\":{},\"uptime_secs\":{:.3}{durability}{extra}}}\n",
        info.backend,
        info.epoch,
        shared.snapshot().uptime_secs,
    );
    (status, body)
}

/// Renders `s` as a JSON string literal (escaping quotes, backslashes and
/// control bytes — fault causes carry arbitrary io error text).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `/metrics` document: every serving counter in Prometheus text
/// exposition format (`kreach_` prefix). Counters and histograms are
/// cumulative since server start, so consecutive scrapes are monotone; the
/// engine's per-case series sum to the number of queries it served (the
/// live Table-8 breakdown).
fn metrics_text(shared: &Arc<Shared>) -> String {
    let info = shared.engine.info();
    let tally = shared.engine.case_tally();
    let metrics = shared.snapshot();
    let latency = shared.metrics.latency_histogram();
    let mut text = PromText::new();

    // Connection and request plumbing.
    text.counter(
        "kreach_connections_accepted_total",
        "Connections accepted from the listener.",
        metrics.accepted,
    );
    text.counter(
        "kreach_connections_admitted_total",
        "Connections admitted past the in-flight budget.",
        metrics.admitted,
    );
    text.counter(
        "kreach_connections_shed_total",
        "Connections shed with a fast 503 (admission control).",
        metrics.shed,
    );
    text.gauge(
        "kreach_inflight_connections",
        "Connections admitted and not yet finished.",
        metrics.active as f64,
    );
    text.counter(
        "kreach_http_requests_total",
        "HTTP requests parsed.",
        metrics.http_requests,
    );
    text.counter(
        "kreach_line_ops_total",
        "Line-protocol operations answered.",
        metrics.line_ops,
    );
    text.counter_vec(
        "kreach_responses_total",
        "Responses by status class.",
        &[
            (label("class", "2xx"), metrics.ok),
            (label("class", "4xx"), metrics.client_errors),
            (label("class", "5xx"), metrics.server_errors),
        ],
    );
    text.counter(
        "kreach_queries_total",
        "Reachability questions answered (HTTP and line protocol).",
        metrics.queries,
    );
    text.counter(
        "kreach_mutations_total",
        "Edge mutations routed through the engine.",
        metrics.mutations,
    );
    text.counter(
        "kreach_bytes_in_total",
        "Request bytes read.",
        metrics.bytes_in,
    );
    text.counter(
        "kreach_bytes_out_total",
        "Response bytes written.",
        metrics.bytes_out,
    );
    // The newest slow-query entry rides the latency histogram as an
    // OpenMetrics exemplar: a scrape that sees a suspicious bucket gets a
    // concrete trace ID to chase instead of an anonymous count.
    let exemplar = shared.slow_log.latest().map(|entry| Exemplar {
        bucket: kreach_obs::window::bucket_index(entry.micros.saturating_mul(1_000)),
        labels: label("trace_id", &entry.trace_id.to_string()),
        value_secs: entry.micros as f64 / 1e6,
    });
    text.histogram_vec(
        "kreach_request_duration_seconds",
        "End-to-end HTTP request latency.",
        &[HistogramSeries {
            labels: String::new(),
            bucket_counts: latency.bucket_counts(),
            sum_nanos: latency.sum_nanos(),
            exemplar,
        }],
    );

    // Engine: the live Table-8 case breakdown and how queries resolved.
    let case_series: Vec<(String, u64)> = CLASS_LABELS
        .iter()
        .zip(tally.counts().iter())
        .map(|(name, &count)| (label("case", name), count))
        .collect();
    text.counter_vec(
        "kreach_engine_queries_by_case_total",
        "Engine-served queries by Algorithm 2 case (paper Table 8).",
        &case_series,
    );
    let resolution_series: Vec<(String, u64)> = RESOLUTION_LABELS
        .iter()
        .zip(tally.resolutions().iter())
        .map(|(name, &count)| (label("resolution", name), count))
        .collect();
    text.counter_vec(
        "kreach_engine_queries_by_resolution_total",
        "Engine-served queries by resolution path.",
        &resolution_series,
    );
    let case_hists: Vec<HistogramSeries<'_>> = CLASS_LABELS
        .iter()
        .zip(tally.histograms().iter())
        .map(|(name, hist)| HistogramSeries {
            labels: label("case", name),
            bucket_counts: hist.bucket_counts(),
            sum_nanos: hist.sum_nanos(),
            exemplar: None,
        })
        .collect();
    text.histogram_vec(
        "kreach_engine_query_duration_seconds",
        "Engine query latency by Algorithm 2 case.",
        &case_hists,
    );
    // From the same tally snapshot as the per-case series, so the sum
    // invariant holds within one scrape even while batches are landing.
    text.counter(
        "kreach_engine_queries_total",
        "Queries served by the engine (sum of the per-case series).",
        tally.total(),
    );
    text.counter(
        "kreach_engine_dense_probes_total",
        "Distance-bucketed cover bitset probes.",
        tally.dense_probes(),
    );
    text.counter(
        "kreach_engine_sparse_gallops_total",
        "Sparse gallop intersections.",
        tally.sparse_gallops(),
    );
    text.counter(
        "kreach_engine_batched_queries_total",
        "Queries answered in target groups of two or more.",
        tally.batched_queries(),
    );
    text.counter(
        "kreach_engine_batched_groups_total",
        "Target groups of two or more queries.",
        tally.batched_groups(),
    );

    // Query acceleration footprint.
    text.gauge(
        "kreach_engine_accel_bytes",
        "Bytes held by the backend's query acceleration (dense rows + position adjacency).",
        info.accel_bytes as f64,
    );
    text.gauge(
        "kreach_engine_accel_dense_rows",
        "Cover rows stored in dense bitset form by the served index.",
        info.accel_dense_rows as f64,
    );

    // Mutation epoch.
    text.gauge(
        "kreach_engine_epoch",
        "Mutation epoch (bumped by every applied update batch).",
        info.epoch as f64,
    );

    // Update path: mutation outcomes, index maintenance work, stage timing.
    let updates = info.update_stats;
    text.counter_vec(
        "kreach_updates_total",
        "Edge mutations by outcome.",
        &[
            (label("kind", "insert"), updates.inserts),
            (label("kind", "remove"), updates.removes),
            (label("kind", "noop"), updates.noops),
        ],
    );
    text.counter(
        "kreach_update_rows_patched_total",
        "Index rows patched in place by updates.",
        updates.rows_patched,
    );
    text.counter(
        "kreach_update_rows_coalesced_total",
        "Pending row patches coalesced before application.",
        updates.rows_coalesced,
    );
    text.counter(
        "kreach_update_cover_additions_total",
        "Vertices added to the cover by repairs.",
        updates.cover_additions,
    );
    text.counter_vec(
        "kreach_update_repairs_total",
        "Cover repairs by the endpoint chosen to join the cover.",
        &[
            (label("arm", "source"), updates.repairs_picked_source),
            (label("arm", "target"), updates.repairs_picked_target),
        ],
    );
    text.counter(
        "kreach_update_full_rebuilds_total",
        "Full index rebuilds triggered by updates.",
        updates.full_rebuilds,
    );
    text.counter_vec(
        "kreach_update_stage_nanoseconds_total",
        "Time spent in the update path by stage, in nanoseconds.",
        &[
            (label("stage", "patch"), updates.patch_nanos),
            (label("stage", "repair"), updates.repair_nanos),
            (label("stage", "rebuild"), updates.rebuild_nanos),
        ],
    );

    // Rolling windows: one gauge family per signal, one series per window
    // width. Gauges on purpose (and named to avoid the cumulative
    // `_total`/`_bucket`/`_sum`/`_count` suffixes): windowed values move in
    // both directions between scrapes.
    let snaps: Vec<WindowSnapshot> = WINDOW_SECS
        .iter()
        .map(|&w| shared.obs.windows.snapshot(w))
        .collect();
    let wlabel = |s: &WindowSnapshot| label("w", &format!("{}s", s.window_secs));
    let window_series = |f: &dyn Fn(&WindowSnapshot) -> f64| -> Vec<(String, f64)> {
        snaps.iter().map(|s| (wlabel(s), f(s))).collect()
    };
    type WindowGauge<'a> = (&'a str, &'a str, &'a dyn Fn(&WindowSnapshot) -> f64);
    let families: [WindowGauge; 5] = [
        (
            "kreach_rps_window",
            "Requests per second over the rolling window.",
            &WindowSnapshot::rps,
        ),
        (
            "kreach_qps_window",
            "Engine queries per second over the rolling window.",
            &WindowSnapshot::qps,
        ),
        (
            "kreach_request_p50_seconds_window",
            "Median request latency over the rolling window, in seconds.",
            &|s| s.p50_micros / 1e6,
        ),
        (
            "kreach_request_p99_seconds_window",
            "99th-percentile request latency over the rolling window, in seconds.",
            &|s| s.p99_micros / 1e6,
        ),
        (
            "kreach_shed_rate_window",
            "Shed fraction of offered connections over the rolling window.",
            &WindowSnapshot::shed_rate,
        ),
    ];
    for (name, help, f) in families {
        text.gauge_vec(name, help, &window_series(f));
    }
    let case_mix: Vec<(String, f64)> = snaps
        .iter()
        .flat_map(|s| {
            CLASS_LABELS.iter().enumerate().map(|(i, name)| {
                (
                    format!("{},{}", wlabel(s), label("case", name)),
                    s.case_share(i),
                )
            })
        })
        .collect();
    text.gauge_vec(
        "kreach_case_share_window",
        "Fraction of windowed queries per Algorithm 2 case.",
        &case_mix,
    );

    // Durability: WAL and checkpoint instrumentation, present only when a
    // durable store backs the engine (cumulative, so they join the monotone
    // families).
    if let Some(d) = &shared.obs.durability {
        text.counter(
            "kreach_wal_appends_total",
            "Mutation batches appended to the write-ahead log.",
            d.wal_appends.load(Ordering::Relaxed),
        );
        text.counter(
            "kreach_wal_records_total",
            "Edge updates appended to the write-ahead log.",
            d.wal_records.load(Ordering::Relaxed),
        );
        text.counter(
            "kreach_wal_bytes_total",
            "Bytes appended to the write-ahead log.",
            d.wal_bytes.load(Ordering::Relaxed),
        );
        let wal_write = d.wal_write.bucket_counts();
        let wal_fsync = d.wal_fsync.bucket_counts();
        let ckpt = d.checkpoint_duration.bucket_counts();
        text.histogram_vec(
            "kreach_wal_append_write_seconds",
            "Serialize-and-write stage of one WAL append.",
            &[HistogramSeries {
                labels: String::new(),
                bucket_counts: &wal_write,
                sum_nanos: d.wal_write.sum_nanos(),
                exemplar: None,
            }],
        );
        text.histogram_vec(
            "kreach_wal_fsync_seconds",
            "Fsync stage of one WAL append (the fsync-before-ack cost).",
            &[HistogramSeries {
                labels: String::new(),
                bucket_counts: &wal_fsync,
                sum_nanos: d.wal_fsync.sum_nanos(),
                exemplar: None,
            }],
        );
        text.histogram_vec(
            "kreach_checkpoint_duration_seconds",
            "End-to-end checkpoint duration (snapshot, write, fsync, prune).",
            &[HistogramSeries {
                labels: String::new(),
                bucket_counts: &ckpt,
                sum_nanos: d.checkpoint_duration.sum_nanos(),
                exemplar: None,
            }],
        );
        text.counter(
            "kreach_checkpoints_total",
            "Checkpoints written since startup.",
            d.checkpoints.load(Ordering::Relaxed),
        );
        text.counter(
            "kreach_replayed_batches_total",
            "WAL batches replayed by the last restore.",
            d.replayed_batches.load(Ordering::Relaxed),
        );
        text.counter(
            "kreach_replayed_ops_total",
            "Edge updates replayed by the last restore.",
            d.replayed_ops.load(Ordering::Relaxed),
        );
        text.gauge(
            "kreach_wal_segments",
            "Live write-ahead-log segment files.",
            d.wal_segments.load(Ordering::Relaxed) as f64,
        );
        text.gauge(
            "kreach_checkpoint_age_seconds",
            "Seconds since the last completed checkpoint (-1 before the first).",
            d.checkpoint_age_secs().unwrap_or(-1.0),
        );
        text.gauge(
            "kreach_last_checkpoint_epoch",
            "Mutation epoch captured by the last checkpoint.",
            d.last_checkpoint_epoch.load(Ordering::Relaxed) as f64,
        );
        text.gauge(
            "kreach_last_checkpoint_bytes",
            "Size of the last checkpoint file, in bytes.",
            d.last_checkpoint_bytes.load(Ordering::Relaxed) as f64,
        );
        text.gauge(
            "kreach_wal_epoch_lag",
            "Epochs in the write-ahead log past the last checkpoint.",
            d.wal_lag(info.epoch) as f64,
        );
        text.counter(
            "kreach_checkpoint_failures_total",
            "Checkpoint attempts that failed (retried with backoff).",
            d.checkpoint_failures.load(Ordering::Relaxed),
        );
        text.counter(
            "kreach_faults_injected_total",
            "Storage faults injected by the fault-injection io (0 in production).",
            d.faults_injected.load(Ordering::Relaxed),
        );
    }

    // Degraded-mode fence: 1 while the engine is read-only after a
    // durability failure, 0 while serving read-write.
    text.gauge(
        "kreach_degraded",
        "Whether the engine is in read-only degraded mode (1) or read-write (0).",
        if shared.engine.is_degraded() {
            1.0
        } else {
            0.0
        },
    );

    // Flight recorder, slow-query log, and liveness.
    text.counter(
        "kreach_flight_events_total",
        "Structured events recorded by the flight recorder.",
        shared.obs.events.total(),
    );
    text.counter(
        "kreach_slow_queries_total",
        "Requests at or over the slow-query threshold.",
        shared.slow_log.total(),
    );
    text.gauge(
        "kreach_uptime_seconds",
        "Seconds since the server started.",
        metrics.uptime_secs,
    );
    text.finish()
}

/// The line protocol: one operation per line in the mixed-workload grammar,
/// one response line per operation, streamed as they arrive. `stats` prints
/// the `/stats` JSON, `quit` closes the session.
fn serve_line_session(
    shared: &Arc<Shared>,
    first_line: String,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
) {
    let mut next = Some(first_line);
    loop {
        let line = match next.take() {
            Some(line) => line,
            None => match http::read_line_bounded(
                reader,
                http::MAX_LINE_BYTES,
                Some(Instant::now() + shared.config.read_timeout),
            ) {
                Ok(Some(line)) => line,
                Ok(None) => break,
                Err(RequestError::Timeout) => {
                    let _ = writeln!(writer, "error: read timed out");
                    break;
                }
                Err(_) => break,
            },
        };
        shared
            .metrics
            .bytes_in
            .fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
        let trimmed = line.split('#').next().unwrap_or("").trim();
        if trimmed.is_empty() {
            continue; // comments and blank lines, like the file format
        }
        if trimmed == "quit" {
            break;
        }
        let op_started = Instant::now();
        let mut span = shared.recorder.span("server.line_op");
        let trace_id = span.trace_id();
        let reply = if trimmed == "stats" {
            stats_json(shared)
        } else {
            line_op_reply(shared, trimmed)
        };
        span.note(trimmed.to_string());
        drop(span);
        let elapsed = op_started.elapsed();
        shared.obs.windows.record_request(elapsed.as_nanos() as u64);
        let micros = elapsed.as_micros() as u64;
        if shared.slow_log.is_slow(micros) {
            shared.obs.events.record(
                "slow_query",
                format!("trace_id={trace_id} op=line:{trimmed} status=200 micros={micros}"),
            );
            shared.slow_log.record(
                trace_id,
                format!("line: {trimmed}"),
                200,
                micros,
                &shared.recorder.spans_for_trace(trace_id),
            );
        }
        shared.metrics.line_ops.fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .bytes_out
            .fetch_add(reply.len() as u64 + 1, Ordering::Relaxed);
        if writeln!(writer, "{reply}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        if shared.is_shutting_down() {
            break;
        }
    }
}

/// Answers one line-protocol operation, never panicking on bad input.
fn line_op_reply(shared: &Arc<Shared>, trimmed: &str) -> String {
    let ops = match read_update_workload(trimmed.as_bytes()) {
        Ok(ops) => ops,
        Err(e) => return format!("error: {e}"),
    };
    let Some(op) = ops.first() else {
        return "error: empty operation".to_string();
    };
    match *op {
        UpdateOp::Query { s, t, k } => {
            let query = Query {
                s,
                t,
                k: k.unwrap_or_else(|| shared.engine.default_k()),
            };
            let batch = QueryBatch::new(vec![query]);
            match run_with_scratch(&shared.engine, &batch, |answers| {
                render_answer_line(query.s, query.t, query.k, answers[0])
            }) {
                Ok(line) => {
                    shared.metrics.queries.fetch_add(1, Ordering::Relaxed);
                    line
                }
                Err(e) => format!("error: {e}"),
            }
        }
        UpdateOp::Insert { u, v } | UpdateOp::Remove { u, v } => {
            let insert = matches!(op, UpdateOp::Insert { .. });
            let update = if insert {
                EdgeUpdate::Insert(u, v)
            } else {
                EdgeUpdate::Remove(u, v)
            };
            match shared.engine.apply_updates(&[update]) {
                Ok(outcome) => {
                    shared.metrics.mutations.fetch_add(1, Ordering::Relaxed);
                    render_update_ack(insert, u, v, outcome.stats.applied() > 0, outcome.epoch)
                }
                Err(e) => format!("error: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::BlockingClient;
    use kreach_core::dynamic::DynamicOptions;
    use kreach_engine::{BfsBackend, DynamicKReachBackend, EngineConfig};
    use kreach_graph::DiGraph;
    use std::io::{BufRead, Read};

    fn tiny_config() -> ServerConfig {
        ServerConfig {
            handlers: 2,
            max_inflight: 8,
            read_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        }
    }

    fn bfs_server() -> ServerHandle {
        // 0→1→2, isolated 3.
        let g = Arc::new(DiGraph::from_edges(4, [(0, 1), (1, 2)]));
        let engine = Arc::new(BatchEngine::new(
            Arc::new(BfsBackend::new(g, 2)),
            EngineConfig::default(),
        ));
        start(engine, tiny_config()).expect("bind")
    }

    fn dynamic_server() -> ServerHandle {
        let g = DiGraph::from_edges(3, [(0, 1)]);
        let engine = Arc::new(BatchEngine::new(
            Arc::new(DynamicKReachBackend::new(g, 2, DynamicOptions::default())),
            EngineConfig::default(),
        ));
        start(engine, tiny_config()).expect("bind")
    }

    #[test]
    fn healthz_stats_and_routing() {
        let server = bfs_server();
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        let health = client.get("/healthz").unwrap();
        assert!(health.is_ok());
        let health_json = health.body_text();
        for field in [
            "\"status\":\"ok\"",
            "\"backend\":\"online-bfs\"",
            "\"epoch\":0",
            "\"uptime_secs\":",
        ] {
            assert!(
                health_json.contains(field),
                "missing {field} in {health_json}"
            );
        }
        let stats = client.get("/stats").unwrap();
        assert!(stats.is_ok());
        let json = stats.body_text();
        for field in [
            "\"backend\":\"online-bfs\"",
            "\"vertex_count\":4",
            "\"accel\":{\"bytes\":",
            "\"batched\":{\"groups\":",
            "\"admission\":{\"max_inflight\":8",
            "\"server\":{\"accepted\":",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        assert_eq!(client.get("/nope").unwrap().status, 404);
        assert_eq!(client.request("PATCH", "/reach", &[]).unwrap().status, 405);
        // HEAD is unsupported (a body-less client would desync on our
        // bodies), and the connection closes after answering it.
        let mut head_client = BlockingClient::connect(server.addr()).unwrap();
        let response = head_client.request("HEAD", "/healthz", &[]).unwrap();
        assert_eq!(response.status, 405);
        assert!(response.close);
        // Everything except the HEAD probe rode one keep-alive connection.
        assert_eq!(server.metrics().admitted, 2);
        assert_eq!(server.metrics().http_requests, 5);
    }

    #[test]
    fn stats_and_metrics_report_the_served_dense_rows() {
        // A hub fanning out to a 200-vertex path: the hub's index row
        // clears the default dense-row threshold.
        let edges = (1..=200u32)
            .map(|i| (0, i))
            .chain((1..200).map(|i| (i, i + 1)));
        let graph = DiGraph::from_edges(201, edges);
        let g = Arc::new(graph.clone());
        let index = kreach_core::KReachIndex::build(g.as_ref(), 3, Default::default());
        let dense_rows = index.index_graph().dense_row_count();
        assert!(dense_rows > 0, "the hub row must be dense");
        let accel_bytes = index.accel_size_bytes();
        let engine = Arc::new(BatchEngine::new(
            Arc::new(kreach_engine::KReachBackend::new(g, index)),
            EngineConfig::default(),
        ));
        let server = start(engine, tiny_config()).expect("bind");
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        let stats = client.get("/stats").unwrap().body_text();
        assert!(
            stats.contains(&format!(
                "\"accel\":{{\"bytes\":{accel_bytes},\"dense_rows\":{dense_rows}}}"
            )),
            "{stats}"
        );
        let metrics = client.get("/metrics").unwrap().body_text();
        assert!(
            metrics.contains(&format!("kreach_engine_accel_dense_rows {dense_rows}\n")),
            "{metrics}"
        );

        // The durable backend serves the same index, so it reports the same
        // dense rows and its own accel bytes — before and after an update
        // patches the hub row.
        let report = |client: &mut BlockingClient, backend: &DynamicKReachBackend| {
            use kreach_engine::Reachability;
            let (accel_bytes, dense_rows) = (backend.accel_bytes(), backend.dense_rows());
            assert!(accel_bytes > 0);
            let stats = client.get("/stats").unwrap().body_text();
            assert!(
                stats.contains(&format!(
                    "\"accel\":{{\"bytes\":{accel_bytes},\"dense_rows\":{dense_rows}}}"
                )),
                "{stats}"
            );
            let metrics = client.get("/metrics").unwrap().body_text();
            assert!(
                metrics.contains(&format!("kreach_engine_accel_dense_rows {dense_rows}\n")),
                "{metrics}"
            );
            dense_rows
        };
        let backend = Arc::new(DynamicKReachBackend::new(
            graph,
            3,
            DynamicOptions::default(),
        ));
        let engine = Arc::new(BatchEngine::new(
            Arc::clone(&backend) as Arc<dyn kreach_engine::Reachability>,
            EngineConfig::default(),
        ));
        let server = start(engine, tiny_config()).expect("bind");
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        assert_eq!(report(&mut client, &backend), dense_rows);
        // Without the edge (0, v) the hub reaches v through v − 1 in two
        // hops, so its row entry for a covered v goes from weight 1 to 2.
        let v = (50..150u32)
            .map(VertexId)
            .find(|&v| backend.with_state(|s| s.in_cover(v)))
            .expect("the path has covered vertices");
        let hub_weight =
            || backend.with_state(|s| s.index().index_graph().edge_weight(VertexId(0), v));
        assert_eq!(hub_weight(), Some(1));
        let response = client
            .post("/update", format!("- 0 {v}\n").as_bytes())
            .unwrap();
        assert!(response.is_ok(), "{}", response.body_text());
        assert_eq!(hub_weight(), Some(2));
        assert_eq!(report(&mut client, &backend), dense_rows);
    }

    #[test]
    fn reach_endpoint_answers_and_validates() {
        let server = bfs_server();
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        assert_eq!(
            client.get("/reach?s=0&t=2").unwrap().body_text(),
            "0 2 2 reachable\n"
        );
        assert_eq!(
            client.get("/reach?s=0&t=3&k=2").unwrap().body_text(),
            "0 3 2 unreachable\n"
        );
        assert_eq!(
            client.get("/reach?s=0&t=2&k=1").unwrap().body_text(),
            "0 2 1 unreachable\n"
        );
        for bad in [
            "/reach?s=0",          // missing t
            "/reach?s=a&t=1",      // non-numeric
            "/reach?s=0&t=99",     // out of range
            "/reach?s=0&t=1&qq=3", // unknown parameter
        ] {
            let response = client.get(bad).unwrap();
            assert_eq!(response.status, 400, "{bad}: {}", response.body_text());
        }
    }

    #[test]
    fn batch_endpoint_answers_in_order_and_rejects_bad_bodies() {
        let server = bfs_server();
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        let response = client
            .post("/batch", b"0 2\n0 3 2\n0 2 1\n# comment\n2 0\n")
            .unwrap();
        assert!(response.is_ok());
        assert_eq!(
            response.body_text(),
            "0 2 2 reachable\n0 3 2 unreachable\n0 2 1 unreachable\n2 0 2 unreachable\n"
        );
        let response = client.post("/batch", b"0 zebra\n").unwrap();
        assert_eq!(response.status, 400);
        assert!(
            response.body_text().contains("line 1"),
            "{}",
            response.body_text()
        );
        let response = client.post("/batch", b"0 99\n").unwrap();
        assert_eq!(response.status, 400);
        assert!(
            response.body_text().contains("99"),
            "{}",
            response.body_text()
        );
    }

    #[test]
    fn update_endpoint_mutates_on_dynamic_and_conflicts_on_frozen() {
        let dynamic = dynamic_server();
        let mut client = BlockingClient::connect(dynamic.addr()).unwrap();
        let response = client
            .post("/update", b"0 2 2\n+ 1 2\n0 2 2\n- 1 2\n0 2 2\n")
            .unwrap();
        assert!(response.is_ok(), "{}", response.body_text());
        assert_eq!(
            response.body_text(),
            "0 2 2 unreachable\n+ 1 2 applied epoch=1\n0 2 2 reachable\n\
             - 1 2 applied epoch=2\n0 2 2 unreachable\n"
        );
        assert_eq!(dynamic.metrics().mutations, 2);
        assert_eq!(dynamic.engine().epoch(), 2);

        let frozen = bfs_server();
        let mut client = BlockingClient::connect(frozen.addr()).unwrap();
        let response = client.post("/update", b"+ 0 3\n").unwrap();
        assert_eq!(response.status, 409);
        assert!(
            response.body_text().contains("immutable"),
            "{}",
            response.body_text()
        );
    }

    #[test]
    fn line_protocol_streams_answers_and_mutations() {
        let server = dynamic_server();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let mut say = |text: &str, reader: &mut std::io::BufReader<TcpStream>| {
            writer.write_all(text.as_bytes()).unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line.trim_end().to_string()
        };
        assert_eq!(say("0 2 2\n", &mut reader), "0 2 2 unreachable");
        assert_eq!(say("+ 1 2\n", &mut reader), "+ 1 2 applied epoch=1");
        assert_eq!(say("0 2 2\n", &mut reader), "0 2 2 reachable");
        assert_eq!(say("q 0 2 1\n", &mut reader), "0 2 1 unreachable");
        assert!(say("wat is this\n", &mut reader).starts_with("error:"));
        assert!(say("stats\n", &mut reader).contains("\"backend\":\"dynamic-k-reach\""));
        // Comments draw no response; quit closes the session.
        writer.write_all(b"# just a comment\nquit\n").unwrap();
        writer.flush().unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty(), "{rest:?}");
        assert!(server.metrics().line_ops >= 6);
    }

    #[test]
    fn graceful_shutdown_drains_and_stops_accepting() {
        let server = bfs_server();
        let addr = server.addr();
        let mut client = BlockingClient::connect(addr).unwrap();
        let response = client.post("/shutdown", &[]).unwrap();
        assert_eq!(response.status, 202);
        assert!(response.close, "a draining server closes the connection");
        assert!(server.is_shutting_down());
        let report = server.join();
        assert!(report.clean);
        assert!(report.metrics.ok >= 1);
        // The listener is gone: new connections are refused.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
    }

    #[test]
    fn admission_budget_sheds_with_fast_503() {
        let g = Arc::new(DiGraph::from_edges(2, [(0, 1)]));
        let engine = Arc::new(BatchEngine::new(
            Arc::new(BfsBackend::new(g, 1)),
            EngineConfig::default(),
        ));
        let server = start(
            engine,
            ServerConfig {
                handlers: 1,
                max_inflight: 1,
                read_timeout: Duration::from_secs(2),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // A holder occupies the whole budget with a half-sent request.
        let mut holder = TcpStream::connect(server.addr()).unwrap();
        holder.write_all(b"GET /re").unwrap();
        holder.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics().admitted < 1 {
            assert!(Instant::now() < deadline, "holder never admitted");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The next connection is shed without waiting on the holder.
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        let response = client.get("/healthz").unwrap();
        assert_eq!(response.status, 503);
        assert!(response.close);
        assert!(response.body_text().contains("overloaded"));
        assert_eq!(server.metrics().shed, 1);
        // Releasing the holder frees the budget; service resumes.
        drop(holder);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut retry = BlockingClient::connect(server.addr()).unwrap();
            if retry.get("/healthz").unwrap().status == 200 {
                break;
            }
            assert!(Instant::now() < deadline, "budget never freed");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn oversized_and_truncated_bodies_are_refused_cleanly() {
        let g = Arc::new(DiGraph::from_edges(2, [(0, 1)]));
        let engine = Arc::new(BatchEngine::with_defaults(Arc::new(BfsBackend::new(g, 1))));
        let server = start(
            engine,
            ServerConfig {
                max_body_bytes: 64,
                read_timeout: Duration::from_millis(300),
                ..tiny_config()
            },
        )
        .unwrap();
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        let response = client.post("/batch", &vec![b'0'; 1024]).unwrap();
        assert_eq!(response.status, 413);
        assert!(response.close, "an unread body desynchronizes the stream");

        // Truncated body: declared 60 bytes (within the cap), then silence →
        // the read times out and the request is refused with 408.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"POST /batch HTTP/1.1\r\nContent-Length: 60\r\n\r\n0 1")
            .unwrap();
        stream.flush().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut text = String::new();
        let _ = stream.read_to_string(&mut text);
        assert!(text.contains("408"), "{text:?}");

        // And the server still serves.
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        assert!(client.get("/healthz").unwrap().is_ok());
    }

    #[test]
    fn trickling_client_is_cut_off_by_the_request_deadline() {
        let g = Arc::new(DiGraph::from_edges(2, [(0, 1)]));
        let engine = Arc::new(BatchEngine::with_defaults(Arc::new(BfsBackend::new(g, 1))));
        let server = start(
            engine,
            ServerConfig {
                read_timeout: Duration::from_millis(300),
                ..tiny_config()
            },
        )
        .unwrap();
        // One byte every 100 ms keeps each individual read alive, so only
        // the whole-request deadline can stop it.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let started = Instant::now();
        for byte in b"GET /healthz HT" {
            if stream.write_all(&[*byte]).is_err() {
                break; // server already cut us off
            }
            let _ = stream.flush();
            std::thread::sleep(Duration::from_millis(100));
        }
        let mut text = String::new();
        let _ = std::io::Read::read_to_string(&mut stream, &mut text);
        // The server responded 408 (or just closed) well before the bytes
        // could have finished arriving at trickle pace.
        assert!(
            text.is_empty() || text.contains("408"),
            "unexpected response {text:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "deadline must fire, not wait out the trickle"
        );
        // The handler slot came back: a normal client is served.
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        assert!(client.get("/healthz").unwrap().is_ok());
    }

    fn scrape(client: &mut BlockingClient) -> kreach_datasets::PromScrape {
        let response = client.get("/metrics").unwrap();
        assert!(response.is_ok());
        kreach_datasets::PromScrape::parse(&response.body_text())
            .expect("exposition must parse line by line")
    }

    #[test]
    fn healthz_tracks_the_mutation_epoch() {
        let server = dynamic_server();
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        assert!(client
            .get("/healthz")
            .unwrap()
            .body_text()
            .contains("\"epoch\":0"));
        assert!(client.post("/update", b"+ 1 2\n").unwrap().is_ok());
        let health = client.get("/healthz").unwrap().body_text();
        assert!(
            health.contains("\"backend\":\"dynamic-k-reach\""),
            "{health}"
        );
        assert!(health.contains("\"epoch\":1"), "{health}");
    }

    #[test]
    fn metrics_round_trip_parses_and_counters_are_monotone() {
        let server = dynamic_server();
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        let before = scrape(&mut client);
        assert_eq!(before.type_of("kreach_queries_total"), Some("counter"));
        assert_eq!(
            before.type_of("kreach_request_duration_seconds"),
            Some("histogram")
        );
        assert_eq!(before.type_of("kreach_uptime_seconds"), Some("gauge"));
        assert_eq!(before.sum_of("kreach_engine_queries_by_case_total"), 0.0);

        // Straddle a batch: four batch queries plus one single-query GET.
        assert!(client
            .post("/batch", b"0 1\n0 2\n1 2\n2 0\n")
            .unwrap()
            .is_ok());
        assert!(client.get("/reach?s=0&t=1").unwrap().is_ok());
        let after = scrape(&mut client);

        // The per-case counters sum to the request count (Table 8 live).
        assert_eq!(after.value("kreach_queries_total"), Some(5.0));
        assert_eq!(after.value("kreach_engine_queries_total"), Some(5.0));
        assert_eq!(after.sum_of("kreach_engine_queries_by_case_total"), 5.0);
        assert_eq!(
            after.sum_of("kreach_engine_queries_by_resolution_total"),
            5.0
        );
        // Every query classified: nothing fell into the unknown bucket.
        assert_eq!(
            after.labeled("kreach_engine_queries_by_case_total", "case", "unknown"),
            Some(0.0)
        );

        // Cumulative series never move backwards across scrapes.
        let mut compared = 0;
        for sample in before.samples() {
            let cumulative = sample.name.ends_with("_total")
                || sample.name.ends_with("_bucket")
                || sample.name.ends_with("_sum")
                || sample.name.ends_with("_count");
            if !cumulative {
                continue;
            }
            let now = after
                .samples()
                .iter()
                .find(|s| s.name == sample.name && s.labels == sample.labels)
                .unwrap_or_else(|| panic!("series {}{:?} vanished", sample.name, sample.labels));
            assert!(
                now.value >= sample.value,
                "{}{:?} went backwards: {} -> {}",
                sample.name,
                sample.labels,
                sample.value,
                now.value
            );
            compared += 1;
        }
        assert!(compared > 20, "only {compared} cumulative series compared");
    }

    #[test]
    fn concurrent_scrapes_under_load_stay_valid() {
        let g = DiGraph::from_edges(3, [(0, 1)]);
        let engine = Arc::new(BatchEngine::new(
            Arc::new(DynamicKReachBackend::new(g, 2, DynamicOptions::default())),
            EngineConfig::default(),
        ));
        // Handlers own a keep-alive connection for its lifetime: three
        // held-open clients (two loaders + the scraper) need headroom.
        let server = start(
            engine,
            ServerConfig {
                handlers: 4,
                ..tiny_config()
            },
        )
        .unwrap();
        let addr = server.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let loaders: Vec<_> = (0..2)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut client = BlockingClient::connect(addr).unwrap();
                    let mut sent = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        assert!(client.post("/batch", b"0 1\n1 2\n0 2\n").unwrap().is_ok());
                        sent += 3;
                    }
                    sent
                })
            })
            .collect();
        let mut client = BlockingClient::connect(addr).unwrap();
        let mut last = 0.0;
        for _ in 0..10 {
            let mid = scrape(&mut client);
            let queries = mid.value("kreach_queries_total").unwrap();
            assert!(queries >= last, "queries went backwards under load");
            // One scrape is internally consistent even while batches land.
            assert_eq!(
                mid.sum_of("kreach_engine_queries_by_case_total"),
                mid.value("kreach_engine_queries_total").unwrap()
            );
            last = queries;
        }
        stop.store(true, Ordering::Relaxed);
        let sent: u64 = loaders.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(sent > 0);
        let final_scrape = scrape(&mut client);
        assert_eq!(
            final_scrape.value("kreach_queries_total"),
            Some(sent as f64)
        );
    }

    #[test]
    fn slow_queries_land_in_the_log_with_their_spans() {
        let g = Arc::new(DiGraph::from_edges(4, [(0, 1), (1, 2)]));
        let engine = Arc::new(BatchEngine::with_recorder(
            Arc::new(BfsBackend::new(g, 2)),
            EngineConfig::default(),
            Recorder::new(1024),
        ));
        let server = start(
            engine,
            ServerConfig {
                slow_query_us: 1, // everything is slow at a 1µs threshold
                ..tiny_config()
            },
        )
        .unwrap();
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        assert!(client.get("/reach?s=0&t=2").unwrap().is_ok());
        assert!(client.get("/healthz").unwrap().is_ok());
        // The slow entry is recorded after the response is written, so only
        // requests *before* the latest one are guaranteed logged: on a
        // keep-alive connection the server finishes request N before it
        // reads request N+1.
        let dump = client.get("/stats?slow=1").unwrap();
        assert!(dump.is_ok());
        assert!(server.slow_queries() >= 2);
        let json = dump.body_text();
        assert!(json.trim_end().starts_with('['), "{json}");
        assert!(json.contains("\"op\":\"GET /reach\""), "{json}");
        assert!(json.contains("server.request"), "{json}");
        assert!(json.contains("engine.group"), "{json}");
        // The handle-side dump sees the same ring (plus the /stats request
        // itself, which also crossed the threshold by now).
        assert!(server.slow_log_json().contains("\"op\":\"GET /reach\""));
        server.shutdown();
        let report = server.join();
        assert!(report.clean);
        assert!(report.slow_queries >= 2);
    }

    #[test]
    fn slow_log_polls_are_non_destructive_and_drain_is_explicit() {
        let g = Arc::new(DiGraph::from_edges(4, [(0, 1), (1, 2)]));
        let engine = Arc::new(BatchEngine::with_defaults(Arc::new(BfsBackend::new(g, 2))));
        let server = start(
            engine,
            ServerConfig {
                slow_query_us: 1,
                ..tiny_config()
            },
        )
        .unwrap();
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        assert!(client.get("/reach?s=0&t=2").unwrap().is_ok());
        assert!(client.get("/healthz").unwrap().is_ok());
        // Two dashboard polls in a row see the same entries: polling must
        // not erase what an operator is about to read.
        let first = client.get("/stats?slow=1").unwrap().body_text();
        assert!(first.contains("\"op\":\"GET /reach\""), "{first}");
        let second = client.get("/stats?slow=1").unwrap().body_text();
        assert!(second.contains("\"op\":\"GET /reach\""), "{second}");
        // An explicit drain consumes the ring; the monotone total survives.
        let total_before = server.slow_queries();
        let drained = client.get("/stats?slow=1&drain=1").unwrap().body_text();
        assert!(drained.contains("\"op\":\"GET /reach\""), "{drained}");
        // Only requests finished before the drain request are guaranteed
        // gone (the drain itself lands in the ring after responding).
        let after = client.get("/stats?slow=1").unwrap().body_text();
        assert!(!after.contains("\"op\":\"GET /reach\""), "{after}");
        assert!(server.slow_queries() >= total_before, "total is monotone");
    }

    #[test]
    fn windowed_gauges_round_trip_and_stats_carries_the_window_block() {
        let server = dynamic_server();
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        assert!(client
            .post("/batch", b"0 1\n0 2\n1 2\n2 0\n")
            .unwrap()
            .is_ok());
        let scrape = scrape(&mut client);
        // One series per window width, all parseable as gauges.
        for family in [
            "kreach_rps_window",
            "kreach_qps_window",
            "kreach_request_p50_seconds_window",
            "kreach_request_p99_seconds_window",
            "kreach_shed_rate_window",
        ] {
            assert_eq!(scrape.type_of(family), Some("gauge"), "{family}");
            for w in ["1s", "10s", "60s"] {
                assert!(
                    scrape.labeled(family, "w", w).is_some(),
                    "{family} missing w={w}"
                );
            }
        }
        // The batch just served: the 60s window saw its queries.
        assert!(scrape.labeled("kreach_qps_window", "w", "60s").unwrap() > 0.0);
        // Case mix: 6 classes × 3 windows, shares within [0, 1] summing to
        // 1 per window (queries were served inside the 60s window).
        let mix = scrape.samples_of("kreach_case_share_window");
        assert_eq!(mix.len(), 18, "6 classes x 3 windows");
        let sum_60s: f64 = mix
            .iter()
            .filter(|s| s.labels.iter().any(|(k, v)| k == "w" && v == "60s"))
            .map(|s| s.value)
            .sum();
        assert!((sum_60s - 1.0).abs() < 1e-9, "shares sum to 1: {sum_60s}");

        // /stats carries the same data as a JSON block.
        let stats = client.get("/stats").unwrap().body_text();
        for field in [
            "\"window\":{\"1s\":{",
            "\"10s\":{",
            "\"60s\":{",
            "\"qps\":",
            "\"p99_micros\":",
            "\"by_case\":{",
            "\"flight_events\":",
        ] {
            assert!(stats.contains(field), "missing {field} in {stats}");
        }
    }

    #[test]
    fn exemplars_ride_the_request_histogram_and_round_trip() {
        let g = Arc::new(DiGraph::from_edges(4, [(0, 1), (1, 2)]));
        let engine = Arc::new(BatchEngine::with_recorder(
            Arc::new(BfsBackend::new(g, 2)),
            EngineConfig::default(),
            Recorder::new(1024),
        ));
        let server = start(
            engine,
            ServerConfig {
                slow_query_us: 1, // everything is slow: an exemplar is guaranteed
                ..tiny_config()
            },
        )
        .unwrap();
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        assert!(client.get("/reach?s=0&t=2").unwrap().is_ok());
        let scrape = scrape(&mut client);
        let exemplar = scrape
            .samples_of("kreach_request_duration_seconds_bucket")
            .iter()
            .find_map(|s| s.exemplar.clone())
            .expect("a slow request pins an exemplar to its latency bucket");
        let trace_id: u64 = exemplar
            .label("trace_id")
            .expect("exemplar carries the trace id")
            .parse()
            .expect("trace id is numeric");
        assert!(trace_id > 0);
        assert!(exemplar.value > 0.0);
    }

    #[test]
    fn durability_stats_render_and_round_trip_when_present() {
        let g = Arc::new(DiGraph::from_edges(4, [(0, 1), (1, 2)]));
        let engine = Arc::new(BatchEngine::with_defaults(Arc::new(BfsBackend::new(g, 2))));
        let durability = Arc::new(DurabilityStats::new());
        durability.wal_appends.store(3, Ordering::Relaxed);
        durability.wal_records.store(7, Ordering::Relaxed);
        durability.wal_bytes.store(512, Ordering::Relaxed);
        durability.wal_segments.store(2, Ordering::Relaxed);
        durability.wal_write.record(40_000);
        durability.wal_fsync.record(2_000_000);
        durability.note_checkpoint(5, 4096, 9_000_000);
        let obs = ServerObs {
            durability: Some(Arc::clone(&durability)),
            ..ServerObs::default()
        };
        let server = start_with_obs(engine, tiny_config(), obs).unwrap();
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        let dur_scrape = scrape(&mut client);
        assert_eq!(dur_scrape.value("kreach_wal_appends_total"), Some(3.0));
        assert_eq!(dur_scrape.value("kreach_wal_records_total"), Some(7.0));
        assert_eq!(dur_scrape.value("kreach_wal_bytes_total"), Some(512.0));
        assert_eq!(dur_scrape.value("kreach_wal_segments"), Some(2.0));
        assert_eq!(dur_scrape.value("kreach_checkpoints_total"), Some(1.0));
        assert_eq!(dur_scrape.value("kreach_last_checkpoint_epoch"), Some(5.0));
        assert_eq!(
            dur_scrape.value("kreach_last_checkpoint_bytes"),
            Some(4096.0)
        );
        for hist in [
            "kreach_wal_append_write_seconds",
            "kreach_wal_fsync_seconds",
            "kreach_checkpoint_duration_seconds",
        ] {
            assert_eq!(dur_scrape.type_of(hist), Some("histogram"), "{hist}");
            assert_eq!(
                dur_scrape.value(&format!("{hist}_count")),
                Some(1.0),
                "{hist}"
            );
        }
        let age = dur_scrape.value("kreach_checkpoint_age_seconds").unwrap();
        assert!(age >= 0.0, "a checkpoint happened: age is real, got {age}");

        // /healthz gains the durable-staleness fields, with the engine's
        // `"epoch":N` untouched for existing probes.
        let health = client.get("/healthz").unwrap().body_text();
        for field in [
            "\"epoch\":0",
            "\"checkpoint_age_secs\":",
            "\"last_checkpoint_epoch\":5",
            "\"wal_segments\":2",
            "\"wal_lag\":0",
        ] {
            assert!(health.contains(field), "missing {field} in {health}");
        }

        // Without durability stats, none of it renders and /healthz stays
        // minimal.
        let plain = bfs_server();
        let mut client = BlockingClient::connect(plain.addr()).unwrap();
        let plain_scrape = scrape(&mut client);
        assert_eq!(plain_scrape.value("kreach_wal_appends_total"), None);
        assert!(!client
            .get("/healthz")
            .unwrap()
            .body_text()
            .contains("wal_segments"));
    }

    #[test]
    fn flightrec_endpoint_serves_events_and_dumps_when_configured() {
        let dir = std::env::temp_dir().join(format!("kreach-flightrec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = DiGraph::from_edges(3, [(0, 1)]);
        let engine = Arc::new(BatchEngine::new(
            Arc::new(DynamicKReachBackend::new(g, 2, DynamicOptions::default())),
            EngineConfig::default(),
        ));
        let obs = ServerObs {
            flight_dump_dir: Some(dir.clone()),
            ..ServerObs::default()
        };
        let events = Arc::clone(&obs.events);
        let server = start_with_obs(engine, tiny_config(), obs).unwrap();
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        // An applied mutation records an epoch event through the engine.
        assert!(client.post("/update", b"+ 1 2\n").unwrap().is_ok());
        let response = client.post("/debug/flightrec", &[]).unwrap();
        assert!(response.is_ok());
        let body = response.body_text();
        let epoch_line = body
            .lines()
            .find(|l| l.contains("\"kind\":\"epoch\""))
            .unwrap_or_else(|| panic!("no epoch event in {body}"));
        assert!(epoch_line.contains("\"detail\":\"epoch=1"), "{epoch_line}");
        assert!(epoch_line.starts_with('{') && epoch_line.ends_with('}'));
        // The dump landed on disk as the same JSON-lines document.
        let dumped: Vec<_> = std::fs::read_dir(&dir)
            .expect("dump dir created")
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("flightrec-") && n.ends_with(".jsonl"))
            })
            .collect();
        assert_eq!(dumped.len(), 1, "{dumped:?}");
        let on_disk = std::fs::read_to_string(&dumped[0]).unwrap();
        assert!(on_disk.contains("\"kind\":\"epoch\""), "{on_disk}");
        assert_eq!(events.total(), body.lines().count() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
