//! The traced pass: after the untraced pass, the same traffic is replayed in
//! process through the public functions of each layer, each call timed on
//! its own. The layer numbers come only from here; the end-to-end numbers
//! only from the untraced pass, so timing the layers never slows the
//! numbers users see.

use crate::workload::{Inputs, Kind, BATCH, K, TAIL_OPS};
use kreach_core::{BuildOptions, DynamicKReach, DynamicOptions, KReachIndex, UpdateStats};
use kreach_datasets::{read_workload, render_answer_line, render_answer_lines};
use kreach_engine::{
    BatchEngine, CaseTally, DurabilitySink, DynamicKReachBackend, EngineConfig, KReachBackend,
    Query, QueryBatch, Reachability,
};
use kreach_graph::io::read_edge_list_file;
use kreach_graph::{EdgeUpdate, VersionedAdjGraph, VertexId};
use kreach_server::http::{read_line_bounded, write_response, Request, MAX_LINE_BYTES};
use kreach_store::Store;
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Reads the durable-mixed replay sends at most (the stream is cycled).
const MAX_REPLAYED_READS: usize = 1 << 16;

/// What the traced pass needs from the untraced one.
#[derive(Debug, Clone, Copy)]
pub struct PassFacts {
    /// Mean end-to-end latency of one read request, in nanoseconds.
    pub e2e_mean_ns: f64,
    /// durable-mixed: reads sent over the pass.
    pub reads: u64,
    /// durable-mixed: reads sent per update body over the pass.
    pub reads_per_body: f64,
}

/// Accumulated time of one timed call site.
#[derive(Debug, Default, Clone, Copy)]
struct Span {
    nanos: u128,
}

impl Span {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.nanos += start.elapsed().as_nanos();
        out
    }

    /// Accumulated nanoseconds divided over `per` units of work.
    fn mean_ns(&self, per: u64) -> f64 {
        self.nanos as f64 / per.max(1) as f64
    }
}

/// Per-request spans along the read path, in the order the server runs
/// them.
#[derive(Debug, Default)]
struct ReadPath {
    http_parse: Span,
    parse: Span,
    engine: Span,
    render: Span,
    http_write: Span,
    queries: u64,
    requests: u64,
    /// Queries the workload parser read (on durable-mixed, off the path).
    parsed: u64,
    /// Algorithm-2 case and resolution of every served query.
    tally: CaseTally,
}

/// Runs the traced pass; returns `(metric, value)` pairs in the metric
/// table's naming. `edge_list` is the file the server loaded; `dir` is
/// scratch space for the store probe.
pub fn run(
    kind: Kind,
    inputs: &Inputs,
    edge_list: &Path,
    dir: &Path,
    facts: PassFacts,
) -> Result<Vec<(&'static str, f64)>, String> {
    let queries: Vec<(u32, u32)> = if kind == Kind::DurableMixed {
        inputs.reads.clone()
    } else {
        inputs.pool.iter().flat_map(|r| r.queries.clone()).collect()
    };

    // Set-up layers: what `kreach serve` does before it listens — parse the
    // edge list, then build the static index (Algorithm 1) or bootstrap the
    // dynamic maintainer.
    let mut read = Span::default();
    let graph = read
        .time(|| read_edge_list_file(edge_list))
        .map_err(|e| e.to_string())?;
    let graph = Arc::new(graph);
    let (mut static_build, mut dynamic_build) = (Span::default(), Span::default());
    let index =
        static_build.time(|| KReachIndex::build(graph.as_ref(), K, BuildOptions::default()));
    let dynamic =
        dynamic_build.time(|| DynamicKReach::new((*graph).clone(), K, DynamicOptions::default()));

    // Algorithm-2 kernels, bare: the static index and the dynamic
    // maintainer on the same graph, each timed over the whole query stream
    // (second sweep, so both run warm).
    let static_ns = kernel_ns(&queries, |s, t| index.query_k(graph.as_ref(), s, t, K));
    let dynamic_ns = kernel_ns(&queries, |s, t| dynamic.query(s, t));

    // The read path, through an engine built the way `kreach serve` builds
    // it for this workload.
    let (backend, kernel_ns): (Arc<dyn Reachability>, f64) = if kind.durable() {
        let backend = DynamicKReachBackend::from_state(dynamic.clone());
        (Arc::new(backend), dynamic_ns)
    } else {
        (
            Arc::new(KReachBackend::new(Arc::clone(&graph), index)),
            static_ns,
        )
    };
    let engine = BatchEngine::new(backend, EngineConfig::default());
    let path = if kind == Kind::DurableMixed {
        replay_reads(&engine, inputs, facts)?
    } else {
        replay_batches(&engine, inputs)?
    };
    drop(engine);

    let mut out = read_path_metrics(kind, &path, facts, kernel_ns);
    out.extend([
        ("graph.read_ms", read.nanos as f64 / 1e6),
        ("core.static_build_ms", static_build.nanos as f64 / 1e6),
        ("core.dynamic_build_ms", dynamic_build.nanos as f64 / 1e6),
        ("core.static_query_ns", static_ns),
        ("core.dynamic_query_ns", dynamic_ns),
    ]);
    // Only durable-mixed writes; elsewhere the store probe stops at a
    // checkpoint and a restore of the freshly built state.
    let writes = (kind == Kind::DurableMixed).then(|| inputs.write_probe(TAIL_OPS));
    if let Some(probe) = &writes {
        write_path(inputs, &dynamic, probe, &mut out)?;
    }
    store_probe(&dynamic, writes.as_deref(), dir, &mut out)?;
    Ok(out)
}

/// Mean nanoseconds of one kernel call over `queries` (second of two sweeps).
fn kernel_ns(queries: &[(u32, u32)], kernel: impl Fn(VertexId, VertexId) -> bool) -> f64 {
    let mut elapsed = 0.0;
    for _ in 0..2 {
        let start = Instant::now();
        for &(s, t) in queries {
            black_box(kernel(black_box(VertexId(s)), black_box(VertexId(t))));
        }
        elapsed = start.elapsed().as_nanos() as f64;
    }
    elapsed / queries.len().max(1) as f64
}

/// Parses one request the way the server's connection loop does: the
/// request line first, then headers and body.
fn parse_request(wire: &[u8]) -> Result<Request, String> {
    let mut reader = BufReader::new(wire);
    let line = read_line_bounded(&mut reader, MAX_LINE_BYTES, None)
        .map_err(|e| e.to_string())?
        .ok_or("empty request")?;
    Request::parse(&line, &mut reader, usize::MAX, None).map_err(|e| e.to_string())
}

/// Replays one pass over the batch pool: HTTP parse, workload parse, engine
/// run, answer rendering, HTTP framing — and checks every rendered body.
fn replay_batches(engine: &BatchEngine, inputs: &Inputs) -> Result<ReadPath, String> {
    let mut path = ReadPath::default();
    let mut answers = Vec::new();
    let mut sink = Vec::new();
    for req in &inputs.pool {
        let mut wire = format!(
            "POST /batch HTTP/1.1\r\nHost: kreach\r\nContent-Length: {}\r\n\r\n",
            req.body.len()
        )
        .into_bytes();
        wire.extend_from_slice(&req.body);
        let request = path.http_parse.time(|| parse_request(&wire))?;
        let batch = path.parse.time(|| {
            read_workload(request.body.as_slice())
                .map(|entries| QueryBatch::from_triples(&entries, K))
                .map_err(|e| e.to_string())
        })?;
        let (_, tally) = path
            .engine
            .time(|| engine.run_into(&batch, &mut answers))
            .map_err(|e| e.to_string())?;
        path.tally.merge(&tally);
        let body = path
            .render
            .time(|| render_answer_lines(batch.answered(&answers)));
        if body.as_bytes() != req.expected {
            return Err("traced replay rendered a wrong /batch answer".to_string());
        }
        sink.clear();
        path.http_write
            .time(|| write_response(&mut sink, 200, "text/plain", body.as_bytes(), false))
            .map_err(|e| e.to_string())?;
        path.queries += BATCH as u64;
        path.parsed += BATCH as u64;
        path.requests += 1;
    }
    Ok(path)
}

/// Replays the durable-mixed reads with the writer's bodies interleaved at
/// the rate the untraced pass saw them, so epoch bumps invalidate the cache
/// as they did there.
fn replay_reads(
    engine: &BatchEngine,
    inputs: &Inputs,
    facts: PassFacts,
) -> Result<ReadPath, String> {
    let mut path = ReadPath::default();
    let mut answers = Vec::new();
    let mut sink = Vec::new();
    let reads = (facts.reads as usize).clamp(1, MAX_REPLAYED_READS);
    let mut bodies = inputs.bodies.iter();
    let mut due = facts.reads_per_body;
    for (i, &(s, t)) in inputs.reads.iter().cycle().take(reads).enumerate() {
        if i as f64 >= due {
            due += facts.reads_per_body;
            for &op in bodies.next().into_iter().flatten() {
                engine.apply_updates(&[op]).map_err(|e| e.to_string())?;
            }
        }
        let wire = format!(
            "GET /reach?s={s}&t={t}&k={K} HTTP/1.1\r\nHost: kreach\r\nContent-Length: 0\r\n\r\n"
        );
        let query = path.http_parse.time(|| {
            let request = parse_request(wire.as_bytes())?;
            let field = |key: &str| {
                request
                    .query
                    .iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| v.parse::<u32>().ok())
                    .ok_or_else(|| format!("missing {key}"))
            };
            Ok::<_, String>(Query {
                s: VertexId(field("s")?),
                t: VertexId(field("t")?),
                k: field("k")?,
            })
        })?;
        let batch = QueryBatch::new(vec![query]);
        let (_, tally) = path
            .engine
            .time(|| engine.run_into(&batch, &mut answers))
            .map_err(|e| e.to_string())?;
        path.tally.merge(&tally);
        let line = path.render.time(|| {
            let mut line = render_answer_line(query.s, query.t, query.k, answers[0]);
            line.push('\n');
            line
        });
        sink.clear();
        path.http_write
            .time(|| write_response(&mut sink, 200, "text/plain", line.as_bytes(), false))
            .map_err(|e| e.to_string())?;
        path.queries += 1;
        path.requests += 1;
    }
    // The GET path never parses a workload body; time the workload parser
    // on the same queries anyway, so the metric exists for every workload.
    let lines: Vec<String> = inputs.reads[..reads.min(inputs.reads.len())]
        .iter()
        .map(|(s, t)| format!("{s} {t} {K}\n"))
        .collect();
    for chunk in lines.chunks(BATCH) {
        let body = chunk.concat();
        path.parse
            .time(|| read_workload(body.as_bytes()).map_err(|e| e.to_string()))?;
        path.parsed += chunk.len() as u64;
    }
    Ok(path)
}

/// Read-path layer metrics and the budget: the blocking layers' means
/// against the untraced end-to-end mean.
fn read_path_metrics(
    kind: Kind,
    path: &ReadPath,
    facts: PassFacts,
    kernel_ns: f64,
) -> Vec<(&'static str, f64)> {
    let requests = path.requests;
    let queries = path.queries;
    let parse_on_path = if kind == Kind::DurableMixed {
        0.0
    } else {
        path.parse.mean_ns(requests)
    };
    let blocking = path.http_parse.mean_ns(requests)
        + parse_on_path
        + path.engine.mean_ns(requests)
        + path.render.mean_ns(requests)
        + path.http_write.mean_ns(requests);
    let tally = &path.tally;
    let served = tally.total().max(1) as f64;
    let counts = tally.counts();
    let resolutions = tally.resolutions();
    vec![
        (
            "server.http_parse_us",
            path.http_parse.mean_ns(requests) / 1e3,
        ),
        (
            "server.http_write_us",
            path.http_write.mean_ns(requests) / 1e3,
        ),
        ("server.residual_us", (facts.e2e_mean_ns - blocking) / 1e3),
        (
            "datasets.parse_ns_per_query",
            path.parse.mean_ns(path.parsed),
        ),
        ("datasets.render_ns_per_query", path.render.mean_ns(queries)),
        (
            "engine.run_us_per_request",
            path.engine.mean_ns(requests) / 1e3,
        ),
        (
            "engine.dispatch_ns_per_query",
            path.engine.mean_ns(queries) - kernel_ns,
        ),
        ("core.case1_share", counts[0] as f64 / served),
        ("core.case2_share", counts[1] as f64 / served),
        ("core.case3_share", counts[2] as f64 / served),
        ("core.case4_share", counts[3] as f64 / served),
        ("core.dense_bitset_share", resolutions[1] as f64 / served),
        ("core.sparse_gallop_share", resolutions[2] as f64 / served),
        ("budget.accounted_frac", blocking / facts.e2e_mean_ns),
    ]
}

/// The write path (durable-mixed only): the first [`TAIL_OPS`] mutations
/// of the writer's stream, applied one at a time — as the server applies
/// them — through graph storage, index maintenance and the engine, and
/// once more as a single batch.
fn write_path(
    inputs: &Inputs,
    dynamic: &DynamicKReach,
    probe: &[EdgeUpdate],
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let n = probe.len() as f64;

    let mut storage = VersionedAdjGraph::from_csr(&inputs.graph);
    let mut graph_apply = Span::default();
    graph_apply.time(|| probe.iter().all(|&op| storage.apply(op)));
    drop(storage);

    let mut one = dynamic.clone();
    let mut stats = UpdateStats::default();
    let mut core_apply = Span::default();
    core_apply.time(|| {
        for &op in probe {
            stats.absorb(&one.apply_all(&[op]));
        }
    });
    drop(one);
    let mut batched = dynamic.clone();
    let mut core_batched = Span::default();
    core_batched.time(|| batched.apply_all(probe));
    drop(batched);

    let engine = BatchEngine::new(
        Arc::new(DynamicKReachBackend::from_state(dynamic.clone())),
        EngineConfig::default(),
    );
    let mut engine_apply = Span::default();
    engine_apply.time(|| {
        probe
            .iter()
            .try_for_each(|&op| engine.apply_updates(&[op]).map(drop))
            .map_err(|e| e.to_string())
    })?;
    drop(engine);

    out.extend([
        (
            "engine.apply_us_per_update",
            engine_apply.nanos as f64 / n / 1e3,
        ),
        (
            "core.apply_us_per_update",
            core_apply.nanos as f64 / n / 1e3,
        ),
        (
            "core.apply_batched_us_per_update",
            core_batched.nanos as f64 / n / 1e3,
        ),
        (
            "core.rows_patched_per_update",
            stats.rows_patched as f64 / n,
        ),
        (
            "core.patch_us_per_update",
            stats.patch_nanos as f64 / n / 1e3,
        ),
        (
            "core.repair_us_per_update",
            stats.repair_nanos as f64 / n / 1e3,
        ),
        ("core.full_rebuilds", stats.full_rebuilds as f64),
        ("graph.apply_ns_per_update", graph_apply.nanos as f64 / n),
    ]);
    Ok(())
}

/// The store: checkpoint the freshly built state and restore it. With a
/// write probe, also log it one record per mutation (one fsync each, as
/// the server does) and restore again; the difference between the two
/// restores is replay.
fn store_probe(
    dynamic: &DynamicKReach,
    writes: Option<&[EdgeUpdate]>,
    dir: &Path,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let store_dir = dir.join("store-probe");
    let store = Store::open(&store_dir, DynamicOptions::default()).map_err(|e| e.to_string())?;
    let durability = store.durability_stats();
    let mut checkpoint = Span::default();
    checkpoint
        .time(|| store.checkpoint_state(dynamic, 0))
        .map_err(|e| e.to_string())?;
    let mut restore = Span::default();
    restore
        .time(|| store.restore())
        .map_err(|e| e.to_string())?;
    out.extend([
        ("store.checkpoint_ms", checkpoint.nanos as f64 / 1e6),
        (
            "store.checkpoint_mb",
            durability.last_checkpoint_bytes.load(Ordering::Relaxed) as f64 / (1u64 << 20) as f64,
        ),
        ("store.restore_ms", restore.nanos as f64 / 1e6),
    ]);
    if let Some(probe) = writes {
        let n = probe.len() as f64;
        for (epoch, &op) in (1u64..).zip(probe) {
            store.append(epoch, &[op]).map_err(|e| e.to_string())?;
        }
        let mut replay = Span::default();
        let report = replay.time(|| store.restore()).map_err(|e| e.to_string())?;
        if report.replayed_ops != probe.len() {
            return Err(format!(
                "store probe replayed {} ops, logged {}",
                report.replayed_ops,
                probe.len()
            ));
        }
        drop(report);
        let appends = durability.wal_fsync.count().max(1) as f64;
        out.extend([
            (
                "store.wal_write_us",
                durability.wal_write.sum_nanos() as f64 / appends / 1e3,
            ),
            (
                "store.wal_fsync_us",
                durability.wal_fsync.sum_nanos() as f64 / appends / 1e3,
            ),
            (
                "store.wal_bytes_per_update",
                durability.wal_bytes.load(Ordering::Relaxed) as f64 / n,
            ),
            (
                "store.replay_us_per_update",
                (replay.nanos as f64 - restore.nanos as f64) / n / 1e3,
            ),
        ]);
    }
    drop(store);
    std::fs::remove_dir_all(&store_dir).map_err(|e| e.to_string())?;
    Ok(())
}
