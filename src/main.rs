//! `kreach` — a small command-line front end to the library.
//!
//! Subcommands:
//!
//! * `kreach stats <edge-list>` — print the Table-2-style statistics of a graph.
//! * `kreach generate <dataset> --output <file> [--scale F] [--seed S]` —
//!   write a synthetic stand-in for one of the paper's datasets as an edge list.
//! * `kreach build <edge-list> --k <K> --output <index-file> [--cover random|degree]`
//!   — build a k-reach index and store it on disk.
//! * `kreach query <index-file> <edge-list> <s> <t>` — load an index and
//!   answer `s →k t`, printing the certificate returned by
//!   [`kreach::core::kreach::KReachIndex::explain`].
//! * `kreach workload <edge-list> --queries N --output <file> [--seed S] [--k K]`
//!   — generate a uniform random query workload file for batch serving.
//! * `kreach batch <index-file> <edge-list> <queries-file>`
//!   — answer a whole workload through the batch engine on one thread;
//!   answers print to stdout (byte-identical to the server's `POST /batch`),
//!   the [`EngineStats`] serving report goes to stderr.
//! * `kreach update <edge-list> <update-workload> [--k K]`
//!   — serve a *mixed* workload that interleaves query batches with edge
//!   insertions/removals (`+ u v` / `- u v` lines): the k-reach index is
//!   maintained incrementally and every applied mutation advances the
//!   epoch, so every answer reflects all mutations before it.
//! * `kreach serve <edge-list> --port P [--handlers N] [--backend kreach|hk|bfs|dynamic]`
//!   — serve live network traffic: an HTTP/1.1 + line-protocol front end
//!   over the batch engine with admission control (`--max-inflight`,
//!   `--max-body`) and graceful drain (`POST /shutdown`). With
//!   `--data-dir DIR` the dynamic backend becomes durable: every acked
//!   update is WAL-appended + fsynced before the ack, a background thread
//!   checkpoints every `--checkpoint-every SECS`, and a restart with the
//!   same directory (edge list no longer needed) restores the exact
//!   pre-crash epoch by replaying the WAL past the newest checkpoint.
//! * `kreach checkpoint --data-dir <dir>` — fold the WAL into a fresh
//!   checkpoint offline, so the next start replays nothing.
//! * `kreach restore --data-dir <dir>` — verify the durable state
//!   (checksums + WAL replay) and report the epoch a start would resume at.
//!
//! The serving commands (`batch`, `update`, `serve`) accept `--trace N`,
//! which turns on the structured span recorder ([`kreach::obs::Recorder`])
//! and prints the N slowest traces as indented span trees on stderr after
//! the run; `serve` additionally takes `--slow-query-us US`, logging every
//! request slower than US microseconds to an in-memory ring dumped by
//! `GET /stats?slow=1`.
//!
//! Unknown `--flags` are rejected with an error rather than ignored.

use kreach::core::kreach::QueryWitness;
use kreach::engine::{
    BatchEngine, DynamicKReachBackend, EngineConfig, KReachBackend, Query, QueryBatch,
};
use kreach::graph::EdgeUpdate;
use kreach::obs::{Recorder, Trace};
use kreach::prelude::*;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

/// Dispatches a command line to its subcommand, returning the text to print.
fn run(args: &[String]) -> Result<String, String> {
    let mut args = args.iter().map(String::as_str);
    match args.next() {
        Some("stats") => cmd_stats(&collect_rest(args)),
        Some("generate") => cmd_generate(&collect_rest(args)),
        Some("build") => cmd_build(&collect_rest(args)),
        Some("query") => cmd_query(&collect_rest(args)),
        Some("workload") => cmd_workload(&collect_rest(args)),
        Some("batch") => cmd_batch(&collect_rest(args)),
        Some("update") => cmd_update(&collect_rest(args)),
        Some("serve") => cmd_serve(&collect_rest(args)),
        Some("checkpoint") => cmd_checkpoint(&collect_rest(args)),
        Some("restore") => cmd_restore(&collect_rest(args)),
        Some("--help") | Some("-h") | None => Ok(usage().to_string()),
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    }
}

fn collect_rest<'a>(rest: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    rest.collect()
}

fn usage() -> &'static str {
    "usage:\n\
     \x20 kreach stats <edge-list>\n\
     \x20 kreach generate <dataset> --output <file> [--scale F] [--seed S]\n\
     \x20 kreach build <edge-list> --k <K> --output <index-file> [--cover random|degree]\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 [--dense-threshold D]\n\
     \x20 kreach query <index-file> <edge-list> <s> <t>\n\
     \x20 kreach workload <edge-list> --queries <N> --output <file> [--seed S] [--k K]\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 [--hot N] [--hot-fraction F]\n\
     \x20 kreach batch <index-file> <edge-list> <queries-file>\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 [--default-k K] [--stats-json <file>] [--trace N]\n\
     \x20 kreach update <edge-list> <update-workload> [--k K]\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 [--stats-json <file>] [--trace N]\n\
     \x20 kreach serve [<edge-list>] [--port P] [--host H] [--backend kreach|hk|bfs|dynamic]\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 [--k K] [--h H]\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 [--handlers N] [--max-inflight N] [--max-body BYTES] [--trace N]\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 [--slow-query-us US] [--data-dir DIR] [--checkpoint-every SECS]\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 [--stats-interval SECS] [--max-wal-lag N] [--failpoints PLAN]\n\
     \x20 kreach checkpoint --data-dir <dir>\n\
     \x20 kreach restore --data-dir <dir>"
}

/// Pulls the value following `flag` out of `args`, if present.
fn flag_value<'a>(args: &[&'a str], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|&a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .copied()
            .map(Some)
            .ok_or_else(|| format!("flag {flag} requires a value")),
    }
}

/// Rejects any `--flag` token not in `allowed` (every flag takes a value, so
/// the token after a known flag is skipped as its value).
fn ensure_known_flags(args: &[&str], allowed: &[&str]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let a = args[i];
        if a.starts_with("--") {
            if !allowed.contains(&a) {
                return Err(if allowed.is_empty() {
                    format!("unknown flag {a:?} (this subcommand takes no flags)")
                } else {
                    format!("unknown flag {a:?} (allowed: {})", allowed.join(", "))
                });
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(())
}

/// The positional (non-flag, non-flag-value) arguments.
fn positionals<'a>(args: &[&'a str]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut skip = false;
    for (i, &a) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            // Every flag of this CLI takes a value.
            skip = args.get(i + 1).is_some();
            continue;
        }
        out.push(a);
    }
    out
}

fn parse_number<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse()
        .map_err(|e| format!("invalid {what} {text:?}: {e}"))
}

fn parse_flag_or<T: std::str::FromStr>(args: &[&str], flag: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flag_value(args, flag)? {
        Some(v) => parse_number(v, flag),
        None => Ok(default),
    }
}

fn cmd_stats(args: &[&str]) -> Result<String, String> {
    ensure_known_flags(args, &[])?;
    let paths = positionals(args);
    let [path] = paths.as_slice() else {
        return Err("stats expects exactly one edge-list path".to_string());
    };
    let g = kreach::graph::io::read_edge_list_file(path).map_err(|e| e.to_string())?;
    let stats =
        kreach::graph::metrics::graph_stats(&g, kreach::graph::metrics::StatsConfig::default());
    Ok(format!(
        "graph {path}\n\
         |V|      {}\n\
         |E|      {}\n\
         |V_dag|  {}\n\
         |E_dag|  {}\n\
         Degmax   {}\n\
         diameter {}\n\
         median   {}\n",
        stats.vertices,
        stats.edges,
        stats.dag_vertices,
        stats.dag_edges,
        stats.max_degree,
        stats.diameter,
        stats.median_shortest_path
    ))
}

fn cmd_generate(args: &[&str]) -> Result<String, String> {
    ensure_known_flags(args, &["--scale", "--seed", "--output"])?;
    let names = positionals(args);
    let [name] = names.as_slice() else {
        return Err("generate expects exactly one dataset name".to_string());
    };
    let spec = spec_by_name(name).ok_or_else(|| format!("unknown dataset {name:?}"))?;
    let scale: usize = parse_flag_or(args, "--scale", 1)?;
    let seed: u64 = parse_flag_or(args, "--seed", 42)?;
    let output = flag_value(args, "--output")?.ok_or("generate requires --output <file>")?;
    let g = spec.scaled(scale).generate(seed);
    kreach::graph::io::write_edge_list_file(&g, output).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {} ({} vertices, {} edges, stand-in for {})\n",
        output,
        g.vertex_count(),
        g.edge_count(),
        spec.name
    ))
}

fn cmd_build(args: &[&str]) -> Result<String, String> {
    ensure_known_flags(args, &["--k", "--output", "--cover", "--dense-threshold"])?;
    let paths = positionals(args);
    let [path] = paths.as_slice() else {
        return Err("build expects exactly one edge-list path".to_string());
    };
    let k: u32 = parse_number(
        flag_value(args, "--k")?.ok_or("build requires --k <K>")?,
        "--k",
    )?;
    let output = flag_value(args, "--output")?.ok_or("build requires --output <index-file>")?;
    let strategy = match flag_value(args, "--cover")? {
        None | Some("degree") => CoverStrategy::DegreePriority,
        Some("random") => CoverStrategy::RandomEdge,
        Some(other) => {
            return Err(format!(
                "unknown cover strategy {other:?} (use random|degree)"
            ))
        }
    };
    // Dense-row degree threshold for the hybrid successor representation
    // (0 disables bitset rows entirely; absent picks the built-in default).
    let dense_row_threshold = match flag_value(args, "--dense-threshold")? {
        None => None,
        Some(v) => match parse_number::<usize>(v, "--dense-threshold")? {
            0 => Some(usize::MAX),
            t => Some(t),
        },
    };
    let g = kreach::graph::io::read_edge_list_file(path).map_err(|e| e.to_string())?;
    let index = KReachIndex::build(
        &g,
        k,
        BuildOptions {
            cover_strategy: strategy,
            threads: 0,
            dense_row_threshold,
        },
    );
    // A finite threshold above every cover-row degree selects zero dense
    // rows — legal, but almost certainly a mistyped flag. Warn on stderr
    // (the index itself is fine; sparse rows answer identically).
    if let Some(threshold) = dense_row_threshold {
        if threshold != usize::MAX
            && index.index_graph().dense_row_count() == 0
            && index.index_edge_count() > 0
        {
            eprintln!(
                "warning: --dense-threshold {threshold} exceeds every cover-row degree; \
                 no dense bitset rows were built (queries fall back to sparse scans)"
            );
        }
    }
    // Format v3 also persists the dense bitset acceleration, so a reload
    // installs it instead of recomputing.
    kreach::store::save_index_v3(&index, output).map_err(|e| e.to_string())?;
    Ok(format!(
        "built {k}-reach index for {path}: cover {} vertices, {} index edges \
         ({} bitset rows at threshold {}), {} bytes (+{} bytes bitset accel) \
         -> {output}\n",
        index.cover_size(),
        index.index_edge_count(),
        index.index_graph().dense_row_count(),
        index.index_graph().dense_threshold(),
        index.size_bytes(),
        index.index_graph().accel_size_bytes(),
    ))
}

fn cmd_query(args: &[&str]) -> Result<String, String> {
    ensure_known_flags(args, &[])?;
    let pos = positionals(args);
    let [index_path, graph_path, s, t] = pos.as_slice() else {
        return Err("query expects <index-file> <edge-list> <s> <t>".to_string());
    };
    let s = VertexId(parse_number::<u32>(s, "source vertex")?);
    let t = VertexId(parse_number::<u32>(t, "target vertex")?);
    let g = kreach::graph::io::read_edge_list_file(graph_path).map_err(|e| e.to_string())?;
    let index = kreach::store::load_index(index_path).map_err(|e| e.to_string())?;
    if s.index() >= g.vertex_count() || t.index() >= g.vertex_count() {
        return Err(format!("query vertices must be < {}", g.vertex_count()));
    }
    let k = index.k();
    match index.explain(&g, s, t) {
        None => Ok(format!("{s} does NOT reach {t} within {k} hops\n")),
        Some(witness) => Ok(format!(
            "{s} reaches {t} within {k} hops ({})\n",
            describe(witness)
        )),
    }
}

fn cmd_workload(args: &[&str]) -> Result<String, String> {
    ensure_known_flags(
        args,
        &[
            "--queries",
            "--seed",
            "--k",
            "--output",
            "--hot",
            "--hot-fraction",
        ],
    )?;
    let paths = positionals(args);
    let [path] = paths.as_slice() else {
        return Err("workload expects exactly one edge-list path".to_string());
    };
    let queries: usize = parse_flag_or(args, "--queries", 1000)?;
    let seed: u64 = parse_flag_or(args, "--seed", 42)?;
    let k: Option<u32> = match flag_value(args, "--k")? {
        Some(v) => Some(parse_number(v, "--k")?),
        None => None,
    };
    let output = flag_value(args, "--output")?.ok_or("workload requires --output <file>")?;
    let hot: usize = parse_flag_or(args, "--hot", 0)?;
    let hot_fraction: f64 = parse_flag_or(args, "--hot-fraction", 0.5)?;
    if !(0.0..=1.0).contains(&hot_fraction) {
        return Err(format!(
            "--hot-fraction must be in [0, 1], got {hot_fraction}"
        ));
    }
    let g = kreach::graph::io::read_edge_list_file(path).map_err(|e| e.to_string())?;
    if g.vertex_count() == 0 {
        return Err(format!("{path} describes an empty graph; nothing to query"));
    }
    let config = WorkloadConfig { queries, seed };
    // --hot N skews the workload onto the N highest-degree ("celebrity")
    // vertices of §4.3; without it every pair over a large graph is unique.
    let workload = if hot > 0 {
        QueryWorkload::skewed(&g, config, hot, hot_fraction)
    } else {
        QueryWorkload::uniform(&g, config)
    };
    kreach::datasets::write_workload_file(workload.pairs(), k, output)
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {} queries over {} vertices{} -> {}\n",
        workload.len(),
        g.vertex_count(),
        if hot > 0 {
            format!(" ({hot} hot vertices)")
        } else {
            String::new()
        },
        output
    ))
}

/// Per-thread span-ring capacity when `--trace` is on. Sized so a serving
/// run keeps a few thousand recent spans per worker without unbounded
/// growth — the slowest traces of interest are always recent ones.
const TRACE_RING_CAPACITY: usize = 4096;

/// Parses `--trace N` and builds the recorder it implies: the production
/// no-op recorder when absent or 0, a real span recorder otherwise.
fn parse_trace(args: &[&str]) -> Result<(usize, Recorder), String> {
    let trace: usize = parse_flag_or(args, "--trace", 0)?;
    let recorder = if trace > 0 {
        Recorder::new(TRACE_RING_CAPACITY)
    } else {
        Recorder::disabled()
    };
    Ok((trace, recorder))
}

/// Drains the recorder and prints the `n` slowest traces as indented span
/// trees on stderr (answers on stdout stay byte-identical regardless).
fn print_slowest_traces(recorder: &Recorder, n: usize) {
    if n == 0 {
        return;
    }
    let traces = Trace::group(recorder.drain());
    if traces.is_empty() {
        eprintln!("--trace: no spans recorded");
        return;
    }
    eprintln!(
        "--trace: {} slowest of {} traces (ring keeps the most recent \
         {TRACE_RING_CAPACITY} spans per thread):",
        n.min(traces.len()),
        traces.len()
    );
    for trace in traces.iter().take(n) {
        eprint!("{}", trace.render_tree());
    }
}

fn cmd_batch(args: &[&str]) -> Result<String, String> {
    ensure_known_flags(args, &["--default-k", "--stats-json", "--trace"])?;
    let pos = positionals(args);
    let [index_path, graph_path, queries_path] = pos.as_slice() else {
        return Err("batch expects <index-file> <edge-list> <queries-file>".to_string());
    };
    let (trace, recorder) = parse_trace(args)?;
    // Resolved before the (possibly long) run so a malformed flag cannot
    // discard a finished batch.
    let stats_json = flag_value(args, "--stats-json")?;

    let g =
        Arc::new(kreach::graph::io::read_edge_list_file(graph_path).map_err(|e| e.to_string())?);
    let index = kreach::store::load_index(index_path).map_err(|e| e.to_string())?;
    if index.index_graph().input_vertex_count() != g.vertex_count() {
        return Err(format!(
            "index {index_path} was built for a graph with {} vertices, but {graph_path} has {}; \
             rebuild the index for this edge list",
            index.index_graph().input_vertex_count(),
            g.vertex_count()
        ));
    }
    let default_k: u32 = parse_flag_or(args, "--default-k", index.k())?;
    let entries = kreach::datasets::read_workload_file(queries_path).map_err(|e| e.to_string())?;
    let batch = QueryBatch::from_triples(&entries, default_k);

    let engine = BatchEngine::with_recorder(
        Arc::new(KReachBackend::new(Arc::clone(&g), index)),
        EngineConfig::default(),
        recorder.clone(),
    );
    let outcome = engine.run(&batch).map_err(|e| e.to_string())?;

    // Answers to stdout (deterministic, and byte-identical to the network
    // server's POST /batch — both go through the shared renderer); the
    // timing-dependent report goes to stderr.
    let out = kreach::datasets::render_answer_lines(batch.answered(&outcome.answers));
    eprintln!("{}", outcome.stats);
    print_slowest_traces(&recorder, trace);
    if let Some(path) = stats_json {
        std::fs::write(path, outcome.stats.to_json() + "\n").map_err(|e| e.to_string())?;
    }
    Ok(out)
}

fn cmd_update(args: &[&str]) -> Result<String, String> {
    ensure_known_flags(args, &["--k", "--stats-json", "--trace"])?;
    let pos = positionals(args);
    let [graph_path, workload_path] = pos.as_slice() else {
        return Err("update expects <edge-list> <update-workload>".to_string());
    };
    let k: u32 = parse_flag_or(args, "--k", 3)?;
    if k == 0 {
        return Err("--k must be at least 1".to_string());
    }
    let (trace, recorder) = parse_trace(args)?;
    let stats_json = flag_value(args, "--stats-json")?;

    let g = kreach::graph::io::read_edge_list_file(graph_path).map_err(|e| e.to_string())?;
    let ops =
        kreach::datasets::read_update_workload_file(workload_path).map_err(|e| e.to_string())?;
    let backend = Arc::new(DynamicKReachBackend::new(
        g,
        k,
        kreach::core::dynamic::DynamicOptions::default(),
    ));
    let engine = BatchEngine::with_recorder(
        Arc::clone(&backend) as Arc<dyn kreach::engine::Reachability>,
        EngineConfig::default(),
        recorder.clone(),
    );

    let started = std::time::Instant::now();
    let mut out = String::new();
    let mut pending: Vec<Query> = Vec::new();
    let mut total_queries = 0usize;
    let mut query_secs = 0.0f64;
    let mut update_secs = 0.0f64;
    let mut mutations = 0usize;

    let flush = |pending: &mut Vec<Query>, out: &mut String| -> Result<(usize, f64), String> {
        if pending.is_empty() {
            return Ok((0, 0.0));
        }
        let batch = QueryBatch::new(std::mem::take(pending));
        let outcome = engine.run(&batch).map_err(|e| e.to_string())?;
        out.push_str(&kreach::datasets::render_answer_lines(
            batch.answered(&outcome.answers),
        ));
        Ok((outcome.stats.queries, outcome.stats.elapsed_secs))
    };

    for op in &ops {
        match *op {
            kreach::datasets::UpdateOp::Query { s, t, k: qk } => {
                pending.push(Query {
                    s,
                    t,
                    k: qk.unwrap_or(k),
                });
            }
            kreach::datasets::UpdateOp::Insert { u, v }
            | kreach::datasets::UpdateOp::Remove { u, v } => {
                let (queries, secs) = flush(&mut pending, &mut out)?;
                total_queries += queries;
                query_secs += secs;
                let insert = matches!(op, kreach::datasets::UpdateOp::Insert { .. });
                let update = if insert {
                    EdgeUpdate::Insert(u, v)
                } else {
                    EdgeUpdate::Remove(u, v)
                };
                let apply_started = std::time::Instant::now();
                let outcome = engine.apply_updates(&[update]).map_err(|e| e.to_string())?;
                update_secs += apply_started.elapsed().as_secs_f64();
                mutations += 1;
                out.push_str(&kreach::datasets::render_update_ack(
                    insert,
                    u,
                    v,
                    outcome.stats.applied() > 0,
                    outcome.epoch,
                ));
                out.push('\n');
            }
        }
    }
    let (queries, secs) = flush(&mut pending, &mut out)?;
    total_queries += queries;
    query_secs += secs;

    let elapsed = started.elapsed().as_secs_f64();
    let stats = backend.with_state(|s| s.stats());
    // Timed directly around the apply_updates calls, not inferred from the
    // wall clock, so query-heavy workloads do not distort the figure.
    let updates_per_sec = if update_secs > 0.0 && mutations > 0 {
        mutations as f64 / update_secs
    } else {
        0.0
    };
    // Per-update maintenance cost: the headline number for the versioned
    // storage path (independent of |E|, unlike the old snapshot-per-update).
    let rows_per_update = stats.rows_patched as f64 / stats.applied().max(1) as f64;
    let summary = format!(
        "dynamic-k-reach · {total_queries} queries · {mutations} mutations \
         ({} applied, {} noops) in {elapsed:.3}s · {updates_per_sec:.0} updates/s · \
         {rows_per_update:.2} rows patched/update ({} total, {} coalesced) · \
         {} cover additions · {} rebuilds · epoch {}",
        stats.applied(),
        stats.noops,
        stats.rows_patched,
        stats.rows_coalesced,
        stats.cover_additions,
        stats.full_rebuilds,
        engine.epoch(),
    );
    eprintln!("{summary}");
    print_slowest_traces(&recorder, trace);
    if let Some(path) = stats_json {
        let json = format!(
            concat!(
                "{{\"queries\":{},\"mutations\":{},\"applied\":{},\"noops\":{},",
                "\"rows_patched\":{},\"rows_coalesced\":{},\"rows_per_update\":{:.3},",
                "\"cover_additions\":{},\"full_rebuilds\":{},",
                "\"epoch\":{},",
                "\"elapsed_secs\":{:.6},\"query_secs\":{:.6},\"update_secs\":{:.6},",
                "\"updates_per_sec\":{:.1}}}\n"
            ),
            total_queries,
            mutations,
            stats.applied(),
            stats.noops,
            stats.rows_patched,
            stats.rows_coalesced,
            rows_per_update,
            stats.cover_additions,
            stats.full_rebuilds,
            engine.epoch(),
            elapsed,
            query_secs,
            update_secs,
            updates_per_sec,
        );
        std::fs::write(path, json).map_err(|e| e.to_string())?;
    }
    Ok(out)
}

/// Builds the requested serving backend over an already-loaded graph.
fn build_backend(
    name: &str,
    g: &Arc<DiGraph>,
    k: u32,
    h: u32,
) -> Result<Arc<dyn kreach::engine::Reachability>, String> {
    Ok(match name {
        "kreach" => {
            let index = KReachIndex::build(g.as_ref(), k, BuildOptions::default());
            Arc::new(kreach::engine::KReachBackend::new(Arc::clone(g), index))
        }
        "hk" => {
            let index = HkReachIndex::build(g.as_ref(), h, k);
            Arc::new(kreach::engine::HkReachBackend::new(Arc::clone(g), index))
        }
        "bfs" => Arc::new(kreach::engine::BfsBackend::new(Arc::clone(g), k)),
        "dynamic" => Arc::new(DynamicKReachBackend::new(
            (**g).clone(),
            k,
            kreach::core::dynamic::DynamicOptions::default(),
        )),
        other => {
            return Err(format!(
                "unknown backend {other:?} (use kreach|hk|bfs|dynamic)"
            ))
        }
    })
}

fn cmd_serve(args: &[&str]) -> Result<String, String> {
    ensure_known_flags(
        args,
        &[
            "--port",
            "--host",
            "--backend",
            "--k",
            "--h",
            "--handlers",
            "--max-inflight",
            "--max-body",
            "--trace",
            "--slow-query-us",
            "--data-dir",
            "--checkpoint-every",
            "--stats-interval",
            "--max-wal-lag",
            "--failpoints",
        ],
    )?;
    let data_dir = flag_value(args, "--data-dir")?;
    let checkpoint_every: u64 = parse_flag_or(args, "--checkpoint-every", 30)?;
    let max_wal_lag: Option<u64> = match flag_value(args, "--max-wal-lag")? {
        Some(v) => Some(
            v.parse()
                .map_err(|e| format!("invalid --max-wal-lag {v:?}: {e}"))?,
        ),
        None => None,
    };
    // `--failpoints <plan>` arms the storage fault injector (chaos drills;
    // debug / `--features failpoints` builds only). The plan is validated
    // here — a typo must fail the command — then exported so the store's
    // io layer picks it up at open.
    if let Some(plan) = flag_value(args, "--failpoints")? {
        if !kreach::store::failpoints_compiled() {
            return Err(
                "--failpoints requires a build with fault injection compiled in \
                 (a debug build, or release with --features failpoints)"
                    .to_string(),
            );
        }
        kreach::store::validate_fault_plan(plan)
            .map_err(|e| format!("invalid --failpoints plan: {e}"))?;
        std::env::set_var("KREACH_FAILPOINTS", plan);
        eprintln!("kreach-store: fault injection armed: {plan}");
    }
    let pos = positionals(args);
    let graph_path = match (pos.as_slice(), data_dir) {
        ([path], _) => Some(*path),
        ([], Some(_)) => None,
        ([], None) => return Err("serve expects exactly one edge-list path".to_string()),
        _ => return Err("serve expects at most one edge-list path".to_string()),
    };
    let port: u16 = parse_flag_or(args, "--port", 7199)?;
    let host = flag_value(args, "--host")?
        .unwrap_or("127.0.0.1")
        .to_string();
    let backend_name = flag_value(args, "--backend")?.unwrap_or(if data_dir.is_some() {
        "dynamic"
    } else {
        "kreach"
    });
    if data_dir.is_some() && backend_name != "dynamic" {
        return Err(format!(
            "--data-dir implies --backend dynamic (only the incrementally \
             maintained index accepts updates), got {backend_name:?}"
        ));
    }
    let k: u32 = parse_flag_or(args, "--k", 3)?;
    if k == 0 {
        return Err("--k must be at least 1".to_string());
    }
    let h: u32 = parse_flag_or(args, "--h", 1)?;
    let server_defaults = kreach::server::ServerConfig::default();
    let handlers: usize = parse_flag_or(args, "--handlers", server_defaults.handlers)?;
    let max_inflight: usize = parse_flag_or(args, "--max-inflight", server_defaults.max_inflight)?;
    let max_body: usize = parse_flag_or(args, "--max-body", server_defaults.max_body_bytes)?;
    let slow_query_us: u64 = parse_flag_or(args, "--slow-query-us", server_defaults.slow_query_us)?;
    let stats_interval: u64 = parse_flag_or(args, "--stats-interval", 0)?;
    let (trace, recorder) = parse_trace(args)?;
    // The slow-query log stores span trees per entry, so it needs a live
    // recorder even when --trace itself was not requested.
    let recorder = if slow_query_us > 0 && !recorder.is_enabled() {
        Recorder::new(TRACE_RING_CAPACITY)
    } else {
        recorder
    };

    // With --data-dir the backend comes from the durable store: restore
    // checkpoint + WAL if the directory has one, otherwise bootstrap from
    // the edge list and take an initial checkpoint so a restart never needs
    // the edge list again. `durable` keeps the concrete handles the
    // checkpointer and the durability sink need.
    let mut durable: Option<(Arc<kreach::store::Store>, Arc<DynamicKReachBackend>, u64)> = None;
    // The observability bundle outlives the server handle: the CLI keeps
    // clones for the stderr ticker, the drain-time flight-recorder dump,
    // and the panic hook.
    let obs_windows = Arc::new(kreach::obs::WindowStats::new());
    let obs_events = Arc::new(kreach::obs::FlightRecorder::default());
    let backend: Arc<dyn kreach::engine::Reachability> = match data_dir {
        Some(dir) => {
            let store = Arc::new(
                kreach::store::Store::open(dir, kreach::core::dynamic::DynamicOptions::default())
                    .map_err(|e| format!("cannot open data dir {dir}: {e}"))?,
            );
            // Installed before restore so the restore itself lands in the
            // flight recorder.
            store.set_events(Arc::clone(&obs_events));
            let (backend, epoch) = if store.has_checkpoint().map_err(|e| e.to_string())? {
                let report = store
                    .restore()
                    .map_err(|e| format!("restore failed: {e}"))?;
                println!(
                    "kreach-store: restored epoch {} from {} (checkpoint epoch {}, \
                     replayed {} wal batches / {} ops{}{})",
                    report.epoch,
                    dir,
                    report.checkpoint_epoch,
                    report.replayed_batches,
                    report.replayed_ops,
                    if report.torn_tail {
                        ", dropped torn tail"
                    } else {
                        ""
                    },
                    if graph_path.is_some() {
                        "; ignoring edge-list argument"
                    } else {
                        ""
                    },
                );
                // k is baked into the restored maintainer state; an
                // explicit --k that disagrees would otherwise be silently
                // ignored.
                if flag_value(args, "--k")?.is_some() && k != report.state.k() {
                    eprintln!(
                        "kreach-store: warning: ignoring --k {k}; the restored state was \
                         built with k={} (bootstrap a fresh data dir to change k)",
                        report.state.k()
                    );
                }
                (
                    Arc::new(DynamicKReachBackend::from_state(report.state)),
                    report.epoch,
                )
            } else {
                let path = graph_path.ok_or_else(|| {
                    format!("{dir} has no checkpoint; serve needs an edge-list to bootstrap")
                })?;
                let g = kreach::graph::io::read_edge_list_file(path).map_err(|e| e.to_string())?;
                let state = kreach::core::dynamic::DynamicKReach::new(
                    g,
                    k,
                    kreach::core::dynamic::DynamicOptions::default(),
                );
                store
                    .checkpoint_state(&state, 0)
                    .map_err(|e| format!("bootstrap checkpoint failed: {e}"))?;
                println!("kreach-store: bootstrapped {dir} from {path} (checkpoint at epoch 0)");
                (Arc::new(DynamicKReachBackend::from_state(state)), 0)
            };
            durable = Some((store, Arc::clone(&backend), epoch));
            backend
        }
        None => {
            let g = Arc::new(
                kreach::graph::io::read_edge_list_file(graph_path.expect("checked above"))
                    .map_err(|e| e.to_string())?,
            );
            build_backend(backend_name, &g, k, h)?
        }
    };
    let engine = Arc::new(BatchEngine::with_recorder(
        backend,
        EngineConfig::default(),
        recorder.clone(),
    ));
    let mut checkpointer = None;
    let mut prober = None;
    if let Some((store, dyn_backend, epoch)) = &durable {
        engine.restore_epoch(*epoch);
        // Every acked update is WAL-appended + fsynced before the ack from
        // here on.
        engine.set_durability(Arc::clone(store) as Arc<dyn kreach::engine::DurabilitySink>);
        if checkpoint_every > 0 {
            checkpointer = Some(kreach::store::spawn_checkpointer(
                Arc::clone(store),
                Arc::clone(&engine),
                Arc::clone(dyn_backend),
                std::time::Duration::from_secs(checkpoint_every),
                *epoch,
            ));
        }
        // If a storage fault fences the engine read-only, this loop probes
        // the WAL with capped exponential backoff and restores read-write
        // serving as soon as the disk recovers — no restart needed.
        prober = Some(kreach::engine::spawn_degraded_prober(
            Arc::clone(&engine),
            std::time::Duration::from_millis(200),
            std::time::Duration::from_secs(5),
        ));
    }
    let info = engine.info();
    let flight_dump_dir = data_dir.map(std::path::PathBuf::from);
    // A panic must not lose the flight recorder: dump it next to the data
    // dir before the default hook aborts/unwinds the report.
    if let Some(dir) = &flight_dump_dir {
        let hook_events = Arc::clone(&obs_events);
        let hook_dir = dir.clone();
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |panic_info| {
            hook_events.record("panic", panic_info.to_string());
            let _ = hook_events.dump_to(&hook_dir);
            previous(panic_info);
        }));
    }
    let handle = kreach::server::start_with_obs(
        Arc::clone(&engine),
        kreach::server::ServerConfig {
            host,
            port,
            handlers,
            max_inflight,
            max_body_bytes: max_body,
            slow_query_us,
            max_wal_lag,
            ..server_defaults
        },
        kreach::server::ServerObs {
            windows: Arc::clone(&obs_windows),
            events: Arc::clone(&obs_events),
            durability: durable
                .as_ref()
                .map(|(store, _, _)| store.durability_stats()),
            flight_dump_dir: flight_dump_dir.clone(),
        },
    )
    .map_err(|e| format!("failed to bind: {e}"))?;

    // `--stats-interval SECS` prints a rolling-window ticker to stderr (the
    // 10s window: wide enough to smooth batch arrivals, narrow enough to
    // show a traffic change within one line or two).
    let ticker_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    if stats_interval > 0 {
        let windows = Arc::clone(&obs_windows);
        let stop = Arc::clone(&ticker_stop);
        std::thread::Builder::new()
            .name("kreach-stats-ticker".to_string())
            .spawn(move || {
                let tick = std::time::Duration::from_millis(250);
                let mut elapsed = std::time::Duration::ZERO;
                let interval = std::time::Duration::from_secs(stats_interval);
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    std::thread::sleep(tick);
                    elapsed += tick;
                    if elapsed >= interval {
                        elapsed = std::time::Duration::ZERO;
                        eprintln!("kreach-obs: {}", windows.snapshot(10).ticker_line());
                    }
                }
            })
            .expect("failed to spawn stats ticker");
    }

    // Printed before blocking (stdout is line-buffered) so scripts can read
    // the actual port back even with --port 0.
    println!(
        "kreach-server listening on http://{} · backend {} · k={} · \
         {} handlers · in-flight budget {} (POST /shutdown to drain)",
        handle.addr(),
        info.backend,
        info.default_k,
        handlers,
        max_inflight,
    );

    // Blocks until a drain is requested over the wire (POST /shutdown).
    let report = handle.join();
    ticker_stop.store(true, std::sync::atomic::Ordering::Release);
    if let Some(ckpt) = checkpointer.take() {
        ckpt.stop();
    }
    if let Some(p) = prober.take() {
        p.stop();
    }
    // Final checkpoint on clean drain, so the next start replays no WAL.
    if let Some((store, dyn_backend, _)) = &durable {
        match kreach::store::engine_checkpoint(store, &engine, dyn_backend) {
            Ok(epoch) => println!("kreach-store: final checkpoint at epoch {epoch}"),
            Err(e) => eprintln!("kreach-store: final checkpoint failed: {e}"),
        }
    }
    // The drain itself is the recorder's last event; then the whole ring
    // goes to disk so a post-mortem can see what led up to the shutdown.
    obs_events.record(
        "drain",
        format!(
            "clean={} admitted={} queries={} mutations={}",
            report.clean, report.metrics.admitted, report.metrics.queries, report.metrics.mutations,
        ),
    );
    if let Some(dir) = &flight_dump_dir {
        match obs_events.dump_to(dir) {
            Ok(path) => println!(
                "kreach-obs: flight recorder ({} events) dumped to {}",
                obs_events.total(),
                path.display()
            ),
            Err(e) => eprintln!("kreach-obs: flight-recorder dump failed: {e}"),
        }
    }
    print_slowest_traces(&recorder, trace);
    let m = &report.metrics;
    Ok(format!(
        "drained clean={} · {} connections admitted ({} shed, {} accepted) · \
         {} http requests · {} line ops · {} queries · {} mutations · \
         {} ok / {} client errors / {} server errors · {} slow queries\n",
        report.clean,
        m.admitted,
        m.shed,
        m.accepted,
        m.http_requests,
        m.line_ops,
        m.queries,
        m.mutations,
        m.ok,
        m.client_errors,
        m.server_errors,
        report.slow_queries,
    ))
}

/// Opens a data directory that must already exist (the read-side commands
/// never create one by accident).
fn open_existing_store(
    args: &[&str],
    what: &str,
) -> Result<(String, kreach::store::Store), String> {
    ensure_known_flags(args, &["--data-dir"])?;
    if !positionals(args).is_empty() {
        return Err(format!("{what} takes only --data-dir <dir>"));
    }
    let dir = flag_value(args, "--data-dir")?.ok_or(format!("{what} requires --data-dir <dir>"))?;
    if !std::path::Path::new(dir).is_dir() {
        return Err(format!("{dir} is not a directory"));
    }
    let store = kreach::store::Store::open(dir, kreach::core::dynamic::DynamicOptions::default())
        .map_err(|e| format!("cannot open data dir {dir}: {e}"))?;
    Ok((dir.to_string(), store))
}

/// `kreach checkpoint --data-dir <dir>`: fold the WAL into a fresh
/// checkpoint offline, so the next `serve` start replays nothing.
fn cmd_checkpoint(args: &[&str]) -> Result<String, String> {
    let (dir, store) = open_existing_store(args, "checkpoint")?;
    let report = store
        .restore()
        .map_err(|e| format!("restore failed: {e}"))?;
    store
        .checkpoint_state(&report.state, report.epoch)
        .map_err(|e| format!("checkpoint failed: {e}"))?;
    Ok(format!(
        "checkpointed {dir} at epoch {} (folded in {} wal batches / {} ops{}; \
         graph {} vertices / {} edges, cover {} vertices)\n",
        report.epoch,
        report.replayed_batches,
        report.replayed_ops,
        if report.torn_tail {
            ", dropped torn tail"
        } else {
            ""
        },
        report.state.graph().vertex_count(),
        report.state.graph().edge_count(),
        report.state.cover_size(),
    ))
}

/// `kreach restore --data-dir <dir>`: load and verify the durable state
/// (checkpoint checksums + WAL replay) and report what a server start
/// would see, without modifying checkpoints, manifest, or WAL records.
fn cmd_restore(args: &[&str]) -> Result<String, String> {
    let (dir, store) = open_existing_store(args, "restore")?;
    let report = store
        .restore()
        .map_err(|e| format!("restore failed: {e}"))?;
    Ok(format!(
        "{dir} restores to epoch {}: checkpoint epoch {}, {} wal batches / {} ops replayed{}\n\
         graph {} vertices / {} edges · cover {} vertices · k={}\n",
        report.epoch,
        report.checkpoint_epoch,
        report.replayed_batches,
        report.replayed_ops,
        if report.torn_tail {
            " (torn tail dropped)"
        } else {
            ""
        },
        report.state.graph().vertex_count(),
        report.state.graph().edge_count(),
        report.state.cover_size(),
        report.state.k(),
    ))
}

fn describe(witness: QueryWitness) -> String {
    match witness {
        QueryWitness::Identity => "source equals target".to_string(),
        QueryWitness::DirectEdge => "direct edge".to_string(),
        QueryWitness::IndexEdge { weight } => {
            format!("both endpoints in the cover, index edge of weight {weight}")
        }
        QueryWitness::ThroughInNeighbor { via, weight } => {
            format!("via covered in-neighbour {via} (index weight {weight})")
        }
        QueryWitness::ThroughOutNeighbor { via, weight } => {
            format!("via covered out-neighbour {via} (index weight {weight})")
        }
        QueryWitness::ThroughSingleCoverVertex { via } => {
            format!("via the shared covered neighbour {via}")
        }
        QueryWitness::ThroughCoverPair {
            first,
            last,
            weight,
        } => {
            format!("via covered vertices {first} .. {last} (index weight {weight})")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn help_and_unknown_subcommands() {
        assert!(run(&args("--help")).unwrap().contains("usage"));
        assert!(run(&[]).unwrap().contains("usage"));
        assert!(run(&args("frobnicate")).is_err());
    }

    #[test]
    fn flag_parsing_helpers() {
        let a = ["build", "g.txt", "--k", "3", "--output", "idx"];
        assert_eq!(flag_value(&a, "--k").unwrap(), Some("3"));
        assert_eq!(flag_value(&a, "--cover").unwrap(), None);
        assert!(flag_value(&["--k"], "--k").is_err());
        assert_eq!(positionals(&a), vec!["build", "g.txt"]);
        assert_eq!(parse_number::<u32>("17", "x").unwrap(), 17);
        assert!(parse_number::<u32>("x", "x").is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_not_ignored() {
        let err = run(&args("build g.txt --k 3 --output x --bogus 1")).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        assert!(err.contains("allowed"), "{err}");
        let err = run(&args("stats g.txt --scale 2")).unwrap_err();
        assert!(err.contains("--scale") && err.contains("no flags"), "{err}");
        assert!(run(&args("generate GO --output x --frobnicate yes")).is_err());
        assert!(run(&args("workload g.txt --output x --banana 3")).is_err());
        assert!(run(&args("batch i g q --turbo on")).is_err());
    }

    #[test]
    fn build_has_one_index_format() {
        let err = run(&args("build g.txt --k 3 --output x --format v2")).unwrap_err();
        assert!(err.contains("--format") && err.contains("allowed"), "{err}");
    }

    #[test]
    fn serving_commands_have_no_worker_count() {
        for command in [
            "batch i g q --workers 2",
            "update g.txt ops.txt --workers 2",
            "serve g.txt --workers 2",
        ] {
            let err = run(&args(command)).unwrap_err();
            assert!(
                err.contains("--workers") && err.contains("allowed"),
                "{err}"
            );
        }
        let err = run(&args("bench-serve --dataset AgroCyc")).unwrap_err();
        assert!(err.contains("unknown subcommand"), "{err}");
    }

    #[test]
    fn end_to_end_generate_build_query() {
        let dir = std::env::temp_dir().join(format!("kreach-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("go.txt");
        let index_path = dir.join("go.idx");
        let graph_arg = graph_path.to_str().unwrap().to_string();
        let index_arg = index_path.to_str().unwrap().to_string();

        let out = run(&args(&format!(
            "generate GO --scale 32 --seed 7 --output {graph_arg}"
        )))
        .expect("generate succeeds");
        assert!(out.contains("stand-in for GO"));

        let out = run(&args(&format!("stats {graph_arg}"))).expect("stats succeeds");
        assert!(out.contains("|V|"));

        let out = run(&args(&format!(
            "build {graph_arg} --k 4 --output {index_arg}"
        )))
        .expect("build succeeds");
        assert!(out.contains("4-reach index"));

        let out =
            run(&args(&format!("query {index_arg} {graph_arg} 0 1"))).expect("query succeeds");
        assert!(out.contains("hops"));

        // Out-of-range vertices are rejected cleanly.
        assert!(run(&args(&format!("query {index_arg} {graph_arg} 0 999999"))).is_err());

        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&index_path).ok();
    }

    #[test]
    fn end_to_end_workload_and_batch_are_deterministic() {
        let dir =
            std::env::temp_dir().join(format!("kreach-cli-batch-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_arg = dir.join("g.txt").to_str().unwrap().to_string();
        let index_arg = dir.join("g.idx").to_str().unwrap().to_string();
        let queries_arg = dir.join("q.txt").to_str().unwrap().to_string();

        run(&args(&format!(
            "generate Kegg --scale 40 --seed 3 --output {graph_arg}"
        )))
        .expect("generate succeeds");
        run(&args(&format!(
            "build {graph_arg} --k 3 --output {index_arg}"
        )))
        .expect("build succeeds");
        let out = run(&args(&format!(
            "workload {graph_arg} --queries 2000 --seed 9 --output {queries_arg}"
        )))
        .expect("workload succeeds");
        assert!(out.contains("2000 queries"), "{out}");

        let serial = run(&args(&format!(
            "batch {index_arg} {graph_arg} {queries_arg}"
        )))
        .expect("batch succeeds");
        let again = run(&args(&format!(
            "batch {index_arg} {graph_arg} {queries_arg}"
        )))
        .expect("second batch succeeds");
        assert_eq!(serial, again, "answers must not change between runs");
        // Tracing is an observer: answers stay byte-identical under --trace.
        let traced = run(&args(&format!(
            "batch {index_arg} {graph_arg} {queries_arg} --trace 3"
        )))
        .expect("traced batch succeeds");
        assert_eq!(serial, traced, "tracing must not change answers");
        assert_eq!(serial.lines().count(), 2000);
        assert!(serial.lines().all(|l| l.ends_with("reachable")));
        assert!(serial.contains(" 3 "), "per-line k column present");

        // A mismatched edge list is rejected instead of answered wrongly.
        let other_arg = dir.join("other.txt").to_str().unwrap().to_string();
        run(&args(&format!(
            "generate Xmark --scale 60 --seed 1 --output {other_arg}"
        )))
        .expect("second generate succeeds");
        let err = run(&args(&format!(
            "batch {index_arg} {other_arg} {queries_arg}"
        )))
        .unwrap_err();
        assert!(err.contains("rebuild the index"), "{err}");
        std::fs::remove_file(dir.join("other.txt")).ok();

        // Honors an explicit per-query k column over the index default.
        std::fs::write(dir.join("q.txt"), "0 1 1\n0 1\n").unwrap();
        let two = run(&args(&format!(
            "batch {index_arg} {graph_arg} {queries_arg}"
        )))
        .expect("mixed-k batch succeeds");
        let lines: Vec<&str> = two.lines().collect();
        assert!(lines[0].starts_with("0 1 1 "));
        assert!(lines[1].starts_with("0 1 3 "));

        // A skewed (celebrity) workload serves too, and --stats-json writes
        // the serving report.
        let stats_arg = dir.join("stats.json").to_str().unwrap().to_string();
        let out = run(&args(&format!(
            "workload {graph_arg} --queries 3000 --seed 2 --hot 16 --hot-fraction 0.9 \
             --output {queries_arg}"
        )))
        .expect("skewed workload succeeds");
        assert!(out.contains("16 hot vertices"), "{out}");
        run(&args(&format!(
            "batch {index_arg} {graph_arg} {queries_arg} --stats-json {stats_arg}"
        )))
        .expect("skewed batch succeeds");
        let stats = std::fs::read_to_string(&stats_arg).unwrap();
        assert!(stats.contains("\"queries\":3000"), "{stats}");
        assert!(run(&args(&format!(
            "workload {graph_arg} --queries 10 --hot 4 --hot-fraction 1.5 --output {queries_arg}"
        )))
        .is_err());

        for f in ["g.txt", "g.idx", "q.txt", "stats.json"] {
            std::fs::remove_file(dir.join(f)).ok();
        }
    }

    #[test]
    fn end_to_end_update_workload_reflects_mutations() {
        let dir =
            std::env::temp_dir().join(format!("kreach-cli-update-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_arg = dir.join("g.txt").to_str().unwrap().to_string();
        let ops_arg = dir.join("ops.txt").to_str().unwrap().to_string();
        let stats_arg = dir.join("stats.json").to_str().unwrap().to_string();

        // Edges 0→1 and 3→2: vertex 2 has no path from 0.
        std::fs::write(dir.join("g.txt"), "0 1\n3 2\n").unwrap();
        // Query, open the path, re-query, close it, re-query. The repeated
        // (0, 2, 2) query's answer must track the mutations.
        std::fs::write(
            dir.join("ops.txt"),
            "0 2 2\n+ 1 2\n0 2 2\n+ 1 2\n- 1 2\n0 2 2\n",
        )
        .unwrap();

        let out = run(&args(&format!(
            "update {graph_arg} {ops_arg} --k 2 --stats-json {stats_arg} --trace 2"
        )))
        .expect("update succeeds");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            vec![
                "0 2 2 unreachable",
                "+ 1 2 applied epoch=1",
                "0 2 2 reachable",
                "+ 1 2 noop epoch=1",
                "- 1 2 applied epoch=2",
                "0 2 2 unreachable",
            ],
            "{out}"
        );
        let stats = std::fs::read_to_string(&stats_arg).unwrap();
        for needle in [
            "\"queries\":3",
            "\"mutations\":3",
            "\"applied\":2",
            "\"noops\":1",
            "\"epoch\":2",
            "\"rows_per_update\":",
            "\"rows_coalesced\":",
            "\"updates_per_sec\":",
        ] {
            assert!(stats.contains(needle), "missing {needle} in {stats}");
        }

        // Out-of-range query vertices are rejected; unknown flags too.
        std::fs::write(dir.join("ops.txt"), "0 99 2\n").unwrap();
        assert!(run(&args(&format!("update {graph_arg} {ops_arg}"))).is_err());
        assert!(run(&args(&format!("update {graph_arg} {ops_arg} --frob 1"))).is_err());
        assert!(run(&args(&format!("update {graph_arg} {ops_arg} --k 0"))).is_err());
        for f in ["g.txt", "ops.txt", "stats.json"] {
            std::fs::remove_file(dir.join(f)).ok();
        }
    }

    #[test]
    fn serve_rejects_bad_flags_and_backends_before_binding() {
        assert!(run(&args("serve")).is_err());
        assert!(run(&args("serve g.txt extra.txt")).is_err());
        assert!(run(&args("serve g.txt --turbo on")).is_err());
        let err = run(&args("serve missing-file.txt --backend nonsense")).unwrap_err();
        // The graph is read before the backend is built, so a missing file
        // errors first; a bad backend errors on a real graph.
        assert!(!err.is_empty());
        let dir =
            std::env::temp_dir().join(format!("kreach-cli-serve-flags-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_arg = dir.join("g.txt").to_str().unwrap().to_string();
        std::fs::write(dir.join("g.txt"), "0 1\n").unwrap();
        let err = run(&args(&format!("serve {graph_arg} --backend nonsense"))).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        assert!(run(&args(&format!("serve {graph_arg} --k 0"))).is_err());
        std::fs::remove_file(dir.join("g.txt")).ok();
    }

    #[test]
    fn serve_answers_over_the_wire_and_drains_on_shutdown() {
        use kreach::server::client::BlockingClient;

        let dir =
            std::env::temp_dir().join(format!("kreach-cli-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_arg = dir.join("g.txt").to_str().unwrap().to_string();
        std::fs::write(dir.join("g.txt"), "0 1\n1 2\n").unwrap();

        // Derive a port from the PID to avoid collisions across test
        // processes; retry a few times in case it is taken.
        let base = 21000 + (std::process::id() % 20000) as u16;
        let mut served = None;
        for attempt in 0..10u16 {
            let port = base.wrapping_add(attempt * 7).max(1024);
            let command = format!(
                "serve {graph_arg} --port {port} --backend dynamic --k 2 \
                 --handlers 2 --max-inflight 8 --trace 2 --slow-query-us 1"
            );
            let thread = std::thread::spawn(move || run(&args(&command)));
            // Wait for the listener to come up (or the thread to fail).
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            let client = loop {
                match BlockingClient::connect(("127.0.0.1", port)) {
                    Ok(client) => break Some(client),
                    Err(_) if thread.is_finished() || std::time::Instant::now() > deadline => {
                        break None
                    }
                    Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
                }
            };
            match client {
                Some(client) => {
                    served = Some((thread, client));
                    break;
                }
                None => {
                    let _ = thread.join(); // bind failed; try the next port
                }
            }
        }
        let (thread, mut client) = served.expect("no bindable port found");
        assert_eq!(
            client.get("/reach?s=0&t=2&k=2").unwrap().body_text(),
            "0 2 2 reachable\n"
        );
        let response = client.post("/update", b"+ 2 0\n0 0 2\n").unwrap();
        assert!(response.is_ok(), "{}", response.body_text());
        assert_eq!(client.post("/shutdown", &[]).unwrap().status, 202);
        let output = thread.join().unwrap().expect("serve exits cleanly");
        assert!(output.contains("drained clean=true"), "{output}");
        assert!(output.contains("mutations"), "{output}");
        // With a 1µs threshold every request is slow, so the drain summary
        // must report a non-zero slow-query count.
        assert!(output.contains("slow queries"), "{output}");
        assert!(!output.contains(" 0 slow queries"), "{output}");
        std::fs::remove_file(dir.join("g.txt")).ok();
    }

    #[test]
    fn build_rejects_bad_cover_strategy_and_missing_flags() {
        assert!(run(&args("build graph.txt --k 3")).is_err());
        assert!(run(&args("build graph.txt --output x.idx")).is_err());
        assert!(cmd_build(&["g.txt", "--k", "3", "--output", "x", "--cover", "bogus"]).is_err());
        assert!(run(&args("generate NotADataset --output x")).is_err());
    }

    #[test]
    fn witness_descriptions_are_informative() {
        assert!(describe(QueryWitness::Identity).contains("equals"));
        assert!(describe(QueryWitness::DirectEdge).contains("direct"));
        assert!(describe(QueryWitness::IndexEdge { weight: 2 }).contains("weight 2"));
        assert!(describe(QueryWitness::ThroughCoverPair {
            first: VertexId(1),
            last: VertexId(2),
            weight: 1
        })
        .contains("1 .. 2"));
    }
}
