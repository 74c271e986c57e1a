//! Query-path throughput suite: the Algorithm-2 fast path vs. the naive
//! nested-loop formulation, per query case, plus engine batch throughput.
//!
//! Two workloads:
//!
//! * **hub-fanout** — a synthetic celebrity graph built for the worst Case 4
//!   of §4.2.2: every query endpoint is an *uncovered* vertex with a large
//!   covered neighbourhood (fan `f`), so the naive path pays
//!   `O(f² · log outDeg_I)` binary-search probes per query while the hybrid
//!   path answers with bitset-ANDs over distance-bucketed cover rows.
//!   Negative cross-partition pairs are included deliberately: they force
//!   full scans on both paths (no early exit), which is where the asymptotic
//!   gap actually shows.
//! * **uniform** — a generated power-law graph with uniform random pairs,
//!   reporting the query-case (cover-hit) distribution of Table 8 and
//!   guarding against regressions on the common Cases 1–3.
//!
//! Emits a human table per workload and a machine-readable
//! `BENCH_query.json` (override with `--output`) with before/after
//! microseconds per case, speedups, the case distribution, and engine
//! queries/sec — the perf-trajectory artifact CI uploads per PR.
//!
//! `--smoke` shrinks everything for CI; the JSON shape is identical, but a
//! smoke run writes it only to an explicit `--output`, so it never replaces
//! the checked-in non-smoke record.

use kreach_bench::Table;
use kreach_core::{BuildOptions, KReachIndex, QueryCase, VertexCover};
use kreach_engine::{BatchEngine, EngineConfig, EngineStats, KReachBackend, Query, QueryBatch};
use kreach_graph::generators::GeneratorSpec;
use kreach_graph::{DiGraph, VertexId};
use kreach_obs::{FlightRecorder, Recorder, WindowStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

struct Config {
    smoke: bool,
    seed: u64,
    queries: usize,
    /// Where the JSON goes: `--output`, else `BENCH_query.json` unless
    /// `--smoke`.
    output: Option<String>,
    /// Markdown table of calibrated targets; when set, the run exits
    /// nonzero if the hub Case-4 fast path regresses past 2x its target.
    check_targets: Option<String>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Config {
    let mut config = Config {
        smoke: false,
        seed: 42,
        queries: 2_000,
        output: None,
        check_targets: None,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("flag {flag} requires a value"))
        };
        match flag.as_str() {
            "--smoke" => config.smoke = true,
            "--seed" => config.seed = value("--seed").parse().expect("--seed"),
            "--queries" => config.queries = value("--queries").parse().expect("--queries"),
            "--output" => config.output = Some(value("--output")),
            "--check-targets" => config.check_targets = Some(value("--check-targets")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: query_throughput [--smoke] [--seed S] [--queries N] [--output FILE] \
                     [--check-targets TARGETS.md]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if config.smoke {
        config.queries = config.queries.min(300);
    } else if config.output.is_none() {
        config.output = Some("BENCH_query.json".to_string());
    }
    config
}

/// Per-case measurement: the naive nested-loop path vs. the hybrid fast path
/// over the same query list, with answers cross-checked.
struct CaseReport {
    case: QueryCase,
    queries: usize,
    naive_micros: f64,
    /// Median of `fast_samples`.
    fast_micros: f64,
    /// Independent timings of the fast path, so one sample slowed by
    /// machine load cannot fail the regression gate.
    fast_samples: [f64; FAST_SAMPLES],
}

/// Timings taken of each case's fast path.
const FAST_SAMPLES: usize = 5;

/// The median of `samples` (the upper middle one for an even count).
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

impl CaseReport {
    fn speedup(&self) -> f64 {
        if self.fast_micros > 0.0 {
            self.naive_micros / self.fast_micros
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"case\":{},\"queries\":{},\"naive_us\":{:.4},\"fast_us\":{:.4},\"speedup\":{:.2}}}",
            self.case.number(),
            self.queries,
            self.naive_micros,
            self.fast_micros,
            self.speedup()
        )
    }
}

/// Times `f` over enough repetitions of the query list to cross `min_nanos`,
/// returning microseconds per query.
fn time_per_query(
    queries: &[(VertexId, VertexId)],
    min_nanos: u128,
    mut f: impl FnMut(VertexId, VertexId) -> bool,
) -> f64 {
    assert!(!queries.is_empty());
    let mut reps = 0u32;
    let started = Instant::now();
    loop {
        let mut sink = 0usize;
        for &(s, t) in queries {
            sink += f(s, t) as usize;
        }
        std::hint::black_box(sink);
        reps += 1;
        if started.elapsed().as_nanos() >= min_nanos || reps >= 1_000 {
            break;
        }
    }
    started.elapsed().as_secs_f64() * 1e6 / (reps as usize * queries.len()) as f64
}

fn measure_case(
    g: &DiGraph,
    index: &KReachIndex,
    case: QueryCase,
    queries: &[(VertexId, VertexId)],
    min_nanos: u128,
) -> CaseReport {
    // Answers must be byte-identical before anything is timed.
    for &(s, t) in queries {
        let (fast, fast_case) = index.query_with_case(g, s, t);
        let (naive, _) = index.query_with_case_naive(g, s, t);
        assert_eq!(fast_case, case, "workload bucket mislabeled ({s},{t})");
        assert_eq!(fast, naive, "fast/naive divergence on ({s},{t})");
    }
    let naive_micros = time_per_query(queries, min_nanos, |s, t| {
        index.query_with_case_naive(g, s, t).0
    });
    let fast_samples: [f64; FAST_SAMPLES] = std::array::from_fn(|_| {
        time_per_query(queries, min_nanos, |s, t| index.query_with_case(g, s, t).0)
    });
    CaseReport {
        case,
        queries: queries.len(),
        naive_micros,
        fast_micros: median(&fast_samples),
        fast_samples,
    }
}

/// Batched (target-grouped) Case-4 dispatch vs. one `query` call per member,
/// over the same groups, answers cross-checked byte-for-byte first.
struct BatchedReport {
    batch: usize,
    per_query_micros: f64,
    batched_micros: f64,
}

impl BatchedReport {
    fn speedup(&self) -> f64 {
        if self.batched_micros > 0.0 {
            self.per_query_micros / self.batched_micros
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"batch\":{},\"per_query_us\":{:.4},\"batched_us\":{:.4},\"speedup\":{:.2}}}",
            self.batch,
            self.per_query_micros,
            self.batched_micros,
            self.speedup()
        )
    }
}

/// Measures `groups` (each a shared target plus `batch` sources) through the
/// grouped kernel and through per-query calls, µs per answered query each way.
fn measure_batched(
    g: &DiGraph,
    index: &KReachIndex,
    groups: &[(VertexId, Vec<VertexId>)],
    min_nanos: u128,
) -> BatchedReport {
    let batch = groups[0].1.len();
    let total: usize = groups.iter().map(|(_, sources)| sources.len()).sum();
    let mut answers = vec![false; batch];
    // Byte-identical before anything is timed.
    for (t, sources) in groups {
        answers.clear();
        answers.resize(sources.len(), false);
        index.query_group_k(g, sources, *t, index.k(), &mut answers);
        for (&answer, &s) in answers.iter().zip(sources) {
            assert_eq!(
                answer,
                index.query_with_case(g, s, *t).0,
                "batched/per-query divergence on ({s},{t})"
            );
        }
    }
    let time = |run_groups: &mut dyn FnMut() -> usize| {
        let mut reps = 0u32;
        let started = Instant::now();
        loop {
            std::hint::black_box(run_groups());
            reps += 1;
            if started.elapsed().as_nanos() >= min_nanos || reps >= 1_000 {
                break;
            }
        }
        started.elapsed().as_secs_f64() * 1e6 / (reps as usize * total) as f64
    };
    let per_query_micros = time(&mut || {
        let mut sink = 0usize;
        for (t, sources) in groups {
            for &s in sources {
                sink += index.query_with_case(g, s, *t).0 as usize;
            }
        }
        sink
    });
    let batched_micros = time(&mut || {
        let mut sink = 0usize;
        for (t, sources) in groups {
            index.query_group_k(g, sources, *t, index.k(), &mut answers);
            sink += answers.iter().filter(|&&a| a).count();
        }
        sink
    });
    BatchedReport {
        batch,
        per_query_micros,
        batched_micros,
    }
}

/// Cost of attaching the v2 telemetry sinks — the rolling [`WindowStats`]
/// and the [`FlightRecorder`] — to the engine, against the same engine
/// bare. Both sides take the best of three fresh-engine runs so scheduler
/// noise doesn't masquerade as overhead; the window feed is one atomic
/// batch per engine run, so the per-query p50 must stay inside the 5%
/// budget the observability layer is held to.
struct ObsWindowReport {
    baseline_p50_us: f64,
    instrumented_p50_us: f64,
    budget_pct: f64,
}

impl ObsWindowReport {
    fn overhead_pct(&self) -> f64 {
        if self.baseline_p50_us > 0.0 {
            (self.instrumented_p50_us - self.baseline_p50_us) / self.baseline_p50_us * 100.0
        } else {
            0.0
        }
    }

    fn within_budget(&self) -> bool {
        self.overhead_pct() < self.budget_pct
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"baseline_p50_us\":{:.4},\"instrumented_p50_us\":{:.4},",
                "\"overhead_pct\":{:.2},\"budget_pct\":{:.1},\"within_budget\":{}}}"
            ),
            self.baseline_p50_us,
            self.instrumented_p50_us,
            self.overhead_pct(),
            self.budget_pct,
            self.within_budget(),
        )
    }
}

fn obs_window_run(
    g: &Arc<DiGraph>,
    index: &KReachIndex,
    queries: &[(VertexId, VertexId)],
) -> ObsWindowReport {
    let batch = QueryBatch::new(
        queries
            .iter()
            .map(|&(s, t)| Query { s, t, k: index.k() })
            .collect(),
    );
    let best_p50 = |attach_sinks: bool| -> f64 {
        (0..3)
            .map(|_| {
                let engine = BatchEngine::new(
                    Arc::new(KReachBackend::new(Arc::clone(g), index.clone())),
                    EngineConfig::default(),
                );
                if attach_sinks {
                    let windows = Arc::new(WindowStats::new());
                    engine.set_windows(Arc::clone(&windows));
                    engine.set_events(Arc::new(FlightRecorder::default()));
                    let stats = engine.run(&batch).expect("workload in range").stats;
                    // The sinks must actually be live for the comparison
                    // to mean anything.
                    assert!(
                        windows.snapshot(60).queries > 0,
                        "window sink saw no queries"
                    );
                    stats.p50_micros
                } else {
                    engine
                        .run(&batch)
                        .expect("workload in range")
                        .stats
                        .p50_micros
                }
            })
            .fold(f64::INFINITY, f64::min)
    };
    ObsWindowReport {
        baseline_p50_us: best_p50(false),
        instrumented_p50_us: best_p50(true),
        budget_pct: 5.0,
    }
}

struct WorkloadReport {
    name: String,
    vertices: usize,
    edges: usize,
    k: u32,
    cover_size: usize,
    dense_rows: usize,
    dense_threshold: usize,
    accel_bytes: usize,
    /// Fraction of uniform random pairs classified into each case (the
    /// Table-8 "cover-hit" distribution).
    case_distribution: [f64; 4],
    cases: Vec<CaseReport>,
    /// Target-grouped batched dispatch vs. per-query calls at several batch
    /// sizes (hub workload only; empty elsewhere).
    batched: Vec<BatchedReport>,
    /// Engine batch run with the production no-op recorder.
    engine: EngineStats,
    /// The same batch fully traced, to keep the instrumentation overhead
    /// honest (before/after p50 in one artifact).
    engine_traced: EngineStats,
    /// The same batch with the rolling-window and flight-recorder sinks
    /// attached, vs bare — the v2 telemetry overhead audit.
    obs_window: ObsWindowReport,
}

impl WorkloadReport {
    fn to_json(&self) -> String {
        let cases: Vec<String> = self.cases.iter().map(CaseReport::to_json).collect();
        let batched: Vec<String> = self.batched.iter().map(BatchedReport::to_json).collect();
        format!(
            concat!(
                "{{\"workload\":\"{}\",\"vertices\":{},\"edges\":{},\"k\":{},",
                "\"cover_size\":{},\"dense_rows\":{},\"dense_threshold\":{},",
                "\"accel_bytes\":{},",
                "\"case_distribution\":[{:.4},{:.4},{:.4},{:.4}],",
                "\"cases\":[{}],\"batched\":[{}],",
                "\"engine_qps\":{:.1},",
                // The engine objects share EngineStats' JSON schema — the
                // same "cases"/"resolutions" labeled-count objects the
                // serving path reports.
                "\"engine\":{},\"engine_traced\":{},\"obs_window\":{}}}"
            ),
            self.name,
            self.vertices,
            self.edges,
            self.k,
            self.cover_size,
            self.dense_rows,
            self.dense_threshold,
            self.accel_bytes,
            self.case_distribution[0],
            self.case_distribution[1],
            self.case_distribution[2],
            self.case_distribution[3],
            cases.join(","),
            batched.join(","),
            self.engine.queries_per_sec,
            self.engine.to_json(),
            self.engine_traced.to_json(),
            self.obs_window.to_json(),
        )
    }

    fn print(&self) {
        let mut table = Table::new(["case", "queries", "naive µs", "fast µs", "speedup"]);
        for report in &self.cases {
            table.row([
                format!("case {}", report.case.number()),
                report.queries.to_string(),
                format!("{:.3}", report.naive_micros),
                format!("{:.3}", report.fast_micros),
                format!("{:.2}x", report.speedup()),
            ]);
        }
        table.print(&format!(
            "{} (|V| = {}, |E| = {}, k = {}, cover {}, {} bitset rows @ threshold {}, \
             case mix {:.0}/{:.0}/{:.0}/{:.0}%, engine {:.0} q/s)",
            self.name,
            self.vertices,
            self.edges,
            self.k,
            self.cover_size,
            self.dense_rows,
            self.dense_threshold,
            100.0 * self.case_distribution[0],
            100.0 * self.case_distribution[1],
            100.0 * self.case_distribution[2],
            100.0 * self.case_distribution[3],
            self.engine.queries_per_sec,
        ));
        println!(
            "  engine p50 {:.3} µs (no-op recorder) vs {:.3} µs traced · \
             batch case mix {:?}",
            self.engine.p50_micros, self.engine_traced.p50_micros, self.engine.case_counts,
        );
        println!(
            "  obs window: p50 {:.3} µs bare vs {:.3} µs with windows+events \
             ({:+.2}%, budget {:.0}%)",
            self.obs_window.baseline_p50_us,
            self.obs_window.instrumented_p50_us,
            self.obs_window.overhead_pct(),
            self.obs_window.budget_pct,
        );
        for report in &self.batched {
            println!(
                "  batched case-4 @ batch {}: {:.3} µs/q grouped vs {:.3} µs/q per-query \
                 ({:.2}x)",
                report.batch,
                report.batched_micros,
                report.per_query_micros,
                report.speedup(),
            );
        }
    }
}

/// The hub-fanout graph: `mids` cover vertices split into two halves that
/// are densely connected internally (random forward mid→mid edges) but never
/// across; uncovered sources fan into the lower half and uncovered targets
/// are fed from either half. Every source/target query is Case 4 with `fan`
/// covered neighbours a side; pairs fed from the upper half are negatives
/// that force full scans.
struct HubFanout {
    graph: DiGraph,
    mids: usize,
    sources: usize,
    targets: usize,
}

impl HubFanout {
    fn build(mids: usize, sources: usize, targets: usize, fan: usize, rng: &mut StdRng) -> Self {
        assert!(mids.is_multiple_of(2));
        let half = mids / 2;
        let n = mids + sources + targets;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        // Dense intra-half connectivity: ~4 forward random edges per mid keep
        // index rows large (a mid reaches a big slice of its half within k).
        for m in 0..mids {
            let (lo, hi) = if m < half { (0, half) } else { (half, mids) };
            edges.push((m as u32, (lo + (m + 1 - lo) % (hi - lo)) as u32));
            for _ in 0..4 {
                let to = rng.gen_range(lo as u32..hi as u32);
                if to as usize != m {
                    edges.push((m as u32, to));
                }
            }
        }
        // Sources fan into the lower half; targets are fed half from the
        // lower half (reachable pairs) and half from the upper (negatives).
        for s in 0..sources {
            let sv = (mids + s) as u32;
            for _ in 0..fan {
                edges.push((sv, rng.gen_range(0u32..half as u32)));
            }
        }
        for t in 0..targets {
            let tv = (mids + sources + t) as u32;
            let (lo, hi) = if t % 2 == 0 {
                (half as u32, mids as u32)
            } else {
                (0u32, half as u32)
            };
            for _ in 0..fan {
                edges.push((rng.gen_range(lo..hi), tv));
            }
        }
        HubFanout {
            graph: DiGraph::from_edges(n, edges),
            mids,
            sources,
            targets,
        }
    }

    fn mid(&self, i: usize) -> VertexId {
        VertexId((i % self.mids) as u32)
    }

    fn source(&self, i: usize) -> VertexId {
        VertexId((self.mids + i % self.sources) as u32)
    }

    fn target(&self, i: usize) -> VertexId {
        VertexId((self.mids + self.sources + i % self.targets) as u32)
    }
}

/// Uniform random pairs bucketed by query case, capped per bucket.
fn bucket_uniform(
    g: &DiGraph,
    index: &KReachIndex,
    per_case: usize,
    rng: &mut StdRng,
) -> ([Vec<(VertexId, VertexId)>; 4], [f64; 4]) {
    let n = g.vertex_count() as u32;
    let mut buckets: [Vec<(VertexId, VertexId)>; 4] = Default::default();
    let mut seen = [0usize; 4];
    let mut sampled = 0usize;
    let budget = per_case * 400;
    while sampled < budget && buckets.iter().any(|b| b.len() < per_case) {
        let s = VertexId(rng.gen_range(0u32..n));
        let t = VertexId(rng.gen_range(0u32..n));
        let case = index.classify(s, t).number() as usize - 1;
        seen[case] += 1;
        sampled += 1;
        if buckets[case].len() < per_case {
            buckets[case].push((s, t));
        }
    }
    let total: usize = seen.iter().sum();
    let mut distribution = [0.0f64; 4];
    for (slot, &count) in distribution.iter_mut().zip(seen.iter()) {
        *slot = count as f64 / total.max(1) as f64;
    }
    (buckets, distribution)
}

/// Runs the query list through the batch engine twice — once with the
/// production no-op recorder and once fully traced — so the artifact
/// records both the fast-path p50 and the cost of turning tracing on.
fn engine_runs(
    g: &Arc<DiGraph>,
    index: &KReachIndex,
    queries: &[(VertexId, VertexId)],
) -> (EngineStats, EngineStats) {
    let batch = QueryBatch::new(
        queries
            .iter()
            .map(|&(s, t)| Query { s, t, k: index.k() })
            .collect(),
    );
    let run = |recorder: Recorder| {
        let engine = BatchEngine::with_recorder(
            Arc::new(KReachBackend::new(Arc::clone(g), index.clone())),
            EngineConfig::default(),
            recorder,
        );
        engine.run(&batch).expect("workload in range").stats
    };
    (run(Recorder::disabled()), run(Recorder::new(4096)))
}

fn hub_workload(config: &Config, min_nanos: u128) -> WorkloadReport {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x48_55_42);
    let (mids, endpoints, fan) = if config.smoke {
        (256, 48, 16)
    } else {
        (2048, 192, 64)
    };
    let hub = HubFanout::build(mids, endpoints, endpoints, fan, &mut rng);
    let g = Arc::new(hub.graph.clone());
    let k = 3;
    let cover = VertexCover::from_members(g.vertex_count(), (0..mids as u32).map(VertexId));
    assert!(
        cover.covers_all_edges(g.as_ref()),
        "mids must cover all edges"
    );
    let index = KReachIndex::build_with_cover(g.as_ref(), k, &cover, BuildOptions::default());

    let per_case = config.queries.max(64);
    let mut case4 = Vec::with_capacity(per_case);
    let mut case3 = Vec::with_capacity(per_case);
    let mut case2 = Vec::with_capacity(per_case);
    let mut case1 = Vec::with_capacity(per_case);
    for i in 0..per_case {
        case4.push((hub.source(i), hub.target(i * 7 + 1)));
        case3.push((
            hub.source(i),
            hub.mid(rng.gen_range(0..mids as u32) as usize),
        ));
        case2.push((
            hub.mid(rng.gen_range(0..mids as u32) as usize),
            hub.target(i),
        ));
        case1.push((
            hub.mid(rng.gen_range(0..mids as u32) as usize),
            hub.mid(rng.gen_range(0..mids as u32) as usize),
        ));
    }

    // Target-grouped batches: for each batch size, 32 fan-in groups of
    // distinct uncovered targets, every member Case 4 — the shape the
    // serving path's grouped dispatch exploits.
    let batched = [16usize, 64, 256]
        .iter()
        .map(|&batch| {
            let groups: Vec<(VertexId, Vec<VertexId>)> = (0..32)
                .map(|j| {
                    let sources = (0..batch).map(|i| hub.source(i * 3 + j)).collect();
                    (hub.target(j), sources)
                })
                .collect();
            measure_batched(&g, &index, &groups, min_nanos)
        })
        .collect();

    let (engine, engine_traced) = engine_runs(&g, &index, &case4);
    let obs_window = obs_window_run(&g, &index, &case4);
    let ig = index.index_graph();
    WorkloadReport {
        name: "hub-fanout".to_string(),
        vertices: g.vertex_count(),
        edges: g.edge_count(),
        k,
        cover_size: index.cover_size(),
        dense_rows: ig.dense_row_count(),
        dense_threshold: ig.dense_threshold(),
        // Whole acceleration footprint: dense bitset rows plus the lazily
        // built position-adjacency tables (the old number missed the latter).
        accel_bytes: index.accel_size_bytes(),
        // The crafted workload is balanced by construction.
        case_distribution: [0.25, 0.25, 0.25, 0.25],
        cases: vec![
            measure_case(&g, &index, QueryCase::BothInCover, &case1, min_nanos),
            measure_case(&g, &index, QueryCase::SourceInCover, &case2, min_nanos),
            measure_case(&g, &index, QueryCase::TargetInCover, &case3, min_nanos),
            measure_case(&g, &index, QueryCase::NeitherInCover, &case4, min_nanos),
        ],
        batched,
        engine,
        engine_traced,
        obs_window,
    }
}

fn uniform_workload(config: &Config, min_nanos: u128) -> WorkloadReport {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x554E49);
    let (n, m, hubs) = if config.smoke {
        (2_000, 8_000, 6)
    } else {
        (20_000, 90_000, 12)
    };
    let g = Arc::new(GeneratorSpec::PowerLaw { n, m, hubs }.generate(config.seed));
    let k = 3;
    let index = KReachIndex::build(g.as_ref(), k, BuildOptions::default());
    let per_case = config.queries.max(64);
    let (buckets, distribution) = bucket_uniform(&g, &index, per_case, &mut rng);
    let cases = [
        QueryCase::BothInCover,
        QueryCase::SourceInCover,
        QueryCase::TargetInCover,
        QueryCase::NeitherInCover,
    ];
    let mut reports = Vec::new();
    let mut engine_queries = Vec::new();
    for (case, bucket) in cases.into_iter().zip(buckets.iter()) {
        if bucket.is_empty() {
            continue;
        }
        engine_queries.extend_from_slice(bucket);
        reports.push(measure_case(&g, &index, case, bucket, min_nanos));
    }
    let (engine, engine_traced) = engine_runs(&g, &index, &engine_queries);
    let obs_window = obs_window_run(&g, &index, &engine_queries);
    let ig = index.index_graph();
    WorkloadReport {
        name: "uniform".to_string(),
        vertices: g.vertex_count(),
        edges: g.edge_count(),
        k,
        cover_size: index.cover_size(),
        dense_rows: ig.dense_row_count(),
        dense_threshold: ig.dense_threshold(),
        accel_bytes: index.accel_size_bytes(),
        case_distribution: distribution,
        cases: reports,
        batched: Vec::new(),
        engine,
        engine_traced,
        obs_window,
    }
}

fn main() {
    let config = parse_args(std::env::args().skip(1));
    let min_nanos: u128 = if config.smoke { 2_000_000 } else { 40_000_000 };
    let workloads = vec![
        hub_workload(&config, min_nanos),
        uniform_workload(&config, min_nanos),
    ];
    for workload in &workloads {
        workload.print();
    }
    let objects: Vec<String> = workloads.iter().map(WorkloadReport::to_json).collect();
    // Top-level obs_window block: the worst overhead across workloads, so a
    // reader (or a gate) finds the budget verdict at the artifact root.
    let worst_obs = workloads
        .iter()
        .map(|w| &w.obs_window)
        .max_by(|a, b| {
            a.overhead_pct()
                .partial_cmp(&b.overhead_pct())
                .expect("overhead is finite")
        })
        .expect("at least one workload");
    let json = format!(
        "{{\"bench\":\"query_throughput\",\"smoke\":{},\"seed\":{},\
         \"obs_window\":{},\"workloads\":[{}]}}\n",
        config.smoke,
        config.seed,
        worst_obs.to_json(),
        objects.join(","),
    );
    match &config.output {
        Some(path) => {
            std::fs::write(path, &json).expect("write the JSON report");
            eprintln!("wrote {path}");
        }
        None => eprintln!("smoke run without --output: JSON not written"),
    }
    eprintln!(
        "obs window overhead (worst workload): {:+.2}% of query p50 (budget {:.0}%)",
        worst_obs.overhead_pct(),
        worst_obs.budget_pct,
    );

    // The headline claim this bench exists to track: Case 4 on the
    // hub-fanout workload must not regress below par with the naive path.
    let case4 = &workloads[0].cases[3];
    eprintln!(
        "hub-fanout case-4 speedup: {:.2}x (naive {:.3} µs -> fast {:.3} µs)",
        case4.speedup(),
        case4.naive_micros,
        case4.fast_micros
    );

    if let Some(targets) = &config.check_targets {
        let text = std::fs::read_to_string(targets).unwrap_or_else(|e| {
            eprintln!("bench gate FAILED: read {targets}: {e}");
            std::process::exit(1);
        });
        if let Err(message) = check_targets(&text, config.smoke, &case4.fast_samples) {
            eprintln!("bench gate FAILED: {message}");
            std::process::exit(1);
        }
    }
}

/// Regression gate against the calibrated targets table `text`
/// (`docs/bench-targets.md`): a markdown table with a `metric` column and
/// `smoke`/`full` value columns. Fails when the median of the hub Case-4
/// fast-path samples, in microseconds, exceeds twice the checked-in
/// target.
fn check_targets(text: &str, smoke: bool, hub_case4_fast_samples: &[f64]) -> Result<(), String> {
    let hub_case4_fast_us = median(hub_case4_fast_samples);
    let column = if smoke { 1 } else { 2 };
    for line in text.lines() {
        let trimmed = line.trim();
        if !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cells.first().copied() != Some("hub_case4_fast_us") {
            continue;
        }
        let target: f64 = cells
            .get(column)
            .ok_or_else(|| {
                format!("targets table: hub_case4_fast_us row is missing column {column}")
            })?
            .parse()
            .map_err(|e| format!("targets table: bad hub_case4_fast_us value: {e}"))?;
        if hub_case4_fast_us > 2.0 * target {
            return Err(format!(
                "hub case-4 fast path measured a median {hub_case4_fast_us:.3} µs \
                 ({hub_case4_fast_samples:.3?}), more than 2x the calibrated target {target:.3} µs"
            ));
        }
        eprintln!(
            "bench gate ok: hub case-4 fast path median {hub_case4_fast_us:.3} µs \
             within 2x of target {target:.3} µs"
        );
        return Ok(());
    }
    Err("targets table: no hub_case4_fast_us row found".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Config {
        parse_args(args.split_whitespace().map(String::from))
    }

    #[test]
    fn gate_takes_the_median_of_five_samples() {
        let table =
            "| metric | smoke | full |\n|---|---|---|\n| hub_case4_fast_us | 0.100 | 0.050 |\n";
        // One loaded sample far past 2x does not fail the gate.
        assert!(check_targets(table, true, &[0.09, 0.11, 0.45, 0.10, 0.12]).is_ok());
        // A median above 2x does, and names the samples.
        let err = check_targets(table, true, &[0.21, 0.25, 0.09, 0.30, 0.22]).unwrap_err();
        assert!(err.contains("median 0.220"), "{err}");
        // The full column is read for a full run.
        assert!(check_targets(table, false, &[0.11; 5]).is_err());
        assert!(check_targets("no table", true, &[0.1; 5]).is_err());
    }

    #[test]
    fn only_a_full_run_defaults_to_the_checked_in_record() {
        assert_eq!(parse("").output.as_deref(), Some("BENCH_query.json"));
        assert_eq!(parse("--smoke").output, None);
        assert_eq!(
            parse("--smoke --output gate.json").output.as_deref(),
            Some("gate.json")
        );
        assert_eq!(
            parse("--output full.json").output.as_deref(),
            Some("full.json")
        );
    }
}
