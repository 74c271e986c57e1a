//! Update-throughput suite: incremental index maintenance under churn.
//!
//! For each dataset this builds the dynamic k-reach backend (versioned
//! adjacency storage: `O(degree)` mutations, no `O(m)` snapshot per
//! update), then measures (a) pure mutation throughput (updates/sec and
//! µs/update through the engine, including the epoch bump)
//! and (b) query latency *under churn* — batches interleaved with mutation
//! bursts, whose overlapping row patches coalesce — against the quiescent
//! baseline. Run it at several `--scale` values to see that per-update cost
//! does not grow with the total edge count:
//!
//! ```text
//! update_throughput --datasets AgroCyc,Xmark --scale 40 --queries 20000
//! ```

use kreach_bench::{BenchConfig, Table};
use kreach_core::dynamic::DynamicOptions;
use kreach_engine::{
    BatchEngine, DynamicKReachBackend, EngineConfig, Query, QueryBatch, Reachability,
};
use kreach_graph::EdgeUpdate;
use kreach_graph::{DiGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// A churn stream: alternating removals of existing edges and fresh inserts,
/// biased so the edge count stays roughly stable.
fn churn_stream(g: &DiGraph, count: usize, rng: &mut StdRng) -> Vec<EdgeUpdate> {
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    let n = g.vertex_count() as u32;
    (0..count)
        .map(|i| {
            if i % 2 == 0 && !edges.is_empty() {
                let (u, v) = edges[rng.gen_range(0usize..edges.len())];
                EdgeUpdate::Remove(u, v)
            } else {
                EdgeUpdate::Insert(
                    VertexId(rng.gen_range(0u32..n)),
                    VertexId(rng.gen_range(0u32..n)),
                )
            }
        })
        .collect()
}

fn main() {
    let config = BenchConfig::from_env();
    let k = 3;
    let updates = 2_000usize;
    let churn_batch = 16usize;
    for spec in config.scaled_datasets() {
        let g = spec.generate(config.seed);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC0FFEE);
        let n = g.vertex_count();
        let backend = Arc::new(DynamicKReachBackend::new(
            g.clone(),
            k,
            DynamicOptions::default(),
        ));
        let engine = BatchEngine::new(
            Arc::clone(&backend) as Arc<dyn Reachability>,
            EngineConfig::default(),
        );

        // One shared query workload, uniform random pairs.
        let pairs: Vec<Query> = (0..config.queries)
            .map(|_| Query {
                s: VertexId(rng.gen_range(0u32..n as u32)),
                t: VertexId(rng.gen_range(0u32..n as u32)),
                k,
            })
            .collect();
        let batch = QueryBatch::new(pairs);

        // Phase 1: quiescent query baseline.
        let baseline = engine.run(&batch).expect("workload in range").stats;

        // One churn stream shared by phases 1b and 2, so the bare-storage
        // and full-maintenance timings decompose the exact same update
        // sequence.
        let stream = churn_stream(&g, updates, &mut rng);

        // Phase 1b: raw storage mutation cost — the stream applied to a
        // bare versioned graph, isolating the O(degree) copy-on-write
        // segment edits from index maintenance. This is the number that
        // must stay flat as |E| grows (the frozen-CSR path paid an O(m)
        // snapshot merge here).
        let mut bare = kreach_graph::VersionedAdjGraph::from_csr(&g);
        let started = Instant::now();
        for update in &stream {
            bare.apply(*update);
        }
        let storage_secs = started.elapsed().as_secs_f64();

        // Phase 2: pure update throughput (one mutation per apply call, the
        // serving pattern; epoch bumps included).
        let started = Instant::now();
        for update in &stream {
            engine.apply_updates(&[*update]).expect("dynamic backend");
        }
        let update_secs = started.elapsed().as_secs_f64();
        let maintenance = backend.with_state(|s| s.stats());

        // Phase 3: query latency under churn — mutation bursts interleaved
        // with the same workload, split into slices.
        let churn = churn_stream(&g, updates, &mut rng);
        let queries = batch.queries();
        let slice = (queries.len() / (updates / churn_batch).max(1)).max(1);
        let started = Instant::now();
        let mut worst_p99 = 0.0f64;
        let mut answered = 0usize;
        let mut next_update = 0usize;
        let mut offset = 0usize;
        while offset < queries.len() {
            let end = (offset + slice).min(queries.len());
            let sub = QueryBatch::new(queries[offset..end].to_vec());
            let outcome = engine.run(&sub).expect("workload in range");
            answered += outcome.stats.queries;
            worst_p99 = worst_p99.max(outcome.stats.p99_micros);
            let burst_end = (next_update + churn_batch).min(churn.len());
            if next_update < burst_end {
                engine
                    .apply_updates(&churn[next_update..burst_end])
                    .expect("dynamic backend");
                next_update = burst_end;
            }
            offset = end;
        }
        let churn_secs = started.elapsed().as_secs_f64();
        // Burst-phase deltas: coalescing only shows up when a batch carries
        // several updates, so report it from the churn phase.
        let churn_maintenance = backend.with_state(|s| s.stats()).since(maintenance);

        let mut table = Table::new(["metric", "value"]);
        table.row([
            "quiescent queries/s".to_string(),
            format!("{:.0}", baseline.queries_per_sec),
        ]);
        table.row([
            "quiescent p99 µs".to_string(),
            format!("{:.1}", baseline.p99_micros),
        ]);
        table.row([
            "storage µs/update (bare graph)".to_string(),
            format!("{:.3}", storage_secs * 1e6 / updates.max(1) as f64),
        ]);
        table.row([
            "updates/s (single)".to_string(),
            format!("{:.0}", updates as f64 / update_secs.max(1e-9)),
        ]);
        table.row([
            "µs/update (single, incl. row patching)".to_string(),
            format!("{:.1}", update_secs * 1e6 / updates.max(1) as f64),
        ]);
        table.row([
            "rows patched/update".to_string(),
            format!(
                "{:.1}",
                maintenance.rows_patched as f64 / maintenance.applied().max(1) as f64
            ),
        ]);
        table.row([
            "rows coalesced (churn bursts)".to_string(),
            churn_maintenance.rows_coalesced.to_string(),
        ]);
        table.row([
            "cover additions".to_string(),
            maintenance.cover_additions.to_string(),
        ]);
        table.row([
            "full rebuilds".to_string(),
            maintenance.full_rebuilds.to_string(),
        ]);
        table.row([
            "churn queries/s".to_string(),
            format!("{:.0}", answered as f64 / churn_secs.max(1e-9)),
        ]);
        table.row([
            "churn worst-slice p99 µs".to_string(),
            format!("{worst_p99:.1}"),
        ]);
        table.print(&format!(
            "{} (|V| = {}, |E| = {}, k = {k}, {} queries, {} updates, bursts of {churn_batch})",
            spec.name,
            n,
            g.edge_count(),
            config.queries,
            updates
        ));
    }
}
