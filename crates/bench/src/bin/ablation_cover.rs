//! Ablation for §4.3: random-edge versus degree-prioritized vertex cover.
//!
//! The paper argues that giving high-degree vertices priority (so every
//! "celebrity" lands in the cover) both shrinks the cover and removes the
//! worst-case Case-4 queries involving hubs. This binary quantifies that on
//! every dataset: cover size, index edges, index size and workload time for
//! the two strategies. Each strategy's matched cover size (`matched |S|`)
//! sits beside its pruned `|S|`, so the table shows what the prune adds.

use kreach_bench::table::{fmt_mb, fmt_ms};
use kreach_bench::{BenchConfig, Table};
use kreach_core::{BuildOptions, CoverStrategy, KReachIndex, VertexCover};
use kreach_datasets::{QueryWorkload, WorkloadConfig};
use kreach_graph::metrics::{distance_profile, StatsConfig};
use kreach_graph::DiGraph;
use std::time::Instant;

/// Matched |S|, pruned |S|, |E_I|, index bytes and workload ms.
fn measure(
    g: &DiGraph,
    k: u32,
    strategy: CoverStrategy,
    workload: &QueryWorkload,
) -> (usize, usize, usize, usize, f64) {
    let cover = VertexCover::compute(g, strategy);
    let index = KReachIndex::build_with_cover(
        g,
        k,
        &cover,
        BuildOptions {
            cover_strategy: strategy,
            threads: 1,
            ..BuildOptions::default()
        },
    );
    let started = Instant::now();
    let mut positives = 0usize;
    for &(s, t) in workload.pairs() {
        if index.query(g, s, t) {
            positives += 1;
        }
    }
    std::hint::black_box(positives);
    (
        cover.matched_len(),
        index.cover_size(),
        index.index_edge_count(),
        index.size_bytes(),
        started.elapsed().as_secs_f64() * 1e3,
    )
}

fn main() {
    let config = BenchConfig::from_env();
    let mut table = Table::new([
        "dataset",
        "rand matched |S|",
        "rand |S|",
        "deg matched |S|",
        "deg |S|",
        "rand |E_I|",
        "deg |E_I|",
        "rand MB",
        "deg MB",
        "rand ms",
        "deg ms",
    ]);
    for spec in config.scaled_datasets() {
        let g = spec.generate(config.seed);
        let workload = QueryWorkload::uniform(
            &g,
            WorkloadConfig {
                queries: config.queries,
                seed: config.seed,
            },
        );
        let (_, mu) = distance_profile(&g, StatsConfig::default());
        let k = mu.max(2);
        let (rm, rs, re, rb, rt) = measure(&g, k, CoverStrategy::RandomEdge, &workload);
        let (dm, ds, de, db, dt) = measure(&g, k, CoverStrategy::DegreePriority, &workload);
        table.row([
            spec.name.to_string(),
            rm.to_string(),
            rs.to_string(),
            dm.to_string(),
            ds.to_string(),
            re.to_string(),
            de.to_string(),
            fmt_mb(rb),
            fmt_mb(db),
            fmt_ms(rt),
            fmt_ms(dt),
        ]);
    }
    table.print(&format!(
        "Ablation (4.3): cover strategy comparison at k = mu ({} queries, scale 1/{})",
        config.queries, config.scale
    ));
}
