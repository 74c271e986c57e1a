//! Serving-throughput suite: batch-engine queries/sec per worker count.
//!
//! For each dataset this sweeps the engine over worker counts {1, 2, 4, one
//! per CPU} on one fixed random workload and reports throughput, speedup
//! over the single-worker run, and tail latency:
//!
//! ```text
//! serve_throughput --datasets AgroCyc,ArXiv --scale 8 --queries 100000
//! ```

use kreach_bench::serve::serve_sweep;
use kreach_bench::{BenchConfig, Table};
use std::sync::Arc;

fn main() {
    let config = BenchConfig::from_env();
    let k = 4;
    let workers = [1usize, 2, 4, 0];
    for spec in config.scaled_datasets() {
        let g = Arc::new(spec.generate(config.seed));
        let points = serve_sweep(&g, k, config.queries, config.seed, &workers);
        let base_qps = points[0].stats.queries_per_sec;
        let mut table = Table::new(["workers", "queries/s", "speedup", "p50 µs", "p99 µs"]);
        for point in &points {
            let stats = &point.stats;
            table.row([
                if point.requested_workers == 0 {
                    format!("{} (auto)", stats.workers)
                } else {
                    stats.workers.to_string()
                },
                format!("{:.0}", stats.queries_per_sec),
                if base_qps > 0.0 {
                    format!("{:.2}x", stats.queries_per_sec / base_qps)
                } else {
                    "-".to_string()
                },
                format!("{:.1}", stats.p50_micros),
                format!("{:.1}", stats.p99_micros),
            ]);
        }
        table.print(&format!(
            "{} (|V| = {}, |E| = {}, k = {k}, {} queries)",
            spec.name,
            g.vertex_count(),
            g.edge_count(),
            config.queries
        ));
    }
}
