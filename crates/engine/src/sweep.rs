//! Worker-count sweeps: the shared serving-throughput measurement used by
//! both `kreach bench-serve` and the bench suite's `serve_throughput`
//! binary, so the two surfaces cannot drift apart.

use crate::{BatchEngine, EngineConfig, EngineStats, KReachBackend, QueryBatch, Reachability};
use kreach_core::{BuildOptions, KReachIndex};
use kreach_datasets::{QueryWorkload, WorkloadConfig};
use kreach_graph::GraphView;
use std::sync::Arc;

/// One sweep entry: an engine run at a fixed worker count.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Worker count requested for this run (0 = one per CPU).
    pub requested_workers: usize,
    /// The run's serving statistics.
    pub stats: EngineStats,
}

/// Builds a k-reach index over `g`, generates `queries` uniform random
/// queries at hop bound `k`, and runs the batch once per entry of `workers`.
///
/// The backend (graph + index) is shared across all runs; each run gets a
/// fresh engine so the sweep entries are comparable.
pub fn serve_sweep<G: GraphView + 'static>(
    g: &Arc<G>,
    k: u32,
    queries: usize,
    seed: u64,
    workers: &[usize],
) -> Vec<SweepPoint> {
    let index = KReachIndex::build(g, k, BuildOptions::default());
    let backend: Arc<dyn Reachability> = Arc::new(KReachBackend::new(Arc::clone(g), index));
    let workload = QueryWorkload::uniform(g, WorkloadConfig { queries, seed });
    let batch = QueryBatch::from_pairs(workload.pairs(), k);
    workers
        .iter()
        .map(|&requested_workers| {
            let engine = BatchEngine::new(
                Arc::clone(&backend),
                EngineConfig {
                    workers: requested_workers,
                    ..EngineConfig::default()
                },
            );
            let stats = engine
                .run(&batch)
                .expect("workload vertices are in range")
                .stats;
            SweepPoint {
                requested_workers,
                stats,
            }
        })
        .collect()
}
