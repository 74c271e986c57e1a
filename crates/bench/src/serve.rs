//! Serving-throughput suite: worker-count sweeps through the batch engine.
//!
//! The paper evaluates per-query latency; this suite measures the serving
//! dimension the engine adds — batch throughput as worker count grows. The
//! sweep itself lives in [`kreach_engine::sweep`] and is shared with
//! `kreach bench-serve`.

pub use kreach_engine::sweep::{serve_sweep, SweepPoint};

#[cfg(test)]
mod tests {
    use super::*;
    use kreach_graph::generators::GeneratorSpec;
    use std::sync::Arc;

    #[test]
    fn sweep_reports_one_point_per_worker_count() {
        let g = Arc::new(GeneratorSpec::ErdosRenyi { n: 80, m: 300 }.generate(17));
        let points = serve_sweep(&g, 3, 1500, 5, &[1, 2]);
        assert_eq!(points.len(), 2);
        for point in &points {
            assert_eq!(point.stats.queries, 1500);
            assert!(point.stats.queries_per_sec > 0.0);
        }
        assert_eq!(points[0].stats.workers, 1);
        assert_eq!(points[1].stats.workers, 2);
    }
}
