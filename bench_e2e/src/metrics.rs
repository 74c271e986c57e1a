//! The metric table: every metric the benchmark reports, with its unit, the
//! direction that counts as better, and — for end-to-end metrics — the
//! share of the baseline median by which it may worsen before a change
//! counts as a regression. Defined once here; `BENCHMARK.json` must agree
//! with it (see the test below), and `e2e compare` judges with it.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies, times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric, measured only by the untraced pass.
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Largest tolerated worsening, as a share of the baseline median.
    pub bound: f64,
    /// Listed in `BENCHMARK.json`, which gates changes on it; such a metric
    /// is reported by every workload and must never read 0. The others are
    /// judged by `e2e compare` alone.
    pub listed: bool,
}

/// A per-layer metric, measured by the traced pass or scraped from the
/// server around the untraced one. No bound: these explain end-to-end
/// changes, they do not gate them.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, `<module>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Listed in `BENCHMARK.json` (and reported by every workload).
    pub listed: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    listed: bool,
) -> E2e {
    E2e {
        name,
        unit,
        better,
        bound,
        listed,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        listed: true,
    }
}

/// A per-layer metric of the write path, which only durable-mixed drives:
/// the hub-forest graph of static-batch makes one maintained update cost
/// about a second, so no other workload replays writes.
const fn mixed_only(metric: Layer) -> Layer {
    Layer {
        listed: false,
        ..metric
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics. No bound is wider than 10 %: a metric whose spread
/// does not fit in that is not given a wider bound. On the shared machine the
/// benchmark was calibrated on, host speed drifts by up to a third over
/// minutes (see the README), which moves every rate and latency between
/// runs by more than 10 %; those are judged by `e2e compare`, which calls a
/// pair unresolved when either set is that noisy, and only memory and the
/// required `setup_s` are listed in `BENCHMARK.json`.
pub const E2E: &[E2e] = &[
    e2e("setup_s", "s", Lower, 0.10, true),
    e2e("rss_mb", "MB", Lower, 0.10, true),
    e2e("batch_qps", "queries/s", Higher, 0.10, false),
    e2e("batch_p50_ms", "ms", Lower, 0.10, false),
    e2e("batch_p99_ms", "ms", Lower, 0.10, false),
    e2e("read_qps", "req/s", Higher, 0.10, false),
    e2e("read_p50_us", "us", Lower, 0.10, false),
    e2e("read_p99_us", "us", Lower, 0.10, false),
    e2e("update_p50_ms", "ms", Lower, 0.10, false),
    e2e("update_p99_ms", "ms", Lower, 0.10, false),
    e2e("restart_s", "s", Lower, 0.10, false),
    e2e("restart_clean_s", "s", Lower, 0.10, false),
];

/// Per-layer metrics, grouped by the module whose public functions they
/// time or whose counters they scrape.
pub const PER_LAYER: &[Layer] = &[
    layer("server.http_parse_us", "us", Lower),
    layer("server.http_write_us", "us", Lower),
    layer("server.residual_us", "us", Lower),
    layer("server.shed_total", "count", Lower),
    layer("datasets.parse_ns_per_query", "ns", Lower),
    layer("datasets.render_ns_per_query", "ns", Lower),
    layer("engine.run_us_per_request", "us", Lower),
    layer("engine.dispatch_ns_per_query", "ns", Lower),
    layer("engine.cache_hit_rate", "ratio", Higher),
    layer("engine.epoch_bumps_per_s", "1/s", Lower),
    layer("engine.grouped_share", "ratio", Higher),
    layer("core.static_build_ms", "ms", Lower),
    layer("core.dynamic_build_ms", "ms", Lower),
    layer("core.static_query_ns", "ns", Lower),
    layer("core.dynamic_query_ns", "ns", Lower),
    layer("core.case1_share", "ratio", Higher),
    layer("core.case2_share", "ratio", Lower),
    layer("core.case3_share", "ratio", Lower),
    layer("core.case4_share", "ratio", Lower),
    layer("core.dense_bitset_share", "ratio", Higher),
    layer("core.sparse_gallop_share", "ratio", Lower),
    layer("graph.read_ms", "ms", Lower),
    layer("store.checkpoint_ms", "ms", Lower),
    layer("store.checkpoint_mb", "MB", Lower),
    layer("store.restore_ms", "ms", Lower),
    layer("store.fsyncs_per_update", "ratio", Lower),
    layer("store.checkpoints", "count", Lower),
    layer("loadgen.noop_frac", "ratio", Lower),
    layer("budget.accounted_frac", "ratio", Higher),
    mixed_only(layer("engine.apply_us_per_update", "us", Lower)),
    mixed_only(layer("core.apply_us_per_update", "us", Lower)),
    mixed_only(layer("core.apply_batched_us_per_update", "us", Lower)),
    mixed_only(layer("core.rows_patched_per_update", "count", Lower)),
    mixed_only(layer("core.patch_us_per_update", "us", Lower)),
    mixed_only(layer("core.repair_us_per_update", "us", Lower)),
    mixed_only(layer("core.full_rebuilds", "count", Lower)),
    mixed_only(layer("graph.apply_ns_per_update", "ns", Lower)),
    mixed_only(layer("store.wal_write_us", "us", Lower)),
    mixed_only(layer("store.wal_fsync_us", "us", Lower)),
    mixed_only(layer("store.wal_bytes_per_update", "bytes", Lower)),
    mixed_only(layer("store.replayed_ops", "count", Lower)),
    mixed_only(layer("store.replay_us_per_update", "us", Lower)),
    mixed_only(layer("store.replay_s", "s", Lower)),
    mixed_only(layer("loadgen.write_lag_p99_ms", "ms", Lower)),
];

/// The unit and improvement direction of any metric in the table.
pub fn describe(name: &str) -> (&'static str, Better) {
    E2E.iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find(|(n, _, _)| *n == name)
        .map_or(("", Better::Lower), |(_, unit, better)| (unit, better))
}

/// The unit of any metric in the table.
pub fn unit_of(name: &str) -> &'static str {
    describe(name).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::workload::Kind;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a Json {
        entry
            .get(key)
            .unwrap_or_else(|| panic!("entry lacks {key}: {entry:?}"))
    }

    #[test]
    fn benchmark_json_matches_the_metric_table() {
        let doc = benchmark_json();
        let listed = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key);

        let e2e: Vec<&E2e> = E2E.iter().filter(|m| m.listed).collect();
        let declared = listed("end_to_end");
        assert_eq!(declared.len(), e2e.len(), "end_to_end length");
        for (entry, metric) in declared.iter().zip(&e2e) {
            assert_eq!(entry.as_obj().unwrap().len(), 4, "{entry:?}");
            assert_eq!(field(entry, "name").as_str(), Some(metric.name));
            assert_eq!(field(entry, "unit").as_str(), Some(metric.unit));
            assert_eq!(
                field(entry, "better").as_str(),
                Some(metric.better.as_str())
            );
            assert_eq!(field(entry, "bound").as_f64(), Some(metric.bound));
        }

        let layers: Vec<&Layer> = PER_LAYER.iter().filter(|m| m.listed).collect();
        let declared = listed("per_layer");
        assert_eq!(declared.len(), layers.len(), "per_layer length");
        for (entry, metric) in declared.iter().zip(&layers) {
            assert_eq!(entry.as_obj().unwrap().len(), 3, "{entry:?}");
            assert_eq!(field(entry, "name").as_str(), Some(metric.name));
            assert_eq!(field(entry, "unit").as_str(), Some(metric.unit));
            assert_eq!(
                field(entry, "better").as_str(),
                Some(metric.better.as_str())
            );
        }

        let workloads: Vec<&str> = listed("workloads")
            .iter()
            .map(|w| field(w, "name").as_str().unwrap())
            .collect();
        let expected: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, expected);
    }

    #[test]
    fn the_table_obeys_the_contract_limits() {
        let setup = E2E.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let mut names: Vec<&str> = E2E.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "metric names are unique");
        for m in E2E {
            assert!(m.bound > 0.0 && m.bound <= 0.10, "{} bound", m.name);
            assert!(m.bound <= setup.bound, "setup_s has the largest bound");
        }
        for name in names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(!unit_of(name).is_empty() && unit_of(name).len() <= 16);
        }
    }
}
