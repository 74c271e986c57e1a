//! Table 9: sizes of the vertex cover and the 2-hop vertex cover, and the
//! total query time of µ-reach versus (2,k)-reach.
//!
//! `|VC|` is the paper's matched 2-approximation; `pruned |VC|` is the cover
//! after its redundant members are dropped, the one the µ-reach index is
//! built over. `reduction %` compares the 2-hop cover with that pruned
//! cover.
//!
//! Note on parameters: Definition 2 requires `h < k/2`, so for datasets whose
//! µ is small the (h,k)-reach index is built with `k = max(µ, 2h+1)`; the `k`
//! column reports the value actually used.

use kreach_bench::table::fmt_ms;
use kreach_bench::{BenchConfig, Table};
use kreach_core::hop_cover::HopVertexCover;
use kreach_core::{BuildOptions, CoverStrategy, HkReachIndex, KReachIndex, VertexCover};
use kreach_datasets::{QueryWorkload, WorkloadConfig};
use kreach_graph::metrics::{distance_profile, StatsConfig};
use std::time::Instant;

fn main() {
    let config = BenchConfig::from_env();
    let h = 2u32;
    let mut table = Table::new([
        "dataset",
        "|VC|",
        "pruned |VC|",
        "|2-hop VC|",
        "mu-reach ms",
        "(2,k)-reach ms",
        "k",
        "reduction %",
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
        let k = mu.max(2 * h + 1);

        let vc = VertexCover::compute(&g, CoverStrategy::RandomEdge);
        let hop_cover = HopVertexCover::compute(&g, h);
        let reduction = if vc.is_empty() {
            0.0
        } else {
            100.0 * (1.0 - hop_cover.len() as f64 / vc.len() as f64)
        };

        let kreach = KReachIndex::build_with_cover(
            &g,
            k,
            &vc,
            BuildOptions {
                cover_strategy: CoverStrategy::RandomEdge,
                threads: 1,
                ..BuildOptions::default()
            },
        );
        let hkreach = HkReachIndex::build_with_cover(&g, k, &hop_cover);

        let started = Instant::now();
        let mut pos_k = 0usize;
        for &(s, t) in workload.pairs() {
            if kreach.query(&g, s, t) {
                pos_k += 1;
            }
        }
        let kreach_ms = started.elapsed().as_secs_f64() * 1e3;

        let started = Instant::now();
        let mut pos_hk = 0usize;
        for &(s, t) in workload.pairs() {
            if hkreach.query(&g, s, t) {
                pos_hk += 1;
            }
        }
        let hkreach_ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            pos_k, pos_hk,
            "both indexes must answer the workload identically"
        );

        table.row([
            spec.name.to_string(),
            vc.matched_len().to_string(),
            vc.len().to_string(),
            hop_cover.len().to_string(),
            fmt_ms(kreach_ms),
            fmt_ms(hkreach_ms),
            k.to_string(),
            format!("{reduction:.1}"),
        ]);
    }
    table.print(&format!(
        "Table 9: vertex cover vs 2-hop vertex cover and query-time tradeoff ({} queries, scale 1/{})",
        config.queries, config.scale
    ));
}
