//! Query workloads: the "1 million randomly generated queries" of Section 6.
//!
//! The paper stresses (Table 8 and the surrounding discussion) that the
//! random workload is *not* biased towards the cheap Case-1 queries: most
//! random pairs have neither endpoint in the vertex cover. The workload
//! generator here reproduces exactly that protocol — uniform random ordered
//! pairs of vertices — and offers helpers to classify a workload by query
//! case and to compute the positive-answer rate, both of which the harness
//! reports.

use kreach_graph::{GraphView, VertexId};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Configuration of a random query workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Number of `(s, t)` pairs to generate (the paper uses 1,000,000).
    pub queries: usize,
    /// RNG seed, so every index sees the identical workload.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            queries: 1_000_000,
            seed: 0x9e37_79b9,
        }
    }
}

/// A materialized list of query pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryWorkload {
    pairs: Vec<(VertexId, VertexId)>,
}

impl QueryWorkload {
    /// Generates `config.queries` uniform random ordered pairs over the
    /// vertices of `g` (self-pairs allowed, exactly as a uniform draw would).
    pub fn uniform<G: GraphView>(g: &G, config: WorkloadConfig) -> Self {
        let n = g.vertex_count() as u32;
        assert!(n > 0, "cannot generate queries for an empty graph");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let pairs = (0..config.queries)
            .map(|_| (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n))))
            .collect();
        QueryWorkload { pairs }
    }

    /// Generates a skewed ("celebrity-heavy") workload: with probability
    /// `hot_fraction` each endpoint is drawn from the `hot_vertices`
    /// highest-degree vertices instead of uniformly.
    ///
    /// This models the serving-time skew the paper motivates in §4.3 — a
    /// small set of celebrity vertices appears in a disproportionate share
    /// of real queries: uniform pairs over a large graph essentially never
    /// repeat, hot pairs do.
    ///
    /// # Panics
    /// Panics if the graph is empty, `hot_vertices == 0`, or `hot_fraction`
    /// is outside `[0, 1]`.
    pub fn skewed<G: GraphView>(
        g: &G,
        config: WorkloadConfig,
        hot_vertices: usize,
        hot_fraction: f64,
    ) -> Self {
        let n = g.vertex_count() as u32;
        assert!(n > 0, "cannot generate queries for an empty graph");
        assert!(
            hot_vertices > 0,
            "skewed workload needs at least one hot vertex"
        );
        assert!(
            (0.0..=1.0).contains(&hot_fraction),
            "hot_fraction must be in [0, 1], got {hot_fraction}"
        );
        let mut by_degree: Vec<VertexId> = g.vertices().collect();
        by_degree.sort_by_key(|&v| std::cmp::Reverse(g.total_degree(v)));
        let hot = &by_degree[..hot_vertices.min(by_degree.len())];
        let mut rng = StdRng::seed_from_u64(config.seed);
        let draw = |rng: &mut StdRng| {
            if rng.gen_bool(hot_fraction) {
                hot[rng.gen_range(0..hot.len())]
            } else {
                VertexId(rng.gen_range(0..n))
            }
        };
        let pairs = (0..config.queries)
            .map(|_| (draw(&mut rng), draw(&mut rng)))
            .collect();
        QueryWorkload { pairs }
    }

    /// The query pairs.
    pub fn pairs(&self) -> &[(VertexId, VertexId)] {
        &self.pairs
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Fraction of queries for which `predicate` holds (e.g. the positive
    /// rate of reachability answers, or the share of Case-4 queries).
    pub fn fraction_where(&self, mut predicate: impl FnMut(VertexId, VertexId) -> bool) -> f64 {
        if self.pairs.is_empty() {
            return 0.0;
        }
        let hits = self.pairs.iter().filter(|&&(s, t)| predicate(s, t)).count();
        hits as f64 / self.pairs.len() as f64
    }

    /// Counts queries into four buckets according to `classifier`, which maps
    /// a pair to a case number 1–4 (Algorithm 2 / Table 8).
    pub fn case_distribution(
        &self,
        mut classifier: impl FnMut(VertexId, VertexId) -> u8,
    ) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for &(s, t) in &self.pairs {
            let case = classifier(s, t);
            assert!(
                (1..=4).contains(&case),
                "classifier must return 1..=4, got {case}"
            );
            counts[case as usize - 1] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreach_graph::generators::GeneratorSpec;
    use kreach_graph::DiGraph;

    fn graph() -> DiGraph {
        GeneratorSpec::ErdosRenyi { n: 50, m: 120 }.generate(1)
    }

    #[test]
    fn generates_requested_number_of_in_range_pairs() {
        let g = graph();
        let w = QueryWorkload::uniform(
            &g,
            WorkloadConfig {
                queries: 1000,
                seed: 3,
            },
        );
        assert_eq!(w.len(), 1000);
        assert!(w
            .pairs()
            .iter()
            .all(|&(s, t)| s.index() < 50 && t.index() < 50));
    }

    #[test]
    fn same_seed_same_workload_different_seed_different() {
        let g = graph();
        let a = QueryWorkload::uniform(
            &g,
            WorkloadConfig {
                queries: 500,
                seed: 7,
            },
        );
        let b = QueryWorkload::uniform(
            &g,
            WorkloadConfig {
                queries: 500,
                seed: 7,
            },
        );
        let c = QueryWorkload::uniform(
            &g,
            WorkloadConfig {
                queries: 500,
                seed: 8,
            },
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fraction_and_distribution_helpers() {
        let g = graph();
        let w = QueryWorkload::uniform(
            &g,
            WorkloadConfig {
                queries: 2000,
                seed: 5,
            },
        );
        let all = w.fraction_where(|_, _| true);
        assert!((all - 1.0).abs() < 1e-12);
        let none = w.fraction_where(|_, _| false);
        assert_eq!(none, 0.0);

        // Classify by parity of the source id: roughly half in each bucket.
        let counts = w.case_distribution(|s, _| if s.0 % 2 == 0 { 1 } else { 4 });
        assert_eq!(counts.iter().sum::<usize>(), 2000);
        assert_eq!(counts[1], 0);
        assert_eq!(counts[2], 0);
        assert!(counts[0] > 700 && counts[3] > 700);
    }

    #[test]
    fn uniform_pairs_are_spread_over_the_vertex_set() {
        let g = graph();
        let w = QueryWorkload::uniform(
            &g,
            WorkloadConfig {
                queries: 5000,
                seed: 11,
            },
        );
        let mut seen_sources = [false; 50];
        for &(s, _) in w.pairs() {
            seen_sources[s.index()] = true;
        }
        let covered = seen_sources.iter().filter(|&&b| b).count();
        assert!(
            covered >= 45,
            "uniform sampling should touch almost every vertex, got {covered}"
        );
    }

    #[test]
    fn skewed_workload_concentrates_on_hot_vertices() {
        let g = graph();
        let w = QueryWorkload::skewed(
            &g,
            WorkloadConfig {
                queries: 4000,
                seed: 13,
            },
            5,
            0.8,
        );
        assert_eq!(w.len(), 4000);
        assert!(w
            .pairs()
            .iter()
            .all(|&(s, t)| s.index() < 50 && t.index() < 50));
        // The 5 hot vertices should dominate: with hot_fraction 0.8 each
        // endpoint is hot with p = 0.8 + 0.2 * (5/50) ≈ 0.82.
        let mut counts = std::collections::HashMap::new();
        for &(s, t) in w.pairs() {
            *counts.entry(s).or_insert(0usize) += 1;
            *counts.entry(t).or_insert(0usize) += 1;
        }
        let mut by_count: Vec<usize> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        let top5: usize = by_count.iter().take(5).sum();
        assert!(
            top5 as f64 > 0.7 * 8000.0,
            "top-5 endpoints should absorb most draws, got {top5}/8000"
        );
        // Determinism per seed, like the uniform generator.
        let again = QueryWorkload::skewed(
            &g,
            WorkloadConfig {
                queries: 4000,
                seed: 13,
            },
            5,
            0.8,
        );
        assert_eq!(w, again);
        // hot_fraction 0 degenerates to a uniform draw over all vertices.
        let cold = QueryWorkload::skewed(
            &g,
            WorkloadConfig {
                queries: 1000,
                seed: 3,
            },
            5,
            0.0,
        );
        let distinct: std::collections::HashSet<_> = cold.pairs().iter().map(|&(s, _)| s).collect();
        assert!(distinct.len() > 30, "uniform draw should spread sources");
    }

    #[test]
    #[should_panic]
    fn skewed_rejects_zero_hot_vertices() {
        let g = graph();
        QueryWorkload::skewed(
            &g,
            WorkloadConfig {
                queries: 1,
                seed: 0,
            },
            0,
            0.5,
        );
    }

    #[test]
    #[should_panic]
    fn skewed_rejects_bad_hot_fraction() {
        let g = graph();
        QueryWorkload::skewed(
            &g,
            WorkloadConfig {
                queries: 1,
                seed: 0,
            },
            3,
            1.5,
        );
    }

    #[test]
    #[should_panic]
    fn empty_graph_is_rejected() {
        let g = DiGraph::from_edges(0, std::iter::empty());
        QueryWorkload::uniform(
            &g,
            WorkloadConfig {
                queries: 1,
                seed: 0,
            },
        );
    }

    #[test]
    #[should_panic]
    fn classifier_out_of_range_is_rejected() {
        let g = graph();
        let w = QueryWorkload::uniform(
            &g,
            WorkloadConfig {
                queries: 10,
                seed: 0,
            },
        );
        w.case_distribution(|_, _| 7);
    }
}
