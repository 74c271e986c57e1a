//! The (h,k)-reach index of Section 5: an h-hop-vertex-cover-based k-reach
//! index that trades query time for indexing time and index size.

use crate::hop_cover::HopVertexCover;
use crate::index_graph::CoverIndexGraph;
use crate::stats::IndexStats;
use crate::weights::PlainWeights;
use kreach_graph::traversal::{Direction, NeighborhoodExplorer};
use kreach_graph::{GraphView, VertexId};
use std::time::Instant;

/// The (h,k)-reach index of Definition 2.
///
/// `H = (V_H, E_H, ω_H)` where `V_H` is an h-hop vertex cover, `E_H` connects
/// cover vertices that are k-hop reachable, and `ω_H(e) = max(dist, k − 2h)`
/// (equivalently, one of the `2h+1` values `k−2h … k`).
///
/// Queries are answered by Algorithm 3: when a query vertex is not in the
/// cover, its i-hop neighbourhood for `1 ≤ i ≤ h` is explored instead of just
/// its direct neighbours.
#[derive(Debug, Clone)]
pub struct HkReachIndex {
    h: u32,
    k: u32,
    index: CoverIndexGraph<PlainWeights>,
    build_millis: f64,
}

impl HkReachIndex {
    /// Builds an (h,k)-reach index, computing the (h+1)-approximate minimum
    /// h-hop vertex cover internally.
    ///
    /// # Panics
    /// Panics unless `h ≥ 1` and `2h < k` (Definition 2 requires `h < k/2`).
    pub fn build<G: GraphView>(g: &G, h: u32, k: u32) -> Self {
        assert!(h >= 1, "(h,k)-reach requires h >= 1");
        assert!(2 * h < k, "(h,k)-reach requires h < k/2 (got h={h}, k={k})");
        let started = Instant::now();
        let cover = HopVertexCover::compute(g, h);
        let mut built = Self::build_with_cover(g, k, &cover);
        built.build_millis = started.elapsed().as_secs_f64() * 1e3;
        built
    }

    /// Builds the index on a pre-computed h-hop vertex cover.
    ///
    /// # Panics
    /// Panics unless `2 * cover.h() < k`.
    pub fn build_with_cover<G: GraphView>(g: &G, k: u32, cover: &HopVertexCover) -> Self {
        let h = cover.h();
        assert!(2 * h < k, "(h,k)-reach requires h < k/2 (got h={h}, k={k})");
        let started = Instant::now();
        let index = CoverIndexGraph::sweep(
            g,
            cover.members().to_vec(),
            k,
            k.saturating_sub(2 * h),
            None,
            1,
        );
        HkReachIndex {
            h,
            k,
            index,
            build_millis: started.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// The hop-cover parameter `h`.
    pub fn h(&self) -> u32 {
        self.h
    }

    /// The hop bound `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of cover vertices `|V_H|`.
    pub fn cover_size(&self) -> usize {
        self.index.cover_size()
    }

    /// Number of index edges `|E_H|`.
    pub fn index_edge_count(&self) -> usize {
        self.index.edge_count()
    }

    /// Whether `v` belongs to the h-hop vertex cover.
    pub fn in_cover(&self, v: VertexId) -> bool {
        self.index.in_cover(v)
    }

    /// The underlying weighted index graph (read-only).
    pub fn index_graph(&self) -> &CoverIndexGraph<PlainWeights> {
        &self.index
    }

    /// Total index size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.index.size_bytes()
    }

    /// Construction and size statistics.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            name: format!("({},{})-reach", self.h, self.k),
            build_millis: self.build_millis,
            size_bytes: self.size_bytes(),
            cover_size: Some(self.cover_size()),
            index_edges: Some(self.index_edge_count()),
        }
    }

    /// Answers the k-hop reachability query `s →k t` (Algorithm 3).
    ///
    /// Query-time neighbourhood exploration reuses a thread-local
    /// [`NeighborhoodExplorer`], so a query costs time proportional to the
    /// h-hop neighbourhoods actually visited, not to `|V|`. Index probes go
    /// through the hybrid-row primitives of [`crate::index_graph`]: a
    /// weight-bounded membership test on a high-degree (dense) cover row is
    /// one word probe instead of a binary search.
    pub fn query<G: GraphView>(&self, g: &G, s: VertexId, t: VertexId) -> bool {
        if s == t {
            return true;
        }
        let k = self.k;
        let h = self.h;
        match (self.index.position(s), self.index.position(t)) {
            // Case 1: both in the cover.
            (Some(ps), Some(pt)) => self.index.edge_exists_by_pos(ps, pt),
            // Case 2: only s in the cover — walk up to h hops backwards from t.
            (Some(ps), None) => with_explorer(|explorer| {
                explorer
                    .explore(g, t, h, Direction::Backward)
                    .iter()
                    .any(|&(v, i)| {
                        if i == 0 {
                            return false; // t itself
                        }
                        if v == s {
                            return i <= k;
                        }
                        // i ≤ h < k, so k − i never underflows.
                        self.index
                            .position(v)
                            .is_some_and(|pv| self.index.edge_weight_le(ps, pv, k - i))
                    })
            }),
            // Case 3: only t in the cover — walk up to h hops forwards from s.
            (None, Some(pt)) => with_explorer(|explorer| {
                explorer
                    .explore(g, s, h, Direction::Forward)
                    .iter()
                    .any(|&(u, i)| {
                        if i == 0 {
                            return false; // s itself
                        }
                        if u == t {
                            return i <= k;
                        }
                        self.index
                            .position(u)
                            .is_some_and(|pu| self.index.edge_weight_le(pu, pt, k - i))
                    })
            }),
            // Case 4: neither in the cover — combine the h-hop out-neighbourhood
            // of s with the h-hop in-neighbourhood of t.
            (None, None) => with_two_explorers(|fwd_explorer, back_explorer| {
                let fwd = fwd_explorer.explore(g, s, h, Direction::Forward);
                // Paths shorter than h may avoid the cover entirely; the
                // forward expansion answers them directly.
                if fwd.iter().any(|&(u, d)| u == t && d <= k) {
                    return true;
                }
                // Only the covered part of the forward neighbourhood matters
                // for the index probes.
                let fwd_cover: Vec<(u32, u32)> = fwd
                    .iter()
                    .filter(|&&(_, i)| i > 0)
                    .filter_map(|&(u, i)| self.index.position(u).map(|pu| (pu, i)))
                    .collect();
                if fwd_cover.is_empty() {
                    return false;
                }
                back_explorer
                    .explore(g, t, h, Direction::Backward)
                    .iter()
                    .filter(|&&(_, j)| j > 0)
                    .filter_map(|&(v, j)| self.index.position(v).map(|pv| (pv, j)))
                    .any(|(pv, j)| {
                        fwd_cover.iter().any(|&(pu, i)| {
                            if pu == pv {
                                i + j <= k
                            } else {
                                // i + j ≤ 2h < k, so k − i − j ≥ 1.
                                self.index.edge_weight_le(pu, pv, k - i - j)
                            }
                        })
                    })
            }),
        }
    }
}

thread_local! {
    /// Scratch space shared by every (h,k)-reach query on this thread. Two
    /// explorers are needed because Case 4 holds the forward neighbourhood
    /// while expanding the backward one.
    static EXPLORERS: std::cell::RefCell<(NeighborhoodExplorer, NeighborhoodExplorer)> =
        std::cell::RefCell::new((NeighborhoodExplorer::new(), NeighborhoodExplorer::new()));
}

fn with_explorer<R>(f: impl FnOnce(&mut NeighborhoodExplorer) -> R) -> R {
    EXPLORERS.with(|cell| f(&mut cell.borrow_mut().0))
}

fn with_two_explorers<R>(
    f: impl FnOnce(&mut NeighborhoodExplorer, &mut NeighborhoodExplorer) -> R,
) -> R {
    EXPLORERS.with(|cell| {
        let pair = &mut *cell.borrow_mut();
        f(&mut pair.0, &mut pair.1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreach_graph::generators::GeneratorSpec;
    use kreach_graph::traversal::khop_reachable_bfs;
    use kreach_graph::DiGraph;

    fn brute_force_check(g: &DiGraph, index: &HkReachIndex) {
        let k = index.k();
        for s in g.vertices() {
            for t in g.vertices() {
                let expected = khop_reachable_bfs(g, s, t, k);
                let got = index.query(g, s, t);
                assert_eq!(got, expected, "h={} k={k} query ({s}, {t})", index.h());
            }
        }
    }

    #[test]
    fn exact_on_paper_example() {
        let g = crate::paper_example::paper_example_graph();
        let index = HkReachIndex::build(&g, 2, 5);
        brute_force_check(&g, &index);
    }

    #[test]
    fn exact_on_path_graph_for_various_h_and_k() {
        let g = DiGraph::from_edges(12, (0..11u32).map(|i| (i, i + 1)));
        for (h, k) in [(1, 3), (1, 5), (2, 5), (2, 6), (3, 7), (2, 12)] {
            let index = HkReachIndex::build(&g, h, k);
            brute_force_check(&g, &index);
        }
    }

    #[test]
    fn exact_on_cyclic_graph() {
        let g = DiGraph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (5, 6),
                (6, 7),
            ],
        );
        for (h, k) in [(1, 4), (2, 5), (2, 8), (3, 8)] {
            let index = HkReachIndex::build(&g, h, k);
            brute_force_check(&g, &index);
        }
    }

    #[test]
    fn exact_on_random_power_law_graph() {
        let g = GeneratorSpec::PowerLaw {
            n: 120,
            m: 420,
            hubs: 3,
        }
        .generate(17);
        let index = HkReachIndex::build(&g, 2, 6);
        brute_force_check(&g, &index);
    }

    #[test]
    fn hop_cover_is_no_larger_than_vertex_cover() {
        // Table 9's premise: the 2-hop cover is no larger than the 1-hop
        // cover that Corollary 1's fallback would use. On this fixture the
        // pruned degree-priority cover has 502 members, the path-based
        // 2-hop cover 684 and the pruned random-edge cover 496.
        let g = GeneratorSpec::LayeredDag {
            n: 800,
            m: 2400,
            layers: 12,
            back_edge_fraction: 0.05,
        }
        .generate(3);
        let vc = crate::VertexCover::compute(&g, crate::CoverStrategy::DegreePriority);
        let index = HkReachIndex::build(&g, 2, 6);
        assert!(
            index.cover_size() <= vc.len(),
            "2-hop cover ({}) should not exceed the vertex cover ({})",
            index.cover_size(),
            vc.len()
        );
    }

    #[test]
    fn stats_and_accessors() {
        let g = crate::paper_example::paper_example_graph();
        let index = HkReachIndex::build(&g, 2, 5);
        assert_eq!(index.h(), 2);
        assert_eq!(index.k(), 5);
        assert!(index.size_bytes() > 0);
        let stats = index.stats();
        assert!(stats.name.contains("reach"));
        assert_eq!(stats.cover_size, Some(index.cover_size()));
    }

    #[test]
    #[should_panic]
    fn rejects_h_not_less_than_half_k() {
        let g = crate::paper_example::paper_example_graph();
        HkReachIndex::build(&g, 2, 4); // needs k > 2h = 4
    }

    #[test]
    #[should_panic]
    fn rejects_zero_h() {
        let g = crate::paper_example::paper_example_graph();
        HkReachIndex::build(&g, 0, 5);
    }
}
