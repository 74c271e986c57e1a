//! Approximate minimum vertex covers (§4.1.1 and §4.3 of the paper).
//!
//! A set `S ⊆ V` is a vertex cover of `G = (V, E)` if every edge has at least
//! one endpoint in `S`. The k-reach index only pre-computes k-hop
//! reachability *among cover vertices*, so the cover size directly determines
//! the index size and the Algorithm-1 build time. Computing the minimum cover
//! is NP-hard; the paper uses the classical 2-approximation (repeatedly pick
//! an uncovered edge and take both endpoints) and, in §4.3, a
//! *degree-prioritized* variant that prefers edges incident to high-degree
//! vertices so that "celebrity" vertices end up in the cover and their
//! queries hit the cheap Case 1 of Algorithm 2.
//!
//! Taking both endpoints of every matched edge leaves many members whose
//! neighbours are all covered anyway. [`VertexCover::compute`] therefore ends
//! with one prune pass: it visits the members in increasing total degree and
//! drops each one whose in- and out-neighbours are all still covered (a
//! self-loop keeps its vertex). Every edge still has a covered endpoint — a
//! member is dropped only when all its neighbours are covered, and a
//! neighbour dropped later sees it uncovered and stays — and every surviving
//! member is necessary. The pass only removes vertices, so the result is no
//! larger than the matched cover and the 2-approximation bound holds.
//! [`VertexCover::matched_len`] keeps the pre-prune size.

use kreach_graph::{FixedBitSet, GraphView, VertexId};

/// Strategy used when picking the next uncovered edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoverStrategy {
    /// §4.1.1: scan edges in arbitrary (id) order — the textbook
    /// 2-approximation via maximal matching.
    RandomEdge,
    /// §4.3: process edges in decreasing order of `max(Deg(u), Deg(v))`, so
    /// edges incident to high-degree vertices are covered (and those vertices
    /// enter the cover) first. Still a 2-approximation.
    #[default]
    DegreePriority,
}

/// A vertex cover of a graph, with O(1) membership tests.
#[derive(Debug, Clone)]
pub struct VertexCover {
    members: Vec<VertexId>,
    membership: FixedBitSet,
    strategy: CoverStrategy,
    /// `|S|` before the prune: the size of the matched 2-approximation.
    matched_len: usize,
}

/// Drops every member whose in- and out-neighbours are all still covered,
/// visiting members in increasing total degree (low-degree members are the
/// likeliest to be redundant, and dropping them keeps the hubs). A member
/// with a self-loop always stays: the loop is covered only by itself.
/// `members` keeps its selection order.
fn prune_redundant<G: GraphView>(g: &G, members: &mut Vec<VertexId>, in_cover: &mut FixedBitSet) {
    let mut order = members.clone();
    order.sort_by_key(|&v| g.total_degree(v));
    for v in order {
        let needed = g
            .out_neighbors(v)
            .iter()
            .chain(g.in_neighbors(v))
            .any(|&w| w == v || !in_cover.contains_vertex(w));
        if !needed {
            in_cover.remove(v.index());
        }
    }
    members.retain(|&v| in_cover.contains_vertex(v));
}

impl VertexCover {
    /// Computes a 2-approximate minimum vertex cover of `g`, then prunes
    /// its redundant members (see the module docs).
    ///
    /// Edge directions are ignored (§4.1.1: "we may simply ignore the
    /// direction of the edges in computing a 2-approximate minimum vertex
    /// cover").
    pub fn compute<G: GraphView>(g: &G, strategy: CoverStrategy) -> Self {
        let n = g.vertex_count();
        let mut in_cover = FixedBitSet::new(n);
        let mut members = Vec::new();

        let take = |v: VertexId, members: &mut Vec<VertexId>, in_cover: &mut FixedBitSet| {
            if in_cover.insert_vertex(v) {
                members.push(v);
            }
        };

        match strategy {
            CoverStrategy::RandomEdge => {
                // The matching-based 2-approximation: take both endpoints of
                // any edge not yet covered. Scanning edges in storage order
                // corresponds to the "randomly select an edge" of the paper
                // (any order yields a 2-approximation).
                for (u, v) in g.edges() {
                    if !in_cover.contains_vertex(u) && !in_cover.contains_vertex(v) {
                        take(u, &mut members, &mut in_cover);
                        take(v, &mut members, &mut in_cover);
                    }
                }
            }
            CoverStrategy::DegreePriority => {
                // Process vertices from highest to lowest degree; whenever a
                // vertex still has an uncovered incident edge, put it (and,
                // to preserve the matching argument, the other endpoint of
                // one such edge) into the cover. High-degree vertices are
                // therefore guaranteed to be covered before their neighbours,
                // which in practice means every hub joins the cover.
                let mut order: Vec<VertexId> = g.vertices().collect();
                order.sort_unstable_by_key(|&v| std::cmp::Reverse(g.degree(v)));
                for u in order {
                    if in_cover.contains_vertex(u) {
                        continue;
                    }
                    // Find an incident edge (in either direction) whose other
                    // endpoint is also uncovered.
                    let partner = g
                        .out_neighbors(u)
                        .iter()
                        .chain(g.in_neighbors(u).iter())
                        .copied()
                        .find(|&w| !in_cover.contains_vertex(w));
                    if let Some(w) = partner {
                        take(u, &mut members, &mut in_cover);
                        take(w, &mut members, &mut in_cover);
                    }
                }
            }
        }

        let matched_len = members.len();
        prune_redundant(g, &mut members, &mut in_cover);
        let cover = VertexCover {
            members,
            membership: in_cover,
            strategy,
            matched_len,
        };
        debug_assert!(cover.covers_all_edges(g));
        cover
    }

    /// Builds a cover from an explicit member list (for example the cover of
    /// the paper's running example, or an application-supplied cover that
    /// forces specific "celebrity" vertices in as suggested in §4.3).
    ///
    /// # Panics
    /// Panics if a member id is `>= n` or listed twice.
    pub fn from_members(n: usize, members: impl IntoIterator<Item = VertexId>) -> Self {
        let mut membership = FixedBitSet::new(n);
        let mut list = Vec::new();
        for v in members {
            assert!(
                v.index() < n,
                "cover member {v} out of range for {n} vertices"
            );
            assert!(membership.insert_vertex(v), "cover member {v} listed twice");
            list.push(v);
        }
        VertexCover {
            matched_len: list.len(),
            members: list,
            membership,
            strategy: CoverStrategy::RandomEdge,
        }
    }

    /// The cover vertices, in the order they were selected.
    pub fn members(&self) -> &[VertexId] {
        &self.members
    }

    /// Number of cover vertices `|S|`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `|S|` of the matched 2-approximation before redundant members were
    /// pruned (equal to [`VertexCover::len`] for an explicit member list).
    /// Table 9 reports this as the paper's cover size.
    pub fn matched_len(&self) -> usize {
        self.matched_len
    }

    /// True if the cover is empty (the graph has no edges).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// O(1) membership test.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.membership.contains_vertex(v)
    }

    /// The strategy used to compute this cover.
    pub fn strategy(&self) -> CoverStrategy {
        self.strategy
    }

    /// Verifies the defining property: every edge has an endpoint in the cover.
    pub fn covers_all_edges<G: GraphView>(&self, g: &G) -> bool {
        g.edges().all(|(u, v)| self.contains(u) || self.contains(v))
    }

    /// Fraction of cover vertices among all vertices (the paper observes this
    /// is small for real graphs, which is what makes the index compact).
    pub fn coverage_ratio<G: GraphView>(&self, g: &G) -> f64 {
        if g.vertex_count() == 0 {
            return 0.0;
        }
        self.len() as f64 / g.vertex_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreach_graph::DiGraph;
    use proptest::prelude::*;

    fn path(n: usize) -> DiGraph {
        DiGraph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn cover_covers_all_edges_random_edge() {
        let g = path(10);
        let c = VertexCover::compute(&g, CoverStrategy::RandomEdge);
        assert!(c.covers_all_edges(&g));
    }

    #[test]
    fn cover_covers_all_edges_degree_priority() {
        let g = path(10);
        let c = VertexCover::compute(&g, CoverStrategy::DegreePriority);
        assert!(c.covers_all_edges(&g));
    }

    #[test]
    fn star_graph_cover_is_tiny_with_degree_priority() {
        // A star: hub 0 with 50 leaves. Minimum cover = {0}.
        let g = DiGraph::from_edges(51, (1..=50u32).map(|i| (0, i)));
        let c = VertexCover::compute(&g, CoverStrategy::DegreePriority);
        assert!(c.contains(VertexId(0)), "hub must be in the cover");
        assert!(
            c.len() <= 2,
            "degree-priority cover of a star should be at most 2, got {}",
            c.len()
        );
        assert!(c.covers_all_edges(&g));
    }

    #[test]
    fn high_degree_vertices_always_join_degree_priority_cover() {
        // Two hubs (0 and 1) each connected to many leaves, plus an edge between them.
        let mut edges: Vec<(u32, u32)> = vec![(0, 1)];
        for i in 2..40u32 {
            edges.push((0, i));
            edges.push((i, 1));
        }
        let g = DiGraph::from_edges(40, edges);
        let c = VertexCover::compute(&g, CoverStrategy::DegreePriority);
        assert!(c.contains(VertexId(0)));
        assert!(c.contains(VertexId(1)));
        assert!(c.covers_all_edges(&g));
    }

    #[test]
    fn approximation_bound_two_times_matching() {
        // The cover produced by either strategy pairs vertices; a cover of
        // size |S| implies a matching of size >= |S|/2, so |S| <= 2 * OPT.
        // For a path of 11 vertices (10 edges) OPT = 5, so |S| <= 10.
        let g = path(11);
        for strategy in [CoverStrategy::RandomEdge, CoverStrategy::DegreePriority] {
            let c = VertexCover::compute(&g, strategy);
            assert!(c.len() <= 10, "{strategy:?} produced {} vertices", c.len());
            assert!(c.covers_all_edges(&g));
        }
    }

    #[test]
    fn empty_graph_has_empty_cover() {
        let g = DiGraph::from_edges(5, std::iter::empty());
        let c = VertexCover::compute(&g, CoverStrategy::default());
        assert!(c.is_empty());
        assert!(c.covers_all_edges(&g));
        assert_eq!(c.coverage_ratio(&g), 0.0);
    }

    #[test]
    fn membership_and_members_agree() {
        let g = DiGraph::from_edges(6, [(0, 1), (2, 3), (4, 5)]);
        let c = VertexCover::compute(&g, CoverStrategy::RandomEdge);
        for v in g.vertices() {
            assert_eq!(c.contains(v), c.members().contains(&v));
        }
        // Three disjoint edges: the matching takes all six vertices and the
        // prune keeps one endpoint per edge, the minimum.
        assert_eq!(c.matched_len(), 6);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn degree_priority_is_no_larger_than_random_on_hub_graphs() {
        // On a graph with strong hubs the degree-prioritized cover should be
        // at most as large as the random-edge one (that is its purpose).
        let mut edges = Vec::new();
        for hub in 0..3u32 {
            for leaf in 0..60u32 {
                edges.push((hub, 3 + leaf * 3 + hub));
            }
        }
        let g = DiGraph::from_edges(3 + 180, edges);
        let random = VertexCover::compute(&g, CoverStrategy::RandomEdge);
        let priority = VertexCover::compute(&g, CoverStrategy::DegreePriority);
        assert!(priority.len() <= random.len());
        assert!(priority.len() <= 6);
    }

    /// A random digraph on up to 24 vertices. Self-loops are kept (the
    /// edge-list builders drop them), so the prune's self-loop rule is
    /// exercised too.
    fn arb_graph_with_loops() -> impl Strategy<Value = DiGraph> {
        (1..24usize).prop_flat_map(|n| {
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..60).prop_map(
                move |mut edges| {
                    edges.sort_unstable();
                    edges.dedup();
                    DiGraph::from_sorted_unique_edges(n, &edges)
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn pruned_cover_is_valid_and_minimal(
            g in arb_graph_with_loops(),
            degree_priority in proptest::bool::ANY,
        ) {
            let strategy = if degree_priority {
                CoverStrategy::DegreePriority
            } else {
                CoverStrategy::RandomEdge
            };
            let c = VertexCover::compute(&g, strategy);
            prop_assert!(c.covers_all_edges(&g));
            prop_assert!(c.len() <= c.matched_len());
            for &v in c.members() {
                let needed = g
                    .out_neighbors(v)
                    .iter()
                    .chain(g.in_neighbors(v))
                    .any(|&w| w == v || !c.contains(w));
                prop_assert!(needed, "{:?} member {} is redundant", strategy, v);
            }
        }
    }
}
