//! Graph traversals: BFS, k-hop BFS, bidirectional BFS, DFS, topological sort.
//!
//! Algorithm 1 of the paper builds the index by running a k-hop BFS from each
//! cover vertex ([`LaneSweep`] runs 64 of them at once); the µ-BFS baseline
//! of Section 6.3.1 answers queries with an online k-hop BFS; GRAIL's labels
//! come from randomized DFS. All of those traversals live here.

use crate::bitset::FixedBitSet;
use crate::vertex::VertexId;
use crate::view::GraphView;
use std::collections::VecDeque;

/// Direction of a traversal over a graph view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges from source to target (`outNei`).
    Forward,
    /// Follow edges from target to source (`inNei`).
    Backward,
}

impl Direction {
    #[inline]
    fn neighbors<G: GraphView>(self, g: &G, v: VertexId) -> &[VertexId] {
        match self {
            Direction::Forward => g.out_neighbors(v),
            Direction::Backward => g.in_neighbors(v),
        }
    }
}

/// Result of a (possibly hop-bounded) BFS from a single source.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// `dist[v] == Some(d)` iff `v` was reached in exactly `d` hops.
    dist: Vec<Option<u32>>,
    /// Vertices in the order they were discovered (the source comes first).
    order: Vec<VertexId>,
}

impl BfsResult {
    /// Hop distance from the source to `v`, if reached within the bound.
    #[inline]
    pub fn distance(&self, v: VertexId) -> Option<u32> {
        self.dist[v.index()]
    }

    /// True if `v` was reached.
    #[inline]
    pub fn reached(&self, v: VertexId) -> bool {
        self.dist[v.index()].is_some()
    }

    /// Discovery order (source first).
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// Number of reached vertices, including the source.
    pub fn reached_count(&self) -> usize {
        self.order.len()
    }

    /// Iterator over `(vertex, distance)` pairs for every reached vertex.
    pub fn reached_with_distance(&self) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        self.order.iter().map(move |&v| {
            (
                v,
                self.dist[v.index()].expect("reached vertex has distance"),
            )
        })
    }
}

/// Breadth-first search from `source`, following `direction`, visiting only
/// vertices within `max_hops` hops (`None` = unbounded, i.e. classic BFS).
pub fn bfs<G: GraphView>(
    g: &G,
    source: VertexId,
    direction: Direction,
    max_hops: Option<u32>,
) -> BfsResult {
    let n = g.vertex_count();
    let mut dist = vec![None; n];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();

    dist[source.index()] = Some(0);
    order.push(source);
    queue.push_back(source);

    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued vertex has distance");
        if let Some(bound) = max_hops {
            if du >= bound {
                continue;
            }
        }
        for &v in direction.neighbors(g, u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                order.push(v);
                queue.push_back(v);
            }
        }
    }
    BfsResult { dist, order }
}

/// Exact shortest-path hop distance from `s` to `t` (forward BFS that stops
/// as soon as `t` is settled). `None` if `t` is unreachable.
pub fn shortest_distance<G: GraphView>(g: &G, s: VertexId, t: VertexId) -> Option<u32> {
    if s == t {
        return Some(0);
    }
    let mut dist = vec![u32::MAX; g.vertex_count()];
    let mut queue = VecDeque::new();
    dist[s.index()] = 0;
    queue.push_back(s);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for &v in g.out_neighbors(u) {
            if dist[v.index()] == u32::MAX {
                if v == t {
                    return Some(du + 1);
                }
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    None
}

/// Online k-hop reachability by forward BFS: `s →k t`?
///
/// This is the naive method the introduction argues against ("a BFS from a
/// celebrity ... is clearly out of the question for online query processing")
/// and the µ-BFS baseline of Table 7.
pub fn khop_reachable_bfs<G: GraphView>(g: &G, s: VertexId, t: VertexId, k: u32) -> bool {
    if s == t {
        return true;
    }
    if k == 0 {
        return false;
    }
    let mut visited = FixedBitSet::new(g.vertex_count());
    visited.insert_vertex(s);
    let mut frontier = vec![s];
    let mut next = Vec::new();
    for _ in 0..k {
        for &u in &frontier {
            for &v in g.out_neighbors(u) {
                if v == t {
                    return true;
                }
                if visited.insert_vertex(v) {
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            return false;
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    false
}

/// Classic (unbounded) reachability by forward BFS.
pub fn reachable_bfs<G: GraphView>(g: &G, s: VertexId, t: VertexId) -> bool {
    shortest_distance(g, s, t).is_some()
}

/// Reusable per-thread scratch for [`khop_reachable_bidirectional`].
///
/// The engine's off-bound query fallback runs one bidirectional search per
/// query; allocating two `O(n)` distance arrays plus frontier vectors per
/// call churned the allocator under fallback-heavy traffic. The scratch
/// keeps the buffers alive across calls, invalidating stale distances with
/// an epoch stamp (the trick [`NeighborhoodExplorer`] already uses) so a
/// query costs only the vertices it actually touches.
#[derive(Debug, Default)]
struct BidirScratch {
    epoch: u32,
    /// `mark_*[v] == epoch` iff `dist_*[v]` is valid for the current call.
    mark_f: Vec<u32>,
    mark_b: Vec<u32>,
    dist_f: Vec<u32>,
    dist_b: Vec<u32>,
    frontier_f: Vec<VertexId>,
    frontier_b: Vec<VertexId>,
    next: Vec<VertexId>,
}

impl BidirScratch {
    /// Prepares the scratch for a graph of `n` vertices and returns the
    /// epoch stamp valid for this call.
    fn begin(&mut self, n: usize) -> u32 {
        if self.mark_f.len() < n {
            self.mark_f.resize(n, 0);
            self.mark_b.resize(n, 0);
            self.dist_f.resize(n, 0);
            self.dist_b.resize(n, 0);
        }
        // Epoch 0 is the "never visited" value, so skip it on wrap-around.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark_f.iter_mut().for_each(|m| *m = 0);
            self.mark_b.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        }
        self.frontier_f.clear();
        self.frontier_b.clear();
        self.next.clear();
        self.epoch
    }
}

thread_local! {
    static BIDIR_SCRATCH: std::cell::RefCell<BidirScratch> =
        std::cell::RefCell::new(BidirScratch::default());
}

/// Bidirectional hop-bounded reachability: expands the smaller frontier from
/// both ends, up to `k` total hops. Exact, and often far cheaper than a
/// one-sided k-hop BFS on graphs with hub vertices.
///
/// Visited/frontier buffers live in thread-local scratch reused across
/// calls, so repeated queries (the engine's off-bound fallback path) do not
/// allocate.
pub fn khop_reachable_bidirectional<G: GraphView>(g: &G, s: VertexId, t: VertexId, k: u32) -> bool {
    if s == t {
        return true;
    }
    if k == 0 {
        return false;
    }
    BIDIR_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let epoch = scratch.begin(g.vertex_count());
        let BidirScratch {
            mark_f,
            mark_b,
            dist_f,
            dist_b,
            frontier_f,
            frontier_b,
            next,
            ..
        } = scratch;
        // dist_f[v] = hops from s going forward; dist_b[v] = hops to t backward.
        mark_f[s.index()] = epoch;
        dist_f[s.index()] = 0;
        mark_b[t.index()] = epoch;
        dist_b[t.index()] = 0;
        frontier_f.push(s);
        frontier_b.push(t);
        let mut used_f = 0u32;
        let mut used_b = 0u32;

        while used_f + used_b < k && (!frontier_f.is_empty() || !frontier_b.is_empty()) {
            // Expand the smaller non-empty frontier.
            let forward = if frontier_b.is_empty() {
                true
            } else if frontier_f.is_empty() {
                false
            } else {
                frontier_f.len() <= frontier_b.len()
            };
            debug_assert!(k - (used_f + used_b) >= 1);
            let (frontier, mark_mine, dist_mine, mark_other, dist_other, used, dir) = if forward {
                (
                    &mut *frontier_f,
                    &mut *mark_f,
                    &mut *dist_f,
                    &*mark_b,
                    &*dist_b,
                    &mut used_f,
                    Direction::Forward,
                )
            } else {
                (
                    &mut *frontier_b,
                    &mut *mark_b,
                    &mut *dist_b,
                    &*mark_f,
                    &*dist_f,
                    &mut used_b,
                    Direction::Backward,
                )
            };
            next.clear();
            for &u in frontier.iter() {
                let du = dist_mine[u.index()];
                for &v in dir.neighbors(g, u) {
                    if mark_mine[v.index()] == epoch {
                        continue;
                    }
                    mark_mine[v.index()] = epoch;
                    dist_mine[v.index()] = du + 1;
                    // Meeting point: total path length must fit within k.
                    if mark_other[v.index()] == epoch {
                        let total = du + 1 + dist_other[v.index()];
                        if total <= k {
                            return true;
                        }
                    }
                    next.push(v);
                }
            }
            std::mem::swap(frontier, next);
            *used += 1;
        }
        false
    })
}

/// Result of a depth-first search over the whole graph.
#[derive(Debug, Clone)]
pub struct DfsForest {
    /// Discovery time of each vertex (preorder rank).
    pub discovery: Vec<u32>,
    /// Finish time of each vertex (postorder rank).
    pub finish: Vec<u32>,
    /// Vertices in postorder (useful for SCC / topological processing).
    pub postorder: Vec<VertexId>,
}

/// Iterative DFS over all vertices, visiting roots in the order given by
/// `roots` (falling back to id order for unvisited vertices). Children are
/// visited in the order produced by `child_order`, which lets GRAIL use a
/// different random permutation per traversal.
pub fn dfs_forest<G: GraphView, F>(g: &G, roots: &[VertexId], mut child_order: F) -> DfsForest
where
    F: FnMut(&[VertexId]) -> Vec<VertexId>,
{
    let n = g.vertex_count();
    let mut discovery = vec![u32::MAX; n];
    let mut finish = vec![u32::MAX; n];
    let mut postorder = Vec::with_capacity(n);
    let mut clock = 0u32;

    // Explicit stack of (vertex, next-child-index, children).
    let mut stack: Vec<(VertexId, usize, Vec<VertexId>)> = Vec::new();

    let all_roots: Vec<VertexId> = roots.iter().copied().chain(g.vertices()).collect();

    for root in all_roots {
        if discovery[root.index()] != u32::MAX {
            continue;
        }
        discovery[root.index()] = clock;
        clock += 1;
        stack.push((root, 0, child_order(g.out_neighbors(root))));
        while let Some((v, idx, children)) = stack.last_mut() {
            if let Some(&child) = children.get(*idx) {
                *idx += 1;
                if discovery[child.index()] == u32::MAX {
                    discovery[child.index()] = clock;
                    clock += 1;
                    stack.push((child, 0, child_order(g.out_neighbors(child))));
                }
            } else {
                finish[v.index()] = clock;
                clock += 1;
                postorder.push(*v);
                stack.pop();
            }
        }
    }
    DfsForest {
        discovery,
        finish,
        postorder,
    }
}

/// Topological order of a DAG (Kahn's algorithm). Returns `None` if the graph
/// contains a cycle.
pub fn topological_sort<G: GraphView>(g: &G) -> Option<Vec<VertexId>> {
    let n = g.vertex_count();
    let mut indeg: Vec<u32> = (0..n)
        .map(|v| g.in_degree(VertexId(v as u32)) as u32)
        .collect();
    let mut queue: VecDeque<VertexId> = g.vertices().filter(|&v| indeg[v.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in g.out_neighbors(u) {
            indeg[v.index()] -= 1;
            if indeg[v.index()] == 0 {
                queue.push_back(v);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Sources per pass of [`LaneSweep`]: one bit of a `u64` lane word each.
pub const SWEEP_LANES: usize = 64;

/// The index-construction kernel: Algorithm 1, Line 5 (`Gk(u)` of Section
/// 4.1.3) for up to [`SWEEP_LANES`] sources at once.
///
/// A level-synchronous, multi-source bit-parallel forward BFS (MS-BFS:
/// Then et al., "The More the Merrier", PVLDB 8(4), 2014). Source `i` owns
/// bit `i` of three `u64` words per vertex: `seen` (reached at any level),
/// `frontier` (reached at the current level) and `next` (reached at the
/// level being built). One scan of a frontier vertex's out-neighbours
/// advances every lane that holds it, so sources with overlapping
/// neighbourhoods share the edge scans a per-source BFS would repeat.
///
/// Rows leave the sweep sorted without a comparison sort. When a labelled
/// vertex enters `next`, its `(depth, lanes)` word is chained onto its
/// label and the label is marked in a bitmap over the label range. After
/// the last level the bitmap is walked in label order and each chain's
/// lanes are scattered into the rows. A lane reaches a vertex at one depth
/// only and labels are distinct, so every row comes out strictly
/// increasing by label.
///
/// The scratch is reused across calls: the vertex words grow to the largest
/// graph seen, the label chains to the largest label seen (cover positions
/// in every caller, so the cover size), and both are reset sparsely, so a
/// pass costs only the vertices it reaches, and a build sweeps every source
/// without allocating per source.
#[derive(Debug, Default, Clone)]
pub struct LaneSweep {
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    /// Vertices with a nonzero `seen` word.
    touched: Vec<VertexId>,
    /// Vertices with a nonzero `frontier` / `next` word.
    frontier_list: Vec<VertexId>,
    next_list: Vec<VertexId>,
    /// Per label, the newest of its links in `links` (`NO_LINK` if none).
    head: Vec<u32>,
    /// One bit per label with a chain this pass.
    marked: Vec<u64>,
    /// The lanes that reached a labelled vertex at one depth, chained per
    /// label.
    links: Vec<LaneLink>,
    /// One output row per lane, capacity kept across passes.
    rows: Vec<Vec<(u32, u32)>>,
}

/// One link of a label's chain in [`LaneSweep`].
#[derive(Debug, Clone, Copy)]
struct LaneLink {
    lanes: u64,
    depth: u32,
    /// The label's previous link, or `NO_LINK`.
    prev: u32,
}

/// End of a label chain in [`LaneSweep`].
const NO_LINK: u32 = u32::MAX;

impl LaneSweep {
    /// Creates an empty sweep; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one k-hop forward sweep from each of `sources` (at most
    /// [`SWEEP_LANES`]) and returns one row per source, in source order.
    ///
    /// Row `i` lists `(label[v], dist(sources[i], v))` for every vertex
    /// `v ≠ sources[i]` within `k` hops whose label is not `u32::MAX`,
    /// strictly increasing by label. Labels are cover positions in every
    /// caller, so a row is exactly one CSR row of the index graph. `label`
    /// must have an entry for every vertex of `g`, and labels must be
    /// distinct. The rows are valid until the next call.
    pub fn sweep<G: GraphView>(
        &mut self,
        g: &G,
        sources: &[VertexId],
        k: u32,
        label: &[u32],
    ) -> &[Vec<(u32, u32)>] {
        assert!(sources.len() <= SWEEP_LANES, "at most 64 sources per pass");
        let n = g.vertex_count();
        debug_assert!(label.len() >= n, "one label per vertex");
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.frontier.resize(n, 0);
            self.next.resize(n, 0);
        }
        if self.rows.len() < sources.len() {
            self.rows.resize_with(sources.len(), Vec::new);
        }
        let Self {
            seen,
            frontier,
            next,
            touched,
            frontier_list,
            next_list,
            head,
            marked,
            links,
            rows,
        } = self;
        let rows = &mut rows[..sources.len()];
        rows.iter_mut().for_each(Vec::clear);

        for (lane, &s) in sources.iter().enumerate() {
            let bit = 1u64 << lane;
            if seen[s.index()] == 0 {
                touched.push(s);
            }
            seen[s.index()] |= bit;
            if frontier[s.index()] == 0 {
                frontier_list.push(s);
            }
            frontier[s.index()] |= bit;
        }

        for depth in 1..=k {
            if frontier_list.is_empty() {
                break;
            }
            for &u in frontier_list.iter() {
                let lanes = std::mem::take(&mut frontier[u.index()]);
                for &v in g.out_neighbors(u) {
                    let fresh = lanes & !seen[v.index()];
                    if fresh == 0 {
                        continue;
                    }
                    if seen[v.index()] == 0 {
                        touched.push(v);
                    }
                    seen[v.index()] |= fresh;
                    if next[v.index()] == 0 {
                        next_list.push(v);
                    }
                    next[v.index()] |= fresh;
                }
            }
            frontier_list.clear();
            for &v in next_list.iter() {
                let l = label[v.index()];
                if l == u32::MAX {
                    continue;
                }
                let l = l as usize;
                if l >= head.len() {
                    head.resize(l + 1, NO_LINK);
                    marked.resize(head.len().div_ceil(64), 0);
                }
                marked[l / 64] |= 1u64 << (l % 64);
                links.push(LaneLink {
                    lanes: next[v.index()],
                    depth,
                    prev: head[l],
                });
                head[l] = (links.len() - 1) as u32;
            }
            std::mem::swap(frontier, next);
            std::mem::swap(frontier_list, next_list);
        }

        // Label order: scatter each marked label's chain into the rows,
        // resetting the chain scratch as it is read.
        for (w, word) in marked.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let l = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut at = std::mem::replace(&mut head[l], NO_LINK);
                while at != NO_LINK {
                    let link = links[at as usize];
                    let mut lanes = link.lanes;
                    while lanes != 0 {
                        rows[lanes.trailing_zeros() as usize].push((l as u32, link.depth));
                        lanes &= lanes - 1;
                    }
                    at = link.prev;
                }
            }
        }
        links.clear();

        // Sparse reset: only the words this pass set are nonzero.
        for v in frontier_list.drain(..) {
            frontier[v.index()] = 0;
        }
        for v in touched.drain(..) {
            seen[v.index()] = 0;
        }
        rows
    }
}

/// A reusable bounded-BFS scratch space for single-source neighbourhood
/// exploration.
///
/// [`bfs`] allocates `O(n)` per call, far too expensive when a *query* needs
/// the h-hop neighbourhood of its endpoints — the situation in Algorithm 3
/// of the paper — or when incremental maintenance recomputes one index row.
/// `NeighborhoodExplorer` keeps its visitation marks across calls using an
/// epoch counter, so each exploration costs only the size of the
/// neighbourhood actually touched. (Whole-index sweeps use [`LaneSweep`].)
#[derive(Debug, Default, Clone)]
pub struct NeighborhoodExplorer {
    epoch: u32,
    mark: Vec<u32>,
    queue: VecDeque<(VertexId, u32)>,
    result: Vec<(VertexId, u32)>,
}

impl NeighborhoodExplorer {
    /// Creates an empty explorer; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns every vertex within `max_hops` of `start` in the given
    /// direction, paired with its hop distance (the start vertex appears with
    /// distance 0). The slice is valid until the next call.
    pub fn explore<G: GraphView>(
        &mut self,
        g: &G,
        start: VertexId,
        max_hops: u32,
        direction: Direction,
    ) -> &[(VertexId, u32)] {
        let n = g.vertex_count();
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        // Epoch 0 is the "never visited" value, so skip it on wrap-around.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        self.queue.clear();
        self.result.clear();

        self.mark[start.index()] = epoch;
        self.queue.push_back((start, 0));
        while let Some((u, d)) = self.queue.pop_front() {
            self.result.push((u, d));
            if d >= max_hops {
                continue;
            }
            for &v in direction.neighbors(g, u) {
                if self.mark[v.index()] != epoch {
                    self.mark[v.index()] = epoch;
                    self.queue.push_back((v, d + 1));
                }
            }
        }
        &self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::DiGraph;
    use proptest::prelude::*;

    /// A directed path 0 -> 1 -> 2 -> 3 -> 4 plus a shortcut 0 -> 3.
    fn path_with_shortcut() -> DiGraph {
        DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)])
    }

    #[test]
    fn bfs_computes_hop_distances() {
        let g = path_with_shortcut();
        let r = bfs(&g, VertexId(0), Direction::Forward, None);
        assert_eq!(r.distance(VertexId(0)), Some(0));
        assert_eq!(r.distance(VertexId(2)), Some(2));
        assert_eq!(r.distance(VertexId(3)), Some(1)); // via the shortcut
        assert_eq!(r.distance(VertexId(4)), Some(2));
        assert_eq!(r.reached_count(), 5);
    }

    #[test]
    fn bounded_bfs_respects_hop_limit() {
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let r = bfs(&g, VertexId(0), Direction::Forward, Some(2));
        assert!(r.reached(VertexId(2)));
        assert!(!r.reached(VertexId(3)));
        assert_eq!(r.reached_count(), 3);
    }

    #[test]
    fn backward_bfs_follows_in_edges() {
        let g = path_with_shortcut();
        let r = bfs(&g, VertexId(4), Direction::Backward, None);
        assert_eq!(r.distance(VertexId(0)), Some(2)); // 0 -> 3 -> 4 backwards
        assert_eq!(r.distance(VertexId(1)), Some(3));
    }

    #[test]
    fn shortest_distance_matches_bfs() {
        let g = path_with_shortcut();
        assert_eq!(shortest_distance(&g, VertexId(0), VertexId(4)), Some(2));
        assert_eq!(shortest_distance(&g, VertexId(4), VertexId(0)), None);
        assert_eq!(shortest_distance(&g, VertexId(2), VertexId(2)), Some(0));
    }

    #[test]
    fn khop_bfs_is_exact_on_path() {
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert!(khop_reachable_bfs(&g, VertexId(0), VertexId(3), 3));
        assert!(!khop_reachable_bfs(&g, VertexId(0), VertexId(3), 2));
        assert!(khop_reachable_bfs(&g, VertexId(0), VertexId(0), 0));
        assert!(!khop_reachable_bfs(&g, VertexId(0), VertexId(1), 0));
    }

    #[test]
    fn bidirectional_matches_unidirectional() {
        let g = path_with_shortcut();
        for s in 0..5u32 {
            for t in 0..5u32 {
                for k in 0..6u32 {
                    let a = khop_reachable_bfs(&g, VertexId(s), VertexId(t), k);
                    let b = khop_reachable_bidirectional(&g, VertexId(s), VertexId(t), k);
                    assert_eq!(a, b, "mismatch for s={s} t={t} k={k}");
                }
            }
        }
    }

    #[test]
    fn bidirectional_scratch_survives_graph_switches_and_many_calls() {
        // The thread-local scratch must stay correct across interleaved
        // graphs of different sizes and enough calls to exercise epoch
        // advancement.
        let small = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        let large = DiGraph::from_edges(12, (0..11u32).map(|i| (i, i + 1)));
        for _ in 0..50 {
            assert!(khop_reachable_bidirectional(
                &small,
                VertexId(0),
                VertexId(2),
                2
            ));
            assert!(!khop_reachable_bidirectional(
                &small,
                VertexId(2),
                VertexId(0),
                3
            ));
            assert!(khop_reachable_bidirectional(
                &large,
                VertexId(0),
                VertexId(11),
                11
            ));
            assert!(!khop_reachable_bidirectional(
                &large,
                VertexId(0),
                VertexId(11),
                10
            ));
        }
    }

    #[test]
    fn dfs_produces_valid_interval_nesting() {
        let g = DiGraph::from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 4), (4, 5)]);
        let f = dfs_forest(&g, &[VertexId(0)], |ns| ns.to_vec());
        // Every vertex must be discovered and finished, discovery < finish.
        for v in 0..6 {
            assert!(f.discovery[v] < f.finish[v]);
        }
        // Child intervals nest inside parent intervals.
        assert!(f.discovery[0] < f.discovery[1] && f.finish[1] < f.finish[0]);
        assert!(f.discovery[4] < f.discovery[5] && f.finish[5] < f.finish[4]);
        assert_eq!(f.postorder.len(), 6);
    }

    #[test]
    fn topological_sort_on_dag_and_cycle() {
        let dag = DiGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let order = topological_sort(&dag).expect("dag has a topological order");
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, v) in order.iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        for (u, v) in dag.edges() {
            assert!(pos[u.index()] < pos[v.index()]);
        }
        let cyclic = DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        assert!(topological_sort(&cyclic).is_none());
    }

    #[test]
    fn neighborhood_explorer_matches_bounded_bfs() {
        let g = path_with_shortcut();
        let mut explorer = NeighborhoodExplorer::new();
        for start in g.vertices() {
            for hops in 0..4u32 {
                for dir in [Direction::Forward, Direction::Backward] {
                    let reference = bfs(&g, start, dir, Some(hops));
                    let mut expected: Vec<(VertexId, u32)> =
                        reference.reached_with_distance().collect();
                    let mut got = explorer.explore(&g, start, hops, dir).to_vec();
                    expected.sort_unstable();
                    got.sort_unstable();
                    assert_eq!(got, expected, "start {start}, hops {hops}, {dir:?}");
                }
            }
        }
    }

    #[test]
    fn neighborhood_explorer_reuses_buffers_across_graphs() {
        let small = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        let large = DiGraph::from_edges(10, (0..9u32).map(|i| (i, i + 1)));
        let mut explorer = NeighborhoodExplorer::new();
        assert_eq!(
            explorer
                .explore(&small, VertexId(0), 5, Direction::Forward)
                .len(),
            3
        );
        assert_eq!(
            explorer
                .explore(&large, VertexId(0), 2, Direction::Forward)
                .len(),
            3
        );
        assert_eq!(
            explorer
                .explore(&large, VertexId(0), 20, Direction::Forward)
                .len(),
            10
        );
    }

    /// Per-source reference for one [`LaneSweep`] row.
    fn reference_row(g: &DiGraph, s: VertexId, k: u32, label: &[u32]) -> Vec<(u32, u32)> {
        let mut row: Vec<(u32, u32)> = bfs(g, s, Direction::Forward, Some(k))
            .reached_with_distance()
            .filter(|&(v, _)| v != s && label[v.index()] != u32::MAX)
            .map(|(v, d)| (label[v.index()], d))
            .collect();
        row.sort_unstable();
        row
    }

    #[test]
    fn lane_sweep_matches_per_source_bfs() {
        // Cycles, a shortcut and vertices every lane shares; 70 sources
        // span two passes, the second one partial.
        let n = 90u32;
        let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        edges.extend((0..n).step_by(7).map(|i| (i, (i * 13 + 5) % n)));
        let g = DiGraph::from_edges(n as usize, edges);
        // Every third vertex is unlabelled; labels are not vertex ids.
        let label: Vec<u32> = (0..n)
            .map(|v| if v % 3 == 2 { u32::MAX } else { 1000 - v })
            .collect();
        let sources: Vec<VertexId> = (0..70).map(|i| VertexId((i * 11) % n)).collect();
        let mut sweep = LaneSweep::new();
        for k in [1, 2, 3, 5, n] {
            for chunk in sources.chunks(SWEEP_LANES) {
                let rows = sweep.sweep(&g, chunk, k, &label).to_vec();
                assert_eq!(rows.len(), chunk.len());
                for (&s, row) in chunk.iter().zip(&rows) {
                    assert_eq!(*row, reference_row(&g, s, k, &label), "k={k} s={s}");
                }
            }
        }
    }

    /// A random digraph (cycles and self-loops allowed) on 1–119 vertices,
    /// sparse permuted labels (unlabelled vertices, gaps, labels up to
    /// several times `n`), all vertices as sources in a shuffled order, a
    /// pass size in 1–64 and `k ∈ {1, 2, 3, 5, n}`.
    #[allow(clippy::type_complexity)]
    fn arb_sweep_case() -> impl Strategy<Value = (DiGraph, Vec<u32>, Vec<VertexId>, usize, u32)> {
        use proptest::collection::vec;
        (1usize..120).prop_flat_map(|n| {
            (
                (
                    vec((0..n as u32, 0..n as u32), 0..4 * n),
                    vec(0u32..1 << 30, n..n + 1),
                ),
                (
                    vec(0u8..4, n..n + 1), // 0 leaves a vertex unlabelled
                    (
                        (1u32..4, 0..2 * n as u32 + 1),
                        (1usize..SWEEP_LANES + 1, 0usize..5),
                    ),
                ),
            )
                .prop_map(
                    move |((edges, keys), (keep, ((stride, offset), (pass, k_i))))| {
                        let mut order: Vec<u32> = (0..n as u32).collect();
                        order.sort_by_key(|&v| (keys[v as usize], v));
                        let mut label = vec![u32::MAX; n];
                        for (rank, &v) in order.iter().enumerate() {
                            if keep[v as usize] != 0 {
                                label[v as usize] = offset + rank as u32 * stride;
                            }
                        }
                        let mut sources: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
                        sources.sort_by_key(|v| (keys[v.index()].reverse_bits(), v.0));
                        let k = [1, 2, 3, 5, n as u32][k_i];
                        (DiGraph::from_edges(n, edges), label, sources, pass, k)
                    },
                )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

        #[test]
        fn lane_sweep_rows_are_sorted_per_source_bfs(case in arb_sweep_case()) {
            let (g, label, sources, pass, k) = case;
            let mut sweep = LaneSweep::new();
            for chunk in sources.chunks(pass) {
                let rows = sweep.sweep(&g, chunk, k, &label);
                prop_assert_eq!(rows.len(), chunk.len());
                for (&s, row) in chunk.iter().zip(rows) {
                    prop_assert!(
                        row.windows(2).all(|w| w[0].0 < w[1].0),
                        "row of {} is not strictly increasing: {:?}", s, row
                    );
                    prop_assert_eq!(row, &reference_row(&g, s, k, &label), "k={} s={}", k, s);
                }
            }
        }
    }

    #[test]
    fn lane_sweep_scratch_survives_graph_switches() {
        let small = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        let large = DiGraph::from_edges(12, (0..11u32).map(|i| (i, i + 1)));
        let label: Vec<u32> = (0..12).collect();
        let mut sweep = LaneSweep::new();
        for _ in 0..3 {
            let rows = sweep.sweep(&large, &[VertexId(0), VertexId(5)], 3, &label);
            assert_eq!(rows[0], vec![(1, 1), (2, 2), (3, 3)]);
            assert_eq!(rows[1], vec![(6, 1), (7, 2), (8, 3)]);
            let rows = sweep.sweep(&small, &[VertexId(0)], 5, &label);
            assert_eq!(rows, [vec![(1, 1), (2, 2)]]);
        }
    }
}
