//! The weighted index graph `I = (V_I, E_I, ω_I)` shared by k-reach and
//! (h,k)-reach.
//!
//! Vertices of the index graph are the cover vertices; an edge `(u, v)`
//! records that `v` is k-hop reachable from `u` in the input graph, weighted
//! by the clamped shortest-path distance (Definition 1 / Definition 2). The
//! adjacency is CSR with per-source target lists sorted by id, so an edge
//! lookup costs `O(log outDeg(u, I))` exactly as analysed in §4.2.2 — and on
//! top of the CSR a **hybrid successor representation** accelerates the hot
//! query paths:
//!
//! * **Dense rows.** Cover vertices whose index out-degree reaches a
//!   threshold (hubs) additionally store one bitset per weight class,
//!   *cumulative by distance*: bitset `c` holds every target with clamped
//!   weight `≤ clamp_min + c`. A weight-bounded membership test
//!   ([`CoverIndexGraph::edge_weight_le`]) is then a single word probe, and
//!   the Case-4 inner loop of Algorithm 2 becomes a bitset-AND between a
//!   hub row and the query's candidate set
//!   ([`PreparedCandidates::row_any_le`]).
//! * **Sparse rows.** Everything below the threshold keeps the sorted CSR
//!   slice, probed by galloping merge-intersection
//!   ([`kreach_graph::intersect`]) instead of one binary search per
//!   candidate.
//!
//! Rows are addressed by `start..end` spans, so the incremental maintainer
//! ([`crate::dynamic`]) patches this one index in place; every build and
//! load is the compact CSR of Algorithm 1. The bitsets are derived from the
//! rows: a patched dense row re-derives its class words, and a cover that
//! outgrows the bitset width re-derives them all, choosing the dense rows
//! afresh. So the paper-shaped index — cover, rows, packed weights — stays
//! the single source of truth.

use crate::weights::WeightStore;
use kreach_graph::bitset::and_any;
use kreach_graph::intersect::{gallop_lower_bound, scan_find, sorted_contains};
use kreach_graph::traversal::{LaneSweep, SWEEP_LANES};
use kreach_graph::{FixedBitSet, GraphView, VertexId};
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;

/// Sentinel for "vertex is not in the cover".
const NOT_COVERED: u32 = u32::MAX;

/// Sentinel for "row has no dense (bitset) form".
const NOT_DENSE: u32 = u32::MAX;

/// Weight spans wider than this get no dense rows (each dense row stores one
/// bitset per class; k-reach always has 3 classes, (h,k)-reach `2h + 1`).
const MAX_DENSE_CLASSES: u32 = 9;

/// Default dense-row degree threshold for a cover of `cover_size` vertices:
/// a row qualifies once its bitset form (`classes · cover_size / 8` bytes)
/// is within a small constant of its sorted-slice form.
pub fn default_dense_threshold(cover_size: usize) -> usize {
    (cover_size / 16).max(64)
}

/// [`Spans`] compacts once dead entries exceed one per `COMPACT_RATIO` live
/// ones, each list counting as one too (a compaction walks every list).
const COMPACT_RATIO: usize = 4;

/// One flat column of span-addressed lists (row targets, row weights, a
/// position-list array), moved in step with its [`Spans`].
pub(crate) trait SpanColumn {
    /// Appends a copy of the entries in `copy`, then `blank` placeholder
    /// entries, to be overwritten.
    fn extend_tail(&mut self, copy: Range<usize>, blank: usize);
    /// Keeps only the entries of `ranges`, concatenated in order.
    fn gather(&mut self, ranges: &mut dyn Iterator<Item = Range<usize>>);
}

impl SpanColumn for Vec<u32> {
    fn extend_tail(&mut self, copy: Range<usize>, blank: usize) {
        self.extend_from_within(copy);
        self.resize(self.len() + blank, 0);
    }

    fn gather(&mut self, ranges: &mut dyn Iterator<Item = Range<usize>>) {
        let mut kept = Vec::with_capacity(self.len());
        ranges.for_each(|range| kept.extend_from_slice(&self[range]));
        *self = kept;
    }
}

impl<W: WeightStore> SpanColumn for W {
    fn extend_tail(&mut self, copy: Range<usize>, blank: usize) {
        copy.for_each(|i| self.push(self.get(i)));
        (0..blank).for_each(|_| self.push(self.clamp_min()));
    }

    fn gather(&mut self, ranges: &mut dyn Iterator<Item = Range<usize>>) {
        let mut kept = W::with_clamp(self.clamp_min());
        ranges.for_each(|range| kept.extend_from(self, range));
        *self = kept;
    }
}

/// Variable-length lists packed into flat columns, list `i` spanning
/// `start[i]..end(i)`. Built compact (a CSR); a list whose new contents fit
/// the space it holds is rewritten in place, one that outgrows it moves to
/// the tail, and [`Spans::compact`] (run once per batch of patches) removes
/// the dead entries, restoring the CSR, once they exceed one per
/// [`COMPACT_RATIO`] live.
#[derive(Debug, Clone)]
pub(crate) struct Spans {
    /// List starts, plus the columns' length (the tail) as a last entry —
    /// exactly the CSR offsets while the lists are compact.
    start: Vec<u32>,
    /// List ends, materialized by the first patch; empty while compact,
    /// when list `i` ends where list `i + 1` starts.
    end: Vec<u32>,
    /// Where each list's space ends (a list that shrank keeps it, to grow
    /// back in place); materialized with `end`.
    held: Vec<u32>,
    /// Column entries some list spans.
    live: usize,
}

impl Spans {
    /// Spans over a compact CSR: list `i` is `offsets[i]..offsets[i + 1]`.
    pub(crate) fn from_offsets(offsets: Vec<u32>) -> Self {
        Spans {
            live: offsets[offsets.len() - 1] as usize,
            start: offsets,
            end: Vec::new(),
            held: Vec::new(),
        }
    }

    /// Number of lists.
    pub(crate) fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// The column range of list `i`.
    #[inline]
    pub(crate) fn range(&self, i: usize) -> Range<usize> {
        let end = match self.end.get(i) {
            Some(&end) => end,
            None => self.start[i + 1],
        };
        self.start[i] as usize..end as usize
    }

    /// The column ranges of every list, in list order.
    pub(crate) fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.len()).map(|i| self.range(i))
    }

    /// The columns' length: the last entry of `start`.
    fn tail(&mut self) -> &mut u32 {
        self.start.last_mut().expect("spans end with the tail")
    }

    /// Appends an empty list.
    pub(crate) fn push(&mut self) {
        let tail = *self.tail();
        if !self.end.is_empty() {
            self.end.push(tail);
            self.held.push(tail);
        }
        self.start.push(tail);
    }

    /// Makes list `i` `len` entries long, keeping its first `keep` entries
    /// (the rest are to be overwritten), and returns its new range.
    pub(crate) fn resize(
        &mut self,
        i: usize,
        len: usize,
        keep: usize,
        columns: &mut [&mut dyn SpanColumn],
    ) -> Range<usize> {
        let old = self.range(i);
        if self.end.is_empty() {
            self.end = self.start[1..].to_vec();
            self.held = self.end.clone();
        }
        let tail = *self.tail() as usize;
        if old.start + len > self.held[i] as usize {
            let (copy, appended) = if self.held[i] as usize == tail {
                (0..0, old.start + len - tail)
            } else {
                // Moving to the tail, hold an eighth more: a list that keeps
                // growing (a row gaining an entry per cover repair) then
                // moves rarely.
                self.start[i] = tail as u32;
                (old.start..old.start + keep.min(old.len()), len + len / 8)
            };
            for column in columns.iter_mut() {
                column.extend_tail(copy.clone(), appended - copy.len());
            }
            self.held[i] = (tail + appended) as u32;
            *self.tail() = self.held[i];
        }
        self.end[i] = self.start[i] + len as u32;
        self.live = self.live + len - old.len();
        self.range(i)
    }

    /// Rewrites every column with the lists back to back in list order, if
    /// the dead entries have passed their bound.
    pub(crate) fn compact(&mut self, columns: &mut [&mut dyn SpanColumn]) {
        if (*self.tail() as usize - self.live) * COMPACT_RATIO <= self.live + self.len() {
            return;
        }
        for column in columns.iter_mut() {
            column.gather(&mut self.ranges());
        }
        let mut at = 0u32;
        for i in 0..self.len() {
            let len = self.range(i).len() as u32;
            self.start[i] = at;
            at += len;
        }
        *self.tail() = at;
        self.end = Vec::new();
        self.held = Vec::new();
    }

    /// Heap footprint in bytes.
    pub(crate) fn size_bytes(&self) -> usize {
        (self.start.len() + self.end.len() + self.held.len()) * std::mem::size_of::<u32>()
    }
}

/// The hybrid successor acceleration: distance-bucketed bitsets for
/// high-out-degree cover rows, stored as **one flat word array** indexed by
/// `(slot, class)` stride math so a probe is a single dependent load (a
/// nested `Vec<Vec<FixedBitSet>>` costs three). Derived from the CSR at
/// assembly time.
#[derive(Clone, Default)]
struct RowAccel {
    /// Degree threshold at/above which a row gets bitset form.
    threshold: usize,
    /// Number of weight classes (`max stored offset + 1`); class bitset `c`
    /// of a dense row holds targets with weight `≤ clamp_min + c`.
    classes: u32,
    /// `u64` words per class bitset (`ceil(cover_size / 64)`).
    words_per_class: usize,
    /// Maps a cover position to its dense slot, or `NOT_DENSE`.
    dense_of: Vec<u32>,
    /// Class bitsets of every dense row, laid out `[slot][class][word]`.
    dense_words: Vec<u64>,
    /// Number of dense rows.
    dense_rows: usize,
}

impl RowAccel {
    /// Builds the acceleration structure over the rows, giving rows at or
    /// above the degree `threshold` the bitset form, with `classes` weight
    /// classes: the rows' widest weight span when `None`, found by a scan of
    /// every weight that an assembly (which tracked the span as it pushed
    /// rows) or a re-derivation (passing the classes it had) skips, falling
    /// back to the scan if a dense row's weights outgrow them.
    fn build<W: WeightStore>(
        spans: &Spans,
        targets: &[u32],
        weights: &W,
        threshold: usize,
        classes: Option<u32>,
    ) -> RowAccel {
        let cover_size = spans.len();
        let clamp_min = weights.clamp_min();
        let classes = classes.unwrap_or_else(|| {
            let widest = spans.ranges().flatten().map(|i| weights.get(i) - clamp_min);
            widest.max().map_or(1, |offset| offset + 1)
        });
        let mut accel = RowAccel {
            threshold,
            classes,
            words_per_class: cover_size.div_ceil(64),
            dense_of: vec![NOT_DENSE; cover_size],
            dense_words: Vec::new(),
            dense_rows: 0,
        };
        if classes > MAX_DENSE_CLASSES {
            return accel;
        }
        let row_words = accel.classes as usize * accel.words_per_class;
        for p in 0..cover_size {
            let range = spans.range(p);
            if range.len() < threshold {
                continue;
            }
            let slot = accel.dense_rows;
            accel.dense_words.resize((slot + 1) * row_words, 0);
            if !accel.fill(slot, targets, weights, range) {
                return Self::build(spans, targets, weights, threshold, None);
            }
            accel.dense_of[p] = slot as u32;
            accel.dense_rows += 1;
        }
        accel
    }

    /// Derives the class bits of a dense slot from its row's entries `range`.
    /// Returns `false` if a weight lies past the top class (the slot is then
    /// partly filled, to be rebuilt).
    fn fill<W: WeightStore>(
        &mut self,
        slot: usize,
        targets: &[u32],
        weights: &W,
        range: Range<usize>,
    ) -> bool {
        let clamp_min = weights.clamp_min();
        let row_words = self.classes as usize * self.words_per_class;
        let base = slot * row_words;
        self.dense_words[base..base + row_words].fill(0);
        for i in range {
            let offset = weights.get(i) - clamp_min;
            if offset >= self.classes {
                return false;
            }
            let (word, bit) = (targets[i] as usize / 64, targets[i] as usize % 64);
            // Cumulative: the target is visible from its own class up.
            for c in offset as usize..self.classes as usize {
                self.dense_words[base + c * self.words_per_class + word] |= 1u64 << bit;
            }
        }
        true
    }

    /// The dense-row slot of a cover position, if it has one.
    #[inline]
    fn slot(&self, p: u32) -> Option<usize> {
        match self.dense_of.get(p as usize) {
            Some(&s) if s != NOT_DENSE => Some(s as usize),
            _ => None,
        }
    }

    /// The class bitset answering "weight ≤ bound" probes for a dense row,
    /// or `None` when the bound is below every stored weight.
    #[inline]
    fn class_words(&self, slot: usize, bound: u32, clamp_min: u32) -> Option<&[u64]> {
        let c = bound.checked_sub(clamp_min)?.min(self.classes - 1) as usize;
        let base = (slot * self.classes as usize + c) * self.words_per_class;
        Some(&self.dense_words[base..base + self.words_per_class])
    }

    /// Single-bit probe into a class bitset slice.
    #[inline]
    fn probe(words: &[u64], pv: u32) -> bool {
        words[pv as usize / 64] & (1u64 << (pv as usize % 64)) != 0
    }

    fn size_bytes(&self) -> usize {
        self.dense_of.len() * std::mem::size_of::<u32>()
            + self.dense_words.len() * std::mem::size_of::<u64>()
    }
}

/// Borrowed view of the hybrid successor acceleration
/// ([`CoverIndexGraph::accel_parts`]), exactly as laid out in memory.
#[derive(Debug, Clone, Copy)]
pub struct AccelParts<'a> {
    /// Dense-row degree threshold the index was built with.
    pub threshold: usize,
    /// Number of weight classes per dense row.
    pub classes: u32,
    /// `u64` words per class bitset (`ceil(cover_size / 64)`).
    pub words_per_class: usize,
    /// Cover position → dense slot map (`u32::MAX` marks a sparse row).
    pub dense_of: &'a [u32],
    /// Flat class bitset words, laid out `[slot][class][word]`.
    pub dense_words: &'a [u64],
    /// Number of dense rows.
    pub dense_rows: usize,
}

thread_local! {
    /// Scratch bitset holding a query's candidate positions during
    /// [`CoverIndexGraph::with_candidates`]; grown to the largest cover seen
    /// on this thread and cleared sparsely after each use.
    static CANDIDATE_SCRATCH: RefCell<FixedBitSet> = RefCell::new(FixedBitSet::new(0));
}

/// Candidate count below which a dense row is probed per candidate instead
/// of AND-ed against the scratch bitset.
const SCRATCH_MIN_CANDIDATES: usize = 8;

/// Row length at or below which single-target lookups use the branch-reduced
/// linear scan instead of a binary search (short sorted rows lose to the
/// search's unpredictable branches).
const SHORT_ROW_SCAN: usize = 64;

/// A weighted directed graph over the cover vertices, generic in how the
/// per-edge weights are stored (2-bit packed for k-reach, plain `u16` for
/// (h,k)-reach).
#[derive(Clone)]
pub struct CoverIndexGraph<W> {
    /// Maps an input-graph vertex to its dense cover position, or `NOT_COVERED`.
    cover_pos: Vec<u32>,
    /// Maps a cover position back to the input-graph vertex.
    cover: Vec<VertexId>,
    /// Row spans over `targets`/`weights`, one per cover position (the CSR
    /// offsets, until the maintainer patches a row).
    spans: Spans,
    /// Edge targets, as cover positions, sorted within each row.
    targets: Vec<u32>,
    /// Per-edge clamped distances, parallel to `targets`.
    weights: W,
    /// Hybrid successor acceleration, derived from the rows at assembly (or
    /// installed from a v3 file) and kept in step with every row patch.
    accel: RowAccel,
}

/// A CSR under construction, rows appended in cover-position order.
struct CsrRows<W> {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: W,
    /// The widest `weight − clamp_min` pushed so far, so the acceleration's
    /// class count needs no second pass over the weights.
    widest: u32,
}

impl<W: WeightStore> CsrRows<W> {
    fn new(clamp_min: u32, rows: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        CsrRows {
            offsets,
            targets: Vec::new(),
            weights: W::with_clamp(clamp_min),
            widest: 0,
        }
    }

    /// Appends one row of `(target position, distance)`, sorted by target
    /// position; distances are clamped to the store's `clamp_min`.
    fn push_row(&mut self, row: &[(u32, u32)]) {
        let clamp_min = self.weights.clamp_min();
        for &(t, w) in row {
            let w = w.max(clamp_min);
            self.widest = self.widest.max(w - clamp_min);
            self.targets.push(t);
            self.weights.push(w);
        }
        self.offsets.push(self.targets.len() as u32);
    }

    /// The rows of `sources`, swept 64 at a time and appended as they come.
    fn swept<G: GraphView>(
        g: &G,
        sources: &[VertexId],
        k: u32,
        label: &[u32],
        clamp_min: u32,
    ) -> Self {
        let mut csr = Self::new(clamp_min, sources.len());
        let mut lanes = LaneSweep::new();
        for pass in sources.chunks(SWEEP_LANES) {
            for row in lanes.sweep(g, pass, k, label) {
                csr.push_row(row);
            }
        }
        csr
    }

    /// Appends the rows of `other` after this CSR's rows.
    fn append(&mut self, other: CsrRows<W>) {
        let base = self.targets.len() as u32;
        self.offsets
            .extend(other.offsets[1..].iter().map(|&o| base + o));
        self.targets.extend_from_slice(&other.targets);
        self.weights
            .extend_from(&other.weights, 0..other.weights.len());
        self.widest = self.widest.max(other.widest);
    }

    /// The finished index graph over `cover`, its acceleration derived.
    fn into_graph(
        mut self,
        n: usize,
        cover: Vec<VertexId>,
        threshold: Option<usize>,
    ) -> CoverIndexGraph<W> {
        self.targets.shrink_to_fit();
        let mut cover_pos = vec![NOT_COVERED; n];
        for (p, &v) in cover.iter().enumerate() {
            cover_pos[v.index()] = p as u32;
        }
        let threshold = threshold.unwrap_or_else(|| default_dense_threshold(cover.len()));
        let spans = Spans::from_offsets(self.offsets);
        let classes = Some(self.widest + 1);
        let accel = RowAccel::build(&spans, &self.targets, &self.weights, threshold, classes);
        CoverIndexGraph {
            cover_pos,
            cover,
            spans,
            targets: self.targets,
            weights: self.weights,
            accel,
        }
    }
}

impl<W: WeightStore> CoverIndexGraph<W> {
    /// Assembles the index graph with the default dense-row threshold.
    ///
    /// * `n` — number of vertices of the input graph.
    /// * `cover` — the cover vertices; their order defines cover positions.
    /// * `edges_per_source` — for each cover position `p`, the list of
    ///   `(target cover position, clamped distance)` pairs. Lists need not be
    ///   sorted; they are sorted here.
    /// * `clamp_min` — lower clamp passed to the weight store.
    pub fn assemble(
        n: usize,
        cover: Vec<VertexId>,
        edges_per_source: Vec<Vec<(u32, u32)>>,
        clamp_min: u32,
    ) -> Self {
        Self::assemble_with_threshold(n, cover, edges_per_source, clamp_min, None)
    }

    /// [`CoverIndexGraph::assemble`] with an explicit dense-row degree
    /// threshold: rows with at least `threshold` index out-edges get the
    /// bitset form (`usize::MAX` disables it; `None` picks
    /// [`default_dense_threshold`]).
    pub fn assemble_with_threshold(
        n: usize,
        cover: Vec<VertexId>,
        mut edges_per_source: Vec<Vec<(u32, u32)>>,
        clamp_min: u32,
        threshold: Option<usize>,
    ) -> Self {
        assert_eq!(
            cover.len(),
            edges_per_source.len(),
            "one edge list per cover vertex"
        );
        let mut csr = CsrRows::new(clamp_min, cover.len());
        for list in &mut edges_per_source {
            list.sort_unstable_by_key(|&(t, _)| t);
            csr.push_row(list);
        }
        csr.into_graph(n, cover, threshold)
    }

    /// Reassembles an index graph from serialized rows without their
    /// acceleration (the load-only decoder of the older checkpoint layout in
    /// `kreach-store`), deriving the hybrid acceleration at the dense-row
    /// `threshold` (see [`CoverIndexGraph::assemble_with_threshold`]). The
    /// parts are untrusted: every structural invariant is checked as in
    /// [`CoverIndexGraph::from_raw_parts_with_accel`], and a violation is an
    /// `Err`, never a panic.
    pub fn try_from_raw_parts(
        n: usize,
        cover: Vec<VertexId>,
        offsets: Vec<u32>,
        targets: Vec<u32>,
        weights: W,
        threshold: Option<usize>,
    ) -> Result<Self, String> {
        let threshold = threshold.unwrap_or_else(|| default_dense_threshold(cover.len()));
        let sparse = vec![NOT_DENSE; cover.len()];
        let mut graph = Self::from_raw_parts_with_accel(
            n,
            cover,
            offsets,
            targets,
            weights,
            threshold,
            1,
            sparse,
            Vec::new(),
        )?;
        graph.rebuild_accel(None);
        Ok(graph)
    }

    /// Builds the index graph over `cover` by Algorithm 1, Lines 4–13: a
    /// k-hop forward sweep from every cover vertex, keeping the reached
    /// cover vertices with their distance clamped to `clamp_min`. Self-edges
    /// are omitted; query processing special-cases the identity.
    ///
    /// The sweep runs [`LaneSweep`] over 64 cover positions at a time and
    /// appends each pass's rows, which leave the sweep sorted, straight
    /// into the CSR, so no per-source edge lists are ever buffered and none
    /// is sorted. With `threads > 1` each
    /// worker sweeps a contiguous run of whole passes with its own scratch,
    /// and the fragments concatenate in position order. The result is the
    /// same for every `threads`, and equal to
    /// [`CoverIndexGraph::assemble_with_threshold`] over per-source BFS rows.
    pub fn sweep<G: GraphView>(
        g: &G,
        cover: Vec<VertexId>,
        k: u32,
        clamp_min: u32,
        threshold: Option<usize>,
        threads: usize,
    ) -> Self
    where
        W: Send,
    {
        let mut label = vec![NOT_COVERED; g.vertex_count()];
        for (p, &v) in cover.iter().enumerate() {
            label[v.index()] = p as u32;
        }
        let passes = cover.len().div_ceil(SWEEP_LANES);
        let workers = threads.clamp(1, passes.max(1));
        let label = &label[..];
        let csr = if workers == 1 {
            CsrRows::swept(g, &cover, k, label, clamp_min)
        } else {
            let per_worker = passes.div_ceil(workers) * SWEEP_LANES;
            std::thread::scope(|scope| {
                let handles: Vec<_> = cover
                    .chunks(per_worker)
                    .map(|part| scope.spawn(move || CsrRows::swept(g, part, k, label, clamp_min)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("sweep worker panicked"))
                    .reduce(|mut csr, fragment| {
                        csr.append(fragment);
                        csr
                    })
                    .expect("at least one worker")
            })
        };
        csr.into_graph(g.vertex_count(), cover, threshold)
    }

    /// Reassembles an index graph from raw parts **including** the hybrid
    /// acceleration, installing the serialized bitset words directly instead
    /// of rebuilding them — the load path of the v3 on-disk format, whose
    /// layout is exactly the in-memory layout.
    ///
    /// All structural invariants are validated (CSR consistency, cover and
    /// target ranges, acceleration dimensions and slot assignment) and
    /// violations return `Err` rather than panicking, so a corrupt file can
    /// never produce an index that faults at query time. The bitset *words*
    /// themselves are trusted; the caller is expected to have verified a
    /// content checksum over them (the v3 section table does).
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts_with_accel(
        n: usize,
        cover: Vec<VertexId>,
        offsets: Vec<u32>,
        targets: Vec<u32>,
        weights: W,
        threshold: usize,
        classes: u32,
        dense_of: Vec<u32>,
        dense_words: Vec<u64>,
    ) -> Result<Self, String> {
        if n > u32::MAX as usize {
            return Err(format!("vertex count {n} exceeds the u32 id space"));
        }
        if offsets.len() != cover.len() + 1 {
            return Err(format!(
                "offsets must have cover_size + 1 entries (got {} for cover {})",
                offsets.len(),
                cover.len()
            ));
        }
        if offsets.first().copied().unwrap_or(0) != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets must be non-decreasing from 0".to_string());
        }
        if *offsets.last().unwrap_or(&0) as usize != targets.len() {
            return Err("last offset must equal the number of targets".to_string());
        }
        if targets.len() != weights.len() {
            return Err("one weight per target required".to_string());
        }
        let cover_len = cover.len() as u32;
        if targets.iter().any(|&t| t >= cover_len) {
            return Err(format!("target position out of range (cover {cover_len})"));
        }
        if let Some(p) = offsets.windows(2).position(|w| {
            targets[w[0] as usize..w[1] as usize]
                .windows(2)
                .any(|t| t[0] >= t[1])
        }) {
            return Err(format!("row {p} is not strictly sorted by target position"));
        }
        let mut cover_pos = vec![NOT_COVERED; n];
        for (p, &v) in cover.iter().enumerate() {
            if v.index() >= n {
                return Err(format!("cover vertex {v} out of range (n = {n})"));
            }
            if cover_pos[v.index()] != NOT_COVERED {
                return Err(format!("duplicate cover vertex {v}"));
            }
            cover_pos[v.index()] = p as u32;
        }
        // Acceleration dimensions: slots must be assigned densely in cover
        // position order (exactly how `RowAccel::build` lays them out), and
        // the flat word array must match `dense_rows × classes × words`.
        if classes == 0 {
            return Err("acceleration needs at least one weight class".to_string());
        }
        if dense_of.len() != cover.len() {
            return Err(format!(
                "dense slot map has {} entries for a cover of {}",
                dense_of.len(),
                cover.len()
            ));
        }
        let words_per_class = cover.len().div_ceil(64);
        let mut dense_rows = 0usize;
        for &slot in &dense_of {
            if slot == NOT_DENSE {
                continue;
            }
            if slot as usize != dense_rows {
                return Err(format!(
                    "dense slots must be assigned in cover order (slot {slot} at row {dense_rows})"
                ));
            }
            dense_rows += 1;
        }
        let expected_words = dense_rows
            .checked_mul(classes as usize)
            .and_then(|x| x.checked_mul(words_per_class))
            .ok_or_else(|| "acceleration word count overflows".to_string())?;
        if dense_words.len() != expected_words {
            return Err(format!(
                "acceleration has {} words, expected {expected_words} \
                 ({dense_rows} rows × {classes} classes × {words_per_class} words)",
                dense_words.len()
            ));
        }
        let accel = RowAccel {
            threshold,
            classes,
            words_per_class,
            dense_of,
            dense_words,
            dense_rows,
        };
        Ok(CoverIndexGraph {
            cover_pos,
            cover,
            spans: Spans::from_offsets(offsets),
            targets,
            weights,
            accel,
        })
    }

    /// The raw pieces of the hybrid acceleration exactly as laid out in
    /// memory — what the v3 on-disk format serializes so a later load can
    /// validate-into-place ([`CoverIndexGraph::from_raw_parts_with_accel`])
    /// instead of rebuilding the bitsets.
    pub fn accel_parts(&self) -> AccelParts<'_> {
        let accel = &self.accel;
        AccelParts {
            threshold: accel.threshold,
            classes: accel.classes,
            words_per_class: accel.words_per_class,
            dense_of: &accel.dense_of,
            dense_words: &accel.dense_words,
            dense_rows: accel.dense_rows,
        }
    }

    /// Number of cover vertices `|V_I|`.
    pub fn cover_size(&self) -> usize {
        self.cover.len()
    }

    /// Number of index edges `|E_I|`.
    pub fn edge_count(&self) -> usize {
        self.spans.live
    }

    /// Number of vertices of the underlying input graph.
    pub fn input_vertex_count(&self) -> usize {
        self.cover_pos.len()
    }

    /// The cover vertices in position order.
    pub fn cover_vertices(&self) -> &[VertexId] {
        &self.cover
    }

    /// The dense-row degree threshold the index was built with.
    pub fn dense_threshold(&self) -> usize {
        self.accel.threshold
    }

    /// Number of cover rows stored in bitset (dense) form.
    pub fn dense_row_count(&self) -> usize {
        self.accel.dense_rows
    }

    /// Heap footprint of the hybrid acceleration (position map excluded from
    /// [`CoverIndexGraph::size_bytes`], which reports the paper-shaped index
    /// alone).
    pub fn accel_size_bytes(&self) -> usize {
        self.accel.size_bytes()
    }

    /// The cover position of `v`, or `None` if `v` is not in the cover.
    #[inline]
    pub fn position(&self, v: VertexId) -> Option<u32> {
        match self.cover_pos.get(v.index()) {
            Some(&p) if p != NOT_COVERED => Some(p),
            _ => None,
        }
    }

    /// O(1) cover membership test (`s ∈ V_I` of Algorithms 2 and 3).
    #[inline]
    pub fn in_cover(&self, v: VertexId) -> bool {
        self.position(v).is_some()
    }

    /// Weight of the index edge between cover positions `(pu, pv)`, if present.
    ///
    /// Short rows use the branch-reduced linear scan ([`scan_find`]); longer
    /// rows binary-search the sorted target range (`O(log outDeg(u, I))`).
    #[inline]
    pub fn edge_weight_by_pos(&self, pu: u32, pv: u32) -> Option<u32> {
        self.row_find(pu, pv).map(|i| self.weights.get(i))
    }

    /// Column index of `pv` within row `pu`, if present.
    #[inline]
    fn row_find(&self, pu: u32, pv: u32) -> Option<usize> {
        let range = self.spans.range(pu as usize);
        let row = &self.targets[range.clone()];
        let found = if row.len() <= SHORT_ROW_SCAN {
            scan_find(row, pv)
        } else {
            row.binary_search(&pv).ok()
        };
        found.map(|i| range.start + i)
    }

    /// Whether the index edge `(pu, pv)` exists: one word probe on a dense
    /// row, a scan/binary search on a sparse one.
    #[inline]
    pub fn edge_exists_by_pos(&self, pu: u32, pv: u32) -> bool {
        match self.accel.slot(pu) {
            Some(slot) => {
                kreach_obs::observe::note_dense_probe();
                let words = self
                    .accel
                    .class_words(slot, u32::MAX, self.weights.clamp_min())
                    .expect("top class always admits u32::MAX");
                RowAccel::probe(words, pv)
            }
            None => self.row_find(pu, pv).is_some(),
        }
    }

    /// Whether the index edge `(pu, pv)` exists with weight ≤ `bound`
    /// (clamped weights, like everything the paper's query cases compare):
    /// one word probe on a dense row, search + weight fetch on a sparse one.
    #[inline]
    pub fn edge_weight_le(&self, pu: u32, pv: u32, bound: u32) -> bool {
        match self.accel.slot(pu) {
            Some(slot) => {
                kreach_obs::observe::note_dense_probe();
                match self
                    .accel
                    .class_words(slot, bound, self.weights.clamp_min())
                {
                    Some(words) => RowAccel::probe(words, pv),
                    None => false,
                }
            }
            None => match self.edge_weight_by_pos(pu, pv) {
                Some(w) => w <= bound,
                None => false,
            },
        }
    }

    /// Whether any `pu` in `sources` has an index edge to `pt` with weight ≤
    /// `bound` — the Case-3 scan of Algorithm 2.
    pub fn any_source_edge_le(&self, sources: &[u32], pt: u32, bound: u32) -> bool {
        if bound < self.weights.clamp_min() {
            return false;
        }
        sources.iter().any(|&pu| self.edge_weight_le(pu, pt, bound))
    }

    /// Prepares a sorted candidate position list for `row_probes` row probes
    /// and runs `f` against it — the Case 2/4 core of Algorithm 2's kernel
    /// ([`crate::KReachIndex::query_group_k`]). The candidate scratch bitset
    /// is built **once**, then every [`PreparedCandidates::row_any_le`]
    /// inside `f` reuses it. It costs two passes over the candidates, so it
    /// is built only when it can pay: enough candidates, some dense rows, and
    /// more than one row probe to share it.
    ///
    /// `f` must not re-enter `with_candidates` on the same thread (the
    /// scratch bitset is a thread-local `RefCell`).
    #[inline]
    pub fn with_candidates<R>(
        &self,
        candidates: &[u32],
        row_probes: usize,
        f: impl FnOnce(&PreparedCandidates<'_, W>) -> R,
    ) -> R {
        let use_scratch = candidates.len() >= SCRATCH_MIN_CANDIDATES
            && self.accel.dense_rows > 0
            && row_probes > 1;
        if !use_scratch {
            return f(&PreparedCandidates {
                ig: self,
                candidates,
                bits: None,
            });
        }
        CANDIDATE_SCRATCH.with(|cell| {
            // The scratch must be cleared even if a probe below panics: the
            // engine's pool contains worker panics and keeps the thread
            // serving, so stale bits would silently corrupt a later query's
            // Case-4 answer on this thread. The drop guard clears on every
            // exit path, unwinding included.
            struct ClearOnDrop<'a>(std::cell::RefMut<'a, FixedBitSet>, &'a [u32]);
            impl Drop for ClearOnDrop<'_> {
                fn drop(&mut self) {
                    self.0.remove_ids(self.1);
                }
            }
            let mut scratch = cell.borrow_mut();
            scratch.grow(self.cover.len());
            scratch.insert_ids(candidates);
            let guard = ClearOnDrop(scratch, candidates);
            f(&PreparedCandidates {
                ig: self,
                candidates,
                bits: Some(&guard.0),
            })
        })
    }

    /// Galloping merge of a sparse row against a sorted candidate list,
    /// accepting the first common target with weight ≤ `bound`.
    fn sparse_any_le(&self, pu: u32, candidates: &[u32], bound: u32) -> bool {
        kreach_obs::observe::note_sparse_gallop();
        let range = self.spans.range(pu as usize);
        let lo = range.start;
        let row = &self.targets[range];
        // Indices into the row recover the parallel weight entries.
        let (mut i, mut j) = (0usize, 0usize);
        while i < row.len() && j < candidates.len() {
            match row[i].cmp(&candidates[j]) {
                std::cmp::Ordering::Equal => {
                    if self.weights.get(lo + i) <= bound {
                        return true;
                    }
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => i = gallop_lower_bound(row, i + 1, candidates[j]),
                std::cmp::Ordering::Greater => j = gallop_lower_bound(candidates, j + 1, row[i]),
            }
        }
        false
    }

    /// Weight of the index edge `(u, v)` for input-graph vertices, if both are
    /// cover vertices and the edge exists.
    #[inline]
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<u32> {
        let (pu, pv) = (self.position(u)?, self.position(v)?);
        self.edge_weight_by_pos(pu, pv)
    }

    /// Out-degree of a cover vertex inside the index graph.
    pub fn out_degree_by_pos(&self, pu: u32) -> usize {
        self.spans.range(pu as usize).len()
    }

    /// Iterates over the out-edges of a cover position as
    /// `(target position, weight)` pairs.
    pub fn out_edges_by_pos(&self, pu: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.spans
            .range(pu as usize)
            .map(move |i| (self.targets[i], self.weights.get(i)))
    }

    /// Iterates over all index edges as `(source vertex, target vertex, weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, u32)> + '_ {
        (0..self.cover.len() as u32).flat_map(move |pu| {
            self.out_edges_by_pos(pu)
                .map(move |(pv, w)| (self.cover[pu as usize], self.cover[pv as usize], w))
        })
    }

    /// Heap footprint of the paper-shaped index structure in bytes: position
    /// map, cover list, row spans (the CSR offsets, plus row ends once
    /// patched), targets and weights. This is what Table 4 reports; the
    /// derived hybrid acceleration is accounted separately by
    /// [`CoverIndexGraph::accel_size_bytes`].
    pub fn size_bytes(&self) -> usize {
        self.cover_pos.len() * std::mem::size_of::<u32>()
            + self.cover.len() * std::mem::size_of::<VertexId>()
            + self.spans.size_bytes()
            + self.targets.len() * std::mem::size_of::<u32>()
            + self.weights.size_bytes()
    }

    /// Access to the raw weight store (used by serialization).
    pub fn weights(&self) -> &W {
        &self.weights
    }

    /// Whether the rows are a compact CSR: true after every build and load,
    /// false while the maintainer's patches leave dead space between rows.
    pub fn is_compact(&self) -> bool {
        let Spans {
            start, end, live, ..
        } = &self.spans;
        *live == self.targets.len() && end.iter().zip(&start[1..]).all(|(e, s)| e == s)
    }

    /// Raw CSR pieces `(cover, offsets, targets)` of a compact index, for
    /// comparing two indexes piece by piece (serialization streams rows
    /// through [`CoverIndexGraph::out_edges_by_pos`] instead).
    ///
    /// # Panics
    /// Panics if a patch has left the rows gapped
    /// ([`CoverIndexGraph::is_compact`] is false).
    pub fn raw_parts(&self) -> (&[VertexId], &[u32], &[u32]) {
        assert!(
            self.is_compact(),
            "raw CSR parts of a patched, gapped index graph"
        );
        (&self.cover, &self.spans.start, &self.targets)
    }

    /// Grows the vertex → position map to `n` input vertices; the new
    /// vertices are uncovered.
    pub(crate) fn grow_vertices(&mut self, n: usize) {
        if self.cover_pos.len() < n {
            self.cover_pos.resize(n, NOT_COVERED);
        }
    }

    /// Appends `v` to the cover with an empty, sparse row and returns its
    /// position. A cover that outgrows the bitset width re-derives the
    /// acceleration.
    pub(crate) fn push_cover(&mut self, v: VertexId) -> u32 {
        debug_assert!(!self.in_cover(v));
        self.grow_vertices(v.index() + 1);
        let p = self.cover.len() as u32;
        self.cover.push(v);
        self.cover_pos[v.index()] = p;
        self.spans.push();
        self.accel.dense_of.push(NOT_DENSE);
        if self.cover.len() > self.accel.words_per_class * 64 {
            self.rebuild_accel(Some(self.accel.classes));
        }
        p
    }

    /// Rewrites row `pu` as its first `keep` entries followed by `fresh`:
    /// `(target position, distance)` pairs sorted by position, past every
    /// kept target, each distance clamped to the store's `clamp_min` as the
    /// sweep clamps it. A dense row re-derives its class bits.
    pub(crate) fn patch_row(&mut self, pu: u32, keep: usize, fresh: &[(u32, u32)]) {
        let columns: &mut [&mut dyn SpanColumn] = &mut [&mut self.targets, &mut self.weights];
        let range = self
            .spans
            .resize(pu as usize, keep + fresh.len(), keep, columns);
        let clamp_min = self.weights.clamp_min();
        for (i, &(pv, dist)) in (range.start + keep..).zip(fresh) {
            debug_assert!(
                i == range.start || self.targets[i - 1] < pv,
                "row {pu} stays sorted"
            );
            self.targets[i] = pv;
            self.weights.set(i, dist.max(clamp_min));
        }
        if let Some(slot) = self.accel.slot(pu) {
            if !self.accel.fill(slot, &self.targets, &self.weights, range) {
                self.rebuild_accel(None);
            }
        }
    }

    /// Compacts the rows once patches have left enough dead space.
    pub(crate) fn compact(&mut self) {
        self.spans
            .compact(&mut [&mut self.targets, &mut self.weights]);
    }

    /// Re-derives the acceleration from the rows, choosing the dense rows
    /// afresh at the same degree threshold (see [`RowAccel::build`] for
    /// `classes`).
    fn rebuild_accel(&mut self, classes: Option<u32>) {
        let (spans, threshold) = (&self.spans, self.accel.threshold);
        self.accel = RowAccel::build(spans, &self.targets, &self.weights, threshold, classes);
    }
}

/// A sorted candidate position list prepared for repeated weight-bounded row
/// probes ([`CoverIndexGraph::with_candidates`]): the candidate scratch
/// bitset (when built) is shared by every dense-row AND.
pub struct PreparedCandidates<'a, W> {
    ig: &'a CoverIndexGraph<W>,
    candidates: &'a [u32],
    bits: Option<&'a FixedBitSet>,
}

impl<W: WeightStore> PreparedCandidates<'_, W> {
    /// Number of candidate positions.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True if the candidate list is empty.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// True if `p` is itself one of the candidates (the membership half of
    /// Cases 2 and 4 — `sorted_contains` there, one bit probe here).
    #[inline]
    pub fn contains(&self, p: u32) -> bool {
        match self.bits {
            Some(bits) => bits.contains(p as usize),
            None => sorted_contains(self.candidates, p),
        }
    }

    /// True if row `pu` has an index edge with weight ≤ `bound` to any
    /// candidate. Dense rows AND their class bitset against the shared
    /// scratch via the wide kernel; sparse rows gallop.
    #[inline]
    pub fn row_any_le(&self, pu: u32, bound: u32) -> bool {
        if self.candidates.is_empty() || bound < self.ig.weights.clamp_min() {
            return false;
        }
        let accel = &self.ig.accel;
        match accel.slot(pu) {
            Some(slot) => {
                kreach_obs::observe::note_dense_probe();
                match accel.class_words(slot, bound, self.ig.weights.clamp_min()) {
                    Some(words) => match self.bits {
                        Some(bits) => and_any(words, bits.words()),
                        None => self.candidates.iter().any(|&pv| RowAccel::probe(words, pv)),
                    },
                    None => false,
                }
            }
            None => self.ig.sparse_any_le(pu, self.candidates, bound),
        }
    }
}

impl<W: WeightStore> fmt::Debug for CoverIndexGraph<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoverIndexGraph")
            .field("cover_size", &self.cover_size())
            .field("edge_count", &self.edge_count())
            .field("input_vertex_count", &self.input_vertex_count())
            .field("dense_rows", &self.dense_row_count())
            .field("dense_threshold", &self.dense_threshold())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::{PackedWeights, PlainWeights};

    fn sample_graph() -> CoverIndexGraph<PlainWeights> {
        // Input graph has 6 vertices; cover = {1, 3, 4}.
        // Edges: 1 -> 3 (w 2), 1 -> 4 (w 5), 4 -> 1 (w 3).
        CoverIndexGraph::assemble(
            6,
            vec![VertexId(1), VertexId(3), VertexId(4)],
            vec![vec![(2, 5), (1, 2)], vec![], vec![(0, 3)]],
            0,
        )
    }

    /// The sample graph with every non-empty row forced dense.
    fn sample_graph_dense() -> CoverIndexGraph<PlainWeights> {
        CoverIndexGraph::assemble_with_threshold(
            6,
            vec![VertexId(1), VertexId(3), VertexId(4)],
            vec![vec![(2, 5), (1, 2)], vec![], vec![(0, 3)]],
            0,
            Some(1),
        )
    }

    #[test]
    fn membership_and_positions() {
        let g = sample_graph();
        assert!(g.in_cover(VertexId(1)));
        assert!(g.in_cover(VertexId(4)));
        assert!(!g.in_cover(VertexId(0)));
        assert_eq!(g.position(VertexId(3)), Some(1));
        assert_eq!(g.position(VertexId(5)), None);
        assert_eq!(g.cover_size(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn edge_lookup_by_vertex_and_position() {
        let g = sample_graph();
        assert_eq!(g.edge_weight(VertexId(1), VertexId(3)), Some(2));
        assert_eq!(g.edge_weight(VertexId(1), VertexId(4)), Some(5));
        assert_eq!(g.edge_weight(VertexId(4), VertexId(1)), Some(3));
        assert_eq!(g.edge_weight(VertexId(3), VertexId(1)), None);
        assert_eq!(g.edge_weight(VertexId(0), VertexId(1)), None);
        assert_eq!(g.edge_weight_by_pos(0, 1), Some(2));
    }

    #[test]
    fn unsorted_input_lists_are_sorted_on_assembly() {
        let g = sample_graph();
        let out: Vec<_> = g.out_edges_by_pos(0).collect();
        assert_eq!(out, vec![(1, 2), (2, 5)]);
        assert_eq!(g.out_degree_by_pos(0), 2);
        assert_eq!(g.out_degree_by_pos(1), 0);
    }

    #[test]
    fn edges_iterator_maps_back_to_vertices() {
        let g = sample_graph();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert!(edges.contains(&(VertexId(4), VertexId(1), 3)));
    }

    #[test]
    fn packed_weight_variant_clamps() {
        // clamp_min = 4 (k = 6): a recorded distance of 1 is stored as 4.
        let g: CoverIndexGraph<PackedWeights> = CoverIndexGraph::assemble(
            3,
            vec![VertexId(0), VertexId(2)],
            vec![vec![(1, 1)], vec![(0, 6)]],
            4,
        );
        assert_eq!(g.edge_weight(VertexId(0), VertexId(2)), Some(4));
        assert_eq!(g.edge_weight(VertexId(2), VertexId(0)), Some(6));
    }

    #[test]
    fn size_accounts_for_all_components() {
        let g = sample_graph();
        // 6 u32 positions + 3 u32 cover + 4 u32 offsets + 3 u32 targets + 3 u16 weights.
        assert_eq!(g.size_bytes(), 6 * 4 + 3 * 4 + 4 * 4 + 3 * 4 + 3 * 2);
        // No dense rows at default threshold: accel is just the slot map.
        assert_eq!(g.dense_row_count(), 0);
        assert_eq!(g.accel_size_bytes(), 3 * 4);
    }

    #[test]
    fn dense_and_sparse_probes_agree() {
        let sparse = sample_graph();
        let dense = sample_graph_dense();
        assert_eq!(dense.dense_row_count(), 2, "rows 0 and 2 are non-empty");
        assert!(dense.accel_size_bytes() > sparse.accel_size_bytes());
        for pu in 0..3u32 {
            for pv in 0..3u32 {
                assert_eq!(
                    sparse.edge_exists_by_pos(pu, pv),
                    dense.edge_exists_by_pos(pu, pv),
                    "exists ({pu},{pv})"
                );
                for bound in 0..7u32 {
                    let expected = sparse
                        .edge_weight_by_pos(pu, pv)
                        .is_some_and(|w| w <= bound);
                    assert_eq!(
                        sparse.edge_weight_le(pu, pv, bound),
                        expected,
                        "sparse ({pu},{pv}) ≤ {bound}"
                    );
                    assert_eq!(
                        dense.edge_weight_le(pu, pv, bound),
                        expected,
                        "dense ({pu},{pv}) ≤ {bound}"
                    );
                }
            }
        }
    }

    /// Whether any `(pu, pv) ∈ sources × candidates` index edge has weight
    /// ≤ `bound`, probed through one candidate set prepared as for a group,
    /// so the scratch bitset is used whenever it can be.
    fn any_pair_le<W: WeightStore>(
        g: &CoverIndexGraph<W>,
        sources: &[u32],
        candidates: &[u32],
        bound: u32,
    ) -> bool {
        g.with_candidates(candidates, usize::MAX, |prep| {
            sources.iter().any(|&pu| prep.row_any_le(pu, bound))
        })
    }

    #[test]
    fn candidate_set_probes_agree_with_naive() {
        let variants = [sample_graph(), sample_graph_dense()];
        let candidate_sets: &[&[u32]] = &[&[], &[0], &[1, 2], &[0, 1, 2]];
        for g in &variants {
            for pu in 0..3u32 {
                for &cands in candidate_sets {
                    for bound in 0..7u32 {
                        let expected = cands
                            .iter()
                            .any(|&pv| g.edge_weight_by_pos(pu, pv).is_some_and(|w| w <= bound));
                        assert_eq!(
                            any_pair_le(g, &[pu], cands, bound),
                            expected,
                            "row_any_le pu={pu} cands={cands:?} bound={bound}"
                        );
                    }
                }
            }
            // Pairwise form over every source/target subset pair.
            for &sources in candidate_sets {
                for &targets in candidate_sets {
                    for bound in 0..7u32 {
                        let expected = sources.iter().any(|&pu| {
                            targets
                                .iter()
                                .any(|&pv| g.edge_weight_by_pos(pu, pv).is_some_and(|w| w <= bound))
                        });
                        assert_eq!(
                            any_pair_le(g, sources, targets, bound),
                            expected,
                            "any_pair sources={sources:?} targets={targets:?} bound={bound}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_path_is_exercised_and_cleared() {
        // A hub row over a 40-vertex cover with enough candidates to cross
        // SCRATCH_MIN_CANDIDATES; two calls in a row verify the sparse clear
        // leaves no stale bits behind.
        let cover: Vec<VertexId> = (0..40u32).map(VertexId).collect();
        let mut rows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); 40];
        rows[0] = (1..40u32).map(|t| (t, 1 + (t % 3))).collect();
        let g: CoverIndexGraph<PlainWeights> =
            CoverIndexGraph::assemble_with_threshold(40, cover, rows, 1, Some(4));
        assert_eq!(g.dense_row_count(), 1);
        let targets: Vec<u32> = (10..30).collect();
        assert!(any_pair_le(&g, &[0], &targets, 3));
        assert!(!any_pair_le(&g, &[0], &targets, 0));
        // Candidates that never matched must not linger in the scratch.
        let miss_targets: Vec<u32> = (1..20).collect();
        assert!(!any_pair_le(&g, &[5], &miss_targets, 3), "row 5 is empty");
        assert!(any_pair_le(&g, &[0, 5], &targets, 2));
    }

    /// A 40-vertex cover with one heavy hub row and a handful of light rows.
    fn hub_graph(threshold: Option<usize>) -> CoverIndexGraph<PlainWeights> {
        let cover: Vec<VertexId> = (0..40u32).map(VertexId).collect();
        let mut rows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); 40];
        rows[0] = (1..40u32).map(|t| (t, 1 + (t % 3))).collect();
        rows[7] = vec![(0, 2), (20, 1)];
        rows[20] = vec![(7, 3)];
        CoverIndexGraph::assemble_with_threshold(40, cover, rows, 1, threshold)
    }

    fn all_answers(g: &CoverIndexGraph<PlainWeights>) -> Vec<bool> {
        let mut out = Vec::new();
        for pu in 0..40u32 {
            for pv in 0..40u32 {
                out.push(g.edge_exists_by_pos(pu, pv));
                for bound in 0..5u32 {
                    out.push(g.edge_weight_le(pu, pv, bound));
                }
            }
        }
        let cands: Vec<u32> = (5..30).collect();
        for pu in 0..40u32 {
            out.push(any_pair_le(g, &[pu], &cands, 2));
        }
        out.push(any_pair_le(g, &[0, 7, 20], &cands, 2));
        out.push(g.any_source_edge_le(&[0, 7, 20], 20, 1));
        out
    }

    #[test]
    fn dense_and_sparse_hub_rows_answer_identically() {
        let sparse = hub_graph(Some(usize::MAX));
        assert_eq!(sparse.dense_row_count(), 0);
        for (threshold, dense_rows) in [(1, 3), (10, 1)] {
            let g = hub_graph(Some(threshold));
            assert_eq!(g.dense_row_count(), dense_rows, "threshold {threshold}");
            assert_eq!(
                all_answers(&g),
                all_answers(&sparse),
                "threshold {threshold}"
            );
        }
    }

    #[test]
    fn with_candidates_matches_per_call_probes() {
        for g in [
            hub_graph(Some(1)),
            hub_graph(Some(10)),
            hub_graph(Some(usize::MAX)),
        ] {
            let cands: Vec<u32> = (3..25).collect();
            // One row probe skips the scratch bitset; forty share it.
            for row_probes in [1, 40] {
                for bound in 0..5u32 {
                    let grouped: Vec<(bool, bool)> =
                        g.with_candidates(&cands, row_probes, |prep| {
                            (0..40u32)
                                .map(|pu| (prep.contains(pu), prep.row_any_le(pu, bound)))
                                .collect()
                        });
                    for (pu, &(contains, any_le)) in grouped.iter().enumerate() {
                        let pu = pu as u32;
                        assert_eq!(contains, cands.binary_search(&pu).is_ok());
                        let expected = cands
                            .iter()
                            .any(|&pv| g.edge_weight_by_pos(pu, pv).is_some_and(|w| w <= bound));
                        assert_eq!(
                            any_le, expected,
                            "pu={pu} bound={bound} probes={row_probes}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn spans_patch_lists_in_place_and_compact_back_to_a_csr() {
        let mut model: Vec<Vec<u32>> = vec![vec![1, 2], vec![], vec![3], vec![4, 5, 6], vec![7]];
        let mut offsets = vec![0u32];
        let mut column: Vec<u32> = Vec::new();
        for list in &model {
            column.extend(list);
            offsets.push(column.len() as u32);
        }
        let mut spans = Spans::from_offsets(offsets);
        let (mut compactions, mut next) = (0, 100u32);
        for step in 0..300usize {
            if step % 50 == 49 {
                spans.push();
                model.push(Vec::new());
            }
            let i = step * 7 % model.len();
            let len = step * 5 % 7;
            let keep = (step % 4).min(len).min(model[i].len());
            let range = spans.resize(i, len, keep, &mut [&mut column]);
            model[i].truncate(keep);
            for slot in &mut column[range.start + keep..range.end] {
                *slot = next;
                model[i].push(next);
                next += 1;
            }
            let before = column.len();
            spans.compact(&mut [&mut column]);
            if column.len() < before {
                // A compaction leaves a CSR: each list ends where the next starts.
                compactions += 1;
                assert!(spans.end.is_empty() && spans.live == column.len());
            }
            let dead = column.len() - spans.live;
            assert!(dead * COMPACT_RATIO <= spans.live + spans.len());
            for (j, list) in model.iter().enumerate() {
                assert_eq!(
                    &column[spans.range(j)],
                    &list[..],
                    "list {j} at step {step}"
                );
            }
        }
        assert!(
            compactions > 0,
            "the dead bound must have forced a compaction"
        );
    }

    #[test]
    #[should_panic]
    fn mismatched_edge_list_count_panics() {
        let _ = CoverIndexGraph::<PlainWeights>::assemble(
            3,
            vec![VertexId(0), VertexId(1)],
            vec![vec![]],
            0,
        );
    }
}
