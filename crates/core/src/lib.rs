//! # kreach-core
//!
//! The primary contribution of *K-Reach: Who is in Your Small World*
//! (Cheng, Shang, Cheng, Wang, Yu; PVLDB 5(11), 2012): a vertex-cover-based
//! index for **k-hop reachability** queries on directed unweighted graphs.
//!
//! A k-hop reachability query asks whether there is a directed path of length
//! at most `k` from a source vertex `s` to a target vertex `t` (`s →k t`).
//! Classic reachability is the special case `k = ∞` (equivalently `k = n`).
//!
//! ## What is implemented
//!
//! * [`vertex_cover`] — the 2-approximate minimum vertex cover of §4.1.1 and
//!   its degree-prioritized variant of §4.3 that absorbs high-degree
//!   ("celebrity") vertices into the cover.
//! * [`hop_cover`] — the (h+1)-approximate minimum h-hop vertex cover of
//!   §5.1.1, used by the (h,k)-reach index.
//! * [`kreach`] — the k-reach index: construction is Algorithm 1, querying is
//!   Algorithm 2 with its four cases; edge weights take one of three values
//!   {k−2, k−1, k} and are stored in 2 bits each ([`weights`]).
//! * [`hkreach`] — the (h,k)-reach index of §5 (Definition 2 / Algorithm 3),
//!   trading query time for index size.
//! * [`general_k`] — the two schemes of §4.4 for supporting queries with
//!   arbitrary k: a set of i-reach indexes at powers of two (approximate for
//!   non-power-of-two k) and an exact per-k family.
//! * [`dynamic`] — incremental maintenance of the k-reach index under edge
//!   insertions and removals over versioned adjacency storage: cover repair,
//!   batch-coalesced bounded-BFS row patching, and lazy re-cover thresholds
//!   for both cover growth and deletions (the "dynamic updates" direction
//!   the paper leaves open).
//! * [`stats`] — index size / construction statistics used by the benchmark
//!   harness to reproduce Tables 3, 4 and 9.
//! * [`paper_example`] — the 10-vertex running example of Figures 1–4; unit
//!   tests reproduce every claim made in Examples 1–4 of the paper.
//!
//! ## Quick start
//!
//! ```
//! use kreach_core::prelude::*;
//!
//! // A small social graph: 0 -> 1 -> 2 -> 3 and a shortcut 0 -> 2.
//! let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)]);
//! let index = KReachIndex::build(&g, 2, BuildOptions::default());
//! assert!(index.query(&g, VertexId(0), VertexId(2)));  // 1 hop via the shortcut
//! assert!(index.query(&g, VertexId(0), VertexId(3)));  // 0 -> 2 -> 3, 2 hops
//! assert!(!index.query(&g, VertexId(1), VertexId(0))); // not reachable at all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
pub mod dynamic;
pub mod general_k;
pub mod hkreach;
pub mod hop_cover;
pub mod index_graph;
pub mod kreach;
pub mod paper_example;
pub mod stats;
pub mod vertex_cover;
pub mod weights;

pub use compact::CompactKReachIndex;
pub use dynamic::{DynamicKReach, DynamicOptions, UpdateStats};
pub use general_k::{ExactMultiKReach, MultiKReach};
pub use hkreach::HkReachIndex;
pub use kreach::{BuildOptions, KReachIndex, QueryCase};
pub use stats::IndexStats;
pub use vertex_cover::{CoverStrategy, VertexCover};

// The serving engine shares indexes across worker threads as
// `Arc<dyn ...>`; a field change that silently dropped Send/Sync (an Rc, a
// raw pointer) would surface far away in the engine, so pin it here.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<KReachIndex>();
    assert_send_sync::<HkReachIndex>();
    assert_send_sync::<CompactKReachIndex>();
    assert_send_sync::<MultiKReach>();
    assert_send_sync::<ExactMultiKReach>();
    assert_send_sync::<DynamicKReach>();
};

/// Commonly used items, for glob import in examples and benchmarks.
pub mod prelude {
    pub use crate::compact::CompactKReachIndex;
    pub use crate::dynamic::{DynamicKReach, DynamicOptions, UpdateStats};
    pub use crate::general_k::{ExactMultiKReach, MultiKReach};
    pub use crate::hkreach::HkReachIndex;
    pub use crate::hop_cover::HopVertexCover;
    pub use crate::kreach::{BuildOptions, KReachIndex, QueryCase};
    pub use crate::stats::IndexStats;
    pub use crate::vertex_cover::{CoverStrategy, VertexCover};
    pub use kreach_graph::{DiGraph, GraphBuilder, VertexId};
}
