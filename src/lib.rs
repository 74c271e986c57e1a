//! # kreach
//!
//! A reproduction of *K-Reach: Who is in Your Small World* (Cheng, Shang,
//! Cheng, Wang, Yu; PVLDB 5(11), 2012): a vertex-cover-based index for
//! answering **k-hop reachability** queries — "is there a directed path of at
//! most k edges from s to t?" — on directed, unweighted graphs.
//!
//! This crate is a thin facade over the workspace members:
//!
//! * [`graph`] ([`kreach_graph`]) — the graph substrate: the [`GraphView`]
//!   storage seam with its two backends (frozen CSR and copy-on-write
//!   versioned adjacency), traversals, SCC/DAG condensation, metrics,
//!   generators, edge-list I/O.
//!
//! [`GraphView`]: kreach_graph::GraphView
//! * [`core`] ([`kreach_core`]) — the paper's contribution: the k-reach and
//!   (h,k)-reach indexes, vertex covers, general-k families, serialization.
//! * [`baselines`] ([`kreach_baselines`]) — the systems the paper compares
//!   against: online BFS, GRAIL, compressed transitive closure, tree cover,
//!   and a 2-hop distance labeling.
//! * [`datasets`] ([`kreach_datasets`]) — synthetic stand-ins for the 15
//!   evaluation datasets and the random query workloads.
//! * [`obs`] ([`kreach_obs`]) — the observability layer: structured query
//!   tracing, per-case latency accounting, the slow-query log, and the
//!   Prometheus text renderer behind `GET /metrics`.
//! * [`engine`] ([`kreach_engine`]) — the serving layer: a concurrent batch
//!   query engine with a fixed worker pool and target-grouped dispatch.
//! * [`server`] ([`kreach_server`]) — the network front end: an HTTP/1.1 +
//!   line-protocol listener over the batch engine with admission control
//!   and graceful drain (`kreach serve`).
//! * [`store`] ([`kreach_store`]) — the durable-state subsystem: index
//!   format v3, the epoch-keyed mutation WAL, and checkpoint/restore for
//!   `kreach serve --data-dir` (acked updates survive `kill -9`).
//!
//! ## Example
//!
//! ```
//! use kreach::prelude::*;
//!
//! // Who can I influence within 2 hops?
//! let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)]);
//! let index = KReachIndex::build(&g, 2, BuildOptions::default());
//! assert!(index.query(&g, VertexId(0), VertexId(3)));   // direct shortcut
//! assert!(index.query(&g, VertexId(0), VertexId(4)));   // 0 -> 3 -> 4
//! assert!(!index.query(&g, VertexId(1), VertexId(4)));  // needs 3 hops
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kreach_baselines as baselines;
pub use kreach_core as core;
pub use kreach_datasets as datasets;
pub use kreach_engine as engine;
pub use kreach_graph as graph;
pub use kreach_obs as obs;
pub use kreach_server as server;
pub use kreach_store as store;

/// The most commonly used items from every workspace crate.
///
/// The engine's backend trait is deliberately *not* glob-exported here: it
/// shares the name `Reachability` with the classic-reachability baseline
/// trait. Engine users import from [`crate::engine`] explicitly.
pub mod prelude {
    pub use kreach_baselines::{
        BidirectionalBfs, DistanceIndex, Grail, IntervalTransitiveClosure, KHopReachability,
        OnlineBfs, Reachability, TreeCover,
    };
    pub use kreach_core::prelude::*;
    pub use kreach_datasets::{
        all_specs, spec_by_name, DatasetSpec, QueryWorkload, WorkloadConfig,
    };
    pub use kreach_engine::{BatchEngine, EngineConfig, EngineStats, Query, QueryBatch};
    pub use kreach_graph::{DiGraph, GraphBuilder, GraphView, VersionedAdjGraph, VertexId};
}
