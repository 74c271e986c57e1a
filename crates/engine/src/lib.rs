//! # kreach-engine
//!
//! A batch query engine over the K-Reach indexes: the serving layer that
//! turns the paper's microsecond single-query latency into batch
//! throughput.
//!
//! The paper (Cheng et al., *K-Reach: Who is in Your Small World*, PVLDB
//! 2012) evaluates its index one query at a time; a production deployment
//! instead sees large batches of `(s, t, k)` questions against one immutable
//! index. This crate supplies that layer:
//!
//! * [`Reachability`] — the unified k-hop backend trait, implemented by
//!   [`KReachBackend`] (§4 index), [`HkReachBackend`] (§5 index),
//!   [`BfsBackend`] (index-free online search) and [`DynamicKReachBackend`]
//!   (incrementally maintained index accepting edge mutations). All are
//!   `Send + Sync` and served as `Arc<dyn Reachability>`.
//! * [`BatchEngine`] — answers a batch on the calling thread, **in batch
//!   order**: the batch is sorted by target and every run of queries
//!   sharing a `(t, k)` is answered with one [`Reachability::query_group`]
//!   call, traced or not. Any number of threads may run batches on one
//!   engine at once; the server's connection handlers do.
//!   [`BatchEngine::apply_updates`] routes graph mutations through the
//!   backend and advances the mutation epoch.
//! * [`EngineStats`] — per-run serving report: throughput, the Table-8 case
//!   mix, and p50/p99 latency from power-of-two histograms.
//!
//! ## Example
//!
//! ```
//! use kreach_core::{BuildOptions, KReachIndex};
//! use kreach_engine::{BatchEngine, EngineConfig, KReachBackend, QueryBatch};
//! use kreach_graph::{DiGraph, VertexId};
//! use std::sync::Arc;
//!
//! let g = Arc::new(DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]));
//! let index = KReachIndex::build(&g, 2, BuildOptions::default());
//! let engine = BatchEngine::new(
//!     Arc::new(KReachBackend::new(Arc::clone(&g), index)),
//!     EngineConfig::default(),
//! );
//! let pairs = vec![(VertexId(0), VertexId(2)), (VertexId(0), VertexId(4))];
//! let outcome = engine.run(&QueryBatch::from_pairs(&pairs, 2)).unwrap();
//! assert_eq!(outcome.answers, vec![true, false]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod casestats;
pub mod engine;
pub mod histogram;

pub use backend::{
    BfsBackend, DynamicKReachBackend, HkReachBackend, KReachBackend, Reachability, UpdateError,
    UpdateOutcome,
};
pub use batch::{Query, QueryBatch};
pub use casestats::CaseTally;
pub use engine::{
    spawn_degraded_prober, BatchEngine, BatchOutcome, DegradedInfo, DegradedProber, DurabilitySink,
    EngineConfig, EngineError, EngineInfo, EngineStats,
};
pub use histogram::LatencyHistogram;
