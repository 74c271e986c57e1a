//! # kreach-graph
//!
//! Directed-graph substrate underlying the K-Reach reproduction
//! (Cheng et al., *K-Reach: Who is in Your Small World*, VLDB 2012).
//!
//! The paper's index is defined over an unweighted directed graph
//! `G = (V, E)` and relies on a handful of primitives that this crate
//! provides from scratch:
//!
//! * [`DiGraph`] — an immutable compressed-sparse-row (CSR) directed graph
//!   with both out- and in-adjacency, the notation of Table 1 of the paper
//!   (`outNei`, `inNei`, `outDeg`, `inDeg`, `Nei`, `Deg`).
//! * [`GraphBuilder`] — a mutable edge-list builder that deduplicates edges
//!   and produces a [`DiGraph`].
//! * [`traversal`] — BFS, k-hop BFS, bidirectional BFS, DFS and topological
//!   sort; these drive both index construction (Algorithm 1) and the online
//!   baselines of Section 6.3.
//! * [`scc`] — Tarjan's strongly-connected-components algorithm and DAG
//!   condensation, required by every classic-reachability baseline
//!   (Section 3.1 of the paper).
//! * [`metrics`] — degree distributions, diameter and median shortest-path
//!   length µ (Table 2).
//! * [`generators`] — synthetic graph generators used by `kreach-datasets`
//!   to stand in for the paper's 15 real datasets.
//! * [`bitset`] / [`interval`] — fixed bitsets and sorted interval lists,
//!   the building blocks of the compressed transitive-closure baseline and
//!   of the compact high-degree adjacency described in Section 4.3.
//! * [`intersect`] — galloping intersection over sorted id slices, the
//!   shared primitive behind the index's Case 2–4 fast paths.
//! * [`io`] — plain edge-list reading/writing.
//! * [`view`] — [`GraphView`], the logical graph-access seam every consumer
//!   (index construction, traversals, covers, baselines, the engine) is
//!   generic over, decoupling *what* is read from *how* it is stored.
//! * [`versioned`] — [`VersionedAdjGraph`], per-vertex sorted adjacency with
//!   copy-on-write segments: `O(degree)` edge insertion/removal and a version
//!   stamp, the mutable storage backend behind incremental index maintenance.
//!
//! All vertex identifiers are dense `u32` values wrapped in [`VertexId`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod builder;
pub mod csr;
pub mod generators;
pub mod intersect;
pub mod interval;
pub mod io;
pub mod metrics;
pub mod scc;
pub mod traversal;
pub mod versioned;
pub mod vertex;
pub mod view;

pub use bitset::FixedBitSet;
pub use builder::GraphBuilder;
pub use csr::DiGraph;
pub use interval::IntervalList;
pub use scc::{Condensation, SccResult};
pub use versioned::{EdgeUpdate, VersionedAdjGraph};
pub use vertex::VertexId;
pub use view::GraphView;

/// Result alias used by fallible graph operations (currently only I/O).
pub type Result<T> = std::result::Result<T, GraphError>;

/// Errors produced by graph construction and I/O.
#[derive(Debug)]
pub enum GraphError {
    /// An edge refers to a vertex id outside `0..n`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u64,
        /// Number of vertices in the graph.
        n: usize,
    },
    /// A malformed line was encountered while parsing an edge list.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex id {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}
