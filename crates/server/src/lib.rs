//! # kreach-server
//!
//! The network front end of the k-reach serving system: a hermetic
//! (`std::net`-only) TCP listener that wraps a
//! [`kreach_engine::BatchEngine`] and serves live query and mutation
//! traffic, with admission control and graceful drain.
//!
//! ## Protocols
//!
//! One listener speaks two protocols, sniffed from the first line of each
//! connection:
//!
//! * **HTTP/1.1** (keep-alive supported):
//!   * `GET /reach?s=..&t=..[&k=..]` — one k-hop reachability query.
//!   * `POST /batch` — a pipelined batch: the body is a query workload
//!     (`s t [k]` lines), answered **in order** via the engine's batch
//!     path; the response body is byte-identical to `kreach batch` output
//!     for the same workload.
//!   * `POST /update` — a mixed stream in the `kreach update` grammar
//!     (`+ u v` / `- u v` / `s t [k]`); mutations bump the engine's
//!     epoch, and every later query on any connection reflects them.
//!   * `GET /stats` — engine snapshot, per-case totals and server metrics
//!     as JSON; `GET /healthz` — liveness probe.
//!   * `POST /shutdown` — begin a graceful drain.
//! * **Line protocol**: any first line that is not an HTTP request line is
//!   treated as one operation in the same mixed-workload grammar; each line
//!   is answered with one response line (`17 4023 3 reachable`,
//!   `+ 17 9000 applied epoch=3`, or `error: ...`), streamed as they
//!   arrive. `stats` prints the stats JSON; `quit` ends the session.
//!
//! Request *and* response wire formats are shared with the offline workload
//! files through [`kreach_datasets`], which is what lets the integration
//! tests assert that network answers are byte-identical to the CLI path.
//!
//! ## Admission control
//!
//! A bounded in-flight budget ([`ServerConfig::max_inflight`]) counts
//! admitted connections; past it the acceptor sheds new connections with a
//! fast `503` that never touches the engine. Request bodies above
//! [`ServerConfig::max_body_bytes`] are refused with `413` before a single
//! body byte is read, and a socket timeout bounds slow clients — overload
//! degrades into fast refusals instead of memory growth.
//!
//! ## Example
//!
//! ```
//! use kreach_engine::{BatchEngine, BfsBackend, EngineConfig};
//! use kreach_graph::DiGraph;
//! use kreach_server::{client::BlockingClient, start, ServerConfig};
//! use std::sync::Arc;
//!
//! let g = Arc::new(DiGraph::from_edges(3, [(0, 1), (1, 2)]));
//! let engine = Arc::new(BatchEngine::new(
//!     Arc::new(BfsBackend::new(g, 2)),
//!     EngineConfig::default(),
//! ));
//! let handle = start(engine, ServerConfig::default()).unwrap();
//! let mut client = BlockingClient::connect(handle.addr()).unwrap();
//! let response = client.get("/reach?s=0&t=2&k=2").unwrap();
//! assert_eq!(response.body_text(), "0 2 2 reachable\n");
//! handle.shutdown();
//! assert!(handle.join().clean);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod metrics;
mod server;

pub use metrics::{MetricsSnapshot, ServerMetrics};
pub use server::{start, start_with_obs, DrainReport, ServerConfig, ServerHandle, ServerObs};
