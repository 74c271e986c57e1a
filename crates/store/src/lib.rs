//! # kreach-store
//!
//! Durable state for k-reach serving: what makes `POST /update` acks mean
//! something across a `kill -9`.
//!
//! The paper (Cheng et al., *K-Reach: Who is in Your Small World*, PVLDB
//! 2012) notes in §4.1.3 that "the constructed index is then stored on
//! disk". This crate grows that single sentence into a full durable-state
//! subsystem for the serving stack:
//!
//! * [`container`] — the `KRC3` sectioned container: little-endian arrays
//!   with a section table, FNV-1a-64 payload checksums, and 8-byte
//!   alignment, so loading is read + validate into place.
//! * [`index_v3`] — index format v3 over that container, mirroring the
//!   in-memory [`kreach_core::KReachIndex`] (including the dense-row
//!   acceleration, so a load installs it instead of recomputing it). It is
//!   the one codec of an index's bytes: index files and checkpoints both
//!   hold its sections.
//! * [`error`] — [`StorageError`], what every load and save returns.
//! * [`wal`] — the epoch-keyed write-ahead log: every acked update batch is
//!   appended and fsynced before the ack, in the `kreach update` wire
//!   grammar, so replay and workload tooling share one parser.
//! * [`checkpoint`] — periodic snapshots of the dynamic maintainer's state
//!   (adjacency + the maintained index, as index v3's sections): the index
//!   alone is enough to keep repairing, because repair only ever writes
//!   rows.
//! * [`store`] — the data-directory orchestrator: [`store::Store`] wires
//!   WAL + checkpoint + manifest together, implements the engine's
//!   [`kreach_engine::DurabilitySink`], and [`store::spawn_checkpointer`]
//!   keeps the WAL short in the background.
//!
//! ## Recovery contract
//!
//! Restart with the same `--data-dir` restores the exact pre-crash epoch:
//! the newest checkpoint is loaded, WAL records above its epoch are
//! replayed in log order (idempotently — the snapshot may already contain
//! a suffix of them), and a torn tail from a crash mid-append is dropped.
//! An update whose ack was sent is never lost; an update whose ack was
//! never sent may or may not survive — both outcomes are consistent.
//!
//! ## Failure contract
//!
//! Every durable write goes through the [`io::StorageIo`] seam ([`io`]),
//! which debug and `--features failpoints` builds can replace with a
//! deterministic fault injector ([`fault`], driven by the
//! `KREACH_FAILPOINTS` plan grammar). Under any injected fault the
//! invariants hold: a failed WAL append surfaces an error *before* the ack
//! (and the unacked bytes are healed away before the next successful
//! append), a failed checkpoint leaves the previous checkpoint + manifest
//! restore point intact, and a crashpoint anywhere in the checkpoint
//! sequence recovers to a consistent epoch on reopen.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod container;
pub mod error;
#[cfg(any(debug_assertions, feature = "failpoints"))]
pub mod fault;
pub mod index_v3;
pub mod io;
pub mod manifest;
pub mod store;
pub mod wal;

pub use checkpoint::{
    load_checkpoint, save_checkpoint, save_checkpoint_io, CheckpointWrite, RestoredCheckpoint,
};
pub use container::{ContainerReader, ContainerWriter, FileKind};
pub use error::StorageError;
#[cfg(any(debug_assertions, feature = "failpoints"))]
pub use fault::{FaultAction, FaultClause, FaultIo, FaultPlan, FaultTrigger};
pub use index_v3::{load_index, read_index_v3, save_index_v3, write_index_v3};
pub use io::{default_io, failpoints_compiled, validate_fault_plan, RealIo, StorageIo};
pub use manifest::{read_manifest, write_manifest, write_manifest_io, Manifest};
pub use store::{
    engine_checkpoint, engine_snapshot, read_durable_state, spawn_checkpointer, CheckpointToken,
    Checkpointer, RestoreReport, Store,
};
pub use wal::{replay, Wal, WalAppendInfo, WalRecord, WalReplay};
