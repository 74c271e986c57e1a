//! Allocation-free steady-state serving, proven by a counting allocator.
//!
//! The engine answers a batch on the calling thread and promises zero heap
//! allocations per warmed batch: its scratch (sort order, group buffers,
//! candidate bitsets, row memos) lives in thread-local arenas that grow to
//! a high-water mark and are reused, the caller's answer buffer is
//! recycled through [`kreach_engine::BatchEngine::run_into`], latency and
//! case accounting use fixed-size arrays, and the stats carry the backend
//! name as a `&'static str`.
//!
//! The proof: after warmup, a batch of 1 000 queries and one of 4 000 each
//! allocate nothing at all. Any per-query or per-batch allocation sneaking
//! into the dispatch path breaks the assertion immediately.
//!
//! This lives in an integration test because the engine library forbids
//! `unsafe`, and a [`GlobalAlloc`] impl requires it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kreach_core::{BuildOptions, KReachIndex};
use kreach_engine::{BatchEngine, EngineConfig, KReachBackend, Query, QueryBatch};
use kreach_graph::generators::GeneratorSpec;
use kreach_graph::VertexId;

/// Counts every allocation and reallocation; frees are not interesting here.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Mixed fan-in traffic over `copies` repetitions of a base query set:
/// shared-target runs (grouped dispatch), scattered singletons, and
/// identity queries — the shapes the serving path distinguishes.
fn fan_in_batch(n_vertices: u32, k: u32, copies: usize) -> QueryBatch {
    let mut queries = Vec::new();
    for round in 0..copies as u32 {
        for i in 0..125u32 {
            let s = (i * 7 + round) % n_vertices;
            let t = match i % 5 {
                // Hot targets: large same-target groups.
                0..=2 => i % 3,
                // Scattered: singleton groups.
                3 => (i * 13 + 5) % n_vertices,
                // Identity short-circuit.
                _ => s,
            };
            queries.push(Query {
                s: VertexId(s),
                t: VertexId(t),
                k,
            });
        }
    }
    QueryBatch::new(queries)
}

#[test]
fn warmed_engine_serves_batches_without_per_query_allocations() {
    // Arm a storage fault plan in the environment before anything is built.
    // The serving path must never read it: fault injection lives behind the
    // storage io seam (and is compiled out of plain release builds
    // entirely), so the allocation profile below must be identical with a
    // plan armed — zero hot-path cost.
    std::env::set_var(
        "KREACH_FAILPOINTS",
        "*.write=err; wal.append.fsync=enospc@p0.5",
    );
    let k = 3;
    let g = Arc::new(
        GeneratorSpec::PowerLaw {
            n: 300,
            m: 1_400,
            hubs: 4,
        }
        .generate(21),
    );
    let index = KReachIndex::build(&g, k, BuildOptions::default());
    // Every calling thread owns identical thread-local arenas, so the claim
    // measured on this one generalizes to the server's handler threads.
    let engine = BatchEngine::new(
        Arc::new(KReachBackend::new(Arc::clone(&g), index)),
        EngineConfig::default(),
    );

    let small = fan_in_batch(300, k, 8); //  1 000 queries
    let big = fan_in_batch(300, k, 32); //  4 000 queries
    let mut answers = Vec::new();

    // Warm every arena to its high-water mark: answer buffer, engine
    // scratch, candidate bitsets, row memos, the lazy position-adjacency
    // tables.
    for _ in 0..3 {
        engine.run_into(&big, &mut answers).expect("valid batch");
        engine.run_into(&small, &mut answers).expect("valid batch");
    }

    let before_small = allocations();
    engine.run_into(&small, &mut answers).expect("valid batch");
    let small_delta = allocations() - before_small;

    let before_big = allocations();
    engine.run_into(&big, &mut answers).expect("valid batch");
    let big_delta = allocations() - before_big;

    assert_eq!(
        (small_delta, big_delta),
        (0, 0),
        "a warmed batch must allocate nothing \
         (1k queries: {small_delta}, 4k queries: {big_delta})"
    );
}
