//! Saving a checkpoint costs the file's bytes in heap, and nothing more,
//! proven by a counting allocator.
//!
//! [`kreach_store::save_checkpoint`] renders the container once, streaming
//! every section from the live maintainer (graph adjacency, index rows)
//! into the buffer that is written to disk. No section is staged as an
//! array and the graph is not snapshotted, so the peak heap the save adds
//! on top of the state is the file length plus a small constant (the path,
//! the file handle). The bound is checked at two graph sizes 8× apart, so
//! a per-vertex or per-edge copy sneaking back in breaks it at the larger
//! size even if the constant hides it at the smaller one.
//!
//! This lives in an integration test because the store library forbids
//! `unsafe`, and a [`GlobalAlloc`] impl requires it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use kreach_core::{DynamicKReach, DynamicOptions};
use kreach_graph::generators::GeneratorSpec;
use kreach_graph::{EdgeUpdate, VertexId};

/// Tracks live heap bytes and their high-water mark.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Heap the save may add beyond the file's bytes: the path, the open file,
/// error-free bookkeeping. Independent of the state's size.
const SLACK_BYTES: usize = 16 << 10;

/// A maintained index over a layered DAG of `n` vertices (the durable
/// workloads' graph shape), patched so its rows are not a fresh build.
fn state(n: usize) -> DynamicKReach {
    let g = GeneratorSpec::LayeredDag {
        n,
        m: 4 * n,
        layers: 30,
        back_edge_fraction: 0.0,
    }
    .generate(7);
    let mut state = DynamicKReach::new(g, 3, DynamicOptions::default());
    let n = n as u32;
    state.apply_all(&[
        EdgeUpdate::Insert(VertexId(1), VertexId(n / 2)),
        EdgeUpdate::Insert(VertexId(n / 3), VertexId(n - 1)),
        EdgeUpdate::Remove(VertexId(0), VertexId(1)),
    ]);
    state
}

/// `(file bytes, peak heap the save added)` for one checkpoint of `state`.
fn save_peak(state: &DynamicKReach, dir: &std::path::Path) -> (usize, usize) {
    let path = dir.join("checkpoint.krc3");
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let written = kreach_store::save_checkpoint(state, 9, &path).expect("save");
    let extra = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(
        std::fs::metadata(&path).expect("checkpoint file").len(),
        written.bytes
    );
    (written.bytes as usize, extra)
}

#[test]
fn save_checkpoint_peak_heap_is_the_file_length() {
    let dir = std::env::temp_dir().join(format!("kreach-checkpoint-heap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut files = Vec::new();
    for n in [2_000, 16_000] {
        let state = state(n);
        // Warm up once, so lazily allocated process state is not charged.
        save_peak(&state, &dir);
        let (file, extra) = save_peak(&state, &dir);
        assert!(
            extra <= file + SLACK_BYTES,
            "n = {n}: saving a {file}-byte checkpoint added {extra} bytes of heap"
        );
        files.push(file);
    }
    assert!(
        files[1] >= 4 * files[0],
        "the two states differ in size: {files:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
