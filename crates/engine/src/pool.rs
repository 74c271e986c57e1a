//! The fixed worker pool: plain `std::thread` workers executing shared
//! batch tasks.
//!
//! Workers live for the lifetime of the pool (queries are microseconds, so
//! per-batch thread spawning would dominate). Dispatch is **chunk-claiming**:
//! a batch run publishes one shared [`BatchTask`] — the query list, backend,
//! and an atomic chunk cursor — and the engine hands each worker one
//! handle to it. Workers claim chunks with a `fetch_add` on the cursor and
//! write each finished chunk's answers back into the shared answer buffer in
//! a single locked copy. Compared to the earlier one-channel-message-per-
//! chunk design, a batch costs `O(workers)` channel operations instead of
//! `O(chunks)` send/recv pairs, and results never traverse a channel at all.
//!
//! Within a chunk there is one dispatch path, traced or not: queries are
//! sorted by `(t, k)` and each same-`(t, k)` run is one
//! [`Reachability::query_group`] call. A live recorder adds one
//! `engine.group` span per run; it never changes which kernel answers.

use crate::backend::Reachability;
use crate::batch::Query;
use crate::casestats::CaseTally;
use crate::histogram::LatencyHistogram;
use kreach_graph::VertexId;
use kreach_obs::observe::{ProbeMark, QueryObservation, CLASSES};
use kreach_obs::Recorder;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Reusable per-worker buffers for chunk answering. Workers live for the
/// pool's lifetime, so after the first few chunks the serve path runs
/// entirely in these warmed arenas — zero steady-state heap allocation per
/// query (asserted by the counting-allocator integration test).
#[derive(Default)]
struct WorkerScratch {
    /// Chunk answers, indexed chunk-relative.
    answers: Vec<bool>,
    /// Chunk-relative query indices, sorted by `(t, k, s)` for target
    /// grouping.
    order: Vec<u32>,
    /// Sources of the target group currently being dispatched.
    group_sources: Vec<VertexId>,
    /// Answers of the target group currently being dispatched.
    group_answers: Vec<bool>,
}

thread_local! {
    static WORKER_SCRATCH: RefCell<WorkerScratch> = RefCell::new(WorkerScratch::default());
}

/// Shared state of one in-flight batch: claimed chunk by chunk, completed
/// when every chunk's answers have been written back.
pub(crate) struct BatchTask {
    queries: Arc<Vec<Query>>,
    backend: Arc<dyn Reachability>,
    chunk_size: usize,
    /// Tracing handle; [`Recorder::disabled`] in the common untraced case.
    recorder: Recorder,
    /// The submitting thread's span context, captured at task creation so
    /// worker spans attach to the request's trace instead of opening fresh
    /// roots (see `Recorder::span_in`).
    context: Option<(u64, u32)>,
    /// Next unclaimed query offset; workers `fetch_add(chunk_size)` to claim.
    cursor: AtomicUsize,
    /// Answer buffer plus completion count, written once per chunk.
    progress: Mutex<TaskProgress>,
    finished: Condvar,
    total_chunks: usize,
}

struct TaskProgress {
    answers: Vec<bool>,
    latencies: LatencyHistogram,
    tally: CaseTally,
    completed_chunks: usize,
    /// Set when a chunk's execution panicked (backend bug, poisoned backend
    /// lock). The batch still completes — `wait` propagates the failure
    /// loudly instead of hanging or returning silently-false answers.
    failed: bool,
}

impl BatchTask {
    /// Prepares a task over `queries` (must be non-empty). The recorder's
    /// current span context is captured here, on the submitting thread.
    /// `answers` is a recycled answer buffer (resized to fit; pass
    /// `Vec::new()` when there is nothing to recycle) — callers that loop
    /// over batches get allocation-free dispatch by feeding each run's
    /// buffer back in.
    pub fn new(
        queries: Arc<Vec<Query>>,
        backend: Arc<dyn Reachability>,
        chunk_size: usize,
        recorder: Recorder,
        mut answers: Vec<bool>,
    ) -> Self {
        let chunk_size = chunk_size.max(1);
        let total = queries.len();
        let context = recorder.current();
        answers.clear();
        answers.resize(total, false);
        BatchTask {
            backend,
            chunk_size,
            recorder,
            context,
            cursor: AtomicUsize::new(0),
            progress: Mutex::new(TaskProgress {
                answers,
                latencies: LatencyHistogram::new(),
                tally: CaseTally::new(),
                completed_chunks: 0,
                failed: false,
            }),
            finished: Condvar::new(),
            total_chunks: total.div_ceil(chunk_size),
            queries,
        }
    }

    /// Claims and answers chunks until the cursor is exhausted. Run by every
    /// worker handed this task; safe to call from any number of threads. A
    /// panic inside a chunk (a backend bug) is contained: the chunk is
    /// marked failed-but-complete so [`BatchTask::wait`] can report it
    /// instead of hanging, and the worker survives for future batches.
    fn drive(&self) {
        let total = self.queries.len();
        loop {
            let start = self.cursor.fetch_add(self.chunk_size, Ordering::Relaxed);
            if start >= total {
                return;
            }
            let end = (start + self.chunk_size).min(total);
            // The chunk body runs against this worker's reusable scratch;
            // the write-back (one lock, one slice copy) happens inside the
            // guarded closure so the scratch borrow never escapes. A panic
            // anywhere in the chunk is contained below.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                WORKER_SCRATCH.with(|cell| {
                    let scratch = &mut *cell.borrow_mut();
                    let (latencies, tally) = self.answer_chunk(start, end, scratch);
                    let mut progress = self.progress.lock().expect("task progress poisoned");
                    progress.answers[start..end].copy_from_slice(&scratch.answers[..end - start]);
                    progress.latencies.merge(&latencies);
                    progress.tally.merge(&tally);
                    progress.completed_chunks += 1;
                    progress.completed_chunks == self.total_chunks
                })
            }));
            match result {
                Ok(all_done) => {
                    if all_done {
                        self.finished.notify_all();
                    }
                }
                Err(_) => {
                    // Recover even a poisoned lock: the batch must still
                    // complete so wait() can report the failure loudly
                    // instead of hanging.
                    let mut progress = match self.progress.lock() {
                        Ok(p) => p,
                        Err(e) => e.into_inner(),
                    };
                    progress.failed = true;
                    progress.completed_chunks += 1;
                    if progress.completed_chunks == self.total_chunks {
                        self.finished.notify_all();
                    }
                }
            }
        }
    }

    /// Answers the queries in `[start, end)` into `scratch.answers`
    /// (chunk-relative), returning the latency histogram and per-case tally.
    ///
    /// The chunk's queries are sorted by `(t, k)` and each same-`(t, k)`
    /// run, a one-query run included, is answered with one
    /// [`Reachability::query_group`] call, so per-target work (candidate
    /// translation, Case-4 scratch bitsets, lock acquisition, shared-row
    /// verdicts) is paid once per run instead of once per query. Traced or
    /// not, this is the one dispatch path; a live recorder adds one
    /// `engine.group` span per run under the submitting thread's trace.
    ///
    /// Group observation bookkeeping: each member is tallied to its own
    /// Algorithm-2 case (via the backend's O(1) classifier, or the group's
    /// own observation for a one-query group) under the group's
    /// resolution, probe totals are attributed to the group's first member
    /// (they are totals, not per-query), and each member records the
    /// group's mean latency — so the class counts still sum to the served
    /// query count and latency sums stay honest. Only runs of two or more
    /// count as batched (`engine.grouped_share`).
    fn answer_chunk(
        &self,
        start: usize,
        end: usize,
        scratch: &mut WorkerScratch,
    ) -> (LatencyHistogram, CaseTally) {
        let queries = &self.queries[start..end];
        scratch.answers.clear();
        scratch.answers.resize(queries.len(), false);
        let mut latencies = LatencyHistogram::new();
        let mut tally = CaseTally::new();
        scratch.order.clear();
        scratch.order.extend(0..queries.len() as u32);
        // Sort by (t, k, s): groups become contiguous and duplicate sources
        // within a group sit next to each other for the memoized kernels.
        scratch.order.sort_unstable_by_key(|&i| {
            let q = &queries[i as usize];
            (q.t.0, q.k, q.s.0)
        });
        let mut at = 0usize;
        while at < scratch.order.len() {
            let first = &queries[scratch.order[at] as usize];
            let (t, k) = (first.t, first.k);
            let mut group_end = at + 1;
            while group_end < scratch.order.len() {
                let q = &queries[scratch.order[group_end] as usize];
                if q.t != t || q.k != k {
                    break;
                }
                group_end += 1;
            }
            let group = &scratch.order[at..group_end];
            at = group_end;
            scratch.group_sources.clear();
            scratch
                .group_sources
                .extend(group.iter().map(|&i| queries[i as usize].s));
            scratch.group_answers.clear();
            scratch.group_answers.resize(group.len(), false);
            // The span's clock times the group whether or not it records.
            let mut span = self.recorder.span_in(self.context, "engine.group");
            let mark = ProbeMark::begin();
            self.backend
                .query_group(&scratch.group_sources, t, k, &mut scratch.group_answers);
            let group_obs = mark.observe();
            let mean_nanos = span.elapsed_nanos() / group.len() as u64;
            if group.len() > 1 {
                tally.note_batched_group(group.len() as u64);
            }
            let mut classes = [0u32; CLASSES];
            for (j, &i) in group.iter().enumerate() {
                let query = &queries[i as usize];
                scratch.answers[i as usize] = scratch.group_answers[j];
                // A one-query group's own observation already names its
                // case; asking the backend again would cost durable serving
                // a second state lock per query.
                let case = match group {
                    [_] => group_obs.case,
                    _ => self
                        .backend
                        .case_of(query.s, query.t, query.k)
                        .unwrap_or(group_obs.case),
                };
                let obs = QueryObservation {
                    case,
                    resolution: group_obs.resolution,
                    dense_probes: if j == 0 { group_obs.dense_probes } else { 0 },
                    sparse_gallops: if j == 0 { group_obs.sparse_gallops } else { 0 },
                };
                classes[obs.class_index()] += 1;
                latencies.record(mean_nanos);
                tally.observe(&obs, mean_nanos);
            }
            if span.is_recording() {
                span.note(format!(
                    "t={} k={k} size={} case1={} case2={} case3={} case4={} resolution={}",
                    t.0,
                    group.len(),
                    classes[0],
                    classes[1],
                    classes[2],
                    classes[3],
                    group_obs.resolution.label()
                ));
            }
        }
        (latencies, tally)
    }

    /// Blocks until every chunk is written back, then takes the results.
    ///
    /// # Panics
    /// Panics if any chunk's execution panicked in a worker — the batch's
    /// answers would otherwise be silently wrong.
    pub fn wait(&self) -> (Vec<bool>, LatencyHistogram, CaseTally) {
        let mut progress = self.progress.lock().expect("task progress poisoned");
        while progress.completed_chunks < self.total_chunks {
            progress = self
                .finished
                .wait(progress)
                .expect("task progress poisoned");
        }
        assert!(
            !progress.failed,
            "pool worker panicked while answering a batch chunk"
        );
        (
            std::mem::take(&mut progress.answers),
            std::mem::take(&mut progress.latencies),
            std::mem::take(&mut progress.tally),
        )
    }
}

/// A fixed-size pool of query workers.
pub(crate) struct WorkerPool {
    sender: Option<mpsc::Sender<Arc<BatchTask>>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least 1) waiting on the task channel.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (sender, receiver) = mpsc::channel::<Arc<BatchTask>>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("kreach-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only while dequeuing; chunk claiming
                        // runs unlocked on the task's atomic cursor.
                        let task = match receiver.lock() {
                            Ok(rx) => rx.recv(),
                            Err(_) => break,
                        };
                        match task {
                            Ok(task) => task.drive(),
                            Err(_) => break, // channel closed: pool dropped
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            handles,
            workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Hands every worker one handle to the task (a task with fewer chunks
    /// than workers is handed out only as often as it can be claimed).
    pub fn dispatch(&self, task: &Arc<BatchTask>) {
        let sender = self.sender.as_ref().expect("pool sender alive until drop");
        for _ in 0..self.workers.min(task.total_chunks) {
            sender
                .send(Arc::clone(task))
                .expect("pool workers alive until drop");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel wakes every worker's recv with Err.
        drop(self.sender.take());
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BfsBackend;
    use kreach_graph::{DiGraph, VertexId};

    #[test]
    fn pool_answers_tasks_and_shuts_down_cleanly() {
        let g = Arc::new(DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]));
        let backend: Arc<dyn Reachability> = Arc::new(BfsBackend::new(g, 3));
        let queries = Arc::new(vec![
            Query {
                s: VertexId(0),
                t: VertexId(3),
                k: 3,
            },
            Query {
                s: VertexId(0),
                t: VertexId(3),
                k: 2,
            },
            Query {
                s: VertexId(3),
                t: VertexId(0),
                k: 3,
            },
            Query {
                s: VertexId(1),
                t: VertexId(1),
                k: 1,
            },
        ]);
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        // Chunk size 2 over 4 queries: two chunks, claimed by up to 2 workers.
        let task = Arc::new(BatchTask::new(
            queries,
            backend,
            2,
            Recorder::disabled(),
            Vec::new(),
        ));
        pool.dispatch(&task);
        let (answers, latencies, tally) = task.wait();
        assert_eq!(answers, vec![true, false, false, true]);
        assert_eq!(latencies.count(), 4);
        // Every served query lands in exactly one class.
        assert_eq!(tally.total(), 4);
        drop(pool); // joins workers; must not hang
    }

    #[test]
    fn single_chunk_task_completes_with_many_workers() {
        let g = Arc::new(DiGraph::from_edges(2, [(0, 1)]));
        let backend: Arc<dyn Reachability> = Arc::new(BfsBackend::new(g, 1));
        let queries = Arc::new(vec![Query {
            s: VertexId(0),
            t: VertexId(1),
            k: 1,
        }]);
        let pool = WorkerPool::new(8);
        let task = Arc::new(BatchTask::new(
            queries,
            backend,
            1024,
            Recorder::disabled(),
            Vec::new(),
        ));
        pool.dispatch(&task);
        assert_eq!(task.wait().0, vec![true]);
    }

    #[test]
    fn panicking_backend_fails_the_batch_loudly_and_workers_survive() {
        /// A backend that panics on one poisoned pair.
        struct Trap;
        impl Reachability for Trap {
            fn name(&self) -> &'static str {
                "trap"
            }
            fn vertex_count(&self) -> usize {
                8
            }
            fn default_k(&self) -> u32 {
                1
            }
            fn query(&self, s: VertexId, t: VertexId, _k: u32) -> bool {
                assert!(!(s == VertexId(3) && t == VertexId(3)), "trap sprung");
                true
            }
        }
        let backend: Arc<dyn Reachability> = Arc::new(Trap);
        let pool = WorkerPool::new(2);
        let poisoned = Arc::new(vec![
            Query {
                s: VertexId(0),
                t: VertexId(1),
                k: 1,
            },
            Query {
                s: VertexId(3),
                t: VertexId(3),
                k: 1,
            },
        ]);
        let task = Arc::new(BatchTask::new(
            Arc::clone(&poisoned),
            Arc::clone(&backend),
            1,
            Recorder::disabled(),
            Vec::new(),
        ));
        pool.dispatch(&task);
        // The batch completes (no hang) and reports the failure loudly.
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.wait()));
        assert!(failed.is_err(), "a panicked chunk must fail the batch");
        // The workers survived the contained panic and answer a clean batch.
        let clean = Arc::new(vec![Query {
            s: VertexId(0),
            t: VertexId(1),
            k: 1,
        }]);
        let task = Arc::new(BatchTask::new(
            clean,
            backend,
            1,
            Recorder::disabled(),
            Vec::new(),
        ));
        pool.dispatch(&task);
        assert_eq!(task.wait().0, vec![true]);
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
    }
}
