//! The untraced pass: closed- and open-loop load from one process over at
//! most two connections, with every response checked as it arrives.

use crate::child::Server;
use crate::stats::{median, percentile, MIN_BEYOND};
use crate::workload::{answer_line, update_body, Request, BATCH, BODY_OPS, K, WRITE_HZ};
use kreach_graph::traversal::khop_reachable_bidirectional;
use kreach_graph::{EdgeUpdate, VersionedAdjGraph, VertexId};
use kreach_server::client::BlockingClient;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Connections the batch workloads drive: one per CPU of the two-CPU
/// machine the benchmark was calibrated on.
pub const BATCH_CONNECTIONS: usize = 2;

/// When a pass warms up and when it measures.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Pass start: warm-up begins.
    pub start: Instant,
    /// Measurement begins (end of warm-up).
    pub measure: Instant,
    /// Measurement ends.
    pub end: Instant,
}

impl Window {
    /// A window starting now.
    pub fn starting_now(warmup: Duration, seconds: Duration) -> Window {
        let start = Instant::now();
        Window {
            start,
            measure: start + warmup,
            end: start + warmup + seconds,
        }
    }

    fn measures(&self, at: Instant) -> bool {
        at >= self.measure && at < self.end
    }
}

/// The measured window cut into slices of about a second. Throughput and
/// latency percentiles are computed per slice and reported as the median
/// over slices, so a few seconds of interference from other tenants of the
/// machine move a run's numbers far less than they move whole-window ones.
#[derive(Debug, Clone, Default)]
pub struct Slices {
    /// Per slice: answered queries, and the latency of every request sent
    /// in it.
    pub slices: Vec<(u64, Vec<u64>)>,
    /// Slice width in seconds.
    pub width_s: f64,
    start: Option<Instant>,
}

impl Slices {
    /// Empty slices covering `window`'s measured part.
    pub fn new(window: &Window) -> Slices {
        let secs = (window.end - window.measure).as_secs_f64();
        let n = (secs.round() as usize).max(1);
        Slices {
            slices: vec![(0, Vec::new()); n],
            width_s: secs / n as f64,
            start: Some(window.measure),
        }
    }

    /// Records a request sent at `sent` (ignored outside the window).
    fn record(&mut self, sent: Instant, latency_ns: u64, queries: u64) {
        let Some(offset) = self.start.and_then(|s| sent.checked_duration_since(s)) else {
            return;
        };
        let i = (offset.as_secs_f64() / self.width_s) as usize;
        if let Some(slice) = self.slices.get_mut(i) {
            slice.0 += queries;
            slice.1.push(latency_ns);
        }
    }

    /// Folds another connection's slices in.
    fn merge(&mut self, other: Slices) {
        if self.slices.is_empty() {
            *self = other;
            return;
        }
        for (mine, theirs) in self.slices.iter_mut().zip(other.slices) {
            mine.0 += theirs.0;
            mine.1.extend(theirs.1);
        }
    }

    /// Latency samples over every slice.
    pub fn samples(&self) -> usize {
        self.slices.iter().map(|s| s.1.len()).sum()
    }

    /// Mean latency over every slice, in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        let total: f64 = self
            .slices
            .iter()
            .flat_map(|s| &s.1)
            .map(|&ns| ns as f64)
            .sum();
        total / self.samples().max(1) as f64
    }

    /// Median over slices of answered queries per second.
    pub fn qps(&self) -> f64 {
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.0 as f64 / self.width_s)
            .collect();
        median(&per_slice).unwrap_or(0.0)
    }

    /// Median over slices of each slice's latency percentile `p`, or `None`
    /// if some slice has no sample or — when `strict` — fewer than
    /// [`MIN_BEYOND`] samples beyond its percentile.
    pub fn percentile_ns(&self, p: f64, strict: bool) -> Option<f64> {
        let mut per_slice = Vec::with_capacity(self.slices.len());
        for (_, latencies) in &self.slices {
            let mut sorted = latencies.clone();
            sorted.sort_unstable();
            let pc = percentile(&sorted, p)?;
            if strict && pc.beyond < MIN_BEYOND {
                return None;
            }
            per_slice.push(pc.value as f64);
        }
        median(&per_slice)
    }
}

/// Operation outcomes: attempts, failures of any kind, and the subset that
/// were wrong answers (which fail the whole run).
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Non-2xx responses, transport errors, and wrong, misordered or
    /// missing answers.
    pub failed: u64,
    /// Responses whose body differed from the expected bytes.
    pub wrong: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one failure; `wrong` marks an incorrect answer.
    pub fn fail(&mut self, wrong: bool, note: String) {
        self.failed += 1;
        self.wrong += u64::from(wrong);
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Folds another tally in.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }

    /// Sends one request on the kept-alive connection (reconnecting when
    /// there is none) and returns the body of a 200 response. Transport
    /// errors and other statuses count as failures.
    pub fn send(
        &mut self,
        client: &mut Option<BlockingClient>,
        server: &Server,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Option<Vec<u8>> {
        self.attempted += 1;
        let conn = match client {
            Some(conn) => conn,
            None => match server.connect() {
                Ok(conn) => client.insert(conn),
                Err(e) => {
                    self.fail(false, format!("connect: {e}"));
                    // Do not spin against a server that is gone.
                    std::thread::sleep(Duration::from_millis(10));
                    return None;
                }
            },
        };
        match conn.request(method, target, body) {
            Ok(r) => {
                if r.close {
                    *client = None;
                }
                if r.status == 200 {
                    Some(r.body)
                } else {
                    self.fail(false, format!("{target}: status {}", r.status));
                    None
                }
            }
            Err(e) => {
                *client = None;
                self.fail(false, format!("{target}: {e}"));
                None
            }
        }
    }

    /// Compares a response body with the expected bytes; a difference is a
    /// wrong answer.
    pub fn check(&mut self, what: &str, got: &[u8], expected: &[u8]) -> bool {
        if got == expected {
            true
        } else {
            self.fail(true, format!("{what}: {}", first_difference(got, expected)));
            false
        }
    }

    /// [`Tally::send`] a `POST` whose whole response is known in advance,
    /// then [`Tally::check`] it.
    pub fn exchange(
        &mut self,
        client: &mut Option<BlockingClient>,
        server: &Server,
        target: &str,
        body: &[u8],
        expected: &[u8],
    ) -> bool {
        self.send(client, server, "POST", target, body)
            .is_some_and(|got| self.check(target, &got, expected))
    }
}

/// Describes where a response first differs from the expected body.
pub fn first_difference(got: &[u8], expected: &[u8]) -> String {
    let got = String::from_utf8_lossy(got);
    let want = String::from_utf8_lossy(expected);
    let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    match g.iter().zip(&w).position(|(a, b)| a != b) {
        Some(i) => format!("line {}: got {:?}, expected {:?}", i + 1, g[i], w[i]),
        None => format!("{} answer lines, expected {}", g.len(), w.len()),
    }
}

/// What the batch pass measured.
#[derive(Debug, Default)]
pub struct BatchPass {
    /// Requests sent inside the window, by slice.
    pub slices: Slices,
    /// Everything attempted during warm-up and measurement.
    pub tally: Tally,
}

/// Closed loop over [`BATCH_CONNECTIONS`] connections: connection `i`
/// sends pool requests `i, i + 2, …`, so together they walk the pool in
/// order. Each response is compared byte for byte with its expected body.
pub fn drive_batch(server: &Server, pool: &[Request], window: Window) -> BatchPass {
    let parts: Vec<(Slices, Tally)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..BATCH_CONNECTIONS)
            .map(|first| {
                scope.spawn(move || {
                    let mut client = None;
                    let mut slices = Slices::new(&window);
                    let mut tally = Tally::default();
                    let mut next = first;
                    while Instant::now() < window.end {
                        let req = &pool[next % pool.len()];
                        next += BATCH_CONNECTIONS;
                        let sent = Instant::now();
                        let ok =
                            tally.exchange(&mut client, server, "/batch", &req.body, &req.expected);
                        if ok {
                            let latency = sent.elapsed().as_nanos() as u64;
                            slices.record(sent, latency, BATCH as u64);
                        }
                    }
                    (slices, tally)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("batch connection thread panicked"))
            .collect()
    });
    let mut pass = BatchPass::default();
    for (slices, tally) in parts {
        pass.slices.merge(slices);
        pass.tally.absorb(tally);
    }
    pass
}

/// One `GET /reach` as sent and answered, with the epochs it may have seen.
#[derive(Debug, Clone, Copy)]
struct ReadRecord {
    s: u32,
    t: u32,
    reachable: bool,
    /// Every mutation acked before the read was sent is visible to it.
    lo: u64,
    /// No mutation sent after the response arrived can be visible.
    hi: u64,
}

/// What the mixed pass measured.
#[derive(Debug, Default)]
pub struct MixedPass {
    /// `GET /reach` requests sent inside the window, by slice.
    pub reads: Slices,
    /// Update latency from each body's scheduled send time to its ack, for
    /// bodies scheduled inside the window.
    pub update_ns: Vec<u64>,
    /// How late each body went out after its scheduled time.
    pub lag_ns: Vec<u64>,
    /// Reads sent over the whole pass (warm-up included).
    pub total_reads: u64,
    /// Acked mutations that reported `noop`.
    pub noops: u64,
    /// Mutations sent.
    pub mutations: u64,
    /// Everything attempted, reads verified against the mirror.
    pub tally: Tally,
}

/// Connection A reads in a closed loop; connection B posts `bodies` open
/// loop at [`WRITE_HZ`], each on schedule regardless of how the last one
/// fared, and keeps going past the window until every body is sent. Every
/// ack is checked against the expected epochs; every read is checked
/// afterwards against BFS on the mirror at an epoch it could have seen.
pub fn drive_mixed(
    server: &Server,
    graph: &VersionedAdjGraph,
    reads: &[(u32, u32)],
    bodies: &[Vec<EdgeUpdate>],
    window: Window,
) -> MixedPass {
    // Epochs the writer has sent and had acked; the server starts at 0.
    let sent = AtomicU64::new(0);
    let acked = AtomicU64::new(0);
    let (sent, acked) = (&sent, &acked);
    let (reader, writer) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut records = Vec::new();
            let mut slices = Slices::new(&window);
            let mut tally = Tally::default();
            let mut client: Option<BlockingClient> = None;
            let mut next = 0usize;
            while Instant::now() < window.end {
                let (s, t) = reads[next % reads.len()];
                next += 1;
                let target = format!("/reach?s={s}&t={t}&k={K}");
                let lo = acked.load(Ordering::SeqCst);
                let start = Instant::now();
                let body = tally.send(&mut client, server, "GET", &target, &[]);
                let done = Instant::now();
                let hi = sent.load(Ordering::SeqCst);
                let Some(body) = body else { continue };
                let reachable = if body == answer_line(s, t, true).as_bytes() {
                    true
                } else if body == answer_line(s, t, false).as_bytes() {
                    false
                } else {
                    let got = String::from_utf8_lossy(&body).into_owned();
                    tally.fail(true, format!("{target}: got {got:?}"));
                    continue;
                };
                records.push(ReadRecord {
                    s,
                    t,
                    reachable,
                    lo,
                    hi,
                });
                slices.record(start, (done - start).as_nanos() as u64, 1);
            }
            (records, slices, tally)
        });
        let writer = scope.spawn(move || {
            let mut tally = Tally::default();
            let (mut update_ns, mut lag_ns, mut noops) = (Vec::new(), Vec::new(), 0u64);
            let mut client: Option<BlockingClient> = None;
            for (j, ops) in bodies.iter().enumerate() {
                let due = window.start + Duration::from_secs_f64(j as f64 / WRITE_HZ);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let first = (j * BODY_OPS) as u64 + 1;
                let (body, ack) = update_body(ops, first);
                sent.store(first + ops.len() as u64 - 1, Ordering::SeqCst);
                let went = Instant::now();
                let got = tally.send(&mut client, server, "POST", "/update", &body);
                let done = Instant::now();
                let ok = got.is_some_and(|got| {
                    noops += got.windows(6).filter(|w| w == b" noop ").count() as u64;
                    tally.check("/update", &got, &ack)
                });
                if !ok {
                    // A body that did not apply as drawn leaves the mirror
                    // out of step with the server: stop writing.
                    break;
                }
                acked.store(first + ops.len() as u64 - 1, Ordering::SeqCst);
                if window.measures(due) {
                    update_ns.push((done - due).as_nanos() as u64);
                    lag_ns.push((went - due).as_nanos() as u64);
                }
            }
            (tally, update_ns, lag_ns, noops)
        });
        (
            reader.join().expect("reader thread panicked"),
            writer.join().expect("writer thread panicked"),
        )
    });
    let (records, reads, mut tally) = reader;
    let (write_tally, update_ns, lag_ns, noops) = writer;
    let mutations = write_tally.attempted * BODY_OPS as u64;
    let total_reads = tally.attempted;
    tally.absorb(write_tally);
    verify_reads(graph, bodies, &records, &mut tally);
    MixedPass {
        reads,
        update_ns,
        lag_ns,
        total_reads,
        noops,
        mutations,
        tally,
    }
}

/// Checks every read against BFS on the mirror replayed to the epochs the
/// read could have observed: at least every mutation acked before it was
/// sent, at most every mutation sent before its answer arrived.
fn verify_reads(
    graph: &VersionedAdjGraph,
    bodies: &[Vec<EdgeUpdate>],
    records: &[ReadRecord],
    tally: &mut Tally,
) {
    let ops: Vec<EdgeUpdate> = bodies.iter().flatten().copied().collect();
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| records[i].lo);
    let mut mirror = graph.clone();
    let mut epoch = 0;
    let mut next = 0usize;
    let mut open: Vec<usize> = Vec::new();
    loop {
        while next < order.len() && records[order[next]].lo <= epoch {
            open.push(order[next]);
            next += 1;
        }
        open.retain(|&i| {
            let r = records[i];
            let seen = khop_reachable_bidirectional(&mirror, VertexId(r.s), VertexId(r.t), K);
            if seen == r.reachable {
                return false;
            }
            if r.hi <= epoch {
                tally.fail(
                    true,
                    format!(
                        "/reach?s={}&t={}: answered {} but no epoch in [{}, {}] agrees",
                        r.s, r.t, r.reachable, r.lo, r.hi
                    ),
                );
                return false;
            }
            true
        });
        if next == order.len() && open.is_empty() {
            break;
        }
        let Some(&op) = ops.get(epoch as usize) else {
            // Reads claiming epochs past every mutation sent: impossible
            // unless the bookkeeping above is wrong.
            for &i in &open {
                tally.fail(true, format!("read {i} outlived the write stream"));
            }
            break;
        };
        mirror.apply(op);
        epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreach_graph::DiGraph;

    fn record(s: u32, t: u32, reachable: bool, lo: u64, hi: u64) -> ReadRecord {
        ReadRecord {
            s,
            t,
            reachable,
            lo,
            hi,
        }
    }

    #[test]
    fn reads_are_checked_against_every_epoch_they_could_see() {
        // 0 → 1 → 2; the body removes (1, 2) then inserts (0, 2).
        let g = VersionedAdjGraph::from_csr(&DiGraph::from_edges(3, [(0, 1), (1, 2)]));
        let bodies = vec![vec![
            EdgeUpdate::Remove(VertexId(1), VertexId(2)),
            EdgeUpdate::Insert(VertexId(2), VertexId(0)),
        ]];
        let good = [
            record(0, 2, true, 0, 0),  // before the body
            record(0, 2, false, 0, 2), // in flight: unreachable from epoch 1
            record(2, 1, true, 2, 2),  // after: 2 → 0 → 1
        ];
        let mut tally = Tally::default();
        verify_reads(&g, &bodies, &good, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);

        let bad = [record(0, 2, false, 0, 0), record(2, 1, false, 2, 2)];
        let mut tally = Tally::default();
        verify_reads(&g, &bodies, &bad, &mut tally);
        assert_eq!((tally.failed, tally.wrong), (2, 2));
    }

    #[test]
    fn first_difference_names_the_line() {
        let got = b"1 2 3 reachable\n4 5 3 reachable\n";
        let want = b"1 2 3 reachable\n4 5 3 unreachable\n";
        assert!(first_difference(got, want).starts_with("line 2:"));
        assert!(first_difference(b"", want).contains("0 answer lines, expected 2"));
    }
}
