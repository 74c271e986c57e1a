//! The three workloads: the graph each server starts on, the traffic driven
//! against it, and the expected answer for every request, computed with an
//! online k-hop BFS before any timing starts.
//!
//! Every input derives from `--seed`; the server only ever sees the
//! generated edge list and the requests.

use kreach_graph::generators::GeneratorSpec;
use kreach_graph::traversal::khop_reachable_bidirectional;
use kreach_graph::{DiGraph, EdgeUpdate, GraphView, VersionedAdjGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Hop bound of every query (and the `--k` the servers run with).
pub const K: u32 = 3;
/// Targets per `POST /batch` request.
pub const TARGETS_PER_REQUEST: usize = 16;
/// Sources per target: a request asks "which of these 16 reach t?" for 16
/// targets, the fan-in shape of "who is in t's small world".
pub const SOURCES_PER_TARGET: usize = 16;
/// Queries per `POST /batch` request.
pub const BATCH: usize = TARGETS_PER_REQUEST * SOURCES_PER_TARGET;
/// Distinct queries in a batch pool: twice the server's default 65 536-entry
/// result cache, cycled in order, so the LRU never hits.
pub const POOL: usize = 131_072;
/// `POST /update` bodies per second sent by the durable-mixed writer.
pub const WRITE_HZ: f64 = 60.0;
/// Mutations per update body: two removals of live edges, two inserts of
/// absent pairs.
pub const BODY_OPS: usize = 4;
/// Mutations in the restart tail (and in the traced pass's write probe).
pub const TAIL_OPS: usize = 2_000;
/// Vertices in the durable-mixed hot set.
pub const HOT: usize = 32;
/// Share of durable-mixed reads with both endpoints in the hot set.
pub const HOT_SHARE: f64 = 0.7;
/// Length of the durable-mixed read stream (cycled).
const READS: usize = 1 << 16;
/// Queries in the probe batch sent after the pass and after every restart.
const PROBE: usize = 1_024;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Static index, read-only batches larger than the cache.
    StaticBatch,
    /// Durable dynamic backend, read-only batches larger than the cache.
    DurableBatch,
    /// Durable dynamic backend, hot-set reads beside an open-loop writer.
    DurableMixed,
}

impl Kind {
    /// Every workload, in the order a full run executes them.
    pub const ALL: [Kind; 3] = [Kind::StaticBatch, Kind::DurableBatch, Kind::DurableMixed];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Kind::StaticBatch => "static-batch",
            Kind::DurableBatch => "durable-batch",
            Kind::DurableMixed => "durable-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the server runs with `--data-dir` (dynamic backend, WAL,
    /// checkpointer).
    pub fn durable(self) -> bool {
        self != Kind::StaticBatch
    }

    /// The generator of the workload's graph. Full size: a metabolic-family
    /// hub forest at ten times AgroCyc (most queries land in Case 4) for the
    /// static server, a citation-family layered DAG at CiteSeer's density
    /// for the durable ones. Smoke runs shrink both ~35×.
    pub fn generator(self, smoke: bool) -> GeneratorSpec {
        let scale = if smoke { 35 } else { 1 };
        match self {
            Kind::StaticBatch => GeneratorSpec::HubForest {
                n: 140_000 / scale,
                m: 177_000 / scale,
                hubs: 4_100 / scale,
            },
            Kind::DurableBatch | Kind::DurableMixed => GeneratorSpec::LayeredDag {
                n: 50_000 / scale,
                m: 200_000 / scale,
                layers: 30,
                back_edge_fraction: 0.0,
            },
        }
    }

    /// Per-workload salt so the three workloads draw different inputs from
    /// one `--seed`.
    fn salt(self) -> u64 {
        match self {
            Kind::StaticBatch => 0x5747_4943,
            Kind::DurableBatch => 0x4442_4154,
            Kind::DurableMixed => 0x4d49_5844,
        }
    }
}

/// One `POST /batch` request with its expected response body.
#[derive(Debug, Clone)]
pub struct Request {
    /// The `(s, t)` pairs, in request order.
    pub queries: Vec<(u32, u32)>,
    /// The request body (`s t k` lines).
    pub body: Vec<u8>,
    /// The exact response body a correct server returns.
    pub expected: Vec<u8>,
}

impl Request {
    /// Builds the request and its expected answers on `g`.
    pub fn new<G: GraphView>(g: &G, queries: Vec<(u32, u32)>) -> Request {
        let mut body = Vec::with_capacity(queries.len() * 16);
        for &(s, t) in &queries {
            body.extend_from_slice(format!("{s} {t} {K}\n").as_bytes());
        }
        let expected = expected_answers(g, &queries);
        Request {
            queries,
            body,
            expected,
        }
    }
}

/// The canonical answer line for `(s, t)` at the bench's hop bound, rendered
/// here independently of the server's renderer so a wire-format change is
/// caught, not mirrored.
pub fn answer_line(s: u32, t: u32, reachable: bool) -> String {
    let verdict = if reachable {
        "reachable"
    } else {
        "unreachable"
    };
    format!("{s} {t} {K} {verdict}\n")
}

/// Expected `/batch` response body for `queries` on `g` (online BFS).
pub fn expected_answers<G: GraphView>(g: &G, queries: &[(u32, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(queries.len() * 28);
    for &(s, t) in queries {
        let reachable = khop_reachable_bidirectional(g, VertexId(s), VertexId(t), K);
        out.extend_from_slice(answer_line(s, t, reachable).as_bytes());
    }
    out
}

/// The `/update` body for a group of mutations and the exact acknowledgement
/// a correct server returns when every one applies, the first at epoch
/// `first_epoch`.
pub fn update_body(ops: &[EdgeUpdate], first_epoch: u64) -> (Vec<u8>, Vec<u8>) {
    let mut body = String::new();
    let mut ack = String::new();
    for (i, op) in ops.iter().enumerate() {
        let (sign, (u, v)) = (if op.is_insert() { '+' } else { '-' }, op.endpoints());
        body.push_str(&format!("{sign} {} {}\n", u.0, v.0));
        ack.push_str(&format!(
            "{sign} {} {} applied epoch={}\n",
            u.0,
            v.0,
            first_epoch + i as u64
        ));
    }
    (body.into_bytes(), ack.into_bytes())
}

/// A copy of the served graph that tracks applied mutations, with an edge
/// list to draw live edges from uniformly.
pub struct Mirror {
    /// The graph after every mutation drawn so far.
    pub graph: VersionedAdjGraph,
    edges: Vec<(u32, u32)>,
    slot: HashMap<(u32, u32), usize>,
}

impl Mirror {
    /// A mirror of `g`.
    pub fn new(g: &DiGraph) -> Mirror {
        let edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u.0, v.0)).collect();
        let slot = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        Mirror {
            graph: VersionedAdjGraph::from_csr(g),
            edges,
            slot,
        }
    }

    /// Draws one body — remove, insert, remove, insert — where every removal
    /// names a live edge and every insert an absent pair at the moment it
    /// applies, so no mutation is a no-op. Applies it to the mirror.
    fn draw_body(&mut self, rng: &mut StdRng) -> Vec<EdgeUpdate> {
        let n = self.graph.vertex_count() as u32;
        let mut body = Vec::with_capacity(BODY_OPS);
        for i in 0..BODY_OPS {
            let op = if i % 2 == 0 {
                let (u, v) = self.edges[rng.gen_range(0..self.edges.len())];
                EdgeUpdate::Remove(VertexId(u), VertexId(v))
            } else {
                loop {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if u != v && !self.slot.contains_key(&(u, v)) {
                        break EdgeUpdate::Insert(VertexId(u), VertexId(v));
                    }
                }
            };
            self.apply(op);
            body.push(op);
        }
        body
    }

    fn apply(&mut self, op: EdgeUpdate) {
        let (u, v) = op.endpoints();
        let key = (u.0, v.0);
        assert!(self.graph.apply(op), "drawn mutation {op} must apply");
        if op.is_insert() {
            self.slot.insert(key, self.edges.len());
            self.edges.push(key);
        } else {
            let at = self.slot.remove(&key).expect("live edge has a slot");
            self.edges.swap_remove(at);
            if let Some(&moved) = self.edges.get(at) {
                self.slot.insert(moved, at);
            }
        }
    }
}

/// Everything a workload run sends and checks, generated from the seed.
pub struct Inputs {
    /// The served graph (as the server parses it back from the edge list).
    pub graph: DiGraph,
    /// Batch workloads: the request pool, cycled in order.
    pub pool: Vec<Request>,
    /// durable-mixed: the `GET /reach` stream, cycled.
    pub reads: Vec<(u32, u32)>,
    /// durable-mixed: the open-loop writer's bodies.
    pub bodies: Vec<Vec<EdgeUpdate>>,
    /// The restart tail: [`TAIL_OPS`] mutations in bodies of [`BODY_OPS`],
    /// drawn after `bodies`.
    pub tail: Vec<Vec<EdgeUpdate>>,
    /// The probe batch, expected on the initial graph, after `bodies`, and
    /// after `tail`.
    pub probe: [Request; 3],
}

impl Inputs {
    /// Generates a workload's inputs on `graph` (already read back from the
    /// edge list the server loads). `bodies` open-loop bodies are drawn for
    /// durable-mixed; the batch workloads get a pool of `pool_queries`.
    pub fn generate(
        kind: Kind,
        graph: DiGraph,
        seed: u64,
        pool_queries: usize,
        bodies: usize,
    ) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ kind.salt().rotate_left(17));
        let pool = if kind == Kind::DurableMixed {
            Vec::new()
        } else {
            batch_pool(&graph, &mut rng, pool_queries / BATCH)
        };
        let reads = if kind == Kind::DurableMixed {
            read_stream(&graph, &mut rng, READS)
        } else {
            Vec::new()
        };
        let probe_queries = fan_in_queries(&graph, &mut rng, PROBE, &mut HashSet::new());
        let mut mirror = Mirror::new(&graph);
        let bodies: Vec<Vec<EdgeUpdate>> = if kind == Kind::DurableMixed {
            (0..bodies).map(|_| mirror.draw_body(&mut rng)).collect()
        } else {
            Vec::new()
        };
        let after_bodies = mirror.graph.clone();
        let tail = (0..TAIL_OPS / BODY_OPS)
            .map(|_| mirror.draw_body(&mut rng))
            .collect();
        let probe = [
            Request::new(&graph, probe_queries.clone()),
            Request::new(&after_bodies, probe_queries.clone()),
            Request::new(&mirror.graph, probe_queries),
        ];
        Inputs {
            graph,
            pool,
            reads,
            bodies,
            tail,
            probe,
        }
    }

    /// The first `n` mutations of the workload's write stream (the writer's
    /// bodies, then the tail), all applicable in order to the initial graph —
    /// what the traced pass replays through each write-path layer.
    pub fn write_probe(&self, n: usize) -> Vec<EdgeUpdate> {
        self.bodies
            .iter()
            .chain(&self.tail)
            .flatten()
            .copied()
            .take(n)
            .collect()
    }
}

/// A source that reaches `t` in 1–3 hops: the end of a backward random walk
/// from `t`, or `None` when the walk cannot leave `t`.
fn walk_back<G: GraphView>(g: &G, t: u32, rng: &mut StdRng) -> Option<u32> {
    let mut v = t;
    for _ in 0..rng.gen_range(1..K + 1) {
        let inn = g.in_neighbors(VertexId(v));
        if inn.is_empty() {
            break;
        }
        v = inn[rng.gen_range(0..inn.len())].0;
    }
    (v != t).then_some(v)
}

/// `count` distinct queries in fan-in groups of [`SOURCES_PER_TARGET`]:
/// each group picks a uniform target, and each source is, with even odds, a
/// guaranteed positive (a backward walk of ≤ k hops) or a uniform vertex.
fn fan_in_queries(
    g: &DiGraph,
    rng: &mut StdRng,
    count: usize,
    seen: &mut HashSet<(u32, u32)>,
) -> Vec<(u32, u32)> {
    let n = g.vertex_count() as u32;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let t = rng.gen_range(0..n);
        let mut group = 0;
        while group < SOURCES_PER_TARGET && out.len() < count {
            let s = if rng.gen_bool(0.5) {
                walk_back(g, t, rng)
            } else {
                Some(rng.gen_range(0..n))
            };
            if let Some(s) = s.filter(|&s| s != t && seen.insert((s, t))) {
                out.push((s, t));
                group += 1;
            }
        }
    }
    out
}

/// The batch pool: `requests` requests of [`BATCH`] distinct queries each,
/// no query repeated anywhere in the pool. The expected answers (one BFS
/// per query) are computed on two threads.
fn batch_pool(g: &DiGraph, rng: &mut StdRng, requests: usize) -> Vec<Request> {
    let mut seen = HashSet::with_capacity(requests * BATCH);
    let queries: Vec<Vec<(u32, u32)>> = (0..requests)
        .map(|_| fan_in_queries(g, rng, BATCH, &mut seen))
        .collect();
    let half = queries.len().div_ceil(2);
    std::thread::scope(|scope| {
        let halves: Vec<_> = queries
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|q| Request::new(g, q.clone()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("expected-answer thread panicked"))
            .collect()
    })
}

/// The durable-mixed read stream: [`HOT_SHARE`] of reads are pairs inside a
/// [`HOT`]-vertex hot set (forward-walk chains, so some pairs are
/// reachable; its pairs fit in the result cache), the rest uniform fan-in
/// style queries.
fn read_stream(g: &DiGraph, rng: &mut StdRng, len: usize) -> Vec<(u32, u32)> {
    let n = g.vertex_count() as u32;
    let mut hot: Vec<u32> = Vec::with_capacity(HOT);
    while hot.len() < HOT {
        let mut v = rng.gen_range(0..n);
        for _ in 0..4 {
            if hot.len() < HOT && !hot.contains(&v) {
                hot.push(v);
            }
            let out = g.out_neighbors(VertexId(v));
            if out.is_empty() {
                break;
            }
            v = out[rng.gen_range(0..out.len())].0;
        }
    }
    let cold = fan_in_queries(g, rng, len, &mut HashSet::new());
    (0..len)
        .map(|i| {
            if rng.gen_bool(HOT_SHARE) {
                let s = hot[rng.gen_range(0..HOT)];
                let t = loop {
                    let t = hot[rng.gen_range(0..HOT)];
                    if t != s {
                        break t;
                    }
                };
                (s, t)
            } else {
                cold[i]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(kind: Kind) -> Inputs {
        let g = kind.generator(true).generate(5);
        Inputs::generate(kind, g, 5, 4 * BATCH, 40)
    }

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (small(Kind::DurableMixed), small(Kind::DurableMixed));
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.bodies, b.bodies);
        assert_eq!(a.tail, b.tail);
        let (a, b) = (small(Kind::StaticBatch), small(Kind::StaticBatch));
        assert_eq!(a.pool[3].body, b.pool[3].body);
    }

    #[test]
    fn pools_are_distinct_fan_in_and_half_positive_by_construction() {
        let inputs = small(Kind::StaticBatch);
        let all: Vec<(u32, u32)> = inputs.pool.iter().flat_map(|r| r.queries.clone()).collect();
        assert_eq!(all.len(), 4 * BATCH);
        assert_eq!(all.iter().collect::<HashSet<_>>().len(), all.len());
        for r in &inputs.pool {
            for group in r.queries.chunks(SOURCES_PER_TARGET) {
                assert!(
                    group.iter().all(|q| q.1 == group[0].1),
                    "one target per group"
                );
            }
        }
        let text = String::from_utf8(inputs.pool[0].expected.clone()).unwrap();
        assert!(text.contains(" reachable\n") && text.contains(" unreachable\n"));
    }

    #[test]
    fn every_drawn_mutation_applies() {
        let inputs = small(Kind::DurableMixed);
        assert_eq!(inputs.tail.iter().flatten().count(), TAIL_OPS);
        let mut g = VersionedAdjGraph::from_csr(&inputs.graph);
        for op in inputs.bodies.iter().chain(&inputs.tail).flatten() {
            assert!(g.apply(*op), "{op} was a no-op");
        }
        let probe = inputs.write_probe(TAIL_OPS);
        assert_eq!(probe.len(), TAIL_OPS);
        assert_eq!(probe[0], inputs.bodies[0][0]);
    }

    #[test]
    fn update_acks_count_epochs_from_the_first() {
        let ops = [
            EdgeUpdate::Remove(VertexId(1), VertexId(2)),
            EdgeUpdate::Insert(VertexId(3), VertexId(4)),
        ];
        let (body, ack) = update_body(&ops, 7);
        assert_eq!(body, b"- 1 2\n+ 3 4\n");
        assert_eq!(ack, b"- 1 2 applied epoch=7\n+ 3 4 applied epoch=8\n");
    }
}
