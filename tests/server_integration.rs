//! End-to-end tests for the network front end: an in-process server driven
//! by real TCP clients, checked against the engine's offline answers.

use kreach::core::dynamic::DynamicOptions;
use kreach::core::{BuildOptions, KReachIndex};
use kreach::datasets::{render_answer_line, QueryWorkload, WorkloadConfig};
use kreach::engine::{BatchEngine, DynamicKReachBackend, EngineConfig, KReachBackend, QueryBatch};
use kreach::graph::generators::GeneratorSpec;
use kreach::graph::traversal::khop_reachable_bfs;
use kreach::graph::{DiGraph, VertexId};
use kreach::server::client::BlockingClient;
use kreach::server::{start, ServerConfig, ServerHandle};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const K: u32 = 3;

/// The hand-built graph every dynamic test serves: 16 vertices, (0, 9)
/// unreachable until the edge (1, 9) exists.
fn test_graph() -> DiGraph {
    DiGraph::from_edges(
        16,
        [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (2, 6),
            (6, 7),
            (10, 11),
            (12, 13),
            (13, 14),
        ],
    )
}

fn dynamic_server(handlers: usize, max_inflight: usize) -> ServerHandle {
    let engine = Arc::new(BatchEngine::new(
        Arc::new(DynamicKReachBackend::new(
            test_graph(),
            K,
            DynamicOptions::default(),
        )),
        EngineConfig::default(),
    ));
    start(
        engine,
        ServerConfig {
            handlers,
            max_inflight,
            read_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

/// Waits until `predicate` holds on the server metrics (5 s deadline).
fn wait_for(server: &ServerHandle, what: &str, predicate: impl Fn(u64, u64) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let m = server.metrics();
        if predicate(m.admitted, m.active) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The acceptance-criteria test: ≥ 4 concurrent client threads issuing
/// queries and mutations against one in-process server, proving that
/// (a) network answers match the engine's offline answers for the same
/// epoch, (b) a post-mutation query reflects the new epoch, and (c)
/// exceeding the in-flight budget yields 503s while admitted connections
/// keep being answered.
#[test]
fn concurrent_clients_mutations_and_admission_control() {
    let server = dynamic_server(8, 6);
    let addr = server.addr();
    let mirror = test_graph();
    let n = mirror.vertex_count() as u32;

    // ---- (a) Four concurrent client threads, answers == offline BFS at
    // epoch 0 (no mutation is in flight yet, so every answer must match).
    let failures: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|thread_id: u32| {
                let mirror = &mirror;
                scope.spawn(move || {
                    let mut client = BlockingClient::connect(addr).expect("connect");
                    let mut failures = Vec::new();
                    for s in 0..n {
                        for t in 0..n {
                            if (s * n + t) % 4 != thread_id {
                                continue;
                            }
                            let expected = khop_reachable_bfs(mirror, VertexId(s), VertexId(t), K);
                            let response = client
                                .get(&format!("/reach?s={s}&t={t}&k={K}"))
                                .expect("round-trip");
                            let want = format!(
                                "{}\n",
                                render_answer_line(VertexId(s), VertexId(t), K, expected)
                            );
                            if response.status != 200 || response.body_text() != want {
                                failures.push(format!(
                                    "({s},{t}): got {} {:?}, want {want:?}",
                                    response.status,
                                    response.body_text()
                                ));
                            }
                        }
                    }
                    failures
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert!(failures.is_empty(), "{failures:?}");
    assert_eq!(server.engine().epoch(), 0, "phase (a) must not mutate");

    // ---- (b) One thread mutates while three keep querying; afterwards the
    // new epoch is visible and the flipped answer is served to everyone.
    let probe = "/reach?s=0&t=9&k=3";
    let mut client = BlockingClient::connect(addr).unwrap();
    assert_eq!(
        client.get(probe).unwrap().body_text(),
        "0 9 3 unreachable\n"
    );
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut mutator = BlockingClient::connect(addr).expect("connect");
            let response = mutator.post("/update", b"+ 1 9\n0 9 3\n").expect("mutate");
            assert_eq!(response.status, 200, "{}", response.body_text());
            // The same request stream sees its own write immediately.
            assert_eq!(
                response.body_text(),
                "+ 1 9 applied epoch=1\n0 9 3 reachable\n"
            );
        });
        for _ in 0..3 {
            scope.spawn(|| {
                let mut client = BlockingClient::connect(addr).expect("connect");
                for i in 0..50u32 {
                    let s = i % n;
                    let t = (i * 7 + 3) % n;
                    let response = client
                        .get(&format!("/reach?s={s}&t={t}&k={K}"))
                        .expect("round-trip");
                    assert_eq!(response.status, 200);
                }
            });
        }
    });
    assert_eq!(server.engine().epoch(), 1, "the mutation bumped the epoch");
    assert_eq!(
        client.get(probe).unwrap().body_text(),
        "0 9 3 reachable\n",
        "every connection sees the post-mutation answer"
    );
    let stats = client.get("/stats").unwrap().body_text();
    assert!(stats.contains("\"epoch\":1"), "{stats}");

    // ---- (c) Exhaust the in-flight budget (6) with the probe connection
    // plus five half-request holders: a fresh connection is shed with 503,
    // while the already-admitted probe connection keeps being answered.
    let mut holders: Vec<TcpStream> = Vec::new();
    for _ in 0..5 {
        let mut holder = TcpStream::connect(addr).unwrap();
        holder.write_all(b"GET /re").unwrap();
        holder.flush().unwrap();
        holders.push(holder);
    }
    wait_for(&server, "holders admitted", |_admitted, active| active >= 6);
    let shed_before = server.metrics().shed;
    let mut beyond = BlockingClient::connect(addr).unwrap();
    let response = beyond.get("/healthz").unwrap();
    assert_eq!(response.status, 503, "{}", response.body_text());
    assert!(response.body_text().contains("overloaded"));
    assert!(server.metrics().shed > shed_before);
    // The admitted keep-alive connection still gets real answers.
    assert_eq!(client.get(probe).unwrap().body_text(), "0 9 3 reachable\n");
    // Freeing the holders restores admission.
    drop(holders);
    wait_for(&server, "holders released", |_admitted, active| active <= 1);
    let mut fresh = BlockingClient::connect(addr).unwrap();
    assert_eq!(fresh.get("/healthz").unwrap().status, 200);

    // Drain: everything admitted finishes, nothing panicked.
    server.shutdown();
    let report = server.join();
    assert!(report.clean, "drain must join every thread cleanly");
    assert_eq!(report.metrics.server_errors, 0);
}

/// `POST /batch` answers are byte-identical to the offline `kreach
/// workload` → `kreach batch` path on the same graph, including pipelined
/// ordering with duplicates.
#[test]
fn batch_endpoint_is_byte_identical_to_the_offline_path() {
    let g = Arc::new(
        GeneratorSpec::PowerLaw {
            n: 300,
            m: 1200,
            hubs: 4,
        }
        .generate(11),
    );
    let index = KReachIndex::build(g.as_ref(), K, BuildOptions::default());
    let engine = Arc::new(BatchEngine::new(
        Arc::new(KReachBackend::new(Arc::clone(&g), index)),
        EngineConfig::default(),
    ));
    let server = start(engine, ServerConfig::default()).expect("bind");

    // The exact bytes `kreach workload` would have written.
    let workload = QueryWorkload::uniform(
        &g,
        WorkloadConfig {
            queries: 500,
            seed: 23,
        },
    );
    let mut request_body = Vec::new();
    kreach::datasets::workload_file::write_workload(workload.pairs(), Some(K), &mut request_body)
        .unwrap();

    // Offline: the engine + shared renderer, exactly like `kreach batch`.
    let batch = QueryBatch::from_pairs(workload.pairs(), K);
    let outcome = server.engine().run(&batch).unwrap();
    let offline = kreach::datasets::render_answer_lines(batch.answered(&outcome.answers));

    // Online: the same bytes over the wire.
    let mut client = BlockingClient::connect(server.addr()).unwrap();
    let response = client.post("/batch", &request_body).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        response.body_text(),
        offline,
        "network answers must be byte-identical to the offline path"
    );

    // Pipelined ordering: duplicates and mixed bounds come back in request
    // order, not sorted or deduplicated.
    let tricky = b"5 7 3\n5 7 1\n5 7 3\n0 0 2\n5 7 3\n";
    let response = client.post("/batch", tricky).unwrap();
    let lines: Vec<String> = response.body_text().lines().map(String::from).collect();
    assert_eq!(lines.len(), 5);
    assert!(lines[0].starts_with("5 7 3 "));
    assert!(lines[1].starts_with("5 7 1 "));
    assert_eq!(lines[0], lines[2]);
    assert_eq!(lines[2], lines[4]);
    assert_eq!(lines[3], "0 0 2 reachable"); // s == t is always reachable
}

/// Wire-protocol abuse through the public facade: malformed request lines,
/// bad parameters, oversized bodies, and a slow client — the server answers
/// with the right statuses and keeps serving afterwards.
#[test]
fn wire_protocol_abuse_is_survivable() {
    let engine = Arc::new(BatchEngine::new(
        Arc::new(DynamicKReachBackend::new(
            test_graph(),
            K,
            DynamicOptions::default(),
        )),
        EngineConfig::default(),
    ));
    let server = start(
        engine,
        ServerConfig {
            handlers: 2,
            max_inflight: 8,
            max_body_bytes: 256,
            read_timeout: Duration::from_millis(400),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // Malformed HTTP request lines → 400 (each costs its connection, since
    // the stream state is unknowable afterwards).
    for raw in [
        "GET HTTP/1.1\r\n\r\n",
        "GET /reach?s=0&t=1 HTTP/9.9\r\n\r\n",
        "GET relative-target HTTP/1.1\r\n\r\n",
    ] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        stream.flush().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut text = String::new();
        let _ = std::io::Read::read_to_string(&mut stream, &mut text);
        assert!(text.starts_with("HTTP/1.1 400 "), "{raw:?} → {text:?}");
    }

    let mut client = BlockingClient::connect(addr).unwrap();
    // Bad parameters and unknown routes on a healthy connection.
    assert_eq!(client.get("/reach?s=0").unwrap().status, 400);
    assert_eq!(client.get("/reach?s=0&t=banana").unwrap().status, 400);
    assert_eq!(client.get("/reach?s=0&t=4096").unwrap().status, 400);
    assert_eq!(client.get("/wat").unwrap().status, 404);
    // Oversized body → 413 before the body is read.
    let response = client.post("/batch", &vec![b'9'; 4096]).unwrap();
    assert_eq!(response.status, 413);

    // A slow client (half a request line, then silence) is timed out with
    // 408 instead of pinning its handler forever.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.write_all(b"GET /rea").unwrap();
    slow.flush().unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut text = String::new();
    let _ = std::io::Read::read_to_string(&mut slow, &mut text);
    assert!(text.starts_with("HTTP/1.1 408 "), "{text:?}");

    // Line-protocol garbage draws an error line, not a hangup.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(b"one two three four five\n").unwrap();
    stream.flush().unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    assert!(line.starts_with("error:"), "{line:?}");
    // ...and the same session still answers real operations afterwards.
    stream.write_all(b"0 2 3\nquit\n").unwrap();
    stream.flush().unwrap();
    line.clear();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    assert_eq!(line.trim_end(), "0 2 3 reachable");

    // After all that abuse the server still serves and drains cleanly.
    let mut fresh = BlockingClient::connect(addr).unwrap();
    assert!(fresh.get("/healthz").unwrap().is_ok());
    assert_eq!(server.metrics().server_errors, 0);
    server.shutdown();
    assert!(server.join().clean);
}
