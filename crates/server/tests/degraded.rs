//! End-to-end degraded-mode serving: a durability-sink failure must flip
//! the whole HTTP surface into explicit read-only mode — `POST /update`
//! answers 503 + `Retry-After`, `/healthz` reports `"status":"degraded"`
//! with a cause, `/metrics` raises the `kreach_degraded` gauge, the flight
//! recorder logs `degraded` — and the background prober must restore
//! read-write serving (plus a `recovered` event) once the sink heals.
//! Reads keep working throughout.

use kreach_core::dynamic::DynamicOptions;
use kreach_engine::engine::DurabilitySink;
use kreach_engine::{
    spawn_degraded_prober, BatchEngine, DynamicKReachBackend, EngineConfig, Reachability,
};
use kreach_graph::{DiGraph, EdgeUpdate};
use kreach_obs::{DurabilityStats, FlightRecorder};
use kreach_server::client::BlockingClient;
use kreach_server::{start_with_obs, ServerConfig, ServerObs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A sink that fails on command — the storage fault, minus the disk.
struct FlakySink {
    fail: AtomicBool,
}

impl DurabilitySink for FlakySink {
    fn append(&self, _epoch: u64, _updates: &[EdgeUpdate]) -> std::io::Result<()> {
        if self.fail.load(Ordering::Relaxed) {
            Err(std::io::Error::new(
                std::io::ErrorKind::StorageFull,
                "injected: no space left on device",
            ))
        } else {
            Ok(())
        }
    }
}

fn ring_graph(n: u32) -> DiGraph {
    DiGraph::from_edges(
        n as usize,
        (0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>(),
    )
}

fn serve() -> (
    kreach_server::ServerHandle,
    Arc<BatchEngine>,
    Arc<FlakySink>,
    Arc<FlightRecorder>,
) {
    let backend = Arc::new(DynamicKReachBackend::new(
        ring_graph(16),
        3,
        DynamicOptions::default(),
    ));
    let engine = Arc::new(BatchEngine::new(
        backend as Arc<dyn Reachability>,
        EngineConfig::default(),
    ));
    let sink = Arc::new(FlakySink {
        fail: AtomicBool::new(false),
    });
    engine.set_durability(Arc::clone(&sink) as Arc<dyn DurabilitySink>);
    let events = Arc::new(FlightRecorder::new(256));
    let handle = start_with_obs(
        Arc::clone(&engine),
        ServerConfig::default(),
        ServerObs {
            events: Arc::clone(&events),
            ..ServerObs::default()
        },
    )
    .expect("start server");
    (handle, engine, sink, events)
}

fn client(handle: &kreach_server::ServerHandle) -> BlockingClient {
    let c = BlockingClient::connect(handle.addr()).expect("connect");
    c.set_timeout(Duration::from_secs(10)).expect("timeout");
    c
}

fn event_kinds(events: &FlightRecorder) -> Vec<String> {
    events.events().iter().map(|e| e.kind.to_string()).collect()
}

#[test]
fn degrade_then_recover_across_the_http_surface() {
    let (handle, engine, sink, events) = serve();
    let mut c = client(&handle);

    // Healthy: updates ack, healthz is ok, the gauge is 0.
    let r = c.post("/update", b"+ 0 5\n").expect("update");
    assert_eq!(r.status, 200, "{}", r.body_text());
    let r = c.get("/healthz").expect("healthz");
    assert_eq!(r.status, 200);
    assert!(
        r.body_text().contains("\"status\":\"ok\""),
        "{}",
        r.body_text()
    );
    let r = c.get("/metrics").expect("metrics");
    assert!(
        r.body_text().contains("kreach_degraded 0"),
        "gauge should be 0"
    );

    // Break the sink: the next effective update must be rejected with 503 +
    // Retry-After, never half-applied.
    sink.fail.store(true, Ordering::Relaxed);
    let r = c.post("/update", b"+ 0 7\n").expect("update");
    assert_eq!(r.status, 503, "{}", r.body_text());
    assert_eq!(r.retry_after, Some(1), "503 must carry Retry-After");
    assert!(engine.is_degraded());
    // The rejected edge is invisible to queries (log-before-apply).
    let r = c.get("/reach?s=0&t=7&k=1").expect("reach");
    assert_eq!(r.status, 200, "reads must keep working while degraded");
    assert!(
        r.body_text().contains("unreachable"),
        "unacked update visible: {}",
        r.body_text()
    );

    // The whole surface reports the degradation.
    let r = c.get("/healthz").expect("healthz");
    assert_eq!(r.status, 503);
    assert_eq!(r.retry_after, Some(1));
    let body = r.body_text();
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(body.contains("\"cause\":"), "{body}");
    assert!(body.contains("no space left"), "{body}");
    let r = c.get("/metrics").expect("metrics");
    assert!(
        r.body_text().contains("kreach_degraded 1"),
        "gauge should be 1"
    );
    assert!(
        event_kinds(&events).iter().any(|k| k == "degraded"),
        "missing degraded flight event: {:?}",
        event_kinds(&events)
    );

    // Heal the sink; the background prober must restore read-write serving
    // without any operator action.
    let prober = spawn_degraded_prober(
        Arc::clone(&engine),
        Duration::from_millis(10),
        Duration::from_millis(50),
    );
    sink.fail.store(false, Ordering::Relaxed);
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.is_degraded() {
        assert!(
            Instant::now() < deadline,
            "prober never recovered the engine"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    prober.stop();

    let r = c.post("/update", b"+ 0 9\n").expect("update");
    assert_eq!(
        r.status,
        200,
        "recovered engine must ack: {}",
        r.body_text()
    );
    let r = c.get("/healthz").expect("healthz");
    assert_eq!(r.status, 200);
    assert!(
        r.body_text().contains("\"status\":\"ok\""),
        "{}",
        r.body_text()
    );
    let r = c.get("/metrics").expect("metrics");
    assert!(
        r.body_text().contains("kreach_degraded 0"),
        "gauge should drop to 0"
    );
    let kinds = event_kinds(&events);
    assert!(
        kinds.iter().any(|k| k == "recovered"),
        "missing recovered flight event: {kinds:?}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn healthz_reports_wal_lag_breach_as_degraded() {
    let backend = Arc::new(DynamicKReachBackend::new(
        ring_graph(16),
        3,
        DynamicOptions::default(),
    ));
    let engine = Arc::new(BatchEngine::new(
        backend as Arc<dyn Reachability>,
        EngineConfig::default(),
    ));
    let durability = Arc::new(DurabilityStats::new());
    let handle = start_with_obs(
        Arc::clone(&engine),
        ServerConfig {
            max_wal_lag: Some(1),
            ..ServerConfig::default()
        },
        ServerObs {
            durability: Some(Arc::clone(&durability)),
            ..ServerObs::default()
        },
    )
    .expect("start server");
    let mut c = client(&handle);

    // lag 0: healthy, and the pre-existing durability fields are present
    // (schema back-compat).
    let r = c.get("/healthz").expect("healthz");
    assert_eq!(r.status, 200);
    let body = r.body_text();
    for field in [
        "\"status\":\"ok\"",
        "\"wal_lag\":0",
        "\"last_checkpoint_epoch\":0",
    ] {
        assert!(body.contains(field), "missing {field} in {body}");
    }

    // Two applied epochs with the checkpoint stuck at 0 → lag 2 > max 1.
    c.post("/update", b"+ 0 5\n").expect("update");
    c.post("/update", b"+ 0 7\n").expect("update");
    assert_eq!(engine.epoch(), 2);
    let r = c.get("/healthz").expect("healthz");
    assert_eq!(r.status, 503);
    assert_eq!(r.retry_after, Some(1));
    let body = r.body_text();
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(body.contains("wal_lag 2 exceeds --max-wal-lag 1"), "{body}");

    // A catch-up checkpoint clears the breach.
    durability.note_checkpoint(engine.epoch(), 1024, 1_000_000);
    let r = c.get("/healthz").expect("healthz");
    assert_eq!(r.status, 200, "{}", r.body_text());

    handle.shutdown();
    handle.join();
}
