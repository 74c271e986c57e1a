//! Storage-fault chaos harness: random fault schedules driven through
//! store → engine, asserting the failure contract after every fault and
//! simulated crash/restart:
//!
//! * **acked-never-lost** — every update batch the engine acked is present
//!   after reopening the directory;
//! * **unacked-never-visible in memory** — a failed append leaves the
//!   serving state exactly as it was (the engine degrades instead of
//!   diverging from disk); after a restart the *one* failed trailing batch
//!   may or may not have survived (its bytes can be durable even though the
//!   fsync error fenced the ack) — both outcomes are consistent;
//! * **corruption-is-a-load-error** — a flipped byte in a checkpoint makes
//!   restore fail loudly, never restore wrong answers.
//!
//! These tests require the fault-injection seam, which is compiled into
//! debug builds and `--features failpoints` release builds (the CI `chaos`
//! job); a plain release build compiles this file to nothing.
#![cfg(any(debug_assertions, feature = "failpoints"))]

use kreach_core::dynamic::{DynamicKReach, DynamicOptions};
use kreach_engine::engine::DurabilitySink;
use kreach_engine::{BatchEngine, DynamicKReachBackend, EngineConfig, Reachability};
use kreach_graph::{DiGraph, EdgeUpdate, VertexId};
use kreach_store::{engine_checkpoint, engine_snapshot, FaultIo, RealIo, StorageIo, Store};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const N: u32 = 26;
const K: u32 = 3;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "kreach-chaos-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn seed_graph() -> DiGraph {
    let mut edges = Vec::new();
    for i in 0..24u32 {
        edges.push((i, (i + 1) % 25));
        edges.push((i, (i + 4) % 25));
    }
    DiGraph::from_edges(N as usize, edges)
}

/// The full adjacency matrix — state equality at the level replay must
/// reproduce (distances and answers are derived from it).
fn edges(state: &DynamicKReach) -> Vec<bool> {
    let mut out = Vec::with_capacity((N * N) as usize);
    for a in 0..N {
        for b in 0..N {
            out.push(state.graph().has_edge(VertexId(a), VertexId(b)));
        }
    }
    out
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn random_op(s: &mut u64) -> EdgeUpdate {
    let u = VertexId((xorshift(s) % N as u64) as u32);
    let v = VertexId((xorshift(s) % N as u64) as u32);
    if xorshift(s).is_multiple_of(2) {
        EdgeUpdate::Insert(u, v)
    } else {
        EdgeUpdate::Remove(u, v)
    }
}

/// Bootstraps `dir` with a clean (fault-free) baseline checkpoint of the
/// seed graph, so every chaos run starts from a restorable directory.
fn bootstrap(dir: &PathBuf) {
    let store = Store::open_with_io(dir, DynamicOptions::default(), Arc::new(RealIo))
        .expect("bootstrap open");
    let state = DynamicKReach::new(seed_graph(), K, DynamicOptions::default());
    store
        .checkpoint_state(&state, 0)
        .expect("bootstrap checkpoint");
}

/// Opens `dir` through `io` and wires a live engine onto it, restoring the
/// durable state — the same shape `kreach serve --data-dir` runs.
fn open_stack(
    dir: &PathBuf,
    io: Arc<dyn StorageIo>,
) -> (
    Arc<BatchEngine>,
    Arc<DynamicKReachBackend>,
    Arc<Store>,
    DynamicKReach,
) {
    let store =
        Arc::new(Store::open_with_io(dir, DynamicOptions::default(), io).expect("open store"));
    let restored = store.restore().expect("restore");
    let shadow = restored.state.clone();
    let backend = Arc::new(DynamicKReachBackend::from_state(restored.state));
    let engine = Arc::new(BatchEngine::new(
        Arc::clone(&backend) as Arc<dyn Reachability>,
        EngineConfig::default(),
    ));
    engine.restore_epoch(restored.epoch);
    engine.set_durability(Arc::clone(&store) as Arc<dyn DurabilitySink>);
    (engine, backend, store, shadow)
}

/// Crashpoints a random schedule can arm inside the checkpoint sequence.
const CRASH_SITES: &[&str] = &[
    "checkpoint.after_rotate",
    "checkpoint.before_write",
    "checkpoint.before_rename",
    "checkpoint.before_manifest",
    "checkpoint.before_prune",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 100, ..ProptestConfig::default() })]

    // The harness proper: a random probabilistic fault schedule (plus an
    // optional checkpoint crashpoint) runs under a live engine applying a
    // random mutation stream with periodic checkpoints and recovery probes.
    // After the run the directory is reopened fault-free ("restart") and the
    // restored state must be exactly shadow(acked) or — when the last event
    // on the WAL was a failed append whose bytes may be durable —
    // shadow(acked + that one trailing batch). Anything else is an acked
    // update lost, an unacked update resurrected out of order, or a corrupt
    // restore.
    #[test]
    fn random_fault_schedules_preserve_the_failure_contract(
        seed in 1u64..1_000_000,
        p_pct in 0u32..25,
        crash_choice in 0usize..6,
        n_ops in 8usize..40,
    ) {
        let dir = temp_dir("prop");
        bootstrap(&dir);

        let p = p_pct as f64 / 100.0;
        let mut plan = format!(
            "seed:{seed}; wal.append.write=enospc@p{p}; wal.append.fsync=err@p{p}; \
             checkpoint.*=err@p{p}; manifest.*=torn@p{p}; wal.rotate=err@p{p}"
        );
        if crash_choice < CRASH_SITES.len() {
            plan.push_str(&format!(
                "; crashpoint:{}@{}",
                CRASH_SITES[crash_choice],
                1 + (seed % 2)
            ));
        }
        let io = Arc::new(FaultIo::new(plan.parse().expect("plan")));
        let (engine, backend, store, mut shadow) = open_stack(&dir, io);

        // `trailing` is the one batch whose append failed with no successful
        // append after it — the only unacked batch whose bytes can still be
        // on disk at restart.
        let mut trailing: Option<EdgeUpdate> = None;
        let mut rng = seed;
        for i in 0..n_ops {
            let op = random_op(&mut rng);
            let was_degraded = engine.is_degraded();
            match engine.apply_updates(std::slice::from_ref(&op)) {
                Ok(_) => {
                    shadow.apply_all(std::slice::from_ref(&op));
                }
                Err(_) if was_degraded => {
                    // Fenced before touching the WAL; nothing changed.
                }
                Err(_) => trailing = Some(op),
            }
            if engine.is_degraded() && i % 3 == 0 {
                // A recovery probe; on success the engine is read-write
                // again and the heal truncated any failed-append bytes.
                if engine.probe_durability() == Ok(true) {
                    trailing = None;
                }
            }
            if i % 7 == 6 {
                // Periodic checkpoint; failures are the checkpointer's
                // retry problem, never a correctness problem.
                let _ = engine_checkpoint(&store, &engine, &backend);
            }
        }
        let acked_epoch = engine.epoch();
        let acked = edges(&shadow);
        let with_trailing = trailing.map(|op| {
            let mut plus = shadow.clone();
            plus.apply_all(std::slice::from_ref(&op));
            edges(&plus)
        });
        // Simulated kill -9: drop the whole stack without a checkpoint.
        drop(engine);
        drop(backend);
        drop(store);

        let store2 = Store::open_with_io(&dir, DynamicOptions::default(), Arc::new(RealIo))
            .expect("reopen after chaos");
        let report = match store2.restore() {
            Ok(report) => report,
            Err(e) => return Err(TestCaseError::fail(format!("restore failed: {e}"))),
        };
        let restored = edges(&report.state);
        prop_assert!(
            report.epoch == acked_epoch || report.epoch == acked_epoch + 1,
            "restored epoch {} vs acked epoch {acked_epoch}",
            report.epoch
        );
        let matches_acked = restored == acked && report.epoch == acked_epoch;
        let matches_trailing = with_trailing.as_ref() == Some(&restored)
            && report.epoch == acked_epoch + 1;
        prop_assert!(
            matches_acked || matches_trailing,
            "restored state is neither shadow(acked) nor shadow(acked + trailing) \
             [plan {plan:?}, epoch {} vs {acked_epoch}, trailing possible: {}]",
            report.epoch,
            with_trailing.is_some()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Regression for the apply-before-append ordering bug: when the WAL append
/// fails, the engine must answer exactly as it did before the batch — the
/// update is rejected *atomically*, not applied-then-unlogged — and a
/// restart must agree with the running engine after recovery.
#[test]
fn failed_append_leaves_answers_unchanged_and_restart_agrees() {
    let dir = temp_dir("apply-order");
    bootstrap(&dir);
    // Appends 1 and 2 succeed; append 3 fails at the fsync (after the
    // record's bytes hit the file — the nastiest variant, because a buggy
    // engine would have already applied the batch it now cannot ack).
    let io = Arc::new(FaultIo::new(
        "wal.append.fsync=err@3".parse().expect("plan"),
    ));
    let (engine, backend, store, mut shadow) = open_stack(&dir, io);

    // Three guaranteed-effective inserts: vertex 25 has no edges in the
    // seed graph.
    let ops: Vec<EdgeUpdate> = (0..3)
        .map(|i| EdgeUpdate::Insert(VertexId(i), VertexId(25)))
        .collect();
    engine.apply_updates(&ops[0..1]).expect("append 1");
    engine.apply_updates(&ops[1..2]).expect("append 2");
    shadow.apply_all(&ops[0..2]);
    let epoch_before = engine.epoch();
    let answers_before = backend.with_state(edges);

    let err = engine
        .apply_updates(&ops[2..3])
        .expect_err("append 3 must fail");
    assert!(
        err.to_string().contains("could not be persisted"),
        "unexpected error: {err}"
    );
    assert!(
        !err.to_string().contains("applied in memory"),
        "the error must not claim the batch was applied: {err}"
    );
    assert!(
        engine.is_degraded(),
        "failed append must degrade the engine"
    );
    assert_eq!(
        backend.with_state(edges),
        answers_before,
        "a failed append changed the serving answers"
    );
    assert_eq!(
        engine.epoch(),
        epoch_before,
        "a failed append bumped the epoch"
    );
    // The fence holds for later batches too.
    engine
        .apply_updates(&[EdgeUpdate::Insert(VertexId(5), VertexId(25))])
        .expect_err("degraded engine must reject updates");

    // The fault was one-shot, so the recovery probe succeeds: the heal
    // truncates the unacked record 3 bytes, and the engine serves
    // read-write again.
    assert!(engine.probe_durability().expect("probe"));
    assert!(!engine.is_degraded());
    let op4 = EdgeUpdate::Insert(VertexId(7), VertexId(25));
    engine
        .apply_updates(std::slice::from_ref(&op4))
        .expect("post-recovery append");
    shadow.apply_all(std::slice::from_ref(&op4));
    let final_epoch = engine.epoch();
    let final_answers = backend.with_state(edges);
    assert_eq!(final_answers, edges(&shadow));
    drop(engine);
    drop(backend);
    drop(store);

    let store2 =
        Store::open_with_io(&dir, DynamicOptions::default(), Arc::new(RealIo)).expect("reopen");
    let report = store2.restore().expect("restore");
    assert_eq!(report.epoch, final_epoch, "restart disagrees on epoch");
    assert_eq!(
        edges(&report.state),
        final_answers,
        "restart disagrees on answers"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// ENOSPC in the middle of writing a checkpoint must leave the *previous*
/// checkpoint + manifest restore point fully intact (the atomic-swap
/// property), and the next attempt must recover and clean up the debris.
#[test]
fn enospc_mid_checkpoint_keeps_previous_restore_point() {
    let dir = temp_dir("enospc-ckpt");
    bootstrap(&dir);
    let io = Arc::new(FaultIo::new(
        "checkpoint.write=enospc@1".parse().expect("plan"),
    ));
    let (engine, backend, store, mut shadow) = open_stack(&dir, io);

    let ops: Vec<EdgeUpdate> = (0..5)
        .map(|i| EdgeUpdate::Insert(VertexId(i), VertexId(25)))
        .collect();
    for op in &ops {
        engine
            .apply_updates(std::slice::from_ref(op))
            .expect("apply");
        shadow.apply_all(std::slice::from_ref(op));
    }

    let err = engine_checkpoint(&store, &engine, &backend).expect_err("checkpoint must fail");
    assert!(
        err.to_string().contains("no space"),
        "expected the injected ENOSPC, got: {err}"
    );
    // The manifest still points at the bootstrap checkpoint, and replaying
    // the (un-pruned) WAL on top of it reproduces the acked state exactly.
    let report = kreach_store::read_durable_state(&dir, DynamicOptions::default())
        .expect("old restore point must stay loadable");
    assert_eq!(
        report.checkpoint_epoch, 0,
        "manifest moved despite the failure"
    );
    assert_eq!(report.epoch, engine.epoch());
    assert_eq!(edges(&report.state), edges(&shadow));

    // The fault was one-shot: the retry succeeds, swaps the manifest, and
    // removes the torn `.tmp` debris.
    let epoch = engine_checkpoint(&store, &engine, &backend).expect("retry checkpoint");
    assert_eq!(epoch, engine.epoch());
    let report = kreach_store::read_durable_state(&dir, DynamicOptions::default())
        .expect("new restore point");
    assert_eq!(report.checkpoint_epoch, epoch);
    assert_eq!(
        report.replayed_batches, 0,
        "WAL should be pruned after success"
    );
    let leftover: Vec<String> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(leftover.is_empty(), "tmp debris survived: {leftover:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A simulated crash between the WAL rotation and the manifest swap: the
/// new checkpoint may exist on disk, but the manifest still names the old
/// one — recovery must replay the old restore point + WAL to the exact
/// acked epoch.
#[test]
fn crash_between_rotate_and_manifest_recovers_acked_state() {
    let dir = temp_dir("crashpoint");
    bootstrap(&dir);
    let io = Arc::new(FaultIo::new(
        "crashpoint:checkpoint.before_manifest"
            .parse()
            .expect("plan"),
    ));
    let (engine, backend, store, mut shadow) = open_stack(&dir, io);

    let ops: Vec<EdgeUpdate> = (0..4)
        .map(|i| EdgeUpdate::Insert(VertexId(i), VertexId(25)))
        .collect();
    for op in &ops {
        engine
            .apply_updates(std::slice::from_ref(op))
            .expect("apply");
        shadow.apply_all(std::slice::from_ref(op));
    }
    let acked_epoch = engine.epoch();

    engine_checkpoint(&store, &engine, &backend).expect_err("crashpoint must fire");
    // The io is latched dead; everything after the "crash" fails, exactly
    // like a dead process. Restart by reopening fault-free.
    drop(engine);
    drop(backend);
    drop(store);

    let store2 =
        Store::open_with_io(&dir, DynamicOptions::default(), Arc::new(RealIo)).expect("reopen");
    let report = store2.restore().expect("restore after crashpoint");
    assert_eq!(
        report.checkpoint_epoch, 0,
        "manifest must still name the old checkpoint"
    );
    assert_eq!(
        report.epoch, acked_epoch,
        "recovery lost or invented epochs"
    );
    assert_eq!(
        edges(&report.state),
        edges(&shadow),
        "recovery lost acked updates"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A flipped byte in the checkpoint container is a *load error*, never a
/// quietly-wrong restore.
#[test]
fn corrupted_checkpoint_is_a_load_error() {
    let dir = temp_dir("corrupt");
    bootstrap(&dir);
    {
        // Make the checkpoint carry real payload beyond the header.
        let (engine, backend, store, _shadow) = open_stack(&dir, Arc::new(RealIo));
        for i in 0..4u32 {
            engine
                .apply_updates(&[EdgeUpdate::Insert(VertexId(i), VertexId(25))])
                .expect("apply");
        }
        engine_checkpoint(&store, &engine, &backend).expect("checkpoint");
    }
    let checkpoint = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("checkpoint-") && n.ends_with(".krc3"))
        })
        .expect("checkpoint file");
    let mut bytes = std::fs::read(&checkpoint).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&checkpoint, &bytes).expect("corrupt checkpoint");

    let store =
        Store::open_with_io(&dir, DynamicOptions::default(), Arc::new(RealIo)).expect("open");
    assert!(
        store.restore().is_err(),
        "a corrupted checkpoint restored without an error"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A degraded engine recovers automatically through the background prober
/// once the storage fault clears, and acked updates from both sides of the
/// outage survive a restart.
#[test]
fn background_prober_restores_read_write_serving() {
    let dir = temp_dir("prober");
    bootstrap(&dir);
    let io = Arc::new(FaultIo::new(
        "wal.append.fsync=err@2".parse().expect("plan"),
    ));
    let (engine, backend, store, mut shadow) = open_stack(&dir, io);
    let prober = kreach_engine::spawn_degraded_prober(
        Arc::clone(&engine),
        std::time::Duration::from_millis(10),
        std::time::Duration::from_millis(50),
    );

    let op1 = EdgeUpdate::Insert(VertexId(0), VertexId(25));
    engine
        .apply_updates(std::slice::from_ref(&op1))
        .expect("append 1");
    shadow.apply_all(std::slice::from_ref(&op1));
    engine
        .apply_updates(&[EdgeUpdate::Insert(VertexId(1), VertexId(25))])
        .expect_err("append 2 must fail");
    assert!(engine.is_degraded());

    // The fault was one-shot, so the prober's next probe heals and recovers.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while engine.is_degraded() {
        assert!(
            std::time::Instant::now() < deadline,
            "prober never recovered the engine"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let op3 = EdgeUpdate::Insert(VertexId(2), VertexId(25));
    engine
        .apply_updates(std::slice::from_ref(&op3))
        .expect("post-recovery append");
    shadow.apply_all(std::slice::from_ref(&op3));
    let final_epoch = engine.epoch();
    prober.stop();
    drop(engine);
    drop(backend);
    drop(store);

    let store2 =
        Store::open_with_io(&dir, DynamicOptions::default(), Arc::new(RealIo)).expect("reopen");
    let report = store2.restore().expect("restore");
    assert_eq!(report.epoch, final_epoch);
    assert_eq!(edges(&report.state), edges(&shadow));
    std::fs::remove_dir_all(&dir).ok();
}

/// `engine_snapshot` is still importable and agrees with the engine (used
/// by the CLI's one-shot `kreach checkpoint`); exercised here so the chaos
/// suite covers both snapshot entry points.
#[test]
fn snapshot_entry_points_agree() {
    let dir = temp_dir("snap");
    bootstrap(&dir);
    let (engine, backend, _store, _shadow) = open_stack(&dir, Arc::new(RealIo));
    let (state, epoch) = engine_snapshot(&engine, &backend);
    assert_eq!(epoch, engine.epoch());
    assert_eq!(edges(&state), backend.with_state(edges));
    std::fs::remove_dir_all(&dir).ok();
}
