//! One workload run: generate inputs, set the server up several times,
//! drive the untraced pass, restart the server (durable-mixed), then
//! (optionally) the traced pass.

use crate::child::{replayed_ops, ServeCmd, Server};
use crate::load::{drive_batch, drive_mixed, Tally, Window};
use crate::metrics::{E2E, PER_LAYER};
use crate::stats::{median, percentile, MIN_BEYOND};
use crate::traced::{self, PassFacts};
use crate::workload::{update_body, Inputs, Kind, BODY_OPS, POOL, TAIL_OPS, WRITE_HZ};
use kreach_datasets::PromScrape;
use kreach_graph::io::{read_edge_list_file, write_edge_list_file};
use kreach_graph::VersionedAdjGraph;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Server set-ups per run (`setup_s` is their median).
const SETUPS: usize = 3;
/// durable-mixed restarts of each kind (`restart_clean_s` and `restart_s`
/// are their medians).
const RESTARTS: usize = 5;
/// The measured durable-mixed server checkpoints this often (seconds), so a
/// run sees background checkpoints beside its traffic.
const MIXED_CHECKPOINT_SECS: &str = "10";

/// Run settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Measured window, after warm-up.
    pub seconds: Duration,
    /// Warm-up before the window.
    pub warmup: Duration,
    /// Run the traced pass.
    pub trace: bool,
    /// Tiny graphs; percentiles with too few samples are still reported.
    pub smoke: bool,
    /// The `kreach` binary.
    pub server: PathBuf,
    /// Scratch directory for edge lists, data dirs and logs.
    pub work: PathBuf,
}

/// One reported value.
#[derive(Debug, Clone)]
pub struct Value {
    /// Metric name (from the metric table).
    pub name: &'static str,
    /// The value; `None` when refused (too few samples).
    pub value: Option<f64>,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Everything a workload run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Which workload.
    pub kind: Kind,
    /// Operations attempted and failed, wrong answers among them.
    pub tally: Tally,
    /// End-to-end values.
    pub e2e: Vec<Value>,
    /// Per-layer values.
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Whether a percentile was refused for lack of samples.
    pub fn refused(&self) -> bool {
        self.e2e.iter().any(|v| v.value.is_none())
    }

    /// Failed operations as a share of those attempted.
    pub fn failed_frac(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }

    fn push(&mut self, name: &'static str, value: f64, samples: usize) {
        self.e2e.push(Value {
            name,
            value: Some(value),
            samples,
        });
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Starts servers for one workload: its `serve` arguments, a numbered
/// stderr log per child.
struct Launcher {
    kind: Kind,
    binary: PathBuf,
    edge_list: PathBuf,
    dir: PathBuf,
    spawned: usize,
}

impl Launcher {
    /// Spawns a server on the data dir `data` (durable workloads) with
    /// `checkpoint_every` (durable-mixed) and waits until it is healthy.
    fn start(&mut self, data: &Path, checkpoint_every: &str) -> Result<(Server, Duration), String> {
        self.spawned += 1;
        let graph = self.edge_list.to_string_lossy().into_owned();
        let mut args: Vec<String> = vec![
            "serve".into(),
            graph,
            "--k".into(),
            "3".into(),
            "--port".into(),
            "0".into(),
        ];
        if self.kind.durable() {
            args.extend([
                "--data-dir".to_string(),
                data.to_string_lossy().into_owned(),
            ]);
        }
        if self.kind == Kind::DurableMixed {
            args.extend([
                "--checkpoint-every".to_string(),
                checkpoint_every.to_string(),
            ]);
        }
        Server::start(&ServeCmd {
            binary: self.binary.clone(),
            args,
            log: self.dir.join(format!("serve-{}.log", self.spawned)),
        })
    }
}

/// Runs one workload end to end.
pub fn run_workload(kind: Kind, cfg: &Config) -> Result<Outcome, String> {
    let dir = cfg.work.join(kind.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let edge_list = dir.join("graph.txt");
    let inputs = generate(kind, cfg, &edge_list)?;
    let mut launcher = Launcher {
        kind,
        binary: cfg.server.clone(),
        edge_list: edge_list.clone(),
        dir: dir.clone(),
        spawned: 0,
    };
    let mut out = Outcome {
        kind,
        tally: Tally::default(),
        e2e: Vec::new(),
        layers: Vec::new(),
    };

    // Set-up, several times from scratch (a fresh data dir each); the last
    // server is the one measured.
    let mut setups = Vec::new();
    let mut current: Option<(Server, PathBuf)> = None;
    for i in 0..SETUPS {
        let data = dir.join(format!("data-{i}"));
        let (started, took) = launcher.start(&data, MIXED_CHECKPOINT_SECS)?;
        setups.push(took.as_secs_f64());
        if let Some((previous, previous_data)) = current.replace((started, data)) {
            previous.kill()?;
            remove_dir(&previous_data)?;
        }
    }
    out.push("setup_s", median(&setups).unwrap_or(0.0), setups.len());
    let (server, data) = current.expect("at least one set-up");

    let facts = untraced_pass(&server, &inputs, cfg, &mut out)?;
    if kind == Kind::DurableMixed {
        restarts(&mut launcher, server, &data, &inputs, &mut out)?;
    } else {
        server.kill()?;
    }
    if cfg.trace {
        let started = Instant::now();
        out.layers
            .extend(traced::run(kind, &inputs, &edge_list, &dir, facts)?);
        eprintln!(
            "[{}] traced pass took {:.1}s",
            kind.name(),
            started.elapsed().as_secs_f64()
        );
    }
    remove_dir(&dir)?;
    out.e2e
        .sort_by_key(|v| E2E.iter().position(|m| m.name == v.name));
    out.layers
        .sort_by_key(|(name, _)| PER_LAYER.iter().position(|m| m.name == *name));
    Ok(out)
}

/// Generates the workload's inputs. The graph goes through its edge list
/// so answers are checked on exactly the graph the server parses.
fn generate(kind: Kind, cfg: &Config, edge_list: &Path) -> Result<Inputs, String> {
    let started = Instant::now();
    let graph = kind.generator(cfg.smoke).generate(cfg.seed);
    write_edge_list_file(&graph, edge_list).map_err(|e| e.to_string())?;
    let graph = read_edge_list_file(edge_list).map_err(|e| e.to_string())?;
    let bodies = ((cfg.warmup + cfg.seconds).as_secs_f64() * WRITE_HZ).ceil() as usize;
    let pool = if cfg.smoke { POOL / 16 } else { POOL };
    let inputs = Inputs::generate(kind, graph, cfg.seed, pool, bodies);
    eprintln!(
        "[{}] inputs: {} vertices, {} edges, generated in {:.1}s",
        kind.name(),
        inputs.graph.vertex_count(),
        inputs.graph.edge_count(),
        started.elapsed().as_secs_f64()
    );
    Ok(inputs)
}

/// Counter and gauge values from one `/metrics` scrape.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    engine_queries: f64,
    batched_queries: f64,
    cache_hits: f64,
    cache_misses: f64,
    epoch: f64,
    shed: f64,
    mutations: f64,
    fsyncs: f64,
    checkpoints: f64,
}

impl Counters {
    fn scrape(server: &Server) -> Result<Counters, String> {
        let scrape: PromScrape = server.scrape()?;
        let v = |name: &str| scrape.value(name).unwrap_or(0.0);
        Ok(Counters {
            engine_queries: v("kreach_engine_queries_total"),
            batched_queries: v("kreach_engine_batched_queries_total"),
            cache_hits: v("kreach_cache_hits_total"),
            cache_misses: v("kreach_cache_misses_total"),
            epoch: v("kreach_engine_epoch"),
            shed: v("kreach_connections_shed_total"),
            mutations: v("kreach_mutations_total"),
            fsyncs: v("kreach_wal_fsync_seconds_count"),
            checkpoints: v("kreach_checkpoints_total"),
        })
    }
}

/// The untraced pass: warm-up and window, `/metrics` scraped around it,
/// then the state check. Returns what the traced pass needs from it.
fn untraced_pass(
    server: &Server,
    inputs: &Inputs,
    cfg: &Config,
    out: &mut Outcome,
) -> Result<PassFacts, String> {
    let before = Counters::scrape(server)?;
    let window = Window::starting_now(cfg.warmup, cfg.seconds);
    let mut noop_frac = 0.0;
    let (reads, facts) = if out.kind == Kind::DurableMixed {
        let base = VersionedAdjGraph::from_csr(&inputs.graph);
        let pass = drive_mixed(server, &base, &inputs.reads, &inputs.bodies, window);
        let mut update_ns = pass.update_ns;
        update_ns.sort_unstable();
        for (name, p) in [("update_p50_ms", 50.0), ("update_p99_ms", 99.0)] {
            out.e2e
                .push(percentile_value(name, &update_ns, p, 1e6, cfg.smoke));
        }
        let mut lag_ns = pass.lag_ns;
        lag_ns.sort_unstable();
        if let Some(p) = percentile(&lag_ns, 99.0) {
            out.layers
                .push(("loadgen.write_lag_p99_ms", p.value as f64 / 1e6));
        }
        noop_frac = ratio(pass.noops as f64, pass.mutations as f64);
        out.tally.absorb(pass.tally);
        let facts = PassFacts {
            e2e_mean_ns: pass.reads.mean_ns(),
            reads: pass.total_reads,
            reads_per_body: ratio(pass.total_reads as f64, inputs.bodies.len() as f64),
        };
        (pass.reads, facts)
    } else {
        let pass = drive_batch(server, &inputs.pool, window);
        out.tally.absorb(pass.tally);
        let facts = PassFacts {
            e2e_mean_ns: pass.slices.mean_ns(),
            reads: 0,
            reads_per_body: 0.0,
        };
        (pass.slices, facts)
    };
    let pass_secs = window.start.elapsed().as_secs_f64();
    let after = Counters::scrape(server)?;

    // A 256-query batch is timed in milliseconds, a single GET in
    // microseconds.
    let (qps, p50, p99, scale) = if out.kind == Kind::DurableMixed {
        ("read_qps", "read_p50_us", "read_p99_us", 1e3)
    } else {
        ("batch_qps", "batch_p50_ms", "batch_p99_ms", 1e6)
    };
    let samples = reads.samples();
    out.push(qps, reads.qps(), samples);
    for (name, p) in [(p50, 50.0), (p99, 99.0)] {
        out.e2e.push(Value {
            name,
            value: reads.percentile_ns(p, !cfg.smoke).map(|ns| ns / scale),
            samples,
        });
    }
    out.push("rss_mb", server.peak_rss_mb()?, 1);
    let delta = |f: fn(&Counters) -> f64| f(&after) - f(&before);
    out.layers.extend([
        ("server.shed_total", delta(|c| c.shed)),
        (
            "engine.cache_hit_rate",
            ratio(
                delta(|c| c.cache_hits),
                delta(|c| c.cache_hits) + delta(|c| c.cache_misses),
            ),
        ),
        ("engine.epoch_bumps_per_s", delta(|c| c.epoch) / pass_secs),
        (
            "engine.grouped_share",
            ratio(delta(|c| c.batched_queries), delta(|c| c.engine_queries)),
        ),
        (
            "store.fsyncs_per_update",
            ratio(delta(|c| c.fsyncs), delta(|c| c.mutations)),
        ),
        ("store.checkpoints", delta(|c| c.checkpoints)),
        ("loadgen.noop_frac", noop_frac),
    ]);
    check_state(server, inputs, 1, &mut out.tally, "after the pass");
    Ok(facts)
}

/// durable-mixed's restart phase: drain with `POST /shutdown` and respawn
/// [`RESTARTS`] times (nothing to replay; the last respawn stops
/// checkpointing), log the tail, then `kill -9` and respawn [`RESTARTS`]
/// times, each replaying the same tail.
fn restarts(
    launcher: &mut Launcher,
    mut server: Server,
    data: &Path,
    inputs: &Inputs,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut clean = Vec::new();
    for i in 0..RESTARTS {
        let every = if i + 1 == RESTARTS {
            "0"
        } else {
            MIXED_CHECKPOINT_SECS
        };
        let down = Instant::now();
        server.shutdown()?;
        server = launcher.start(data, every)?.0;
        clean.push(down.elapsed().as_secs_f64());
        check_state(&server, inputs, 1, &mut out.tally, "after a clean restart");
    }
    let restart_clean_s = median(&clean).unwrap_or(0.0);
    out.push("restart_clean_s", restart_clean_s, clean.len());
    send_tail(&server, inputs, &mut out.tally);
    let mut crashes = Vec::new();
    let mut replayed = 0;
    for _ in 0..RESTARTS {
        let down = Instant::now();
        server.kill()?;
        server = launcher.start(data, "0")?.0;
        crashes.push(down.elapsed().as_secs_f64());
        replayed = replayed_ops(&server.banner);
        check_state(&server, inputs, 2, &mut out.tally, "after kill -9");
    }
    server.kill()?;
    let restart_s = median(&crashes).unwrap_or(0.0);
    out.push("restart_s", restart_s, crashes.len());
    out.layers.extend([
        ("store.replayed_ops", replayed as f64),
        ("store.replay_s", restart_s - restart_clean_s),
    ]);
    Ok(())
}

/// A percentile of sorted nanosecond samples in `scale`-nanosecond units;
/// refused (`None`) outside smoke runs when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
fn percentile_value(name: &'static str, sorted: &[u64], p: f64, scale: f64, smoke: bool) -> Value {
    let pc = percentile(sorted, p);
    Value {
        name,
        value: pc
            .filter(|pc| smoke || pc.beyond >= MIN_BEYOND)
            .map(|pc| pc.value as f64 / scale),
        samples: pc.map_or(0, |pc| pc.samples),
    }
}

/// The mutations every check expects the server to have applied by
/// `stage`: 0 on the batch workloads; on durable-mixed, stage 1 is after
/// the writer's bodies and stage 2 after the tail as well.
fn applied(inputs: &Inputs, stage: usize) -> u64 {
    match stage {
        1 => (inputs.bodies.len() * BODY_OPS) as u64,
        2 => (inputs.bodies.len() * BODY_OPS + TAIL_OPS) as u64,
        _ => 0,
    }
}

/// Checks that `/healthz` reports the expected epoch and that the probe
/// batch comes back byte-identical to BFS on the expected graph.
fn check_state(server: &Server, inputs: &Inputs, stage: usize, tally: &mut Tally, when: &str) {
    // The batch workloads never write: their state stays the initial one.
    let stage = if inputs.bodies.is_empty() { 0 } else { stage };
    let epoch = applied(inputs, stage);
    tally.attempted += 1;
    match server.epoch() {
        Ok(got) if got == epoch => {}
        Ok(got) => tally.fail(
            true,
            format!("{when}: /healthz epoch {got}, expected {epoch}"),
        ),
        Err(e) => tally.fail(false, format!("{when}: {e}")),
    }
    let probe = &inputs.probe[stage];
    tally.exchange(&mut None, server, "/batch", &probe.body, &probe.expected);
}

/// Sends the restart tail closed loop on one connection, checking every ack.
fn send_tail(server: &Server, inputs: &Inputs, tally: &mut Tally) {
    let mut client = None;
    let mut epoch = applied(inputs, 1) + 1;
    for ops in &inputs.tail {
        let (body, ack) = update_body(ops, epoch);
        tally.exchange(&mut client, server, "/update", &body, &ack);
        epoch += ops.len() as u64;
    }
}

/// Removes a directory tree; one that was never created is fine.
fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}
