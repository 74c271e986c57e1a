//! `e2e` — the end-to-end serving benchmark.
//!
//! Builds `kreach` from the checkout, spawns the real release server as a
//! child process for each workload, drives it from this one process over at
//! most two connections, checks every answer, and reports the end-to-end
//! metrics of that untraced pass. With `--trace 1` it then replays the same
//! traffic in process through each layer's public functions and reports the
//! per-layer metrics. See `README.md` next to this crate.
//!
//! ```text
//! e2e [--workload NAME]… [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!     [--output FILE]
//! e2e compare A.json… -- B.json…
//! ```
//!
//! The last line of standard output for each workload is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics under `--trace 0` and the per-layer metrics under `--trace 1`.

mod child;
mod compare;
mod json;
mod load;
mod metrics;
mod run;
mod stats;
mod traced;
mod workload;

use json::{number, quote};
use metrics::{describe, unit_of, E2E, PER_LAYER};
use run::{Config, Outcome};
use std::path::PathBuf;
use std::time::Duration;
use workload::Kind;

const USAGE: &str = "usage: e2e [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]\n\
    \x20          [--smoke] [--output FILE]\n\
    \x20      e2e compare A.json... -- B.json...\n\
    \n\
    workloads: static-batch, durable-batch, durable-mixed (default: all three)\n\
    --seconds S   measured window per workload, after warm-up (default 20; 2 with --smoke)\n\
    --trace 0|1   1 (default) adds the traced pass and reports per-layer metrics\n\
    --smoke       tiny graphs and short windows; same output shape, answers still checked\n\
    --output F    write every workload's metrics as one JSON document (for `compare`)";

/// Parsed command line.
struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    output: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: true,
        smoke: false,
        output: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed
                    .workloads
                    .push(Kind::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--output" => parsed.output = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = Kind::ALL.to_vec();
    }
    Ok(parsed)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        match compare::compare(&argv[1..]) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match bench(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs every selected workload; returns the process exit code.
fn bench(args: &Args) -> Result<i32, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let server = child::build_server(&root)?;
    let work = root
        .join(".bench_e2e_work")
        .join(std::process::id().to_string());
    let cfg = Config {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds.unwrap_or(if args.smoke {
            2.0
        } else {
            20.0
        })),
        warmup: Duration::from_millis(if args.smoke { 500 } else { 2_000 }),
        trace: args.trace,
        smoke: args.smoke,
        server,
        work: work.clone(),
    };
    let mut outcomes = Vec::new();
    let mut result = Ok(());
    for &kind in &args.workloads {
        match run::run_workload(kind, &cfg) {
            Ok(outcome) => {
                report(&outcome, args.trace);
                outcomes.push(outcome);
            }
            Err(e) => {
                result = Err(format!("{}: {e}", kind.name()));
                break;
            }
        }
    }
    // The work dir sits inside the checkout; leave nothing behind.
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(root.join(".bench_e2e_work"));
    result?;
    if let Some(path) = &args.output {
        std::fs::write(path, results_json(args, &cfg, &outcomes))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let wrong = outcomes.iter().any(|o| o.tally.wrong > 0);
    let refused = outcomes.iter().any(Outcome::refused);
    Ok(if wrong {
        1
    } else if refused {
        2
    } else {
        0
    })
}

/// Prints a workload's tables, then its result line (the last line).
fn report(outcome: &Outcome, trace: bool) {
    let name = outcome.kind.name();
    println!("== {name}");
    println!(
        "   {} ops attempted, {} failed (failed_frac {}), {} wrong answers",
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.failed_frac(),
        outcome.tally.wrong
    );
    for note in &outcome.tally.notes {
        println!("   failure: {note}");
    }
    println!(
        "   {:<34} {:>16} {:<10} {:<7} {:>8}",
        "end-to-end", "value", "unit", "better", "samples"
    );
    for v in &outcome.e2e {
        let shown = v.value.map_or("refused".to_string(), |x| format!("{x:.4}"));
        let (unit, better) = describe(v.name);
        println!(
            "   {:<34} {:>16} {:<10} {:<7} {:>8}",
            v.name,
            shown,
            unit,
            better.as_str(),
            v.samples
        );
    }
    if !outcome.layers.is_empty() {
        println!(
            "   {:<34} {:>16} {:<10} {:<7}",
            "per-layer", "value", "unit", "better"
        );
        for (name, value) in &outcome.layers {
            let (unit, better) = describe(name);
            println!(
                "   {:<34} {:>16.4} {:<10} {:<7}",
                name,
                value,
                unit,
                better.as_str()
            );
        }
    }
    let metrics: Vec<String> = if trace {
        PER_LAYER
            .iter()
            .filter(|m| m.listed)
            .map(|m| {
                let v = outcome
                    .layers
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map(|(_, v)| *v);
                metric_json(m.name, v.unwrap_or(f64::NAN), m.unit)
            })
            .collect()
    } else {
        E2E.iter()
            .filter(|m| m.listed)
            .map(|m| {
                let v = outcome
                    .e2e
                    .iter()
                    .find(|v| v.name == m.name)
                    .and_then(|v| v.value);
                metric_json(m.name, v.unwrap_or(f64::NAN), m.unit)
            })
            .collect()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.tally.wrong == 0,
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        metrics.join(",")
    );
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}:{{\"value\":{},\"unit\":{}}}",
        quote(name),
        number(value),
        quote(unit)
    )
}

/// Every workload's metrics — end-to-end with sample counts, per-layer —
/// as one JSON document, the input of `e2e compare`.
fn results_json(args: &Args, cfg: &Config, outcomes: &[Outcome]) -> String {
    let workloads: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let e2e: Vec<String> = o
                .e2e
                .iter()
                .map(|v| {
                    format!(
                        "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                        quote(v.name),
                        v.value.map_or("null".to_string(), number),
                        quote(unit_of(v.name)),
                        v.samples
                    )
                })
                .collect();
            let layers: Vec<String> = o
                .layers
                .iter()
                .map(|(name, v)| metric_json(name, *v, unit_of(name)))
                .collect();
            format!(
                "    {}: {{\"correct\":{},\"attempted\":{},\"failed\":{},\"failed_frac\":{},\n      \"e2e\":{{{}}},\n      \"per_layer\":{{{}}}}}",
                quote(o.kind.name()),
                o.tally.wrong == 0,
                o.tally.attempted,
                o.tally.failed,
                number(o.failed_frac()),
                e2e.join(","),
                layers.join(",")
            )
        })
        .collect();
    format!(
        "{{\"seed\":{},\"seconds\":{},\"smoke\":{},\"trace\":{},\n  \"workloads\":{{\n{}\n  }}\n}}\n",
        args.seed,
        number(cfg.seconds.as_secs_f64()),
        cfg.smoke,
        cfg.trace,
        workloads.join(",\n")
    )
}
