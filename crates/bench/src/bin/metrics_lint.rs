//! `metrics_lint` — CI validator for two `/metrics` scrapes taken under
//! load.
//!
//! Usage: `metrics_lint <scrape-before> <scrape-after>`
//!
//! Both files must be Prometheus text exposition captured from the same
//! server, the second strictly after the first. The lint asserts, in order:
//!
//! 1. **Exposition validity** — both scrapes parse line by line through
//!    [`kreach_datasets::PromScrape`] (which also enforces duplicate-series
//!    and histogram-bucket invariants).
//! 2. **Counter monotonicity** — every cumulative series
//!    (`*_total` / `*_bucket` / `*_sum` / `*_count`) present in the first
//!    scrape exists in the second with a value no smaller.
//! 3. **Case-sum invariant** — in each scrape on its own, the per-case
//!    engine counters sum exactly to `kreach_engine_queries_total` (the
//!    live Table-8 breakdown cannot leak or double-count).
//! 4. **Windowed gauges** — every rolling-window family exposes one series
//!    per window width (1s / 10s / 60s).
//! 5. **Exemplars** — the second scrape carries at least one OpenMetrics
//!    exemplar with a `trace_id` label on the request-latency histogram
//!    (CI runs the server with `--slow-query-us 1`, so one is guaranteed).
//!
//! Exits 0 when every check passes, 1 with a diagnostic on the first
//! failure.

use kreach_datasets::PromScrape;
use std::process::ExitCode;

/// Rolling-window gauge families `/metrics` must expose, each with one
/// series per window width.
const WINDOW_FAMILIES: [&str; 5] = [
    "kreach_rps_window",
    "kreach_qps_window",
    "kreach_request_p50_seconds_window",
    "kreach_request_p99_seconds_window",
    "kreach_shed_rate_window",
];

/// Window widths every family must carry as its `w` label values.
const WINDOW_WIDTHS: [&str; 3] = ["1s", "10s", "60s"];

fn is_cumulative(name: &str) -> bool {
    name.ends_with("_total")
        || name.ends_with("_bucket")
        || name.ends_with("_sum")
        || name.ends_with("_count")
}

fn run(before_path: &str, after_path: &str) -> Result<String, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read scrape {path}: {e}"))
    };
    let parse = |path: &str, text: &str| {
        PromScrape::parse(text).map_err(|e| format!("scrape {path} is not valid exposition: {e}"))
    };
    let before_text = read(before_path)?;
    let after_text = read(after_path)?;
    let before = parse(before_path, &before_text)?;
    let after = parse(after_path, &after_text)?;

    // 2. Cumulative series never move backwards and never vanish.
    let mut compared = 0usize;
    for sample in before.samples() {
        if !is_cumulative(&sample.name) {
            continue;
        }
        let now = after
            .samples()
            .iter()
            .find(|s| s.name == sample.name && s.labels == sample.labels)
            .ok_or_else(|| {
                format!(
                    "cumulative series {}{:?} vanished between scrapes",
                    sample.name, sample.labels
                )
            })?;
        if now.value < sample.value {
            return Err(format!(
                "counter {}{:?} went backwards: {} -> {}",
                sample.name, sample.labels, sample.value, now.value
            ));
        }
        compared += 1;
    }
    if compared < 20 {
        return Err(format!(
            "only {compared} cumulative series compared; the scrape looks truncated"
        ));
    }

    // 3. Per-case counters sum to the engine's query total, per scrape.
    for (path, scrape) in [(before_path, &before), (after_path, &after)] {
        let total = scrape
            .value("kreach_engine_queries_total")
            .ok_or_else(|| format!("{path}: kreach_engine_queries_total missing"))?;
        let by_case = scrape.sum_of("kreach_engine_queries_by_case_total");
        if by_case != total {
            return Err(format!(
                "{path}: per-case counters sum to {by_case}, \
                 kreach_engine_queries_total says {total}"
            ));
        }
    }

    // 4. Every window family carries every window width.
    for family in WINDOW_FAMILIES {
        if after.type_of(family) != Some("gauge") {
            return Err(format!(
                "{after_path}: window family {family} missing or not a gauge"
            ));
        }
        for width in WINDOW_WIDTHS {
            if after.labeled(family, "w", width).is_none() {
                return Err(format!(
                    "{after_path}: {family} has no w=\"{width}\" series"
                ));
            }
        }
    }

    // 5. At least one exemplar with a trace id on the latency histogram.
    let exemplars = after
        .samples_of("kreach_request_duration_seconds_bucket")
        .iter()
        .filter_map(|s| s.exemplar.as_ref())
        .filter(|e| e.label("trace_id").is_some())
        .count();
    if exemplars == 0 {
        return Err(format!(
            "{after_path}: no trace_id exemplar on kreach_request_duration_seconds"
        ));
    }

    Ok(format!(
        "metrics-lint ok: {} cumulative series monotone, case-sum invariant holds, \
         {} window families complete, {exemplars} exemplar(s) present",
        compared,
        WINDOW_FAMILIES.len(),
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [before, after] = args.as_slice() else {
        eprintln!("usage: metrics_lint <scrape-before> <scrape-after>");
        return ExitCode::FAILURE;
    };
    match run(before, after) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("metrics-lint: {message}");
            ExitCode::FAILURE
        }
    }
}
