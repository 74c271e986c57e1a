//! `e2e compare A.json… -- B.json…`: judges set B against baseline set A,
//! one row per (workload, end-to-end metric), with the metric table's
//! bounds.

use crate::json::{parse, Json};
use crate::metrics::{Better, E2e, E2E};
use crate::stats::{median, quartiles, spread};
use crate::workload::Kind;

/// Loads one result file written by `--output`.
fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The values of `metric` on `workload` across a set of result files.
fn values(set: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter_map(|doc| {
            doc.get("workloads")?
                .get(workload)?
                .get("e2e")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The judgement on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's, and both sets are steady
    /// enough to tell; or every B run beats every A run.
    Pass,
    /// B's median is worse than A's by more than the bound.
    Fail,
    /// A set's spread exceeds the bound, so a change within the bound could
    /// not be told from noise. Not a pass.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "FAIL",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for `metric`: unresolved when either set's spread is
/// wider than the bound (or unknown, with one run), unless every B run
/// beats every A run.
pub fn judge(metric: &E2e, a: &[f64], b: &[f64]) -> Verdict {
    let beats = |x: f64, y: f64| worsening(metric.better, y, x) < 0.0;
    if b.iter().all(|&x| a.iter().all(|&y| beats(x, y))) {
        return Verdict::Pass;
    }
    let steady = |v: &[f64]| spread(v).is_some_and(|s| s <= metric.bound);
    if !(steady(a) && steady(b)) {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    match ma.zip(mb) {
        Some((ma, mb)) if worsening(metric.better, ma, mb) <= metric.bound => Verdict::Pass,
        _ => Verdict::Fail,
    }
}

fn summary(values: &[f64]) -> String {
    let med = median(values).unwrap_or(f64::NAN);
    let (q1, q3) = quartiles(values).unwrap_or((med, med));
    let spread = spread(values).map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s));
    format!("{med:>11.4} [{q1:.4}, {q3:.4}] ±{spread}")
}

/// Runs the comparison; `Ok(true)` when every pair passes.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: e2e compare A.json… -- B.json…")?;
    let (a, b) = (&args[..split], &args[split + 1..]);
    if a.is_empty() || b.is_empty() {
        return Err("both sets need at least one result file".to_string());
    }
    let a: Vec<Json> = a.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let b: Vec<Json> = b.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    println!(
        "{:<14} {:<16} {:<9} {:>40} {:>40} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median [q1, q3] ±spread",
        "B median [q1, q3] ±spread",
        "change",
        "bound"
    );
    let mut all_pass = true;
    let mut rows = 0;
    for kind in Kind::ALL {
        for metric in E2E {
            let (va, vb) = (
                values(&a, kind.name(), metric.name),
                values(&b, kind.name(), metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            rows += 1;
            let (ma, mb) = (
                median(&va).expect("non-empty"),
                median(&vb).expect("non-empty"),
            );
            let worse = worsening(metric.better, ma, mb);
            let verdict = judge(metric, &va, &vb);
            all_pass &= verdict == Verdict::Pass;
            println!(
                "{:<14} {:<16} {:<9} {:>40} {:>40} {:>+7.1}% {:>5.0}%  {}",
                kind.name(),
                metric.name,
                metric.unit,
                summary(&va),
                summary(&vb),
                -100.0 * worse,
                100.0 * metric.bound,
                verdict.as_str()
            );
        }
    }
    if rows == 0 {
        return Err("the two sets share no (workload, metric) pair".to_string());
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn compares_result_files() {
        let dir = std::env::temp_dir().join(format!("e2e-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, qps: f64| {
            let path = dir.join(name);
            let doc = format!(
                r#"{{"workloads":{{"static-batch":{{"e2e":{{"batch_qps":{{"value":{qps},"unit":"queries/s","samples":9}}}}}}}}}}"#
            );
            std::fs::write(&path, doc).unwrap();
            path.to_string_lossy().into_owned()
        };
        let a = [write("a1", 100.0), write("a2", 102.0)];
        let same = [write("b1", 99.0), write("b2", 101.0)];
        let slower = [write("c1", 70.0), write("c2", 71.0)];
        let args = |b: &[String]| -> Vec<String> {
            a.iter()
                .cloned()
                .chain(["--".to_string()])
                .chain(b.iter().cloned())
                .collect()
        };
        assert_eq!(compare(&args(&same)), Ok(true));
        assert_eq!(compare(&args(&slower)), Ok(false));
        // Same median as A, but too noisy to tell a change within the bound.
        let noisy = [write("d1", 80.0), write("d2", 120.0)];
        assert_eq!(compare(&args(&noisy)), Ok(false));
        assert!(compare(&a).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let qps = E2E.iter().find(|m| m.name == "batch_qps").unwrap();
        assert_eq!(qps.better, Better::Higher);
        let steady = [100.0, 101.0, 102.0];
        let noisy = [70.0, 100.0, 130.0];
        assert_eq!(judge(qps, &steady, &[99.0, 100.0, 101.0]), Verdict::Pass);
        assert_eq!(judge(qps, &steady, &[60.0, 61.0, 62.0]), Verdict::Fail);
        assert_eq!(judge(qps, &steady, &noisy), Verdict::Unresolved);
        assert_eq!(judge(qps, &noisy, &steady), Verdict::Unresolved);
        // One run per set: the spread is unknown.
        assert_eq!(judge(qps, &[100.0], &[100.0]), Verdict::Unresolved);
        // Every B run beats every A run: a pass however wide the spread.
        assert_eq!(judge(qps, &noisy, &[140.0, 150.0, 190.0]), Verdict::Pass);
        // ...but never when B is the slower side.
        assert_eq!(
            judge(qps, &[140.0, 150.0, 190.0], &noisy),
            Verdict::Unresolved
        );
    }
}
