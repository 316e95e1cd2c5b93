//! `spine compare A.json B.json`: per (metric, workload), the medians and
//! quartiles of two result files, the relative change against the bound
//! `BENCHMARK.json` fixes, and a verdict. A change beyond the bound is a
//! regression (non-zero exit); a pairing whose run-to-run spread is wider
//! than its bound is reported as unresolved, not as unchanged.

use crate::catalog::{Catalog, MetricDef};
use crate::stats::{quartiles, spread};
use serde_json::Value;
use std::collections::BTreeMap;

/// Values of one (workload, metric) across the runs of a file.
type Series = BTreeMap<(String, String), Vec<f64>>;

pub struct Loaded {
    pub series: Series,
    pub noisy_runs: usize,
    pub failed_ops: u64,
    pub runs: usize,
}

pub fn load(json: &Value) -> Result<Loaded, String> {
    let runs = json["runs"].as_array().ok_or("no `runs` array")?;
    let mut series = Series::new();
    let (mut noisy_runs, mut failed_ops) = (0, 0);
    for run in runs {
        let workload = run["workload"].as_str().ok_or("run without a workload")?;
        noisy_runs += run["noisy"].as_bool().unwrap_or(false) as usize;
        failed_ops += run["failed"].as_u64().unwrap_or(0);
        let Value::Object(metrics) = &run["metrics"] else {
            return Err("run without metrics".into());
        };
        for (name, metric) in metrics {
            if let Some(value) = metric["value"].as_f64() {
                series.entry((workload.to_string(), name.clone())).or_default().push(value);
            }
        }
    }
    Ok(Loaded { series, noisy_runs, failed_ops, runs: runs.len() })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Better,
    Regression,
    Unresolved,
    /// Per-layer metrics have no bound: reported, never judged.
    Reported,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    /// Share of A's median by which B is worse (negative: better).
    pub worse_by: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's own
/// direction.
pub fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if def.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let worse = worse_by(def, qa.1, qb.1);
    let wide = spread(a).max(spread(b));
    let verdict = match def.bound {
        None => Verdict::Reported,
        Some(bound) if wide > bound => Verdict::Unresolved,
        Some(bound) if worse > bound => Verdict::Regression,
        Some(bound) if worse < -bound => Verdict::Better,
        Some(_) => Verdict::Ok,
    };
    (worse, wide, verdict)
}

pub fn rows(catalog: &Catalog, a: &Loaded, b: &Loaded) -> Vec<Row> {
    let mut out = Vec::new();
    for ((workload, metric), va) in &a.series {
        let (Some(vb), Some(def)) =
            (b.series.get(&(workload.clone(), metric.clone())), catalog.find(metric))
        else {
            continue;
        };
        let (worse_by, spread, verdict) = judge(def, va, vb);
        out.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            a: quartiles(va),
            b: quartiles(vb),
            worse_by,
            spread,
            verdict,
        });
    }
    out
}

/// Print the comparison; returns the process exit code.
pub fn run(path_a: &str, path_b: &str) -> Result<i32, String> {
    let catalog = Catalog::load()?;
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {p}: {e}"))
            .and_then(|t| serde_json::from_str(&t).map_err(|e| format!("{p}: {e}")))
            .and_then(|json| load(&json).map_err(|e| format!("{p}: {e}")))
    };
    let (a, b) = (read(path_a)?, read(path_b)?);
    println!(
        "A = {path_a} ({} runs, {} noisy, {} failed operations)\nB = {path_b} ({} runs, {} noisy, \
         {} failed operations)",
        a.runs, a.noisy_runs, a.failed_ops, b.runs, b.noisy_runs, b.failed_ops
    );
    if a.noisy_runs + b.noisy_runs > 0 {
        println!("note: noisy runs present (load average or generator lag over threshold)");
    }
    println!(
        "{:<12} {:<34} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    let rows = rows(&catalog, &a, &b);
    let mut regressions = 0;
    let mut unresolved = 0;
    for row in &rows {
        let bound = catalog.find(&row.metric).and_then(|d| d.bound);
        let verdict = match row.verdict {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Reported => "-",
        };
        regressions += (row.verdict == Verdict::Regression) as i32;
        unresolved += (row.verdict == Verdict::Unresolved) as i32;
        println!(
            "{:<12} {:<34} {:>12.4} {:>12.4} {:>+8.1}% {:>7.1}% {:>7}  {verdict}",
            row.workload,
            row.metric,
            row.a.1,
            row.b.1,
            row.worse_by * 100.0,
            row.spread * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
        );
    }
    if b.failed_ops > a.failed_ops {
        println!("REGRESSION: B failed {} operations, A {}", b.failed_ops, a.failed_ops);
        regressions += 1;
    }
    println!("{} rows, {regressions} regressions, {unresolved} unresolved", rows.len());
    Ok(if regressions > 0 { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher: bool, bound: Option<f64>) -> MetricDef {
        MetricDef { name: "m".into(), unit: "us".into(), higher_is_better: higher, bound }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let lower = def(false, Some(0.10));
        let a = [100.0, 101.0, 99.0];
        assert_eq!(judge(&lower, &a, &[105.0, 104.0, 106.0]).2, Verdict::Ok);
        assert_eq!(judge(&lower, &a, &[115.0, 114.0, 116.0]).2, Verdict::Regression);
        assert_eq!(judge(&lower, &a, &[80.0, 81.0, 79.0]).2, Verdict::Better);
        let higher = def(true, Some(0.10));
        assert_eq!(judge(&higher, &a, &[80.0, 81.0, 79.0]).2, Verdict::Regression);
        assert!((worse_by(&higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worse_by(&lower, 100.0, 80.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let lower = def(false, Some(0.10));
        let noisy = [80.0, 100.0, 125.0];
        assert_eq!(judge(&lower, &noisy, &[100.0, 101.0, 99.0]).2, Verdict::Unresolved);
        assert_eq!(judge(&def(false, None), &noisy, &noisy).2, Verdict::Reported);
    }

    #[test]
    fn result_files_load_into_series() {
        let text = r#"{"runs": [
            {"workload": "w", "noisy": true, "failed": 2,
             "metrics": {"m": {"value": 1.5, "unit": "us"}}},
            {"workload": "w", "noisy": false, "failed": 0,
             "metrics": {"m": {"value": 2.5, "unit": "us"}}}]}"#;
        let loaded = load(&serde_json::from_str(text).unwrap()).unwrap();
        assert_eq!(loaded.series[&("w".to_string(), "m".to_string())], vec![1.5, 2.5]);
        assert_eq!((loaded.runs, loaded.noisy_runs, loaded.failed_ops), (2, 1, 2));
    }
}
