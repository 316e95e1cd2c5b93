//! `spine` — the one benchmark of the efficient-imm serving stack.
//!
//! ```text
//! spine --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! spine --smoke                       every workload, both passes, shrunk
//! spine repeat N [--workload <name>].. [--seed N] [--seconds S] [--out FILE]
//! spine compare A.json B.json
//! ```
//!
//! Run from the checkout root (it reads `BENCHMARK.json` there and keeps
//! every file it writes under cargo's target directory). The last line of
//! standard output of a single run is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`.

mod catalog;
mod child;
mod compare;
mod gen;
mod layers;
mod loadgen;
mod pipeline;
mod plan;
mod stats;
mod sut;
mod trace;

use catalog::Catalog;
use serde_json::{json, Value};
use std::process::ExitCode;

/// A run is marked noisy when the box was already busy when it started.
pub const NOISY_LOAD_AVERAGE_PER_CPU: f64 = 1.5;

const DEFAULT_SEED: u64 = 11;

struct Options {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => o.workloads.push(value("--workload")?),
            "--seed" => o.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

/// One run of one workload: the result-file entry.
fn run_once(
    catalog: &Catalog,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Value, String> {
    if !catalog.workloads.iter().any(|w| w == workload) {
        return Err(format!("`{workload}` is not a workload of BENCHMARK.json"));
    }
    let plan = plan::plan(workload, smoke).ok_or(format!("no plan for workload `{workload}`"))?;
    let pass = if trace {
        layers::run(&plan, seed, seconds)?
    } else {
        pipeline::run(&plan, seed, seconds)?
    };
    let paired = catalog.pair(trace, &pass.metrics)?;
    let mut metrics = Vec::with_capacity(paired.len());
    for (def, value) in &paired {
        if !value.is_finite() {
            return Err(format!("{workload}: metric `{}` is not a finite number", def.name));
        }
        eprintln!("{workload:<12} {:<36} {:>16.4} {}", def.name, value, def.unit);
        metrics.push((def.name.clone(), json!({ "value": *value, "unit": def.unit.clone() })));
    }
    for reason in &pass.tally.reasons {
        eprintln!("{workload}: FAILED: {reason}");
    }
    Ok(json!({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace as u64,
        "smoke": smoke,
        "correct": pass.tally.failed == 0,
        "attempted": pass.tally.attempted,
        "failed": pass.tally.failed,
        "noisy": pass.record["noisy"].as_bool().unwrap_or(false),
        "metrics": Value::Object(metrics),
        "record": pass.record,
    }))
}

/// The object the driver reads: exactly four keys.
fn contract_line(run: &Value) -> String {
    let line = json!({
        "correct": run["correct"].clone(),
        "attempted": run["attempted"].clone(),
        "failed": run["failed"].clone(),
        "metrics": run["metrics"].clone(),
    });
    serde_json::to_string(&line).expect("a value serializes")
}

fn write_results(path: &std::path::Path, runs: Vec<Value>) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    }
    let file = json!({ "machine": child::machine_json(), "runs": runs });
    let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("cannot write {path:?}: {e}"))
}

fn results_dir() -> std::path::PathBuf {
    child::target_dir().join("spine")
}

fn single(o: &Options, catalog: &Catalog) -> Result<ExitCode, String> {
    let [workload] = o.workloads.as_slice() else {
        return Err("give exactly one --workload (or `repeat`, `compare`, `--smoke`)".into());
    };
    let seconds = o.seconds.unwrap_or(catalog.run_seconds);
    let run = run_once(catalog, workload, o.seed, seconds, o.trace, o.smoke)?;
    let line = contract_line(&run);
    let name = format!("result-{workload}-trace{}.json", o.trace as u8);
    write_results(&results_dir().join(name), vec![run])?;
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn smoke(o: &Options, catalog: &Catalog) -> Result<ExitCode, String> {
    let seconds = o.seconds.unwrap_or(0.5);
    let mut runs = Vec::new();
    let mut correct = true;
    for workload in &catalog.workloads {
        for trace in [false, true] {
            let run = run_once(catalog, workload, o.seed, seconds, trace, true)?;
            correct &= run["correct"].as_bool().unwrap_or(false);
            println!("{}", contract_line(&run));
            runs.push(run);
        }
    }
    write_results(&results_dir().join("result-smoke.json"), runs)?;
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn repeat(o: &Options, catalog: &Catalog) -> Result<ExitCode, String> {
    let n: usize = o
        .positional
        .get(1)
        .ok_or("repeat needs a count")?
        .parse()
        .map_err(|e| format!("repeat count: {e}"))?;
    let workloads = if o.workloads.is_empty() { &catalog.workloads } else { &o.workloads };
    let seconds = o.seconds.unwrap_or(catalog.run_seconds);
    let mut runs = Vec::new();
    for round in 0..n {
        for workload in workloads {
            eprintln!("-- repeat {}/{n}: {workload}", round + 1);
            runs.push(run_once(catalog, workload, o.seed, seconds, o.trace, o.smoke)?);
        }
    }
    // Medians and quartiles over the repeats, per (workload, metric).
    let loaded = compare::load(&json!({ "runs": runs.clone() }))?;
    println!(
        "{:<12} {:<34} {:>12} {:>12} {:>12} {:>8}",
        "workload", "metric", "q1", "median", "q3", "spread"
    );
    for ((workload, metric), values) in &loaded.series {
        let (q1, q2, q3) = stats::quartiles(values);
        println!(
            "{workload:<12} {metric:<34} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.1}%",
            stats::spread(values) * 100.0
        );
    }
    let out = o.out.clone().map(std::path::PathBuf::from).unwrap_or_else(|| {
        results_dir().join(format!("repeat-seed{}-trace{}.json", o.seed, o.trace as u8))
    });
    write_results(&out, runs)?;
    println!("wrote {}", out.display());
    Ok(if loaded.failed_ops == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let o = parse(args)?;
    match o.positional.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = o.positional.as_slice() else {
                return Err("usage: spine compare A.json B.json".into());
            };
            Ok(ExitCode::from(compare::run(a, b)? as u8))
        }
        Some("repeat") => repeat(&o, &Catalog::load()?),
        Some(other) => Err(format!("unknown command `{other}`")),
        None if o.smoke && o.workloads.is_empty() => smoke(&o, &Catalog::load()?),
        None => single(&o, &Catalog::load()?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("spine: {e}");
            ExitCode::from(2)
        }
    }
}
