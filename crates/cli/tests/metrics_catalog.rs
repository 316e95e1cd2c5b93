//! Workspace-wide gates on the `imm-obs` metric catalog, read off the built
//! `efficient-imm` binary.
//!
//! `stats --metrics --describe` prints every subsystem's metrics as one
//! markdown table, and the rows are checked as one namespace: names must be
//! unique, snake_case, and prefixed with their subsystem, and each carries a
//! description. The README's "Observability" catalog must be exactly that
//! table, and the daemon's `metrics` verb must answer in the versioned JSON
//! shape the benchmark parses. A new metric that breaks any of these fails
//! CI before it ships.

use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Run the binary with `args` and return its stdout; a failure panics with
/// its stderr.
fn efficient_imm(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_efficient-imm"))
        .args(args)
        .output()
        .expect("the efficient-imm binary starts");
    assert!(
        out.status.success(),
        "efficient-imm {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The catalog as the binary prints it.
fn catalog() -> String {
    efficient_imm(&["stats", "--metrics", "--describe"])
}

/// The checked cells of one catalog row (its kind and unit are not checked
/// here: the `Kind` and `Unit` enums admit only valid tags).
struct Row {
    name: String,
    description: String,
}

/// The catalog's rows, under its two header lines.
fn rows() -> Vec<Row> {
    let rows: Vec<Row> = catalog()
        .lines()
        .skip(2)
        .map(|line| {
            let cells = line.strip_prefix("| ").and_then(|l| l.strip_suffix(" |"));
            let cells: Vec<&str> = cells.expect("a table row").splitn(4, " | ").collect();
            let [name, _kind, _unit, description] = cells[..] else {
                panic!("a catalog row has four cells: {line}");
            };
            let name = name.strip_prefix('`').and_then(|n| n.strip_suffix('`'));
            Row {
                name: name.expect("a `quoted` metric name").to_string(),
                description: description.to_string(),
            }
        })
        .collect();
    assert!(!rows.is_empty(), "no metrics registered");
    rows
}

/// The documented naming convention: `^[a-z][a-z0-9_]*$`.
fn is_snake_case(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_lowercase() => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

#[test]
fn metric_names_are_unique_workspace_wide() {
    let rows = rows();
    let mut names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
    names.sort_unstable();
    for pair in names.windows(2) {
        assert_ne!(pair[0], pair[1], "duplicate metric name `{}` in the registry", pair[0]);
    }
}

#[test]
fn metric_names_follow_the_snake_case_convention() {
    for Row { name, .. } in rows() {
        assert!(
            is_snake_case(&name),
            "metric `{name}` violates the snake_case convention (see imm-obs crate docs)"
        );
        assert!(
            !name.contains("_ns")
                && !name.ends_with("_nanos")
                && !name.ends_with("_bytes")
                && !name.ends_with("_seconds"),
            "metric `{name}` encodes a unit in its name; use the Unit tag instead"
        );
    }
}

#[test]
fn metric_names_carry_a_subsystem_prefix() {
    const PREFIXES: [&str; 6] = ["exec_", "core_", "service_", "shard_", "serve_", "store_"];
    for Row { name, .. } in rows() {
        assert!(
            PREFIXES.iter().any(|p| name.starts_with(p)),
            "metric `{name}` lacks a subsystem prefix ({PREFIXES:?})"
        );
    }
}

#[test]
fn every_metric_has_a_description() {
    for Row { name, description } in rows() {
        assert!(!description.trim().is_empty(), "metric `{name}` has no description");
    }
}

#[test]
fn readme_catalog_matches_the_live_registry() {
    let readme_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(readme_path).expect("README.md readable");
    let catalog = catalog();
    assert!(
        readme.contains(&catalog),
        "README.md's Observability catalog is stale — regenerate it with\n\
         `cargo run -p imm-cli --bin efficient-imm -- stats --metrics --describe`\n\
         and paste the table verbatim.\nExpected:\n{catalog}"
    );
}

/// The daemon's `metrics` verb answers with schema version 1, and every
/// counter and gauge carries a numeric `value`: what the benchmark's daemon
/// counters read.
#[test]
fn the_daemon_answers_metrics_in_the_versioned_shape() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("imm_cli_metrics_catalog_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (graph, index, socket) = (path("g.txt"), path("g.sketch"), path("imm.sock"));
    efficient_imm(&["generate", "--output", &graph, "--nodes", "200", "--avg-degree", "4"]);
    efficient_imm(&["build-index", "--graph", &graph, "--output", &index, "--k", "4"]);
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_efficient-imm"))
        .args(["serve", "--index", &index, "--socket", &socket, "--threads", "1"])
        .stdout(Stdio::null())
        .spawn()
        .expect("the daemon starts");
    let report = Command::new(env!("CARGO_BIN_EXE_efficient-imm"))
        .args(["client", "--socket", &socket, "--wait-ms", "10000", "--metrics", "--shutdown"])
        .output()
        .expect("the client starts");
    if !report.status.success() {
        daemon.kill().ok();
    }
    let status = daemon.wait().expect("the daemon exits");
    let stderr = String::from_utf8_lossy(&report.stderr);
    assert!(report.status.success() && status.success(), "client or daemon failed: {stderr}");
    std::fs::remove_dir_all(&dir).ok();

    let report = serde_json::from_str(&String::from_utf8_lossy(&report.stdout)).unwrap();
    let registry: &Value = &report["metrics"];
    assert_eq!(registry["schema_version"].as_u64(), Some(1), "{registry:?}");
    let metrics = registry["metrics"].as_array().expect("a metrics array");
    assert_eq!(metrics.len(), rows().len(), "the daemon exports the whole catalog");
    for m in metrics {
        let value = &m["value"];
        match m["kind"].as_str() {
            Some("counter" | "gauge") => assert!(value.as_f64().is_some(), "not numeric: {m:?}"),
            Some("histogram") => assert!(value["count"].as_u64().is_some(), "no count: {m:?}"),
            _ => panic!("a metric of no known kind: {m:?}"),
        }
    }
}
