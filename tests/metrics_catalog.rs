//! Workspace-wide gates on the `imm-obs` metric catalog.
//!
//! Every subsystem registers its metrics here and the full registry is
//! checked as one namespace: names must be unique, snake_case, and
//! prefixed with their subsystem; the README's "Observability" catalog
//! must match what `stats --metrics --describe` would emit. A new metric
//! that breaks any of these fails CI before it ships.

/// The documented naming convention: `^[a-z][a-z0-9_]*$`.
fn is_snake_case(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_lowercase() => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

fn full_registry() -> Vec<imm_obs::Sample> {
    imm_bench::obs::register_workspace_metrics();
    imm_obs::snapshot()
}

#[test]
fn metric_names_are_unique_workspace_wide() {
    let samples = full_registry();
    assert!(!samples.is_empty(), "no metrics registered");
    let mut names: Vec<&str> = samples.iter().map(|s| s.name).collect();
    names.sort_unstable();
    for pair in names.windows(2) {
        assert_ne!(pair[0], pair[1], "duplicate metric name `{}` in the registry", pair[0]);
    }
}

#[test]
fn metric_names_follow_the_snake_case_convention() {
    for s in full_registry() {
        assert!(
            is_snake_case(s.name),
            "metric `{}` violates the snake_case convention (see imm-obs crate docs)",
            s.name
        );
        assert!(
            !s.name.contains("_ns")
                && !s.name.ends_with("_nanos")
                && !s.name.ends_with("_bytes")
                && !s.name.ends_with("_seconds"),
            "metric `{}` encodes a unit in its name; use the Unit tag instead",
            s.name
        );
    }
}

#[test]
fn metric_names_carry_a_subsystem_prefix() {
    const PREFIXES: [&str; 6] = ["exec_", "core_", "service_", "shard_", "serve_", "store_"];
    for s in full_registry() {
        assert!(
            PREFIXES.iter().any(|p| s.name.starts_with(p)),
            "metric `{}` lacks a subsystem prefix ({PREFIXES:?})",
            s.name
        );
    }
}

#[test]
fn every_metric_has_a_description() {
    for s in full_registry() {
        assert!(!s.description.trim().is_empty(), "metric `{}` has no description", s.name);
    }
}

#[test]
fn readme_catalog_matches_the_live_registry() {
    let readme_path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
    let readme = std::fs::read_to_string(readme_path).expect("README.md readable");
    let catalog = imm_bench::obs::catalog_markdown();
    assert!(
        readme.contains(&catalog),
        "README.md's Observability catalog is stale — regenerate it with\n\
         `cargo run -p imm-cli --bin efficient-imm -- stats --metrics --describe`\n\
         and paste the table verbatim.\nExpected:\n{catalog}"
    );
}
