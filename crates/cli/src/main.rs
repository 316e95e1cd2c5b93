//! `efficient-imm` — the command-line tool of the EfficientIMM serving
//! system: solve influence maximization once, freeze the sample into a
//! sketch index, and serve queries from it.
//!
//! Subcommands:
//!
//! * `generate` — write a synthetic graph as a SNAP-format edge-list file.
//! * `run` — run IMM on a graph file and print a JSON run log (seeds,
//!   runtime breakdown, θ).
//! * `stats` — print graph statistics and RRR-set coverage for a graph file
//!   or a saved index; `--metrics` appends the metric registry, and
//!   `--metrics --describe` prints its catalog.
//! * `build-index` — run IMM and save its RRR sets as a sketch-index
//!   snapshot.
//! * `update-index` — refresh a snapshot against a batch of edge mutations.
//! * `query` — answer Top-K, Spread and Marginal queries from a snapshot.
//! * `serve` — the daemon: serve a snapshot over a unix socket or TCP.
//! * `client` — query or control a running daemon.
//!
//! Run `efficient-imm help` for the full flag list.

mod args;
mod commands;
mod obs;

use std::process::ExitCode;

fn main() -> ExitCode {
    // The deterministic fault-injection harness: IMM_FAULT_PLAN (a
    // `key=value,..` spec, e.g. `seed=3,io_error=0.01`) arms every
    // fault hook in the process — the chaos smoke and the kill-mid-save
    // e2e drive the real binary through it. Unset, the hooks stay
    // zero-cost no-ops.
    match imm_fault::install_from_env("IMM_FAULT_PLAN") {
        Ok(None) => {}
        Ok(Some(plan)) => eprintln!("fault plan armed: {:?}", plan.config()),
        Err(e) => {
            eprintln!("error: invalid IMM_FAULT_PLAN: {e}");
            return ExitCode::FAILURE;
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(command) => {
            // Size the process-global worker pool exactly once, before any
            // parallel phase can lazily initialize it: the command's
            // --threads wins; otherwise first use falls back to IMM_THREADS
            // or the machine parallelism.
            if let Some(threads) = args::pool_threads(&command) {
                let _ = imm_exec::configure_global(threads);
            }
            match commands::execute(command) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::FAILURE
        }
    }
}
