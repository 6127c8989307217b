//! Regenerates the paper's tables and figures, printing each artifact
//! and archiving it under `results/`.
//!
//! ```text
//! repro [all | table1 | table2 | table3 | table4 | fig2 | fig3]...
//! ```
//!
//! No argument, or `all`, runs the whole suite. Artifacts run in the
//! suite's order whatever the argument order. Tables II and III are
//! computed together (they share the Yelp models), so naming either
//! trains the models for both. `GNMR_FULL=1` selects the heavier
//! training budget. An unknown name prints this usage and exits with
//! status 2.

use std::process::ExitCode;
use std::time::Instant;

use gnmr_bench::{experiments, output, registry::Budget};

/// The artifact names `repro` accepts besides `all`.
const ARTIFACTS: [&str; 6] = ["table1", "table2", "table3", "table4", "fig2", "fig3"];

/// The seed every artifact is generated from.
const SEED: u64 = 7;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args.iter().find(|a| *a != "all" && !ARTIFACTS.contains(&a.as_str())) {
        eprintln!("repro: unknown artifact {bad:?}");
        eprintln!("usage: repro [all | {}]...", ARTIFACTS.join(" | "));
        return ExitCode::from(2);
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let wants = |name: &str| all || args.iter().any(|a| a == name);

    let budget = Budget::from_env(SEED);
    let t0 = Instant::now();
    if wants("table1") {
        output::emit("table1", &experiments::table1(SEED));
    }
    if wants("table2") || wants("table3") {
        let (t2, t3) = experiments::table2_and_table3(SEED, &budget);
        for (name, artifact) in [("table2", t2), ("table3", t3)] {
            if wants(name) {
                output::emit(name, &artifact);
            }
        }
    }
    if wants("fig2") {
        output::emit("fig2", &experiments::fig2(SEED, &budget));
    }
    if wants("table4") {
        output::emit("table4", &experiments::table4(SEED, &budget));
    }
    if wants("fig3") {
        output::emit("fig3", &experiments::fig3(SEED, &budget));
    }
    eprintln!("repro: finished in {:.1?}", t0.elapsed());
    ExitCode::SUCCESS
}
