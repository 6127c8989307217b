//! `gnmr-perfbench`: the repository's end-to-end and per-layer benchmark
//! of GNMR training and top-k serving.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_ml|serve_1m|serve_reload> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Standard output ends with one JSON
//! object, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics untraced, the per-layer metrics traced. The lines
//! before it carry the run's provenance and the workload's own figures.
//! `perfbench/README.md` defines every workload and metric.

mod check;
mod pair;
mod report;
mod serve_1m;
mod serve_reload;
mod serving;
mod trace;
mod train_ml;

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: gnmr-perfbench --workload <train_ml|serve_1m|serve_reload> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = value.parse::<u64>().map_err(|e| format!("--seconds {value}: {e}"))?.max(1)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let outcome = match args.workload.as_str() {
        "train_ml" => train_ml::run(&args),
        "serve_1m" => serve_1m::run(&args),
        "serve_reload" => serve_reload::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    outcome.print(&args);
}
