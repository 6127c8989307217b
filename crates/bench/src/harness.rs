//! The harness the custom bench families (`benches/{kernels,train_step,
//! serve,checkpoint}.rs`) share: flag parsing, the block timer, steady
//! allocation counts, the `results/bench_*.json` archive writer, and the
//! `--regression-gate` baseline reader and exit path. A family keeps
//! only its workload, cells, printed table and gate budget.
//!
//! `-- --quick-smoke` runs every cell for a few milliseconds and leaves
//! the archive untouched, but fails on an archived row no cell produces
//! any more; `-- --regression-gate` re-measures a family's gated
//! figures against its committed archive and exits 0 or 1.

use std::path::Path;
use std::time::Instant;

use crate::{alloc, output::results_dir};

/// Interleaved measurement rounds per cell (see [`Timer::min_of_rounds`]).
const ROUNDS: u128 = 3;

/// Per-cell wall-clock budget under `--quick-smoke`.
const SMOKE_MS: u128 = 5;

/// How a bench family was invoked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Measure every cell and rewrite the family's archive.
    Full,
    /// `--quick-smoke`: run every cell briefly and write nothing.
    QuickSmoke,
    /// `--regression-gate`: re-measure the gated figures, then exit.
    RegressionGate,
}

impl Mode {
    /// Reads the process arguments; `--regression-gate` wins over
    /// `--quick-smoke`.
    pub fn from_args() -> Self {
        let has = |flag: &str| std::env::args().any(|a| a == flag);
        if has("--regression-gate") {
            Mode::RegressionGate
        } else if has("--quick-smoke") {
            Mode::QuickSmoke
        } else {
            Mode::Full
        }
    }

    /// A timer giving each cell `full_ms` of wall-clock (5 ms under
    /// `--quick-smoke`), in blocks of at least `min_iters` calls.
    pub fn timer(self, full_ms: u128, min_iters: u128) -> Timer {
        Timer::new(if self == Mode::QuickSmoke { SMOKE_MS } else { full_ms }, min_iters)
    }
}

/// The block timer: a cell's budget split into three blocks, each at
/// least `block_ms` of wall-clock and `min_iters` calls.
#[derive(Clone, Copy, Debug)]
pub struct Timer {
    block_ms: u128,
    min_iters: u128,
}

impl Timer {
    /// Splits `cell_ms` over [`ROUNDS`] blocks of at least `min_iters`
    /// calls each.
    fn new(cell_ms: u128, min_iters: u128) -> Self {
        Timer { block_ms: (cell_ms / ROUNDS).max(1), min_iters }
    }

    /// Times one block of `f`, returning ns per call.
    pub fn block(&self, f: &mut impl FnMut()) -> u128 {
        let start = Instant::now();
        let mut iters = 0u128;
        while start.elapsed().as_millis() < self.block_ms || iters < self.min_iters {
            f();
            iters += 1;
        }
        start.elapsed().as_nanos() / iters.max(1)
    }

    /// Times `N` cells interleaved: three rounds, each calling
    /// `block(cell)` once per cell in order (which times one block of
    /// that cell), and keeps each cell's fastest block. Noise on a
    /// shared machine only ever adds time, so the fastest block is the
    /// closest estimate of a cell's cost; interleaving makes a load
    /// spike inflate every cell instead of whichever one was running,
    /// so ratios between cells stay meaningful.
    pub fn min_of_rounds<const N: usize>(&self, mut block: impl FnMut(usize) -> u128) -> [u128; N] {
        let mut best = [u128::MAX; N];
        for _ in 0..ROUNDS {
            for (cell, b) in best.iter_mut().enumerate() {
                *b = (*b).min(block(cell));
            }
        }
        best
    }
}

/// Heap allocations of one call of `f` made after a first, uncounted
/// call has minted any per-thread scratch: the steady state a warm
/// caller sees. Counts come from the counting allocator in
/// [`crate::alloc`] and are exact.
pub fn steady_allocations(mut f: impl FnMut()) -> u64 {
    f();
    let before = alloc::allocations();
    f();
    alloc::allocations() - before
}

/// Writes `rows`, one JSON object each, to `results/<file>` as a JSON
/// array with one row per line: the layout [`baseline`] reads back.
///
/// Under `--quick-smoke` the archive is left untouched but checked:
/// if it holds a row whose string-valued fields (`op`, `shape`,
/// `variant`) match no row of `rows` — a cell the family no longer
/// measures — the run names the row and exits 1, as `gnmr-analyze`
/// reports a manifest entry that matches no function. A missing
/// archive has no rows to check.
pub fn archive(mode: Mode, file: &str, rows: &[String]) {
    let path = results_dir().join(file);
    if mode == Mode::QuickSmoke {
        println!("[quick smoke — results/{file} left untouched]");
        let committed = std::fs::read_to_string(&path).unwrap_or_default();
        let stale = stale_rows(&committed, rows);
        if !stale.is_empty() {
            for row in &stale {
                eprintln!("results/{file}: no cell produces the archived row {row}");
            }
            eprintln!(
                "results/{file} holds {} stale row(s); a full run rewrites it",
                stale.len()
            );
            std::process::exit(1);
        }
        return;
    }
    let lines: Vec<String> = rows.iter().map(|r| format!("  {r}")).collect();
    match std::fs::write(&path, format!("[\n{}\n]", lines.join(",\n"))) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: failed to write {}: {e}", path.display()),
    }
}

/// The rows of an archive's text whose string-valued fields match those
/// of no row in `produced`.
fn stale_rows<'a>(archive: &'a str, produced: &[String]) -> Vec<&'a str> {
    let cells: Vec<Vec<(&str, &str)>> = produced.iter().map(|r| string_fields(r)).collect();
    archive
        .lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| l.starts_with('{') && !cells.contains(&string_fields(l)))
        .collect()
}

/// The `"key": "value"` pairs of one row, in order: the fields that
/// name its cell (the numeric fields are its measurements).
fn string_fields(row: &str) -> Vec<(&str, &str)> {
    let mut fields = Vec::new();
    let mut rest = row;
    while let Some((_, tail)) = rest.split_once('"') {
        let Some((key, tail)) = tail.split_once('"') else {
            break;
        };
        rest = tail;
        if let Some(value) = tail.strip_prefix(": \"") {
            let Some((value, tail)) = value.split_once('"') else {
                break;
            };
            fields.push((key, value));
            rest = tail;
        }
    }
    fields
}

/// Reads the committed integer `key` from the row of `results/<file>`
/// that carries every `(field, value)` pair in `row`. Exits 1 with the
/// reason when the file, the row or the key is missing: a gate without
/// its baseline fails, it never passes.
pub fn baseline(file: &str, row: &[(&str, &str)], key: &str) -> u128 {
    read_baseline(&results_dir().join(file), row, key).unwrap_or_else(|e| {
        eprintln!("regression gate: {e}");
        std::process::exit(1)
    })
}

/// [`baseline`] without the exit: the reason a figure is missing.
fn read_baseline(path: &Path, row: &[(&str, &str)], key: &str) -> Result<u128, String> {
    let content =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    find_figure(&content, row, key).map_err(|e| format!("{e} in {}", path.display()))
}

/// [`baseline`]'s row lookup over an archive's text.
fn find_figure(content: &str, row: &[(&str, &str)], key: &str) -> Result<u128, String> {
    let tags: Vec<String> = row.iter().map(|(field, value)| format!("\"{field}\": \"{value}\"")).collect();
    let line = content
        .lines()
        .find(|l| tags.iter().all(|t| l.contains(t)))
        .ok_or_else(|| format!("no baseline row {row:?}"))?;
    let pat = format!("\"{key}\": ");
    let digits: String = match line.find(&pat) {
        Some(at) => line[at + pat.len()..].chars().take_while(char::is_ascii_digit).collect(),
        None => String::new(),
    };
    digits.parse().map_err(|_| format!("baseline row {row:?} has no integer {key:?}"))
}

/// How far a gated figure may exceed its committed baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Budget {
    /// Exact integers such as allocation counts: any growth fails.
    Exact,
    /// Timings: 25% of the baseline plus `floor_ns`, which absorbs
    /// machine-class differences and jitter on shared runners.
    Quarter { floor_ns: u128 },
}

impl Budget {
    /// The largest fresh figure that passes against `base`.
    pub fn limit(self, base: u128) -> u128 {
        match self {
            Budget::Exact => base,
            Budget::Quarter { floor_ns } => base + base / 4 + floor_ns,
        }
    }
}

/// One gated figure: `fresh`, measured now, against `base` from the
/// committed archive.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub what: &'static str,
    pub base: u128,
    pub fresh: u128,
    pub budget: Budget,
}

impl Reading {
    /// Whether `fresh` is within the budget over `base`.
    pub fn passes(&self) -> bool {
        self.fresh <= self.budget.limit(self.base)
    }
}

/// The gate's exit path: prints every reading, then exits 1 if any
/// exceeded its budget and 0 otherwise.
pub fn finish_gate(gate: &str, readings: &[Reading]) -> ! {
    for r in readings {
        println!(
            "{gate}: {}: baseline {}, fresh {}, budget {}{}",
            r.what,
            r.base,
            r.fresh,
            r.budget.limit(r.base),
            if r.passes() { "" } else { " — FAILED" }
        );
    }
    if readings.iter().all(Reading::passes) {
        println!("{gate} passed");
        std::process::exit(0);
    }
    eprintln!("{gate} FAILED");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two rows in the committed one-row-per-line layout.
    const ARCHIVE: &str = "[\n  \
        {\"op\": \"dispatch\", \"shape\": \"1024x64\", \"variant\": \"serial_1t\", \"threads\": 1, \"ns_per_iter\": 24428, \"speedup_vs_serial\": 0.987},\n  \
        {\"op\": \"dispatch\", \"shape\": \"1024x64\", \"variant\": \"parallel2\", \"threads\": 2, \"ns_per_iter\": 24645, \"speedup_vs_serial\": 0.978}\n]";

    #[test]
    fn committed_layout_rows_parse() {
        let one_thread = [("op", "dispatch"), ("variant", "serial_1t")];
        assert_eq!(find_figure(ARCHIVE, &one_thread, "ns_per_iter"), Ok(24428));
        assert_eq!(find_figure(ARCHIVE, &[("variant", "parallel2")], "threads"), Ok(2));
        let steady = "[\n  {\"op\": \"train_step\", \"variant\": \"steady_arena\", \"threads\": 1, \
                      \"ns_per_iter\": 5282066, \"allocs_backward_opt\": 0}\n]";
        assert_eq!(find_figure(steady, &[("variant", "steady_arena")], "allocs_backward_opt"), Ok(0));
    }

    #[test]
    fn missing_row_or_key_is_an_error() {
        assert!(find_figure(ARCHIVE, &[("op", "dispatch"), ("variant", "parallel4")], "ns_per_iter").is_err());
        assert!(find_figure(ARCHIVE, &[("op", "matmul")], "ns_per_iter").is_err());
        assert!(find_figure(ARCHIVE, &[("variant", "serial_1t")], "allocs_per_batch").is_err());
        // A key whose value is not an integer is missing, not zero.
        assert!(find_figure(ARCHIVE, &[("variant", "serial_1t")], "shape").is_err());
        assert!(find_figure("", &[("variant", "serial_1t")], "ns_per_iter").is_err());
    }

    #[test]
    fn archived_rows_without_a_cell_are_stale() {
        let produced = |variants: &[&str]| -> Vec<String> {
            variants
                .iter()
                .map(|v| {
                    format!(
                        "{{\"op\": \"dispatch\", \"shape\": \"1024x64\", \"variant\": \"{v}\", \
                         \"threads\": 1, \"ns_per_iter\": 1}}"
                    )
                })
                .collect()
        };
        // Clean: every archived row has a cell, whatever it measured.
        assert!(stale_rows(ARCHIVE, &produced(&["serial_1t", "parallel2"])).is_empty());
        // Stale: the run no longer measures `parallel2`; a cell whose
        // name merely starts or ends the same is a different cell.
        let stale = stale_rows(ARCHIVE, &produced(&["serial_1t", "parallel", "parallel2_"]));
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert!(stale[0].contains("\"variant\": \"parallel2\""), "{stale:?}");
        // An archive with no rows (or no archive) has nothing stale.
        assert!(stale_rows("", &produced(&[])).is_empty());
        assert!(stale_rows("[\n]", &produced(&["serial_1t"])).is_empty());
    }

    #[test]
    fn string_fields_name_the_cell() {
        let row = "{\"op\": \"matmul\", \"shape\": \"512x128x128\", \"variant\": \"serial\", \"threads\": 1, \"ns_per_iter\": 9}";
        assert_eq!(
            string_fields(row),
            [
                ("op", "matmul"),
                ("shape", "512x128x128"),
                ("variant", "serial")
            ]
        );
        let serve = "{\"op\": \"serve_batch\", \"catalog\": 100000, \"threads\": 2, \"users_per_sec\": 1248}";
        assert_eq!(string_fields(serve), [("op", "serve_batch")]);
    }

    #[test]
    fn missing_file_is_an_error() {
        let path = std::env::temp_dir().join(format!("gnmr_bench_no_such_archive_{}.json", std::process::id()));
        let err = read_baseline(&path, &[("op", "dispatch")], "ns_per_iter").unwrap_err();
        assert!(err.contains("cannot read baseline"), "{err}");
    }

    #[test]
    fn exact_budget_fails_growth_and_passes_equality() {
        let reading = |base, fresh| Reading { what: "allocs", base, fresh, budget: Budget::Exact };
        assert!(reading(0, 0).passes());
        assert!(!reading(0, 1).passes());
        assert!(reading(1185, 1185).passes());
        assert!(!reading(1185, 1186).passes());
        assert!(reading(3, 2).passes());
    }

    #[test]
    fn dispatch_budget_is_a_quarter_plus_ten_microseconds() {
        // base + base / 4 + 10_000 ns, in integer nanoseconds.
        let budget = Budget::Quarter { floor_ns: 10_000 };
        for (base, limit) in [(0u128, 10_000u128), (3, 10_003), (30, 10_037), (999, 11_248), (46_000, 67_500)] {
            assert_eq!(budget.limit(base), limit, "base {base}");
        }
        // The committed dispatch rows (parallel2 24,645 ns, serial_1t
        // 24,428 ns).
        let reading = |fresh| Reading { what: "dispatch", base: 24_645 - 24_428, fresh, budget };
        assert!(reading(10_271).passes());
        assert!(!reading(10_272).passes());
    }
}
