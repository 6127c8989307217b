//! Result assembly: medians and tail percentiles, peak memory, the
//! per-layer metric set, and the JSON lines the benchmark prints.

use std::path::PathBuf;
use std::process::Command;

use gnmr_tensor::par;

use crate::check::Checks;
use crate::serving::ServeBreakdown;
use crate::Args;

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    /// The metrics `BENCHMARK.json` lists for this run's mode: the
    /// end-to-end set untraced, the per-layer set traced.
    pub metrics: Vec<Metric>,
    /// The workload's own figures (`fit_s`, `hr10`, `reload_ms`, stage
    /// times, ...), printed on the `detail` line.
    pub detail: Vec<Metric>,
    /// Shapes, sample counts and settings, as JSON values.
    pub provenance: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Prints the provenance line, the detail line and, last, the
    /// result line.
    pub fn print(mut self, args: &Args) {
        for m in self.metrics.iter().chain(&self.detail) {
            if !m.value.is_finite() {
                self.checks.record(false, || format!("metric {} is not a finite number", m.name));
            }
        }
        let mut provenance = vec![
            ("workload", quote(&args.workload)),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", u8::from(args.trace).to_string()),
            ("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()).to_string()),
            ("pool_threads", par::num_threads().to_string()),
            ("rustc", quote(&rustc_version())),
        ];
        provenance.append(&mut self.provenance);
        println!("{{\"provenance\": {}}}", object(&provenance));
        println!("{{\"detail\": {}}}", metrics_object(&self.detail));
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.checks.failed == 0,
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics_object(&self.metrics)
        );
    }
}

/// `rustc --version` of the toolchain in this directory (the one cargo
/// built the benchmark with).
fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", quote(k))).collect();
    format!("{{{}}}", body.join(", "))
}

fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<(&str, String)> = metrics
        .iter()
        .map(|m| (m.name, format!("{{\"value\": {}, \"unit\": {}}}", number(m.value), quote(m.unit))))
        .collect();
    object(&fields)
}

/// A JSON number with every digit of Rust's shortest round-trip form;
/// a non-finite value, already counted as a failure, prints as -1.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median: the mean of the middle two for an even count, NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n.is_multiple_of(2) {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    } else {
        s[n / 2]
    }
}

/// Nearest-rank percentile `q` in (0, 1], with the number of samples
/// that lie beyond its rank.
pub fn percentile(values: &[f64], q: f64) -> (f64, usize) {
    let s = sorted(values);
    if s.is_empty() {
        return (f64::NAN, 0);
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    (s[rank - 1], s.len() - rank)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Where the benchmark keeps its traces and scratch files, under the
/// directory it runs in.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).expect("create .perfbench/ in the working directory");
    dir
}

/// The per-layer metrics, the same set on every workload, in
/// `BENCHMARK.json` order. A layer a workload does not exercise reads 0
/// in its share and its counts.
pub struct Layers {
    pub shares: Vec<Metric>,
    pub serve: ServeBreakdown,
    pub index_build_ms: f64,
    pub forward_allocs: u64,
    pub backward_allocs: u64,
    pub batch_allocs: u64,
    pub bytes_written: u64,
    pub reloads: u64,
    pub reload_failures: u64,
    pub overhead_pct: f64,
    pub reconcile_pct: f64,
}

impl Layers {
    pub fn into_metrics(self) -> Vec<Metric> {
        let mut m = self.shares;
        m.extend([
            metric("serve.batch_ms", "ms", self.serve.batch_ms),
            metric("serve.index_build_ms", "ms", self.index_build_ms),
            metric("kernels.row_dots_ms", "ms", self.serve.row_dots_ms),
            metric("kernels.topk_ms", "ms", self.serve.topk_ms),
            metric("kernels.row_dots_gbps", "GB/s", self.serve.row_dots_gbps),
            metric("par.residual_ms", "ms", self.serve.residual_ms),
            metric("core.forward_allocs", "count", self.forward_allocs as f64),
            metric("autograd.backward_allocs", "count", self.backward_allocs as f64),
            metric("serve.batch_allocs", "count", self.batch_allocs as f64),
            metric("fio.bytes_written", "bytes", self.bytes_written as f64),
            metric("serve.reloads", "count", self.reloads as f64),
            metric("serve.reload_failures", "count", self.reload_failures as f64),
            metric("trace.overhead_pct", "%", self.overhead_pct),
            metric("trace.reconcile_gap_pct", "%", (self.reconcile_pct - 100.0).abs()),
        ]);
        m
    }
}
