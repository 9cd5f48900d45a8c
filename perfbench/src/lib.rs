//! The Pelican fleet benchmark.
//!
//! One invocation runs one workload for a fixed host-time budget, checks
//! that every output is correct, and prints the end-to-end metrics (or,
//! traced, the per-layer metrics) as the last line of standard output:
//!
//! ```text
//! perfbench --workload live-drift --seed 1 --seconds 20 --trace 0
//! ```
//!
//! | workload | op | stresses |
//! |---|---|---|
//! | `live-drift` | one drift-triggered retrain published | audit (about 99% of retrain cost) |
//! | `enroll-fresh` | one user trained, audited, published | `train.fit` (about 3/4 of the work) |
//! | `serve-cloud` | one query served | sim engine and serving flow |
//! | `publish-durable` | one publication made durable | store append and sync |
//!
//! Per-layer numbers come from a separate traced pass that times calls
//! into each layer's public functions from the outside ([`probes`]); no
//! crate of the repository is edited to produce them.

mod probes;
mod workloads;

use std::fmt::Write as _;

pub use workloads::{Check, Pass, Report, Workload};

/// Problem sizes: `Bench` is what the benchmark measures (the command line
/// always selects it), `Tiny` is the smoke-test size that runs every code
/// path in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes (Small campus).
    Bench,
    /// Seconds-long sizes for tests (Tiny campus).
    Tiny,
}

/// One invocation's arguments.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Host seconds the untraced passes run for (at least two passes run
    /// whatever the budget, so repeated runs can be compared).
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Problem sizes.
    pub size: Size,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
///
/// # Errors
///
/// Returns a message naming the offending argument.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Bench,
    })
}

/// End-to-end metrics, reported by every workload from untraced passes.
pub const END_TO_END: [(&str, &str); 4] =
    [("ops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio")];

/// Per-layer metrics, reported by every traced run. A layer the workload
/// does not enter reads 0. The last six are the exact virtual-clock and
/// leakage figures of the workloads that have them: they guard that a
/// host-time change did not alter the simulated system or the gate.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("sim.engine.self_ms", "ms"),
    ("sim.engine.events", "count"),
    ("sim.engine.jobs", "count"),
    ("serve.flow.ms", "ms"),
    ("serve.flow.calls", "count"),
    ("serve.flow.gflop", "GFLOP"),
    ("serve.flow.batches", "count"),
    ("serve.flow.mean_batch", "count"),
    ("serve.flow.served", "count"),
    ("registry.decode.count", "count"),
    ("registry.decode.ms", "ms"),
    ("registry.hit_rate", "ratio"),
    ("registry.fallbacks", "count"),
    ("registry.publish.ms", "ms"),
    ("nn.encode.ms", "ms"),
    ("train.fit.ms", "ms"),
    ("train.fit.calls", "count"),
    ("train.fit.gflop", "GFLOP"),
    ("train.fit.fused_share", "ratio"),
    ("train.fit.vms", "vms"),
    ("audit.attack.ms", "ms"),
    ("audit.attack.calls", "count"),
    ("audit.attack.gflop", "GFLOP"),
    ("audit.attack.forward_passes", "count"),
    ("audit.attack.queries", "count"),
    ("audit.attack.cache_hits", "count"),
    ("audit.attack.rungs", "count"),
    ("audit.attack.vms", "vms"),
    ("audit.cached.ms", "ms"),
    ("audit.cached.queries", "count"),
    ("audit.cached.forward_passes", "count"),
    ("audit.cached.hits", "count"),
    ("audit.cached.misses", "count"),
    ("store.append.ms", "ms"),
    ("store.append.calls", "count"),
    ("store.append.bytes", "B"),
    ("store.sync.ms", "ms"),
    ("store.sync.calls", "count"),
    ("store.sync.bytes", "B"),
    ("store.read.ms", "ms"),
    ("store.read.calls", "count"),
    ("store.read.bytes", "B"),
    ("store.open.ms", "ms"),
    ("store.compact.ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("retrain_p50_vms", "vms"),
    ("retrain_p90_vms", "vms"),
    ("staleness_p90_vms", "vms"),
    ("rtt_p50_vms", "vms"),
    ("rtt_p99_vms", "vms"),
    ("leakage_top3", "ratio"),
];

/// Unit of a metric named in [`END_TO_END`] or [`PER_LAYER`].
///
/// # Panics
///
/// Panics on a name in neither list — a typo in a workload.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// Median of a non-empty sample.
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The end-to-end metrics of a finished run.
///
/// `ops_per_s` is the rate of the fastest untraced pass. Every pass does
/// the same deterministic work, and other tenants of a shared host only
/// ever slow a pass down (their load moves single passes by ±25% within
/// seconds), so the fastest pass is the steadiest estimate of what the
/// code itself sustains; the median of the same passes spread about twice
/// as wide across runs.
pub fn end_to_end(report: &Report) -> Vec<(&'static str, f64)> {
    let fastest = report.passes.iter().map(|p| p.ops as f64 / p.wall_s).fold(0.0f64, f64::max);
    let ok = if report.attempted == 0 {
        0.0
    } else {
        1.0 - report.failed_ops() as f64 / report.attempted as f64
    };
    vec![
        ("ops_per_s", fastest),
        ("setup_s", median(&report.setup_s)),
        ("peak_rss_mb", median(&report.passes.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>())),
        ("ok_frac", ok),
    ]
}

/// Every per-layer metric, zero where the run did not measure it.
pub fn per_layer(report: &Report) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = report
                .layers
                .iter()
                .chain(&report.guards)
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, value)| value);
            (name, value)
        })
        .collect()
}

/// The human-readable report printed before the result line.
pub fn render(opts: &Options, report: &Report) -> String {
    let mut out = String::new();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = writeln!(out, "workload    {}", opts.workload.name());
    let _ = writeln!(out, "why         {}", opts.workload.why());
    let _ = writeln!(out, "seed        {}", opts.seed);
    let _ = writeln!(out, "host_cores  {cores}");
    let _ = writeln!(out, "sizes       {}", report.sizes);
    let setup_total: f64 = report.setup_s.iter().sum();
    let _ = writeln!(
        out,
        "setup       {} runs in {setup_total:.3}s, median {:.6}s",
        report.setup_s.len(),
        median(&report.setup_s)
    );
    let rates: Vec<f64> = report.passes.iter().map(|p| p.ops as f64 / p.wall_s).collect();
    let ops: u64 = report.passes.iter().map(|p| p.ops).sum();
    let wall: f64 = report.passes.iter().map(|p| p.wall_s).sum();
    let (lo, hi) = rates.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    let _ = writeln!(
        out,
        "passes      {} untraced: {ops} ops in {wall:.3}s, ops/s min {lo:.3} median {:.3} max {hi:.3}",
        rates.len(),
        median(&rates)
    );
    let _ = writeln!(out, "\nend to end (untraced)");
    for (name, value) in end_to_end(report) {
        let _ = writeln!(out, "  {name:<28} {value:>16.4} {}", unit_of(name));
    }
    for (name, value) in &report.guards {
        let _ = writeln!(out, "  {name:<28} {value:>16.4} {}", unit_of(name));
    }
    if opts.trace {
        let _ = writeln!(out, "\nper layer (traced pass)");
        for (name, value) in &report.layers {
            let _ = writeln!(out, "  {name:<28} {value:>16.4} {}", unit_of(name));
        }
    }
    for note in &report.notes {
        let _ = writeln!(out, "note: {note}");
    }
    let _ = writeln!(out, "\nchecks");
    for check in &report.checks {
        let verdict = if check.passed { "ok  " } else { "FAIL" };
        let _ = writeln!(out, "  {verdict} {}: {}", check.name, check.detail);
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// the mode (end-to-end untraced, per-layer traced).
pub fn result_line(opts: &Options, report: &Report) -> String {
    let correct = report.correct();
    let failed = report.failed_ops();
    let metrics = if opts.trace { per_layer(report) } else { end_to_end(report) };
    let body = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*value),
                unit_of(name)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        report.attempted
    )
}

/// A finite number in JSON syntax, with every digit the value has.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}
