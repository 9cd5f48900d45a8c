//! The four workloads and what they share: repeated set-up, time-budgeted
//! passes, and the run report.

mod enroll_fresh;
mod live_drift;
mod publish_durable;
mod serve_cloud;

use std::time::Instant;

use pelican_mobility::{CampusConfig, DatasetBuilder, MobilityDataset, Scale, SpatialLevel};

use crate::{Options, Size};

/// Least times set-up is repeated in one run; `setup_s` is the median.
pub(crate) const SETUP_REPEATS: usize = 5;

/// Cheap set-ups repeat until this many host seconds are spent, so their
/// median is taken over enough samples to be steady.
pub(crate) const SETUP_BUDGET_S: f64 = 0.5;

/// Untraced passes every run makes at least, whatever its time budget,
/// so that repeated runs can be compared.
pub(crate) const MIN_PASSES: usize = 2;

/// Share of each pass's time spent repeating set-up after it (at least
/// once), so `setup_s` samples the host's speed across the whole run
/// rather than in its first half second: the host's speed drifts by
/// about ±25% within seconds.
pub(crate) const SETUP_SHARE_BETWEEN_PASSES: f64 = 0.05;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `live-report` eager-drift loop.
    LiveDrift,
    /// One-shot fleet enrollment through `FleetTrainer::run`.
    EnrollFresh,
    /// Open-loop cloud serving through `simulate_serving`.
    ServeCloud,
    /// Publications into a directory-backed durable store.
    PublishDurable,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] = [
        Workload::LiveDrift,
        Workload::EnrollFresh,
        Workload::ServeCloud,
        Workload::PublishDurable,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LiveDrift => "live-drift",
            Workload::EnrollFresh => "enroll-fresh",
            Workload::ServeCloud => "serve-cloud",
            Workload::PublishDurable => "publish-durable",
        }
    }

    /// Resolves a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the benchmark has this workload (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::LiveDrift => {
                "steady state: retrains, cached re-audits and serving on one clock; audit is ~99% of retrain cost"
            }
            Workload::EnrollFresh => {
                "cold enrollment: training is ~3/4 of the work, so train.fit changes show here and not on live-drift"
            }
            Workload::ServeCloud => {
                "open-loop serving stresses the sim engine and serving flow and bypasses training and audit"
            }
            Workload::PublishDurable => {
                "durable publication with reads alongside, rollback and restart; the store is under 0.2% of the others"
            }
        }
    }

    /// Runs the workload.
    pub fn run(self, opts: &Options) -> Report {
        match self {
            Workload::LiveDrift => live_drift::run(opts),
            Workload::EnrollFresh => enroll_fresh::run(opts),
            Workload::ServeCloud => serve_cloud::run(opts),
            Workload::PublishDurable => publish_durable::run(opts),
        }
    }
}

/// One untraced pass: how many ops it completed, how long it took and
/// how much memory it held at its peak.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Ops completed.
    pub ops: u64,
    /// Host seconds.
    pub wall_s: f64,
    /// Peak resident set during the pass, in MB (`VmHWM`, reset when the
    /// pass starts); 0 where `/proc` is unavailable.
    pub peak_rss_mb: f64,
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// The compared values.
    pub detail: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The workload's sizes, one line.
    pub sizes: String,
    /// Seconds each set-up repetition took.
    pub setup_s: Vec<f64>,
    /// The untraced passes.
    pub passes: Vec<Pass>,
    /// Ops attempted across every pass, traced ones included.
    pub attempted: u64,
    /// Ops that failed (dropped, never published, still pending, or not
    /// served after restart).
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// The workload's exact virtual-clock and leakage figures.
    pub guards: Vec<(&'static str, f64)>,
    /// Per-layer metrics of the traced pass.
    pub layers: Vec<(&'static str, f64)>,
    /// Remarks printed with the report.
    pub notes: Vec<String>,
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.passed)
    }

    /// Failed ops; a failed check fails every attempted op.
    pub fn failed_ops(&self) -> u64 {
        if self.correct() {
            self.failed
        } else {
            self.attempted
        }
    }

    /// Records a check.
    pub(crate) fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push(Check { name, passed, detail });
    }

    /// Median host seconds of the untraced passes: the base of
    /// `trace.overhead`.
    pub(crate) fn median_pass_s(&self) -> f64 {
        crate::median(&self.passes.iter().map(|p| p.wall_s).collect::<Vec<_>>())
    }

    /// Records a check that two values are equal.
    pub(crate) fn check_eq<T: PartialEq + std::fmt::Debug>(
        &mut self,
        name: &'static str,
        a: T,
        b: T,
    ) {
        let passed = a == b;
        let detail = if passed { format!("{a:?}") } else { format!("{a:?} != {b:?}") };
        self.check(name, passed, detail);
    }
}

/// Runs `setup` at least [`SETUP_REPEATS`] times and until
/// [`SETUP_BUDGET_S`] have passed, and keeps the last result.
pub(crate) fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPEATS || times.iter().sum::<f64>() < SETUP_BUDGET_S {
        // Free the previous repetition's state first, so peak memory
        // holds one set-up, not two.
        drop(last.take());
        let started = Instant::now();
        let state = setup();
        times.push(started.elapsed().as_secs_f64());
        last = Some(state);
    }
    (times, last.expect("at least one set-up ran"))
}

/// Runs untraced passes until `seconds` of pass time have elapsed (at
/// least [`MIN_PASSES`]). `pass` returns its ops, its host seconds and
/// its outcome; `key` reduces each outcome to what the passes compare
/// (fingerprints, failure counts). Only the first outcome is kept whole,
/// so memory does not grow with the number of passes. Each pass's peak
/// resident set is measured from its own start. After each pass, `setup`
/// runs again for [`SETUP_SHARE_BETWEEN_PASSES`] of the pass's time; its
/// times are added to `setup_s` and its states dropped.
pub(crate) fn repeat_passes<O, K, T>(
    seconds: f64,
    mut pass: impl FnMut() -> (u64, f64, O),
    key: impl Fn(&O) -> K,
    setup_s: &mut Vec<f64>,
    mut setup: impl FnMut() -> T,
) -> (Vec<(Pass, K)>, O) {
    let mut keys: Vec<(Pass, K)> = Vec::new();
    let mut first = None;
    let mut spent = 0.0;
    while keys.len() < MIN_PASSES || spent < seconds {
        reset_peak_rss();
        let (ops, wall_s, outcome) = pass();
        let p = Pass { ops, wall_s, peak_rss_mb: peak_rss_mb().unwrap_or(0.0) };
        spent += wall_s;
        keys.push((p, key(&outcome)));
        first.get_or_insert(outcome);
        let mut again = 0.0;
        while again == 0.0 || again < SETUP_SHARE_BETWEEN_PASSES * wall_s {
            let started = Instant::now();
            let state = setup();
            let t = secs(started);
            drop(state);
            setup_s.push(t);
            again += t;
        }
    }
    (keys, first.expect("at least one pass ran"))
}

/// Lowers this process's `VmHWM` to its current resident set, so the
/// next reading is the peak from now on. One run's peak would otherwise
/// depend on how much freed memory the allocator happened to keep from
/// earlier passes and set-ups; a no-op where `/proc` is unavailable.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The seeded campus dataset at the size's scale.
pub(crate) fn dataset(opts: &Options) -> MobilityDataset {
    DatasetBuilder::new(CampusConfig::for_scale(scale(opts)), opts.seed)
        .build(SpatialLevel::Building)
}

/// The campus scale of a size.
pub(crate) fn scale(opts: &Options) -> Scale {
    match opts.size {
        Size::Bench => Scale::Small,
        Size::Tiny => Scale::Tiny,
    }
}

/// A microsecond figure in virtual milliseconds.
pub(crate) fn vms(us: u64) -> f64 {
    us as f64 / 1e3
}

/// Host seconds since `started`.
pub(crate) fn secs(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}
