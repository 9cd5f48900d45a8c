//! `live-drift`: the `live-report` eager-drift loop.
//!
//! A drift trigger that never sees enough agreement marks every user
//! stale each time fresh sessions accumulate, so the loop retrains,
//! re-audits and serves on one virtual clock for the whole live week.
//! The op is one retrain published. `run_live` has no public seam
//! inside it, so the traced pass times only the store from outside; the
//! rest of its host time is not split.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use pelican::platform::ComputeTier;
use pelican::PersonalizationConfig;
use pelican_live::{run_live, DriftConfig, DriftMetric, LiveConfig, LiveOutcome};
use pelican_mobility::MobilityDataset;
use pelican_nn::{SequenceModel, TrainConfig};
use pelican_serve::{RegistryConfig, SchedulerConfig, ShardedRegistry, SimServeConfig};
use pelican_store::{EnvelopeStore, MemBackend, StorageBackend, StoreConfig};
use pelican_tensor::nearest_rank;
use pelican_train::{AuditConfig, PipelineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{dataset, repeat_passes, repeat_setup, secs, vms, Report};
use crate::probes::{StoreCounters, TimingBackend};
use crate::{Options, Size};

/// Registry and store shards.
const SHARDS: usize = 4;
/// Hidden width of the general and personalized models.
const HIDDEN: usize = 12;
/// Trainer-pool width of the measured passes.
const WORKERS: usize = 2;

fn cohort_size(opts: &Options) -> usize {
    match opts.size {
        Size::Bench => 12,
        Size::Tiny => 3,
    }
}

struct Setup {
    dataset: MobilityDataset,
    general: SequenceModel,
    cohort: Range<usize>,
}

fn setup(opts: &Options) -> Setup {
    let dataset = dataset(opts);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let general = SequenceModel::general_lstm(
        dataset.space.dim(),
        HIDDEN,
        dataset.n_locations(),
        0.1,
        &mut rng,
    );
    let n = dataset.users.len();
    let cohort = (n - cohort_size(opts).min(n))..n;
    Setup { dataset, general, cohort }
}

/// The `live-report` loop configuration with the always-stale trigger:
/// agreement never reaches 1.01, so every user retrains whenever four
/// fresh sessions have accumulated.
fn config(workers: usize, seed: u64) -> LiveConfig {
    LiveConfig {
        pipeline: PipelineConfig {
            workers,
            base_seed: seed,
            personalization: PersonalizationConfig {
                train: TrainConfig { epochs: 2, ..TrainConfig::default() },
                hidden_dim: HIDDEN,
                ..PersonalizationConfig::default()
            },
            audit: AuditConfig { max_instances: 3, ..AuditConfig::default() },
            ..PipelineConfig::default()
        },
        serve: SimServeConfig {
            scheduler: SchedulerConfig { max_batch: 4, max_delay_us: 900 },
            tier: ComputeTier::Cloud,
            network: None,
        },
        drift: DriftConfig {
            metric: DriftMetric::TopKAgreement { k: 1, min_agreement: 1.01 },
            min_new_samples: 4,
            window: 6,
        },
        us_per_minute: 1_000,
        bootstrap_minutes: 7 * 24 * 60,
        horizon_minutes: 14 * 24 * 60,
        train_fraction: 0.8,
        round_interval_us: 200_000,
        rollback_tolerance: 0.5,
    }
}

/// One loop run on a fresh store-backed registry; returns the outcome,
/// its host seconds and the registry (for its counters).
fn pass(
    s: &Setup,
    workers: usize,
    seed: u64,
    backend: Arc<dyn StorageBackend>,
) -> (LiveOutcome, f64, ShardedRegistry) {
    let store =
        EnvelopeStore::open(backend, StoreConfig { shards: SHARDS, ..StoreConfig::default() })
            .expect("an empty store opens");
    let registry = ShardedRegistry::with_store(
        s.general.clone(),
        RegistryConfig { shards: SHARDS, hot_capacity: 16 },
        Arc::new(store),
    );
    let started = Instant::now();
    let outcome =
        run_live(&s.dataset, s.cohort.clone(), &registry, &s.general, &config(workers, seed))
            .expect("the live loop completes");
    (outcome, secs(started), registry)
}

/// Failed ops of a loop run: queries dropped and users still waiting for
/// a retrain when the event heap drained.
fn failures(o: &LiveOutcome) -> u64 {
    (o.serve.dropped + o.pending_at_end) as u64
}

fn percentile_vms(mut values: Vec<u64>, q: f64) -> f64 {
    values.sort_unstable();
    vms(nearest_rank(&values, q).unwrap_or(0))
}

/// Runs the workload.
pub fn run(opts: &Options) -> Report {
    let (setup_s, s) = repeat_setup(|| setup(opts));
    let mut report = Report {
        sizes: format!(
            "{:?} campus, cohort {} users, hidden {HIDDEN}, 2 warm epochs, max_instances 3, \
             pool {WORKERS} workers, MemBackend store",
            super::scale(opts),
            s.cohort.len()
        ),
        setup_s,
        ..Report::default()
    };

    let budget = if opts.trace { 0.0 } else { opts.seconds };
    let (runs, reference) = repeat_passes(
        budget,
        || {
            let (outcome, wall_s, _) = pass(&s, WORKERS, opts.seed, Arc::new(MemBackend::new()));
            (outcome.retrains.len() as u64, wall_s, outcome)
        },
        |o| (o.fingerprint(), failures(o)),
        &mut report.setup_s,
        || setup(opts),
    );
    for (p, (_, failed)) in &runs {
        report.attempted += p.ops + failed;
        report.failed += failed;
        report.passes.push(*p);
    }
    let fingerprints: Vec<u64> = runs.iter().map(|(_, (f, _))| *f).collect();
    report.check(
        "repeated runs agree",
        fingerprints.iter().all(|&f| f == fingerprints[0]),
        format!("{} runs, fingerprints {fingerprints:016x?}", fingerprints.len()),
    );
    let (narrow, _, _) = pass(&s, 1, opts.seed, Arc::new(MemBackend::new()));
    report.check_eq(
        "pool widths 1 and 2 give one fingerprint",
        format!("{:016x}", narrow.fingerprint()),
        format!("{:016x}", reference.fingerprint()),
    );
    report.check_eq("re-audit misses", reference.reaudit.misses, 0);
    report.check(
        "the loop retrains",
        !reference.retrains.is_empty(),
        format!("{}", reference.retrains.len()),
    );

    let latencies: Vec<u64> = reference.retrains.iter().map(|r| r.latency_us()).collect();
    let staleness: Vec<u64> = reference.retrains.iter().map(|r| r.staleness_us()).collect();
    let gates = reference
        .bootstrap
        .outcomes
        .iter()
        .map(|o| &o.gate)
        .chain(reference.retrains.iter().map(|r| &r.gate));
    let leakage: Vec<f64> = gates.map(|g| g.final_leakage).collect();
    report.guards = vec![
        ("retrain_p50_vms", percentile_vms(latencies.clone(), 0.50)),
        ("retrain_p90_vms", percentile_vms(latencies, 0.90)),
        ("staleness_p90_vms", percentile_vms(staleness, 0.90)),
        ("leakage_top3", leakage.iter().sum::<f64>() / leakage.len().max(1) as f64),
    ];

    if opts.trace {
        let counters = Arc::new(StoreCounters::default());
        let backend = TimingBackend::new(Arc::new(MemBackend::new()), Arc::clone(&counters));
        let (traced, wall_s, registry) = pass(&s, WORKERS, opts.seed, Arc::new(backend));
        report.attempted += traced.retrains.len() as u64 + failures(&traced);
        report.failed += failures(&traced);
        report.check_eq(
            "traced fingerprint equals untraced",
            format!("{:016x}", traced.fingerprint()),
            format!("{:016x}", reference.fingerprint()),
        );
        let stats = registry.stats();
        let retrains = &traced.retrains;
        report.layers = vec![
            ("sim.engine.events", traced.serve.sim.events() as f64),
            ("sim.engine.jobs", traced.serve.sim.job_count() as f64),
            ("serve.flow.batches", traced.serve.batches.len() as f64),
            ("serve.flow.served", traced.serve.served.len() as f64),
            ("registry.decode.count", stats.misses as f64),
            ("registry.hit_rate", stats.hit_rate()),
            ("registry.fallbacks", stats.fallbacks as f64),
            ("train.fit.vms", vms(retrains.iter().map(|r| r.train_simulated_us).sum())),
            ("audit.attack.forward_passes", traced.retrain_forward_passes() as f64),
            ("audit.attack.vms", vms(retrains.iter().map(|r| r.audit_simulated_us).sum())),
            ("audit.cached.queries", traced.reaudit.queries as f64),
            ("audit.cached.hits", traced.reaudit.hits as f64),
            ("audit.cached.misses", traced.reaudit.misses as f64),
        ];
        report.layers.extend(counters.metrics());
        report.layers.push(("trace.coverage", counters.total_ns() as f64 / 1e9 / wall_s));
        report.layers.push(("trace.overhead", wall_s / report.median_pass_s()));
        report.notes.push(
            "live-drift host time inside run_live is not split by layer (no public seam); \
             trace.coverage counts the store.* layers only"
                .to_string(),
        );
    }
    report
}
