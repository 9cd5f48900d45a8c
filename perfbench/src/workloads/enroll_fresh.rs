//! `enroll-fresh`: one-shot fleet enrollment through `FleetTrainer::run`.
//!
//! Every job is queued at the start on a pool of two; each user is
//! personalized from the cloud-trained general model, audited by the
//! gate's default temperature ladder and published into a store-backed
//! registry. The op is one user trained, audited and published. Training
//! is most of the work here, so a `train.fit` change shows on this
//! workload and barely on `live-drift`.
//!
//! The traced pass replays the same jobs through the public entry points
//! the pipeline dispatches (`train_candidate`, or
//! `train_candidates_lockstep` per cohort when cohorts are used,
//! `gate().admit_with_cache`, a second `audit_cached` on the warm logit
//! cache, `ModelEnvelope::encode`, `enroll_envelope`), timing each call,
//! and must publish the same bytes.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pelican::{CloudTrainer, PersonalizationConfig};
use pelican_live::fnv64;
use pelican_mobility::FeatureSpace;
use pelican_nn::{ModelEnvelope, SequenceModel, TrainConfig};
use pelican_serve::{RegistryConfig, ShardedRegistry};
use pelican_store::{EnvelopeStore, MemBackend, StorageBackend, StoreConfig};
use pelican_train::{
    cohort_jobs, form_cohorts, AuditConfig, FleetTrainer, JobKind, PipelineConfig, TrainJob,
};

use super::{dataset, repeat_passes, repeat_setup, secs, Report};
use crate::probes::{Layers, StoreCounters, TimingBackend};
use crate::{Options, Size};

/// Registry and store shards.
const SHARDS: usize = 4;
/// Trainer-pool width.
const WORKERS: usize = 2;

struct Sizes {
    /// Hidden width of the general (and so every personalized) model.
    hidden: usize,
    /// Cloud training epochs of the general model.
    general_epochs: usize,
    /// Pooled contributor samples the general model trains on (a fixed
    /// count, so set-up time does not depend on the seed's campus).
    general_samples: usize,
    /// Personalization epochs per user.
    personal_epochs: usize,
    /// Users enrolled per pass.
    users: usize,
    /// Training samples each enrolled user trains on.
    train_samples: usize,
    /// Lockstep cohort size of the pipeline (`PipelineConfig::cohort`).
    cohort: usize,
}

fn sizes(opts: &Options) -> Sizes {
    match opts.size {
        Size::Bench => Sizes {
            hidden: 64,
            general_epochs: 1,
            general_samples: 1024,
            personal_epochs: 25,
            users: 4,
            train_samples: 160,
            cohort: 0,
        },
        Size::Tiny => Sizes {
            hidden: 8,
            general_epochs: 1,
            general_samples: 128,
            personal_epochs: 2,
            users: 2,
            train_samples: 8,
            cohort: 0,
        },
    }
}

struct Setup {
    space: FeatureSpace,
    general: SequenceModel,
    jobs: Vec<TrainJob>,
}

fn setup(opts: &Options, z: &Sizes) -> Setup {
    let dataset = dataset(opts);
    let n = dataset.users.len();
    let first_personal = n * 2 / 3;
    let mut samples = dataset.pooled_samples(0..first_personal);
    samples.truncate(z.general_samples);
    let trainer = CloudTrainer::new(
        TrainConfig {
            epochs: z.general_epochs,
            batch_size: 128,
            shuffle_seed: opts.seed,
            ..TrainConfig::default()
        },
        z.hidden,
        0.1,
    );
    let (general, _, _) =
        trainer.train(dataset.space.dim(), dataset.n_locations(), &samples, opts.seed);
    // Every enrolled user trains on the same number of samples and is
    // attacked on the same number of instances, so the work per op does
    // not depend on which users the seed's campus happens to hold.
    let instances = AuditConfig::default().max_instances;
    let mut jobs: Vec<TrainJob> = cohort_jobs(&dataset, first_personal..n, 0.8)
        .into_iter()
        .filter(|j| j.train.len() >= z.train_samples && j.subject.holdout.len() >= instances)
        .take(z.users)
        .collect();
    for job in &mut jobs {
        job.train.truncate(z.train_samples);
    }
    Setup { space: dataset.space, general, jobs }
}

fn pipeline(opts: &Options, z: &Sizes) -> PipelineConfig {
    PipelineConfig {
        workers: WORKERS,
        base_seed: opts.seed,
        personalization: PersonalizationConfig {
            train: TrainConfig {
                epochs: z.personal_epochs,
                batch_size: 16,
                ..TrainConfig::default()
            },
            hidden_dim: z.hidden,
            ..PersonalizationConfig::default()
        },
        audit: AuditConfig { seed: opts.seed ^ 0xA0D1, ..AuditConfig::default() },
        cohort: z.cohort,
        ..PipelineConfig::default()
    }
}

fn registry(general: &SequenceModel, backend: Arc<dyn StorageBackend>) -> ShardedRegistry {
    let store =
        EnvelopeStore::open(backend, StoreConfig { shards: SHARDS, ..StoreConfig::default() })
            .expect("an empty store opens");
    ShardedRegistry::with_store(
        general.clone(),
        RegistryConfig { shards: SHARDS, hot_capacity: 16 },
        Arc::new(store),
    )
}

/// The durable envelope bytes of every job's user, `None` where nothing
/// was published.
fn published(registry: &ShardedRegistry, jobs: &[TrainJob]) -> Vec<Option<Vec<u8>>> {
    let store = registry.store().expect("store-backed");
    jobs.iter()
        .map(|job| {
            store
                .fetch_latest(job.user_id as u64)
                .expect("the store reads back what it committed")
                .map(|e| e.as_bytes().to_vec())
        })
        .collect()
}

/// What a pipeline pass leaves behind for the checks and guards.
struct Enrolled {
    envelopes: Vec<Option<Vec<u8>>>,
    leakage: Vec<f64>,
    train_vms: f64,
    audit_vms: f64,
}

/// Gate counters of the traced replay.
#[derive(Default)]
struct GateCounts {
    forward_passes: u64,
    queries: u64,
    cache_hits: u64,
    rungs: u64,
    cached_queries: u64,
    cached_forward_passes: u64,
}

impl GateCounts {
    fn add(&mut self, other: &GateCounts) {
        self.forward_passes += other.forward_passes;
        self.queries += other.queries;
        self.cache_hits += other.cache_hits;
        self.rungs += other.rungs;
        self.cached_queries += other.cached_queries;
        self.cached_forward_passes += other.cached_forward_passes;
    }
}

/// The units the pipeline's pool steals: the consecutive same-shape
/// ranges `FleetTrainer::run` forms, one job each without cohorts.
fn steal_units(fleet: &FleetTrainer, jobs: &[TrainJob]) -> Vec<Range<usize>> {
    form_cohorts(jobs, fleet.config().cohort, |job| match &job.kind {
        JobKind::Fresh => 0,
        JobKind::WarmStart { envelope } => 1 | ((envelope.len() as u64) << 1),
    })
}

/// The traced replay: the pipeline's steps called one by one on a pool
/// of [`WORKERS`] threads stealing jobs (or cohorts) in order. Returns
/// the spans, the gate counters and the host seconds summed over the
/// calling thread's general-model encode and every worker's life.
fn traced_replay(
    s: &Setup,
    fleet: &FleetTrainer,
    registry: &ShardedRegistry,
) -> (Layers, GateCounts, f64) {
    let mut layers = Layers::default();
    let started = Instant::now();
    let general = layers.time("nn.encode", || ModelEnvelope::encode(&s.general));
    let main_s = secs(started);
    let units = steal_units(fleet, &s.jobs);
    let lockstep = fleet.config().cohort > 1;
    let next = AtomicUsize::new(0);
    let per_thread: Vec<(Layers, GateCounts, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                scope.spawn(|| {
                    let started = Instant::now();
                    let mut layers = Layers::default();
                    let mut counts = GateCounts::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(unit) = units.get(i) else { break };
                        let chunk = &s.jobs[unit.clone()];
                        let candidates: Vec<SequenceModel> = if lockstep {
                            layers
                                .time("train.fit", || {
                                    fleet.train_candidates_lockstep(&general, chunk)
                                })
                                .into_iter()
                                .map(|(candidate, _, _)| candidate)
                                .collect()
                        } else {
                            chunk
                                .iter()
                                .map(|job| {
                                    layers
                                        .time("train.fit", || fleet.train_candidate(&general, job))
                                        .0
                                })
                                .collect()
                        };
                        for (job, candidate) in chunk.iter().zip(candidates) {
                            let (model, gate, mut cache) = layers.time("audit.attack", || {
                                fleet.gate().admit_with_cache(candidate, &s.space, &job.subject)
                            });
                            counts.forward_passes += gate.cache_misses;
                            counts.queries += gate.queries;
                            counts.cache_hits += gate.cached;
                            counts.rungs += gate.rungs_climbed as u64;
                            let misses = cache.misses;
                            let eval = layers.time("audit.cached", || {
                                fleet.gate().audit_cached(
                                    &model,
                                    &s.space,
                                    &job.subject,
                                    &mut cache,
                                )
                            });
                            counts.cached_queries += eval.queries;
                            counts.cached_forward_passes += cache.misses - misses;
                            let envelope =
                                layers.time("nn.encode", || ModelEnvelope::encode(&model));
                            layers.time("registry.publish", || {
                                registry.enroll_envelope(job.user_id, envelope)
                            });
                        }
                    }
                    (layers, counts, secs(started))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a replay worker panicked")).collect()
    });
    let mut counts = GateCounts::default();
    let mut thread_s = main_s;
    for (l, c, wall) in &per_thread {
        layers.merge(l);
        counts.add(c);
        thread_s += wall;
    }
    (layers, counts, thread_s)
}

/// Runs the workload.
pub fn run(opts: &Options) -> Report {
    run_sized(opts, &sizes(opts))
}

fn run_sized(opts: &Options, z: &Sizes) -> Report {
    let (setup_s, s) = repeat_setup(|| setup(opts, z));
    let mut report = Report {
        sizes: format!(
            "{:?} campus, general model hidden {} trained {} epoch(s) on {} contributor samples, \
             {} users per pass, {} training samples each, personalization {} epochs batch 16, \
             default audit ladder, cohort {}, pool {WORKERS} workers, MemBackend store",
            super::scale(opts),
            z.hidden,
            z.general_epochs,
            z.general_samples,
            s.jobs.len(),
            z.train_samples,
            z.personal_epochs,
            z.cohort,
        ),
        setup_s,
        ..Report::default()
    };
    let fleet = FleetTrainer::new(pipeline(opts, z));

    let budget = if opts.trace { 0.0 } else { opts.seconds };
    let (runs, reference) = repeat_passes(
        budget,
        || {
            let registry = registry(&s.general, Arc::new(MemBackend::new()));
            let started = Instant::now();
            let train = fleet.run(&s.general, &s.space, &s.jobs, &registry);
            let wall_s = secs(started);
            let envelopes = published(&registry, &s.jobs);
            let outcomes = &train.outcomes;
            let enrolled = Enrolled {
                leakage: outcomes.iter().map(|o| o.gate.final_leakage).collect(),
                train_vms: outcomes.iter().map(|o| o.train_simulated.as_secs_f64() * 1e3).sum(),
                audit_vms: outcomes.iter().map(|o| o.audit_simulated.as_secs_f64() * 1e3).sum(),
                envelopes,
            };
            let ops = enrolled.envelopes.iter().filter(|e| e.is_some()).count() as u64;
            (ops, wall_s, enrolled)
        },
        |e| e.envelopes.iter().map(|b| b.as_deref().map(fnv64)).collect::<Vec<_>>(),
        &mut report.setup_s,
        || setup(opts, z),
    );
    for (p, _) in &runs {
        report.attempted += s.jobs.len() as u64;
        report.failed += s.jobs.len() as u64 - p.ops;
        report.passes.push(*p);
    }
    report.check(
        "repeated runs agree",
        runs.iter().all(|(_, hashes)| *hashes == runs[0].1),
        format!("{} runs, envelope hashes compared per user", runs.len()),
    );
    report.check(
        "every job published",
        reference.envelopes.iter().all(Option::is_some),
        format!("{} jobs", s.jobs.len()),
    );
    report.guards = vec![(
        "leakage_top3",
        reference.leakage.iter().sum::<f64>() / reference.leakage.len().max(1) as f64,
    )];

    if opts.trace {
        let counters = Arc::new(StoreCounters::default());
        let backend = TimingBackend::new(Arc::new(MemBackend::new()), Arc::clone(&counters));
        let registry = registry(&s.general, Arc::new(backend));
        let started = Instant::now();
        let (layers, counts, thread_s) = traced_replay(&s, &fleet, &registry);
        let wall_s = secs(started);
        let envelopes = published(&registry, &s.jobs);
        report.attempted += s.jobs.len() as u64;
        report.failed += envelopes.iter().filter(|e| e.is_none()).count() as u64;
        report.check(
            "traced replay publishes the pipeline's envelopes",
            envelopes == reference.envelopes,
            format!("{} users compared byte for byte", s.jobs.len()),
        );
        report.check_eq("cached re-audit forward passes", counts.cached_forward_passes, 0);
        let fit = layers.get("train.fit");
        let attack = layers.get("audit.attack");
        let cached = layers.get("audit.cached");
        report.layers = vec![
            ("train.fit.ms", fit.ms()),
            ("train.fit.calls", fit.calls as f64),
            ("train.fit.gflop", fit.gflop()),
            ("train.fit.fused_share", fit.batched_flops as f64 / fit.flops.max(1) as f64),
            ("train.fit.vms", reference.train_vms),
            ("audit.attack.ms", attack.ms()),
            ("audit.attack.calls", attack.calls as f64),
            ("audit.attack.gflop", attack.gflop()),
            ("audit.attack.forward_passes", counts.forward_passes as f64),
            ("audit.attack.queries", counts.queries as f64),
            ("audit.attack.cache_hits", counts.cache_hits as f64),
            ("audit.attack.rungs", counts.rungs as f64),
            ("audit.attack.vms", reference.audit_vms),
            ("audit.cached.ms", cached.ms()),
            ("audit.cached.queries", counts.cached_queries as f64),
            ("audit.cached.forward_passes", counts.cached_forward_passes as f64),
            ("nn.encode.ms", layers.get("nn.encode").ms()),
            ("registry.publish.ms", layers.get("registry.publish").ms()),
        ];
        report.layers.extend(counters.metrics());
        // Store calls run inside `registry.publish`, so they are not
        // added again; the replay's wall is summed over its workers.
        report.layers.push(("trace.coverage", layers.total_ns() as f64 / 1e9 / thread_s));
        report.layers.push(("trace.overhead", wall_s / report.median_pass_s()));
        report.notes.push(format!(
            "traced replay: {wall_s:.3}s wall, {thread_s:.3}s summed over {WORKERS} workers"
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// With cohorts the traced replay times `train_candidates_lockstep`,
    /// whose FLOPs go through the fused kernels, and still publishes the
    /// bytes the pipeline published.
    #[test]
    fn lockstep_cohorts_are_timed_as_train_fit() {
        let opts = Options {
            workload: Workload::EnrollFresh,
            seed: 7,
            seconds: 0.01,
            trace: true,
            size: Size::Tiny,
        };
        let report = run_sized(&opts, &Sizes { cohort: 2, ..sizes(&opts) });
        for check in &report.checks {
            assert!(check.passed, "{} failed: {}", check.name, check.detail);
        }
        assert!(report.correct());
        let layer = |name: &str| {
            report.layers.iter().find(|(n, _)| *n == name).map(|&(_, v)| v).expect(name)
        };
        assert_eq!(layer("train.fit.calls"), 1.0, "one cohort of two users");
        assert!(layer("train.fit.fused_share") > 0.0);
    }
}
