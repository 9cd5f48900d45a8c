//! `publish-durable`: publications into a `DirBackend` store in a fresh
//! directory.
//!
//! Every user publishes one version per defense rung of the audit gate's
//! default ladder through `ShardedRegistry::enroll_envelope`, on at most
//! two threads (and never more than the host's cores). From the second
//! rung round on, each thread reads another user through `registry.get`
//! after every publication, so a commit change that stalls readers shows;
//! the threads meet at the end of every round, so every user read has
//! been published and no read falls back to the general model. Then each user rolls back one
//! version, the store compacts, and `EnvelopeStore::open` reopens the
//! directory as a restart would. The op is one publication made durable
//! (rollbacks are publications too); a pass's time runs from the first
//! open to the end of the reopen. After each pass every user must be
//! served exactly its last committed version, and the directory is
//! removed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use pelican::DefenseKind;
use pelican_nn::{ModelEnvelope, SequenceModel};
use pelican_serve::{Lookup, RegistryConfig, RegistryStats, ShardedRegistry};
use pelican_store::{DirBackend, EnvelopeStore, StorageBackend, StoreConfig};
use pelican_train::AuditConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{dataset, repeat_passes, repeat_setup, secs, Report};
use crate::probes::{Layers, StoreCounters, TimingBackend};
use crate::{Options, Size};

/// Registry and store shards.
const SHARDS: usize = 4;
/// Hot-cache slots per shard (fewer than each shard's users, so reads
/// decode).
const HOT_PER_SHARD: usize = 2;
/// Hidden width of the published model: the shape the live loop publishes.
const HIDDEN: usize = 12;
/// Most publishing threads.
const MAX_THREADS: usize = 2;

fn users(opts: &Options) -> usize {
    match opts.size {
        Size::Bench => 16,
        Size::Tiny => 4,
    }
}

struct Setup {
    general: SequenceModel,
    /// The published model under each rung, weakest first.
    rungs: Vec<SequenceModel>,
    users: usize,
    threads: usize,
}

fn setup(opts: &Options) -> Setup {
    let dataset = dataset(opts);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let (dim, classes) = (dataset.space.dim(), dataset.n_locations());
    let general = SequenceModel::general_lstm(dim, HIDDEN, classes, 0.1, &mut rng);
    let model = SequenceModel::general_lstm(dim, HIDDEN, classes, 0.1, &mut rng);
    let audit = AuditConfig::default();
    let rungs = std::iter::once(audit.base_defense)
        .chain(audit.ladder.iter().copied())
        .map(|defense: DefenseKind| {
            let mut m = model.clone();
            defense.apply(&mut m);
            m
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Setup { general, rungs, users: users(opts), threads: cores.clamp(1, MAX_THREADS) }
}

fn store_config() -> StoreConfig {
    StoreConfig { shards: SHARDS, ..StoreConfig::default() }
}

/// Parent of every pass directory: inside the benchmark's own package
/// directory, so a run writes nowhere outside its checkout.
fn tmp_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tmp")
}

/// A fresh directory for one pass's store, unique within the process and
/// across processes; the pass removes it when it ends.
fn pass_dir() -> PathBuf {
    static PASSES: AtomicU64 = AtomicU64::new(0);
    let n = PASSES.fetch_add(1, Ordering::Relaxed);
    tmp_root().join(format!("publish-{}-{n}", std::process::id()))
}

/// One pass's results.
struct Published {
    ops: u64,
    wall_s: f64,
    /// Users not served their last committed version after the restart.
    unserved: u64,
    /// Spans of the layer calls (empty when untraced).
    layers: Layers,
    /// The publishing registry's counters.
    stats: RegistryStats,
    /// Host seconds summed over the publishing threads and the serial
    /// rollback/compact/reopen phase.
    thread_s: f64,
}

/// Publishes, rolls back, compacts and reopens in `dir`, then checks
/// what the restarted registry serves.
fn pass(s: &Setup, dir: &Path, counters: Option<&Arc<StoreCounters>>) -> Published {
    let traced = counters.is_some();
    let layers_of = || if traced { Layers::default() } else { Layers::disabled() };
    let backend = || -> Arc<dyn StorageBackend> {
        let dir = DirBackend::create(dir).expect("the pass directory is writable");
        match counters {
            Some(c) => Arc::new(TimingBackend::new(Arc::new(dir), Arc::clone(c))),
            None => Arc::new(dir),
        }
    };

    let started = Instant::now();
    let mut layers = layers_of();
    let store = layers
        .time("store.open", || EnvelopeStore::open(backend(), store_config()))
        .expect("an empty store opens");
    let store = Arc::new(store);
    let registry = ShardedRegistry::with_store(
        s.general.clone(),
        RegistryConfig { shards: SHARDS, hot_capacity: HOT_PER_SHARD },
        Arc::clone(&store),
    );
    let open_s = secs(started);

    // Publish: thread t owns users t, t + threads, ...; after each
    // publication from the second round on it reads the next user,
    // usually another thread's, published in an earlier round.
    let round_done = Barrier::new(s.threads);
    let per_thread: Vec<(Layers, BTreeMap<usize, Vec<u64>>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..s.threads)
            .map(|t| {
                let (registry, round_done) = (&registry, &round_done);
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut layers = layers_of();
                    let mut versions: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
                    for (round, model) in s.rungs.iter().enumerate() {
                        for user in (t..s.users).step_by(s.threads) {
                            let envelope =
                                layers.time("nn.encode", || ModelEnvelope::encode(model));
                            let version = layers.time("registry.publish", || {
                                registry.enroll_envelope(user, envelope)
                            });
                            versions.entry(user).or_default().push(version);
                            if round > 0 {
                                layers
                                    .time("registry.decode", || registry.get((user + 1) % s.users))
                                    .expect("published envelopes decode");
                            }
                        }
                        round_done.wait();
                    }
                    (layers, versions, secs(started))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a publishing thread panicked")).collect()
    });

    let serial = Instant::now();
    let mut versions = BTreeMap::new();
    let mut thread_s = open_s;
    for (l, v, wall) in per_thread {
        layers.merge(&l);
        versions.extend(v);
        thread_s += wall;
    }
    // Roll every user back to the version before its last.
    let target_rung = s.rungs.len() - 2;
    let mut rolled: BTreeMap<usize, u64> = BTreeMap::new();
    for (&user, history) in &versions {
        let version = layers
            .time("registry.publish", || registry.rollback(user, history[target_rung]))
            .expect("the previous version is retained");
        rolled.insert(user, version);
    }
    layers.time("store.compact", || store.compact()).expect("compaction succeeds");
    let stats = registry.stats();
    drop(registry);
    drop(store);
    let reopened = layers
        .time("store.open", || EnvelopeStore::open(backend(), store_config()))
        .expect("the store reopens");
    let wall_s = secs(started);
    thread_s += secs(serial);

    // Verify (untimed): every user is served exactly its last commit.
    let expected = ModelEnvelope::encode(&s.rungs[target_rung]);
    let reopened = Arc::new(reopened);
    let restarted = ShardedRegistry::with_store(
        s.general.clone(),
        RegistryConfig { shards: SHARDS, hot_capacity: HOT_PER_SHARD },
        Arc::clone(&reopened),
    );
    let unserved = (0..s.users)
        .filter(|&user| {
            let latest = reopened.latest_version(user as u64);
            let served = restarted.get(user).ok().filter(|(_, lookup)| *lookup != Lookup::Fallback);
            let bytes_match = served.is_some_and(|(model, _)| {
                ModelEnvelope::encode(&model).as_bytes() == expected.as_bytes()
            });
            latest != rolled.get(&user).copied() || !bytes_match
        })
        .count() as u64;
    drop(restarted);
    drop(reopened);
    std::fs::remove_dir_all(dir).expect("the pass directory is removable");

    let ops = (s.users * s.rungs.len() + rolled.len()) as u64;
    Published { ops, wall_s, unserved, layers, stats, thread_s }
}

/// Runs the workload.
pub fn run(opts: &Options) -> Report {
    let (setup_s, s) = repeat_setup(|| setup(opts));
    let mut report = Report {
        sizes: format!(
            "{:?} campus model shape, hidden {HIDDEN}, {} users x {} rungs + 1 rollback each, \
             {} publishing threads, {SHARDS} shards x {HOT_PER_SHARD} hot slots, DirBackend",
            super::scale(opts),
            s.users,
            s.rungs.len(),
            s.threads,
        ),
        setup_s,
        ..Report::default()
    };

    let budget = if opts.trace { 0.0 } else { opts.seconds };
    let (runs, _) = repeat_passes(
        budget,
        || {
            let p = pass(&s, &pass_dir(), None);
            (p.ops, p.wall_s, (p.unserved, p.stats.fallbacks))
        },
        |&counts| counts,
        &mut report.setup_s,
        || setup(opts),
    );
    for (p, (unserved, _)) in &runs {
        report.attempted += p.ops;
        report.failed += unserved;
        report.passes.push(*p);
    }
    let unserved: u64 = runs.iter().map(|(_, (u, _))| u).sum();
    report.check_eq("users not served their last commit after restart", unserved, 0);
    let fallbacks: u64 = runs.iter().map(|(_, (_, f))| f).sum();
    report.check_eq("reads that fell back to the general model", fallbacks, 0);

    if opts.trace {
        let counters = Arc::new(StoreCounters::default());
        let traced = pass(&s, &pass_dir(), Some(&counters));
        report.attempted += traced.ops;
        report.failed += traced.unserved;
        report.check_eq("traced: users not served their last commit", traced.unserved, 0);
        report.check_eq("traced: reads that fell back", traced.stats.fallbacks, 0);
        let l = &traced.layers;
        report.layers = vec![
            ("nn.encode.ms", l.get("nn.encode").ms()),
            ("registry.publish.ms", l.get("registry.publish").ms()),
            ("registry.decode.ms", l.get("registry.decode").ms()),
            ("registry.decode.count", traced.stats.misses as f64),
            ("registry.hit_rate", traced.stats.hit_rate()),
            ("registry.fallbacks", traced.stats.fallbacks as f64),
            ("store.open.ms", l.get("store.open").ms()),
            ("store.compact.ms", l.get("store.compact").ms()),
        ];
        report.layers.extend(counters.metrics());
        // Store calls run inside the registry, open and compact spans.
        report.layers.push(("trace.coverage", l.total_ns() as f64 / 1e9 / traced.thread_s));
        report.layers.push(("trace.overhead", traced.wall_s / report.median_pass_s()));
    }
    // Fails, leaving the directory, while another run has a pass in it.
    let _ = std::fs::remove_dir(tmp_root());
    report
}
