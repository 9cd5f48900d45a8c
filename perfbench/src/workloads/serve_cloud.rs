//! `serve-cloud`: open-loop serving through `simulate_serving` with
//! `CloudNetwork::default()`.
//!
//! Seeded Zipf/bursty traffic arrives at the generator's 400 µs virtual
//! mean gap with 8× bursts, whether or not the tier keeps up. Every campus
//! user is enrolled, more users than the registry has hot-cache slots.
//! Training and audit are bypassed, so a change there should not move
//! this workload. The op is one query served.
//!
//! The traced pass assembles the same pass from `serve_harness` and runs
//! it with the serving flow wrapped in [`TimedFlow`]: what `Simulator::run`
//! spends outside the wrapper is the engine's own time.

use std::sync::Arc;
use std::time::Instant;

use pelican::platform::ComputeTier;
use pelican_nn::{ModelEnvelope, SequenceModel};
use pelican_serve::{
    serve_harness, simulate_serving, CloudNetwork, RegistryConfig, Request, SchedulerConfig,
    ServeHarness, ShardedRegistry, SimServeConfig, SimServeOutcome, TrafficConfig,
    TrafficGenerator,
};
use pelican_sim::Simulator;
use pelican_store::{EnvelopeStore, MemBackend, StorageBackend, StoreConfig};
use pelican_tensor::nearest_rank;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{dataset, repeat_passes, repeat_setup, secs, vms, Report};
use crate::probes::{Span, StoreCounters, TimedFlow, TimingBackend};
use crate::{Options, Size};

/// Registry and store shards.
const SHARDS: usize = 8;
/// Hot-cache slots per shard (fewer in total than enrolled users).
const HOT_PER_SHARD: usize = 4;
/// Hidden width of every enrolled model.
const HIDDEN: usize = 64;
/// Recorded queries each client cycles through.
const QUERIES_PER_USER: usize = 32;

fn requests_per_pass(opts: &Options) -> usize {
    match opts.size {
        Size::Bench => 10_000,
        Size::Tiny => 1_000,
    }
}

struct Setup {
    general: SequenceModel,
    /// `(user, envelope)` of every enrolled user.
    envelopes: Vec<(usize, ModelEnvelope)>,
    requests: Vec<Request>,
}

fn setup(opts: &Options) -> Setup {
    let dataset = dataset(opts);
    let (dim, classes) = (dataset.space.dim(), dataset.n_locations());
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let general = SequenceModel::general_lstm(dim, HIDDEN, classes, 0.1, &mut rng);
    let users: Vec<usize> =
        (0..dataset.users.len()).filter(|&u| !dataset.users[u].triples.is_empty()).collect();
    let envelopes = users
        .iter()
        .map(|&u| {
            let model = SequenceModel::general_lstm(dim, HIDDEN, classes, 0.1, &mut rng);
            (u, ModelEnvelope::encode(&model))
        })
        .collect();
    // Client rank r is user `users[r]`; each cycles through its own
    // recorded sessions, as `run_fleet` does.
    let queries: Vec<Vec<_>> = users
        .iter()
        .map(|&u| {
            dataset.user_samples(u).into_iter().take(QUERIES_PER_USER).map(|s| s.xs).collect()
        })
        .collect();
    let mut cursors = vec![0usize; users.len()];
    let traffic = TrafficConfig {
        requests: requests_per_pass(opts),
        users: users.len(),
        seed: opts.seed,
        ..TrafficConfig::default()
    };
    let requests = TrafficGenerator::new(traffic)
        .enumerate()
        .map(|(id, arrival)| {
            let r = arrival.user_index;
            let xs = queries[r][cursors[r] % queries[r].len()].clone();
            cursors[r] += 1;
            Request { id, user_id: users[r], arrival_us: arrival.at_us, xs }
        })
        .collect();
    Setup { general, envelopes, requests }
}

fn config() -> SimServeConfig {
    SimServeConfig {
        scheduler: SchedulerConfig { max_batch: 16, max_delay_us: 2_000 },
        tier: ComputeTier::Cloud,
        network: Some(CloudNetwork::default()),
    }
}

/// A fresh store-backed registry with every user enrolled.
fn registry(s: &Setup, backend: Arc<dyn StorageBackend>) -> ShardedRegistry {
    let store =
        EnvelopeStore::open(backend, StoreConfig { shards: SHARDS, ..StoreConfig::default() })
            .expect("an empty store opens");
    let registry = ShardedRegistry::with_store(
        s.general.clone(),
        RegistryConfig { shards: SHARDS, hot_capacity: HOT_PER_SHARD },
        Arc::new(store),
    );
    for (user, envelope) in &s.envelopes {
        registry.enroll_envelope(*user, envelope.clone());
    }
    registry
}

/// Failed ops: queries dropped on the uplink or never answered.
fn failures(s: &Setup, o: &SimServeOutcome) -> u64 {
    (s.requests.len() - o.served.len()) as u64
}

/// Runs the workload.
pub fn run(opts: &Options) -> Report {
    let (setup_s, s) = repeat_setup(|| setup(opts));
    let mut report = Report {
        sizes: format!(
            "{:?} campus, {} users enrolled (hidden {HIDDEN}), {SHARDS} shards x {HOT_PER_SHARD} hot slots, \
             {} requests per pass, max_batch 16, max_delay 2000us, CloudNetwork::default()",
            super::scale(opts),
            s.envelopes.len(),
            s.requests.len(),
        ),
        setup_s,
        ..Report::default()
    };

    let budget = if opts.trace { 0.0 } else { opts.seconds };
    let (runs, reference) = repeat_passes(
        budget,
        || {
            let registry = registry(&s, Arc::new(MemBackend::new()));
            let started = Instant::now();
            let outcome = simulate_serving(&registry, &s.requests, &config())
                .expect("enrolled envelopes decode");
            let wall_s = secs(started);
            (outcome.served.len() as u64, wall_s, outcome)
        },
        |o| (o.fingerprint(), failures(&s, o)),
        &mut report.setup_s,
        || setup(opts),
    );
    for (p, (_, failed)) in &runs {
        report.attempted += s.requests.len() as u64;
        report.failed += failed;
        report.passes.push(*p);
    }
    let fingerprints: Vec<u64> = runs.iter().map(|(_, (f, _))| *f).collect();
    report.check(
        "repeated runs agree",
        fingerprints.iter().all(|&f| f == fingerprints[0]),
        format!("{} runs, fingerprints {fingerprints:016x?}", fingerprints.len()),
    );
    report.check_eq("queries dropped", reference.dropped, 0);
    report.check_eq("queries served", reference.served.len(), s.requests.len());
    let mut rtts: Vec<u64> = reference.served.iter().map(|r| r.rtt_us()).collect();
    rtts.sort_unstable();
    report.guards = vec![
        ("rtt_p50_vms", vms(nearest_rank(&rtts, 0.50).unwrap_or(0))),
        ("rtt_p99_vms", vms(nearest_rank(&rtts, 0.99).unwrap_or(0))),
    ];

    if opts.trace {
        let counters = Arc::new(StoreCounters::default());
        let backend = TimingBackend::new(Arc::new(MemBackend::new()), Arc::clone(&counters));
        let registry = registry(&s, Arc::new(backend));
        // Only store calls made while serving count; enrollment ran first.
        counters.reset();
        let started = Instant::now();
        let ServeHarness { links, jobs, flow } = serve_harness(&registry, &s.requests, &config());
        let mut timed = TimedFlow::new(flow);
        let sim_started = Instant::now();
        let sim = Simulator::builder().links(links).build().run(&jobs, &mut timed);
        let sim_ns = sim_started.elapsed().as_nanos() as u64;
        let flow_span: Span = timed.span;
        let traced = timed.flow.into_outcome(sim).expect("enrolled envelopes decode");
        let wall_s = secs(started);
        report.attempted += s.requests.len() as u64;
        report.failed += failures(&s, &traced);
        report.check_eq(
            "traced fingerprint equals untraced",
            format!("{:016x}", traced.fingerprint()),
            format!("{:016x}", reference.fingerprint()),
        );
        let stats = registry.stats();
        let batches = traced.batches.len();
        let engine_ns = sim_ns.saturating_sub(flow_span.ns);
        report.layers = vec![
            ("sim.engine.self_ms", engine_ns as f64 / 1e6),
            ("sim.engine.events", traced.sim.events() as f64),
            ("sim.engine.jobs", traced.sim.job_count() as f64),
            ("serve.flow.ms", flow_span.ms()),
            ("serve.flow.calls", flow_span.calls as f64),
            ("serve.flow.gflop", flow_span.gflop()),
            ("serve.flow.batches", batches as f64),
            ("serve.flow.mean_batch", traced.served.len() as f64 / batches.max(1) as f64),
            ("serve.flow.served", traced.served.len() as f64),
            ("registry.decode.count", stats.misses as f64),
            ("registry.hit_rate", stats.hit_rate()),
            ("registry.fallbacks", stats.fallbacks as f64),
        ];
        report.layers.extend(counters.metrics());
        report.layers.push(("trace.coverage", sim_ns as f64 / 1e9 / wall_s));
        report.layers.push(("trace.overhead", wall_s / report.median_pass_s()));
    }
    report
}
