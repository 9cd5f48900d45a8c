//! Outside probes: host-time and FLOP accounting wrapped around calls
//! into each layer's public functions.
//!
//! Nothing here feeds a value back into the program under test. The
//! wrappers only time and count the calls they forward, so a traced run
//! must produce the same fingerprints and envelope bytes as an untraced
//! one (checked on every traced run and by the smoke test).
//!
//! FLOPs are read only from the per-thread counters
//! ([`thread_flops_now`], [`thread_batched_flops_now`]): the process-wide
//! counter mixes in whatever other threads compute at the same time.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pelican_serve::ServeFlow;
use pelican_sim::{JobReport, SimControl, Workload};
use pelican_store::StorageBackend;
use pelican_tensor::{thread_batched_flops_now, thread_flops_now};

/// Accumulated cost of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Host time inside the layer, in nanoseconds.
    pub ns: u64,
    /// Calls into the layer.
    pub calls: u64,
    /// FLOPs the calling thread recorded inside the layer.
    pub flops: u64,
    /// The part of `flops` that went through fused batched kernels.
    pub batched_flops: u64,
}

impl Span {
    /// Host time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }

    /// FLOPs in units of 10⁹.
    pub fn gflop(&self) -> f64 {
        self.flops as f64 / 1e9
    }

    fn add(&mut self, other: &Span) {
        self.ns += other.ns;
        self.calls += other.calls;
        self.flops += other.flops;
        self.batched_flops += other.batched_flops;
    }
}

/// Per-layer spans recorded by one thread, keyed by the layer names of
/// the benchmark's metric list (`train.fit`, `audit.attack`, ...).
#[derive(Debug, Clone)]
pub struct Layers {
    spans: BTreeMap<&'static str, Span>,
    enabled: bool,
}

impl Default for Layers {
    fn default() -> Self {
        Self { spans: BTreeMap::new(), enabled: true }
    }
}

impl Layers {
    /// Spans that record nothing: [`Layers::time`] just calls through, so
    /// one code path serves untraced and traced passes.
    pub fn disabled() -> Self {
        Self { spans: BTreeMap::new(), enabled: false }
    }

    /// Runs `f` as one call into `layer`, charging its host time and this
    /// thread's FLOPs to the layer.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let flops = thread_flops_now();
        let batched = thread_batched_flops_now();
        let started = Instant::now();
        let out = f();
        let span = Span {
            ns: started.elapsed().as_nanos() as u64,
            calls: 1,
            flops: thread_flops_now().wrapping_sub(flops),
            batched_flops: thread_batched_flops_now().wrapping_sub(batched),
        };
        self.spans.entry(layer).or_default().add(&span);
        out
    }

    fn record(&mut self, layer: &'static str, span: Span) {
        self.spans.entry(layer).or_default().add(&span);
    }

    /// Folds another thread's spans into these.
    pub fn merge(&mut self, other: &Layers) {
        for (layer, span) in &other.spans {
            self.record(layer, *span);
        }
    }

    /// The accumulated span of `layer` (zero when it was never entered).
    pub fn get(&self, layer: &str) -> Span {
        self.spans.get(layer).copied().unwrap_or_default()
    }

    /// Host time summed over every layer, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.spans.values().map(|s| s.ns).sum()
    }
}

/// Lock-free counters of one backend operation class.
#[derive(Debug, Default)]
struct OpCounter {
    ns: AtomicU64,
    calls: AtomicU64,
    bytes: AtomicU64,
}

impl OpCounter {
    fn time<T>(
        &self,
        f: impl FnOnce() -> io::Result<T>,
        bytes: impl Fn(&T) -> u64,
    ) -> io::Result<T> {
        let started = Instant::now();
        let out = f();
        self.ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(value) = &out {
            self.bytes.fetch_add(bytes(value), Ordering::Relaxed);
        }
        out
    }

    fn reset(&self) {
        self.ns.store(0, Ordering::Relaxed);
        self.calls.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
    }

    /// `(span, bytes)` so far.
    fn snapshot(&self) -> (Span, u64) {
        let span = Span {
            ns: self.ns.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            ..Span::default()
        };
        (span, self.bytes.load(Ordering::Relaxed))
    }
}

/// What a [`TimingBackend`] has counted: `store.append`, `store.sync`
/// and `store.read` (whole-file and ranged reads together).
#[derive(Debug, Default)]
pub struct StoreCounters {
    /// Appends; bytes are the bytes appended.
    append: OpCounter,
    /// Durability barriers; bytes are the appended bytes each barrier
    /// made durable.
    sync: OpCounter,
    /// Reads; bytes are the bytes returned.
    read: OpCounter,
}

impl StoreCounters {
    /// Forgets everything counted so far.
    pub fn reset(&self) {
        for counter in [&self.append, &self.sync, &self.read] {
            counter.reset();
        }
    }

    /// `store.{append,sync,read}.{ms,calls,bytes}`.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        const NAMES: [[&str; 3]; 3] = [
            ["store.append.ms", "store.append.calls", "store.append.bytes"],
            ["store.sync.ms", "store.sync.calls", "store.sync.bytes"],
            ["store.read.ms", "store.read.calls", "store.read.bytes"],
        ];
        NAMES
            .iter()
            .zip([&self.append, &self.sync, &self.read])
            .flat_map(|(&[ms, calls, bytes], counter)| {
                let (span, b) = counter.snapshot();
                [(ms, span.ms()), (calls, span.calls as f64), (bytes, b as f64)]
            })
            .collect()
    }

    /// Host time of every counted call, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        [&self.append, &self.sync, &self.read].iter().map(|c| c.snapshot().0.ns).sum()
    }
}

/// A [`StorageBackend`] that forwards every call to `inner` and times
/// appends, syncs and reads on the way through.
#[derive(Debug)]
pub struct TimingBackend {
    inner: Arc<dyn StorageBackend>,
    counters: Arc<StoreCounters>,
    /// Bytes appended to each file since its last sync.
    unsynced: Mutex<HashMap<String, u64>>,
}

impl TimingBackend {
    /// Wraps `inner`, counting into `counters` (shared with the caller,
    /// and with other wrappers of the same medium, e.g. after a reopen).
    pub fn new(inner: Arc<dyn StorageBackend>, counters: Arc<StoreCounters>) -> Self {
        Self { inner, counters, unsynced: Mutex::new(HashMap::new()) }
    }

    fn unsynced(&self) -> std::sync::MutexGuard<'_, HashMap<String, u64>> {
        self.unsynced.lock().expect("unsynced-bytes table poisoned by a panicking store call")
    }
}

impl StorageBackend for TimingBackend {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.counters.read.time(|| self.inner.read(name), |v| v.len() as u64)
    }

    fn read_range(&self, name: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.counters.read.time(|| self.inner.read_range(name, offset, len), |v| v.len() as u64)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.counters.append.time(|| self.inner.append(name, bytes), |_| bytes.len() as u64)?;
        *self.unsynced().entry(name.to_string()).or_default() += bytes.len() as u64;
        Ok(())
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        let pending = self.unsynced().remove(name).unwrap_or(0);
        self.counters.sync.time(|| self.inner.sync(name), |_| pending)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.unsynced().remove(name);
        self.inner.remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        self.inner.size(name)
    }
}

/// A [`Workload`] that forwards every callback to the serving flow and
/// times it: the `serve.flow` layer. Whatever else `Simulator::run`
/// spends is the engine's own time.
pub struct TimedFlow<'a> {
    /// The wrapped serving flow.
    pub flow: ServeFlow<'a>,
    /// Time, callbacks and FLOPs spent inside the flow.
    pub span: Span,
}

impl<'a> TimedFlow<'a> {
    /// Wraps a flow.
    pub fn new(flow: ServeFlow<'a>) -> Self {
        Self { flow, span: Span::default() }
    }

    fn timed(&mut self, f: impl FnOnce(&mut ServeFlow<'a>)) {
        let flops = thread_flops_now();
        let started = Instant::now();
        f(&mut self.flow);
        self.span.ns += started.elapsed().as_nanos() as u64;
        self.span.calls += 1;
        self.span.flops += thread_flops_now().wrapping_sub(flops);
    }
}

impl Workload for TimedFlow<'_> {
    fn on_job_end(&mut self, job: &JobReport, sim: &mut SimControl) {
        self.timed(|flow| flow.on_job_end(job, sim));
    }

    fn on_timer(&mut self, key: u64, sim: &mut SimControl) {
        self.timed(|flow| flow.on_timer(key, sim));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelican_store::MemBackend;

    #[test]
    fn timing_backend_forwards_and_counts() {
        let counters = Arc::new(StoreCounters::default());
        let backend = TimingBackend::new(Arc::new(MemBackend::new()), Arc::clone(&counters));
        backend.append("a", &[1, 2, 3]).unwrap();
        backend.append("a", &[4]).unwrap();
        backend.sync("a").unwrap();
        backend.sync("a").unwrap();
        assert_eq!(backend.read("a").unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(backend.read_range("a", 1, 2).unwrap(), vec![2, 3]);
        let metric = |name: &str| {
            counters.metrics().into_iter().find(|(n, _)| *n == name).map(|(_, v)| v).unwrap()
        };
        for class in ["append", "sync", "read"] {
            assert_eq!(metric(&format!("store.{class}.calls")), 2.0);
        }
        assert_eq!(metric("store.append.bytes"), 4.0);
        assert_eq!(metric("store.sync.bytes"), 4.0);
        assert_eq!(metric("store.read.bytes"), 6.0);
        assert!(counters.total_ns() > 0);
        counters.reset();
        assert_eq!(counters.total_ns(), 0);
    }

    #[test]
    fn layers_merge_sums_spans() {
        let mut a = Layers::default();
        a.record("x", Span { ns: 5, calls: 1, flops: 7, batched_flops: 0 });
        let mut b = Layers::default();
        b.record("x", Span { ns: 1, calls: 2, flops: 3, batched_flops: 1 });
        b.time("y", || ());
        a.merge(&b);
        assert_eq!(a.get("x"), Span { ns: 6, calls: 3, flops: 10, batched_flops: 1 });
        assert_eq!(a.get("y").calls, 1);
        assert_eq!(a.get("z"), Span::default());
    }
}
