//! Per-thread floating-point-operation accounting.
//!
//! The Pelican paper compares the *compute cost* of cloud-side general-model
//! training against device-side transfer-learning personalization
//! (≈43,000 billion CPU cycles vs ≈15 billion, §V-C2). We reproduce that
//! comparison on simulated hardware by counting the FLOPs every kernel in
//! this crate performs and letting the platform layer convert counts into
//! simulated cycles.
//!
//! Each thread counts only its own work, in thread-local cells. A
//! measurement is therefore exact whatever other threads compute at the
//! same time, which is what keeps the simulated durations built from it
//! deterministic. Work a measured closure hands to another thread is not
//! attributed to it; totals over a pool are built by summing the per-job
//! measurements.

use std::cell::Cell;

thread_local! {
    /// FLOPs recorded by this thread since it started.
    static THREAD_FLOPS: Cell<u64> = const { Cell::new(0) };

    /// FLOPs recorded by *fused batched* kernels on this thread (a subset
    /// of [`THREAD_FLOPS`]).
    ///
    /// Batched kernels record into both counters, so `batched / total` is
    /// the fraction of work that went through a fused path — the number
    /// the `train-report` experiment uses to show how much of an epoch the
    /// lockstep path actually GEMM-ified. Equality of the *total* counter
    /// between a batched and a sequential run is the FLOP-parity contract.
    static THREAD_BATCHED_FLOPS: Cell<u64> = const { Cell::new(0) };
}

/// Adds `n` floating-point operations to this thread's counter.
///
/// Kernels in this crate call this internally; external code only needs it
/// when implementing custom kernels that should participate in overhead
/// accounting.
#[inline]
pub fn record_flops(n: u64) {
    THREAD_FLOPS.with(|c| c.set(c.get().wrapping_add(n)));
}

/// Tags `n` already-recorded FLOPs as having gone through a fused batched
/// kernel.
///
/// Batched kernels call [`record_flops`] with the same count a sequence of
/// their scalar equivalents would have recorded (the FLOP-parity
/// contract), then call this with that count. The tag is therefore always
/// a subset of the total: `thread_batched_flops_now() <= thread_flops_now()`.
#[inline]
pub fn note_batched_flops(n: u64) {
    THREAD_BATCHED_FLOPS.with(|c| c.set(c.get().wrapping_add(n)));
}

/// FLOPs recorded by *this thread* since it started.
#[inline]
pub fn thread_flops_now() -> u64 {
    THREAD_FLOPS.with(Cell::get)
}

/// FLOPs recorded by fused batched kernels on *this thread* since it
/// started.
#[inline]
pub fn thread_batched_flops_now() -> u64 {
    THREAD_BATCHED_FLOPS.with(Cell::get)
}

/// Measures the FLOPs this thread performs between construction and
/// [`FlopGuard::stop`].
///
/// The measured work must stay on one thread; work it spawns elsewhere is
/// not attributed.
///
/// # Example
///
/// ```
/// use pelican_tensor::{FlopGuard, Matrix};
///
/// let guard = FlopGuard::start();
/// let a = Matrix::zeros(8, 8);
/// let _ = a.matmul(&a);
/// let spent = guard.stop();
/// assert_eq!(spent, 2 * 8 * 8 * 8); // 2·m·k·n for GEMM
/// ```
#[derive(Debug)]
pub struct FlopGuard {
    start: u64,
}

impl FlopGuard {
    /// Begins a scoped measurement at this thread's current count.
    pub fn start() -> Self {
        Self { start: thread_flops_now() }
    }

    /// Ends the measurement and returns this thread's FLOPs in between.
    pub fn stop(self) -> u64 {
        thread_flops_now().wrapping_sub(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_measures_delta() {
        let g = FlopGuard::start();
        record_flops(123);
        assert_eq!(g.stop(), 123);
    }

    #[test]
    fn batched_tag_is_a_subset_of_total() {
        let total = FlopGuard::start();
        let batched_before = thread_batched_flops_now();
        record_flops(40);
        note_batched_flops(40); // a fused kernel tags what it recorded
        record_flops(10); // a scalar kernel records untagged
        let batched = thread_batched_flops_now().wrapping_sub(batched_before);
        assert_eq!(total.stop(), 50);
        assert_eq!(batched, 40);
    }

    #[test]
    fn thread_guard_ignores_other_threads() {
        let guard = FlopGuard::start();
        record_flops(11);
        // A concurrent thread records into its own counter and must not
        // perturb this thread's measurement.
        std::thread::spawn(|| record_flops(1_000)).join().unwrap();
        record_flops(4);
        assert_eq!(guard.stop(), 15);
    }
}
