//! Shared wiring for the experiment binaries and bench targets.
//!
//! Every table and series in EXPERIMENTS.md is regenerated by one binary
//! (`cargo run --release -p lfrc-bench --bin expN_…`) or one bench
//! target (`cargo bench -p lfrc-bench --bench eN_…`, driven by the
//! internal [`minibench`] harness). This library holds the
//! implementation registries those targets share.

#![warn(missing_docs)]

pub mod minibench;

pub use minibench::Minibench;

use lfrc_baselines::LockedDeque;
use lfrc_core::{LockWord, McasWord};
use lfrc_deque::{ConcurrentDeque, GcSnark, GcSnarkRepaired, LfrcSnark, LfrcSnarkRepaired};
use lfrc_structures::{
    ConcurrentQueue, ConcurrentStack, GcQueue, GcStack, LfrcQueue, LfrcStack, LlscStack,
};

/// Fresh instances of every deque implementation in the E2 comparison,
/// in table order.
///
/// The repaired variants are used for concurrent measurements (the
/// published ones carry the Doherty defect, which a long benchmark run
/// could theoretically trip); the published ones are included for
/// single-threaded cost because they are the paper's literal code.
pub fn deque_suite() -> Vec<Box<dyn ConcurrentDeque>> {
    vec![
        Box::new(GcSnarkRepaired::<McasWord>::new()),
        Box::new(LfrcSnarkRepaired::<McasWord>::new()),
        Box::new(LfrcSnarkRepaired::<LockWord>::new()),
        Box::new(LockedDeque::<lfrc_deque::NoPause>::new()),
    ]
}

/// Single-threaded-only deque suite (includes the published variants).
pub fn deque_suite_sequential() -> Vec<Box<dyn ConcurrentDeque>> {
    vec![
        Box::new(GcSnark::<McasWord>::new()),
        Box::new(GcSnarkRepaired::<McasWord>::new()),
        Box::new(LfrcSnark::<McasWord>::new()),
        Box::new(LfrcSnarkRepaired::<McasWord>::new()),
        Box::new(LfrcSnarkRepaired::<LockWord>::new()),
        Box::new(LockedDeque::<lfrc_deque::NoPause>::new()),
    ]
}

/// Fresh instances of every stack implementation in the E9 comparison.
pub fn stack_suite() -> Vec<Box<dyn ConcurrentStack>> {
    vec![
        Box::new(GcStack::new()),
        Box::new(LfrcStack::<McasWord>::new()),
        Box::new(LfrcStack::<LockWord>::new()),
        Box::new(LlscStack::<McasWord>::new()),
        Box::new(lfrc_baselines::ValoisStack::new()),
        Box::new(lfrc_baselines::LockedStack::new()),
    ]
}

/// Fresh instances of every queue implementation in the E9 comparison.
pub fn queue_suite() -> Vec<Box<dyn ConcurrentQueue>> {
    vec![
        Box::new(GcQueue::new()),
        Box::new(LfrcQueue::<McasWord>::new()),
        Box::new(LfrcQueue::<LockWord>::new()),
        Box::new(lfrc_baselines::LockedQueue::new()),
    ]
}

/// Measures the average nanoseconds per call of `f` over `iters`
/// iterations (single warmup pass included). Simple, deterministic, and
/// sufficient for the relative comparisons the experiment tables make.
pub fn ns_per_op(iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 + 1 {
        f(); // warmup
    }
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Standard thread counts for sweep tables. The reproduction host may be
/// single-core; the sweep then measures oversubscription behaviour, which
/// still separates blocking from non-blocking designs.
pub const SWEEP_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Workload seed shared by every experiment (reproducibility).
pub const SEED: u64 = 0x5eed_1f2c;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_are_populated_and_named() {
        assert_eq!(deque_suite().len(), 4);
        assert_eq!(deque_suite_sequential().len(), 6);
        assert_eq!(stack_suite().len(), 6);
        assert_eq!(queue_suite().len(), 4);
        for d in deque_suite_sequential() {
            assert!(!d.impl_name().is_empty());
            d.push_left(1);
            assert_eq!(d.pop_right(), Some(1));
        }
        for s in stack_suite() {
            s.push(2);
            assert_eq!(s.pop(), Some(2));
        }
        for q in queue_suite() {
            q.enqueue(3);
            assert_eq!(q.dequeue(), Some(3));
        }
    }

    #[test]
    fn ns_per_op_is_finite() {
        let x = std::hint::black_box(5u64);
        let v = ns_per_op(1_000, || {
            std::hint::black_box(x.wrapping_mul(3));
        });
        assert!(v.is_finite() && v >= 0.0);
    }
}
