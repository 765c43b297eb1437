//! Cross-crate integration tests: the harness driving every structure,
//! invariant I3 (no leaks) and I4 (conservation) asserted end to end.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use lfrc_repro::baselines::{LockedDeque, LockedQueue, LockedStack, ValoisStack};
use lfrc_repro::core::{LockWord, McasWord};
use lfrc_repro::deque::{ConcurrentDeque, GcSnark, GcSnarkRepaired, LfrcSnark, LfrcSnarkRepaired};
use lfrc_repro::harness::{run_ops, ConservationChecker, DequeOp, DequeWorkload, Mix};
use lfrc_repro::structures::{
    ConcurrentQueue, ConcurrentStack, GcQueue, GcStack, LfrcQueue, LfrcStack,
};

const SEED: u64 = 0xDECADE;

/// Drives a deque through a mixed workload with conservation checking,
/// then drains and verifies the multiset.
fn conserve_deque(d: &dyn ConcurrentDeque, threads: usize, ops_per_thread: u64, mix: Mix) {
    let checker = ConservationChecker::new();
    let ops: Vec<Vec<DequeOp>> = (0..threads)
        .map(|t| {
            let mut w = DequeWorkload::new(SEED, t, mix);
            (0..ops_per_thread).map(|_| w.next_op()).collect()
        })
        .collect();
    run_ops(threads, ops_per_thread, |t, i| match ops[t][i as usize] {
        DequeOp::PushLeft(v) => {
            checker.pushed(v);
            d.push_left(v);
        }
        DequeOp::PushRight(v) => {
            checker.pushed(v);
            d.push_right(v);
        }
        DequeOp::PopLeft => {
            if let Some(v) = d.pop_left() {
                checker.popped(v);
            }
        }
        DequeOp::PopRight => {
            if let Some(v) = d.pop_right() {
                checker.popped(v);
            }
        }
    });
    while let Some(v) = d.pop_left() {
        checker.popped(v);
    }
    // The drain parks decrements on this thread's buffer; flush so
    // callers can assert on the census immediately.
    lfrc_repro::core::flush_thread();
    checker
        .verify()
        .unwrap_or_else(|e| panic!("{}: {e}", d.impl_name()));
}

#[test]
fn all_correct_deques_conserve_under_balanced_mix() {
    // The repaired variants and the locked baseline are exercised
    // concurrently; the published variants are covered by their own
    // moderate tests (known Doherty defect).
    let deques: Vec<Box<dyn ConcurrentDeque>> = vec![
        Box::new(LfrcSnarkRepaired::<McasWord>::new()),
        Box::new(LfrcSnarkRepaired::<LockWord>::new()),
        Box::new(GcSnarkRepaired::<McasWord>::new()),
        Box::new(LockedDeque::<lfrc_repro::deque::NoPause>::new()),
    ];
    for d in &deques {
        conserve_deque(&**d, 4, 2_000, Mix::Balanced);
    }
}

#[test]
fn lfrc_deque_conserves_under_fifo_and_lifo_mixes() {
    for mix in [Mix::Fifo, Mix::Lifo] {
        let d: LfrcSnarkRepaired<McasWord> = LfrcSnarkRepaired::new();
        let census = Arc::clone(d.heap().census());
        conserve_deque(&d, 4, 2_000, mix);
        drop(d);
        assert_eq!(census.live(), 0, "leak under {mix}");
    }
}

#[test]
fn published_variants_conserve_single_consumer_per_end() {
    // With at most one popper per end the Doherty interleaving cannot
    // arise, so the published code is safely testable concurrently.
    for d in [
        Box::new(LfrcSnark::<McasWord>::new()) as Box<dyn ConcurrentDeque>,
        Box::new(GcSnark::<McasWord>::new()),
    ] {
        let checker = ConservationChecker::new();
        std::thread::scope(|s| {
            let (dq, c) = (&*d, &checker);
            s.spawn(move || {
                for v in 1..=8_000u64 {
                    c.pushed(v);
                    if v % 2 == 0 {
                        dq.push_left(v);
                    } else {
                        dq.push_right(v);
                    }
                }
            });
            for side in 0..2u8 {
                let (dq, c) = (&*d, &checker);
                s.spawn(move || {
                    let mut idle = 0u32;
                    while c.popped_count() < 8_000 && idle < 2_000_000 {
                        let v = if side == 0 {
                            dq.pop_left()
                        } else {
                            dq.pop_right()
                        };
                        match v {
                            Some(v) => {
                                c.popped(v);
                                idle = 0;
                            }
                            None => {
                                idle += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                });
            }
        });
        while let Some(v) = d.pop_left() {
            checker.popped(v);
        }
        checker
            .verify()
            .expect("published variant lost/duplicated values");
    }
}

#[test]
fn stacks_conserve_and_release() {
    let stacks: Vec<Box<dyn ConcurrentStack>> = vec![
        Box::new(GcStack::new()),
        Box::new(LfrcStack::<McasWord>::new()),
        Box::new(ValoisStack::new()),
        Box::new(LockedStack::new()),
    ];
    for s in &stacks {
        let checker = ConservationChecker::new();
        run_ops(4, 2_000, |t, i| {
            let v = (t as u64) << 32 | (i + 1);
            if i % 2 == 0 {
                checker.pushed(v);
                s.push(v);
            } else if let Some(v) = s.pop() {
                checker.popped(v);
            }
        });
        while let Some(v) = s.pop() {
            checker.popped(v);
        }
        checker
            .verify()
            .unwrap_or_else(|e| panic!("{}: {e}", s.impl_name()));
    }
}

#[test]
fn queues_conserve_and_preserve_order_per_producer() {
    let queues: Vec<Box<dyn ConcurrentQueue>> = vec![
        Box::new(GcQueue::new()),
        Box::new(LfrcQueue::<McasWord>::new()),
        Box::new(LockedQueue::new()),
    ];
    for q in &queues {
        let checker = ConservationChecker::new();
        // Two producers with disjoint value spaces, two consumers that
        // check per-producer monotonicity (FIFO projection property).
        std::thread::scope(|s| {
            for p in 0..2u64 {
                let (q, c) = (&**q, &checker);
                s.spawn(move || {
                    for i in 1..=4_000u64 {
                        let v = (p << 32) | i;
                        c.pushed(v);
                        q.enqueue(v);
                    }
                });
            }
            for _ in 0..2 {
                let (q, c) = (&**q, &checker);
                s.spawn(move || {
                    let mut last = [0u64; 2];
                    let mut idle = 0u32;
                    while c.popped_count() < 8_000 && idle < 2_000_000 {
                        match q.dequeue() {
                            Some(v) => {
                                let p = (v >> 32) as usize;
                                let i = v & 0xffff_ffff;
                                assert!(
                                    i > last[p],
                                    "{}: FIFO violated for producer {p}",
                                    q.impl_name()
                                );
                                last[p] = i;
                                c.popped(v);
                                idle = 0;
                            }
                            None => {
                                idle += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                });
            }
        });
        while let Some(v) = q.dequeue() {
            checker.popped(v);
        }
        checker
            .verify()
            .unwrap_or_else(|e| panic!("{}: {e}", q.impl_name()));
    }
}

#[test]
fn mixed_structures_share_one_process_cleanly() {
    // All structures running at once in one process: the DCAS emulator's
    // shared epoch domain must serve them all without cross-talk.
    let deque: LfrcSnarkRepaired<McasWord> = LfrcSnarkRepaired::new();
    let stack: LfrcStack<McasWord> = LfrcStack::new();
    let queue: LfrcQueue<McasWord> = LfrcQueue::new();
    let deque_census = Arc::clone(deque.heap().census());
    let stack_census = Arc::clone(stack.heap().census());
    let queue_census = Arc::clone(queue.heap().census());

    let moved = std::sync::atomic::AtomicU64::new(0);
    run_ops(6, 3_000, |t, i| match t % 3 {
        0 => {
            deque.push_left(i + 1);
            if deque.pop_right().is_some() {
                moved.fetch_add(1, Ordering::Relaxed);
            }
        }
        1 => {
            stack.push(i + 1);
            if stack.pop().is_some() {
                moved.fetch_add(1, Ordering::Relaxed);
            }
        }
        _ => {
            queue.enqueue(i + 1);
            if queue.dequeue().is_some() {
                moved.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    assert!(moved.load(Ordering::Relaxed) > 0);
    drop((deque, stack, queue));
    assert_eq!(deque_census.live(), 0);
    assert_eq!(stack_census.live(), 0);
    assert_eq!(queue_census.live(), 0);
    lfrc_repro::dcas::quiesce();
}

// ---------------------------------------------------------------------
// Deferred-decrement buffers across thread exit (DESIGN.md §5.9): a
// thread that dies — normally or by panic — with a non-empty decrement
// buffer must flush it on the way out, so no object is ever leaked by
// deferral. `std::thread::spawn`+`join` is used deliberately: unlike
// `std::thread::scope`, `join` returns only after the thread's TLS
// destructors (and therefore its exit flush) have run.
// ---------------------------------------------------------------------

#[test]
fn thread_exit_with_nonempty_buffer_flushes() {
    let stack: Arc<LfrcStack<McasWord>> = Arc::new(LfrcStack::new());
    let census = Arc::clone(stack.heap().census());
    let worker = {
        let stack = Arc::clone(&stack);
        std::thread::spawn(move || {
            // Each pop parks the old head's decrement on this thread's
            // buffer; 8 entries stay below the flush threshold, so the
            // buffer is guaranteed non-empty at exit.
            for v in 1..=8u64 {
                stack.push(v);
            }
            for _ in 0..8 {
                stack.pop();
            }
            assert!(
                lfrc_repro::core::defer::pending() > 0,
                "test is vacuous: buffer already empty before thread exit"
            );
        })
    };
    worker.join().expect("worker should exit cleanly");
    drop(stack);
    assert_eq!(
        census.live(),
        0,
        "thread exited with buffered decrements that never flushed"
    );
}

#[test]
fn thread_panic_with_nonempty_buffer_flushes() {
    let stack: Arc<LfrcStack<McasWord>> = Arc::new(LfrcStack::new());
    let census = Arc::clone(stack.heap().census());
    let worker = {
        let stack = Arc::clone(&stack);
        std::thread::spawn(move || {
            for v in 1..=8u64 {
                stack.push(v);
            }
            for _ in 0..8 {
                stack.pop();
            }
            assert!(lfrc_repro::core::defer::pending() > 0);
            // Unwind with the buffer non-empty: the TLS destructor must
            // still flush during thread teardown.
            panic!("deliberate test panic with non-empty decrement buffer");
        })
    };
    assert!(worker.join().is_err(), "worker must have panicked");
    drop(stack);
    assert_eq!(
        census.live(),
        0,
        "panicking thread leaked its buffered decrements"
    );
}

/// The scoped-thread variant of the TLS-exit residue: `thread::scope`
/// can return before TLS exit runs, so the harness runner's teardown
/// flushes every worker's parked decrements explicitly. The census must
/// read zero right after the runner returns, with no wait.
#[test]
fn harness_runner_flushes_decrements_before_returning() {
    let stack: LfrcStack<McasWord> = LfrcStack::new();
    let census = Arc::clone(stack.heap().census());
    run_ops(4, 256, |t, i| {
        stack.push(t as u64 * 1000 + i);
        if i % 2 == 1 {
            stack.pop();
        }
    });
    while stack.pop().is_some() {}
    drop(stack);
    lfrc_repro::core::flush_thread(); // this thread's own pops
    assert_eq!(
        census.live(),
        0,
        "worker decrements outlived the runner's teardown flush"
    );
    assert_eq!(census.rc_on_freed(), 0);
}

#[test]
fn deque_with_lock_striped_strategy_is_interchangeable() {
    // The whole stack is generic over the DCAS strategy: the ablation
    // strategy must behave identically (only slower/faster).
    let d: LfrcSnark<LockWord> = LfrcSnark::new();
    for v in 1..=100 {
        d.push_right(v);
    }
    for v in 1..=100 {
        assert_eq!(d.pop_left(), Some(v));
    }
    assert_eq!(d.pop_left(), None);
}
