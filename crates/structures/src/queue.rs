//! Michael–Scott queues: GC-dependent (epoch-reclaimed) and
//! LFRC-transformed.
//!
//! The Michael–Scott queue is the paper's reference \[13\] — cited as an
//! example of a lock-free structure that, without GC, must "require
//! maintenance of a special freelist, whose storage cannot in general be
//! reused for other purposes". The LFRC transformation removes that
//! restriction: nodes go back to the general allocator the moment their
//! counts drain.

use std::fmt;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use lfrc_core::defer::{self, Borrowed};
use lfrc_core::{DcasWord, Heap, Links, Local, PtrField, SharedField, Strategy};
use lfrc_reclaim::Collector;

use crate::stack::with_gc_guard;

/// A concurrent FIFO queue of `u64` values.
pub trait ConcurrentQueue: Send + Sync {
    /// Enqueues a value at the tail.
    fn enqueue(&self, value: u64);
    /// Dequeues the oldest value, or `None` if empty.
    fn dequeue(&self) -> Option<u64>;
    /// Implementation label for benchmark tables.
    fn impl_name(&self) -> String;
}

// ---------------------------------------------------------------------------
// GC-dependent M&S queue (native CAS + epoch reclamation)
// ---------------------------------------------------------------------------

struct GcNode {
    value: AtomicU64,
    next: AtomicPtr<GcNode>,
}

/// The classic two-lock-free Michael–Scott queue, written GC-style and
/// run on epoch-based reclamation (a dequeued sentinel is retired at its
/// unlink point).
///
/// # Example
///
/// ```
/// use lfrc_structures::{ConcurrentQueue, GcQueue};
///
/// let q = GcQueue::new();
/// q.enqueue(1);
/// q.enqueue(2);
/// assert_eq!(q.dequeue(), Some(1));
/// assert_eq!(q.dequeue(), Some(2));
/// assert_eq!(q.dequeue(), None);
/// ```
pub struct GcQueue {
    head: AtomicPtr<GcNode>,
    tail: AtomicPtr<GcNode>,
    collector: Collector,
}

impl fmt::Debug for GcQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GcQueue")
            .field("collector", &self.collector)
            .finish()
    }
}

impl Default for GcQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl GcQueue {
    /// Creates an empty queue (one sentinel node).
    pub fn new() -> Self {
        let sentinel = Box::into_raw(Box::new(GcNode {
            value: AtomicU64::new(0),
            next: AtomicPtr::new(ptr::null_mut()),
        }));
        GcQueue {
            head: AtomicPtr::new(sentinel),
            tail: AtomicPtr::new(sentinel),
            collector: Collector::new(),
        }
    }

    /// The queue's collector (for pending-garbage inspection in tests).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }
}

impl ConcurrentQueue for GcQueue {
    fn enqueue(&self, value: u64) {
        let node = Box::into_raw(Box::new(GcNode {
            value: AtomicU64::new(value),
            next: AtomicPtr::new(ptr::null_mut()),
        }));
        with_gc_guard(&self.collector, |_| loop {
            let tail = self.tail.load(Ordering::Acquire);
            // Safety: pinned; tail cannot be reclaimed under us.
            let next = unsafe { (*tail).next.load(Ordering::Acquire) };
            if next.is_null() {
                if unsafe { &(*tail).next }
                    .compare_exchange(ptr::null_mut(), node, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // Swing the tail; failure means someone helped.
                    let _ =
                        self.tail
                            .compare_exchange(tail, node, Ordering::AcqRel, Ordering::Acquire);
                    return;
                }
            } else {
                // Help a lagging enqueuer.
                let _ = self
                    .tail
                    .compare_exchange(tail, next, Ordering::AcqRel, Ordering::Acquire);
            }
        })
    }

    fn dequeue(&self) -> Option<u64> {
        with_gc_guard(&self.collector, |guard| loop {
            let head = self.head.load(Ordering::Acquire);
            let tail = self.tail.load(Ordering::Acquire);
            // Safety: pinned.
            let next = unsafe { (*head).next.load(Ordering::Acquire) };
            if next.is_null() {
                return None;
            }
            if head == tail {
                // Tail is lagging behind an in-flight enqueue: help.
                let _ = self
                    .tail
                    .compare_exchange(tail, next, Ordering::AcqRel, Ordering::Acquire);
                continue;
            }
            // Read the value *before* the CAS (Michael & Scott's order):
            // after the CAS another dequeuer may retire `next`'s
            // predecessor role. Pinned, so the read is safe either way.
            let value = unsafe { (*next).value.load(Ordering::Acquire) };
            if self
                .head
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Old sentinel is unlinked: retire it.
                // Safety: unlinked, retired once.
                unsafe { guard.defer_destroy(head) };
                return Some(value);
            }
        })
    }

    fn impl_name(&self) -> String {
        "queue-gc-ebr/native".to_owned()
    }
}

impl Drop for GcQueue {
    fn drop(&mut self) {
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // Safety: exclusive access during drop.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next.load(Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// LFRC M&S queue
// ---------------------------------------------------------------------------

/// An LFRC queue node.
pub struct LfrcQueueNode<W: DcasWord> {
    value: u64,
    next: PtrField<LfrcQueueNode<W>, W>,
}

impl<W: DcasWord> Links<W> for LfrcQueueNode<W> {
    fn for_each_link(&self, f: &mut dyn FnMut(&PtrField<Self, W>)) {
        f(&self.next);
    }
}

impl<W: DcasWord> fmt::Debug for LfrcQueueNode<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LfrcQueueNode")
            .field("value", &self.value)
            .finish()
    }
}

/// The Michael–Scott queue transformed by the LFRC methodology.
///
/// Dequeued sentinels chain forward through `next`, so garbage is
/// cycle-free (step 3 holds naturally). Note how the problematic M&S
/// moment — reading `next->value` while another thread may be freeing
/// `next` — is benign here: the dequeuer's `LFRCLoad` of `head->next`
/// took a counted reference, which is the whole point of the paper's
/// DCAS-based load.
///
/// # Example
///
/// ```
/// use lfrc_structures::{ConcurrentQueue, LfrcQueue};
/// use lfrc_core::McasWord;
///
/// let q: LfrcQueue<McasWord> = LfrcQueue::new();
/// q.enqueue(7);
/// q.enqueue(8);
/// assert_eq!(q.dequeue(), Some(7));
/// assert_eq!(q.dequeue(), Some(8));
/// assert_eq!(q.dequeue(), None);
/// ```
pub struct LfrcQueue<W: DcasWord> {
    head: SharedField<LfrcQueueNode<W>, W>,
    tail: SharedField<LfrcQueueNode<W>, W>,
    heap: Heap<LfrcQueueNode<W>, W>,
    strategy: Strategy,
}

impl<W: DcasWord> fmt::Debug for LfrcQueue<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LfrcQueue")
            .field("census", self.heap.census())
            .finish()
    }
}

impl<W: DcasWord> Default for LfrcQueue<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: DcasWord> LfrcQueue<W> {
    /// Creates an empty queue (one sentinel node, rc owned by `head` and
    /// `tail`).
    pub fn new() -> Self {
        Self::with_strategy(Strategy::default())
    }

    /// Creates an empty queue using the given counted-load [`Strategy`],
    /// fixed for the instance's lifetime.
    pub fn with_strategy(strategy: Strategy) -> Self {
        let heap: Heap<LfrcQueueNode<W>, W> = Heap::new();
        let sentinel = heap.alloc(LfrcQueueNode {
            value: 0,
            next: PtrField::null(),
        });
        let q = LfrcQueue {
            head: SharedField::null(),
            tail: SharedField::null(),
            heap,
            strategy,
        };
        q.head.store(Some(&sentinel));
        q.tail.store(Some(&sentinel));
        q
    }

    /// The heap (for census inspection).
    pub fn heap(&self) -> &Heap<LfrcQueueNode<W>, W> {
        &self.heap
    }

    /// The counted-load strategy this instance was built with.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Paper-faithful enqueue: every pointer read is `LFRCLoad`'s DCAS,
    /// every displaced count released eagerly — the executable spec the
    /// differential harness compares the fast path against.
    fn enqueue_dcas(&self, node: Local<LfrcQueueNode<W>, W>) {
        loop {
            let tail = self.tail.load().expect("tail is never null");
            let next = tail.next.load();
            match next {
                None => {
                    if tail.next.compare_and_set(None, Some(&node)) {
                        // Linearized; swing the tail (ok to fail).
                        let _ = self.tail.compare_and_set(Some(&tail), Some(&node));
                        return;
                    }
                }
                Some(ref next) => {
                    // Help the lagging enqueuer.
                    let _ = self.tail.compare_and_set(Some(&tail), Some(next));
                }
            }
        }
    }

    /// Paper-faithful dequeue (see [`LfrcQueue::enqueue_dcas`]).
    fn dequeue_dcas(&self) -> Option<u64> {
        loop {
            let head = self.head.load().expect("head is never null");
            let tail = self.tail.load().expect("tail is never null");
            let next = head.next.load();
            let Some(next) = next else {
                return None; // counted loads: null is always genuine
            };
            if Local::ptr_eq(&head, &tail) {
                let _ = self.tail.compare_and_set(Some(&tail), Some(&next));
                continue;
            }
            let value = next.value; // counted reference: safe read
            if self.head.compare_and_set(Some(&head), Some(&next)) {
                return Some(value);
            }
        }
    }

    /// Deferred-decrement enqueue (DESIGN.md §5.9) — see the doc comment
    /// on [`ConcurrentQueue::enqueue`] for why the promote is
    /// load-bearing here.
    fn enqueue_dec(&self, node: Local<LfrcQueueNode<W>, W>) {
        defer::pinned(|pin| loop {
            let tail = self.tail.load_deferred(pin).expect("tail is never null");
            let Some(tail_l) = Borrowed::promote(&tail) else {
                continue; // tail died before we could hold it; re-read
            };
            let next = tail_l.next.load(); // counted; `tail_l` keeps it sound
            match next {
                None => {
                    if tail_l.next.compare_and_set(None, Some(&node)) {
                        // Linearized; swing the tail (ok to fail).
                        let _ = self.tail.compare_and_set_deferred(Some(&tail), Some(&node));
                        return;
                    }
                }
                Some(ref next) => {
                    // Help the lagging enqueuer.
                    let _ = self.tail.compare_and_set_deferred(Some(&tail), Some(next));
                }
            }
        })
    }

    /// Deferred-decrement dequeue (DESIGN.md §5.9).
    fn dequeue_dec(&self) -> Option<u64> {
        defer::pinned(|pin| loop {
            let head = self.head.load_deferred(pin).expect("head is never null");
            let tail = self.tail.load_deferred(pin).expect("tail is never null");
            let next = head.next.load(); // sound even if `head` died (see ops::load)
            let Some(next) = next else {
                // Null may be genuine (empty queue) or `head`'s harvested
                // field. A nonzero count *after* the read proves harvest
                // had not begun when we read it.
                if Borrowed::ref_count(&head) > 0 {
                    return None;
                }
                continue;
            };
            if Borrowed::ptr_eq(&head, &tail) {
                let _ = self.tail.compare_and_set_deferred(Some(&tail), Some(&next));
                continue;
            }
            let value = next.value; // counted reference: safe read
            if self.head.compare_and_set_deferred(Some(&head), Some(&next)) {
                // Old sentinel's location count is parked; its free (and
                // cascade) runs at the next flush instead of here.
                return Some(value);
            }
        })
    }
}

impl<W: DcasWord> ConcurrentQueue for LfrcQueue<W> {
    /// Dispatches on the instance's [`Strategy`]. Under the default
    /// `DeferredDec` (§5.9) the tail is read with a plain load, then
    /// **promoted** before anything is installed into its `next` —
    /// installing into a freed node's harvested field would strand the
    /// new node (harvest already ran; nothing would ever release it), so
    /// the promote's held count is load-bearing there. `Dcas` is the
    /// paper-faithful reference.
    fn enqueue(&self, value: u64) {
        let node = self.heap.alloc(LfrcQueueNode {
            value,
            next: PtrField::null(),
        });
        match self.strategy {
            Strategy::Dcas => self.enqueue_dcas(node),
            Strategy::DeferredDec => self.enqueue_dec(node),
        }
    }

    /// Dispatches on the instance's [`Strategy`]. Under `DeferredDec`,
    /// head and tail are plain loads; the only DCAS rounds are the
    /// `next` load and the head swing, which parks the old sentinel's
    /// count on the decrement buffer — a dequeue never pays the
    /// sentinel's free (the paper's per-dequeue pause) inline.
    fn dequeue(&self) -> Option<u64> {
        match self.strategy {
            Strategy::Dcas => self.dequeue_dcas(),
            Strategy::DeferredDec => self.dequeue_dec(),
        }
    }

    fn impl_name(&self) -> String {
        format!("queue-lfrc/{}/{}", W::strategy_name(), self.strategy.name())
    }
}

// head/tail SharedFields release their references on drop; the node chain
// is acyclic, so the cascade frees any values still enqueued.

#[cfg(test)]
mod tests {
    use super::*;
    use lfrc_core::McasWord;
    use std::sync::atomic::{AtomicU64 as Counter, Ordering as O};
    use std::sync::Barrier;

    fn exercise_sequential<Q: ConcurrentQueue>(q: &Q) {
        assert_eq!(q.dequeue(), None);
        for v in 1..=10 {
            q.enqueue(v);
        }
        for v in 1..=10 {
            assert_eq!(q.dequeue(), Some(v));
        }
        assert_eq!(q.dequeue(), None);
        // Interleaved.
        q.enqueue(1);
        q.enqueue(2);
        assert_eq!(q.dequeue(), Some(1));
        q.enqueue(3);
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), None);
    }

    fn exercise_concurrent<Q: ConcurrentQueue>(q: &Q, threads: usize, per: u64) {
        let sum = Counter::new(0);
        let count = Counter::new(0);
        let barrier = Barrier::new(threads * 2);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (q, barrier) = (&*q, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..per {
                        q.enqueue(t as u64 * per + i + 1);
                    }
                    // Explicit: `scope` can return before this thread's
                    // TLS-destructor flush runs, racing the census read.
                    lfrc_core::defer::flush_thread();
                });
            }
            for _ in 0..threads {
                let (q, barrier, sum, count) = (&*q, &barrier, &sum, &count);
                scope.spawn(move || {
                    barrier.wait();
                    let mut got = 0;
                    let mut idle = 0u32;
                    while got < per && idle < 1_000_000 {
                        match q.dequeue() {
                            Some(v) => {
                                sum.fetch_add(v, O::Relaxed);
                                count.fetch_add(1, O::Relaxed);
                                got += 1;
                                idle = 0;
                            }
                            None => {
                                idle += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    lfrc_core::defer::flush_thread();
                });
            }
        });
        while let Some(v) = q.dequeue() {
            sum.fetch_add(v, O::Relaxed);
            count.fetch_add(1, O::Relaxed);
        }
        let n = threads as u64 * per;
        assert_eq!(count.load(O::Relaxed), n);
        assert_eq!(sum.load(O::Relaxed), n * (n + 1) / 2);
    }

    #[test]
    fn gc_queue_sequential() {
        exercise_sequential(&GcQueue::new());
    }

    #[test]
    fn lfrc_queue_sequential() {
        let q: LfrcQueue<McasWord> = LfrcQueue::new();
        exercise_sequential(&q);
    }

    #[test]
    fn gc_queue_concurrent() {
        exercise_concurrent(&GcQueue::new(), 4, 3_000);
    }

    #[test]
    fn lfrc_queue_concurrent() {
        let q: LfrcQueue<McasWord> = LfrcQueue::new();
        let census = std::sync::Arc::clone(q.heap().census());
        exercise_concurrent(&q, 4, 3_000);
        drop(q);
        lfrc_core::defer::flush_thread(); // main thread's parked counts
        assert_eq!(census.live(), 0, "LFRC queue leaked nodes");
    }

    /// Flushes the calling thread's parked decrements, then checks that
    /// every node was freed.
    #[track_caller]
    fn assert_census_drains(census: &lfrc_core::Census) {
        lfrc_core::defer::flush_thread();
        assert_eq!(census.live(), 0, "census did not drain");
    }

    #[test]
    fn lfrc_queue_every_strategy_sequential() {
        for strategy in Strategy::ALL {
            let q: LfrcQueue<McasWord> = LfrcQueue::with_strategy(strategy);
            assert_eq!(q.strategy(), strategy);
            assert!(
                q.impl_name().ends_with(strategy.name()),
                "{}",
                q.impl_name()
            );
            exercise_sequential(&q);
            let census = std::sync::Arc::clone(q.heap().census());
            drop(q);
            assert_census_drains(&census);
        }
    }

    #[test]
    fn lfrc_queue_dcas_strategy_concurrent() {
        let q: LfrcQueue<McasWord> = LfrcQueue::with_strategy(Strategy::Dcas);
        let census = std::sync::Arc::clone(q.heap().census());
        exercise_concurrent(&q, 2, 500); // eager DCAS path is slow; keep it small
        drop(q);
        assert_census_drains(&census);
    }

    #[test]
    fn lfrc_queue_fifo_per_producer() {
        // Single producer, single consumer: strict FIFO must hold.
        let q: LfrcQueue<McasWord> = LfrcQueue::new();
        std::thread::scope(|s| {
            let qp = &q;
            s.spawn(move || {
                for v in 1..=5_000u64 {
                    qp.enqueue(v);
                }
            });
            let qc = &q;
            s.spawn(move || {
                let mut last = 0;
                let mut got = 0;
                let mut idle = 0u32;
                while got < 5_000 && idle < 1_000_000 {
                    if let Some(v) = qc.dequeue() {
                        assert!(v > last, "FIFO violated: {v} after {last}");
                        last = v;
                        got += 1;
                        idle = 0;
                    } else {
                        idle += 1;
                        std::thread::yield_now();
                    }
                }
                assert_eq!(got, 5_000);
            });
        });
    }

    #[test]
    fn lfrc_queue_drop_frees_enqueued() {
        let q: LfrcQueue<McasWord> = LfrcQueue::new();
        let census = std::sync::Arc::clone(q.heap().census());
        for v in 0..1_000 {
            q.enqueue(v);
        }
        drop(q);
        lfrc_core::defer::flush_thread(); // tail swings parked counts
        assert_eq!(census.live(), 0);
    }

    #[test]
    fn gc_queue_reclaims_through_epochs() {
        let q = GcQueue::new();
        for v in 0..200 {
            q.enqueue(v);
        }
        for _ in 0..200 {
            q.dequeue();
        }
        // Flush this thread's cached handle (it holds the retired bag).
        crate::stack::flush_thread(q.collector());
        let stats = q.collector().stats();
        assert_eq!(
            stats.pending(),
            0,
            "EBR failed to reclaim dequeued sentinels"
        );
        assert_eq!(stats.retired, 200);
    }
}
