//! Treiber stacks: GC-dependent (epoch-reclaimed) and LFRC-transformed.

use std::fmt;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

use lfrc_core::defer::{self, Borrowed};
use lfrc_core::{DcasWord, Heap, Links, Local, PtrField, SharedField, Strategy};
use lfrc_reclaim::{Collector, LocalHandle};

/// A concurrent LIFO stack of `u64` values.
pub trait ConcurrentStack: Send + Sync {
    /// Pushes a value.
    fn push(&self, value: u64);
    /// Pops the most recently pushed value, or `None` if empty.
    fn pop(&self) -> Option<u64>;
    /// Implementation label for benchmark tables.
    fn impl_name(&self) -> String;
}

// ---------------------------------------------------------------------------
// GC-dependent Treiber stack (native CAS + epoch reclamation)
// ---------------------------------------------------------------------------

struct GcNode {
    value: u64,
    next: *mut GcNode,
}

// Safety: nodes are immutable after publication and freed exactly once
// (by the epoch collector, possibly on another thread).
unsafe impl Send for GcNode {}

/// The classic Treiber stack, written as if a garbage collector existed —
/// no counts, no careful loads — and run on epoch-based reclamation.
///
/// A popped node is retired the moment it is unlinked; EBR provides the
/// paper's "GC gives us a free solution to the ABA problem" guarantee
/// (§1): the node cannot be reclaimed (hence its address cannot recur)
/// while any concurrent pop might still be comparing against it.
///
/// # Example
///
/// ```
/// use lfrc_structures::{ConcurrentStack, GcStack};
///
/// let s = GcStack::new();
/// s.push(1);
/// s.push(2);
/// assert_eq!(s.pop(), Some(2));
/// assert_eq!(s.pop(), Some(1));
/// assert_eq!(s.pop(), None);
/// ```
pub struct GcStack {
    head: AtomicPtr<GcNode>,
    collector: Collector,
}

impl fmt::Debug for GcStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GcStack")
            .field("collector", &self.collector)
            .finish()
    }
}

impl Default for GcStack {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// Per-thread EBR handles, keyed by collector identity.
    static GC_HANDLES: std::cell::RefCell<Vec<LocalHandle>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` with a pinned guard for `collector`, creating and caching a
/// thread-local handle on first use.
pub(crate) fn with_gc_guard<R>(
    collector: &Collector,
    f: impl FnOnce(&lfrc_reclaim::epoch::Guard<'_>) -> R,
) -> R {
    GC_HANDLES.with(|cell| {
        let mut handles = cell.borrow_mut();
        if !handles.iter().any(|h| h.collector().ptr_eq(collector)) {
            handles.push(collector.register());
        }
        let handle = handles
            .iter()
            .find(|h| h.collector().ptr_eq(collector))
            .expect("just ensured");
        let guard = handle.pin();
        f(&guard)
    })
}

/// Flushes the calling thread's cached handle for `collector` (if any),
/// then tries a global collection pass. Tests and experiment teardown use
/// this to drain garbage parked in the current thread's bag.
pub fn flush_thread(collector: &Collector) {
    GC_HANDLES.with(|cell| {
        let handles = cell.borrow();
        if let Some(h) = handles.iter().find(|h| h.collector().ptr_eq(collector)) {
            h.flush();
        }
    });
    let temp = collector.register();
    temp.flush();
}

impl GcStack {
    /// Creates an empty stack with its own collector.
    pub fn new() -> Self {
        GcStack {
            head: AtomicPtr::new(ptr::null_mut()),
            collector: Collector::new(),
        }
    }

    /// The stack's collector (for pending-garbage inspection in tests).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }
}

impl ConcurrentStack for GcStack {
    fn push(&self, value: u64) {
        let node = Box::into_raw(Box::new(GcNode {
            value,
            next: ptr::null_mut(),
        }));
        loop {
            let head = self.head.load(Ordering::Acquire);
            // Safety: freshly allocated, not yet shared.
            unsafe { (*node).next = head };
            if self
                .head
                .compare_exchange(head, node, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    fn pop(&self) -> Option<u64> {
        with_gc_guard(&self.collector, |guard| loop {
            let head = self.head.load(Ordering::Acquire);
            if head.is_null() {
                return None;
            }
            // Safety: pinned — `head` cannot be reclaimed while we hold
            // the guard, even if another pop unlinks it first.
            let next = unsafe { (*head).next };
            if self
                .head
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Safety: we unlinked `head`; it is ours to read & retire.
                let value = unsafe { (*head).value };
                unsafe { guard.defer_destroy(head) };
                return Some(value);
            }
        })
    }

    fn impl_name(&self) -> String {
        "stack-gc-ebr/native".to_owned()
    }
}

impl Drop for GcStack {
    fn drop(&mut self) {
        // Free whatever is still linked; retired nodes are handled by the
        // collector when it drops right after.
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // Safety: exclusive access during drop.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next;
        }
    }
}

// ---------------------------------------------------------------------------
// LFRC Treiber stack (methodology steps 1–6 applied)
// ---------------------------------------------------------------------------

/// An LFRC stack node: one link, one value.
pub struct LfrcStackNode<W: DcasWord> {
    value: u64,
    next: PtrField<LfrcStackNode<W>, W>,
}

impl<W: DcasWord> Links<W> for LfrcStackNode<W> {
    fn for_each_link(&self, f: &mut dyn FnMut(&PtrField<Self, W>)) {
        f(&self.next);
    }
}

impl<W: DcasWord> fmt::Debug for LfrcStackNode<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LfrcStackNode")
            .field("value", &self.value)
            .finish()
    }
}

/// The Treiber stack transformed by the LFRC methodology — fully
/// GC-independent, no freelist, memory returned to the allocator as soon
/// as counts drain.
///
/// Garbage is cycle-free by construction (popped nodes chain forward
/// through `next`), so step 3 of the methodology is free here.
///
/// # Example
///
/// ```
/// use lfrc_structures::{ConcurrentStack, LfrcStack};
/// use lfrc_core::McasWord;
///
/// let s: LfrcStack<McasWord> = LfrcStack::new();
/// s.push(1);
/// s.push(2);
/// assert_eq!(s.pop(), Some(2));
/// assert_eq!(s.pop(), Some(1));
/// assert_eq!(s.pop(), None);
/// ```
pub struct LfrcStack<W: DcasWord> {
    head: SharedField<LfrcStackNode<W>, W>,
    heap: Heap<LfrcStackNode<W>, W>,
    strategy: Strategy,
}

impl<W: DcasWord> fmt::Debug for LfrcStack<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LfrcStack")
            .field("census", self.heap.census())
            .finish()
    }
}

impl<W: DcasWord> Default for LfrcStack<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: DcasWord> LfrcStack<W> {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::with_strategy(Strategy::default())
    }

    /// Creates an empty stack using the given counted-load
    /// [`Strategy`], fixed for the instance's lifetime.
    pub fn with_strategy(strategy: Strategy) -> Self {
        LfrcStack {
            head: SharedField::null(),
            heap: Heap::new(),
            strategy,
        }
    }

    /// The heap (for census inspection).
    pub fn heap(&self) -> &Heap<LfrcStackNode<W>, W> {
        &self.heap
    }

    /// The counted-load strategy this instance was built with.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Paper-faithful push: every pointer read is `LFRCLoad`'s DCAS and
    /// every displaced count is released eagerly. Kept verbatim as the
    /// executable specification the differential harness compares the
    /// fast path against.
    fn push_dcas(&self, node: Local<LfrcStackNode<W>, W>) {
        loop {
            let head = self.head.load(); // LFRCLoad: DCAS-counted
            node.next.store(head.as_ref());
            if self.head.compare_and_set(head.as_ref(), Some(&node)) {
                return;
            }
        }
    }

    /// Paper-faithful pop (see [`LfrcStack::push_dcas`]).
    fn pop_dcas(&self) -> Option<u64> {
        loop {
            let Some(head) = self.head.load() else {
                return None; // empty
            };
            let value = head.value;
            let next = head.next.load();
            if self.head.compare_and_set(Some(&head), next.as_ref()) {
                return Some(value);
            }
        }
    }

    /// Deferred-decrement push (DESIGN.md §5.9) — the strategy the doc
    /// comment on [`ConcurrentStack::push`] describes.
    fn push_dec(&self, node: Local<LfrcStackNode<W>, W>) {
        defer::pinned(|pin| loop {
            let head = self.head.load_deferred(pin);
            match head.as_ref() {
                Some(h) => {
                    // Installing into our *own* unpublished node, but the
                    // installed reference must be counted — promote, and
                    // restart if the borrowed head died under us.
                    let Some(counted) = Borrowed::promote(h) else {
                        continue;
                    };
                    node.next.store_consume(counted);
                }
                None => node.next.store(None),
            }
            if self
                .head
                .compare_and_set_deferred(head.as_ref(), Some(&node))
            {
                // Success: the old head's location count is parked on the
                // decrement buffer; `node` drops (its count lives in the
                // head field now).
                return;
            }
        })
    }

    /// Deferred-decrement pop (DESIGN.md §5.9).
    fn pop_dec(&self) -> Option<u64> {
        defer::pinned(|pin| loop {
            let Some(head) = self.head.load_deferred(pin) else {
                return None; // empty
            };
            let value = head.value; // immutable; validated by the CAS
            let next = head.next.load(); // sound even if `head` died (see ops::load)
            if self
                .head
                .compare_and_set_deferred(Some(&head), next.as_ref())
            {
                // The popped node's count is parked, not destroyed: the
                // free (and any cascade) happens at the next flush.
                return Some(value);
            }
        })
    }
}

impl<W: DcasWord> ConcurrentStack for LfrcStack<W> {
    /// Dispatches on the instance's [`Strategy`]. The default,
    /// `DeferredDec`, is the §5.9 fast path: the head is read with a
    /// plain load instead of `LFRCLoad`'s DCAS, and the only count taken
    /// per attempt is the promote that our fresh node's `next` must own.
    /// `Dcas` is the paper-faithful reference.
    fn push(&self, value: u64) {
        let node = self.heap.alloc(LfrcStackNode {
            value,
            next: PtrField::null(),
        });
        match self.strategy {
            Strategy::Dcas => self.push_dcas(node),
            Strategy::DeferredDec => self.push_dec(node),
        }
    }

    /// Dispatches on the instance's [`Strategy`]. Under `DeferredDec`:
    /// one plain load + one counted `next` load + one CAS — versus three
    /// DCAS rounds for `Dcas`. No rc validation is needed: the CAS can
    /// only succeed while the head field still holds `head`, and a
    /// field's own count keeps its referent alive, so success proves
    /// every prior read (immutable `value`, publication-frozen `next`)
    /// saw a live node.
    fn pop(&self) -> Option<u64> {
        match self.strategy {
            Strategy::Dcas => self.pop_dcas(),
            Strategy::DeferredDec => self.pop_dec(),
        }
    }

    fn impl_name(&self) -> String {
        format!("stack-lfrc/{}/{}", W::strategy_name(), self.strategy.name())
    }
}

// `head: SharedField` nulls itself on drop, cascading the whole chain —
// a stack's links are acyclic, so no explicit pop-out loop is needed
// (contrast with Snark's destructor, paper lines 40–44).

#[cfg(test)]
mod tests {
    use super::*;
    use lfrc_core::McasWord;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    fn exercise_sequential<S: ConcurrentStack>(s: &S) {
        assert_eq!(s.pop(), None);
        for v in 1..=10 {
            s.push(v);
        }
        for v in (1..=10).rev() {
            assert_eq!(s.pop(), Some(v));
        }
        assert_eq!(s.pop(), None);
    }

    fn exercise_concurrent<S: ConcurrentStack>(s: &S, threads: usize, per: u64) {
        let sum = AtomicU64::new(0);
        let count = AtomicU64::new(0);
        let barrier = Barrier::new(threads * 2);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (s, barrier) = (&*s, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..per {
                        s.push(t as u64 * per + i + 1);
                    }
                    // Explicit: `scope` can return before this thread's
                    // TLS-destructor flush runs, racing the census read.
                    lfrc_core::defer::flush_thread();
                });
            }
            for _ in 0..threads {
                let (s, barrier, sum, count) = (&*s, &barrier, &sum, &count);
                scope.spawn(move || {
                    barrier.wait();
                    let mut got = 0;
                    let mut idle = 0u32;
                    while got < per && idle < 1_000_000 {
                        match s.pop() {
                            Some(v) => {
                                sum.fetch_add(v, Ordering::Relaxed);
                                count.fetch_add(1, Ordering::Relaxed);
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
        while let Some(v) = s.pop() {
            sum.fetch_add(v, Ordering::Relaxed);
            count.fetch_add(1, Ordering::Relaxed);
        }
        let n = threads as u64 * per;
        assert_eq!(count.load(Ordering::Relaxed), n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
    }

    #[test]
    fn gc_stack_sequential() {
        exercise_sequential(&GcStack::new());
    }

    #[test]
    fn lfrc_stack_sequential() {
        let s: LfrcStack<McasWord> = LfrcStack::new();
        exercise_sequential(&s);
    }

    #[test]
    fn gc_stack_concurrent() {
        exercise_concurrent(&GcStack::new(), 4, 3_000);
    }

    #[test]
    fn lfrc_stack_concurrent() {
        let s: LfrcStack<McasWord> = LfrcStack::new();
        let census = std::sync::Arc::clone(s.heap().census());
        exercise_concurrent(&s, 4, 3_000);
        drop(s);
        // Worker threads flushed their decrement buffers on exit; the
        // main thread (which drained the stack) flushes explicitly.
        lfrc_core::defer::flush_thread();
        assert_eq!(census.live(), 0, "LFRC stack leaked nodes");
    }

    /// Flushes the calling thread's parked decrements, then checks that
    /// every node was freed.
    #[track_caller]
    fn assert_census_drains(census: &lfrc_core::Census) {
        lfrc_core::defer::flush_thread();
        assert_eq!(census.live(), 0, "census did not drain");
    }

    #[test]
    fn lfrc_stack_every_strategy_sequential() {
        for strategy in Strategy::ALL {
            let s: LfrcStack<McasWord> = LfrcStack::with_strategy(strategy);
            assert_eq!(s.strategy(), strategy);
            assert!(
                s.impl_name().ends_with(strategy.name()),
                "{}",
                s.impl_name()
            );
            exercise_sequential(&s);
            let census = std::sync::Arc::clone(s.heap().census());
            drop(s);
            assert_census_drains(&census);
        }
    }

    #[test]
    fn lfrc_stack_dcas_strategy_concurrent() {
        let s: LfrcStack<McasWord> = LfrcStack::with_strategy(Strategy::Dcas);
        let census = std::sync::Arc::clone(s.heap().census());
        exercise_concurrent(&s, 2, 500); // eager DCAS path is slow; keep it small
        drop(s);
        assert_census_drains(&census);
    }

    #[test]
    fn lfrc_stack_memory_shrinks_between_bursts() {
        // The paper's headline property (§1): consumption can "grow and
        // shrink over time" with no freelist.
        let s: LfrcStack<McasWord> = LfrcStack::new();
        for burst in 0..5 {
            for v in 0..1_000 {
                s.push(v);
            }
            assert_eq!(s.heap().census().live(), 1_000, "burst {burst}");
            while s.pop().is_some() {}
            // Popped counts are parked on the decrement buffer; memory
            // shrinks at the flush (bounded by FLUSH_THRESHOLD).
            lfrc_core::defer::flush_thread();
            assert_eq!(s.heap().census().live(), 0, "burst {burst}: did not shrink");
        }
    }

    #[test]
    fn gc_stack_drop_frees_remaining() {
        let s = GcStack::new();
        for v in 0..100 {
            s.push(v);
        }
        s.pop();
        drop(s); // must not leak (asan-less smoke: just exercise the path)
    }

    #[test]
    fn lfrc_stack_drop_cascades_chain() {
        let s: LfrcStack<McasWord> = LfrcStack::new();
        let census = std::sync::Arc::clone(s.heap().census());
        for v in 0..10_000 {
            s.push(v);
        }
        drop(s); // 10k-deep cascade must not overflow the thread stack
        lfrc_core::defer::flush_thread(); // release push-parked units
        assert_eq!(census.live(), 0);
    }
}
