//! Epoch-based reclamation (EBR), implemented from scratch.
//!
//! This is the "garbage-collected environment" in which the paper's
//! GC-*dependent* implementations run. The scheme is the classic
//! three-epoch design:
//!
//! * A global epoch counter advances monotonically.
//! * Every thread *pins* itself (announcing the epoch it read) before
//!   touching shared nodes, and unpins afterwards.
//! * A node removed from a structure is *retired* into a per-thread bag,
//!   stamped with the epoch at retirement time.
//! * The global epoch can advance from `e` to `e + 1` only when every
//!   pinned thread has announced `e`. Consequently, once the global epoch
//!   reaches `r + 2`, no thread that could have observed a node retired in
//!   epoch `r` is still pinned, and the node can be freed.
//!
//! All paths — registration, pinning, retiring, epoch advancement, and
//! collection — are non-blocking. Threads that exit hand their unfreed
//! garbage to a lock-free *orphan* list that other threads subsequently
//! collect.
//!
//! # Example
//!
//! ```
//! use lfrc_reclaim::Collector;
//!
//! let collector = Collector::new();
//! let handle = collector.register();
//! {
//!     let guard = handle.pin();
//!     // ... read shared nodes; unlink one and retire it:
//!     let node = Box::into_raw(Box::new(42u64));
//!     unsafe { guard.defer_destroy(node) };
//! } // guard dropped: thread unpinned
//! handle.flush();
//! assert_eq!(collector.stats().pending(), 0);
//! ```

use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crate::pad::CachePadded;

use crate::stats::CollectorStats;

/// How many items may accumulate in a thread-local bag before a retire
/// triggers an epoch-advance-and-collect attempt.
const COLLECT_THRESHOLD: usize = 64;

/// Number of orphan nodes a collection pass will adopt at most, bounding
/// the work a single `collect` call performs on behalf of exited threads.
const ORPHAN_ADOPT_LIMIT: usize = 4;

// ---------------------------------------------------------------------------
// Deferred destruction thunks
// ---------------------------------------------------------------------------

/// A type-erased deferred destruction: a function pointer plus its datum.
///
/// Built from a raw pointer by [`Guard::defer_destroy`], or from an
/// arbitrary `FnOnce` by [`Guard::defer`].
struct Deferred {
    data: *mut (),
    call: unsafe fn(*mut ()),
}

// Safety: a `Deferred` is only ever executed once, by whichever thread
// collects it; the constructors require the underlying action to be safe to
// run from another thread (`T: Send` / `F: Send`).
unsafe impl Send for Deferred {}

impl Deferred {
    /// Pairs a raw datum with a plain function pointer — the
    /// zero-allocation constructor behind [`Guard::defer_fn`]. (The
    /// `destroy_box`/`from_fn` constructors monomorphize their own
    /// thunks; this one takes the caller's.)
    fn from_raw_parts(data: *mut (), call: unsafe fn(*mut ())) -> Self {
        Deferred { data, call }
    }

    fn destroy_box<T>(ptr: *mut T) -> Self {
        unsafe fn call<T>(data: *mut ()) {
            // Safety: `data` was produced by `Box::into_raw` upstream.
            drop(unsafe { Box::from_raw(data as *mut T) });
        }
        Deferred {
            data: ptr as *mut (),
            call: call::<T>,
        }
    }

    fn from_fn<F: FnOnce() + Send + 'static>(f: F) -> Self {
        unsafe fn call<F: FnOnce()>(data: *mut ()) {
            // Safety: `data` was produced by `Box::into_raw` in `from_fn`.
            let f = unsafe { Box::from_raw(data as *mut F) };
            f();
        }
        Deferred {
            data: Box::into_raw(Box::new(f)) as *mut (),
            call: call::<F>,
        }
    }

    /// Runs the deferred action, consuming it.
    fn execute(self) {
        // Safety: by construction `call` matches `data`.
        unsafe { (self.call)(self.data) }
    }
}

impl fmt::Debug for Deferred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deferred")
            .field("data", &self.data)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Participant registry
// ---------------------------------------------------------------------------

/// Pinned-state word: `(epoch << 1) | pinned_bit`.
const PINNED: u64 = 1;

struct Participant {
    /// `(epoch << 1) | 1` while pinned, `0` while unpinned.
    state: CachePadded<AtomicU64>,
    /// Whether a live `LocalHandle` currently owns this slot.
    claimed: AtomicBool,
    /// Next participant in the append-only registry list.
    next: AtomicPtr<Participant>,
}

impl Participant {
    fn new() -> Self {
        Participant {
            state: CachePadded::new(AtomicU64::new(0)),
            claimed: AtomicBool::new(true),
            next: AtomicPtr::new(ptr::null_mut()),
        }
    }
}

// ---------------------------------------------------------------------------
// Orphan garbage (from exited threads)
// ---------------------------------------------------------------------------

/// Bag entries everywhere are `(retire_epoch, retire_ns, deferred)`:
/// the epoch drives eligibility, the timestamp (from
/// `lfrc_obs::hist::now_ns`, `0` in no-op builds) feeds the
/// `grace_latency_ns` histogram when the action finally executes.
type Stamped = (u64, u64, Deferred);

struct OrphanNode {
    items: Vec<Stamped>,
    next: *mut OrphanNode,
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

struct Inner {
    global_epoch: CachePadded<AtomicU64>,
    /// Head of the append-only participant list.
    participants: AtomicPtr<Participant>,
    /// Treiber stack of garbage bags abandoned by exited threads.
    orphans: AtomicPtr<OrphanNode>,
    stats: CollectorStats,
}

// Safety: all interior state is atomics; deferred items are `Send`.
unsafe impl Send for Inner {}
unsafe impl Sync for Inner {}

impl Drop for Inner {
    fn drop(&mut self) {
        // No handles remain (they hold an `Arc<Inner>`), so every deferred
        // action is safe to run and every registry node can be freed.
        let mut orphan = *self.orphans.get_mut();
        while !orphan.is_null() {
            // Safety: exclusively owned during drop.
            let node = unsafe { Box::from_raw(orphan) };
            for (_, _, d) in node.items {
                d.execute();
                self.stats.note_freed(1);
            }
            orphan = node.next;
        }
        let mut part = *self.participants.get_mut();
        while !part.is_null() {
            // Safety: exclusively owned during drop.
            let node = unsafe { Box::from_raw(part) };
            part = node.next.load(Ordering::Relaxed);
        }
    }
}

/// An epoch-based garbage collector instance.
///
/// Cloning a `Collector` is cheap (it is reference-counted); clones share
/// the same global epoch, participant registry, and garbage. Each thread
/// that wants to access structures protected by this collector calls
/// [`Collector::register`] once and pins the returned [`LocalHandle`]
/// around every operation.
#[derive(Clone)]
pub struct Collector {
    inner: Arc<Inner>,
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector")
            .field("epoch", &self.inner.global_epoch.load(Ordering::Relaxed))
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// Creates a fresh, empty collector.
    pub fn new() -> Self {
        Collector {
            inner: Arc::new(Inner {
                global_epoch: CachePadded::new(AtomicU64::new(2)),
                participants: AtomicPtr::new(ptr::null_mut()),
                orphans: AtomicPtr::new(ptr::null_mut()),
                stats: CollectorStats::new(),
            }),
        }
    }

    /// Registers the calling thread, returning its local handle.
    ///
    /// Registration first tries to reuse a slot vacated by an exited
    /// thread; otherwise it pushes a new slot onto the registry with a
    /// single CAS. Either path is lock-free.
    pub fn register(&self) -> LocalHandle {
        // Try to reclaim a vacated slot.
        let mut cur = self.inner.participants.load(Ordering::Acquire);
        while !cur.is_null() {
            // Safety: registry nodes live until the collector is dropped.
            let node = unsafe { &*cur };
            if !node.claimed.load(Ordering::Relaxed)
                && node
                    .claimed
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                return LocalHandle::new(self.clone(), cur);
            }
            cur = node.next.load(Ordering::Acquire);
        }
        // Push a new slot.
        let node = Box::into_raw(Box::new(Participant::new()));
        loop {
            let head = self.inner.participants.load(Ordering::Acquire);
            // Safety: freshly allocated, not yet shared.
            unsafe { (*node).next.store(head, Ordering::Relaxed) };
            if self
                .inner
                .participants
                .compare_exchange(head, node, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return LocalHandle::new(self.clone(), node);
            }
        }
    }

    /// Returns a snapshot of this collector's counters.
    pub fn stats(&self) -> crate::stats::StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Current global epoch (for diagnostics and tests).
    pub fn epoch(&self) -> u64 {
        self.inner.global_epoch.load(Ordering::Acquire)
    }

    /// Returns `true` if `other` is a handle into the same collector.
    pub fn ptr_eq(&self, other: &Collector) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Attempts to advance the global epoch by one.
    ///
    /// Succeeds only when every currently pinned participant has announced
    /// the current epoch. Returns the epoch observed (post-advance value if
    /// the CAS succeeded).
    fn try_advance(&self) -> u64 {
        let global = self.inner.global_epoch.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let mut cur = self.inner.participants.load(Ordering::Acquire);
        while !cur.is_null() {
            // Safety: registry nodes live until the collector is dropped.
            let node = unsafe { &*cur };
            let state = node.state.load(Ordering::Acquire);
            if state & PINNED == PINNED && state >> 1 != global {
                // Somebody is pinned in an older epoch: cannot advance.
                lfrc_obs::counters::incr(lfrc_obs::Counter::EpochAdvanceBlocked);
                lfrc_obs::counters::record_max(
                    lfrc_obs::Counter::EpochLagHighWater,
                    global.saturating_sub(state >> 1),
                );
                return global;
            }
            cur = node.next.load(Ordering::Acquire);
        }
        match self.inner.global_epoch.compare_exchange(
            global,
            global + 1,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                self.inner.stats.note_advance();
                global + 1
            }
            Err(now) => now,
        }
    }

    /// Pushes a bag of stamped garbage onto the orphan list.
    fn push_orphans(&self, items: Vec<Stamped>) {
        if items.is_empty() {
            return;
        }
        let node = Box::into_raw(Box::new(OrphanNode {
            items,
            next: ptr::null_mut(),
        }));
        loop {
            let head = self.inner.orphans.load(Ordering::Acquire);
            // Safety: freshly allocated, not yet shared.
            unsafe { (*node).next = head };
            if self
                .inner
                .orphans
                .compare_exchange(head, node, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Pops one orphan bag, if any.
    fn pop_orphan(&self) -> Option<Box<OrphanNode>> {
        loop {
            let head = self.inner.orphans.load(Ordering::Acquire);
            if head.is_null() {
                return None;
            }
            // Safety: orphan nodes are only freed by the thread that pops
            // them, and only one thread's CAS can succeed per node.
            let next = unsafe { (*head).next };
            if self
                .inner
                .orphans
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Safety: we won the pop.
                return Some(unsafe { Box::from_raw(head) });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// LocalHandle
// ---------------------------------------------------------------------------

/// A thread's registration with a [`Collector`].
///
/// Not `Send`: the handle caches thread-local state (pin depth and the
/// garbage bag). Create one per thread via [`Collector::register`].
pub struct LocalHandle {
    collector: Collector,
    participant: *const Participant,
    pin_depth: Cell<usize>,
    /// Garbage retired by this thread, stamped with its retirement epoch
    /// and wall time. Epochs are appended in nondecreasing order, so
    /// eligibility is a prefix test.
    bag: UnsafeCell<Vec<Stamped>>,
    /// Opt out of `Send`/`Sync`.
    _not_send: PhantomData<*mut ()>,
}

impl fmt::Debug for LocalHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalHandle")
            .field("pin_depth", &self.pin_depth.get())
            .finish()
    }
}

impl LocalHandle {
    fn new(collector: Collector, participant: *const Participant) -> Self {
        LocalHandle {
            collector,
            participant,
            pin_depth: Cell::new(0),
            bag: UnsafeCell::new(Vec::new()),
            _not_send: PhantomData,
        }
    }

    fn participant(&self) -> &Participant {
        // Safety: registry nodes live as long as the collector, which we
        // hold an `Arc` to.
        unsafe { &*self.participant }
    }

    /// Pins the current thread, returning a guard that keeps it pinned.
    ///
    /// Pinning is reentrant; nested pins are cheap (a counter bump).
    pub fn pin(&self) -> Guard<'_> {
        let depth = self.pin_depth.get();
        if depth == 0 {
            let state = self.participant();
            let global = &self.collector.inner.global_epoch;
            let mut epoch = global.load(Ordering::Relaxed);
            loop {
                state.state.store((epoch << 1) | PINNED, Ordering::Relaxed);
                // The fence orders our announcement before any subsequent
                // shared reads, and synchronizes with `try_advance`.
                fence(Ordering::SeqCst);
                let now = global.load(Ordering::Relaxed);
                if now == epoch {
                    break;
                }
                // The epoch moved between our read and announcement; re-pin
                // at the fresh epoch so we do not stall advancement.
                epoch = now;
            }
            self.collector.inner.stats.note_pin();
        }
        self.pin_depth.set(depth + 1);
        Guard {
            local: self,
            _not_send: PhantomData,
        }
    }

    /// Returns `true` while the thread holds at least one pin guard.
    pub fn is_pinned(&self) -> bool {
        self.pin_depth.get() > 0
    }

    /// The collector this handle belongs to.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    fn unpin(&self) {
        let depth = self.pin_depth.get();
        debug_assert!(depth > 0, "unpin without matching pin");
        self.pin_depth.set(depth - 1);
        if depth == 1 {
            self.participant().state.store(0, Ordering::Release);
        }
    }

    #[allow(clippy::mut_from_ref)] // single-threaded interior mutability, see safety note
    fn bag_mut(&self) -> &mut Vec<Stamped> {
        // Safety: `LocalHandle` is `!Send + !Sync`; only the owning thread
        // reaches this cell, and no reentrancy touches the bag while a
        // mutable borrow is live (collection never calls user code that
        // could re-enter `retire` on the same handle mid-borrow: deferred
        // destructors run only in `collect`, after the borrow ends).
        unsafe { &mut *self.bag.get() }
    }

    fn retire(&self, deferred: Deferred) {
        let epoch = self.collector.inner.global_epoch.load(Ordering::Acquire);
        self.bag_mut()
            .push((epoch, lfrc_obs::hist::now_ns(), deferred));
        self.collector.inner.stats.note_retired(1);
        if self.bag_mut().len() >= COLLECT_THRESHOLD {
            self.collect();
        }
    }

    /// Attempts to advance the epoch and free eligible garbage.
    ///
    /// Also adopts a bounded amount of garbage abandoned by exited threads.
    pub fn collect(&self) {
        let global = self.collector.try_advance();
        self.reap_local(global);
        self.reap_orphans(global);
    }

    /// Drains everything this thread can legally free right now, advancing
    /// the epoch as many times as possible. Intended for tests and teardown;
    /// with no concurrently pinned threads this frees *all* garbage.
    pub fn flush(&self) {
        // Three collects push one generation of garbage through the
        // two-epoch grace period — but executing a deferred action may
        // itself defer more work at the *current* epoch (a pooled-slot
        // release that empties its slab defers the slab's deallocation),
        // so one generation is not necessarily the end. Keep going while
        // passes make progress; stop as soon as a full generation frees
        // nothing (pending then only holds garbage some still-pinned
        // thread protects).
        loop {
            let before = self.collector.stats().pending();
            for _ in 0..3 {
                self.collect();
            }
            let after = self.collector.stats().pending();
            if after == 0 || after >= before {
                return;
            }
        }
    }

    fn reap_local(&self, global: u64) {
        // Move the eligible prefix out of the bag *before* executing any
        // of it: a deferred action may re-enter `retire` on this same
        // handle (a pooled-slot release that empties its slab defers the
        // slab's own deallocation), which would otherwise push into the
        // bag while `drain` holds the mutable borrow.
        let eligible: Vec<(u64, Deferred)> = {
            let bag = self.bag_mut();
            let n = bag.iter().take_while(|(e, _, _)| e + 2 <= global).count();
            bag.drain(..n).map(|(_, ts, d)| (ts, d)).collect()
        };
        if !eligible.is_empty() {
            let freed = eligible.len() as u64;
            let now = lfrc_obs::hist::now_ns();
            for (ts, d) in eligible {
                d.execute();
                if ts != 0 {
                    lfrc_obs::hist::record(
                        lfrc_obs::hist::Hist::GraceLatencyNs,
                        now.saturating_sub(ts),
                    );
                }
            }
            self.collector.inner.stats.note_freed(freed);
        }
    }

    fn reap_orphans(&self, global: u64) {
        for _ in 0..ORPHAN_ADOPT_LIMIT {
            let Some(node) = self.collector.pop_orphan() else {
                return;
            };
            let mut keep = Vec::new();
            let mut freed = 0u64;
            let now = lfrc_obs::hist::now_ns();
            for (e, ts, d) in node.items {
                if e + 2 <= global {
                    d.execute();
                    if ts != 0 {
                        lfrc_obs::hist::record(
                            lfrc_obs::hist::Hist::GraceLatencyNs,
                            now.saturating_sub(ts),
                        );
                    }
                    freed += 1;
                } else {
                    keep.push((e, ts, d));
                }
            }
            self.collector.inner.stats.note_freed(freed);
            self.collector.push_orphans(keep);
            if freed == 0 {
                // Nothing in the orphan list is eligible yet; stop churning.
                return;
            }
        }
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        debug_assert_eq!(
            self.pin_depth.get(),
            0,
            "LocalHandle dropped while pinned (a Guard outlived its handle?)"
        );
        // Hand any unfreed garbage to the orphan list and vacate the slot.
        let leftovers = std::mem::take(self.bag_mut());
        self.collector.push_orphans(leftovers);
        self.participant().claimed.store(false, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Guard
// ---------------------------------------------------------------------------

/// Keeps the owning thread pinned; memory retired by other threads after
/// this guard was created will not be freed while it lives.
///
/// Obtained from [`LocalHandle::pin`]. Dropping the guard unpins (subject
/// to reentrant nesting).
pub struct Guard<'a> {
    local: &'a LocalHandle,
    _not_send: PhantomData<*mut ()>,
}

impl fmt::Debug for Guard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Guard").finish_non_exhaustive()
    }
}

impl Guard<'_> {
    /// Defers destruction of a `Box`-allocated object until no pinned
    /// thread can still observe it.
    ///
    /// # Safety
    ///
    /// * `ptr` must have been produced by [`Box::into_raw`].
    /// * The object must already be unreachable to threads that pin *after*
    ///   this call (i.e. unlinked from the shared structure).
    /// * No thread may dereference `ptr` after its epoch ends.
    pub unsafe fn defer_destroy<T: Send + 'static>(&self, ptr: *mut T) {
        self.local.retire(Deferred::destroy_box(ptr));
    }

    /// Defers an arbitrary action until the current epoch is safely past.
    pub fn defer<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.local.retire(Deferred::from_fn(f));
    }

    /// Defers `call(data)` until the current epoch is safely past,
    /// without allocating: the pair is pushed straight into the thread's
    /// garbage bag. This is the hot-path variant of [`Guard::defer`] used
    /// by the slab pool's slot releases (one per freed LFRC object — a
    /// boxed closure there would put the allocator back on the free
    /// path the pool exists to take it off).
    ///
    /// # Safety
    ///
    /// * `call(data)` must be safe to invoke exactly once, from any
    ///   thread (the pair is `Send` by fiat).
    /// * The action must uphold the same reachability contract as
    ///   [`Guard::defer_destroy`]: whatever `data` names must already be
    ///   unreachable to threads that pin after this call.
    pub unsafe fn defer_fn(&self, data: *mut (), call: unsafe fn(*mut ())) {
        self.local.retire(Deferred::from_raw_parts(data, call));
    }

    /// The handle this guard pins.
    pub fn handle(&self) -> &LocalHandle {
        self.local
    }

    /// Eagerly attempts an advance-and-collect cycle while pinned.
    ///
    /// A pin at the **current** global epoch does not block advancement
    /// (only pins at *older* epochs do — see `Collector::try_advance`),
    /// so calling this from inside the guard that retired a batch still
    /// moves the epoch one step forward. It does *not* free that same
    /// batch: garbage stamped at epoch `e` needs the global epoch to
    /// reach `e + 2`, and after the first advance our own pin is the
    /// older-epoch straggler that blocks the second. The deferred-
    /// decrement flush in `lfrc-core` (DESIGN.md §5.9) relies on exactly
    /// this one-step nudge: each flush's pin re-announces the fresh
    /// epoch, so flush *N*'s garbage becomes reclaimable during flush
    /// *N + 1* — a one-cycle lag, never a stall.
    pub fn collect(&self) {
        self.local.collect();
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.local.unpin();
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn unpinned_flush_frees_everything() {
        let c = Collector::new();
        let h = c.register();
        {
            let g = h.pin();
            for _ in 0..10 {
                let p = Box::into_raw(Box::new(7u64));
                unsafe { g.defer_destroy(p) };
            }
        }
        h.flush();
        let s = c.stats();
        assert_eq!(s.retired, 10);
        assert_eq!(s.freed, 10);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Noisy;
        impl Drop for Noisy {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);

        let c = Collector::new();
        let reader = c.register();
        let writer = c.register();

        let read_guard = reader.pin();
        {
            let g = writer.pin();
            let p = Box::into_raw(Box::new(Noisy));
            unsafe { g.defer_destroy(p) };
        }
        writer.flush();
        // The reader pinned *before* retirement is still active: the epoch
        // cannot advance two steps, so the object must not be dropped.
        assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        drop(read_guard);
        writer.flush();
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn reentrant_pin_keeps_single_announcement() {
        let c = Collector::new();
        let h = c.register();
        let g1 = h.pin();
        let g2 = h.pin();
        assert!(h.is_pinned());
        drop(g1);
        assert!(h.is_pinned());
        drop(g2);
        assert!(!h.is_pinned());
    }

    #[test]
    fn orphans_are_adopted_by_other_threads() {
        let c = Collector::new();
        {
            let h = c.register();
            let g = h.pin();
            for _ in 0..5 {
                let p = Box::into_raw(Box::new([0u8; 16]));
                unsafe { g.defer_destroy(p) };
            }
            drop(g);
            // `h` drops here with garbage still in its bag.
        }
        let survivor = c.register();
        survivor.flush();
        assert_eq!(c.stats().pending(), 0);
    }

    #[test]
    fn collect_under_own_pin_advances_one_step_per_cycle() {
        // The deferred-decrement flush (lfrc-core `defer`, DESIGN.md §5.9)
        // runs `guard.collect()` while the flushing thread is itself
        // pinned. Lock in the exact progress guarantee it relies on: a
        // pin at the *current* epoch permits one advance (so the flush is
        // not a no-op), and the batch it retired becomes reclaimable on
        // the *next* pin-and-collect cycle — a one-cycle lag, not a stall.
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Noisy;
        impl Drop for Noisy {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);

        let c = Collector::new();
        let h = c.register();

        let before = c.epoch();
        {
            let g = h.pin();
            let p = Box::into_raw(Box::new(Noisy));
            unsafe { g.defer_destroy(p) };
            // Still pinned: collect may advance once (our announcement is
            // current), then our own pin becomes the older-epoch
            // straggler, so further advances and the free are deferred.
            for _ in 0..4 {
                g.collect();
            }
        }
        assert_eq!(
            c.epoch(),
            before + 1,
            "a pin at the current epoch must allow exactly one advance"
        );
        assert_eq!(DROPS.load(Ordering::SeqCst), 0);

        // Next cycle: the fresh pin announces the new epoch, so collect
        // can advance again and reap the previous cycle's garbage.
        {
            let g = h.pin();
            g.collect();
        }
        assert_eq!(
            DROPS.load(Ordering::SeqCst),
            1,
            "the previous cycle's batch must be reclaimed one cycle later"
        );
    }

    #[test]
    fn slot_reuse_after_thread_exit() {
        let c = Collector::new();
        let h1 = c.register();
        let p1 = h1.participant as usize;
        drop(h1);
        let h2 = c.register();
        assert_eq!(p1, h2.participant as usize, "vacated slot should be reused");
    }

    #[test]
    fn collector_drop_frees_orphans() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Noisy;
        impl Drop for Noisy {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        {
            let c = Collector::new();
            let h = c.register();
            {
                let g = h.pin();
                let p = Box::into_raw(Box::new(Noisy));
                unsafe { g.defer_destroy(p) };
            }
            // Neither flushed nor collected: lands on the orphan list.
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_retire_stress() {
        const THREADS: usize = 8;
        const OPS: usize = 2_000;
        let c = Collector::new();
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let h = c.register();
                    barrier.wait();
                    for i in 0..OPS {
                        let g = h.pin();
                        let p = Box::into_raw(Box::new(i as u64));
                        unsafe { g.defer_destroy(p) };
                        drop(g);
                    }
                    h.flush();
                });
            }
        });
        let survivor = c.register();
        survivor.flush();
        let s = c.stats();
        assert_eq!(s.retired, (THREADS * OPS) as u64);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn epoch_advances_under_use() {
        let c = Collector::new();
        let h = c.register();
        let before = c.epoch();
        for _ in 0..10 {
            let g = h.pin();
            let p = Box::into_raw(Box::new(0u8));
            unsafe { g.defer_destroy(p) };
            drop(g);
            h.collect();
        }
        assert!(c.epoch() > before);
    }

    #[test]
    fn defer_closure_runs() {
        let c = Collector::new();
        let h = c.register();
        let hit = Arc::new(AtomicUsize::new(0));
        {
            let g = h.pin();
            let hit2 = Arc::clone(&hit);
            g.defer(move || {
                hit2.fetch_add(1, Ordering::SeqCst);
            });
        }
        h.flush();
        assert_eq!(hit.load(Ordering::SeqCst), 1);
    }
}
