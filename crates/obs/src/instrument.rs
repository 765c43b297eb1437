//! Cross-crate yield points for deterministic schedule exploration.
//!
//! The LFRC safety argument is about *interleavings*: the weakened
//! reference-count invariant must hold no matter where a thread is
//! preempted. The windows where it could break are known and small — the
//! `LFRCLoad` DCAS window, the destroy decrement, the span between an
//! MCAS descriptor's installation and its resolution, and the slab pool's
//! recycle/retire edges — so those program points call [`yield_point`],
//! and a scheduler (the `lfrc-sched` crate) installs a per-thread hook
//! that turns each call into a deterministic context-switch opportunity.
//!
//! When no hook is installed (every production and ordinary-test thread),
//! a yield point is one thread-local read and nothing else.
//!
//! This module lives in `lfrc-obs` — the bottom of the crate graph — so
//! that *every* instrumented crate (`lfrc-dcas`, `lfrc-core`,
//! `lfrc-deque`, `lfrc-pool`) can reach it without dependency cycles:
//! the pool sits below the DCAS emulation (which epoch-defers the pool's
//! slab retirement) yet still needs its own yield sites. The dependency arrow
//! points from the tool to the code under test, never back; `lfrc-dcas`
//! re-exports this module under its historical path
//! (`lfrc_dcas::instrument`), so call sites are unchanged.
//!
//! Unlike [`counters`](crate::counters) and
//! [`recorder`](crate::recorder), this module is **not** gated on the
//! `enabled` cargo feature: schedule exploration must work in
//! `--no-default-features` builds (the `obs-off` leg of CI's `test`
//! matrix exercises exactly that), and an un-hooked yield point is
//! already free of atomics.

use std::cell::RefCell;

/// An instrumented program point — the sites where schedule exploration
/// may preempt a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum InstrSite {
    /// `LFRCLoad`: between reading the referent's count and attempting
    /// the DCAS (Figure 2 lines 8–9) — the window the paper's whole
    /// construction exists to make safe.
    LoadDcasWindow,
    /// `LFRCDestroy`: immediately before a reference-count decrement.
    DestroyDecrement,
    /// MCAS phase 1: an RDCSS descriptor was installed into a cell but
    /// the operation is not yet resolved — other threads can now observe
    /// and help the half-done operation.
    RdcssInstalled,
    /// MCAS: phase 1 complete, the status CAS (the linearization point)
    /// not yet attempted.
    McasBeforeStatusCas,
    /// `LockWord`: spinning on a stripe held by another thread. Without a
    /// yield here a cooperative scheduler would spin forever while the
    /// stripe's holder sits descheduled.
    LockSpin,
    /// Deque: a push has read the hat(s) but not yet attempted its DCAS.
    DequePushBeforeDcas,
    /// Deque: a pop has read the hats but not yet examined the end node.
    DequePopAfterReadHats,
    /// Deque: a pop is about to attempt its structural DCAS.
    DequePopBeforeDcas,
    /// Deque: a repaired pop has won its structural DCAS but not yet
    /// claimed the value.
    DequePopBeforeClaim,
    /// Deferred destroy: a counted reference is about to be appended to
    /// the calling thread's decrement buffer (the count is parked, not
    /// yet released — see `lfrc-core`'s `defer` module).
    DeferAppend,
    /// Deferred destroy: a buffer flush has pinned the epoch and is about
    /// to apply its batched decrements.
    DeferFlush,
    /// Deferred destroy: the batched decrements have been applied; the
    /// flush is about to attempt an epoch advance (physical reclamation).
    DeferEpochAdvance,
    /// An uncounted pin-scoped pointer read (the deferred fast path's
    /// `load_deferred`/`borrow`) — no count is taken, so this read races
    /// against concurrent destroys by design.
    BorrowLoad,
    /// A borrowed reference is being promoted to a counted one: between
    /// reading a nonzero count and the CAS that increments it — the
    /// CAS-only window of §1 made sound by the pin plus CAS-from-nonzero.
    BorrowPromote,
    /// Pool: a magazine hit is about to hand out a cached (possibly
    /// previously used) slot — the recycle edge where a stale reader
    /// racing the slot's previous life would be caught.
    PoolMagazineHit,
    /// Pool: a slot is about to be pushed onto its owning slab's
    /// lock-free remote-free stack (cross-thread free / magazine
    /// overflow), the window between the push and the slab's free-count
    /// update.
    PoolRemoteFree,
    /// Pool: a fully-free slab has been chosen for retirement but its
    /// physical deallocation has not yet been epoch-deferred — the window
    /// the one-epoch retirement lag exists to protect.
    PoolSlabRetire,
    /// Immortal descriptors: a thread is about to claim (reuse) one of
    /// its immortal MCAS/RDCSS descriptor slots — the status word has
    /// not yet entered the CLAIMING state, so stale helpers still see
    /// the previous operation's terminal seq.
    DescClaim,
    /// Immortal descriptors: the slot's fields have been rewritten for
    /// the new operation but the publish store (seq'd UNDECIDED status)
    /// has not yet happened — helpers observing CLAIMING must abandon.
    DescSeqBump,
    /// Immortal descriptors: a helper has unpacked a seq'd descriptor
    /// word and is about to validate the slot's current sequence against
    /// it — the window where the owner may complete and reuse the slot,
    /// forcing the helper to abandon.
    DescHelperValidate,
}

impl InstrSite {
    /// Small stable tag, mixed into schedule trace hashes. A retired
    /// site's tag is never reused, so the sequence may have gaps (18–22
    /// are retired).
    pub const fn tag(self) -> u64 {
        match self {
            InstrSite::LoadDcasWindow => 1,
            InstrSite::DestroyDecrement => 2,
            InstrSite::RdcssInstalled => 3,
            InstrSite::McasBeforeStatusCas => 4,
            InstrSite::LockSpin => 5,
            InstrSite::DequePushBeforeDcas => 6,
            InstrSite::DequePopAfterReadHats => 7,
            InstrSite::DequePopBeforeDcas => 8,
            InstrSite::DequePopBeforeClaim => 9,
            InstrSite::DeferAppend => 10,
            InstrSite::DeferFlush => 11,
            InstrSite::DeferEpochAdvance => 12,
            InstrSite::BorrowLoad => 13,
            InstrSite::BorrowPromote => 14,
            InstrSite::PoolMagazineHit => 15,
            InstrSite::PoolRemoteFree => 16,
            InstrSite::PoolSlabRetire => 17,
            InstrSite::DescClaim => 23,
            InstrSite::DescSeqBump => 24,
            InstrSite::DescHelperValidate => 25,
        }
    }

    /// Human-readable site name, used in schedule dumps.
    pub fn name(self) -> &'static str {
        match self {
            InstrSite::LoadDcasWindow => "load-dcas-window",
            InstrSite::DestroyDecrement => "destroy-decrement",
            InstrSite::RdcssInstalled => "rdcss-installed",
            InstrSite::McasBeforeStatusCas => "mcas-before-status-cas",
            InstrSite::LockSpin => "lock-spin",
            InstrSite::DequePushBeforeDcas => "deque-push-before-dcas",
            InstrSite::DequePopAfterReadHats => "deque-pop-after-read-hats",
            InstrSite::DequePopBeforeDcas => "deque-pop-before-dcas",
            InstrSite::DequePopBeforeClaim => "deque-pop-before-claim",
            InstrSite::DeferAppend => "defer-append",
            InstrSite::DeferFlush => "defer-flush",
            InstrSite::DeferEpochAdvance => "defer-epoch-advance",
            InstrSite::BorrowLoad => "borrow-load",
            InstrSite::BorrowPromote => "borrow-promote",
            InstrSite::PoolMagazineHit => "pool-magazine-hit",
            InstrSite::PoolRemoteFree => "pool-remote-free",
            InstrSite::PoolSlabRetire => "pool-slab-retire",
            InstrSite::DescClaim => "desc-claim",
            InstrSite::DescSeqBump => "desc-seq-bump",
            InstrSite::DescHelperValidate => "desc-helper-validate",
        }
    }

    /// Every instrumented site, in tag order. Fault-injection sweeps
    /// iterate this to prove each site is actually reachable.
    pub const ALL: [InstrSite; 20] = [
        InstrSite::LoadDcasWindow,
        InstrSite::DestroyDecrement,
        InstrSite::RdcssInstalled,
        InstrSite::McasBeforeStatusCas,
        InstrSite::LockSpin,
        InstrSite::DequePushBeforeDcas,
        InstrSite::DequePopAfterReadHats,
        InstrSite::DequePopBeforeDcas,
        InstrSite::DequePopBeforeClaim,
        InstrSite::DeferAppend,
        InstrSite::DeferFlush,
        InstrSite::DeferEpochAdvance,
        InstrSite::BorrowLoad,
        InstrSite::BorrowPromote,
        InstrSite::PoolMagazineHit,
        InstrSite::PoolRemoteFree,
        InstrSite::PoolSlabRetire,
        InstrSite::DescClaim,
        InstrSite::DescSeqBump,
        InstrSite::DescHelperValidate,
    ];

    /// The largest [`tag`](Self::tag) (`ALL` is in tag order). Per-site
    /// tables indexed by `tag - 1` are sized by this, not by `ALL.len()`.
    pub const MAX_TAG: u64 = Self::ALL[Self::ALL.len() - 1].tag();

    /// Whether this site fires from inside the slab pool.
    ///
    /// Pool sites are special for deterministic scheduling: whether the
    /// allocator reaches them depends on *process-global* pool state
    /// (magazine fill, remote-free stacks, slab occupancy) that other
    /// threads — including ones outside the scheduled run — mutate
    /// freely. A schedule whose decisions consume pool sites is therefore
    /// not a pure function of `(seed, bodies)`, so the scheduler skips
    /// them unless a test opts in.
    pub fn is_pool(self) -> bool {
        matches!(
            self,
            InstrSite::PoolMagazineHit | InstrSite::PoolRemoteFree | InstrSite::PoolSlabRetire
        )
    }
}

/// A per-thread yield hook.
pub type InstrHook = Box<dyn FnMut(InstrSite)>;

thread_local! {
    static HOOK: RefCell<Option<InstrHook>> = const { RefCell::new(None) };
}

/// Called at every instrumented site. Invokes the calling thread's hook
/// if one is installed; a no-op otherwise.
///
/// Sites are reachable from thread-exit destructors (a vacating thread
/// drains its pool magazines, which can remote-free and even retire a
/// slab), so this must tolerate the hook's own TLS slot being already
/// destroyed — `try_with` treats that as "no hook installed".
#[inline]
pub fn yield_point(site: InstrSite) {
    let _ = HOOK.try_with(|h| {
        // The hook may block for a long time (that is its purpose: the
        // scheduler parks the thread here). Re-entry is impossible — the
        // thread is inside the hook, so it cannot reach another site.
        if let Some(f) = h.borrow_mut().as_mut() {
            f(site);
        }
    });
}

/// Installs (or clears) the yield hook for the calling thread.
pub fn set_thread_hook(hook: Option<InstrHook>) {
    HOOK.with(|h| *h.borrow_mut() = hook);
}

/// Whether the calling thread currently has a yield hook installed.
pub fn hook_installed() -> bool {
    HOOK.with(|h| h.borrow().is_some())
}

// ---------------------------------------------------------------------------
// Allocation-fault injection
// ---------------------------------------------------------------------------

/// An allocation decision point — somewhere the runtime asks for memory
/// and has a defined story for being told "no".
///
/// These are deliberately distinct from [`InstrSite`]: a yield site is a
/// place a thread may be *preempted* (or killed); an alloc site is a
/// place an allocation may be *refused*. The two compose — a schedule can
/// preempt at a yield site and refuse the very next allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AllocSite {
    /// `Heap::alloc_pooled` asking the slab pool for an `LfrcBox` slot.
    /// Refusal exercises the documented pooled→global fallback.
    HeapPooled,
    /// The global-allocator fallback for an `LfrcBox`. Refusal surfaces
    /// as a clean `Err` from the fallible `Heap::try_alloc` path (the
    /// infallible `Heap::alloc` would abort, as `Box::new` does).
    HeapGlobal,
    /// The slab pool's refill cold path (magazine miss). Refusal makes
    /// `lfrc_pool::alloc` return `None`, which every caller must treat
    /// as "fall back to the global allocator".
    PoolRefill,
}

impl AllocSite {
    /// Every alloc-fault site, in tag order; OOM sweeps iterate this.
    pub const ALL: [AllocSite; 3] = [
        AllocSite::HeapPooled,
        AllocSite::HeapGlobal,
        AllocSite::PoolRefill,
    ];

    /// The largest [`tag`](Self::tag); see [`InstrSite::MAX_TAG`].
    pub const MAX_TAG: u64 = Self::ALL[Self::ALL.len() - 1].tag();

    /// Small stable tag, mixed into schedule trace hashes. A retired
    /// site's tag is never reused, so the sequence may have gaps.
    pub const fn tag(self) -> u64 {
        match self {
            AllocSite::HeapPooled => 1,
            AllocSite::HeapGlobal => 2,
            AllocSite::PoolRefill => 4,
        }
    }

    /// Human-readable site name, used in fault-plan dumps.
    pub fn name(self) -> &'static str {
        match self {
            AllocSite::HeapPooled => "heap-pooled",
            AllocSite::HeapGlobal => "heap-global",
            AllocSite::PoolRefill => "pool-refill",
        }
    }
}

/// A per-thread allocation-fault hook: returns `false` to make the
/// allocation at `site` fail.
pub type AllocHook = Box<dyn FnMut(AllocSite) -> bool>;

#[cfg(feature = "inject")]
thread_local! {
    static ALLOC_HOOK: RefCell<Option<AllocHook>> = const { RefCell::new(None) };
}

/// Whether allocation-fault checks are compiled in (`inject` feature).
///
/// Schedulers that were handed a fault plan with OOM specs use this to
/// fail loudly instead of silently running a faultless schedule.
pub const fn alloc_faults_compiled() -> bool {
    cfg!(feature = "inject")
}

/// Called at every fallible allocation site. `true` means proceed;
/// `false` means the caller must take its allocation-failure path.
///
/// Without the `inject` feature this is a constant `true` and the
/// failure branch folds away entirely; with it, an un-hooked thread pays
/// one thread-local read (same contract as [`yield_point`], including
/// tolerance of TLS teardown).
#[inline]
pub fn alloc_allowed(site: AllocSite) -> bool {
    #[cfg(feature = "inject")]
    {
        ALLOC_HOOK
            .try_with(|h| match h.borrow_mut().as_mut() {
                Some(f) => f(site),
                None => true,
            })
            .unwrap_or(true)
    }
    #[cfg(not(feature = "inject"))]
    {
        let _ = site;
        true
    }
}

/// Installs (or clears) the allocation-fault hook for the calling
/// thread. Without the `inject` feature the hook is dropped unused.
pub fn set_thread_alloc_hook(hook: Option<AllocHook>) {
    #[cfg(feature = "inject")]
    ALLOC_HOOK.with(|h| *h.borrow_mut() = hook);
    #[cfg(not(feature = "inject"))]
    drop(hook);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn no_hook_is_silent() {
        yield_point(InstrSite::LoadDcasWindow);
        assert!(!hook_installed());
    }

    #[test]
    fn hook_sees_sites_and_is_thread_local() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        set_thread_hook(Some(Box::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        })));
        yield_point(InstrSite::DestroyDecrement);
        yield_point(InstrSite::RdcssInstalled);
        assert_eq!(hits.load(Ordering::SeqCst), 2);

        let h2 = Arc::clone(&hits);
        std::thread::spawn(move || {
            yield_point(InstrSite::DestroyDecrement);
            assert_eq!(h2.load(Ordering::SeqCst), 2, "hooks are per-thread");
        })
        .join()
        .unwrap();

        set_thread_hook(None);
        yield_point(InstrSite::DestroyDecrement);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn tags_are_unique() {
        let tags: Vec<u64> = InstrSite::ALL.iter().map(|s| s.tag()).collect();
        assert!(
            tags.windows(2).all(|w| w[0] < w[1]),
            "ALL must list sites in strictly increasing tag order: {tags:?}"
        );
        assert_eq!(tags.first(), Some(&1));
        assert_eq!(tags.last(), Some(&InstrSite::MAX_TAG));
    }

    #[test]
    fn alloc_tags_are_unique() {
        let tags: Vec<u64> = AllocSite::ALL.iter().map(|s| s.tag()).collect();
        assert!(
            tags.windows(2).all(|w| w[0] < w[1]),
            "ALL must list sites in strictly increasing tag order: {tags:?}"
        );
        assert_eq!(tags.last(), Some(&AllocSite::MAX_TAG));
    }

    #[test]
    fn alloc_allowed_defaults_to_true() {
        assert!(alloc_allowed(AllocSite::HeapPooled));
        // Installing a hook only has effect when `inject` is compiled in.
        set_thread_alloc_hook(Some(Box::new(|_| false)));
        assert_eq!(
            alloc_allowed(AllocSite::HeapGlobal),
            !alloc_faults_compiled()
        );
        set_thread_alloc_hook(None);
        assert!(alloc_allowed(AllocSite::PoolRefill));
    }
}
