//! Per-thread sharded operation counters.
//!
//! Each thread lazily claims a cache-line-aligned [`Shard`] (an array of
//! relaxed `AtomicU64`s, one per [`Counter`]) from a global registry.
//! Only the owning thread writes its shard, so increments are contention-
//! free; aggregation ([`totals`]) walks the registry and sums. Shards are
//! **retained after thread exit** (a new thread may re-claim a vacated
//! shard and keep accumulating into it) — totals are therefore monotonic
//! across thread churn, which is what lets tests compare registry totals
//! against census deltas after workers have joined.
//!
//! High-water counters ([`Counter::is_high_water`]) are merged with `max`
//! instead of `+` — each shard records the largest value *its* threads
//! ever observed.
//!
//! With the `enabled` feature off, every function here is an empty
//! `#[inline(always)]` stub: no atomics, no TLS, nothing for the
//! optimizer to keep.

/// Everything the LFRC protocol counts. One cell per variant per shard.
///
/// The set mirrors the protocol's interesting edges: `LFRCLoad` DCAS
/// traffic, count decrements, the deferred-decrement buffer, `Borrowed`
/// promotion, the reclamation epoch, MCAS descriptor contention, and the
/// census/collector totals folded in from `lfrc-core` and `lfrc-reclaim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[repr(usize)]
pub enum Counter {
    /// `LFRCLoad`: DCAS attempts (each trip around the Figure-2 loop).
    LoadDcasAttempt = 0,
    /// `LFRCLoad`: attempts that failed and retried — the retry-storm
    /// signal under contention.
    LoadDcasRetry,
    /// Uncounted pin-scoped reads (`load_deferred`/`borrow`) — the
    /// deferred fast path's hot counter.
    LoadDeferred,
    /// Reference-count increments (`add_to_rc` with a positive delta).
    RcIncrement,
    /// Reference-count decrements (eager `LFRCDestroy`, backlog, and
    /// flushed deferred decrements all land here).
    RcDecrement,
    /// Decrements parked on a thread's deferred buffer.
    DeferAppend,
    /// Deferred-buffer flushes (threshold, explicit, or thread exit).
    DeferFlush,
    /// Parked decrements applied by flushes.
    DeferFlushedEntries,
    /// High-water mark of any single thread's deferred-buffer depth.
    DeferDepthHighWater,
    /// `Borrowed::promote` upgrades that took a count.
    PromoteSuccess,
    /// `Borrowed::promote` refusals (count already zero).
    PromoteFail,
    /// Outermost epoch pins.
    EpochPin,
    /// Successful global-epoch advances.
    EpochAdvance,
    /// Advance attempts refused because a straggler was pinned in an
    /// older epoch.
    EpochAdvanceBlocked,
    /// High-water mark of (global epoch − oldest pinned epoch) observed
    /// at refused advances — the epoch-lag signal.
    EpochLagHighWater,
    /// Objects retired into the emulator's reclamation domain.
    EpochRetired,
    /// Retired objects whose deferred free has run.
    EpochFreed,
    /// Plain cell reads that found an operation descriptor and had to
    /// resolve it first (MCAS contention on the read side).
    McasDescResolve,
    /// Foreign MCAS descriptors helped to completion.
    McasHelp,
    /// Foreign RDCSS descriptors helped out of a cell.
    RdcssHelp,
    /// Census: LFRC objects allocated.
    CensusAlloc,
    /// Census: LFRC objects logically freed.
    CensusFree,
    /// Census: count mutations that touched a freed object (always zero
    /// for the sound protocol; positive under the E5 counterexample).
    CensusRcOnFreed,
    /// Pool: allocations served from the calling thread's magazine (the
    /// no-shared-atomics fast path).
    PoolMagazineHit,
    /// Pool: allocations that missed the magazine and refilled from a
    /// slab (or fell back to the global allocator).
    PoolMagazineMiss,
    /// Pool: slots pushed onto a slab's lock-free remote-free stack
    /// (magazine overflow or cross-thread release).
    PoolRemoteFree,
    /// Pool: slabs mapped from the OS.
    PoolSlabAlloc,
    /// Pool: fully-free slabs unlinked and (epoch-deferred) handed back
    /// to the OS — the shrink edge Valois-style freelists lack.
    PoolSlabRetire,
    /// High-water mark of simultaneously live (mapped, unretired) slabs.
    PoolSlabsLiveHighWater,
    /// Immortal descriptors: slot claims that reused a previously
    /// published slot (sequence bumped past its first life) — the
    /// zero-allocation reuse edge of Arbel-Raviv & Brown.
    DescImmortalReuse,
    /// Immortal descriptors: helper sequence validations that found a
    /// stale seq (the slot moved on) — each is a correctly-detected
    /// reuse race.
    DescSeqInvalid,
    /// Immortal descriptors: help attempts abandoned outright because
    /// the descriptor word's sequence no longer matches the slot.
    DescHelpAbandoned,
}

impl Counter {
    /// Every variant, in discriminant order (the shard layout).
    pub const ALL: [Counter; 32] = [
        Counter::LoadDcasAttempt,
        Counter::LoadDcasRetry,
        Counter::LoadDeferred,
        Counter::RcIncrement,
        Counter::RcDecrement,
        Counter::DeferAppend,
        Counter::DeferFlush,
        Counter::DeferFlushedEntries,
        Counter::DeferDepthHighWater,
        Counter::PromoteSuccess,
        Counter::PromoteFail,
        Counter::EpochPin,
        Counter::EpochAdvance,
        Counter::EpochAdvanceBlocked,
        Counter::EpochLagHighWater,
        Counter::EpochRetired,
        Counter::EpochFreed,
        Counter::McasDescResolve,
        Counter::McasHelp,
        Counter::RdcssHelp,
        Counter::CensusAlloc,
        Counter::CensusFree,
        Counter::CensusRcOnFreed,
        Counter::PoolMagazineHit,
        Counter::PoolMagazineMiss,
        Counter::PoolRemoteFree,
        Counter::PoolSlabAlloc,
        Counter::PoolSlabRetire,
        Counter::PoolSlabsLiveHighWater,
        Counter::DescImmortalReuse,
        Counter::DescSeqInvalid,
        Counter::DescHelpAbandoned,
    ];

    /// Stable snake_case metric name (JSON key; Prometheus name after the
    /// `lfrc_` prefix).
    pub fn name(self) -> &'static str {
        match self {
            Counter::LoadDcasAttempt => "load_dcas_attempts",
            Counter::LoadDcasRetry => "load_dcas_retries",
            Counter::LoadDeferred => "load_deferred_reads",
            Counter::RcIncrement => "rc_increments",
            Counter::RcDecrement => "rc_decrements",
            Counter::DeferAppend => "defer_appends",
            Counter::DeferFlush => "defer_flushes",
            Counter::DeferFlushedEntries => "defer_flushed_entries",
            Counter::DeferDepthHighWater => "defer_depth_high_water",
            Counter::PromoteSuccess => "promote_successes",
            Counter::PromoteFail => "promote_failures",
            Counter::EpochPin => "epoch_pins",
            Counter::EpochAdvance => "epoch_advances",
            Counter::EpochAdvanceBlocked => "epoch_advance_blocked",
            Counter::EpochLagHighWater => "epoch_lag_high_water",
            Counter::EpochRetired => "epoch_retired",
            Counter::EpochFreed => "epoch_freed",
            Counter::McasDescResolve => "mcas_descriptor_resolves",
            Counter::McasHelp => "mcas_helps",
            Counter::RdcssHelp => "rdcss_helps",
            Counter::CensusAlloc => "census_allocs",
            Counter::CensusFree => "census_frees",
            Counter::CensusRcOnFreed => "census_rc_on_freed",
            Counter::PoolMagazineHit => "pool_magazine_hits",
            Counter::PoolMagazineMiss => "pool_magazine_misses",
            Counter::PoolRemoteFree => "pool_remote_frees",
            Counter::PoolSlabAlloc => "pool_slab_allocs",
            Counter::PoolSlabRetire => "pool_slab_retires",
            Counter::PoolSlabsLiveHighWater => "pool_slabs_live",
            Counter::DescImmortalReuse => "desc_immortal_reuses",
            Counter::DescSeqInvalid => "desc_seq_invalidations",
            Counter::DescHelpAbandoned => "desc_helps_abandoned",
        }
    }

    /// One-line description for the Prometheus `# HELP` line.
    pub fn help(self) -> &'static str {
        match self {
            Counter::LoadDcasAttempt => "LFRCLoad DCAS attempts (Figure-2 loop trips)",
            Counter::LoadDcasRetry => "LFRCLoad DCAS attempts that failed and retried",
            Counter::LoadDeferred => "Uncounted pin-scoped reads (load_deferred/borrow)",
            Counter::RcIncrement => "Reference-count increments",
            Counter::RcDecrement => "Reference-count decrements",
            Counter::DeferAppend => "Decrements parked on a deferred buffer",
            Counter::DeferFlush => "Deferred-buffer flushes",
            Counter::DeferFlushedEntries => "Parked decrements applied by flushes",
            Counter::DeferDepthHighWater => "High-water mark of deferred-buffer depth",
            Counter::PromoteSuccess => "Borrowed::promote upgrades that took a count",
            Counter::PromoteFail => "Borrowed::promote refusals (count already zero)",
            Counter::EpochPin => "Outermost epoch pins",
            Counter::EpochAdvance => "Successful global-epoch advances",
            Counter::EpochAdvanceBlocked => "Epoch advances refused by a pinned straggler",
            Counter::EpochLagHighWater => "High-water mark of global-minus-pinned epoch lag",
            Counter::EpochRetired => "Objects retired into the reclamation domain",
            Counter::EpochFreed => "Retired objects whose deferred free has run",
            Counter::McasDescResolve => "Reads that resolved an operation descriptor first",
            Counter::McasHelp => "Foreign MCAS descriptors helped to completion",
            Counter::RdcssHelp => "Foreign RDCSS descriptors helped out of a cell",
            Counter::CensusAlloc => "Census: LFRC objects allocated",
            Counter::CensusFree => "Census: LFRC objects logically freed",
            Counter::CensusRcOnFreed => "Census: count mutations touching a freed object",
            Counter::PoolMagazineHit => "Pool allocations served from a thread magazine",
            Counter::PoolMagazineMiss => "Pool allocations that missed the magazine",
            Counter::PoolRemoteFree => "Slots pushed onto a slab's remote-free stack",
            Counter::PoolSlabAlloc => "Slabs mapped from the OS",
            Counter::PoolSlabRetire => "Fully-free slabs handed back to the OS",
            Counter::PoolSlabsLiveHighWater => "High-water mark of live slabs",
            Counter::DescImmortalReuse => "Immortal descriptor slot reuses",
            Counter::DescSeqInvalid => "Helper validations that found a stale sequence",
            Counter::DescHelpAbandoned => "Help attempts abandoned on sequence mismatch",
        }
    }

    /// High-water marks merge across shards (and diff across snapshots)
    /// with `max`; everything else is a monotonic sum.
    pub fn is_high_water(self) -> bool {
        matches!(
            self,
            Counter::DeferDepthHighWater
                | Counter::EpochLagHighWater
                | Counter::PoolSlabsLiveHighWater
        )
    }
}

/// Number of counters in a shard.
pub const COUNTER_COUNT: usize = Counter::ALL.len();

#[cfg(feature = "enabled")]
pub(crate) mod imp {
    use super::{Counter, COUNTER_COUNT};
    use crate::hist::{Hist, HistBlock, HIST_COUNT};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};

    /// One thread's counter block. Aligned past a cache line so two
    /// threads' shards never share one (the shard is written by exactly
    /// one thread; alignment keeps aggregation reads from bouncing the
    /// writer's line). The log-linear histogram blocks (`crate::hist`)
    /// live inline here so one claim/vacate registry covers both: a
    /// histogram bump is the same single-writer relaxed store as a
    /// counter bump, and totals survive thread exit identically.
    #[repr(align(128))]
    pub(crate) struct Shard {
        vals: [AtomicU64; COUNTER_COUNT],
        /// Per-thread latency histograms, one per [`Hist`] variant.
        pub(crate) hists: [HistBlock; HIST_COUNT],
        /// Whether a live thread currently owns this shard.
        claimed: AtomicBool,
    }

    impl Shard {
        fn new() -> Self {
            Shard {
                vals: std::array::from_fn(|_| AtomicU64::new(0)),
                hists: std::array::from_fn(|_| HistBlock::new()),
                claimed: AtomicBool::new(true),
            }
        }
    }

    fn registry() -> &'static Mutex<Vec<Arc<Shard>>> {
        static REGISTRY: OnceLock<Mutex<Vec<Arc<Shard>>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
    }

    /// Shared fallback shard for recording that happens *after* the
    /// owning thread's TLS has been torn down (e.g. the decrement-buffer
    /// exit flush destroying objects). Contended, but only exit paths
    /// reach it.
    fn exit_shard() -> &'static Arc<Shard> {
        static EXIT: OnceLock<Arc<Shard>> = OnceLock::new();
        EXIT.get_or_init(|| {
            let shard = Arc::new(Shard::new());
            // Permanently claimed: never handed to a thread.
            registry().lock().unwrap().push(Arc::clone(&shard));
            shard
        })
    }

    /// Owns the TLS reference to a registry shard; `Drop` vacates the
    /// claim so a future thread can reuse the slot (totals keep the
    /// accumulated values either way) and clears the hot-path pointer
    /// cache so this thread cannot keep writing a shard another thread
    /// may re-claim.
    struct ShardGuard(Arc<Shard>);

    impl Drop for ShardGuard {
        fn drop(&mut self) {
            let _ = SHARD_PTR.try_with(|p| p.set(std::ptr::null()));
            self.0.claimed.store(false, Ordering::Release);
        }
    }

    fn claim_shard() -> ShardGuard {
        let mut reg = registry().lock().unwrap();
        let guard = 'found: {
            for shard in reg.iter() {
                if !shard.claimed.load(Ordering::Relaxed)
                    && shard
                        .claimed
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                {
                    break 'found ShardGuard(Arc::clone(shard));
                }
            }
            let shard = Arc::new(Shard::new());
            reg.push(Arc::clone(&shard));
            ShardGuard(shard)
        };
        // Publish the hot-path cache. Registry entries are never dropped,
        // so the raw pointer stays valid for the process lifetime; the
        // guard's Drop retracts it before the claim is vacated.
        let ptr: *const Shard = &*guard.0;
        let _ = SHARD_PTR.try_with(|p| p.set(ptr));
        guard
    }

    thread_local! {
        // Hot path: a const-initialized cell holding this thread's shard,
        // null until first use and after guard teardown. Const init means
        // an access is a plain TLS read with no lazy-init branch.
        static SHARD_PTR: Cell<*const Shard> = const { Cell::new(std::ptr::null()) };
        // Cold path: owns the claim and the pointer cache's lifetime.
        static SHARD: ShardGuard = claim_shard();
    }

    /// Applies `owned` to the calling thread's cell when the shard claim
    /// is live (single-writer), or `shared` to the exit shard's cell when
    /// it is not (first use routes through the cold claim first).
    #[inline]
    fn with_cell(c: Counter, owned: impl Fn(&AtomicU64), shared: impl Fn(&AtomicU64)) {
        let hit = SHARD_PTR
            .try_with(|p| {
                let ptr = p.get();
                if ptr.is_null() {
                    return false;
                }
                // Safety: non-null means the guard installed it and has
                // not dropped yet; the registry keeps the shard allocated
                // forever.
                owned(unsafe { &(*ptr).vals[c as usize] });
                true
            })
            .unwrap_or(false);
        if !hit {
            with_cell_slow(c, owned, shared);
        }
    }

    /// First touch (forces the claim) or TLS teardown (exit shard).
    #[cold]
    fn with_cell_slow(c: Counter, owned: impl Fn(&AtomicU64), shared: impl Fn(&AtomicU64)) {
        // `try_with` so recording from TLS destructors (thread-exit
        // flushes) degrades to the shared exit shard instead of panicking.
        match SHARD.try_with(|g| owned(&g.0.vals[c as usize])) {
            Ok(()) => {}
            Err(_) => shared(&exit_shard().vals[c as usize]),
        }
    }

    #[inline]
    pub(super) fn add(c: Counter, n: u64) {
        with_cell(
            c,
            // Single-writer shard: a relaxed load+store increments without
            // the RMW lock prefix. Aggregators only load, and claim
            // handoff (Release vacate / Acquire re-claim) orders writers.
            |cell| {
                cell.store(
                    cell.load(Ordering::Relaxed).wrapping_add(n),
                    Ordering::Relaxed,
                )
            },
            // Exit shard is shared by concurrently-dying threads: RMW.
            |cell| {
                cell.fetch_add(n, Ordering::Relaxed);
            },
        );
    }

    #[inline]
    pub(super) fn record_max(c: Counter, v: u64) {
        with_cell(
            c,
            |cell| {
                if v > cell.load(Ordering::Relaxed) {
                    cell.store(v, Ordering::Relaxed);
                }
            },
            |cell| {
                cell.fetch_max(v, Ordering::Relaxed);
            },
        );
    }

    /// Records one histogram sample on the calling thread's shard
    /// (single-writer bump), or on the shared exit shard during TLS
    /// teardown (RMW bump) — the histogram twin of [`add`].
    #[inline]
    pub(crate) fn hist_record(h: Hist, ns: u64) {
        let hit = SHARD_PTR
            .try_with(|p| {
                let ptr = p.get();
                if ptr.is_null() {
                    return false;
                }
                // Safety: as in `with_cell` — non-null means the guard
                // installed it and has not dropped; shards are permanent.
                unsafe { (*ptr).hists[h as usize].record_owned(ns) };
                true
            })
            .unwrap_or(false);
        if !hit {
            hist_record_slow(h, ns);
        }
    }

    #[cold]
    fn hist_record_slow(h: Hist, ns: u64) {
        match SHARD.try_with(|g| g.0.hists[h as usize].record_owned(ns)) {
            Ok(()) => {}
            Err(_) => exit_shard().hists[h as usize].record_shared(ns),
        }
    }

    /// Walks every shard ever registered (aggregation: histogram and
    /// future whole-shard readers).
    pub(crate) fn for_each_shard(mut f: impl FnMut(&Shard)) {
        let reg = registry().lock().unwrap();
        for shard in reg.iter() {
            f(shard);
        }
    }

    pub(super) fn totals() -> [u64; COUNTER_COUNT] {
        let mut out = [0u64; COUNTER_COUNT];
        let reg = registry().lock().unwrap();
        for shard in reg.iter() {
            for c in Counter::ALL {
                let v = shard.vals[c as usize].load(Ordering::Relaxed);
                let slot = &mut out[c as usize];
                if c.is_high_water() {
                    *slot = (*slot).max(v);
                } else {
                    *slot += v;
                }
            }
        }
        out
    }

    pub(super) fn shard_count() -> usize {
        registry().lock().unwrap().len()
    }
}

/// Adds `n` to counter `c` on the calling thread's shard.
#[inline(always)]
pub fn add(c: Counter, n: u64) {
    #[cfg(feature = "enabled")]
    imp::add(c, n);
    #[cfg(not(feature = "enabled"))]
    let _ = (c, n);
}

/// Adds 1 to counter `c` on the calling thread's shard.
#[inline(always)]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// Raises high-water counter `c` to at least `v` on the calling thread's
/// shard.
#[inline(always)]
pub fn record_max(c: Counter, v: u64) {
    #[cfg(feature = "enabled")]
    imp::record_max(c, v);
    #[cfg(not(feature = "enabled"))]
    let _ = (c, v);
}

/// Aggregated totals across every shard ever registered (including those
/// of exited threads). All zeros when the `enabled` feature is off.
pub fn totals() -> [u64; COUNTER_COUNT] {
    #[cfg(feature = "enabled")]
    {
        imp::totals()
    }
    #[cfg(not(feature = "enabled"))]
    {
        [0u64; COUNTER_COUNT]
    }
}

/// Aggregated value of one counter (convenience over [`totals`]).
pub fn total(c: Counter) -> u64 {
    totals()[c as usize]
}

/// Number of shards in the registry (diagnostics; 0 when disabled).
pub fn shard_count() -> usize {
    #[cfg(feature = "enabled")]
    {
        imp::shard_count()
    }
    #[cfg(not(feature = "enabled"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_dense_and_names_unique() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "ALL must list discriminant order");
        }
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_COUNT);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn counts_survive_thread_exit() {
        let before = total(Counter::LoadDcasAttempt);
        std::thread::spawn(|| {
            add(Counter::LoadDcasAttempt, 7);
        })
        .join()
        .unwrap();
        std::thread::spawn(|| {
            add(Counter::LoadDcasAttempt, 5);
        })
        .join()
        .unwrap();
        assert_eq!(total(Counter::LoadDcasAttempt), before + 12);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn high_water_merges_with_max() {
        record_max(Counter::DeferDepthHighWater, 3);
        std::thread::spawn(|| {
            record_max(Counter::DeferDepthHighWater, 9);
        })
        .join()
        .unwrap();
        assert!(total(Counter::DeferDepthHighWater) >= 9);
        // A lower later value must not lower the mark.
        record_max(Counter::DeferDepthHighWater, 1);
        assert!(total(Counter::DeferDepthHighWater) >= 9);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_reads_all_zeros() {
        add(Counter::LoadDcasAttempt, 7);
        record_max(Counter::DeferDepthHighWater, 9);
        assert_eq!(totals(), [0u64; COUNTER_COUNT]);
        assert_eq!(shard_count(), 0);
    }
}
