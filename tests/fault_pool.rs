//! Crash sweep over the slab pool's own yield sites (DESIGN.md §5.12),
//! in a binary of its own.
//!
//! The pool's observable state — slab carving, magazine stock,
//! epoch-gated retirement — is process-global: a sibling test thread
//! holding a transient epoch pin can delay slab retirement past this
//! workload's quiesce rounds, and slots stranded by a crashed round
//! land in slabs shared with whoever allocates next. Cargo runs test
//! *binaries* sequentially (the same reason `tests/pool.rs` is its own
//! binary), so isolating the sweep here is what makes its coverage
//! assertion — every pool site must actually fire — deterministic.

use std::sync::Arc;

use lfrc_repro::core::{defer_destroy, flush_thread, Heap, Links, McasWord, PtrField, SharedField};
use lfrc_repro::pool;
use lfrc_sched::{CrashMode, CrashSpec, FaultPlan, InstrSite, Policy, Schedule, Trace};

/// What one faulted round observed, for the sweep's assertions.
struct Observed {
    trace: Trace,
    rc_on_freed: u64,
    live: u64,
}

/// Drives one site × one mode to the point of actually firing: tries a
/// few threads and seeds until a run's `trace.crashes` is non-empty,
/// asserting safety (zero canary hits) and the leak bound on **every**
/// run along the way. Panics if the site never fires — the sweep's
/// coverage guarantee. (Mirrors the helper in `tests/fault.rs`.)
fn crash_sweep(
    sites: &[InstrSite],
    threads: usize,
    seeds: u64,
    leak_bound: u64,
    mut round: impl FnMut(&Policy, FaultPlan) -> Observed,
) {
    for &site in sites {
        for mode in [CrashMode::Stall, CrashMode::Panic] {
            let mut fired = false;
            'search: for seed in 0..seeds {
                for t in 0..threads {
                    let plan = FaultPlan::new().crash(CrashSpec {
                        thread: t,
                        site: Some(site),
                        skip: 0,
                        mode,
                    });
                    let obs = round(&Policy::Random(seed), plan);
                    assert_eq!(
                        obs.rc_on_freed,
                        0,
                        "{} / {:?} / t{t} / seed {seed}: rc update on freed object",
                        site.name(),
                        mode
                    );
                    assert!(
                        obs.live <= leak_bound,
                        "{} / {:?} / t{t} / seed {seed}: {} live objects exceed the \
                         failed-thread bound of {leak_bound}",
                        site.name(),
                        mode,
                        obs.live
                    );
                    if let Some(c) = obs.trace.crashes.first() {
                        assert_eq!(c.site, site, "crash fired at the wrong site");
                        assert_eq!(c.mode, mode);
                        fired = true;
                        break 'search;
                    }
                }
            }
            assert!(
                fired,
                "no workload reached {} ({:?}) — sweep coverage lost",
                site.name(),
                mode
            );
        }
    }
}

/// A node sized so a handful of allocations fully carve a slab (the
/// precondition for retirement). `PAD` picks the size class (64-byte
/// grain): each sweep site gets a class of its own, so the slots a
/// crashed round strands cannot keep another site's slabs from ever
/// fully freeing.
struct FatNode<const PAD: usize> {
    _pad: [u8; PAD],
}
impl<const PAD: usize> Links<McasWord> for FatNode<PAD> {
    fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {}
}

/// The pool-churn workload from `tests/pool.rs`, with the pool's yield
/// sites opted in. A thread dying inside the allocator can strand the
/// nodes whose deferred destroys it had not yet flushed — its own
/// allocation count bounds the leak.
fn pool_round<const PAD: usize>(policy: &Policy, plan: FaultPlan) -> Observed {
    let churn_heap: Heap<FatNode<PAD>, McasWord> = Heap::new();
    let census = Arc::clone(churn_heap.census());
    let read_heap: Heap<FatNode<PAD>, McasWord> = Heap::new();
    let read_census = Arc::clone(read_heap.census());
    let shared: SharedField<FatNode<PAD>, McasWord> = SharedField::null();
    let seedling = read_heap.alloc(FatNode { _pad: [0; PAD] });
    shared.store(Some(&seedling));
    drop(seedling);
    let trace = {
        let (churn_heap, shared) = (&churn_heap, &shared);
        Schedule::new().pool_sites(true).faults(plan).run(
            policy,
            vec![
                Box::new(move || {
                    let nodes: Vec<_> = (0..25)
                        .map(|_| churn_heap.alloc(FatNode { _pad: [0; PAD] }))
                        .collect();
                    for n in nodes {
                        defer_destroy(n);
                    }
                    flush_thread();
                    // Several quiesce rounds: slab release is epoch-gated
                    // and one grace period may not elapse in one call.
                    for _ in 0..3 {
                        lfrc_repro::dcas::quiesce();
                    }
                    pool::flush_magazines();
                }),
                Box::new(move || {
                    for _ in 0..20 {
                        drop(shared.load());
                    }
                }),
            ],
        )
    };
    shared.store(None);
    flush_thread();
    lfrc_repro::dcas::quiesce();
    Observed {
        trace,
        rc_on_freed: census.rc_on_freed() + read_census.rc_on_freed(),
        live: census.live() + read_census.live(),
    }
}

#[test]
fn crash_sweep_pool_sites() {
    // The churn thread owns 25 fat nodes plus the reader's seedling;
    // dying before its flush strands all of them — hence the bound of 26.
    crash_sweep(&[InstrSite::PoolMagazineHit], 2, 48, 26, pool_round::<2498>);
    crash_sweep(&[InstrSite::PoolRemoteFree], 2, 48, 26, pool_round::<2562>);
    crash_sweep(&[InstrSite::PoolSlabRetire], 2, 48, 26, pool_round::<2626>);
}
