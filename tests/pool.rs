//! Integration tests for the slab pool behind LFRC allocation
//! (DESIGN.md §5.11): explored schedules driven through the allocator's
//! own yield sites, magazine drain on thread exit, equivalence of the
//! pooled and `Box` fallback paths, and the slab footprint returning to
//! baseline after churn.
//!
//! Pool statistics are process-global, so the tests that assert on
//! deltas serialize on [`SERIAL`]; other test binaries are separate
//! processes with separate pools and cannot interfere.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lfrc_repro::core::{defer_destroy, flush_thread, Heap, Links, PtrField, SharedField};
use lfrc_repro::dcas::McasWord;
use lfrc_repro::pool;
use lfrc_sched::{Policy, Schedule};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Drives collection until `done` holds or the deadline passes. Slab
/// releases are epoch-deferred (sometimes onto the orphan list of an
/// exited thread), so observing them requires nudging the collector.
fn drain_until(mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        if Instant::now() > deadline {
            return false;
        }
        lfrc_repro::dcas::quiesce();
        std::thread::yield_now();
    }
    true
}

/// A node sized so its `LfrcBox` lands in a large size class (~22 slots
/// per 64 KiB slab): a handful of allocations fully carves a slab, which
/// is the precondition for retirement.
struct Churn {
    _pad: [u8; 2800],
}
impl Links<McasWord> for Churn {
    fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {}
}
fn churn() -> Churn {
    Churn { _pad: [0; 2800] }
}

/// Distinct size class from [`Churn`] so the two tests' slabs never mix.
struct ExitNode {
    _pad: [u8; 1500],
}
impl Links<McasWord> for ExitNode {
    fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {}
}

/// Small class for the footprint test (~120 slots per slab).
struct ShrinkNode {
    _pad: [u8; 400],
}
impl Links<McasWord> for ShrinkNode {
    fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {}
}

/// Explores cooperative schedules with the pool's yield sites opted in
/// (`Schedule::pool_sites`): one thread churns a full slab through
/// carve → free → magazine flush → retirement while another loads a
/// shared field whose node comes from the same size class. Across
/// seeds, all three pool sites must be reached and no
/// interleaving may touch a freed object's reference count.
#[test]
fn explored_schedules_cover_pool_sites_without_canary_hits() {
    let _guard = serial();
    let mut seen: HashSet<&'static str> = HashSet::new();
    for seed in 0..24u64 {
        let churn_heap: Heap<Churn, McasWord> = Heap::new();
        let churn_census = Arc::clone(churn_heap.census());
        let read_heap: Heap<Churn, McasWord> = Heap::new();
        let read_census = Arc::clone(read_heap.census());
        let shared: SharedField<Churn, McasWord> = SharedField::null();
        let seedling = read_heap.alloc(churn());
        shared.store(Some(&seedling));
        drop(seedling);

        let trace = {
            let (churn_heap, shared) = (&churn_heap, &shared);
            Schedule::new().pool_sites(true).run(
                &Policy::Random(seed),
                vec![
                    Box::new(move || {
                        // Fully carve at least one slab, then free every
                        // slot and push the magazines back so the slab
                        // retires mid-schedule.
                        let nodes: Vec<_> = (0..25).map(|_| churn_heap.alloc(churn())).collect();
                        for n in nodes {
                            defer_destroy(n);
                        }
                        flush_thread();
                        lfrc_repro::dcas::quiesce();
                        pool::flush_magazines();
                    }),
                    Box::new(move || {
                        for _ in 0..40 {
                            let r = shared.load();
                            assert!(r.is_some(), "seeded entry vanished");
                            drop(r);
                        }
                    }),
                ],
            )
        };
        for e in &trace.events {
            if let Some(site) = e.site {
                if site.is_pool() {
                    seen.insert(site.name());
                }
            }
        }

        shared.store(None);
        flush_thread();
        assert_eq!(
            churn_census.rc_on_freed(),
            0,
            "seed {seed}: freed-object rc touch"
        );
        assert_eq!(
            read_census.rc_on_freed(),
            0,
            "seed {seed}: freed-object rc touch"
        );
        assert!(
            drain_until(|| churn_census.live() == 0 && read_census.live() == 0),
            "seed {seed}: nodes leaked (churn live={}, read live={})",
            churn_census.live(),
            read_census.live()
        );
    }
    for site in ["pool-magazine-hit", "pool-remote-free", "pool-slab-retire"] {
        assert!(
            seen.contains(site),
            "explored schedules never reached {site}; saw {seen:?}"
        );
    }
}

/// A thread that exits with a stocked magazine must not strand its
/// slots: the thread-local magazine guard drains them back to their
/// slabs on exit, after which the fully-free slab retires and its
/// memory is released through the epoch domain.
#[test]
fn thread_exit_drains_magazines_and_releases_slabs() {
    let _guard = serial();
    let base = pool::stats();
    let heap: Heap<ExitNode, McasWord> = Heap::new();
    let census = Arc::clone(heap.census());
    std::thread::scope(|s| {
        s.spawn(|| {
            // Carve a slab's worth of nodes, then free them: the deferred
            // releases land the slots in *this thread's* magazine…
            let nodes: Vec<_> = (0..45)
                .map(|_| heap.alloc(ExitNode { _pad: [0; 1500] }))
                .collect();
            drop(nodes);
            lfrc_repro::dcas::quiesce();
            // …and the thread exits without flushing. The magazine guard's
            // destructor must hand every slot back.
        });
    });
    assert!(
        drain_until(|| {
            census.live() == 0 && pool::stats().slabs_released > base.slabs_released
        }),
        "exited thread stranded its magazine: live={} stats={:?} (base {base:?})",
        census.live(),
        pool::stats()
    );
}

/// Too big for any pool size class, so every node gets its own `Box`
/// from the global allocator.
struct BigNode {
    _pad: [u8; pool::MAX_ALLOC],
}
impl Links<McasWord> for BigNode {
    fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {}
}

/// Churns 200 nodes through a shared field and checks the census
/// accounting on teardown.
fn churn_through_census<T: Links<McasWord>>(label: &str, mut node: impl FnMut() -> T) {
    let heap: Heap<T, McasWord> = Heap::new();
    let census = Arc::clone(heap.census());
    let shared: SharedField<T, McasWord> = SharedField::null();
    for _ in 0..200 {
        let n = heap.alloc(node());
        shared.store(Some(&n));
        drop(n);
    }
    shared.store(None);
    flush_thread();
    assert_eq!(census.allocs(), 200, "{label}");
    assert!(
        drain_until(|| census.live() == 0),
        "{label}: live={} after teardown",
        census.live()
    );
}

/// Pool slots and the per-node `Box` fallback (layouts above
/// `pool::MAX_ALLOC`) are observationally equivalent through the census
/// — same alloc/free accounting for the same program.
#[test]
fn pooled_and_global_backends_agree() {
    churn_through_census("pooled", || ShrinkNode { _pad: [0; 400] });
    churn_through_census("boxed", || BigNode {
        _pad: [0; pool::MAX_ALLOC],
    });
}

/// Grow-then-shrink: after churning hundreds of nodes and freeing them
/// all, the number of live slabs must return to (near) its baseline —
/// at most one partially-carved slab may remain, since only fully-carved
/// slabs are eligible for retirement.
#[test]
fn slab_footprint_returns_near_baseline_after_churn() {
    let _guard = serial();
    let base = pool::stats();
    let heap: Heap<ShrinkNode, McasWord> = Heap::new();
    let census = Arc::clone(heap.census());

    // Grow: enough simultaneous live nodes to span several slabs.
    let nodes: Vec<_> = (0..500)
        .map(|_| heap.alloc(ShrinkNode { _pad: [0; 400] }))
        .collect();
    let grown = pool::stats();
    assert!(
        grown.slabs_live > base.slabs_live,
        "churn did not grow the pool: {grown:?} (base {base:?})"
    );

    // Shrink: free everything, flush the deferred releases, then push the
    // magazine-cached slots back to their slabs.
    drop(nodes);
    flush_thread();
    lfrc_repro::dcas::quiesce();
    pool::flush_magazines();
    assert!(
        drain_until(|| {
            pool::flush_magazines();
            census.live() == 0 && pool::stats().slabs_live <= base.slabs_live + 1
        }),
        "slab footprint did not shrink: {:?} (base {base:?}, grown {grown:?})",
        pool::stats()
    );
    let end = pool::stats();
    assert!(
        end.slabs_released > base.slabs_released,
        "no slab was physically released: {end:?} (base {base:?})"
    );
}
