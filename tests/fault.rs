//! Fault injection (DESIGN.md §5.12): the paper's "failed thread",
//! executed deliberately.
//!
//! LFRC's weakened lock-freedom claim is precise: *safety* is
//! unconditional — no schedule, including one where a thread stops
//! forever, may touch a freed object's count — while *liveness* is
//! promised only "modulo failed threads": memory a failed thread held
//! may never be reclaimed, but the loss is bounded by what it held.
//! These tests make that claim executable:
//!
//! * **Crash sweep** — every instrumented yield site is made lethal in
//!   turn ([`CrashSpec`]), in both modes (permanently parked and
//!   panicked), under workloads that reach it. After every crash the
//!   census must show zero `rc_on_freed` (safety held) and a live count
//!   within the bound derivable from what the dead thread could hold.
//! * **OOM sweep** (`--features inject`) — every [`AllocSite`] is
//!   refused in turn; pooled allocation must fall back to the global
//!   allocator, and a total refusal must surface as a clean `Err` from
//!   `Heap::try_alloc`, never a crash.
//! * **Shrinker regression** — a seeded, known-failing schedule (the
//!   naive CAS-only load racing a swinging store, E5's defect) is
//!   delta-debugged to a locally-minimal decision list that replays
//!   bit-identically and round-trips through the artifact format.

use std::ptr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lfrc_repro::core::defer::{self, Borrowed};
use lfrc_repro::core::{
    flush_thread, DcasWord, Heap, Links, LockWord, McasWord, PtrField, SharedField,
};
use lfrc_repro::deque::{ConcurrentDeque, LfrcSnarkRepaired};
use lfrc_sched::shrink::{
    artifact_dir, run_verdict, shrink_decisions, shrink_failure, Counterexample,
};
use lfrc_sched::{
    instrument, Body, CrashMode, CrashSpec, FaultPlan, InstrSite, Policy, SchedPause, Schedule,
    Trace,
};

/// A node for the core and deferred workloads, generic over the DCAS
/// strategy.
struct Node<W: DcasWord> {
    #[allow(dead_code)]
    id: u64,
    next: PtrField<Node<W>, W>,
}

impl<W: DcasWord> Links<W> for Node<W> {
    fn for_each_link(&self, f: &mut dyn FnMut(&PtrField<Node<W>, W>)) {
        f(&self.next);
    }
}

fn node<W: DcasWord>(id: u64) -> Node<W> {
    Node {
        id,
        next: PtrField::null(),
    }
}

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
/// coverage guarantee.
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

// ---------------------------------------------------------------------------
// Crash sweep, group 1: the core LFRC windows (load, destroy, MCAS)
// ---------------------------------------------------------------------------

/// The `rc_invariant` workload from `proptest_models.rs`, under a fault
/// plan: three threads hammer two shared fields with loads, clones,
/// stores and destroys. A thread dying mid-operation can strand at most
/// the references its abandoned operation held: the displaced occupant
/// of one field plus the node it was installing, each with one `next`
/// link — every other count is released by the crash unwind (stack
/// `Local`s drop) or the dying thread's buffer flush.
fn core_round<W: DcasWord>(policy: &Policy, plan: FaultPlan) -> Observed {
    let heap: Heap<Node<W>, W> = Heap::new();
    let census = Arc::clone(heap.census());
    let trace;
    {
        let shared: [SharedField<Node<W>, W>; 2] = [SharedField::null(), SharedField::null()];
        let seed_node = heap.alloc(node(0));
        shared[0].store(Some(&seed_node));
        shared[1].store(Some(&seed_node));
        drop(seed_node);
        trace = {
            let (heap, shared) = (&heap, &shared);
            let bodies: Vec<Body<'_>> = (0..3u64)
                .map(|t| {
                    let body: Body<'_> = Box::new(move || {
                        let mut held = Vec::new();
                        for i in 0..3u64 {
                            let f = &shared[(t + i) as usize % 2];
                            if let Some(l) = f.load() {
                                if i % 2 == 0 {
                                    held.push(l.clone());
                                }
                                drop(l);
                            }
                            let fresh = heap.alloc(node(t * 10 + i));
                            if i == 2 {
                                f.store(None);
                            } else {
                                f.store(Some(&fresh));
                            }
                            drop(fresh);
                            held.pop();
                        }
                    });
                    body
                })
                .collect();
            Schedule::new().faults(plan).run(policy, bodies)
        };
        shared[0].store(None);
        shared[1].store(None);
    }
    flush_thread();
    Observed {
        trace,
        rc_on_freed: census.rc_on_freed(),
        live: census.live(),
    }
}

#[test]
fn crash_sweep_core_sites() {
    crash_sweep(
        &[
            InstrSite::LoadDcasWindow,
            InstrSite::DestroyDecrement,
            InstrSite::RdcssInstalled,
            InstrSite::McasBeforeStatusCas,
        ],
        3,
        24,
        6,
        core_round::<McasWord>,
    );
}

// ---------------------------------------------------------------------------
// Crash sweep, group 7: the descriptor lifetime windows
// ---------------------------------------------------------------------------

/// The immortal descriptor windows: the claim, seq-bump and
/// helper-validate sites fire on every MCAS. A thread dying in a claim
/// window holds only the operation's stack references, so the leak bound
/// is the core group's.
#[test]
fn crash_sweep_desc_sites() {
    crash_sweep(
        &[
            InstrSite::DescClaim,
            InstrSite::DescSeqBump,
            InstrSite::DescHelperValidate,
        ],
        3,
        24,
        6,
        core_round::<McasWord>,
    );
}

/// A Stall crash *inside the claim window* must not strand the slot: the
/// dead thread's TLS teardown returns its index, and the next owner's
/// claim bumps past whatever half-state the crash froze — nothing yet
/// (`DescClaim`), a mid-rewrite CLAIMING hold (`DescSeqBump`, first
/// visit), or a published-but-abandoned UNDECIDED operation with the
/// RDCSS slot mid-claim (`DescSeqBump`, second visit).
#[test]
fn stall_in_claim_window_strands_no_descriptor() {
    use lfrc_repro::dcas::mcas::test_support;
    use std::sync::atomic::AtomicUsize;
    for (site, skip) in [
        (InstrSite::DescClaim, 0),
        (InstrSite::DescSeqBump, 0),
        (InstrSite::DescSeqBump, 1),
    ] {
        let a = McasWord::new(0);
        let b = McasWord::new(0);
        let idx = AtomicUsize::new(usize::MAX);
        let trace = {
            let (a, b, idx) = (&a, &b, &idx);
            let body: Body<'_> = Box::new(move || {
                idx.store(test_support::current_slot_index(), Ordering::SeqCst);
                let _ = McasWord::dcas(a, b, 0, 0, 1, 1);
            });
            Schedule::new()
                .faults(FaultPlan::new().crash(CrashSpec {
                    thread: 0,
                    site: Some(site),
                    skip,
                    mode: CrashMode::Stall,
                }))
                .run(&Policy::Random(0), vec![body])
        };
        let c = trace
            .crashes
            .first()
            .unwrap_or_else(|| panic!("{}/skip {skip}: claim window not reached", site.name()));
        assert_eq!(c.site, site);
        assert_eq!(c.mode, CrashMode::Stall);
        let idx = idx.load(Ordering::SeqCst);
        assert_ne!(idx, usize::MAX, "body never recorded its slot index");
        // `run` has joined the stalled thread, so its unwind already
        // returned `idx` to the free list. Adopt it and prove a fresh
        // claim works. `None` means a concurrently-running test in this
        // binary claimed the index first — in which case *its*
        // operations are exercising the slot right now.
        if let Some(ok) = test_support::adopt_and_exercise(idx) {
            assert!(
                ok,
                "{}/skip {skip}: slot unusable after a claim-window crash",
                site.name()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Crash sweep, group 2: the deferred fast path (borrows, parked counts)
// ---------------------------------------------------------------------------

/// The deferred-path workload: pin-scoped borrows, promotes, deferred
/// CASes and explicit flushes. A dead thread's parked decrements are
/// *not* lost — its `DecBuffer` flushes at OS-thread exit — so the leak
/// bound is the same abandoned-operation bound as the counted path.
fn deferred_round<W: DcasWord>(policy: &Policy, plan: FaultPlan) -> Observed {
    let heap: Heap<Node<W>, W> = Heap::new();
    let census = Arc::clone(heap.census());
    let trace;
    {
        let shared: [SharedField<Node<W>, W>; 2] = [SharedField::null(), SharedField::null()];
        let seed_node = heap.alloc(node(0));
        shared[0].store(Some(&seed_node));
        shared[1].store(Some(&seed_node));
        drop(seed_node);
        trace = {
            let (heap, shared) = (&heap, &shared);
            let bodies: Vec<Body<'_>> = (0..3u64)
                .map(|t| {
                    let body: Body<'_> = Box::new(move || {
                        let mut held = Vec::new();
                        for i in 0..3u64 {
                            let f = &shared[(t + i) as usize % 2];
                            let fresh = heap.alloc(node(t * 10 + i));
                            defer::pinned(|pin| {
                                let b = f.load_deferred(pin);
                                if let Some(ref b) = b {
                                    if let Some(l) = Borrowed::promote(b) {
                                        held.push(l);
                                    }
                                }
                                let installed = f.compare_and_set_deferred(
                                    b.as_ref(),
                                    if i == 2 { None } else { Some(&fresh) },
                                );
                                if !installed && i == 2 {
                                    f.store(None);
                                }
                            });
                            drop(fresh);
                            if i == 1 {
                                defer::flush_thread();
                            }
                            held.pop();
                        }
                        drop(held);
                        defer::flush_thread();
                    });
                    body
                })
                .collect();
            Schedule::new().faults(plan).run(policy, bodies)
        };
        shared[0].store(None);
        shared[1].store(None);
    }
    defer::flush_thread();
    Observed {
        trace,
        rc_on_freed: census.rc_on_freed(),
        live: census.live(),
    }
}

#[test]
fn crash_sweep_deferred_sites() {
    crash_sweep(
        &[
            InstrSite::DeferAppend,
            InstrSite::DeferFlush,
            InstrSite::DeferEpochAdvance,
            InstrSite::BorrowLoad,
            InstrSite::BorrowPromote,
        ],
        3,
        24,
        6,
        deferred_round::<McasWord>,
    );
}

// ---------------------------------------------------------------------------
// Crash sweep, group 3: the Snark deque pause sites
// ---------------------------------------------------------------------------

/// A pusher feeding both ends while two poppers race, on the repaired
/// Snark with [`SchedPause`]. A dead popper can strand the node it was
/// claiming plus a displaced hat chain; the deque's own sentinels are
/// released when the deque drops.
fn deque_round(policy: &Policy, plan: FaultPlan) -> Observed {
    let d: LfrcSnarkRepaired<McasWord, SchedPause> = LfrcSnarkRepaired::new();
    let census = Arc::clone(d.heap().census());
    let trace = {
        let d = &d;
        let mut bodies: Vec<Body<'_>> = vec![Box::new(move || {
            for v in 1..=3u64 {
                if v % 2 == 0 {
                    d.push_left(v);
                } else {
                    d.push_right(v);
                }
            }
            flush_thread();
        })];
        for side in 0..2u8 {
            bodies.push(Box::new(move || {
                for _ in 0..4 {
                    let _ = if side == 0 {
                        d.pop_left()
                    } else {
                        d.pop_right()
                    };
                }
                flush_thread();
            }));
        }
        Schedule::new().faults(plan).run(policy, bodies)
    };
    while d.pop_left().is_some() {}
    drop(d);
    flush_thread();
    Observed {
        trace,
        rc_on_freed: census.rc_on_freed(),
        live: census.live(),
    }
}

#[test]
fn crash_sweep_deque_sites() {
    crash_sweep(
        &[
            InstrSite::DequePushBeforeDcas,
            InstrSite::DequePopAfterReadHats,
            InstrSite::DequePopBeforeDcas,
            InstrSite::DequePopBeforeClaim,
        ],
        3,
        32,
        8,
        deque_round,
    );
}
// Crash sweep, group 5: the lock-strategy spin site
// ---------------------------------------------------------------------------

/// `LockSpin` fires only while a stripe is *contended*, and under pure
/// cooperative scheduling exactly one thread runs at a time — a stripe
/// is never held across a yield. So this harness manufactures real
/// contention: an unscheduled OS thread (its yield points are no-ops —
/// hooks are thread-local) hammers a `LockWord` DCAS on the same cells
/// the scheduled thread loads, making the scheduled thread spin — and
/// die mid-spin. Dying there is trivially safe (the spinner holds
/// nothing), which is exactly what the sweep asserts.
#[test]
fn crash_sweep_lock_spin_site() {
    for mode in [CrashMode::Stall, CrashMode::Panic] {
        let mut fired = false;
        for attempt in 0..20 {
            let a = LockWord::new(0);
            let b = LockWord::new(0);
            let stop = AtomicBool::new(false);
            let trace = std::thread::scope(|s| {
                {
                    let (a, b, stop) = (&a, &b, &stop);
                    s.spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            LockWord::dcas(a, b, 0, 0, 0, 0);
                        }
                    });
                }
                let trace = {
                    let a = &a;
                    let body: Body<'_> = Box::new(move || {
                        for _ in 0..50_000 {
                            std::hint::black_box(a.load());
                        }
                    });
                    Schedule::new()
                        .faults(FaultPlan::new().crash(CrashSpec {
                            thread: 0,
                            site: Some(InstrSite::LockSpin),
                            skip: 0,
                            mode,
                        }))
                        .run(&Policy::Random(attempt), vec![body])
                };
                stop.store(true, Ordering::Relaxed);
                trace
            });
            if let Some(c) = trace.crashes.first() {
                assert_eq!(c.site, InstrSite::LockSpin);
                assert_eq!(c.mode, mode);
                fired = true;
                break;
            }
        }
        assert!(fired, "contention never pushed the load into the spin loop");
    }
}

/// The sweep groups, together, must cover every instrumented site — a
/// new `InstrSite` variant fails here until a sweep learns to reach it.
#[test]
fn sweep_groups_cover_every_site() {
    let covered: Vec<InstrSite> = [
        // group 1 (core)
        InstrSite::LoadDcasWindow,
        InstrSite::DestroyDecrement,
        InstrSite::RdcssInstalled,
        InstrSite::McasBeforeStatusCas,
        // group 2 (deferred)
        InstrSite::DeferAppend,
        InstrSite::DeferFlush,
        InstrSite::DeferEpochAdvance,
        InstrSite::BorrowLoad,
        InstrSite::BorrowPromote,
        // group 3 (deque)
        InstrSite::DequePushBeforeDcas,
        InstrSite::DequePopAfterReadHats,
        InstrSite::DequePopBeforeDcas,
        InstrSite::DequePopBeforeClaim,
        // group 4 (pool)
        InstrSite::PoolMagazineHit,
        InstrSite::PoolRemoteFree,
        InstrSite::PoolSlabRetire,
        // group 5 (lock)
        InstrSite::LockSpin,
        // group 7 (descriptor lifetime)
        InstrSite::DescClaim,
        InstrSite::DescSeqBump,
        InstrSite::DescHelperValidate,
    ]
    .into();
    for site in InstrSite::ALL {
        assert!(
            covered.contains(&site),
            "no sweep group covers {}",
            site.name()
        );
    }
    assert_eq!(covered.len(), InstrSite::ALL.len());
}

// ---------------------------------------------------------------------------
// OOM sweep (compiled only with `--features inject`)
// ---------------------------------------------------------------------------

#[cfg(feature = "inject")]
mod oom {
    use super::*;
    use lfrc_sched::{AllocSite, OomSpec};

    fn refuse_forever(site: AllocSite) -> FaultPlan {
        FaultPlan::new().oom(OomSpec {
            thread: 0,
            site,
            skip: 0,
            count: u32::MAX,
        })
    }

    /// Pooled allocation refused → the per-object global-allocator
    /// fallback serves every request; nothing observable changes.
    #[test]
    fn heap_pooled_oom_falls_back_to_global() {
        let heap: Heap<Node<McasWord>, McasWord> = Heap::new();
        let census = Arc::clone(heap.census());
        let trace = {
            let heap = &heap;
            let body: Body<'_> = Box::new(move || {
                let nodes: Vec<_> = (0..5).map(|i| heap.alloc(node(i))).collect();
                drop(nodes);
            });
            Schedule::new()
                .faults(refuse_forever(AllocSite::HeapPooled))
                .run(&Policy::Random(0), vec![body])
        };
        flush_thread();
        assert_eq!(census.live(), 0);
        assert_eq!(census.rc_on_freed(), 0);
        assert!(trace.oom_refusals >= 5, "pooled path was never consulted");
    }

    /// Both the pooled path and the global fallback refused → the error
    /// propagates as a clean `Err` from `try_alloc`, returning the value.
    #[test]
    fn total_heap_oom_surfaces_as_try_alloc_err() {
        let heap: Heap<Node<McasWord>, McasWord> = Heap::new();
        let census = Arc::clone(heap.census());
        let plan = FaultPlan::new()
            .oom(OomSpec {
                thread: 0,
                site: AllocSite::HeapPooled,
                skip: 0,
                count: 1,
            })
            .oom(OomSpec {
                thread: 0,
                site: AllocSite::HeapGlobal,
                skip: 0,
                count: 1,
            });
        let trace = {
            let heap = &heap;
            let body: Body<'_> = Box::new(move || {
                let recovered = match heap.try_alloc(node(1)) {
                    Err(v) => v,
                    Ok(_) => panic!("every allocation path was refused"),
                };
                // The value comes back intact, and the next attempt (the
                // refusal budget is spent) succeeds.
                let ok = heap.try_alloc(recovered);
                assert!(ok.is_ok(), "the refusal budget is consumed");
                drop(ok);
            });
            Schedule::new()
                .faults(plan)
                .run(&Policy::Random(0), vec![body])
        };
        flush_thread();
        assert!(trace.oom_refusals >= 2);
        assert_eq!(census.live(), 0, "a refused allocation must not leak");
        assert_eq!(census.rc_on_freed(), 0);
    }

    /// The immortal descriptors' acceptance claim, under total
    /// allocation refusal: with **every** instrumented allocation site
    /// refused forever, MCAS traffic completes without tripping a single
    /// refusal — the attempt path consults no allocation site.
    #[test]
    fn immortal_descriptors_never_consult_alloc_sites() {
        let a = McasWord::new(0);
        let b = McasWord::new(0);
        let plan = AllocSite::ALL.iter().fold(FaultPlan::new(), |p, &site| {
            p.oom(OomSpec {
                thread: 0,
                site,
                skip: 0,
                count: u32::MAX,
            })
        });
        let trace = {
            let (a, b) = (&a, &b);
            let body: Body<'_> = Box::new(move || {
                for i in 0..8u64 {
                    assert!(McasWord::dcas(a, b, i, i, i + 1, i + 1));
                }
            });
            Schedule::new()
                .faults(plan)
                .run(&Policy::Random(0), vec![body])
        };
        assert_eq!(
            trace.oom_refusals, 0,
            "an immortal MCAS attempt consulted an allocation site"
        );
        assert_eq!(a.load(), 8);
        assert_eq!(b.load(), 8);
    }

    /// Pool refill refused → the magazine miss cannot carve a slab, the
    /// pool declines, and the heap's global fallback still serves the
    /// allocation.
    #[test]
    fn pool_refill_oom_falls_back_to_global() {
        // A size class of its own, so the magazine is cold and the first
        // allocation must attempt a refill.
        struct RefillNode {
            _pad: [u8; 1900],
        }
        impl Links<McasWord> for RefillNode {
            fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {}
        }
        let heap: Heap<RefillNode, McasWord> = Heap::new();
        let census = Arc::clone(heap.census());
        let trace = {
            let heap = &heap;
            let body: Body<'_> = Box::new(move || {
                let nodes: Vec<_> = (0..3)
                    .map(|_| heap.alloc(RefillNode { _pad: [0; 1900] }))
                    .collect();
                drop(nodes);
            });
            Schedule::new()
                .faults(refuse_forever(AllocSite::PoolRefill))
                .run(&Policy::Random(0), vec![body])
        };
        flush_thread();
        lfrc_repro::dcas::quiesce();
        assert!(trace.oom_refusals >= 1, "refill was never attempted");
        assert_eq!(census.live(), 0);
        assert_eq!(census.rc_on_freed(), 0);
    }
}

// ---------------------------------------------------------------------------
// Nightly deep exploration (env-gated): shrink and ship any failure
// ---------------------------------------------------------------------------

/// How many seeds the deep-exploration tests sweep. Zero (the default)
/// skips them entirely, so ordinary `cargo test` runs are unaffected;
/// the nightly workflow sets `LFRC_DEEP_SEEDS` to a few thousand.
fn deep_seeds() -> u64 {
    std::env::var("LFRC_DEEP_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Sweeps `seeds` random schedules of a fault-free round and checks the
/// paper's two invariants after each. On a violation the schedule is
/// delta-debugged to a locally-minimal failing decision list, packaged
/// with the flight-recorder dump, written to [`artifact_dir`] (CI
/// uploads that directory), and the test fails with the replay recipe.
fn explore_and_ship(name: &str, seeds: u64, round: impl Fn(&Policy) -> Observed) {
    let verdict = |o: &Observed| -> Option<String> {
        if o.rc_on_freed > 0 {
            Some(format!(
                "rc update on freed object (count {})",
                o.rc_on_freed
            ))
        } else if o.live > 0 {
            Some(format!("{} live objects leaked", o.live))
        } else {
            None
        }
    };
    for seed in 0..seeds {
        let obs = round(&Policy::Random(seed));
        let Some(message) = verdict(&obs) else {
            continue;
        };
        let initial: Vec<u32> = obs.trace.decisions.iter().map(|d| d.choice).collect();
        let outcome = shrink_decisions(&initial, |cand| {
            verdict(&round(&Policy::Prefix(cand.to_vec()))).is_some()
        });
        let minimal = round(&Policy::Prefix(outcome.decisions.clone()));
        let message = verdict(&minimal).unwrap_or(message);
        lfrc_repro::obs::recorder::note_violation("deep exploration failed", 0);
        let cx = Counterexample {
            name: name.to_string(),
            decisions: outcome.decisions,
            hash: minimal.trace.hash,
            events: minimal.trace.format_events(),
            message: message.clone(),
            recorder_dump: lfrc_repro::obs::recorder::take_violation_dump().unwrap_or_default(),
            attempts: outcome.attempts,
        };
        let written = cx.write_to(&artifact_dir());
        panic!(
            "{name}: seed {seed} violated an invariant ({message}); minimized to {} \
             decisions, artifact at {:?} — replay with LFRC_SCHED_SEED={seed}",
            cx.decisions.len(),
            written
        );
    }
}

#[test]
fn deep_exploration_core_mcas() {
    explore_and_ship("deep-core-mcas", deep_seeds(), |p| {
        core_round::<McasWord>(p, FaultPlan::new())
    });
}

#[test]
fn deep_exploration_core_lock() {
    explore_and_ship("deep-core-lock", deep_seeds(), |p| {
        core_round::<LockWord>(p, FaultPlan::new())
    });
}

#[test]
fn deep_exploration_deferred() {
    explore_and_ship("deep-deferred", deep_seeds(), |p| {
        deferred_round::<McasWord>(p, FaultPlan::new())
    });
}

#[test]
fn deep_exploration_deque() {
    explore_and_ship("deep-deque", deep_seeds(), |p| {
        deque_round(p, FaultPlan::new())
    });
}

// ---------------------------------------------------------------------------
// Shrinker regression: E5's naive-CAS defect, minimized and replayed
// ---------------------------------------------------------------------------

/// The seeded known-failing schedule: a swinger replaces the root while
/// a naive CAS-only reader sits in its defect window (the gap between
/// pointer read and count increment is a scheduler yield). Quarantine
/// retains freed objects, so the increment-on-freed is a counted canary
/// hit, not UB; the reader asserts the canary is clean and fails the
/// schedule when it is not. State is fresh per call — the shrinker runs
/// many candidates.
fn naive_cas_bodies() -> Vec<Body<'static>> {
    struct Leaf {
        #[allow(dead_code)]
        id: u64,
    }
    impl Links<McasWord> for Leaf {
        fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {}
    }
    let heap: Arc<Heap<Leaf, McasWord>> = Arc::new(Heap::new());
    heap.census().set_quarantine(true);
    let census = Arc::clone(heap.census());
    let root: Arc<SharedField<Leaf, McasWord>> = Arc::new(SharedField::null());
    let first = heap.alloc(Leaf { id: 0 });
    root.store(Some(&first));
    drop(first);
    vec![
        {
            let (heap, root) = (Arc::clone(&heap), Arc::clone(&root));
            Box::new(move || {
                for i in 1..=3 {
                    let fresh = heap.alloc(Leaf { id: i });
                    root.store(Some(&fresh));
                    drop(fresh);
                }
            })
        },
        {
            let root = Arc::clone(&root);
            Box::new(move || {
                for _ in 0..3 {
                    let mut dest: *mut _ = ptr::null_mut();
                    // Safety: quarantine is on (set above), which is the
                    // documented precondition of the naive load.
                    unsafe {
                        lfrc_repro::core::ops::load_naive_cas_gapped(&root, &mut dest, &|| {
                            instrument::yield_point(InstrSite::LoadDcasWindow)
                        });
                        lfrc_repro::core::ops::destroy_tolerant(dest);
                    }
                    assert_eq!(
                        census.rc_on_freed(),
                        0,
                        "naive CAS incremented a freed object's count"
                    );
                }
            })
        },
    ]
}

#[test]
fn shrinker_minimizes_the_naive_cas_failure() {
    let sched = Schedule::new();
    // Find a failing schedule by seed search; the defect window is wide
    // under the scheduler, so this lands fast.
    let mut initial: Option<Vec<u32>> = None;
    for seed in 0..200 {
        let (trace, failure) = sched.run_caught(&Policy::Random(seed), naive_cas_bodies());
        if failure.is_some() {
            initial = Some(trace.decisions.iter().map(|d| d.choice).collect());
            break;
        }
    }
    let initial = initial.expect("the naive-CAS canary must be schedulable");

    let cx = shrink_failure(&sched, "naive-cas-rc-on-freed", &initial, naive_cas_bodies);
    assert!(
        cx.decisions.len() <= 8,
        "minimal schedule has {} decisions (expected ≤ 8): {:?}",
        cx.decisions.len(),
        cx.decisions
    );
    assert!(
        cx.message.contains("freed object"),
        "message: {}",
        cx.message
    );

    // Deterministic: shrinking the same failure again lands on the same
    // minimum in the same number of attempts.
    let cx2 = shrink_failure(&sched, "naive-cas-rc-on-freed", &initial, naive_cas_bodies);
    assert_eq!(cx2.decisions, cx.decisions);
    assert_eq!(cx2.attempts, cx.attempts);

    // Bit-identical replay of the minimum: same decisions → same trace
    // hash, same failure.
    let (msg, trace) =
        run_verdict(&sched, &cx.decisions, naive_cas_bodies).expect_err("minimum still fails");
    assert_eq!(trace.hash, cx.hash);
    assert_eq!(msg, cx.message);

    // The artifact round-trips: parse recovers the decision list and the
    // hash a replay must match.
    let dir = std::env::temp_dir().join(format!("lfrc-fault-artifact-{}", std::process::id()));
    let path = cx.write_to(&dir).expect("artifact written");
    let text = std::fs::read_to_string(&path).expect("artifact readable");
    let (decisions, hash) = Counterexample::parse(&text).expect("artifact parses");
    assert_eq!(decisions, cx.decisions);
    assert_eq!(hash, cx.hash);
    let _ = std::fs::remove_dir_all(&dir);
}
