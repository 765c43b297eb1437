//! Differential schedule exploration: the `Strategy::DeferredDec` fast
//! path against the paper-faithful `Strategy::Dcas` path (DESIGN.md
//! §5.9).
//!
//! The deferred path replaces the counted load's DCAS with a plain load
//! inside an epoch pin, takes a count only through a CAS-from-nonzero
//! promote, and parks displaced counts on a per-thread decrement buffer.
//! Its safety argument is a proof about *every* interleaving, so the
//! evidence here is differential: the **same op sequence** is driven
//! through both strategies under `lfrc-sched` cooperative exploration,
//! and on every explored schedule the observable results must be
//! identical — conservation of the value multiset, zero census canary
//! hits (`rc_on_freed`), zero leaks once buffers flush.
//!
//! Observable equivalence is multiset equality, not per-popper equality:
//! which racing popper obtains which value legitimately depends on the
//! interleaving, and the two strategies yield at different sites, so the
//! same seed explores *different* schedules per strategy. What may not
//! differ is what the structure as a whole gave out.
//!
//! The DCAS path stays in-tree untouched as the executable spec this
//! file diffs against — that is its job now (README "Load strategies").

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lfrc_repro::core::{flush_thread, Census, McasWord, Strategy};
use lfrc_repro::structures::{ConcurrentQueue, ConcurrentStack, LfrcQueue, LfrcStack};
use lfrc_sched::{Body, CrashMode, CrashSpec, FaultPlan, InstrSite, Policy, Schedule, Trace};

/// Sentinel for "this popper got nothing".
const NONE: u64 = u64::MAX;

/// The deferred-path yield sites both workloads reach: the uncounted
/// read, the promote CAS window and the decrement-buffer append.
const DEC_SITES: [InstrSite; 3] = [
    InstrSite::BorrowLoad,
    InstrSite::BorrowPromote,
    InstrSite::DeferAppend,
];

/// Drains the census to quiescence, bounded. A crashed body's parked
/// decrements are released by its thread's exit flush, which can run
/// after `std::thread::scope` returns, so `live()` may reach zero a
/// moment after the structure drops. A crash can also strand objects for
/// good (the bound the crash plans check), so the wait is short.
fn drain_census(census: &Census) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(1);
    while census.live() != 0 && Instant::now() < deadline {
        flush_thread();
        std::thread::yield_now();
    }
    census.live()
}

/// Outcome of one scheduled round through one strategy.
struct Round {
    trace: Trace,
    /// Sorted multiset of every value the structure gave out (racing
    /// pops + the post-run drain).
    values: Vec<u64>,
    /// Live objects after flush + drain.
    leaked: u64,
    /// Census canary: rc updates applied to freed objects.
    rc_on_freed: u64,
}

/// One scheduled round of a workload under a strategy.
type Race = fn(Strategy, &Policy, FaultPlan) -> Round;

/// The op sequence both strategies must agree on, stack edition: a
/// one-deep stack raced by two push-pop-pop bodies, every hot-loop step
/// crossing the strategy's yield sites ([`DEC_SITES`] for DeferredDec;
/// the DCAS window for Dcas).
fn stack_race(strategy: Strategy, policy: &Policy, plan: FaultPlan) -> Round {
    let st: LfrcStack<McasWord> = LfrcStack::with_strategy(strategy);
    st.push(100);
    let got: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(NONE)).collect();
    let trace = {
        let (st, got) = (&st, &got);
        let bodies: Vec<Body<'_>> = (0..2usize)
            .map(|i| {
                let body: Body<'_> = Box::new(move || {
                    st.push(200 + i as u64);
                    if let Some(v) = st.pop() {
                        got[2 * i].store(v, Ordering::SeqCst);
                    }
                    // Flush mid-body so the flush windows interleave with
                    // the other thread's loads, then again at the end
                    // (scheduled bodies must not rely on TLS exit — see
                    // lfrc_core::defer).
                    flush_thread();
                    if let Some(v) = st.pop() {
                        got[2 * i + 1].store(v, Ordering::SeqCst);
                    }
                    flush_thread();
                });
                body
            })
            .collect();
        Schedule::new().faults(plan).run(policy, bodies)
    };
    let mut values: Vec<u64> = got
        .iter()
        .map(|s| s.load(Ordering::SeqCst))
        .filter(|&v| v != NONE)
        .collect();
    while let Some(v) = st.pop() {
        values.push(v);
    }
    values.sort_unstable();
    let census = Arc::clone(st.heap().census());
    drop(st);
    flush_thread();
    let leaked = drain_census(&census);
    Round {
        trace,
        values,
        leaked,
        rc_on_freed: census.rc_on_freed(),
    }
}

/// The op sequence both strategies must agree on, queue edition — the
/// M&S queue's two-field (head/tail) shape reaches the promote and the
/// parked decrements from a different direction than the stack's single
/// root.
fn queue_race(strategy: Strategy, policy: &Policy, plan: FaultPlan) -> Round {
    let q: LfrcQueue<McasWord> = LfrcQueue::with_strategy(strategy);
    q.enqueue(100);
    let got: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(NONE)).collect();
    let trace = {
        let (q, got) = (&q, &got);
        let bodies: Vec<Body<'_>> = (0..2usize)
            .map(|i| {
                let body: Body<'_> = Box::new(move || {
                    q.enqueue(200 + i as u64);
                    if let Some(v) = q.dequeue() {
                        got[2 * i].store(v, Ordering::SeqCst);
                    }
                    flush_thread();
                    if let Some(v) = q.dequeue() {
                        got[2 * i + 1].store(v, Ordering::SeqCst);
                    }
                    flush_thread();
                });
                body
            })
            .collect();
        Schedule::new().faults(plan).run(policy, bodies)
    };
    let mut values: Vec<u64> = got
        .iter()
        .map(|s| s.load(Ordering::SeqCst))
        .filter(|&v| v != NONE)
        .collect();
    while let Some(v) = q.dequeue() {
        values.push(v);
    }
    values.sort_unstable();
    let census = Arc::clone(q.heap().census());
    drop(q);
    flush_thread();
    let leaked = drain_census(&census);
    Round {
        trace,
        values,
        leaked,
        rc_on_freed: census.rc_on_freed(),
    }
}

/// The differential assertion: a fault-free round must conserve the
/// exact multiset under *both* strategies, with clean canaries and no
/// leak — and therefore the two strategies agree with each other.
fn assert_strategies_agree(seed: u64, what: &str, dcas: &Round, dec: &Round) {
    for (name, round) in [("Dcas", dcas), ("DeferredDec", dec)] {
        assert_eq!(
            round.values,
            vec![100, 200, 201],
            "{what}/{name}: conservation violated — replay with LFRC_SCHED_SEED={seed}"
        );
        assert_eq!(
            round.rc_on_freed, 0,
            "{what}/{name}: rc update on freed object — replay with LFRC_SCHED_SEED={seed}"
        );
        assert_eq!(
            round.leaked, 0,
            "{what}/{name}: leak after flush+drain — replay with LFRC_SCHED_SEED={seed}"
        );
    }
    assert_eq!(
        dcas.values, dec.values,
        "{what}: strategies disagree on observable results — replay with LFRC_SCHED_SEED={seed}"
    );
}

/// Runs `race` under both strategies for seeds 0, 1, … until 10 000
/// *distinct* DeferredDec schedules have been diffed against the DCAS
/// spec under the same seed.
///
/// Set `LFRC_SCHED_SEED=<n>` to replay a single seed with a full event
/// dump of the DeferredDec schedule instead.
fn explore_10k_distinct(what: &str, race: Race) {
    let diff = |seed| {
        let dcas = race(Strategy::Dcas, &Policy::Random(seed), FaultPlan::new());
        let dec = race(
            Strategy::DeferredDec,
            &Policy::Random(seed),
            FaultPlan::new(),
        );
        assert_strategies_agree(seed, what, &dcas, &dec);
        dec.trace
    };
    if let Some(seed) = lfrc_sched::seed_from_env() {
        let trace = diff(seed);
        println!(
            "replayed LFRC_SCHED_SEED={seed} (DeferredDec): trace hash {:#018x}, {} steps\n{}",
            trace.hash,
            trace.steps,
            trace.format_events()
        );
        return;
    }
    const TARGET: usize = 10_000;
    let mut hashes = HashSet::new();
    let mut seed = 0u64;
    while hashes.len() < TARGET {
        assert!(
            seed < 20 * TARGET as u64,
            "schedule space saturated at {} distinct schedules before reaching {TARGET}",
            hashes.len()
        );
        hashes.insert(diff(seed).hash);
        seed += 1;
    }
    println!(
        "explored {} distinct DeferredDec {what} schedules over {seed} seeds",
        hashes.len()
    );
}

/// The acceptance-criteria test, stack edition.
#[test]
fn strategy_diff_explores_10k_distinct_stack_schedules() {
    explore_10k_distinct("stack", stack_race);
}

/// The acceptance-criteria test, queue edition.
#[test]
fn strategy_diff_explores_10k_distinct_queue_schedules() {
    explore_10k_distinct("queue", queue_race);
}

/// Every deferred-path site must actually be crossed by the explored
/// schedules of both workloads — otherwise the differential tests above
/// would be diffing the DCAS windows only.
#[test]
fn strategy_diff_dec_sites_are_explored() {
    for (what, race) in [("stack", stack_race as Race), ("queue", queue_race)] {
        let mut seen = HashSet::new();
        for seed in 0..50u64 {
            let round = race(
                Strategy::DeferredDec,
                &Policy::Random(seed),
                FaultPlan::new(),
            );
            seen.extend(round.trace.events.iter().filter_map(|e| e.site));
        }
        for site in DEC_SITES {
            assert!(
                seen.contains(&site),
                "{what}: yield site {} never appeared in 50 explored schedules (seen: {seen:?})",
                site.name()
            );
        }
    }
}

/// DeferredDec replay determinism: rerunning a seed reproduces a
/// bit-identical trace (hash *and* full event sequence) and identical
/// observable outcomes, across distinct structure instances.
#[test]
fn strategy_diff_dec_replay_is_bit_identical() {
    for seed in [3u64, 91, 0xFEED_FACE, 0x1AC5_B00C] {
        let a = stack_race(
            Strategy::DeferredDec,
            &Policy::Random(seed),
            FaultPlan::new(),
        );
        let b = stack_race(
            Strategy::DeferredDec,
            &Policy::Random(seed),
            FaultPlan::new(),
        );
        assert_eq!(
            a.trace.hash, b.trace.hash,
            "seed {seed}: DeferredDec trace hash diverged between identical runs"
        );
        assert_eq!(
            a.trace.events, b.trace.events,
            "seed {seed}: DeferredDec event sequences diverged"
        );
        assert_eq!(a.values, b.values, "seed {seed}: observed values diverged");
    }
}

/// At least one crash `FaultPlan` per deferred-path site, in both modes
/// and on both workloads: a thread dying at one of these sites must never
/// corrupt a count. Conservation cannot be asserted on a crashed run (the
/// dead thread's ops are legitimately lost), so the assertions are
/// safety-only: zero canary hits and a bounded strand.
#[test]
fn strategy_diff_crash_plans_on_dec_sites() {
    const LEAK_BOUND: u64 = 6;
    for (what, race) in [("stack", stack_race as Race), ("queue", queue_race)] {
        for site in DEC_SITES {
            for mode in [CrashMode::Stall, CrashMode::Panic] {
                let mut fired = false;
                'search: for seed in 0..24u64 {
                    for t in 0..2usize {
                        let plan = FaultPlan::new().crash(CrashSpec {
                            thread: t,
                            site: Some(site),
                            skip: 0,
                            mode,
                        });
                        let round = race(Strategy::DeferredDec, &Policy::Random(seed), plan);
                        let at =
                            format!("{what} / {} / {mode:?} / t{t} / seed {seed}", site.name());
                        assert_eq!(round.rc_on_freed, 0, "{at}: rc update on freed object");
                        assert!(
                            round.leaked <= LEAK_BOUND,
                            "{at}: {} live objects exceed the failed-thread bound of {LEAK_BOUND}",
                            round.leaked
                        );
                        if let Some(c) = round.trace.crashes.first() {
                            assert_eq!(c.site, site, "crash fired at the wrong site");
                            assert_eq!(c.mode, mode);
                            fired = true;
                            break 'search;
                        }
                    }
                }
                assert!(
                    fired,
                    "{what}: no schedule reached {} ({mode:?}) — coverage lost",
                    site.name()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// OOM differential (compiled only with `--features inject`)
// ---------------------------------------------------------------------------

#[cfg(feature = "inject")]
mod oom {
    use super::*;
    use lfrc_sched::{AllocSite, OomSpec};

    /// Allocation refusals must not open a divergence between the
    /// strategies: under a pooled-allocation OOM both fall back to the
    /// global allocator and still agree on the observable multiset.
    #[test]
    fn strategy_diff_holds_under_heap_oom() {
        for seed in 0..40u64 {
            let plan = || {
                FaultPlan::new().oom(OomSpec {
                    thread: 0,
                    site: AllocSite::HeapPooled,
                    skip: 0,
                    count: u32::MAX,
                })
            };
            let dcas = stack_race(Strategy::Dcas, &Policy::Random(seed), plan());
            let dec = stack_race(Strategy::DeferredDec, &Policy::Random(seed), plan());
            assert_strategies_agree(seed, "stack-oom", &dcas, &dec);
        }
    }

    /// Borrowed loads and their promotes never allocate through an
    /// instrumented alloc site: a borrow is a plain load and a promote a
    /// CAS on the count. Executable documentation — a plan refusing
    /// *every* alloc site records zero refusals across a run that only
    /// performs pinned borrow-and-promote reads.
    #[test]
    fn borrowed_loads_never_hit_an_alloc_site() {
        use lfrc_repro::core::{Borrowed, Heap, Links, PtrField, SharedField};
        struct Leaf {
            #[allow(dead_code)]
            id: u64,
        }
        impl Links<McasWord> for Leaf {
            fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {}
        }
        // Everything that legitimately allocates happens out here,
        // before the schedule (and its refusals) begin.
        let heap: Heap<Leaf, McasWord> = Heap::new();
        let census = Arc::clone(heap.census());
        let root: SharedField<Leaf, McasWord> = SharedField::null();
        let first = heap.alloc(Leaf { id: 0 });
        root.store(Some(&first));
        drop(first);
        let mut plan = FaultPlan::new();
        for site in AllocSite::ALL {
            plan = plan.oom(OomSpec {
                thread: 0,
                site,
                skip: 0,
                count: u32::MAX,
            });
        }
        let trace = {
            let root = &root;
            let body: Body<'_> = Box::new(move || {
                lfrc_repro::core::defer::pinned(|pin| {
                    for _ in 0..64 {
                        let b = root.load_deferred(pin).expect("root stays set");
                        drop(Borrowed::promote(&b).expect("root keeps it alive"));
                    }
                });
                flush_thread();
            });
            Schedule::new()
                .faults(plan)
                .run(&Policy::Random(0), vec![body])
        };
        assert_eq!(
            trace.oom_refusals, 0,
            "a borrowed load or promote consulted a fallible alloc site"
        );
        root.store(None);
        flush_thread();
        assert_eq!(drain_census(&census), 0);
        assert_eq!(census.rc_on_freed(), 0);
    }
}
