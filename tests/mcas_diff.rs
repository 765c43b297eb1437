//! Differential schedule exploration: the immortal-descriptor MCAS
//! (`McasWord`, DESIGN.md §5.14) against the striped-lock `LockWord`.
//!
//! `McasWord` keeps its MCAS/RDCSS descriptors in per-thread
//! sequence-numbered slots that are reused in place and never reclaimed;
//! helpers validate the sequence packed into the in-word reference and
//! abandon on mismatch instead of helping a recycled operation. Its
//! safety argument (§5.14) is about *every* interleaving, so the evidence
//! here is differential: the **same op sequence** is driven through a
//! structure on each substrate under `lfrc-sched` cooperative
//! exploration, and on every explored schedule the observable results
//! must be identical — conservation of the value multiset, zero census
//! canary hits (`rc_on_freed`), zero leaks once the grace period drains.
//! `LockWord` shares no code with the descriptor machinery (it takes
//! ordered stripe locks), which makes it an independent spec.
//!
//! As in `strategy_diff.rs`, equivalence is multiset equality: the two
//! substrates yield at different sites (claim/validate windows vs the
//! lock spin), so the same seed explores *different* schedules per
//! substrate; what may not differ is what the structure as a whole gave
//! out.
//!
//! The second half is the targeted helper-race regression: a helper
//! that holds a descriptor word across a full reuse cycle must abandon,
//! and the *naive* helper — which finishes any `UNDECIDED` status it sees
//! without comparing sequences — demonstrably corrupts the reused slot's
//! new operation. That failure is delta-debugged to a minimal schedule
//! and round-tripped through the counterexample artifact format, exactly
//! like the E5 defect in `fault.rs`.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lfrc_repro::core::{Census, DcasWord, LockWord, McasWord, Strategy};
use lfrc_repro::dcas::mcas::test_support;
use lfrc_repro::structures::{ConcurrentQueue, ConcurrentStack, LfrcQueue, LfrcStack};
use lfrc_sched::shrink::{run_verdict, shrink_failure, Counterexample};
use lfrc_sched::{Body, CrashMode, CrashSpec, FaultPlan, InstrSite, Policy, Schedule, Trace};

/// Sentinel for "this popper got nothing".
const NONE: u64 = u64::MAX;

/// Drains the census to quiescence, bounded: retired nodes free only
/// after the epoch advances past their grace period.
fn drain_census(census: &Census) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    while census.live() != 0 && Instant::now() < deadline {
        lfrc_repro::core::flush_thread();
        lfrc_repro::dcas::quiesce();
        std::thread::yield_now();
    }
    census.live()
}

/// Outcome of one scheduled round on one DCAS substrate.
struct Round {
    trace: Trace,
    /// Sorted multiset of every value the structure gave out.
    values: Vec<u64>,
    /// Live objects after flush + grace drain.
    leaked: u64,
    /// Census canary: rc updates applied to freed objects.
    rc_on_freed: u64,
}

/// The op sequence both substrates must agree on, stack edition: a
/// one-deep Treiber stack raced by two push-pop-pop bodies on the
/// DCAS-heavy `Strategy::Dcas` path, so on `McasWord` every hot-loop step
/// claims descriptor slots and crosses their yield sites.
fn stack_race<W: DcasWord>(policy: &Policy, plan: FaultPlan) -> Round {
    let st: LfrcStack<W> = LfrcStack::with_strategy(Strategy::Dcas);
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
                    lfrc_repro::core::flush_thread();
                    if let Some(v) = st.pop() {
                        got[2 * i + 1].store(v, Ordering::SeqCst);
                    }
                    lfrc_repro::core::flush_thread();
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
    lfrc_repro::core::flush_thread();
    let leaked = drain_census(&census);
    Round {
        trace,
        values,
        leaked,
        rc_on_freed: census.rc_on_freed(),
    }
}

/// The op sequence both substrates must agree on, queue edition — the
/// M&S queue's two-field (head/tail) shape drives more MCAS traffic
/// through the claimed slots than the stack's single root.
fn queue_race<W: DcasWord>(policy: &Policy, plan: FaultPlan) -> Round {
    let q: LfrcQueue<W> = LfrcQueue::with_strategy(Strategy::Dcas);
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
                    lfrc_repro::core::flush_thread();
                    if let Some(v) = q.dequeue() {
                        got[2 * i + 1].store(v, Ordering::SeqCst);
                    }
                    lfrc_repro::core::flush_thread();
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
    lfrc_repro::core::flush_thread();
    let leaked = drain_census(&census);
    Round {
        trace,
        values,
        leaked,
        rc_on_freed: census.rc_on_freed(),
    }
}

/// The differential assertion: a fault-free round must conserve the
/// exact multiset on *both* substrates, with clean canaries and no leak
/// — and therefore the two substrates agree with each other.
fn assert_substrates_agree(seed: u64, what: &str, mcas: &Round, lock: &Round) {
    for (name, round) in [("McasWord", mcas), ("LockWord", lock)] {
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
            "{what}/{name}: leak after drain — replay with LFRC_SCHED_SEED={seed}"
        );
    }
    assert_eq!(
        mcas.values, lock.values,
        "{what}: McasWord and LockWord disagree on observable results — replay with \
         LFRC_SCHED_SEED={seed}"
    );
}

/// Runs one seed of `race` on both substrates and diffs them; returns
/// the `McasWord` round.
fn diff_seed(
    seed: u64,
    what: &str,
    race: fn(&Policy, FaultPlan) -> Round,
    lock_race: fn(&Policy, FaultPlan) -> Round,
) -> Round {
    let mcas = race(&Policy::Random(seed), FaultPlan::new());
    let lock = lock_race(&Policy::Random(seed), FaultPlan::new());
    assert_substrates_agree(seed, what, &mcas, &lock);
    mcas
}

/// Explores ≥10 000 *distinct* seeded `McasWord` schedules of one
/// workload, each diffed against `LockWord` under the same seed.
///
/// Set `LFRC_SCHED_SEED=<n>` to replay a single seed with a full event
/// dump of the `McasWord` schedule instead.
fn explore_10k(
    what: &str,
    race: fn(&Policy, FaultPlan) -> Round,
    lock_race: fn(&Policy, FaultPlan) -> Round,
) {
    if let Some(seed) = lfrc_sched::seed_from_env() {
        let mcas = diff_seed(seed, what, race, lock_race);
        println!(
            "replayed LFRC_SCHED_SEED={seed} (McasWord): trace hash {:#018x}, {} steps\n{}",
            mcas.trace.hash,
            mcas.trace.steps,
            mcas.trace.format_events()
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
        hashes.insert(diff_seed(seed, what, race, lock_race).trace.hash);
        seed += 1;
    }
    println!(
        "explored {} distinct McasWord {what} schedules over {seed} seeds",
        hashes.len()
    );
}

/// The acceptance-criteria test, stack edition.
#[test]
fn mcas_diff_explores_10k_distinct_stack_schedules() {
    explore_10k("stack", stack_race::<McasWord>, stack_race::<LockWord>);
}

/// The acceptance-criteria test, queue edition.
#[test]
fn mcas_diff_explores_10k_distinct_queue_schedules() {
    explore_10k("queue", queue_race::<McasWord>, queue_race::<LockWord>);
}

/// The descriptor yield sites must actually be crossed by the explored
/// schedules: otherwise the differential tests above would be diffing
/// the lock-free windows only.
#[test]
fn mcas_diff_sites_are_explored() {
    let mut seen = HashSet::new();
    for seed in 0..50u64 {
        let round = stack_race::<McasWord>(&Policy::Random(seed), FaultPlan::new());
        for e in &round.trace.events {
            if let Some(site) = e.site {
                seen.insert(site.name());
            }
        }
    }
    for site in [
        InstrSite::DescClaim,
        InstrSite::DescSeqBump,
        InstrSite::DescHelperValidate,
    ] {
        assert!(
            seen.contains(site.name()),
            "yield site {} never appeared in 50 explored McasWord schedules (seen: {seen:?})",
            site.name()
        );
    }
}

/// Replay determinism: rerunning a seed reproduces a bit-identical trace
/// (hash *and* full event sequence) and identical observable outcomes,
/// across distinct structure instances — slot *indices* differ between
/// runs, but the trace mixes only thread ids and site tags, so the
/// schedule itself is index-independent.
#[test]
fn mcas_replay_is_bit_identical() {
    for seed in [3u64, 91, 0xFEED_FACE, 0x1AC5_B00C] {
        let a = stack_race::<McasWord>(&Policy::Random(seed), FaultPlan::new());
        let b = stack_race::<McasWord>(&Policy::Random(seed), FaultPlan::new());
        assert_eq!(
            a.trace.hash, b.trace.hash,
            "seed {seed}: trace hash diverged between identical runs"
        );
        assert_eq!(
            a.trace.events, b.trace.events,
            "seed {seed}: event sequences diverged"
        );
        assert_eq!(a.values, b.values, "seed {seed}: observed values diverged");
    }
}

/// At least one crash `FaultPlan` per descriptor yield site, in both
/// crash modes. A thread dying in a claim or validate window must never
/// corrupt a count; conservation cannot be asserted on a crashed run (the
/// dead thread's ops are legitimately lost), so the assertions are
/// safety-only: zero canary hits and a bounded strand.
#[test]
fn mcas_diff_crash_plans_on_desc_sites() {
    const LEAK_BOUND: u64 = 6;
    for site in [
        InstrSite::DescClaim,
        InstrSite::DescSeqBump,
        InstrSite::DescHelperValidate,
    ] {
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
                    let round = stack_race::<McasWord>(&Policy::Random(seed), plan);
                    assert_eq!(
                        round.rc_on_freed,
                        0,
                        "{} / {:?} / t{t} / seed {seed}: rc update on freed object",
                        site.name(),
                        mode
                    );
                    assert!(
                        round.leaked <= LEAK_BOUND,
                        "{} / {:?} / t{t} / seed {seed}: {} live objects exceed the \
                         failed-thread bound of {LEAK_BOUND}",
                        site.name(),
                        mode,
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
                "no workload reached {} ({:?}) — coverage lost",
                site.name(),
                mode
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Helper-race regression: a descriptor held across a full reuse cycle
// ---------------------------------------------------------------------------

/// The race the sequence validation exists for. Body 0 (the owner)
/// completes one immortal DCAS, publishes its — now stale — descriptor
/// word, then runs a second DCAS through the *same reused slot*. Body 1
/// (the helper) picks up the stale word and repeatedly "helps" it while
/// the owner's second operation is in flight.
///
/// With `naive` set, the helper is the pre-fix one
/// ([`test_support::naive_stale_status_cas`]): it finishes any
/// `UNDECIDED` status it observes without comparing sequences, which can
/// spuriously FAIL the owner's second operation — the owner's assert
/// fires and the schedule fails. With `naive` off, the helper is the
/// real sequence-validated path, which must abandon: the owner's second
/// operation succeeds on every schedule.
fn helper_race_bodies(naive: bool) -> Vec<Body<'static>> {
    let a = Arc::new(McasWord::new(0));
    let b = Arc::new(McasWord::new(0));
    let stale = Arc::new(AtomicU64::new(0));
    vec![
        {
            let (a, b, stale) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&stale));
            Box::new(move || {
                assert!(
                    McasWord::dcas(&a, &b, 0, 0, 1, 1),
                    "the first dcas is uncontended"
                );
                stale.store(test_support::thread_mcas_word(), Ordering::SeqCst);
                // The reuse the stale word must not be able to touch.
                assert!(
                    McasWord::dcas(&a, &b, 1, 1, 2, 2),
                    "the reused slot's dcas spuriously failed"
                );
            })
        },
        {
            let stale = Arc::clone(&stale);
            Box::new(move || {
                for _ in 0..4 {
                    let w = stale.load(Ordering::SeqCst);
                    if w == 0 {
                        lfrc_repro::dcas::instrument::yield_point(InstrSite::DescHelperValidate);
                        continue;
                    }
                    if naive {
                        let _ = test_support::naive_stale_status_cas(w);
                    } else {
                        assert!(
                            !test_support::validated_help(w),
                            "a seq-validated helper reported success for a stale word"
                        );
                    }
                }
            })
        },
    ]
}

/// The fix, under exploration: a helper holding a descriptor word across
/// a full reuse cycle (sequence bump) abandons on every one of 300
/// seeded schedules, and the owner's reused-slot operation is never
/// perturbed.
#[test]
fn validated_helper_abandons_across_reuse_on_every_schedule() {
    let sched = Schedule::new();
    for seed in 0..300u64 {
        let (_trace, failure) = sched.run_caught(&Policy::Random(seed), helper_race_bodies(false));
        assert!(
            failure.is_none(),
            "seed {seed}: sequence-validated helping failed: {failure:?}"
        );
    }
}

/// The pre-fix counterexample, shrunk and shipped: seed-search the naive
/// helper to a failing schedule, delta-debug it to a locally-minimal
/// decision list, check the minimum replays bit-identically, and
/// round-trip it through the artifact format.
#[test]
fn shrinker_minimizes_the_naive_helper_reuse_corruption() {
    let sched = Schedule::new();
    let mut initial: Option<Vec<u32>> = None;
    for seed in 0..400 {
        let (trace, failure) = sched.run_caught(&Policy::Random(seed), helper_race_bodies(true));
        if failure.is_some() {
            initial = Some(trace.decisions.iter().map(|d| d.choice).collect());
            break;
        }
    }
    let initial = initial.expect("the naive helper's reuse corruption must be schedulable");

    let cx = shrink_failure(&sched, "naive-helper-reuse-corruption", &initial, || {
        helper_race_bodies(true)
    });
    assert!(
        cx.message.contains("spuriously failed"),
        "minimized to the wrong failure: {}",
        cx.message
    );

    // Deterministic: shrinking the same failure again lands on the same
    // minimum in the same number of attempts.
    let cx2 = shrink_failure(&sched, "naive-helper-reuse-corruption", &initial, || {
        helper_race_bodies(true)
    });
    assert_eq!(cx2.decisions, cx.decisions);
    assert_eq!(cx2.attempts, cx.attempts);

    // Bit-identical replay of the minimum.
    let (msg, trace) = run_verdict(&sched, &cx.decisions, || helper_race_bodies(true))
        .expect_err("minimum still fails");
    assert_eq!(trace.hash, cx.hash);
    assert_eq!(msg, cx.message);

    // The artifact round-trips: parse recovers the decision list and the
    // hash a replay must match.
    let dir = std::env::temp_dir().join(format!("lfrc-desc-artifact-{}", std::process::id()));
    let path = cx.write_to(&dir).expect("artifact written");
    let text = std::fs::read_to_string(&path).expect("artifact readable");
    let (decisions, hash) = Counterexample::parse(&text).expect("artifact parses");
    assert_eq!(decisions, cx.decisions);
    assert_eq!(hash, cx.hash);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Nightly deep exploration (env-gated)
// ---------------------------------------------------------------------------

/// How many extra seeds the deep test sweeps; zero (the default) skips
/// it, the nightly workflow sets `LFRC_DEEP_SEEDS` to a few thousand.
fn deep_seeds() -> u64 {
    std::env::var("LFRC_DEEP_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Deep differential sweep for the nightly job: fresh seeds (offset past
/// the 10k tests' range) through both workloads.
#[test]
fn deep_exploration_mcas_diff() {
    for seed in 0..deep_seeds() {
        let seed = 1_000_000 + seed;
        diff_seed(
            seed,
            "deep-stack",
            stack_race::<McasWord>,
            stack_race::<LockWord>,
        );
        diff_seed(
            seed,
            "deep-queue",
            queue_race::<McasWord>,
            queue_race::<LockWord>,
        );
    }
}
