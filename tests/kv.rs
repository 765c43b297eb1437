//! Scheduled exploration of the sharded KV front end (`lfrc-kv`):
//! the shard router and batched pin-amortized writes under `lfrc-sched`
//! cooperative interleaving (ISSUE 9 satellite; DESIGN.md §5.16).
//!
//! The oracle is a **single-shard** store driven through the same op
//! sequence under the same seed: hashed routing is a pure partition of
//! the key space, so it must never change what the store as a whole
//! contains. Each scheduled round therefore runs the identical racing
//! bodies against a 4-shard store and a 1-shard oracle and asserts the
//! final key multisets agree (threads write disjoint key ranges, so the
//! final set is also deterministic — the expected-value assert and the
//! oracle assert cross-check each other).
//!
//! Safety evidence per explored schedule, as everywhere else in the
//! suite: zero census canary hits (`rc_on_freed`), zero live objects
//! once decrement buffers flush.
//!
//! Crash plans target the **promote site inside a batch**: `write_batch`
//! applies every write inside one `defer::pinned` scope, and each
//! skip-list write promotes the nodes it links through
//! (`InstrSite::BorrowPromote`) — a thread dying there holds the batch's
//! pin, its promoted references and its parked decrements at once.
//!
//! A second family races two writers over the **same** few keys on one
//! shard, under every strategy, and checks each key's acknowledged
//! writes against its final presence. Skip-list writers descend with
//! borrowed reads and promote what they link through (DESIGN.md §5.9),
//! so these races must also reach a failed promote and its restart,
//! and survive a writer crashing at the promote site.

use std::collections::HashSet;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lfrc_repro::core::{flush_thread, Census, McasWord, Strategy};
use lfrc_repro::kv::{KvConfig, KvStore, KvWrite};
use lfrc_repro::obs::{Counter, Snapshot};
use lfrc_sched::{Body, CrashMode, CrashSpec, FaultPlan, InstrSite, Policy, Schedule, Trace};

const THREADS: usize = 2;

/// Serializes the tests that read process-wide obs counters against
/// every other test in this binary that writes to a skip list.
static SERIAL: Mutex<()> = Mutex::new(());

/// Drains every shard census to quiescence, bounded; returns total
/// still-live objects. A crashed body's parked decrements are released
/// by its thread's exit flush, which can run after `std::thread::scope`
/// returns, so `live()` may reach zero a moment after the store drops.
fn drain_censuses(censuses: &[Arc<Census>]) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    while censuses.iter().any(|c| c.live() != 0) && Instant::now() < deadline {
        flush_thread();
        std::thread::yield_now();
    }
    censuses.iter().map(|c| c.live()).sum()
}

/// Outcome of one scheduled round through one store width.
struct Round {
    trace: Trace,
    /// Every live key at schedule end, sorted (the store-wide multiset;
    /// keys are distinct so multiset equality is sorted-Vec equality).
    keys: Vec<u64>,
    /// Per-thread count of membership probes that saw the expected
    /// answer (2 each on a fault-free run).
    get_hits: Vec<u64>,
    /// Live objects after flush + drain, summed over shards.
    leaked: u64,
    /// Census canary, summed over shards: rc updates on freed objects.
    rc_on_freed: u64,
}

/// The final key set both widths must converge to: thread `i` owns keys
/// `10i..10i+4`, batch-puts three, then batch-deletes one and puts a
/// fourth.
fn expected_keys() -> Vec<u64> {
    let mut keys: Vec<u64> = (0..THREADS as u64)
        .flat_map(|i| [10 * i, 10 * i + 2, 10 * i + 3])
        .collect();
    keys.sort_unstable();
    keys
}

/// One scheduled round: `THREADS` racing bodies of batched writes and
/// membership probes against a `shards`-wide store. Threads write
/// disjoint key ranges but collide freely inside shards (the router
/// scatters both ranges across the same skip lists), so every
/// interleaving exercises cross-thread DCAS races on shared towers.
fn kv_race(shards: usize, strategy: Strategy, policy: &Policy, plan: FaultPlan) -> Round {
    let kv: KvStore<McasWord> = KvStore::with_config(KvConfig { shards, strategy });
    let hits: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(0)).collect();
    let trace = {
        let (kv, hits) = (&kv, &hits);
        let bodies: Vec<Body<'_>> = (0..THREADS)
            .map(|i| {
                let body: Body<'_> = Box::new(move || {
                    let base = 10 * i as u64;
                    // One amortization scope (the reentrant-pin pattern
                    // the kv docs advertise): both batches and the
                    // read-your-writes probes share a single pin window,
                    // inside which the crash plans below kill a writer
                    // at a promote.
                    let h = lfrc_repro::core::defer::pinned(|_pin| {
                        kv.write_batch(&[
                            KvWrite::Put(base),
                            KvWrite::Put(base + 1),
                            KvWrite::Put(base + 2),
                        ]);
                        let mut h = 0u64;
                        if kv.get(base) {
                            h += 1; // own puts are visible to own gets
                        }
                        kv.write_batch(&[KvWrite::Delete(base + 1), KvWrite::Put(base + 3)]);
                        if !kv.get(base + 1) {
                            h += 1; // own deletes too
                        }
                        h
                    });
                    hits[i].store(h, Ordering::SeqCst);
                    // Scheduled bodies must not rely on TLS exit.
                    flush_thread();
                });
                body
            })
            .collect();
        Schedule::new().faults(plan).run(policy, bodies)
    };
    let keys = kv.keys();
    let get_hits: Vec<u64> = hits.iter().map(|h| h.load(Ordering::SeqCst)).collect();
    let censuses: Vec<Arc<Census>> = (0..kv.shard_count())
        .map(|s| Arc::clone(kv.shard(s).heap().census()))
        .collect();
    drop(kv);
    flush_thread();
    let leaked = drain_censuses(&censuses);
    Round {
        trace,
        keys,
        get_hits,
        leaked,
        rc_on_freed: censuses.iter().map(|c| c.rc_on_freed()).sum(),
    }
}

/// The fault-free assertion: a round must land on the deterministic
/// final key set with clean canaries, no leak, and every same-thread
/// probe answered correctly.
fn assert_round_clean(seed: u64, what: &str, round: &Round) {
    assert_eq!(
        round.keys,
        expected_keys(),
        "{what}: final key set diverged — replay with LFRC_SCHED_SEED={seed}"
    );
    for (t, &h) in round.get_hits.iter().enumerate() {
        assert_eq!(
            h, 2,
            "{what}/t{t}: same-thread get missed its own write — replay with LFRC_SCHED_SEED={seed}"
        );
    }
    assert_eq!(
        round.rc_on_freed, 0,
        "{what}: rc update on freed object — replay with LFRC_SCHED_SEED={seed}"
    );
    assert_eq!(
        round.leaked, 0,
        "{what}: leak after flush+drain — replay with LFRC_SCHED_SEED={seed}"
    );
}

/// The acceptance-criteria sweep: ≥5 000 *distinct* seeded schedules of
/// the 4-shard store under the default `DeferredDec` fast path, each
/// diffed against the 1-shard oracle under the same seed.
///
/// Set `LFRC_SCHED_SEED=<n>` to replay a single seed with a full event
/// dump of the sharded schedule instead.
#[test]
fn kv_sweep_explores_5k_distinct_schedules() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let strategy = Strategy::DeferredDec;
    if let Some(seed) = lfrc_sched::seed_from_env() {
        let sharded = kv_race(4, strategy, &Policy::Random(seed), FaultPlan::new());
        let oracle = kv_race(1, strategy, &Policy::Random(seed), FaultPlan::new());
        println!(
            "replayed LFRC_SCHED_SEED={seed} (4-shard): trace hash {:#018x}, {} steps\n{}",
            sharded.trace.hash,
            sharded.trace.steps,
            sharded.trace.format_events()
        );
        assert_round_clean(seed, "kv/4-shard", &sharded);
        assert_round_clean(seed, "kv/oracle", &oracle);
        assert_eq!(sharded.keys, oracle.keys);
        return;
    }
    const TARGET: usize = 5_000;
    let mut hashes = HashSet::new();
    let mut seed = 0u64;
    while hashes.len() < TARGET {
        assert!(
            seed < 20 * TARGET as u64,
            "schedule space saturated at {} distinct schedules before reaching {TARGET}",
            hashes.len()
        );
        let sharded = kv_race(4, strategy, &Policy::Random(seed), FaultPlan::new());
        let oracle = kv_race(1, strategy, &Policy::Random(seed), FaultPlan::new());
        assert_round_clean(seed, "kv/4-shard", &sharded);
        assert_round_clean(seed, "kv/oracle", &oracle);
        assert_eq!(
            sharded.keys, oracle.keys,
            "sharded store disagrees with single-shard oracle — replay with LFRC_SCHED_SEED={seed}"
        );
        hashes.insert(sharded.trace.hash);
        seed += 1;
    }
    println!(
        "explored {} distinct 4-shard KV schedules over {seed} seeds",
        hashes.len()
    );
}

/// Replay determinism: rerunning a seed reproduces a bit-identical
/// trace (hash *and* full event sequence) and identical final keys,
/// across distinct store instances.
#[test]
fn kv_replay_is_bit_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for seed in [5u64, 77, 0xD15C_0B01, 0x5EED_CAFE] {
        let a = kv_race(
            4,
            Strategy::DeferredDec,
            &Policy::Random(seed),
            FaultPlan::new(),
        );
        let b = kv_race(
            4,
            Strategy::DeferredDec,
            &Policy::Random(seed),
            FaultPlan::new(),
        );
        assert_eq!(
            a.trace.hash, b.trace.hash,
            "seed {seed}: trace hash diverged between identical runs"
        );
        assert_eq!(
            a.trace.events, b.trace.events,
            "seed {seed}: event sequences diverged"
        );
        assert_eq!(a.keys, b.keys, "seed {seed}: final keys diverged");
    }
}

/// Every strategy a shard can be built with survives the same scheduled
/// race (a thinner sweep than the DeferredDec one above).
#[test]
fn kv_every_strategy_survives_scheduled_races() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for strategy in Strategy::ALL {
        for seed in 0..40u64 {
            let round = kv_race(4, strategy, &Policy::Random(seed), FaultPlan::new());
            assert_round_clean(seed, strategy.name(), &round);
        }
    }
}

/// Crash plans at the promote site inside a batch: every skip-list
/// write in the body's batch scope promotes the nodes it links through
/// under the batch's one pin, and a thread dying between reading a
/// node's count and taking its own (stalled forever or panicked) must
/// never corrupt a count. The final key set cannot be asserted on a
/// crashed run (the dead thread's writes are legitimately lost
/// mid-batch), so the assertions are safety-only: zero canary hits and
/// a bounded strand.
#[test]
fn kv_crash_plans_at_batch_promote_site() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A crashed thread strands at most its in-flight batch: up to 4
    // skip-list nodes (tower + payload) plus the decrements its buffer
    // had parked.
    const LEAK_BOUND: u64 = 16;
    for mode in [CrashMode::Stall, CrashMode::Panic] {
        let mut fired = false;
        'search: for seed in 0..24u64 {
            for t in 0..THREADS {
                let plan = FaultPlan::new().crash(CrashSpec {
                    thread: t,
                    site: Some(InstrSite::BorrowPromote),
                    skip: 0,
                    mode,
                });
                let round = kv_race(4, Strategy::DeferredDec, &Policy::Random(seed), plan);
                let what = format!("BorrowPromote / {mode:?} / t{t} / seed {seed}");
                assert_eq!(round.rc_on_freed, 0, "{what}: rc update on freed object");
                assert!(
                    round.leaked <= LEAK_BOUND,
                    "{what}: {} live objects exceed the failed-thread bound of {LEAK_BOUND}",
                    round.leaked
                );
                if let Some(c) = round.trace.crashes.first() {
                    assert_eq!(
                        c.site,
                        InstrSite::BorrowPromote,
                        "crash fired at the wrong site"
                    );
                    assert_eq!(c.mode, mode);
                    fired = true;
                    break 'search;
                }
            }
        }
        assert!(
            fired,
            "no batch reached BorrowPromote ({mode:?}) — batch crash coverage lost"
        );
    }
}

/// Keys the same-key sweep races on: few enough that both writers keep
/// landing on the same nodes, towers and preds.
const SAME_KEYS: [u64; 3] = [1, 2, 3];

/// Keys present before the racing bodies start.
const SAME_KEYS_INITIAL: [u64; 2] = [2, 3];

/// Each thread's program over [`SAME_KEYS`]: `true` puts, `false`
/// deletes. Every key sees both kinds of write from both threads.
const SAME_KEY_PROGRAMS: [[(bool, u64); 5]; THREADS] = [
    [(true, 1), (false, 2), (true, 3), (false, 1), (true, 2)],
    [(false, 3), (true, 1), (true, 2), (false, 1), (false, 2)],
];

/// Outcome of one scheduled same-key round.
struct SameKeyRound {
    trace: Trace,
    /// Per key of [`SAME_KEYS`]: successful puts minus successful
    /// deletes, over both threads.
    net: Vec<i64>,
    /// Per key: present after the run.
    present: Vec<bool>,
    /// `PromoteFail` events during the racing bodies.
    promote_fails: u64,
    leaked: u64,
    rc_on_freed: u64,
}

/// Two writers racing puts and deletes of the same keys on a 1-shard
/// store, so every write contends for the same preds, successors and
/// marks: the case the disjoint-range sweep never reaches.
fn same_key_race(strategy: Strategy, policy: &Policy, plan: FaultPlan) -> SameKeyRound {
    let kv: KvStore<McasWord> = KvStore::with_config(KvConfig {
        shards: 1,
        strategy,
    });
    for k in SAME_KEYS_INITIAL {
        assert!(kv.put(k));
    }
    let net: Vec<AtomicI64> = SAME_KEYS.iter().map(|_| AtomicI64::new(0)).collect();
    let before = Snapshot::take();
    let trace = {
        let (kv, net) = (&kv, &net);
        let bodies: Vec<Body<'_>> = SAME_KEY_PROGRAMS
            .iter()
            .map(|program| {
                let body: Body<'_> = Box::new(move || {
                    for &(put, k) in program {
                        let slot = &net[SAME_KEYS.iter().position(|&s| s == k).unwrap()];
                        if put && kv.put(k) {
                            slot.fetch_add(1, Ordering::SeqCst);
                        } else if !put && kv.delete(k) {
                            slot.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    flush_thread();
                });
                body
            })
            .collect();
        Schedule::new().faults(plan).run(policy, bodies)
    };
    let promote_fails = Snapshot::take().diff(&before).get(Counter::PromoteFail);
    let present = SAME_KEYS.iter().map(|&k| kv.get(k)).collect();
    let census = Arc::clone(kv.shard(0).heap().census());
    drop(kv);
    flush_thread();
    let leaked = drain_censuses(std::slice::from_ref(&census));
    SameKeyRound {
        trace,
        net: net.iter().map(|n| n.load(Ordering::SeqCst)).collect(),
        present,
        promote_fails,
        leaked,
        rc_on_freed: census.rc_on_freed(),
    }
}

/// Same-key writer races under every strategy: ≥2 000 distinct
/// schedules under the default `DeferredDec` (whose promotes can fail
/// and restart the descent), ≥200 under `Dcas`.
/// Per key, the acknowledged writes must account for the final
/// presence: `initially present + successful puts − successful deletes
/// ∈ {0, 1}` and equal to whether the key is present. Every round must
/// leave no leak and no rc update on a freed object, and at least one
/// `DeferredDec` schedule must fail a promote, so the restart path runs.
///
/// Holds [`SERIAL`]: the promote-failure tally is a process-wide counter
/// delta, so no other test in this binary may run skip-list writes
/// meanwhile.
#[test]
fn kv_same_key_writer_races_under_every_strategy() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (strategy, target) in [(Strategy::DeferredDec, 2_000usize), (Strategy::Dcas, 200)] {
        let mut hashes = HashSet::new();
        let mut promote_fails = 0u64;
        let mut seed = 0u64;
        while hashes.len() < target {
            assert!(
                seed < 20 * target as u64,
                "{strategy}: schedule space saturated at {} distinct schedules",
                hashes.len()
            );
            let round = same_key_race(strategy, &Policy::Random(seed), FaultPlan::new());
            let what = format!("{strategy} — replay with LFRC_SCHED_SEED={seed}");
            for (i, &k) in SAME_KEYS.iter().enumerate() {
                let initial = i64::from(SAME_KEYS_INITIAL.contains(&k));
                let presence = initial + round.net[i];
                assert!(
                    presence == 0 || presence == 1,
                    "{what}: key {k} acknowledged writes sum to presence {presence}"
                );
                assert_eq!(
                    presence == 1,
                    round.present[i],
                    "{what}: key {k} presence disagrees with its acknowledged writes"
                );
            }
            assert_eq!(round.rc_on_freed, 0, "{what}: rc update on freed object");
            assert_eq!(round.leaked, 0, "{what}: leak after flush+drain");
            promote_fails += round.promote_fails;
            hashes.insert(round.trace.hash);
            seed += 1;
        }
        if strategy == Strategy::DeferredDec && lfrc_repro::obs::enabled() {
            assert!(
                promote_fails > 0,
                "no DeferredDec schedule failed a promote — the restart path went unexplored"
            );
        }
        println!(
            "{strategy}: {} distinct same-key schedules over {seed} seeds, {promote_fails} failed promotes",
            hashes.len()
        );
    }
}

/// Crash plans at the promote site: a writer dies (stalled until the
/// run ends, or panicked) between reading a node's count and taking its
/// own, on every seed and thread of a small sweep. The final key set
/// cannot be asserted (the dead thread's write may or may not have
/// landed), so the assertions are safety only: zero rc updates on freed
/// objects and nothing left live after the drain.
#[test]
fn kv_same_key_crash_plans_at_promote_site() {
    // The leak bound is zero. A crashed writer holds only unwindable
    // state: promoted `Local`s, its unpublished node, and parked
    // decrements. Unwinding drops the first two and the dying thread's
    // exit flush applies the third, so the drain must find nothing live.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for mode in [CrashMode::Stall, CrashMode::Panic] {
        let mut fired = 0;
        for seed in 0..24u64 {
            for t in 0..THREADS {
                let plan = FaultPlan::new().crash(CrashSpec {
                    thread: t,
                    site: Some(InstrSite::BorrowPromote),
                    skip: (seed % 4) as u32,
                    mode,
                });
                let round = same_key_race(Strategy::DeferredDec, &Policy::Random(seed), plan);
                let what = format!("BorrowPromote / {mode:?} / t{t} / seed {seed}");
                assert_eq!(round.rc_on_freed, 0, "{what}: rc update on freed object");
                assert_eq!(
                    round.leaked, 0,
                    "{what}: the crashed writer stranded live objects"
                );
                if let Some(c) = round.trace.crashes.first() {
                    assert_eq!(
                        c.site,
                        InstrSite::BorrowPromote,
                        "crash fired at the wrong site"
                    );
                    assert_eq!(c.mode, mode);
                    fired += 1;
                }
            }
        }
        assert!(
            fired > 0,
            "no writer reached BorrowPromote ({mode:?}) — promote coverage lost"
        );
        println!(
            "BorrowPromote / {mode:?}: {fired} of {} rounds crashed",
            24 * THREADS
        );
    }
}
