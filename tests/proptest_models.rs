//! Property-based tests: every structure against its sequential model,
//! plus refcount invariants under explored adversarial schedules.
//!
//! Strategy: generate operation sequences from a seeded [`SplitMix64`]
//! stream (the workspace builds offline, so no proptest; every failing
//! case prints its seed) and replay them simultaneously against the LFRC
//! structure and a `std` model (`VecDeque`/`Vec`/`BTreeSet`); every
//! observable result must match, and the census must be empty after
//! teardown (invariant I3). Sequential equivalence plus the concurrent
//! conservation tests in `integration.rs` together cover the paper's
//! correctness story: the *transformation* must not change behaviour.
//!
//! The `rc_invariant_*` tests go further: they drive clone/load/store/
//! drop races through the `lfrc-sched` cooperative scheduler (so the
//! `LFRCLoad` DCAS window and the `LFRCDestroy` decrement interleave in
//! every explored order) and assert the two safety invariants the paper
//! argues for — all objects reclaimed (zero live) and no access after
//! free (zero canary hits) — for **both** DCAS strategies.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use lfrc_repro::core::{DcasWord, Heap, Links, LockWord, McasWord, PtrField, SharedField};
use lfrc_repro::deque::{ConcurrentDeque, GcSnark, GcSnarkRepaired, LfrcSnark, LfrcSnarkRepaired};
use lfrc_repro::structures::{ConcurrentQueue, ConcurrentStack, LfrcQueue, LfrcStack};
use lfrc_sched::{Body, Policy, Schedule, SplitMix64};

/// Number of generated cases per property (matches the old proptest
/// configuration).
const CASES: u64 = 64;

/// Runs `case` on `CASES` seeded generators, printing the failing seed
/// before propagating any panic.
fn run_cases(label: &str, base_seed: u64, mut case: impl FnMut(&mut SplitMix64)) {
    for i in 0..CASES {
        let seed = base_seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let result = catch_unwind(AssertUnwindSafe(|| case(&mut SplitMix64::new(seed))));
        if let Err(payload) = result {
            eprintln!("{label}: case {i} failed — reproduce with SplitMix64::new({seed:#x})");
            resume_unwind(payload);
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum DqOp {
    PushLeft(u64),
    PushRight(u64),
    PopLeft,
    PopRight,
}

fn dq_ops(rng: &mut SplitMix64) -> Vec<DqOp> {
    let len = rng.below(200);
    (0..len)
        .map(|_| match rng.below(4) {
            0 => DqOp::PushLeft(rng.below(1_000_000)),
            1 => DqOp::PushRight(rng.below(1_000_000)),
            2 => DqOp::PopLeft,
            _ => DqOp::PopRight,
        })
        .collect()
}

fn check_deque_against_model(d: &dyn ConcurrentDeque, ops: &[DqOp]) {
    let mut model: VecDeque<u64> = VecDeque::new();
    for &op in ops {
        match op {
            DqOp::PushLeft(v) => {
                d.push_left(v);
                model.push_front(v);
            }
            DqOp::PushRight(v) => {
                d.push_right(v);
                model.push_back(v);
            }
            DqOp::PopLeft => assert_eq!(d.pop_left(), model.pop_front(), "pop_left diverged"),
            DqOp::PopRight => assert_eq!(d.pop_right(), model.pop_back(), "pop_right diverged"),
        }
    }
    // Drain both and compare the remainder.
    while let Some(expected) = model.pop_front() {
        assert_eq!(d.pop_left(), Some(expected), "drain diverged");
    }
    assert_eq!(d.pop_left(), None);
    assert_eq!(d.pop_right(), None);
}

#[test]
fn lfrc_snark_matches_vecdeque() {
    run_cases("lfrc_snark_matches_vecdeque", 0xA001, |rng| {
        let ops = dq_ops(rng);
        let d: LfrcSnark<McasWord> = LfrcSnark::new();
        let census = Arc::clone(d.heap().census());
        check_deque_against_model(&d, &ops);
        drop(d);
        assert_eq!(census.live(), 0, "leak detected");
    });
}

#[test]
fn lfrc_snark_repaired_matches_vecdeque() {
    run_cases("lfrc_snark_repaired_matches_vecdeque", 0xA002, |rng| {
        let ops = dq_ops(rng);
        let d: LfrcSnarkRepaired<McasWord> = LfrcSnarkRepaired::new();
        let census = Arc::clone(d.heap().census());
        check_deque_against_model(&d, &ops);
        drop(d);
        // Repaired pops park decrements on this thread's buffer
        // (DESIGN.md §5.9); flush before inspecting the census.
        lfrc_repro::core::flush_thread();
        assert_eq!(census.live(), 0, "leak detected");
    });
}

#[test]
fn gc_snark_matches_vecdeque() {
    run_cases("gc_snark_matches_vecdeque", 0xA003, |rng| {
        let ops = dq_ops(rng);
        let d: GcSnark<McasWord> = GcSnark::new();
        check_deque_against_model(&d, &ops);
    });
}

#[test]
fn gc_snark_repaired_matches_vecdeque() {
    run_cases("gc_snark_repaired_matches_vecdeque", 0xA004, |rng| {
        let ops = dq_ops(rng);
        let d: GcSnarkRepaired<McasWord> = GcSnarkRepaired::new();
        check_deque_against_model(&d, &ops);
    });
}

#[test]
fn lfrc_snark_lock_strategy_matches_vecdeque() {
    run_cases("lfrc_snark_lock_strategy_matches_vecdeque", 0xA005, |rng| {
        let ops = dq_ops(rng);
        let d: LfrcSnark<LockWord> = LfrcSnark::new();
        check_deque_against_model(&d, &ops);
    });
}

/// `Some(v)` = push, `None` = pop — shared by the stack/queue properties.
fn opt_ops(rng: &mut SplitMix64) -> Vec<Option<u64>> {
    let len = rng.below(200);
    (0..len)
        .map(|_| {
            if rng.below(2) == 0 {
                Some(rng.below(1_000_000))
            } else {
                None
            }
        })
        .collect()
}

#[test]
fn lfrc_stack_matches_vec() {
    run_cases("lfrc_stack_matches_vec", 0xA006, |rng| {
        let s: LfrcStack<McasWord> = LfrcStack::new();
        let census = Arc::clone(s.heap().census());
        let mut model: Vec<u64> = Vec::new();
        for op in opt_ops(rng) {
            match op {
                Some(v) => {
                    s.push(v);
                    model.push(v);
                }
                None => assert_eq!(s.pop(), model.pop()),
            }
        }
        while let Some(expected) = model.pop() {
            assert_eq!(s.pop(), Some(expected));
        }
        drop(s);
        lfrc_repro::core::flush_thread();
        assert_eq!(census.live(), 0);
    });
}

#[test]
fn lfrc_queue_matches_vecdeque() {
    run_cases("lfrc_queue_matches_vecdeque", 0xA007, |rng| {
        let q: LfrcQueue<McasWord> = LfrcQueue::new();
        let census = Arc::clone(q.heap().census());
        let mut model: VecDeque<u64> = VecDeque::new();
        for op in opt_ops(rng) {
            match op {
                Some(v) => {
                    q.enqueue(v);
                    model.push_back(v);
                }
                None => assert_eq!(q.dequeue(), model.pop_front()),
            }
        }
        while let Some(expected) = model.pop_front() {
            assert_eq!(q.dequeue(), Some(expected));
        }
        drop(q);
        lfrc_repro::core::flush_thread();
        assert_eq!(census.live(), 0);
    });
}

// ---------------------------------------------------------------------------
// Reference-count bookkeeping properties on arbitrary object graphs
// ---------------------------------------------------------------------------

struct GraphNode {
    #[allow(dead_code)]
    id: u64,
    a: PtrField<GraphNode, McasWord>,
    b: PtrField<GraphNode, McasWord>,
}

impl Links<McasWord> for GraphNode {
    fn for_each_link(&self, f: &mut dyn FnMut(&PtrField<GraphNode, McasWord>)) {
        f(&self.a);
        f(&self.b);
    }
}

/// Build a random acyclic two-successor graph (each node links only to
/// strictly older nodes), hold it by a random set of roots, then drop
/// everything: the census must return to zero — the paper's liveness
/// guarantee under arbitrary (cycle-free) sharing.
#[test]
fn random_dags_are_fully_reclaimed() {
    run_cases("random_dags_are_fully_reclaimed", 0xA008, |rng| {
        let n_nodes = 1 + rng.below(63) as usize;
        let links: Vec<(usize, usize)> = (0..n_nodes)
            .map(|_| (rng.below(64) as usize, rng.below(64) as usize))
            .collect();
        let root_picks: Vec<usize> = (0..1 + rng.below(7))
            .map(|_| rng.below(64) as usize)
            .collect();

        let heap: Heap<GraphNode, McasWord> = Heap::new();
        let census = Arc::clone(heap.census());
        {
            let mut nodes = Vec::new();
            for (i, (la, lb)) in links.iter().enumerate() {
                let n = heap.alloc(GraphNode {
                    id: i as u64,
                    a: PtrField::null(),
                    b: PtrField::null(),
                });
                // Acyclic: link only to strictly older nodes.
                if i > 0 {
                    n.a.store(nodes.get(la % i));
                    n.b.store(nodes.get(lb % i));
                }
                nodes.push(n);
            }
            // Keep a subset via roots, drop the locals, then the roots.
            let roots: Vec<SharedField<GraphNode, McasWord>> = root_picks
                .iter()
                .map(|&r| {
                    let f = SharedField::null();
                    f.store(nodes.get(r % nodes.len()));
                    f
                })
                .collect();
            drop(nodes);
            // Some nodes may already be gone (unreachable from roots).
            assert!(census.live() <= links.len() as u64);
            drop(roots);
        }
        assert_eq!(census.live(), 0, "acyclic graph leaked");
    });
}

/// Clone/drop storms on a single object leave the count exact.
#[test]
fn clone_storms_balance() {
    run_cases("clone_storms_balance", 0xA009, |rng| {
        let clones = 1 + rng.below(63) as usize;
        let heap: Heap<GraphNode, McasWord> = Heap::new();
        let n = heap.alloc(GraphNode {
            id: 0,
            a: PtrField::null(),
            b: PtrField::null(),
        });
        let copies: Vec<_> = (0..clones).map(|_| n.clone()).collect();
        assert_eq!(lfrc_repro::core::Local::ref_count(&n), clones as u64 + 1);
        drop(copies);
        assert_eq!(lfrc_repro::core::Local::ref_count(&n), 1);
        drop(n);
        assert_eq!(heap.census().live(), 0);
    });
}

// ---------------------------------------------------------------------------
// Refcount invariants under explored adversarial schedules (lfrc-sched)
// ---------------------------------------------------------------------------

/// A W-generic node so the schedule-driven invariant runs under both
/// DCAS strategies.
struct SchedNode<W: DcasWord> {
    #[allow(dead_code)]
    id: u64,
    next: PtrField<SchedNode<W>, W>,
}

impl<W: DcasWord> Links<W> for SchedNode<W> {
    fn for_each_link(&self, f: &mut dyn FnMut(&PtrField<SchedNode<W>, W>)) {
        f(&self.next);
    }
}

/// Three logical threads hammer two shared fields with LFRC loads,
/// clones, stores, and CASes while the cooperative scheduler interleaves
/// them at every instrumented window (the `LFRCLoad` DCAS window, the
/// `LFRCDestroy` decrement, and the MCAS descriptor windows). After all
/// Locals are dropped under the explored schedule, the census must show
/// **zero live objects** (nothing leaked) and **zero canary hits**
/// (nothing was touched after free — `rc_on_freed` counts rc updates
/// that landed on freed memory).
fn rc_invariant_under_explored_schedules<W: DcasWord>(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let heap: Heap<SchedNode<W>, W> = Heap::new();
        let census = Arc::clone(heap.census());
        {
            let shared: [SharedField<SchedNode<W>, W>; 2] =
                [SharedField::null(), SharedField::null()];
            let seed_node = heap.alloc(SchedNode {
                id: 0,
                next: PtrField::null(),
            });
            shared[0].store(Some(&seed_node));
            shared[1].store(Some(&seed_node));
            drop(seed_node);

            {
                let (heap, shared) = (&heap, &shared);
                let bodies: Vec<Body<'_>> = (0..3u64)
                    .map(|t| {
                        let body: Body<'_> = Box::new(move || {
                            let mut held = Vec::new();
                            for i in 0..3u64 {
                                let f = &shared[(t + i) as usize % 2];
                                // LFRCLoad: races its DCAS window against
                                // other threads' stores and destroys.
                                if let Some(l) = f.load() {
                                    if i % 2 == 0 {
                                        held.push(l.clone());
                                    }
                                    drop(l);
                                }
                                // Replace the shared value: the old
                                // occupant's count drops, possibly to
                                // zero, under an explored interleaving.
                                let fresh = heap.alloc(SchedNode {
                                    id: t * 10 + i,
                                    next: PtrField::null(),
                                });
                                if i == 2 {
                                    f.store(None);
                                } else {
                                    f.store(Some(&fresh));
                                }
                                drop(fresh);
                                held.pop();
                            }
                            // `held` drops here: destroys interleave too.
                        });
                        body
                    })
                    .collect();
                Schedule::new().run(&Policy::Random(seed), bodies);
            }
            shared[0].store(None);
            shared[1].store(None);
        }
        assert_eq!(
            census.live(),
            0,
            "{}: live objects leaked — replay with LFRC_SCHED_SEED={seed}",
            W::strategy_name()
        );
        assert_eq!(
            census.rc_on_freed(),
            0,
            "{}: canary hit (rc update on freed object) — replay with LFRC_SCHED_SEED={seed}",
            W::strategy_name()
        );
    }
}

#[test]
fn rc_invariant_under_explored_schedules_mcas() {
    rc_invariant_under_explored_schedules::<McasWord>(0..600);
}

#[test]
fn rc_invariant_under_explored_schedules_lock() {
    rc_invariant_under_explored_schedules::<LockWord>(0..600);
}

/// The deferred-fast-path analogue of
/// [`rc_invariant_under_explored_schedules`]: three logical threads race
/// pin-scoped **borrowed** reads ([`PtrField::load_deferred`]),
/// promotions, deferred CASes (which *park* the displaced count on the
/// thread's decrement buffer), explicit mid-body flushes, and destroys,
/// all through the cooperative scheduler — so the new `BorrowLoad`,
/// `BorrowPromote`, `DeferAppend`, `DeferFlush` and `DeferEpochAdvance`
/// windows interleave with `LFRCDestroy` in every explored order.
///
/// After every buffer has flushed, the weakened invariant must have cost
/// nothing: **zero live objects** (deferral only delays reclamation, it
/// never loses a decrement) and **zero canary hits** (no borrow ever
/// touched freed memory outside its pin, and no promote resurrected a
/// dead object).
fn deferred_rc_invariant_under_explored_schedules<W: DcasWord>(seeds: std::ops::Range<u64>) {
    use lfrc_repro::core::defer::{self, Borrowed};
    for seed in seeds {
        let heap: Heap<SchedNode<W>, W> = Heap::new();
        let census = Arc::clone(heap.census());
        {
            let shared: [SharedField<SchedNode<W>, W>; 2] =
                [SharedField::null(), SharedField::null()];
            let seed_node = heap.alloc(SchedNode {
                id: 0,
                next: PtrField::null(),
            });
            shared[0].store(Some(&seed_node));
            shared[1].store(Some(&seed_node));
            drop(seed_node);

            {
                let (heap, shared) = (&heap, &shared);
                let bodies: Vec<Body<'_>> = (0..3u64)
                    .map(|t| {
                        let body: Body<'_> = Box::new(move || {
                            let mut held = Vec::new();
                            for i in 0..3u64 {
                                let f = &shared[(t + i) as usize % 2];
                                let fresh = heap.alloc(SchedNode {
                                    id: t * 10 + i,
                                    next: PtrField::null(),
                                });
                                defer::pinned(|pin| {
                                    // Borrowed read: uncounted, kept
                                    // mapped only by the pin.
                                    let b = f.load_deferred(pin);
                                    if let Some(ref b) = b {
                                        // Promote races the occupant's
                                        // destroy; a `None` means the
                                        // count hit zero first — the
                                        // borrow must NOT resurrect it.
                                        if let Some(l) = Borrowed::promote(b) {
                                            held.push(l);
                                        }
                                    }
                                    // Deferred CAS: on success the
                                    // displaced count is parked, not
                                    // destroyed.
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
                                    // Mid-body flush: the buffer drains
                                    // (and the epoch advances) while the
                                    // other threads still hold borrows.
                                    defer::flush_thread();
                                }
                                held.pop();
                            }
                            drop(held);
                            // Scheduled bodies flush explicitly — the
                            // scheduler detaches before TLS destructors
                            // run (see lfrc_core::defer).
                            defer::flush_thread();
                        });
                        body
                    })
                    .collect();
                Schedule::new().run(&Policy::Random(seed), bodies);
            }
            shared[0].store(None);
            shared[1].store(None);
        }
        defer::flush_thread();
        assert_eq!(
            census.live(),
            0,
            "{}: live objects leaked on the deferred path — replay with LFRC_SCHED_SEED={seed}",
            W::strategy_name()
        );
        assert_eq!(
            census.rc_on_freed(),
            0,
            "{}: canary hit on the deferred path — replay with LFRC_SCHED_SEED={seed}",
            W::strategy_name()
        );
    }
}

#[test]
fn deferred_rc_invariant_under_explored_schedules_mcas() {
    deferred_rc_invariant_under_explored_schedules::<McasWord>(0..600);
}

#[test]
fn deferred_rc_invariant_under_explored_schedules_lock() {
    deferred_rc_invariant_under_explored_schedules::<LockWord>(0..600);
}

// ---------------------------------------------------------------------------
// Extension structures: ordered set vs BTreeSet, LL/SC stack vs Vec
// ---------------------------------------------------------------------------

use lfrc_repro::core::Strategy;
use lfrc_repro::structures::{LfrcOrderedSet, LfrcSkipList, LlscStack};

#[derive(Debug, Clone, Copy)]
enum SetOp {
    Insert(u64),
    Remove(u64),
    Contains(u64),
}

fn set_ops(rng: &mut SplitMix64) -> Vec<SetOp> {
    // Small key space maximizes insert/remove collisions.
    let len = rng.below(300);
    (0..len)
        .map(|_| {
            let key = rng.below(24);
            match rng.below(3) {
                0 => SetOp::Insert(key),
                1 => SetOp::Remove(key),
                _ => SetOp::Contains(key),
            }
        })
        .collect()
}

#[test]
fn ordered_set_matches_btreeset() {
    run_cases("ordered_set_matches_btreeset", 0xA00A, |rng| {
        let ops = set_ops(rng);
        let set: LfrcOrderedSet<McasWord> = LfrcOrderedSet::new();
        let census = Arc::clone(set.heap().census());
        let mut model = std::collections::BTreeSet::new();
        for op in ops {
            match op {
                SetOp::Insert(k) => assert_eq!(set.insert(k), model.insert(k)),
                SetOp::Remove(k) => assert_eq!(set.remove(k), model.remove(&k)),
                SetOp::Contains(k) => assert_eq!(set.contains(k), model.contains(&k)),
            }
        }
        assert_eq!(set.len(), model.len());
        drop(set);
        assert_eq!(census.live(), 0, "set leaked (marked stragglers?)");
    });
}

#[test]
fn skiplist_matches_btreeset() {
    for strategy in Strategy::ALL {
        let label = format!("skiplist_matches_btreeset/{strategy}");
        run_cases(&label, 0xA00B, |rng| {
            let ops = set_ops(rng);
            let set: LfrcSkipList<McasWord> = LfrcSkipList::with_strategy(strategy);
            let census = Arc::clone(set.heap().census());
            let mut model = std::collections::BTreeSet::new();
            for op in ops {
                match op {
                    SetOp::Insert(k) => assert_eq!(set.insert(k), model.insert(k)),
                    SetOp::Remove(k) => assert_eq!(set.remove(k), model.remove(&k)),
                    SetOp::Contains(k) => assert_eq!(set.contains(k), model.contains(&k)),
                }
                // The readers after every op: a range from a random start
                // (past the key space too), with limits from 0 up.
                let (start, limit) = (rng.below(26), rng.below(6) as usize);
                let want: Vec<u64> = model.range(start..).take(limit).copied().collect();
                assert_eq!(set.scan(start, limit), want, "scan({start}, {limit})");
                assert_eq!(set.is_empty(), model.is_empty());
            }
            assert_eq!(set.len(), model.len());
            drop(set);
            // Parked decrements release at the flush.
            lfrc_repro::core::flush_thread();
            assert_eq!(census.live(), 0, "{strategy}: skip list leaked");
        });
    }
}

#[test]
fn llsc_stack_matches_vec() {
    run_cases("llsc_stack_matches_vec", 0xA00C, |rng| {
        let s: LlscStack<McasWord> = LlscStack::new();
        let census = Arc::clone(s.heap().census());
        let mut model: Vec<u64> = Vec::new();
        for op in opt_ops(rng) {
            match op {
                Some(v) => {
                    s.push(v);
                    model.push(v);
                }
                None => assert_eq!(s.pop(), model.pop()),
            }
        }
        while let Some(expected) = model.pop() {
            assert_eq!(s.pop(), Some(expected));
        }
        drop(s);
        assert_eq!(census.live(), 0);
    });
}
