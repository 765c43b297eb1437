//! Bench companion to experiment E10 (deferred-decrement fast path):
//! counted vs deferred loads on read-heavy workloads.
//!
//! Two layers of measurement:
//!
//! 1. Minibench micro-costs — a single root load (`LFRCLoad` DCAS vs
//!    pin-scoped plain load) and a whole skiplist membership query (the
//!    `contains` of a `Strategy::Dcas` list, one `LFRCLoad` per hop, vs
//!    that of a default `DeferredDec` list).
//! 2. A hand-rolled multi-thread throughput sweep over a read-heavy
//!    [`SetWorkload`] (90% `contains`), reporting Mops/s for the two
//!    lists and their ratio. Each list runs the whole workload under its
//!    own strategy, so the counted side's 10% insert/remove residue runs
//!    counted too. The acceptance bar is a ≥1.3× deferred speedup at 4+
//!    threads; results are recorded in
//!    `experiment-results/e10_deferred.txt`.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use lfrc_bench::Minibench;
use lfrc_core::{defer, Heap, Links, McasWord, PtrField, SharedField, Strategy};
use lfrc_harness::{SetOp, SetWorkload};
use lfrc_structures::LfrcSkipList;

/// A minimal one-field object for the raw load micro-bench.
struct Leaf {
    #[allow(dead_code)]
    n: u64,
}

impl Links<McasWord> for Leaf {
    fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {}
}

/// Seeds a `strategy` skiplist with every even key below `key_space` so
/// reads hit roughly half the time.
fn seeded_list(strategy: Strategy, key_space: u64) -> LfrcSkipList<McasWord> {
    let list = LfrcSkipList::with_strategy(strategy);
    for k in (0..key_space).step_by(2) {
        list.insert(k);
    }
    list
}

/// Runs `threads` readers for `window`, all driving the same read-heavy
/// deterministic workload against `list`; mutators are the workload's
/// own insert/remove residue (10% of ops). Returns total Mops/s.
fn read_heavy_mops(
    list: &LfrcSkipList<McasWord>,
    threads: usize,
    window: Duration,
    key_space: u64,
) -> f64 {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    let total: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (list, stop, barrier) = (&*list, &stop, &barrier);
                s.spawn(move || {
                    let mut w = SetWorkload::new(0xe10, t, 90, key_space);
                    let mut ops = 0u64;
                    barrier.wait();
                    while !stop.load(Ordering::Relaxed) {
                        // Batch between stop-flag checks.
                        for _ in 0..64 {
                            match w.next_op() {
                                SetOp::Contains(k) => {
                                    black_box(list.contains(k));
                                }
                                SetOp::Insert(k) => {
                                    black_box(list.insert(k));
                                }
                                SetOp::Remove(k) => {
                                    black_box(list.remove(k));
                                }
                            }
                            ops += 1;
                        }
                    }
                    // Scoped threads must flush their decrement buffers
                    // before the scope returns (see lfrc_core::defer).
                    defer::flush_thread();
                    ops
                })
            })
            .collect();
        barrier.wait();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    total as f64 / window.as_secs_f64() / 1e6
}

fn main() {
    let mut c = Minibench::from_args();

    // Layer 1a: the raw load primitive, counted vs deferred.
    {
        let heap: Heap<Leaf, McasWord> = Heap::new();
        let leaf = heap.alloc(Leaf { n: 7 });
        let root: SharedField<Leaf, McasWord> = SharedField::new(Some(&leaf));
        drop(leaf);
        let mut g = c.group("e10/root_load");
        g.bench_function("counted", || {
            black_box(root.load());
        });
        g.bench_function("deferred", || {
            defer::pinned(|pin| {
                black_box(root.load_deferred(pin));
            })
        });
        g.finish();
    }

    // Layer 1b: a full membership query, counted vs deferred traversal.
    {
        let mut g = c.group("e10/skiplist_contains");
        for (name, strategy) in [
            ("counted", Strategy::Dcas),
            ("deferred", Strategy::DeferredDec),
        ] {
            let list = seeded_list(strategy, 256);
            let mut k = 0u64;
            g.bench_function(name, || {
                k = (k + 1) & 255;
                black_box(list.contains(k));
            });
        }
        g.finish();
    }

    // Layer 2: multi-thread read-heavy throughput (the acceptance bar).
    let window = Duration::from_millis(400);
    const KEY_SPACE: u64 = 256;
    println!();
    println!(
        "e10 read-heavy skiplist throughput (90% contains, {KEY_SPACE} keys, {}ms window)",
        window.as_millis()
    );
    println!(
        "{:>8} {:>16} {:>16} {:>8}",
        "threads", "counted Mops/s", "deferred Mops/s", "ratio"
    );
    for threads in [1usize, 2, 4, 8] {
        let counted_list = seeded_list(Strategy::Dcas, KEY_SPACE);
        let counted = read_heavy_mops(&counted_list, threads, window, KEY_SPACE);
        let deferred_list = seeded_list(Strategy::DeferredDec, KEY_SPACE);
        let deferred = read_heavy_mops(&deferred_list, threads, window, KEY_SPACE);
        defer::flush_thread();
        println!(
            "{threads:>8} {counted:>16.2} {deferred:>16.2} {:>7.2}x",
            deferred / counted
        );
    }
}
