//! Bench companion to experiment E12 (slab-pooled allocation,
//! DESIGN.md §5.11): node-churn throughput on the pool, plus the pool's
//! slab footprint over a grow-then-shrink cycle.
//!
//! Three layers of measurement:
//!
//! 1. Minibench micro-cost — a single alloc+free round trip through a
//!    `Heap`.
//! 2. A multi-thread churn sweep (1–8 threads) over a bare `Heap`, the
//!    Treiber stack and the Michael–Scott queue: every operation pair
//!    allocates and frees one node, so throughput tracks allocator cost
//!    directly.
//! 3. A footprint trace: grow a large live set, free it, and report
//!    `slabs_live` returning to (near) its baseline.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use lfrc_bench::Minibench;
use lfrc_core::{defer, Heap, Links, McasWord, PtrField};
use lfrc_structures::{ConcurrentQueue, ConcurrentStack, LfrcQueue, LfrcStack};

struct Leaf {
    #[allow(dead_code)]
    n: u64,
}

impl Links<McasWord> for Leaf {
    fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {}
}

/// Runs `threads` workers, each hammering its *own* structure (private
/// churn: the workload is allocation-bound, not contention-bound — a
/// shared head would measure DCAS contention, not the allocator) until
/// the window closes. `op` is one churn iteration on structure `t`,
/// counted as its returned number of operations. Returns total Mops/s.
fn churn_mops(threads: usize, window: Duration, op: impl Fn(usize, &mut u64) -> u64 + Sync) -> f64 {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    let total: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (stop, barrier, op) = (&stop, &barrier, &op);
                s.spawn(move || {
                    let mut x = (t as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15) | 1;
                    let mut ops = 0u64;
                    barrier.wait();
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..32 {
                            ops += op(t, &mut x);
                        }
                    }
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

/// Pure allocator churn: each worker alloc+drops nodes on its own heap.
/// No structure on top, so this row isolates the allocation path itself.
fn heap_churn(threads: usize, window: Duration) -> f64 {
    let heaps: Vec<Heap<Leaf, McasWord>> = (0..threads).map(|_| Heap::new()).collect();
    let mops = churn_mops(threads, window, |t, x| {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        black_box(heaps[t].alloc(Leaf { n: *x }));
        2
    });
    defer::flush_thread();
    mops
}

fn stack_churn(threads: usize, window: Duration) -> f64 {
    let stacks: Vec<_> = (0..threads).map(|_| LfrcStack::<McasWord>::new()).collect();
    let mops = churn_mops(threads, window, |t, x| {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        stacks[t].push(*x);
        black_box(stacks[t].pop());
        2
    });
    for stack in &stacks {
        while stack.pop().is_some() {}
    }
    defer::flush_thread();
    mops
}

fn queue_churn(threads: usize, window: Duration) -> f64 {
    let queues: Vec<_> = (0..threads).map(|_| LfrcQueue::<McasWord>::new()).collect();
    let mops = churn_mops(threads, window, |t, x| {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        queues[t].enqueue(*x);
        black_box(queues[t].dequeue());
        2
    });
    for queue in &queues {
        while queue.dequeue().is_some() {}
    }
    defer::flush_thread();
    mops
}

fn main() {
    let mut c = Minibench::from_args();

    // Layer 1: the raw alloc+free round trip.
    let heap: Heap<Leaf, McasWord> = Heap::new();
    let mut g = c.group("e12/alloc_free");
    g.bench_function("pooled", || {
        black_box(heap.alloc(Leaf { n: 7 }));
    });
    g.finish();
    defer::flush_thread();

    // Layer 2: churn throughput, 1–8 threads. `E12_WINDOW_MS` trades
    // run time for stability (CI smoke shortens it, recorded runs
    // lengthen it).
    let window_ms = std::env::var("E12_WINDOW_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400u64);
    let window = Duration::from_millis(window_ms);
    println!();
    println!(
        "e12 node-churn throughput (push+pop / enqueue+dequeue pairs, {}ms window)",
        window.as_millis()
    );
    println!("{:>8} {:>8} {:>16}", "struct", "threads", "pooled Mops/s");
    for (name, churn) in [
        ("heap", heap_churn as fn(usize, Duration) -> f64),
        ("stack", stack_churn),
        ("queue", queue_churn),
    ] {
        for threads in [1usize, 2, 4, 8] {
            println!("{name:>8} {threads:>8} {:>16.2}", churn(threads, window));
        }
    }

    // Layer 3: footprint over grow-then-shrink.
    let base = lfrc_pool::stats();
    let nodes: Vec<_> = (0..200_000).map(|i| heap.alloc(Leaf { n: i })).collect();
    let grown = lfrc_pool::stats();
    drop(nodes);
    defer::flush_thread();
    lfrc_dcas::quiesce();
    lfrc_pool::flush_magazines();
    lfrc_dcas::quiesce();
    lfrc_pool::flush_magazines();
    lfrc_dcas::quiesce();
    let shrunk = lfrc_pool::stats();
    println!();
    println!("e12 slab footprint over grow-then-shrink (200k nodes)");
    println!(
        "{:>10} {:>12} {:>14} {:>14}",
        "phase", "slabs_live", "bytes_mapped", "slabs_released"
    );
    for (phase, s) in [("baseline", &base), ("grown", &grown), ("shrunk", &shrunk)] {
        println!(
            "{phase:>10} {:>12} {:>14} {:>14}",
            s.slabs_live, s.bytes_mapped, s.slabs_released
        );
    }

    let hits = lfrc_obs::counters::total(lfrc_obs::Counter::PoolMagazineHit);
    let misses = lfrc_obs::counters::total(lfrc_obs::Counter::PoolMagazineMiss);
    if hits + misses > 0 {
        println!();
        println!(
            "magazine hit rate: {:.2}% ({hits} hits / {misses} misses); \
             remote frees: {}; slabs alloc/retire: {}/{}",
            100.0 * hits as f64 / (hits + misses) as f64,
            lfrc_obs::counters::total(lfrc_obs::Counter::PoolRemoteFree),
            lfrc_obs::counters::total(lfrc_obs::Counter::PoolSlabAlloc),
            lfrc_obs::counters::total(lfrc_obs::Counter::PoolSlabRetire),
        );
    }
}
