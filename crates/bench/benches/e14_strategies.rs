//! Bench companion to experiment E14 (load-strategy head-to-head):
//! `Dcas` counted loads vs `DeferredDec` borrowed loads.
//!
//! Three layers of measurement:
//!
//! 1. Minibench micro-costs — 128 root loads per iteration through each
//!    strategy's read primitive (the paper's DCAS counted load and the
//!    pin-scoped uncounted borrow).
//! 2. A manual ns/load table for the same two primitives with the
//!    `dcas / deferred-dec` ratio.
//! 3. A multi-thread stack push/pop throughput sweep across both
//!    strategies (via [`LfrcStack::with_strategy`]), plus one row for
//!    the env-selected root strategy (`LFRC_STRATEGY`, read through
//!    [`Strategy::from_env`]). Results are recorded in
//!    `experiment-results/e14_strategies.txt`.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use lfrc_bench::Minibench;
use lfrc_core::{defer, Heap, Links, McasWord, PtrField, SharedField, Strategy};
use lfrc_structures::{ConcurrentStack, LfrcStack};

/// A minimal one-field object for the raw load micro-bench.
struct Leaf {
    #[allow(dead_code)]
    n: u64,
}

impl Links<McasWord> for Leaf {
    fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {}
}

/// Loads per pin: enough to amortize the pin entry/exit over the thing
/// actually being measured.
const LOADS_PER_PIN: u64 = 128;

/// Measures one strategy's root-load primitive directly: `reps`
/// iterations of 128 loads each, returning mean ns per load.
fn ns_per_load(root: &SharedField<Leaf, McasWord>, strategy: Strategy, reps: u64) -> f64 {
    // Warm-up: populate pools, fault TLS buffers.
    for _ in 0..64 {
        one_batch(root, strategy);
    }
    let start = Instant::now();
    for _ in 0..reps {
        one_batch(root, strategy);
    }
    let elapsed = start.elapsed();
    defer::flush_thread();
    elapsed.as_nanos() as f64 / (reps * LOADS_PER_PIN) as f64
}

fn one_batch(root: &SharedField<Leaf, McasWord>, strategy: Strategy) {
    match strategy {
        Strategy::Dcas => {
            for _ in 0..LOADS_PER_PIN {
                black_box(root.load());
            }
        }
        Strategy::DeferredDec => defer::pinned(|pin| {
            for _ in 0..LOADS_PER_PIN {
                black_box(root.load_deferred(pin));
            }
        }),
    }
}

/// Runs `threads` workers hammering push/pop pairs on one stack for
/// `window`; returns total Mops/s (one op = one push or one pop).
fn stack_mops(st: &LfrcStack<McasWord>, threads: usize, window: Duration) -> f64 {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    let total: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (st, stop, barrier) = (&*st, &stop, &barrier);
                s.spawn(move || {
                    let mut ops = 0u64;
                    barrier.wait();
                    while !stop.load(Ordering::Relaxed) {
                        for i in 0..32u64 {
                            st.push(t as u64 * 1_000_000 + i);
                            black_box(st.pop());
                            ops += 2;
                        }
                    }
                    // Scoped workers flush parked decrements before the
                    // scope returns (see lfrc_core::defer).
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

    let heap: Heap<Leaf, McasWord> = Heap::new();
    let leaf = heap.alloc(Leaf { n: 7 });
    let root: SharedField<Leaf, McasWord> = SharedField::new(Some(&leaf));
    drop(leaf);

    // Layer 1: the raw load primitive, both strategies, 128 loads per
    // iteration (the pinned variant amortizes the pin over the batch).
    {
        let mut g = c.group("e14/root_load_x128");
        for strategy in Strategy::ALL {
            g.bench_function(strategy.name(), || one_batch(&root, strategy));
        }
        g.finish();
    }

    // Layer 2: ns/load and the spec-to-fast-path ratio.
    const REPS: u64 = 20_000;
    let dcas = ns_per_load(&root, Strategy::Dcas, REPS);
    let dec = ns_per_load(&root, Strategy::DeferredDec, REPS);
    println!();
    println!("e14 root-load cost ({LOADS_PER_PIN} loads/pin, {REPS} reps)");
    println!("{:>14} {:>12}", "strategy", "ns/load");
    println!("{:>14} {dcas:>12.2}", Strategy::Dcas.name());
    println!("{:>14} {dec:>12.2}", Strategy::DeferredDec.name());
    println!("dcas / deferred-dec ratio: {:.2}x", dcas / dec);

    // Layer 3: whole-structure throughput, per-strategy, plus the
    // env-selected root strategy for bench parity with LFRC_STRATEGY.
    let window = Duration::from_millis(300);
    println!();
    println!(
        "e14 stack push/pop throughput ({}ms window)",
        window.as_millis()
    );
    println!("{:>8} {:>14} {:>12}", "threads", "strategy", "Mops/s");
    for threads in [1usize, 2, 4] {
        for strategy in Strategy::ALL {
            let st: LfrcStack<McasWord> = LfrcStack::with_strategy(strategy);
            let mops = stack_mops(&st, threads, window);
            println!("{threads:>8} {:>14} {mops:>12.2}", strategy.name());
            while st.pop().is_some() {}
            defer::flush_thread();
        }
    }
    let env = Strategy::from_env();
    let st: LfrcStack<McasWord> = LfrcStack::with_strategy(env);
    let mops = stack_mops(&st, 2, window);
    println!(
        "env-selected (LFRC_STRATEGY): {} -> {mops:.2} Mops/s at 2 threads",
        env.name()
    );
}
