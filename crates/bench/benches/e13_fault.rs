//! Bench companion to the fault-injection layer (DESIGN.md §5.12):
//! what does determinism-with-faults cost, and — the number that
//! matters for default builds — what does it cost when nobody asked
//! for it?
//!
//! Labels carry the build's injection state (`inject=on` / `inject=off`),
//! so the allocation-check tax is measured by running twice and diffing:
//!
//! ```text
//! cargo bench -p lfrc-bench --bench e13_fault
//! cargo bench -p lfrc-bench --bench e13_fault --features inject
//! ```
//!
//! The acceptance bar (recorded in `experiment-results/e13_fault.txt`)
//! is that the default build's allocation path is unchanged — the check
//! compiles to nothing without `--features inject` — and that an inert
//! fault plan adds only a per-yield constant to a scheduled round.

use std::hint::black_box;

use lfrc_bench::Minibench;
use lfrc_core::{Heap, Links, McasWord, PtrField};
use lfrc_sched::shrink::shrink_decisions;
use lfrc_sched::{instrument, Body, CrashMode, CrashSpec, FaultPlan, InstrSite, Policy, Schedule};

/// A minimal linkless object for the allocation micro-bench.
struct Leaf {
    #[allow(dead_code)]
    n: u64,
}

impl Links<McasWord> for Leaf {
    fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {}
}

/// One tiny scheduled round: two bodies, a handful of yields each.
/// Built fresh per iteration because bodies are consumed by the run.
fn tiny_round(plan: FaultPlan) {
    let bodies: Vec<Body<'_>> = (0..2)
        .map(|_| {
            let body: Body<'_> = Box::new(|| {
                for _ in 0..4 {
                    instrument::yield_point(InstrSite::LoadDcasWindow);
                }
            });
            body
        })
        .collect();
    black_box(Schedule::new().faults(plan).run(&Policy::Random(7), bodies));
}

fn main() {
    let mut c = Minibench::from_args();
    let inject = if instrument::alloc_faults_compiled() {
        "on"
    } else {
        "off"
    };
    println!("e13_fault: allocation-fault checks {inject} in this build");

    // The tax every instrumented operation pays outside the scheduler:
    // a yield site with no hook installed on this thread.
    {
        let mut g = c.group("e13/yield_site[hook=off]".to_string());
        g.bench_function("yield_point", || {
            instrument::yield_point(black_box(InstrSite::LoadDcasWindow));
        });
        g.finish();
    }

    // The acceptance-bar path: allocation + destroy churn. With the
    // `inject` feature off this is the production path, bit for bit;
    // with it on, every pooled/global allocation consults the (empty)
    // thread-local fault plan.
    {
        let heap: Heap<Leaf, McasWord> = Heap::new();
        let mut g = c.group(format!("e13/alloc[inject={inject}]"));
        g.bench_function("alloc_destroy", || {
            black_box(heap.alloc(Leaf { n: 7 }));
        });
        g.finish();
    }

    // Scheduled rounds: the cost of carrying a fault plan that never
    // fires (every yield checks it) and of one that stalls a thread
    // (the crash path plus the end-of-run unwind) against the clean
    // baseline. Whole-round timings — these include thread spawn/join.
    {
        let mut g = c.group("e13/scheduled_round".to_string());
        g.bench_function("no_plan", || tiny_round(FaultPlan::new()));
        g.bench_function("inert_crash_plan", || {
            tiny_round(FaultPlan::new().crash(CrashSpec {
                thread: 0,
                site: Some(InstrSite::DequePopBeforeClaim), // never reached here
                skip: 0,
                mode: CrashMode::Stall,
            }))
        });
        g.bench_function("stall_fires", || {
            tiny_round(FaultPlan::new().crash(CrashSpec {
                thread: 0,
                site: Some(InstrSite::LoadDcasWindow),
                skip: 0,
                mode: CrashMode::Stall,
            }))
        });
        g.finish();
    }

    // Shrinker throughput: ddmin over a 48-decision list whose failure
    // needs three scattered sentinel decisions to survive — the oracle
    // is pure, so this prices the search itself, not the replay.
    {
        let initial: Vec<u32> = (0..48u32).collect();
        let needed = [5u32, 23, 41];
        let mut g = c.group("e13/shrinker".to_string());
        g.bench_function("ddmin_48_to_3", || {
            let out = shrink_decisions(black_box(&initial), |cand| {
                needed.iter().all(|n| cand.contains(n))
            });
            assert_eq!(out.decisions.len(), 3);
            black_box(out.attempts);
        });
        g.finish();
    }
}
