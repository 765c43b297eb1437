//! Memory that grows **and shrinks** — LFRC against its alternatives.
//!
//! The paper's §1: "it allows the memory consumption of the
//! implementation to grow and shrink over time", unlike freelist-bound
//! schemes (Valois) or leak-until-shutdown GC environments. This example
//! pushes a burst through three stacks and prints their footprints after
//! every phase.
//!
//! Run: `cargo run --release --example memory_reclamation`

use lfrc_baselines::ValoisStack;
use lfrc_core::McasWord;
use lfrc_structures::{ConcurrentStack, GcStack, LfrcStack};

const BURST: u64 = 10_000;

fn main() {
    let lfrc: LfrcStack<McasWord> = LfrcStack::new();
    let valois = ValoisStack::new();
    let gc = GcStack::new();

    let footprint =
        |phase: &str, lfrc: &LfrcStack<McasWord>, valois: &ValoisStack, gc: &GcStack| {
            println!(
                "{phase:>18} | lfrc live: {:>6} | valois pool: {:>6} | ebr pending: {:>6}",
                lfrc.heap().census().live(),
                valois.pool_nodes(),
                gc.collector().stats().pending(),
            );
        };

    println!("burst/drain cycles of {BURST} nodes; footprints after each phase\n");
    footprint("start", &lfrc, &valois, &gc);
    for cycle in 0..3 {
        for v in 0..BURST {
            lfrc.push(v);
            valois.push(v);
            gc.push(v);
        }
        footprint(&format!("burst {cycle}"), &lfrc, &valois, &gc);
        while lfrc.pop().is_some() {}
        while valois.pop().is_some() {}
        while gc.pop().is_some() {}
        // Pops park their decrements on this thread's buffer (the
        // deferred fast path, DESIGN.md §5.9); flush so the footprint
        // reflects a quiesced thread.
        lfrc_core::flush_thread();
        footprint(&format!("drain {cycle}"), &lfrc, &valois, &gc);
    }
    lfrc_structures::flush_thread(gc.collector());
    footprint("after ebr flush", &lfrc, &valois, &gc);

    // The same grow-then-shrink story one layer down: LFRC nodes come
    // from epoch-gated slabs, and the *slabs themselves* must follow the
    // paper's §1 property — mapped memory returns to the OS once the
    // burst drains, instead of plateauing like a type-stable freelist.
    let slab = |phase: &str| {
        let s = lfrc_repro::pool::stats();
        println!(
            "{phase:>18} | slabs live: {:>4} | bytes mapped: {:>9} | slabs released: {:>5}",
            s.slabs_live, s.bytes_mapped, s.slabs_released
        );
    };
    println!("\npool slab footprint over one more burst/drain cycle\n");
    slab("quiesced");
    for v in 0..BURST {
        lfrc.push(v);
    }
    slab("burst");
    while lfrc.pop().is_some() {}
    lfrc_core::flush_thread();
    lfrc_repro::dcas::quiesce();
    lfrc_repro::pool::flush_magazines();
    lfrc_repro::dcas::quiesce();
    slab("drain");

    println!(
        "\nreading the columns:\n\
         * lfrc   — returns to 0 after every drain: once the thread's\n\
           decrement buffer flushes, nodes go back to the slab pool,\n\
           whose slabs are themselves released (see the slab table).\n\
         * valois — plateaus at the high-water mark forever: type-stable\n\
           freelist memory can never be reused for anything else (the\n\
           cost of making CAS-only counting safe).\n\
         * ebr    — shrinks, but only after a grace period, and requires\n\
           the 'GC environment' LFRC exists to remove.\n"
    );
    assert_eq!(lfrc.heap().census().live(), 0);
    assert_eq!(valois.pool_nodes(), BURST);
}
