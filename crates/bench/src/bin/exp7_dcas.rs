//! **E7 — what the DCAS assumption costs in software.** Paper §7: "The
//! simplicity of our approach is largely due to the use of DCAS. This
//! adds to the mounting evidence that stronger synchronization primitives
//! are needed." Since no modern ISA ships DCAS, this reproduction pays
//! for it in software; this ablation measures that price for both
//! emulation strategies, under increasing contention.
//!
//! * *disjoint*: each thread DCASes its own private pair of cells —
//!   measures the bare protocol cost (descriptor claims, helping
//!   machinery, epoch pinning vs. striped locking).
//! * *shared*: every thread DCASes the same two cells — measures conflict
//!   behaviour (helping and retry vs. lock convoying).
//!
//! `cargo run --release -p lfrc-bench --bin exp7_dcas`

use std::sync::atomic::{AtomicU64, Ordering};

use lfrc_bench::{ns_per_op, SWEEP_THREADS};
use lfrc_core::{DcasWord, LockWord, McasWord};
use lfrc_harness::{run_ops, Table};

const OPS_PER_THREAD: u64 = 20_000;

fn disjoint_sweep<W: DcasWord>(t: &mut Table) {
    let mut cells = vec![W::strategy_name().to_owned()];
    for &threads in &SWEEP_THREADS {
        let pairs: Vec<(W, W)> = (0..threads).map(|_| (W::new(0), W::new(1))).collect();
        let stats = run_ops(threads, OPS_PER_THREAD, |t, i| {
            // Each thread owns its pair, so at iteration i the pair holds
            // (i, i + 1); every DCAS succeeds.
            let (a, b) = &pairs[t];
            let ok = W::dcas(a, b, i, i + 1, i + 1, i + 2);
            debug_assert!(ok);
            std::hint::black_box(ok);
        });
        cells.push(format!("{:.0}", stats.ops_per_sec()));
    }
    t.row(cells);
}

fn shared_sweep<W: DcasWord>(t: &mut Table) {
    let mut cells = vec![W::strategy_name().to_owned()];
    for &threads in &SWEEP_THREADS {
        let a = W::new(0);
        let b = W::new(0);
        let stats = run_ops(threads, OPS_PER_THREAD, |_, _| loop {
            let va = a.load();
            let vb = b.load();
            if W::dcas(&a, &b, va, vb, va + 1, vb + 1) {
                break;
            }
        });
        // Sanity: every successful DCAS incremented both cells once.
        assert_eq!(a.load(), threads as u64 * OPS_PER_THREAD);
        assert_eq!(a.load(), b.load());
        cells.push(format!("{:.0}", stats.ops_per_sec()));
    }
    t.row(cells);
}

fn main() {
    println!("# E7 — software-DCAS ablation\n");

    println!("## E7a — single-thread primitive costs (ns/op)\n");
    let mut t = Table::new(["primitive", "ns/op"]);
    let native = AtomicU64::new(0);
    t.row([
        "native CAS (the hardware we do have)".to_owned(),
        format!(
            "{:.1}",
            ns_per_op(200_000, || {
                let _ = std::hint::black_box(native.compare_exchange(
                    0,
                    0,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ));
            })
        ),
    ]);
    {
        let a = McasWord::new(0);
        let b = McasWord::new(1);
        t.row([
            "DCAS, mcas strategy".to_owned(),
            format!(
                "{:.1}",
                ns_per_op(100_000, || {
                    std::hint::black_box(McasWord::dcas(&a, &b, 0, 1, 0, 1));
                })
            ),
        ]);
        let cells: Vec<McasWord> = (0..4).map(McasWord::new).collect();
        t.row([
            "4-way MCAS, mcas strategy".to_owned(),
            format!(
                "{:.1}",
                ns_per_op(50_000, || {
                    let ops: Vec<lfrc_dcas::McasOp<'_, McasWord>> = cells
                        .iter()
                        .enumerate()
                        .map(|(i, c)| lfrc_dcas::McasOp {
                            cell: c,
                            old: i as u64,
                            new: i as u64,
                        })
                        .collect();
                    std::hint::black_box(McasWord::mcas(&ops));
                })
            ),
        ]);
    }
    {
        let a = LockWord::new(0);
        let b = LockWord::new(1);
        t.row([
            "DCAS, lock-striped strategy".to_owned(),
            format!(
                "{:.1}",
                ns_per_op(100_000, || {
                    std::hint::black_box(LockWord::dcas(&a, &b, 0, 1, 0, 1));
                })
            ),
        ]);
    }
    print!("{t}");

    println!("\n## E7b — disjoint pairs (ops/s per strategy, by thread count)\n");
    let mut t = Table::new({
        let mut h = vec!["strategy".to_owned()];
        h.extend(SWEEP_THREADS.iter().map(|n| format!("{n} thr")));
        h
    });
    disjoint_sweep::<McasWord>(&mut t);
    disjoint_sweep::<LockWord>(&mut t);
    print!("{t}");

    println!("\n## E7c — one shared pair, successful increments (ops/s)\n");
    let mut t = Table::new({
        let mut h = vec!["strategy".to_owned()];
        h.extend(SWEEP_THREADS.iter().map(|n| format!("{n} thr")));
        h
    });
    shared_sweep::<McasWord>(&mut t);
    shared_sweep::<LockWord>(&mut t);
    print!("{t}");

    lfrc_dcas::quiesce();
    println!("\nemulator: {}", lfrc_dcas::emulation_stats());
}
