//! Bench companion to experiment E7: DCAS/MCAS primitive costs per
//! emulation strategy (contention sweeps live in the `exp7_dcas` binary).

use std::hint::black_box;

use lfrc_bench::Minibench;
use lfrc_dcas::{DcasWord, LockWord, McasOp, McasWord};

fn bench_strategy<W: DcasWord>(c: &mut Minibench) {
    let name = W::strategy_name();
    let mut g = c.group(format!("e7/{name}"));

    let a = W::new(1);
    let b = W::new(2);
    g.bench_function("dcas_success", || {
        black_box(W::dcas(&a, &b, 1, 2, 1, 2));
    });
    g.bench_function("dcas_failure", || {
        black_box(W::dcas(&a, &b, 9, 9, 0, 0));
    });

    for n in [2usize, 4] {
        let cells: Vec<W> = (0..n as u64).map(W::new).collect();
        g.bench_function(format!("mcas_{n}_identity"), || {
            let ops: Vec<McasOp<'_, W>> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| McasOp {
                    cell: c,
                    old: i as u64,
                    new: i as u64,
                })
                .collect();
            black_box(W::mcas(&ops));
        });
    }
    g.finish();
}

fn main() {
    let mut c = Minibench::from_args();
    bench_strategy::<McasWord>(&mut c);
    bench_strategy::<LockWord>(&mut c);
}
