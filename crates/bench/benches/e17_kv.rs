//! **E17 — sharded KV front end.** Drives the `lfrc-kv` [`KvStore`]
//! (N hash-routed `LfrcSkipList` shards) with the harness traffic
//! generator and answers the two E17 questions:
//!
//! 1. **Shard count vs. skew** — the read-heavy mix
//!    ([`KvMix::READ_HEAVY`]) over a scrambled-zipfian (θ = 0.99) and a
//!    uniform key distribution, across shard counts {1, 4, 16}. With the
//!    key space split S ways each shard's skip list is 1/S the depth, so
//!    multi-shard wins on traversal length even on one core — the
//!    acceptance bar is the 16-shard store beating single-shard on the
//!    skewed read-heavy mix.
//! 2. **Batch size vs. write cost** — `write_batch` applies its writes
//!    inside one `defer::pinned` scope, so pin entry/exit amortizes
//!    across the batch (DESIGN.md §5.16).
//!
//! ```text
//! cargo bench -p lfrc-bench --bench e17_kv
//! ```
//!
//! Tables are recorded in `experiment-results/e17_kv.txt`; the sustained
//! soak companion (`kv_soak`, timeline + live `/metrics`) records
//! `experiment-results/obs/e17_kv.timeline.jsonl`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use lfrc_bench::Minibench;
use lfrc_core::{defer, McasWord, Strategy};
use lfrc_harness::{
    human_ns, run_soak, KeyDist, KvMix, KvOp, KvWorkload, SoakConfig, SoakReport, Table,
};
use lfrc_kv::{KvConfig, KvStore, KvWrite};

/// Key space for the shard sweep; half of it is prepopulated, so point
/// reads hit ~50 % of the time and the skip lists have realistic depth.
/// Large enough that even the zipfian tail (θ = 0.99 is broad: the top
/// thousand keys carry only ~half the mass) spills out of cache and
/// traversal length dominates.
const KEY_SPACE: u64 = 1_000_000;

/// Pre-generated ops per worker per distribution (power of two so the
/// soak body can cycle with a mask). Generating the stream up front
/// keeps zipfian float sampling and stream locking out of the measured
/// window — the window times the store, not the generator.
const STREAM_LEN: usize = 1 << 16;

/// Workers for the mixed soak (the host may be single-core; the win
/// measured here is traversal length, not parallelism).
const THREADS: usize = 2;

/// Measurement window per configuration.
const WINDOW: Duration = Duration::from_millis(400);

/// Builds a store and loads every even key of the key space via batched
/// writes (512 per batch — large enough to amortize, small enough to
/// keep the pin short).
fn prepopulated(shards: usize, strategy: Strategy) -> KvStore<McasWord> {
    let kv: KvStore<McasWord> = KvStore::with_config(KvConfig { shards, strategy });
    let mut batch = Vec::with_capacity(512);
    for k in (0..KEY_SPACE).step_by(2) {
        batch.push(KvWrite::Put(k));
        if batch.len() == 512 {
            kv.write_batch(&batch);
            batch.clear();
        }
    }
    kv.write_batch(&batch);
    kv
}

/// Applies one generated op to the store.
fn apply(kv: &KvStore<McasWord>, op: &KvOp) {
    match op {
        KvOp::Get(k) => {
            black_box(kv.get(*k));
        }
        KvOp::Put(k) => {
            black_box(kv.put(*k));
        }
        KvOp::Delete(k) => {
            black_box(kv.delete(*k));
        }
        KvOp::Scan { start, limit } => {
            black_box(kv.scan(*start, *limit));
        }
        KvOp::Batch(entries) => {
            let writes: Vec<KvWrite> = entries
                .iter()
                .map(|&(k, is_put)| {
                    if is_put {
                        KvWrite::Put(k)
                    } else {
                        KvWrite::Delete(k)
                    }
                })
                .collect();
            black_box(kv.write_batch(&writes));
        }
    }
}

/// Pre-generates [`STREAM_LEN`] ops per worker from seeded per-thread
/// workload streams.
fn pregenerate(mix: KvMix, dist: &KeyDist) -> Vec<Vec<KvOp>> {
    (0..THREADS)
        .map(|t| {
            let mut w = KvWorkload::new(0xE17, t, mix, dist.clone());
            (0..STREAM_LEN).map(|_| w.next_op()).collect()
        })
        .collect()
}

/// Runs the pre-generated streams against `kv` for [`WINDOW`] and
/// returns the soak report (throughput + per-op-kind latency
/// snapshots). Workers cycle their stream with a mask.
fn mixed_soak(kv: &KvStore<McasWord>, streams: &[Vec<KvOp>]) -> SoakReport {
    let cfg = SoakConfig {
        threads: THREADS,
        duration: WINDOW,
        target_ops_per_sec: 0,
        kinds: &KvOp::KINDS,
    };
    run_soak(&cfg, |t, i| {
        let op = &streams[t][i as usize & (STREAM_LEN - 1)];
        apply(kv, op);
        Some(op.kind())
    })
}

fn teardown(kv: KvStore<McasWord>) {
    drop(kv);
    defer::flush_thread();
}

fn main() {
    let mut c = Minibench::from_args();
    let strategy = Strategy::from_env();
    println!(
        "e17_kv: strategy {} (LFRC_STRATEGY), {} keys, {} threads, {}ms windows",
        strategy.name(),
        KEY_SPACE,
        THREADS,
        WINDOW.as_millis()
    );

    // Micro-costs of the store's point ops at the default width.
    {
        let kv = prepopulated(4, strategy);
        let mut g = c.group("e17/point_ops[4 shards]");
        let mut k = 0u64;
        g.bench_function("get", || {
            k = k.wrapping_add(7919);
            black_box(kv.get(k % KEY_SPACE));
        });
        g.bench_function("put_delete", || {
            k = k.wrapping_add(7919);
            kv.put(k % KEY_SPACE);
            kv.delete(k % KEY_SPACE);
        });
        g.bench_function("scan_32", || {
            k = k.wrapping_add(7919);
            black_box(kv.scan(k % KEY_SPACE, 32));
        });
        g.finish();
        teardown(kv);
    }

    // Question 1: shard count × key skew under the read-heavy mix.
    //
    // One 400 ms window is far too noisy on a shared box, and running
    // the cells back-to-back folds time-correlated drift (other
    // processes, thermal state) into the comparison. So: build each
    // store once, interleave ROUNDS passes over every (dist, shards)
    // cell, and report the median throughput per cell.
    const ROUNDS: usize = 5;
    println!();
    println!(
        "e17 shard sweep: read-heavy mix ({}% get / {}% scan / {}% batch), \
         {} keys, {} threads, median of {ROUNDS} x {}ms windows",
        KvMix::READ_HEAVY.get_pct,
        KvMix::READ_HEAVY.scan_pct,
        KvMix::READ_HEAVY.batch_pct,
        KEY_SPACE,
        THREADS,
        WINDOW.as_millis()
    );
    let dists = [
        KeyDist::zipfian(KEY_SPACE, 0.99),
        KeyDist::uniform(KEY_SPACE),
    ];
    let shard_counts = [1usize, 4, 16];
    let stores: Vec<KvStore<McasWord>> = shard_counts
        .iter()
        .map(|&s| prepopulated(s, strategy))
        .collect();
    let streams: Vec<Vec<Vec<KvOp>>> = dists
        .iter()
        .map(|d| pregenerate(KvMix::READ_HEAVY, d))
        .collect();
    // samples[dist][shards] -> (Mops/s per round, last report).
    let mut samples: Vec<Vec<(Vec<f64>, Option<SoakReport>)>> = (0..dists.len())
        .map(|_| {
            (0..shard_counts.len())
                .map(|_| (Vec::new(), None))
                .collect()
        })
        .collect();
    for _round in 0..ROUNDS {
        for (di, _) in dists.iter().enumerate() {
            for (si, kv) in stores.iter().enumerate() {
                let report = mixed_soak(kv, &streams[di]);
                let mops = report.stats.ops as f64 / WINDOW.as_secs_f64() / 1e6;
                let cell = &mut samples[di][si];
                cell.0.push(mops);
                cell.1 = Some(report);
            }
        }
    }
    let median = |xs: &[f64]| {
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let mut t = Table::new([
        "dist",
        "shards",
        "Mops/s",
        "get p50",
        "get p99",
        "get p99.9",
    ]);
    // (dist label, shards) -> median Mops/s, for the verdict lines below.
    let mut mops_by = Vec::new();
    for (di, dist) in dists.iter().enumerate() {
        for (si, &shards) in shard_counts.iter().enumerate() {
            let (rounds, report) = &samples[di][si];
            let mops = median(rounds);
            let report = report.as_ref().unwrap();
            let get = &report.per_kind[0].1;
            t.row([
                dist.label(),
                shards.to_string(),
                format!("{mops:.3}"),
                human_ns(get.quantile_ns(0.5)),
                human_ns(get.quantile_ns(0.99)),
                human_ns(get.quantile_ns(0.999)),
            ]);
            mops_by.push((dist.label(), shards, mops));
        }
    }
    for kv in stores {
        teardown(kv);
    }
    println!("{}", t.to_markdown());
    let find = |label: &str, shards: usize| {
        mops_by
            .iter()
            .find(|(l, s, _)| l == label && *s == shards)
            .map(|(_, _, m)| *m)
            .unwrap()
    };
    let zipf = KeyDist::zipfian(KEY_SPACE, 0.99).label();
    let uni = KeyDist::uniform(KEY_SPACE).label();
    println!(
        "16-shard / 1-shard throughput, zipf(0.99): {:.2}x (acceptance bar: > 1.00x)",
        find(&zipf, 16) / find(&zipf, 1)
    );
    println!(
        "16-shard / 1-shard throughput, uniform:    {:.2}x",
        find(&uni, 16) / find(&uni, 1)
    );

    // Question 2: write cost vs. batch size (one pin per batch,
    // amortized over the writes inside it), per strategy.
    println!();
    const BATCH_WRITES: u64 = 32_768;
    println!("e17 batch amortization: {BATCH_WRITES} puts then deletes per cell, 4 shards");
    let mut t = Table::new(["strategy", "batch", "ns/write"]);
    for strategy in Strategy::ALL {
        for batch_size in [1usize, 16, 256] {
            let kv: KvStore<McasWord> = KvStore::with_config(KvConfig {
                shards: 4,
                strategy,
            });
            let start = Instant::now();
            let mut batch = Vec::with_capacity(batch_size);
            for pass in 0..2u64 {
                for k in 0..BATCH_WRITES {
                    batch.push(if pass == 0 {
                        KvWrite::Put(k)
                    } else {
                        KvWrite::Delete(k)
                    });
                    if batch.len() == batch_size {
                        kv.write_batch(&batch);
                        batch.clear();
                    }
                }
                kv.write_batch(&batch);
                batch.clear();
            }
            let ns = start.elapsed().as_nanos() as u64 / (2 * BATCH_WRITES);
            t.row([
                strategy.name().to_string(),
                batch_size.to_string(),
                ns.to_string(),
            ]);
            teardown(kv);
        }
    }
    println!("{}", t.to_markdown());
}
