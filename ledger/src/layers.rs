//! The traced run's per-layer measurements, all taken from outside the
//! program: calls into each layer's public functions are timed, and obs
//! counters are diffed around each phase.
//!
//! * Single-client phases run a fixed number of fresh ops of one kind on
//!   the workload's store, on the main thread with no other thread
//!   running, so their per-op work counts repeat exactly for a seed.
//! * Calibration times batches of single-thread calls to one primitive of
//!   a lower layer (median of [`REPS`]) and records which counters one
//!   call moves.
//! * [`explained_ns`] prices a kind's per-op counts with those unit costs.

use std::hint::black_box;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use lfrc_core::{defer, Census, DcasWord, Heap, Links, McasWord, PtrField, SharedField};
use lfrc_kv::Kv;
use lfrc_obs::counters::COUNTER_COUNT;
use lfrc_obs::{Counter, Snapshot};

use crate::check::{call, Tally};
use crate::stats::median;
use crate::workload::{KeyDist, Kind, OpGen, SplitMix64};

/// Timed batches per unit cost; the median is reported.
const REPS: u64 = 5;

/// Counter deltas of one phase and the ops they were spread over.
#[derive(Debug, Clone)]
pub struct Work {
    pub counts: Snapshot,
    pub ops: u64,
}

impl Work {
    pub fn per_op(&self, c: Counter) -> f64 {
        self.counts.get(c) as f64 / self.ops.max(1) as f64
    }
}

/// What one call costs: its time (a phase's mean, or a calibration's
/// median) and the counter deltas of the calls it was measured over.
#[derive(Debug, Clone)]
pub struct Cost {
    pub ns: f64,
    pub work: Work,
}

/// Runs `ops` fresh ops of `kind` from stream `stream` on the calling
/// thread, checking each result into `tally`.
pub fn single_client(
    kv: &Kv,
    dist: &KeyDist,
    kind: Kind,
    ops: u64,
    seed: u64,
    tally: &mut Tally,
) -> Cost {
    let mut gen = OpGen::only(dist.clone(), kind, seed, 100 + kind as u64);
    let ops_list: Vec<_> = (0..ops).map(|_| gen.next_op()).collect();
    let mut batch = Vec::new();
    let mut busy_ns = 0u128;
    let before = Snapshot::take();
    for op in &ops_list {
        let start = Instant::now();
        let out = call(kv, op, &mut batch);
        busy_ns += start.elapsed().as_nanos();
        tally.check(op, &out, |k| kv.shard_of(k));
    }
    Cost {
        ns: busy_ns as f64 / ops as f64,
        work: Work {
            counts: Snapshot::take().diff(&before),
            ops,
        },
    }
}

/// Times [`REPS`] batches of `calls` calls; `batch(range)` makes one call
/// per index in `range` (indices are fresh across batches, so a caller can
/// index pre-drawn keys).
pub fn calibrate(calls: u64, mut batch: impl FnMut(Range<u64>)) -> Cost {
    batch(0..calls / 10); // warm-up
    let before = Snapshot::take();
    let ns: Vec<f64> = (1..=REPS)
        .map(|rep| {
            let start = Instant::now();
            batch(rep * calls..(rep + 1) * calls);
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    Cost {
        ns: median(&ns),
        work: Work {
            counts: Snapshot::take().diff(&before),
            ops: REPS * calls,
        },
    }
}

/// A one-word object for the allocation and load calibrations.
struct Leaf(#[allow(dead_code)] u64);

impl Links<McasWord> for Leaf {
    fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {}
}

/// Unit costs of the lower layers, each priced per call of the counter
/// that counts it.
#[derive(Debug, Clone)]
pub struct Units {
    pub dcas: Cost,
    pub load_counted: Cost,
    pub load_deferred: Cost,
    pub pin: Cost,
    pub alloc_free: Cost,
}

impl Units {
    /// Widest first: a counted load's own DCAS and pins are part of its
    /// cost, so they are taken out of the counts before those are priced.
    fn pricing(&self) -> [(Counter, &Cost); 5] {
        [
            (Counter::LoadDcasAttempt, &self.load_counted),
            (Counter::CensusAlloc, &self.alloc_free),
            (Counter::LoadDeferred, &self.load_deferred),
            (Counter::DescImmortalReuse, &self.dcas),
            (Counter::EpochPin, &self.pin),
        ]
    }
}

/// Calibrates the lower layers on a heap of their own, whose census is
/// returned for the run's drain check.
pub fn calibrate_units() -> (Units, Arc<Census>) {
    const CALLS: u64 = 10_000;
    let heap: Heap<Leaf, McasWord> = Heap::new();
    let (a, b) = (McasWord::new(0), McasWord::new(0));
    let mut v = 0;
    let dcas = calibrate(CALLS, |r| {
        for _ in r {
            assert!(
                McasWord::dcas(&a, &b, v, v, v + 1, v + 1),
                "uncontended DCAS failed"
            );
            v += 1;
        }
    });
    let root: SharedField<Leaf, McasWord> = SharedField::new(Some(&heap.alloc(Leaf(0))));
    let load_counted = calibrate(CALLS, |r| {
        for _ in r {
            black_box(root.load());
        }
    });
    let load_deferred = calibrate(CALLS, |r| {
        defer::pinned(|pin| {
            for _ in r {
                black_box(root.load_deferred(pin));
            }
        })
    });
    let pin = calibrate(CALLS, |r| {
        for _ in r {
            defer::pinned(|pin| {
                black_box(pin);
            });
        }
    });
    let alloc_free = calibrate(CALLS, |r| {
        for v in r {
            drop(black_box(heap.alloc(Leaf(v))));
        }
    });
    let units = Units {
        dcas,
        load_counted,
        load_deferred,
        pin,
        alloc_free,
    };
    (units, Arc::clone(heap.census()))
}

/// Single-shard structure costs, called directly on the shard that owns
/// each key: `contains`, `insert` plus `remove` of an absent (odd) key,
/// and a 32-key `scan`.
#[derive(Debug, Clone)]
pub struct Structures {
    pub contains: Cost,
    pub insert_remove: Cost,
    pub scan32: Cost,
}

pub fn calibrate_structures(kv: &Kv, dist: &KeyDist, seed: u64, tally: &mut Tally) -> Structures {
    const FAST: u64 = 10_000;
    const SLOW: u64 = 1_000;
    let mut rng = SplitMix64::new(seed, 200);
    let keys: Vec<u64> = (0..(REPS + 1) * FAST)
        .map(|_| dist.sample(&mut rng))
        .collect();
    let shard = |k: u64| kv.shard(kv.shard_of(k));
    let contains = calibrate(FAST, |r| {
        for i in r {
            black_box(shard(keys[i as usize]).contains(keys[i as usize]));
        }
    });
    let insert_remove = calibrate(SLOW, |r| {
        for i in r {
            let k = keys[i as usize] | 1;
            let s = shard(k);
            tally.attempted += 1;
            tally.failed += u64::from(!(s.insert(k) && s.remove(k)));
        }
    });
    let scan32 = calibrate(SLOW, |r| {
        for i in r {
            black_box(shard(keys[i as usize]).scan(keys[i as usize], 32));
        }
    });
    Structures {
        contains,
        insert_remove,
        scan32,
    }
}

/// Σ over priced counters of (count per op × unit cost), for work `w`.
/// Each counter is priced once: after a primitive is priced, everything
/// its calls account for (by its calibrated footprint) is taken out of
/// the remaining counts. What no primitive prices is the residual.
pub fn explained_ns(w: &Work, units: &Units) -> f64 {
    let mut left = [0f64; COUNTER_COUNT];
    for c in Counter::ALL.into_iter().filter(|c| !c.is_high_water()) {
        left[c as usize] = w.per_op(c);
    }
    let mut ns = 0.0;
    for (counter, unit) in units.pricing() {
        let own = unit.work.per_op(counter);
        if own == 0.0 {
            continue;
        }
        let calls = left[counter as usize] / own;
        ns += calls * unit.ns;
        for c in Counter::ALL.into_iter().filter(|c| !c.is_high_water()) {
            let slot = &mut left[c as usize];
            *slot = (*slot - calls * unit.work.per_op(c)).max(0.0);
        }
    }
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(counts: &[(Counter, u64)], ops: u64) -> Work {
        let mut vals = [0u64; COUNTER_COUNT];
        for &(c, n) in counts {
            vals[c as usize] = n;
        }
        Work {
            counts: Snapshot::from_values(vals),
            ops,
        }
    }

    fn unit(ns: f64, counts: &[(Counter, u64)]) -> Cost {
        Cost {
            ns,
            work: work(counts, 1),
        }
    }

    /// A counted load's own DCAS and pins are priced with the load, not a
    /// second time as DCAS and pins.
    #[test]
    fn each_counter_is_priced_once() {
        use Counter::*;
        let units = Units {
            load_counted: unit(
                300.0,
                &[(LoadDcasAttempt, 1), (DescImmortalReuse, 3), (EpochPin, 4)],
            ),
            alloc_free: unit(200.0, &[(CensusAlloc, 1), (EpochPin, 1)]),
            load_deferred: unit(10.0, &[(LoadDeferred, 1)]),
            dcas: unit(180.0, &[(DescImmortalReuse, 1), (EpochPin, 1)]),
            pin: unit(15.0, &[(EpochPin, 1)]),
        };
        // Per op: 2 counted loads, 7 MCAS, 10 pins, nothing allocated.
        let w = work(
            &[
                (LoadDcasAttempt, 20),
                (DescImmortalReuse, 70),
                (EpochPin, 100),
            ],
            10,
        );
        let expected = 2.0 * 300.0 + (7.0 - 6.0) * 180.0 + (10.0 - 8.0 - 1.0) * 15.0;
        assert!((explained_ns(&w, &units) - expected).abs() < 1e-9);
        // Counts a primitive already covers are not priced below zero.
        let w = work(&[(LoadDcasAttempt, 10), (EpochPin, 1)], 10);
        assert!((explained_ns(&w, &units) - 300.0).abs() < 1e-9);
    }
}
