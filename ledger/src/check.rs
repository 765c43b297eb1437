//! Runs generated ops against the store and checks every result.
//!
//! What is checkable op by op under concurrency: only even keys are ever
//! written, so a `get` of an odd key must miss; a scan must come back
//! ascending, within its bounds, even, and from the shard that owns its
//! start key. Successful writes are summed into a net key count that the
//! run compares with `len()` at the end.

use lfrc_kv::{Kv, KvWrite};

use crate::workload::{Op, BATCH, SCAN_LIMIT};

/// What one KV call returned.
#[derive(Debug, PartialEq, Eq)]
pub enum Outcome {
    Found(bool),
    Changed(bool),
    Scanned(Vec<u64>),
    Applied(usize),
}

/// Makes the KV call for `op`; `batch` is a reusable buffer.
#[inline]
pub fn call(kv: &Kv, op: &Op, batch: &mut Vec<KvWrite>) -> Outcome {
    match *op {
        Op::Get(k) => Outcome::Found(kv.get(k)),
        Op::Put(k) => Outcome::Changed(kv.put(k)),
        Op::Delete(k) => Outcome::Changed(kv.delete(k)),
        Op::Scan(start) => Outcome::Scanned(kv.scan(start, SCAN_LIMIT)),
        Op::Batch { put, keys } => {
            batch.clear();
            batch.extend(keys.iter().map(|&k| {
                if put {
                    KvWrite::Put(k)
                } else {
                    KvWrite::Delete(k)
                }
            }));
            Outcome::Applied(kv.write_batch(batch))
        }
    }
}

/// Ops attempted, checks failed, and the net change in live keys.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub net: i64,
}

impl Tally {
    /// Checks `out`, the result of `op`; `shard_of` is the store's router.
    pub fn check(&mut self, op: &Op, out: &Outcome, shard_of: impl Fn(u64) -> usize) {
        self.attempted += 1;
        let ok = match (op, out) {
            (Op::Get(k), Outcome::Found(found)) => k % 2 == 0 || !found,
            (Op::Put(_), Outcome::Changed(changed)) => {
                self.net += i64::from(*changed);
                true
            }
            (Op::Delete(_), Outcome::Changed(changed)) => {
                self.net -= i64::from(*changed);
                true
            }
            (Op::Scan(start), Outcome::Scanned(keys)) => {
                let shard = shard_of(*start);
                keys.len() <= SCAN_LIMIT
                    && keys.first().is_none_or(|k| k >= start)
                    && keys.windows(2).all(|w| w[0] < w[1])
                    && keys.iter().all(|&k| k % 2 == 0 && shard_of(k) == shard)
            }
            (Op::Batch { put, .. }, Outcome::Applied(n)) => {
                // A batch is all puts or all deletes, so what it applied
                // is its net change.
                let n = *n as i64;
                self.net += if *put { n } else { -n };
                n <= BATCH as i64
            }
            _ => false,
        };
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.net += other.net;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checked(op: Op, out: Outcome) -> Tally {
        let mut t = Tally::default();
        t.check(&op, &out, |k| (k / 2 % 4) as usize);
        t
    }

    #[test]
    fn accepts_good_results() {
        assert_eq!(checked(Op::Get(3), Outcome::Found(false)).failed, 0);
        assert_eq!(checked(Op::Get(4), Outcome::Found(true)).failed, 0);
        assert_eq!(
            checked(Op::Scan(5), Outcome::Scanned(vec![12, 20, 28])).failed,
            0
        );
        assert_eq!(checked(Op::Scan(5), Outcome::Scanned(vec![])).failed, 0);
        assert_eq!(checked(Op::Put(6), Outcome::Changed(true)).net, 1);
        assert_eq!(checked(Op::Delete(6), Outcome::Changed(true)).net, -1);
        let batch = |put| Op::Batch {
            put,
            keys: [2; BATCH],
        };
        assert_eq!(checked(batch(true), Outcome::Applied(1)).net, 1);
        assert_eq!(checked(batch(false), Outcome::Applied(3)).net, -3);
    }

    #[test]
    fn rejects_forged_results() {
        let bad = [
            (Op::Get(3), Outcome::Found(true)),
            // out of order, below start, odd, other shard, too long
            (Op::Scan(5), Outcome::Scanned(vec![20, 12])),
            (Op::Scan(5), Outcome::Scanned(vec![4, 12])),
            (Op::Scan(5), Outcome::Scanned(vec![12, 13])),
            (Op::Scan(5), Outcome::Scanned(vec![12, 14])),
            (
                Op::Scan(0),
                Outcome::Scanned((0..33).map(|i| i * 8).collect()),
            ),
            (Op::Get(2), Outcome::Scanned(vec![])),
        ];
        for (op, out) in bad {
            let t = checked(op, out);
            assert_eq!((t.attempted, t.failed), (1, 1), "{op:?} passed");
        }
    }
}
