//! Paced soak runner with per-op-kind latency tracking.
//!
//! A soak differs from a throughput run ([`crate::runner`]) in what it
//! measures: not "how fast can this go" but "what does the tail look
//! like at a *fixed, sustainable* rate over minutes". [`run_soak`]
//! drives `threads` workers until a deadline, optionally pacing them to
//! an aggregate target op rate, and times every useful operation twice
//! over:
//!
//! * into the registry histogram
//!   [`Hist::OpLatencyNs`](lfrc_obs::hist::Hist::OpLatencyNs) — which
//!   is what the timeline sampler's per-tick `p999_ns` and the live
//!   `/metrics` cumulative buckets are computed from; and
//! * into a standalone per-**kind** [`Histogram`] (get/put/delete/…,
//!   the body reports which), for the end-of-run per-op-type
//!   p50/p99/p99.9 table. These are ungated, so the table exists even
//!   in obs-disabled builds.
//!
//! Pacing is open-loop: each worker computes its per-op period from the
//! aggregate target and sleeps whenever it runs more than a millisecond
//! ahead of schedule, so a slow patch is followed by catch-up — the
//! standard load-generator shape, which keeps queueing delay visible in
//! the tail instead of silently shedding load.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use lfrc_obs::hist::{Hist, HistSnapshot, Histogram};

use crate::runner::RunStats;
use crate::table::Table;

/// Configuration for one [`run_soak`] call.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Worker threads.
    pub threads: usize,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Aggregate target op rate across all workers; 0 = unpaced
    /// (run flat out).
    pub target_ops_per_sec: u64,
    /// Op-kind labels; the body returns an index into this slice (e.g.
    /// [`crate::workload::KvOp::KINDS`]).
    pub kinds: &'static [&'static str],
}

/// What a soak run produced: aggregate throughput plus one latency
/// snapshot per op kind.
#[derive(Debug)]
pub struct SoakReport {
    /// Useful operations and wall time.
    pub stats: RunStats,
    /// `(kind label, latency snapshot)` in `kinds` order.
    pub per_kind: Vec<(&'static str, HistSnapshot)>,
}

impl SoakReport {
    /// The per-op-type quantile table (`kind | count | p50 | p99 |
    /// p99.9 | max`) every soak binary prints.
    pub fn kind_table(&self) -> Table {
        let mut t = Table::new(["op", "count", "p50", "p99", "p99.9", "max"]);
        for (kind, snap) in &self.per_kind {
            t.row([
                (*kind).to_string(),
                snap.count().to_string(),
                crate::latency::human_ns(snap.quantile_ns(0.5)),
                crate::latency::human_ns(snap.quantile_ns(0.99)),
                crate::latency::human_ns(snap.quantile_ns(0.999)),
                crate::latency::human_ns(snap.max_ns()),
            ]);
        }
        t
    }

    /// All kinds merged into one snapshot (the "overall" row).
    pub fn merged(&self) -> HistSnapshot {
        self.per_kind
            .iter()
            .fold(HistSnapshot::empty(), |acc, (_, s)| acc.merge(s))
    }
}

/// Runs `body` on `threads` workers until `cfg.duration` elapses,
/// pacing to `cfg.target_ops_per_sec` when nonzero.
///
/// `body(thread, i)` performs one operation and returns `Some(kind)`
/// (an index into `cfg.kinds`) for useful work, `None` for an iteration
/// that should not be timed. Workers flush defer buffers before exiting,
/// so censuses are inspectable right after this returns.
pub fn run_soak<F>(cfg: &SoakConfig, body: F) -> SoakReport
where
    F: Fn(usize, u64) -> Option<usize> + Sync,
{
    assert!(cfg.threads > 0);
    assert!(!cfg.kinds.is_empty());
    let kind_hists: Vec<Histogram> = cfg.kinds.iter().map(|_| Histogram::new()).collect();
    let barrier = Barrier::new(cfg.threads + 1);
    let total = AtomicU64::new(0);
    let start: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    // Per-thread, per-op period for the aggregate target (0 = unpaced).
    let period_ns = (cfg.threads as u64 * 1_000_000_000)
        .checked_div(cfg.target_ops_per_sec)
        .unwrap_or(0);
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let (body, barrier, total, start, kind_hists) =
                (&body, &barrier, &total, &start, &kind_hists);
            s.spawn(move || {
                barrier.wait();
                let begin = *start.get().expect("published before barrier release");
                let mut done = 0u64;
                let mut i = 0u64;
                loop {
                    if i.is_multiple_of(32) && begin.elapsed() >= cfg.duration {
                        break;
                    }
                    if period_ns > 0 {
                        let scheduled = i.saturating_mul(period_ns);
                        let now = begin.elapsed().as_nanos() as u64;
                        // Sleep only when meaningfully ahead — sub-ms
                        // sleeps cost more than they pace.
                        if scheduled > now + 1_000_000 {
                            std::thread::sleep(Duration::from_nanos(scheduled - now));
                        }
                    }
                    let t0 = Instant::now();
                    if let Some(kind) = body(t, i) {
                        let ns = t0.elapsed().as_nanos() as u64;
                        kind_hists[kind].record(ns);
                        if lfrc_obs::enabled() {
                            lfrc_obs::hist::record(Hist::OpLatencyNs, ns);
                        }
                        done += 1;
                    }
                    i += 1;
                }
                total.fetch_add(done, Ordering::AcqRel);
                lfrc_core::defer::flush_thread();
            });
        }
        start.set(Instant::now()).expect("set once");
        barrier.wait();
    });
    SoakReport {
        stats: RunStats {
            ops: total.load(Ordering::Acquire),
            elapsed: cfg.duration,
        },
        per_kind: cfg
            .kinds
            .iter()
            .zip(kind_hists.iter())
            .map(|(k, h)| (*k, h.snapshot()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [&str; 2] = ["even", "odd"];

    #[test]
    fn unpaced_soak_counts_and_classifies() {
        let cfg = SoakConfig {
            threads: 2,
            duration: Duration::from_millis(60),
            target_ops_per_sec: 0,
            kinds: &KINDS,
        };
        let report = run_soak(&cfg, |_, i| Some((i % 2) as usize));
        assert!(report.stats.ops > 0);
        let (even, odd) = (&report.per_kind[0], &report.per_kind[1]);
        assert_eq!(even.0, "even");
        assert!(even.1.count() > 0 && odd.1.count() > 0);
        assert_eq!(report.merged().count(), report.stats.ops);
        let table = report.kind_table().to_markdown();
        assert!(table.contains("p99.9") && table.contains("even"));
    }

    #[test]
    fn paced_soak_respects_target_rate() {
        let cfg = SoakConfig {
            threads: 2,
            duration: Duration::from_millis(300),
            target_ops_per_sec: 2_000,
            kinds: &KINDS,
        };
        let report = run_soak(&cfg, |_, i| Some((i % 2) as usize));
        // ~600 expected. The ceiling is what matters (pacing held the
        // rate down); keep both bounds loose for noisy CI hosts.
        assert!(
            report.stats.ops >= 100,
            "paced soak starved: {} ops",
            report.stats.ops
        );
        assert!(
            report.stats.ops <= 1_500,
            "pacing failed to cap: {} ops",
            report.stats.ops
        );
    }

    #[test]
    fn none_iterations_are_not_recorded() {
        let cfg = SoakConfig {
            threads: 1,
            duration: Duration::from_millis(30),
            target_ops_per_sec: 0,
            kinds: &KINDS,
        };
        let report = run_soak(&cfg, |_, i| if i % 2 == 0 { Some(0) } else { None });
        assert_eq!(report.per_kind[1].1.count(), 0);
        assert_eq!(report.merged().count(), report.stats.ops);
    }
}
