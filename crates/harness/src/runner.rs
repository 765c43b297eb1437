//! Multi-threaded measurement loops.
//!
//! Two shapes cover every experiment:
//!
//! * [`run_ops`] — each of `threads` workers executes a fixed number of
//!   operations; returns wall time and aggregate throughput. Used when
//!   the total work must be exact (conservation checking).
//! * [`run_for_duration`] — workers run until a deadline; returns the
//!   number of operations completed. Used when some workers may be
//!   stalled (experiment E4) and an exact count is impossible.
//!
//! The `*_recorded` variants wrap each run as one phase of a
//! [`crate::obsrec::PhaseRecorder`], so experiments export an obs counter
//! snapshot per measured phase alongside the throughput numbers.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Result of a measured run.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Total operations completed across all workers.
    pub ops: u64,
    /// Wall-clock time from the start barrier to the last worker's exit.
    pub elapsed: Duration,
}

impl RunStats {
    /// Aggregate throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops in {:.3}s ({:.0} ops/s)",
            self.ops,
            self.elapsed.as_secs_f64(),
            self.ops_per_sec()
        )
    }
}

/// Runs `ops_per_thread` iterations of `body` on each of `threads`
/// workers, beginning simultaneously. `body(thread, i)` performs the
/// `i`-th operation of worker `thread`.
pub fn run_ops<F>(threads: usize, ops_per_thread: u64, body: F) -> RunStats
where
    F: Fn(usize, u64) + Sync,
{
    assert!(threads > 0);
    let barrier = Barrier::new(threads + 1);
    let start: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (body, barrier) = (&body, &barrier);
            s.spawn(move || {
                barrier.wait();
                for i in 0..ops_per_thread {
                    body(t, i);
                }
                // Deferred-fast-path workloads park decrements on the
                // worker's buffer, and `std::thread::scope` can return
                // before TLS exit flushes run — flush explicitly so
                // callers can inspect censuses right after this returns
                // (see lfrc_core::defer).
                lfrc_core::defer::flush_thread();
            });
        }
        // Stamp *before* releasing the barrier: on a loaded (or
        // single-core) host the workers may otherwise run to completion
        // before this thread is rescheduled, yielding elapsed ≈ 0.
        start.set(Instant::now()).expect("set once");
        barrier.wait();
    });
    let elapsed = start.get().expect("set in scope").elapsed();
    RunStats {
        ops: threads as u64 * ops_per_thread,
        elapsed,
    }
}

/// Runs `body` repeatedly on each worker until `duration` elapses.
///
/// `body(thread, i)` returns `true` if the iteration performed useful
/// work (counted) or `false` if it should be ignored (e.g. an empty pop).
/// Workers poll the deadline every few iterations, so a *stalled* worker
/// (one that never returns from `body`) does not prevent the others from
/// finishing — the run returns once every non-stalled worker exits, and
/// `stalled_release` is flipped so instrumented stalls can unwind.
pub fn run_for_duration<F>(
    threads: usize,
    duration: Duration,
    stalled_release: &AtomicBool,
    body: F,
) -> RunStats
where
    F: Fn(usize, u64) -> bool + Sync,
{
    assert!(threads > 0);
    let barrier = Barrier::new(threads + 1);
    let total = AtomicU64::new(0);
    let start: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (body, barrier, total, start) = (&body, &barrier, &total, &start);
            s.spawn(move || {
                barrier.wait();
                let begin = *start.get().expect("published before barrier release");
                let mut done = 0u64;
                let mut i = 0u64;
                loop {
                    if i.is_multiple_of(32) && begin.elapsed() >= duration {
                        break;
                    }
                    if body(t, i) {
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
        // Give stalled workers their release once the measurement window
        // has passed, so their scoped threads can join.
        std::thread::sleep(duration);
        stalled_release.store(true, Ordering::SeqCst);
    });
    RunStats {
        ops: total.load(Ordering::Acquire),
        elapsed: duration,
    }
}

/// [`run_ops`], recorded: the run becomes one phase of `rec` labelled
/// `label`, carrying its counter delta, its per-op latency histogram
/// delta (each `body` call is timed into
/// [`Hist::OpLatencyNs`](lfrc_obs::hist::Hist::OpLatencyNs) via the
/// sharded registry), and its throughput. In `--no-default-features`
/// builds the timing collapses to nothing — `lfrc_obs::enabled()` is a
/// `const`, so the branch folds away.
pub fn run_ops_recorded<F>(
    rec: &mut crate::obsrec::PhaseRecorder,
    label: &str,
    threads: usize,
    ops_per_thread: u64,
    body: F,
) -> RunStats
where
    F: Fn(usize, u64) + Sync,
{
    let stats = run_ops(threads, ops_per_thread, |t, i| {
        if lfrc_obs::enabled() {
            let begin = Instant::now();
            body(t, i);
            lfrc_obs::hist::record(
                lfrc_obs::hist::Hist::OpLatencyNs,
                begin.elapsed().as_nanos() as u64,
            );
        } else {
            body(t, i);
        }
    });
    rec.record_run(label, &stats);
    stats
}

/// [`run_for_duration`], recorded: the run becomes one phase of `rec`
/// labelled `label`, carrying its counter delta, per-op latency delta
/// (only iterations where `body` reports useful work are recorded —
/// empty pops would flood the histogram's low buckets), and throughput.
pub fn run_for_duration_recorded<F>(
    rec: &mut crate::obsrec::PhaseRecorder,
    label: &str,
    threads: usize,
    duration: Duration,
    stalled_release: &AtomicBool,
    body: F,
) -> RunStats
where
    F: Fn(usize, u64) -> bool + Sync,
{
    let stats = run_for_duration(threads, duration, stalled_release, |t, i| {
        if lfrc_obs::enabled() {
            let begin = Instant::now();
            let useful = body(t, i);
            if useful {
                lfrc_obs::hist::record(
                    lfrc_obs::hist::Hist::OpLatencyNs,
                    begin.elapsed().as_nanos() as u64,
                );
            }
            useful
        } else {
            body(t, i)
        }
    });
    rec.record_run(label, &stats);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_ops_counts_everything() {
        let counter = AtomicU64::new(0);
        let stats = run_ops(4, 1_000, |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.ops, 4_000);
        assert_eq!(counter.load(Ordering::Relaxed), 4_000);
        assert!(stats.ops_per_sec() > 0.0);
    }

    #[test]
    fn run_for_duration_stops() {
        let release = AtomicBool::new(false);
        let stats = run_for_duration(2, Duration::from_millis(50), &release, |_, _| true);
        assert!(stats.ops > 0);
        assert!(release.load(Ordering::SeqCst));
    }

    #[test]
    fn run_for_duration_survives_stalled_worker() {
        // Worker 0 blocks until released; workers 1..3 must still make
        // progress and the call must return.
        let release = AtomicBool::new(false);
        let stats = run_for_duration(3, Duration::from_millis(50), &release, |t, _| {
            if t == 0 {
                while !release.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                false
            } else {
                true
            }
        });
        assert!(stats.ops > 0, "non-stalled workers made no progress");
    }

    #[test]
    fn display_formats() {
        let s = RunStats {
            ops: 100,
            elapsed: Duration::from_millis(200),
        };
        let txt = format!("{s}");
        assert!(txt.contains("100 ops"));
    }
}
