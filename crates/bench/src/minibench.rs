//! A dependency-free stand-in for criterion's timing loop.
//!
//! The container this workspace builds in has no network access to a
//! crates registry, so the `cargo bench` targets are driven by this
//! small calibrated-iteration harness instead of criterion. It keeps the
//! same shape the criterion benches had (`eN/group/function` labels, one
//! line per measurement) and reports the median ns/op across several
//! samples, which is all the experiment tables consume.

use std::time::{Duration, Instant};

/// Target measurement time per sample. Short, because `cargo bench` in
/// CI runs every target; the experiment *binaries* do the long runs.
const SAMPLE_TARGET: Duration = Duration::from_millis(20);
const SAMPLES: usize = 7;

/// One benchmark group (mirrors `criterion::BenchmarkGroup`).
#[derive(Debug)]
pub struct Group<'a> {
    bench: &'a mut Minibench,
    name: String,
}

impl Group<'_> {
    /// Times `f` and prints `group/name … median ns/op (min..max)`.
    pub fn bench_function(&mut self, name: impl Into<String>, mut f: impl FnMut()) {
        let label = format!("{}/{}", self.name, name.into());
        if !self.bench.matches(&label) {
            return;
        }
        // Calibrate: find an iteration count filling SAMPLE_TARGET.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            let took = start.elapsed();
            if took >= SAMPLE_TARGET || iters >= 1 << 30 {
                break;
            }
            // Grow toward the target with headroom for timer noise.
            iters = if took.is_zero() {
                iters * 8
            } else {
                let scale = SAMPLE_TARGET.as_nanos() as f64 / took.as_nanos() as f64;
                ((iters as f64 * scale.clamp(1.5, 8.0)) as u64).max(iters + 1)
            };
        }
        let mut samples = [0f64; SAMPLES];
        for s in samples.iter_mut() {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            *s = start.elapsed().as_nanos() as f64 / iters as f64;
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        println!(
            "{label:<48} {:>12.1} ns/op   ({:.1} .. {:.1}, {iters} iters x {SAMPLES})",
            samples[SAMPLES / 2],
            samples[0],
            samples[SAMPLES - 1],
        );
    }

    /// Criterion-compat no-op.
    pub fn finish(self) {}
}

/// Entry point for a `harness = false` bench target.
#[derive(Debug)]
pub struct Minibench {
    filter: Option<String>,
}

impl Minibench {
    /// Builds a harness from `cargo bench` CLI arguments: any non-flag
    /// argument is a substring filter on benchmark labels (flags such as
    /// the `--bench` cargo appends are ignored).
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Minibench { filter }
    }

    /// Opens a named benchmark group.
    pub fn group(&mut self, name: impl Into<String>) -> Group<'_> {
        Group {
            bench: self,
            name: name.into(),
        }
    }

    fn matches(&self, label: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| label.contains(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_time_and_filter() {
        let mut mb = Minibench {
            filter: Some("hit".into()),
        };
        let mut ran_hit = false;
        let mut ran_miss = false;
        {
            let mut g = mb.group("t");
            g.bench_function("hit", || ran_hit = true);
            g.finish();
        }
        {
            let mut g = mb.group("t");
            g.bench_function("miss", || ran_miss = true);
            g.finish();
        }
        assert!(ran_hit);
        assert!(!ran_miss);
    }
}
