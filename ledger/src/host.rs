//! How fast the host is running memory-bound work at the moment, measured
//! by a fixed reference load that is the ledger's own code.
//!
//! The reference host's last-level cache is shared with other tenants, and
//! for seconds to minutes at a time it serves the benchmark far worse: a
//! store build then runs up to 1.6 times slower, while arithmetic does not
//! slow at all. Sets of builds of one commit made a few minutes apart had
//! medians up to 1.7 times apart that way. So the set-up runs this load
//! after every batch it loads, and `setup_s` scales each build by how much
//! slower the load ran meanwhile than it does when nothing contends for
//! the cache.
//!
//! The load slides a window of 65,536 entries with 192-byte values (about
//! 13 MiB) through a `BTreeMap`: each op inserts the next key and removes
//! the oldest. Like a build, it allocates fresh nodes and walks a tree that
//! lives in the shared cache. It runs between the build's batches, so it
//! sees the cache as the build left it: a change that makes the build
//! evict more also slows the load a little, and shows slightly less.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Entries in the window.
const WINDOW: u64 = 1 << 16;

/// Reference ops run and timed after each set-up batch.
const OPS_PER_RUN: u64 = 1_000;

/// Time per reference op on the reference host when nothing contends for
/// its cache: the 10th percentile over 1,573 builds of 131,072 and 10,000
/// keys with this load run between their batches, made through 13 minutes
/// of varying contention (the median was 309 ns, the 90th percentile
/// 358 ns).
pub const UNCONTENDED_NS_PER_OP: f64 = 238.0;

/// The window, and the time its timed ops took since the last
/// [`Reference::take_slowdown`].
pub struct Reference {
    window: BTreeMap<u64, [u64; 24]>,
    next: u64,
    busy: Duration,
    ops: u64,
}

impl Reference {
    /// A full window; filling it is not timed.
    pub fn new() -> Self {
        let mut r = Reference {
            window: BTreeMap::new(),
            next: 0,
            busy: Duration::ZERO,
            ops: 0,
        };
        for _ in 0..WINDOW {
            r.op();
        }
        r
    }

    fn op(&mut self) {
        let k = self.next;
        self.window.insert(k, [k; 24]);
        if k >= WINDOW {
            self.window.remove(&(k - WINDOW));
        }
        self.next += 1;
    }

    /// Runs and times [`OPS_PER_RUN`] ops.
    pub fn run(&mut self) {
        let start = Instant::now();
        for _ in 0..OPS_PER_RUN {
            self.op();
        }
        self.busy += start.elapsed();
        self.ops += OPS_PER_RUN;
    }

    /// How many times slower than [`UNCONTENDED_NS_PER_OP`] the timed ops
    /// ran since the last call (1 if none ran).
    pub fn take_slowdown(&mut self) -> f64 {
        let slowdown = if self.ops == 0 {
            1.0
        } else {
            self.busy.as_nanos() as f64 / self.ops as f64 / UNCONTENDED_NS_PER_OP
        };
        self.busy = Duration::ZERO;
        self.ops = 0;
        slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_slides_and_slowdown_resets() {
        let mut r = Reference::new();
        assert_eq!(r.take_slowdown(), 1.0);
        r.run();
        r.run();
        assert_eq!(r.window.len() as u64, WINDOW);
        assert_eq!(r.window.keys().next(), Some(&(2 * OPS_PER_RUN)));
        assert!(r.take_slowdown() > 0.0);
        assert_eq!(r.take_slowdown(), 1.0);
    }
}
