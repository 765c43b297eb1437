//! The four workloads and their seeded operation generator.
//!
//! The generator uses the same algorithms as `lfrc_harness::workload`
//! (SplitMix64, and Gray et al.'s scrambled zipfian, which YCSB uses), but
//! it is its own code, reduced to what the ledger calls, so that a change
//! to the harness cannot change what the ledger feeds the store. Its
//! streams are not the harness's: [`SplitMix64::new`] seeds differently
//! from `SplitMix64::for_thread`, so one seed gives other ops here than
//! in `e17_kv`.

/// Keys per `write_batch` op.
pub const BATCH: usize = 16;
/// Keys per `scan` op.
pub const SCAN_LIMIT: usize = 32;

/// The op kinds the ledger times separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `get` of one key.
    Get,
    /// A single `put` or `delete`.
    Write,
    /// `scan(start, 32)`.
    Scan,
    /// `write_batch` of 16 keys, all puts or all deletes.
    Batch,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Get, Kind::Write, Kind::Scan, Kind::Batch];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Get => "get",
            Kind::Write => "write",
            Kind::Scan => "scan",
            Kind::Batch => "batch",
        }
    }
}

/// One workload: a store size, a key distribution, an op mix and an
/// open-loop rate. Every even key of `0..keys` is prepopulated and every
/// write key is even, so a `get` of an odd key must return `false`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub keys: u64,
    /// Zipf skew of the scrambled-zipfian key distribution; `None` is
    /// uniform.
    pub theta: Option<f64>,
    /// Percent of ops of each [`Kind`], in [`Kind::ALL`] order.
    pub mix: [u64; 4],
    /// Open-loop arrival rate, ops/s over all clients: about 30% of the
    /// closed-loop throughput on the 2-vCPU reference host, low enough
    /// that the host's drift in speed does not tip it into backlog.
    pub rate: f64,
    /// Timed builds per run; `setup_s` is the median over them. A 10,000-key
    /// build takes a tenth of a second, and the median of 10 held steadier
    /// than that of 3 or 5 (README.md), so `hot_small` builds more.
    pub setup_builds: usize,
}

impl Workload {
    /// Share of ops of `kind`, in `[0, 1]`.
    pub fn share(&self, kind: Kind) -> f64 {
        self.mix[kind as usize] as f64 / 100.0
    }
}

// Why each workload exists is in README.md and BENCHMARK.json.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "get_zipf",
        keys: 131_072,
        theta: Some(0.99),
        mix: [98, 2, 0, 0],
        rate: 300_000.0,
        setup_builds: 3,
    },
    Workload {
        name: "write_uniform",
        keys: 131_072,
        theta: None,
        mix: [50, 50, 0, 0],
        rate: 30_000.0,
        setup_builds: 3,
    },
    Workload {
        name: "scan_batch_zipf",
        keys: 131_072,
        theta: Some(0.99),
        mix: [50, 10, 20, 20],
        rate: 5_000.0,
        setup_builds: 3,
    },
    Workload {
        name: "hot_small",
        keys: 10_000,
        theta: Some(0.99),
        mix: [80, 20, 0, 0],
        rate: 90_000.0,
        setup_builds: 10,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: a small seedable PRNG.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The stream of client `stream` for run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix64 {
            state: seed ^ stream.wrapping_mul(0xff51afd7ed558ccd),
        };
        rng.next(); // decorrelate neighbouring streams
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        mix64(self.state)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// SplitMix64 finalizer, bijective on `u64`.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Where keys come from: uniform, or a zipfian rank scrambled over the
/// key space so hot keys spread across shards.
#[derive(Debug, Clone)]
pub enum KeyDist {
    Uniform(u64),
    Zipf(Zipfian),
}

impl KeyDist {
    pub fn of(w: &Workload) -> KeyDist {
        match w.theta {
            Some(theta) => KeyDist::Zipf(Zipfian::new(w.keys, theta)),
            None => KeyDist::Uniform(w.keys),
        }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        match self {
            KeyDist::Uniform(n) => rng.below(*n),
            KeyDist::Zipf(z) => mix64(z.sample_rank(rng)) % z.n,
        }
    }
}

/// Rejection-free zipfian rank sampler (Gray et al., SIGMOD '94): rank
/// `k` in `[0, n)` with probability proportional to `(k + 1)^-theta`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    zetan: f64,
    alpha: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0, "zipf({n}, {theta})");
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipfian {
            n,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    fn sample_rank(&self, rng: &mut SplitMix64) -> u64 {
        let u = (rng.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// One generated KV call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get(u64),
    Put(u64),
    Delete(u64),
    Scan(u64),
    Batch { put: bool, keys: [u64; BATCH] },
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Get(_) => Kind::Get,
            Op::Put(_) | Op::Delete(_) => Kind::Write,
            Op::Scan(_) => Kind::Scan,
            Op::Batch { .. } => Kind::Batch,
        }
    }
}

/// A client's endless stream of fresh ops.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: SplitMix64,
    dist: KeyDist,
    mix: [u64; 4],
}

impl OpGen {
    pub fn new(dist: KeyDist, mix: [u64; 4], seed: u64, stream: u64) -> Self {
        assert_eq!(mix.iter().sum::<u64>(), 100, "mix must add up to 100%");
        OpGen {
            rng: SplitMix64::new(seed, stream),
            dist,
            mix,
        }
    }

    /// A stream of ops of one kind only (the traced single-client phases).
    pub fn only(dist: KeyDist, kind: Kind, seed: u64, stream: u64) -> Self {
        let mut mix = [0; 4];
        mix[kind as usize] = 100;
        OpGen::new(dist, mix, seed, stream)
    }

    fn write_key(&mut self) -> u64 {
        self.dist.sample(&mut self.rng) & !1
    }

    pub fn next_op(&mut self) -> Op {
        let mut r = self.rng.below(100);
        let mut kind = Kind::Get;
        for k in Kind::ALL {
            if r < self.mix[k as usize] {
                kind = k;
                break;
            }
            r -= self.mix[k as usize];
        }
        match kind {
            Kind::Get => Op::Get(self.dist.sample(&mut self.rng)),
            Kind::Scan => Op::Scan(self.dist.sample(&mut self.rng)),
            Kind::Write => {
                let key = self.write_key();
                if self.rng.below(2) == 0 {
                    Op::Put(key)
                } else {
                    Op::Delete(key)
                }
            }
            Kind::Batch => {
                let put = self.rng.below(2) == 0;
                let mut keys = [0; BATCH];
                for k in &mut keys {
                    *k = self.write_key();
                }
                Op::Batch { put, keys }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_write_keys_even() {
        let w = find("scan_batch_zipf").unwrap();
        let mut a = OpGen::new(KeyDist::of(w), w.mix, 7, 0);
        let mut b = OpGen::new(KeyDist::of(w), w.mix, 7, 0);
        let mut c = OpGen::new(KeyDist::of(w), w.mix, 8, 0);
        let mut by_kind = [0u64; 4];
        let mut differs = false;
        for _ in 0..20_000 {
            let op = a.next_op();
            assert_eq!(op, b.next_op());
            differs |= op != c.next_op();
            by_kind[op.kind() as usize] += 1;
            match op {
                Op::Put(k) | Op::Delete(k) => assert_eq!(k % 2, 0),
                Op::Batch { keys, .. } => assert!(keys.iter().all(|k| k % 2 == 0)),
                Op::Get(k) | Op::Scan(k) => assert!(k < w.keys),
            }
        }
        assert!(differs, "another seed must give other inputs");
        for k in Kind::ALL {
            let pct = by_kind[k as usize] as f64 / 200.0;
            assert!((pct - w.mix[k as usize] as f64).abs() < 1.5, "{by_kind:?}");
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = SplitMix64::new(1, 0);
        let hot = (0..10_000).filter(|_| z.sample_rank(&mut rng) == 0).count();
        // P(rank 0) = 1 / zeta(1000, 0.99), about 0.13.
        assert!((1_100..1_500).contains(&hot), "{hot}");
    }
}
