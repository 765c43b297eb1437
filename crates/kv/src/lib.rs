//! # lfrc-kv — a sharded key-value front end over LFRC skip lists
//!
//! The paper (Detlefs, Martin, Moir, Steele, PODC 2001) positions LFRC
//! as a methodology for whole *services* built from lock-free parts;
//! Anderson, Blelloch & Wei (arXiv 2204.05985) evaluate exactly this
//! shape — reference-counted search structures under skewed key
//! traffic. This crate is that service layer for the reproduction: a
//! [`KvStore`] of N hash-routed shards, each shard one
//! [`LfrcSkipList`] set (so every shard inherits the full protocol —
//! DCAS swings, strategy-dispatched counted loads, census accounting).
//!
//! ## Semantics
//!
//! Keys are `u64` and the store is a *set-membership* KV (the same
//! shape the experiments drive on individual structures): [`KvStore::put`]
//! inserts a key, [`KvStore::get`] tests membership, [`KvStore::delete`]
//! removes, [`KvStore::scan`] returns up to `limit` live keys `>= start`
//! **from the shard that owns `start`** — under hashed routing a shard
//! holds an arbitrary slice of the key space, so a scan is a
//! shard-local range query (the unit real sharded stores serve without
//! cross-shard fan-out).
//!
//! ## Routing
//!
//! [`KvStore::shard_of`] applies a SplitMix64-style finalizer to the key
//! and reduces modulo the shard count, so adjacent hot keys scatter
//! across shards instead of pinning one shard's skip list. Shard count
//! is fixed at construction ([`KvConfig`], or `LFRC_KV_SHARDS` via
//! [`KvStore::from_env`]).
//!
//! ## Batched writes and pin amortization
//!
//! [`KvStore::write_batch`] applies a slice of [`KvWrite`]s inside **one**
//! [`defer::pinned`] scope. Pinning is reentrant, so each inner
//! insert/remove joins the batch's pin instead of opening its own: the
//! batch amortizes the pin, and only the pin (DESIGN.md §5.16). The
//! trade is grace-period latency: the epoch cannot advance past a pinned
//! thread, so batches should stay small (hundreds, not millions) —
//! exactly the contract a real write batch has with an epoch-based
//! reclaimer.
//!
//! ## Telemetry
//!
//! Every routed operation bumps a per-shard cell of the
//! `lfrc_kv_shard_ops` labeled counter family
//! ([`lfrc_obs::labels`]), so a live `/metrics` scrape shows the
//! routing skew directly (`lfrc_kv_shard_ops{shard="3"} …`). Families
//! are process-global: stores of different widths share cells, and the
//! family is a no-op when the `enabled` feature is off.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use lfrc_core::{defer, DcasWord, McasWord, Strategy};
use lfrc_structures::LfrcSkipList;

/// Upper bound on configurable shards (also the labeled-family cell
/// cap, [`lfrc_obs::labels::MAX_CELLS`]).
pub const MAX_SHARDS: usize = lfrc_obs::labels::MAX_CELLS;

/// Construction-time configuration for a [`KvStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvConfig {
    /// Number of hash-routed shards, `1..=MAX_SHARDS`.
    pub shards: usize,
    /// Counted-load protocol every shard is built with.
    pub strategy: Strategy,
}

impl Default for KvConfig {
    /// Four shards under the default strategy — the middle of the E17
    /// sweep and a sensible small-host default.
    fn default() -> Self {
        KvConfig {
            shards: 4,
            strategy: Strategy::default(),
        }
    }
}

impl KvConfig {
    /// Reads `LFRC_KV_SHARDS` (default 4) and `LFRC_STRATEGY` (via
    /// [`Strategy::from_env`]).
    ///
    /// # Panics
    ///
    /// On an unparsable or out-of-range shard count — a soak silently
    /// running with the wrong width would measure the wrong system.
    pub fn from_env() -> KvConfig {
        let shards = match std::env::var("LFRC_KV_SHARDS") {
            Ok(v) => v
                .parse::<usize>()
                .ok()
                .filter(|s| (1..=MAX_SHARDS).contains(s))
                .unwrap_or_else(|| {
                    panic!("LFRC_KV_SHARDS={v:?}: expected an integer in 1..={MAX_SHARDS}")
                }),
            Err(_) => KvConfig::default().shards,
        };
        KvConfig {
            shards,
            strategy: Strategy::from_env(),
        }
    }
}

/// One entry of a [`KvStore::write_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvWrite {
    /// Insert this key.
    Put(u64),
    /// Remove this key.
    Delete(u64),
}

/// A sharded key-value store: N hash-routed [`LfrcSkipList`] shards.
///
/// # Example
///
/// ```
/// use lfrc_kv::{Kv, KvConfig, KvWrite};
///
/// let kv = Kv::with_config(KvConfig { shards: 4, ..KvConfig::default() });
/// assert!(kv.put(17));
/// assert!(kv.get(17));
/// assert_eq!(kv.write_batch(&[KvWrite::Put(3), KvWrite::Delete(17)]), 2);
/// assert!(!kv.get(17) && kv.get(3));
/// ```
pub struct KvStore<W: DcasWord = McasWord> {
    shards: Vec<LfrcSkipList<W>>,
    strategy: Strategy,
    shard_ops: lfrc_obs::Family,
}

/// The store over the default DCAS word ([`McasWord`]).
pub type Kv = KvStore<McasWord>;

impl<W: DcasWord> fmt::Debug for KvStore<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KvStore")
            .field("shards", &self.shards.len())
            .field("strategy", &self.strategy)
            .finish()
    }
}

impl<W: DcasWord> Default for KvStore<W> {
    fn default() -> Self {
        Self::with_config(KvConfig::default())
    }
}

/// SplitMix64 finalizer: the router's key mix. Bijective on `u64`, so
/// distinct keys collide only through the modulo reduction.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl<W: DcasWord> KvStore<W> {
    /// A store of `shards` shards under the default [`Strategy`].
    pub fn new(shards: usize) -> Self {
        Self::with_config(KvConfig {
            shards,
            ..KvConfig::default()
        })
    }

    /// A store built from an explicit [`KvConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards` is 0 or exceeds [`MAX_SHARDS`].
    pub fn with_config(cfg: KvConfig) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&cfg.shards),
            "shard count {} out of 1..={MAX_SHARDS}",
            cfg.shards
        );
        KvStore {
            shards: (0..cfg.shards)
                .map(|_| LfrcSkipList::with_strategy(cfg.strategy))
                .collect(),
            strategy: cfg.strategy,
            shard_ops: lfrc_obs::labels::family(
                "kv_shard_ops",
                "KV operations routed to each shard (process-cumulative).",
                "shard",
                cfg.shards,
            ),
        }
    }

    /// A store configured from the environment ([`KvConfig::from_env`]:
    /// `LFRC_KV_SHARDS`, `LFRC_STRATEGY`).
    pub fn from_env() -> Self {
        Self::with_config(KvConfig::from_env())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The strategy every shard was built with.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Which shard owns `key`.
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        (mix64(key) % self.shards.len() as u64) as usize
    }

    /// Direct access to shard `idx` (census inspection, tests).
    pub fn shard(&self, idx: usize) -> &LfrcSkipList<W> {
        &self.shards[idx]
    }

    #[inline]
    fn route(&self, key: u64) -> &LfrcSkipList<W> {
        let idx = self.shard_of(key);
        self.shard_ops.incr(idx);
        &self.shards[idx]
    }

    /// Membership test (the shard's strategy-dispatched `contains`).
    #[inline]
    pub fn get(&self, key: u64) -> bool {
        self.route(key).contains(key)
    }

    /// Inserts `key`; `false` if it was already present.
    #[inline]
    pub fn put(&self, key: u64) -> bool {
        self.route(key).insert(key)
    }

    /// Removes `key`; `false` if it was absent.
    #[inline]
    pub fn delete(&self, key: u64) -> bool {
        self.route(key).remove(key)
    }

    /// Up to `limit` live keys `>= start` in key order, **from the
    /// shard that owns `start`** (see the module docs for why a scan is
    /// shard-local under hashed routing).
    pub fn scan(&self, start: u64, limit: usize) -> Vec<u64> {
        self.route(start).scan(start, limit)
    }

    /// Applies `writes` in order inside one [`defer::pinned`] scope,
    /// returning how many changed the store (puts of absent keys plus
    /// deletes of present keys).
    ///
    /// The single outer pin is the batch amortization: inner operations'
    /// pins nest for free, so the batch pays one pin instead of one per
    /// write. Keys may repeat; later writes see earlier ones.
    pub fn write_batch(&self, writes: &[KvWrite]) -> usize {
        defer::pinned(|_pin| {
            let mut applied = 0usize;
            for w in writes {
                let changed = match *w {
                    KvWrite::Put(k) => self.route(k).insert(k),
                    KvWrite::Delete(k) => self.route(k).remove(k),
                };
                if changed {
                    applied += 1;
                }
            }
            applied
        })
    }

    /// Total live keys across all shards (O(n); diagnostics). Each shard
    /// is counted by one level-0 walk that holds one pin for the whole
    /// shard, so reclamation waits for the walk.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// `true` when no live keys are present; each shard's walk stops at
    /// its first live key.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Every live key, sorted (O(n log n); tests and diagnostics — this
    /// walks each shard with an unbounded [`LfrcSkipList::scan`], which,
    /// like [`len`](Self::len), holds one pin for the whole shard).
    pub fn keys(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| s.scan(0, usize::MAX))
            .collect();
        all.sort_unstable();
        all
    }

    /// Per-shard routed-operation counts as rendered in `/metrics`
    /// (`lfrc_kv_shard_ops{shard="i"}`). All zeros when the obs feature
    /// is off. Process-cumulative, like every obs counter.
    pub fn shard_op_counts(&self) -> Vec<u64> {
        (0..self.shards.len())
            .map(|i| self.shard_ops.get(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::RwLock;

    /// The `kv_shard_ops` family is process-global, so a test that counts
    /// routed ops holds this for writing while every test that routes ops
    /// holds it for reading.
    static ROUTED: RwLock<()> = RwLock::new(());

    fn routing() -> std::sync::RwLockReadGuard<'static, ()> {
        ROUTED.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Seeded SplitMix64 stream (the workspace PRNG of record).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        mix64(*state)
    }

    fn drain(kv: KvStore<McasWord>) {
        let censuses: Vec<_> = (0..kv.shard_count())
            .map(|i| std::sync::Arc::clone(kv.shard(i).heap().census()))
            .collect();
        drop(kv);
        let t0 = std::time::Instant::now();
        while censuses.iter().any(|c| c.live() != 0)
            && t0.elapsed() < std::time::Duration::from_secs(10)
        {
            lfrc_core::defer::flush_thread();
            lfrc_dcas::quiesce();
            std::thread::yield_now();
        }
        for c in &censuses {
            assert_eq!(c.live(), 0, "shard census did not drain");
        }
    }

    #[test]
    fn matches_btreeset_model_across_widths() {
        let _routing = routing();
        for shards in [1usize, 3, 16] {
            for strategy in Strategy::ALL {
                let kv: KvStore<McasWord> = KvStore::with_config(KvConfig { shards, strategy });
                let mut model = BTreeSet::new();
                let mut st = 0x5eed_cafe ^ (shards as u64);
                for _ in 0..600 {
                    let k = splitmix(&mut st) % 200;
                    match splitmix(&mut st) % 3 {
                        0 => assert_eq!(kv.put(k), model.insert(k), "{strategy} put {k}"),
                        1 => assert_eq!(kv.delete(k), model.remove(&k), "{strategy} del {k}"),
                        _ => assert_eq!(kv.get(k), model.contains(&k), "{strategy} get {k}"),
                    }
                }
                assert_eq!(kv.len(), model.len());
                assert_eq!(kv.keys(), model.iter().copied().collect::<Vec<_>>());
                drain(kv);
            }
        }
    }

    #[test]
    fn router_is_deterministic_and_spreads() {
        let kv: Kv = KvStore::new(16);
        let mut histo = [0usize; 16];
        for k in 0..64_000u64 {
            let s = kv.shard_of(k);
            assert_eq!(s, kv.shard_of(k), "routing must be stable");
            histo[s] += 1;
        }
        let mean = 64_000 / 16;
        for (i, &n) in histo.iter().enumerate() {
            assert!(
                (mean * 7 / 10..=mean * 13 / 10).contains(&n),
                "shard {i} holds {n} of 64k keys (mean {mean})"
            );
        }
    }

    #[test]
    fn scan_is_shard_local_and_ordered() {
        let _routing = routing();
        let kv: Kv = KvStore::new(4);
        for k in 0..2_000u64 {
            kv.put(k);
        }
        let start = 100;
        let own = kv.shard_of(start);
        let got = kv.scan(start, 50);
        assert!(!got.is_empty() && got.len() <= 50);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "scan must be sorted");
        for k in &got {
            assert!(*k >= start);
            assert_eq!(kv.shard_of(*k), own, "scan leaked across shards");
        }
    }

    #[test]
    fn write_batch_applies_in_order() {
        let _routing = routing();
        let kv: Kv = KvStore::new(4);
        let applied = kv.write_batch(&[
            KvWrite::Put(1),
            KvWrite::Put(2),
            KvWrite::Put(1),    // duplicate: no-op
            KvWrite::Delete(1), // sees the earlier put
            KvWrite::Delete(9), // absent: no-op
        ]);
        assert_eq!(applied, 3);
        assert!(!kv.get(1) && kv.get(2));
        assert_eq!(kv.write_batch(&[]), 0);
    }

    #[test]
    fn batched_writes_under_every_strategy_drain() {
        let _routing = routing();
        for strategy in Strategy::ALL {
            let kv: KvStore<McasWord> = KvStore::with_config(KvConfig {
                shards: 4,
                strategy,
            });
            let batch: Vec<KvWrite> = (0..256u64).map(KvWrite::Put).collect();
            assert_eq!(kv.write_batch(&batch), 256);
            assert_eq!(kv.len(), 256);
            let unbatch: Vec<KvWrite> = (0..256u64).map(KvWrite::Delete).collect();
            assert_eq!(kv.write_batch(&unbatch), 256);
            assert!(kv.is_empty());
            drain(kv);
        }
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let _routing = routing();
        let kv: Kv = KvStore::new(8);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let kv = &kv;
                s.spawn(move || {
                    let base = t * 1_000;
                    let batch: Vec<KvWrite> = (base..base + 500).map(KvWrite::Put).collect();
                    assert_eq!(kv.write_batch(&batch), 500);
                    for k in (base..base + 500).step_by(2) {
                        assert!(kv.delete(k));
                    }
                    lfrc_core::defer::flush_thread();
                });
            }
        });
        assert_eq!(kv.len(), 4 * 250);
        drain(kv);
    }

    #[test]
    fn shard_op_counts_tally_routed_ops() {
        let _counting = ROUTED.write().unwrap_or_else(|e| e.into_inner());
        let kv: Kv = KvStore::new(2);
        let before: u64 = kv.shard_op_counts().iter().sum();
        for k in 0..100u64 {
            kv.put(k);
            kv.get(k);
        }
        let after: u64 = kv.shard_op_counts().iter().sum();
        if lfrc_obs::enabled() {
            assert_eq!(after - before, 200);
        } else {
            assert_eq!(after, 0);
        }
    }

    #[test]
    fn env_config_round_trips() {
        // One test owns both variables: parallel tests in this binary
        // must not read them.
        std::env::set_var("LFRC_KV_SHARDS", "9");
        for strategy in Strategy::ALL {
            std::env::set_var("LFRC_STRATEGY", strategy.name());
            let cfg = KvConfig::from_env();
            assert_eq!(cfg.shards, 9);
            assert_eq!(cfg.strategy, strategy);
        }
        std::env::remove_var("LFRC_KV_SHARDS");
        std::env::remove_var("LFRC_STRATEGY");
        let cfg = KvConfig::from_env();
        assert_eq!(cfg.shards, KvConfig::default().shards);
    }

    #[test]
    #[should_panic(expected = "out of 1..=")]
    fn zero_shards_rejected() {
        let _: Kv = KvStore::new(0);
    }
}
