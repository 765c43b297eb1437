//! # lfrc-repro — Lock-Free Reference Counting (PODC 2001), reproduced
//!
//! This meta-crate re-exports the whole reproduction of Detlefs, Martin,
//! Moir & Steele, *Lock-Free Reference Counting*, PODC 2001, so examples
//! and downstream users can depend on one crate:
//!
//! * [`reclaim`] — epoch-based reclamation + leak arena (the simulated
//!   "GC environment" for the GC-dependent originals);
//! * [`dcas`] — the software DCAS/MCAS substrate (the paper assumes
//!   hardware DCAS; see DESIGN.md §2 for the substitution argument);
//! * [`core`] — **the paper's contribution**: the LFRC operations
//!   (Figure 2) plus a safe RAII layer;
//! * [`deque`] — the Snark deque (the paper's §4 example), in
//!   GC-dependent and LFRC forms, published and repaired pops;
//! * [`structures`] — Treiber stack and Michael–Scott queue, GC and LFRC
//!   forms (the paper's breadth claim);
//! * [`kv`] — the sharded key-value front end over LFRC skip lists
//!   (hash routing, batched pin-amortized writes, per-shard telemetry);
//! * [`baselines`] — Valois-style freelist RC and locked structures;
//! * [`harness`] — workload/measurement machinery for EXPERIMENTS.md;
//! * [`obs`] — sharded protocol counters, flight recorder, and
//!   snapshot exporters (no-ops unless the default `obs` feature is on);
//! * [`pool`] — the epoch-gated slab allocator with per-thread magazines
//!   that backs LFRC nodes (DESIGN.md §5.11; allocations fall back to
//!   the global allocator unless the default `pool` feature is on).
//!
//! See README.md for a guided tour and `examples/` for runnable entry
//! points (start with `cargo run --release --example quickstart`).

pub use lfrc_baselines as baselines;
pub use lfrc_core as core;
pub use lfrc_dcas as dcas;
pub use lfrc_deque as deque;
pub use lfrc_harness as harness;
pub use lfrc_kv as kv;
pub use lfrc_obs as obs;
pub use lfrc_pool as pool;
pub use lfrc_reclaim as reclaim;
pub use lfrc_structures as structures;
