//! Integration tests for the observability layer: counter aggregation
//! across thread exit, census/counter agreement, and the per-phase
//! exporter driven through the recorded runner.
//!
//! The obs registry is process-global, so these tests serialize on a
//! mutex and measure *deltas* between snapshots rather than absolute
//! totals. Everything here also passes with `--no-default-features`
//! (counters read zero and the delta assertions become `0 == 0`,
//! except where explicitly gated on `obs::enabled()`).

use std::sync::Mutex;

use lfrc_repro::core::{DcasWord, Heap, Links, McasWord, PtrField, SharedField, Strategy};
use lfrc_repro::dcas::mcas::test_support;
use lfrc_repro::dcas::{McasOp, MAX_ENTRIES};
use lfrc_repro::harness::{run_ops_recorded, PhaseRecorder, SplitMix64};
use lfrc_repro::kv::{KvConfig, KvStore};
use lfrc_repro::obs::hist::{self, Hist, HistSnapshot, Histogram};
use lfrc_repro::obs::{self, serve_metrics, Counter, Snapshot};
use lfrc_sched::{Body, Policy, Schedule};

/// Serializes tests that read the global counter registry.
static SERIAL: Mutex<()> = Mutex::new(());

struct Leaf {
    #[allow(dead_code)]
    id: u64,
}

impl<W: DcasWord> Links<W> for Leaf {
    fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Self, W>)) {}
}

#[test]
fn counters_aggregate_across_thread_exit() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const THREADS: u64 = 4;
    const OPS: u64 = 2_000;

    let heap: Heap<Leaf, McasWord> = Heap::new();
    let root: SharedField<Leaf, McasWord> = SharedField::null();
    root.store_consume(heap.alloc(Leaf { id: 0 }));

    let before = Snapshot::take();
    let census_allocs_before = heap.census().allocs();
    let census_frees_before = heap.census().frees();

    // Each worker churns the shared root, then *exits* — the registry
    // must keep its shard counts after the thread is gone (shards are
    // vacated for reuse, never dropped).
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (root, heap) = (&root, &heap);
            s.spawn(move || {
                for i in 0..OPS {
                    let cur = root.load();
                    let fresh = heap.alloc(Leaf { id: t * OPS + i });
                    root.store(Some(&fresh));
                    drop(fresh);
                    drop(cur);
                }
                lfrc_repro::core::flush_thread();
            });
        }
    });
    root.store(None);
    lfrc_repro::core::flush_thread();

    let delta = Snapshot::take().diff(&before);
    let census_allocs = heap.census().allocs() - census_allocs_before;
    let census_frees = heap.census().frees() - census_frees_before;
    assert_eq!(census_allocs, THREADS * OPS);

    if obs::enabled() {
        // The registry's census mirror must agree exactly with the
        // census itself — both sides count the same alloc/free events,
        // one through per-thread shards that survived the workers'
        // exits, one through the census atomics.
        assert_eq!(delta.get(Counter::CensusAlloc), census_allocs);
        assert_eq!(delta.get(Counter::CensusFree), census_frees);
        // Each op performs one counted load attempt at minimum.
        assert!(delta.get(Counter::LoadDcasAttempt) >= THREADS * OPS);
        // Every alloc starts at rc 1 and everything is dead by now, so
        // decrements must cover at least one per allocation.
        assert!(delta.get(Counter::RcDecrement) >= census_allocs);
    } else {
        assert_eq!(delta.get(Counter::CensusAlloc), 0);
        assert_eq!(delta.get(Counter::LoadDcasAttempt), 0);
    }
}

#[test]
fn recorded_runner_exports_phase_snapshots() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let heap: Heap<Leaf, McasWord> = Heap::new();
    let root: SharedField<Leaf, McasWord> = SharedField::null();
    root.store_consume(heap.alloc(Leaf { id: 0 }));

    let mut rec = PhaseRecorder::new("obs_integration");
    let stats = run_ops_recorded(&mut rec, "swing", 2, 500, |_, _| {
        let fresh = heap.alloc(Leaf { id: 1 });
        root.store(Some(&fresh));
    });
    root.store(None);
    assert_eq!(stats.ops, 1_000);

    let phases = rec.phases();
    assert_eq!(phases.len(), 1);
    assert_eq!(phases[0].label, "swing");
    assert_eq!(phases[0].ops, Some(1_000));
    if obs::enabled() {
        assert!(
            phases[0].delta.get(Counter::CensusAlloc) >= 1_000,
            "phase delta missed the allocations made inside the phase"
        );
    }

    // The JSON document must round-trip the phase and stay well-formed.
    let json = rec.to_json();
    assert!(json.contains("\"experiment\":\"obs_integration\""));
    assert!(json.contains("\"label\":\"swing\""));
    assert!(json.contains("\"census_allocs\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn pool_counters_flow_into_exports() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    if !obs::enabled() {
        return;
    }
    let before = Snapshot::take();
    // Churn enough pooled nodes to guarantee magazine traffic: the first
    // allocation of a class is a miss, frees then stock the magazine and
    // subsequent allocations hit it.
    let heap: Heap<Leaf, McasWord> = Heap::new();
    for i in 0..256 {
        drop(heap.alloc(Leaf { id: i }));
    }
    lfrc_repro::core::flush_thread();
    lfrc_repro::dcas::quiesce();

    let delta = Snapshot::take().diff(&before);
    assert!(
        delta.get(Counter::PoolMagazineHit) > 0,
        "pooled churn produced no magazine hits"
    );

    // Both export formats must carry the pool metrics with the values
    // the registry holds — names and numbers, not just names.
    let hits = delta.get(Counter::PoolMagazineHit);
    let prom = delta.to_prometheus();
    assert!(
        prom.contains(&format!("lfrc_pool_magazine_hits {hits}")),
        "prometheus export lost the pool hit count: {prom}"
    );
    let json = delta.to_json();
    assert!(
        json.contains(&format!("\"pool_magazine_hits\":{hits}")),
        "json export lost the pool hit count: {json}"
    );
    for name in ["pool_remote_frees", "pool_slab_allocs", "pool_slab_retires"] {
        assert!(prom.contains(name) && json.contains(name), "missing {name}");
    }
}

/// The MCAS protocol counters — helping and descriptor lifetime — must
/// flow *values* into both export formats, not just names (the
/// completeness test below only proves the names exist). The desc
/// counters are driven deterministically (reuse plus a stale-word
/// abandon); the helping counters need real contention, so schedules
/// are explored until a parked operation forces another thread to help.
#[test]
fn mcas_help_and_desc_counters_flow_into_exports() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    if !obs::enabled() {
        return;
    }
    let before = Snapshot::take();

    // Deterministic: immortal slot reuse, then a helper holding a word
    // across the reuse, which must abandon (seq invalid + abandoned).
    let a = McasWord::new(0);
    let b = McasWord::new(0);
    for i in 0..8 {
        assert!(McasWord::dcas(&a, &b, i, i, i + 1, i + 1));
    }
    let stale = test_support::thread_mcas_word();
    assert!(McasWord::dcas(&a, &b, 8, 8, 9, 9));
    assert!(!test_support::validated_help(stale));

    // Contended: two MCAS racers over the same cells plus a reader;
    // a schedule that parks one racer inside its installed operation
    // makes the others resolve and help it.
    let mut helped = false;
    for seed in 0..100u64 {
        let a = McasWord::new(0);
        let b = McasWord::new(0);
        {
            let (a, b) = (&a, &b);
            let mut bodies: Vec<Body<'_>> = (0..2)
                .map(|_| {
                    let body: Body<'_> = Box::new(move || {
                        for _ in 0..3 {
                            let (va, vb) = (a.load(), b.load());
                            let _ = McasWord::dcas(a, b, va, vb, va + 1, vb + 1);
                        }
                    });
                    body
                })
                .collect();
            bodies.push(Box::new(move || {
                for _ in 0..6 {
                    std::hint::black_box(a.load());
                }
            }));
            Schedule::new().run(&Policy::Random(seed), bodies);
        }
        let d = Snapshot::take().diff(&before);
        if d.get(Counter::McasHelp) > 0
            && d.get(Counter::RdcssHelp) > 0
            && d.get(Counter::McasDescResolve) > 0
        {
            helped = true;
            break;
        }
    }
    assert!(helped, "no explored schedule produced MCAS helping");

    let delta = Snapshot::take().diff(&before);
    let prom = delta.to_prometheus();
    let json = delta.to_json();
    for (c, min) in [
        (Counter::McasHelp, 1),
        (Counter::RdcssHelp, 1),
        (Counter::McasDescResolve, 1),
        (Counter::DescImmortalReuse, 8),
        (Counter::DescSeqInvalid, 1),
        (Counter::DescHelpAbandoned, 1),
    ] {
        let v = delta.get(c);
        assert!(v >= min, "{} only reached {v} (need ≥ {min})", c.name());
        assert!(
            prom.contains(&format!("lfrc_{} {v}", c.name())),
            "prometheus export lost the {} value {v}: {prom}",
            c.name()
        );
        assert!(
            json.contains(&format!("\"{}\":{v}", c.name())),
            "json export lost the {} value {v}: {json}",
            c.name()
        );
    }
}

/// The immortal descriptors' acceptance criterion, counter edition:
/// after warmup, a window of MCAS attempts performs zero epoch
/// deferrals and zero slab-pool consultations — each attempt reuses the
/// thread's slots in place — both for DCAS and at the widest supported
/// arity ([`MAX_ENTRIES`] cells). (`--features inject` proves the
/// no-global-allocator half from the other side: refusing every alloc
/// site records zero refusals — see `fault.rs`.)
#[test]
fn immortal_mcas_attempts_allocate_and_defer_nothing() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a = McasWord::new(0);
    let b = McasWord::new(0);
    let cells: [McasWord; MAX_ENTRIES] = std::array::from_fn(|_| McasWord::new(0));
    let wide = |i: u64| -> [McasOp<'_, McasWord>; MAX_ENTRIES] {
        std::array::from_fn(|k| McasOp {
            cell: &cells[k],
            old: i,
            new: i + 1,
        })
    };
    // Warmup: materialize this thread's slots and drain earlier garbage
    // so the measured windows are the steady state.
    assert!(McasWord::dcas(&a, &b, 0, 0, 1, 1));
    assert!(McasWord::mcas(&wide(0)));
    lfrc_repro::core::flush_thread();
    lfrc_repro::dcas::quiesce();

    const N: u64 = 64;
    let windows: [(&str, &dyn Fn(u64) -> bool); 2] = [
        ("dcas", &|i| {
            McasWord::dcas(&a, &b, i + 1, i + 1, i + 2, i + 2)
        }),
        ("mcas-4", &|i| McasWord::mcas(&wide(i + 1))),
    ];
    for (what, attempt) in windows {
        let before = Snapshot::take();
        for i in 0..N {
            assert!(attempt(i), "{what}: attempt {i} failed uncontended");
        }
        let delta = Snapshot::take().diff(&before);
        if obs::enabled() {
            assert!(
                delta.get(Counter::DescImmortalReuse) >= N,
                "{what}: the window was not running on reused immortal slots"
            );
            assert_eq!(
                delta.get(Counter::EpochRetired),
                0,
                "{what}: an MCAS attempt deferred a descriptor to the epoch machinery"
            );
            assert_eq!(
                delta.get(Counter::PoolMagazineHit) + delta.get(Counter::PoolMagazineMiss),
                0,
                "{what}: an MCAS attempt consulted the slab pool"
            );
        }
    }
}

#[test]
fn prometheus_export_carries_all_counters() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let text = Snapshot::take().to_prometheus();
    for c in Counter::ALL {
        assert!(
            text.contains(&format!("lfrc_{}", c.name())),
            "missing metric lfrc_{}",
            c.name()
        );
    }
}

/// The skip-list writer fast path, pinned by counters: sequential puts
/// then deletes on a 4-shard store. On the `DeferredDec` fast path a writer
/// makes one uncounted descent and counts only what it links through —
/// a pred and a succ per linked level — so it makes no `LFRCLoad` DCAS
/// at all and about `2 × tower height` promotes per op (mean height 2 at
/// p = 1/2). Readers share the descent's hops: on the populated store,
/// `scan` and `len` make no `LFRCLoad` DCAS either. `Dcas`, the
/// executable spec, keeps its counted hops for every op.
#[test]
fn kv_writers_skip_counted_loads_on_fast_strategies() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    if !obs::enabled() {
        return;
    }
    const KEYS: u64 = 2_000;
    const MEAN_HEIGHT: f64 = 2.0;
    for strategy in Strategy::ALL {
        let kv: KvStore<McasWord> = KvStore::with_config(KvConfig {
            shards: 4,
            strategy,
        });
        let before = Snapshot::take();
        for k in 0..KEYS {
            assert!(kv.put(k), "{strategy}: put {k}");
        }
        let populated = Snapshot::take();
        assert_eq!(kv.len(), KEYS as usize, "{strategy}");
        assert_eq!(kv.scan(0, 32).len(), 32, "{strategy}");
        let read = Snapshot::take();
        for k in 0..KEYS {
            assert!(kv.delete(k), "{strategy}: delete {k}");
        }
        let after = Snapshot::take();
        let (puts, reads, deletes) = (
            populated.diff(&before),
            read.diff(&populated),
            after.diff(&read),
        );
        let read_loads = reads.get(Counter::LoadDcasAttempt);
        let loads = puts.get(Counter::LoadDcasAttempt) + deletes.get(Counter::LoadDcasAttempt);
        let promotes = puts.get(Counter::PromoteSuccess) + deletes.get(Counter::PromoteSuccess);
        let promotes_per_op = promotes as f64 / (2 * KEYS) as f64;
        if strategy == Strategy::Dcas {
            assert!(loads > 0, "dcas: the spec's counted hops are gone");
            assert!(
                read_loads > 0,
                "dcas: the spec's scan and len stopped counting"
            );
        } else {
            assert_eq!(loads, 0, "{strategy}: a writer made counted LFRCLoad hops");
            assert_eq!(
                read_loads, 0,
                "{strategy}: scan or len made counted LFRCLoad hops"
            );
            assert!(
                promotes_per_op <= 2.0 * MEAN_HEIGHT + 1.0,
                "{strategy}: {promotes_per_op:.2} promotes per op — a writer counts more than its links"
            );
        }
        assert!(kv.is_empty());
        lfrc_repro::core::flush_thread();
    }
}

// ---------------------------------------------------------------------------
// Log-linear latency histograms (lfrc_obs::hist)
// ---------------------------------------------------------------------------

/// Property test against the advertised bound: on a seeded log-uniform
/// sample (the shape op/grace latencies actually take, ns to tens of
/// ms), every standard quantile of the log-linear histogram lands
/// within 6.25 % of the exact sorted-sample answer. Runs in all builds
/// — the standalone [`Histogram`] is deliberately not feature-gated.
#[test]
fn histogram_quantile_error_is_bounded_on_known_distribution() {
    let h = Histogram::new();
    let mut rng = SplitMix64::new(0xE16_7E1E);
    let mut exact: Vec<u64> = (0..50_000)
        .map(|_| {
            let major = 4 + rng.next() % 21; // log-uniform over [2^4, 2^25)
            (1u64 << major) + rng.next() % (1u64 << major)
        })
        .collect();
    for &v in &exact {
        h.record(v);
    }
    exact.sort_unstable();
    let snap = h.snapshot();
    assert_eq!(snap.count(), exact.len() as u64);
    let mut prev = 0u64;
    for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
        let approx = snap.quantile_ns(q);
        assert!(approx >= prev, "quantiles must be monotone in q");
        prev = approx;
        let rank = ((exact.len() as f64 * q).ceil() as usize).clamp(1, exact.len()) - 1;
        let truth = exact[rank] as f64;
        let rel = (approx as f64 - truth).abs() / truth;
        assert!(
            rel <= 0.0625 + 0.01,
            "q={q}: approx {approx} vs exact {truth} (rel err {rel:.4})"
        );
    }
    assert_eq!(snap.quantile_ns(1.0), snap.max_ns());
}

/// Merging per-thread snapshots must equal one histogram fed the
/// concatenation of every thread's samples, and diff must invert merge.
#[test]
fn histogram_merge_equals_concat_across_threads() {
    let combined = Histogram::new();
    let mut parts: Vec<HistSnapshot> = Vec::new();
    for t in 0..4u64 {
        let part = Histogram::new();
        let mut rng = SplitMix64::new(0xACC ^ t);
        for _ in 0..10_000 {
            let v = rng.next() % 1_000_000;
            part.record(v);
            combined.record(v);
        }
        parts.push(part.snapshot());
    }
    let merged = parts
        .iter()
        .fold(HistSnapshot::empty(), |acc, p| acc.merge(p));
    assert_eq!(merged, combined.snapshot());
    // diff undoes merge: subtracting all but one part leaves that part
    // (up to `max`, which diff deliberately keeps from the minuend).
    let mut rest = merged.clone();
    for p in &parts[1..] {
        rest = rest.diff(p);
    }
    assert_eq!(rest.count(), parts[0].count());
    assert_eq!(rest.sum_ns(), parts[0].sum_ns());
}

/// The registry histograms must behave exactly like the counters at
/// thread exit: samples recorded by workers that are gone still appear
/// in the next snapshot, through the same claim/vacate shard registry.
#[test]
fn registry_histograms_survive_thread_exit() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    if !obs::enabled() {
        assert_eq!(HistSnapshot::take(Hist::OpLatencyNs).count(), 0);
        return;
    }
    const THREADS: u64 = 4;
    const SAMPLES: u64 = 5_000;
    let before = HistSnapshot::take(Hist::OpLatencyNs);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                let mut rng = SplitMix64::new(0x7EAD ^ t);
                for _ in 0..SAMPLES {
                    hist::record(Hist::OpLatencyNs, rng.next() % 100_000);
                }
                // Worker exits here; its shard is vacated, not dropped.
            });
        }
    });
    let delta = HistSnapshot::take(Hist::OpLatencyNs).diff(&before);
    assert_eq!(
        delta.count(),
        THREADS * SAMPLES,
        "histogram samples were lost at thread exit"
    );
    assert!(delta.quantile_ns(0.5) <= delta.quantile_ns(0.99));
}

/// Grace-period latency (retire → free) must flow from the reclaim
/// crate into the registry histogram: after churn that forces epoch
/// collection, the `grace_latency_ns` histogram has grown.
#[test]
fn grace_latency_flows_from_reclaim_into_registry() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    if !obs::enabled() {
        return;
    }
    let before = HistSnapshot::take(Hist::GraceLatencyNs);
    let heap: Heap<Leaf, McasWord> = Heap::new();
    let root: SharedField<Leaf, McasWord> = SharedField::null();
    for i in 0..2_000 {
        let fresh = heap.alloc(Leaf { id: i });
        root.store(Some(&fresh));
    }
    root.store(None);
    lfrc_repro::core::flush_thread();
    lfrc_repro::dcas::quiesce();
    let delta = HistSnapshot::take(Hist::GraceLatencyNs).diff(&before);
    assert!(
        delta.count() > 0,
        "epoch collection freed garbage without recording grace latency"
    );
    assert!(delta.max_ns() > 0, "grace latencies cannot all be zero ns");
}

// ---------------------------------------------------------------------------
// Live endpoint + timeline sampler
// ---------------------------------------------------------------------------

/// Blocking HTTP GET against the in-process endpoint with a raw
/// `TcpStream` — the tests exercise the server the way `curl` would.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect(addr).expect("connect to metrics server");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).expect("read response");
    response
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .expect("response has a head/body split")
        .1
}

/// Extracts `<series> <value>` sample lines for one histogram family,
/// asserting the cumulative-bucket invariants Prometheus relies on:
/// bucket counts nondecreasing in `le`, `+Inf` equal to `_count`.
fn assert_cumulative_histogram(text: &str, family: &str) -> u64 {
    let mut prev = 0u64;
    let mut inf = None;
    let mut count = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(&format!("{family}_bucket{{le=\"")) {
            let (le, val) = rest.split_once("\"} ").expect("bucket sample shape");
            let val: u64 = val.parse().expect("bucket count");
            assert!(val >= prev, "{family}: cumulative count fell at le={le}");
            prev = val;
            if le == "+Inf" {
                inf = Some(val);
            }
        } else if let Some(val) = line.strip_prefix(&format!("{family}_count ")) {
            count = Some(val.parse::<u64>().expect("count sample"));
        }
    }
    let (inf, count) = (
        inf.unwrap_or_else(|| panic!("{family}: no +Inf bucket")),
        count.unwrap_or_else(|| panic!("{family}: no _count")),
    );
    assert_eq!(inf, count, "{family}: +Inf bucket must equal _count");
    count
}

/// The tentpole end-to-end: scrape `/metrics` from a raw socket *while*
/// a multi-threaded recorded run is in flight, then again after it
/// quiesces, and check the live series are present, grammatical in the
/// cumulative-bucket sense, and agree with the post-run snapshot.
#[test]
fn live_metrics_scrape_during_run_and_post_run_agreement() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    if !obs::enabled() {
        let server = serve_metrics("127.0.0.1:0").expect("inert bind");
        assert_eq!(server.local_addr(), None, "disabled server must be inert");
        return;
    }
    let server = serve_metrics("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr().expect("enabled server has an address");

    let heap: Heap<Leaf, McasWord> = Heap::new();
    let root: SharedField<Leaf, McasWord> = SharedField::null();
    root.store_consume(heap.alloc(Leaf { id: 0 }));

    let mut rec = PhaseRecorder::new("live_scrape_test");
    let mid_run_scrape = std::sync::Mutex::new(String::new());
    std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            // Land mid-run: the workers below churn for long enough that
            // a scrape issued immediately is concurrent with them.
            http_get(addr, "/metrics")
        });
        run_ops_recorded(&mut rec, "churn", 4, 20_000, |_, _| {
            let cur = root.load();
            let fresh = heap.alloc(Leaf { id: 1 });
            root.store(Some(&fresh));
            drop(fresh);
            drop(cur);
        });
        *mid_run_scrape.lock().unwrap() = scraper.join().expect("scraper thread");
    });
    root.store(None);
    lfrc_repro::core::flush_thread();

    let mid = mid_run_scrape.into_inner().unwrap();
    assert!(mid.starts_with("HTTP/1.1 200 OK\r\n"), "bad status: {mid}");
    let mid_body = body_of(&mid);
    assert!(mid_body.contains("# TYPE lfrc_op_latency_ns histogram"));
    assert!(mid_body.contains("# TYPE lfrc_grace_latency_ns histogram"));
    assert!(mid_body.contains("lfrc_census_allocs "));
    assert_cumulative_histogram(mid_body, "lfrc_op_latency_ns");

    // Post-run: the scrape must agree exactly with the in-process
    // snapshot (nothing is recording anymore).
    let post_body_owned = http_get(addr, "/metrics");
    let post = body_of(&post_body_owned);
    let scraped_ops = assert_cumulative_histogram(post, "lfrc_op_latency_ns");
    assert_eq!(scraped_ops, HistSnapshot::take(Hist::OpLatencyNs).count());
    let snap = Snapshot::take();
    assert!(post.contains(&format!(
        "lfrc_census_allocs {}\n",
        snap.get(Counter::CensusAlloc)
    )));

    // The recorded phase carried its histogram delta: 80k churn ops were
    // timed into op_latency_ns by the recorded runner.
    let phase_hists = &rec.phases()[0].hists;
    let op_delta = &phase_hists
        .iter()
        .find(|(h, _)| *h == Hist::OpLatencyNs)
        .expect("phase carries op latency")
        .1;
    assert!(
        op_delta.count() >= 80_000,
        "recorded runner timed {} ops, expected the full 80k churn",
        op_delta.count()
    );
    server.stop();
}

/// The timeline sampler end-to-end through the harness: a recorder with
/// `start_timeline` produces a JSONL file whose rows parse, are
/// tick-numbered, and whose count matches the run duration to within
/// one tick (plus the final flush row).
#[test]
fn timeline_sampler_writes_parseable_jsonl_rows() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("lfrc-e16-timeline-{}", std::process::id()));
    std::env::set_var("LFRC_OBS_DIR", &dir);
    let interval = std::time::Duration::from_millis(40);
    let run = std::time::Duration::from_millis(220);

    let mut rec = PhaseRecorder::new("timeline_test");
    rec.start_timeline(interval).expect("start sampler");
    let begin = std::time::Instant::now();
    while begin.elapsed() < run {
        hist::record(Hist::OpLatencyNs, 1_000);
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let path = rec.finish().expect("finish recorder");
    std::env::remove_var("LFRC_OBS_DIR");

    if !obs::enabled() {
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    assert!(path.ends_with("timeline_test.json"));
    let timeline = dir.join("timeline_test.timeline.jsonl");
    let body = std::fs::read_to_string(&timeline).expect("timeline file written");
    let rows: Vec<&str> = body.lines().collect();
    // Duration-derived tick count, within one tick either way, plus the
    // final flush row `finish` forces.
    let expected = run.as_millis() as u64 / interval.as_millis() as u64;
    assert!(
        (rows.len() as u64) >= expected.saturating_sub(1) && (rows.len() as u64) <= expected + 2,
        "expected ~{expected} rows for a {run:?} run at {interval:?}, got {}",
        rows.len()
    );
    for (i, row) in rows.iter().enumerate() {
        assert!(
            row.starts_with('{') && row.ends_with('}'),
            "row {i} not an object"
        );
        assert_eq!(row.matches('{').count(), row.matches('}').count());
        assert_eq!(row.matches('"').count() % 2, 0);
        assert!(
            row.starts_with(&format!("{{\"tick\":{i},")),
            "row {i} mis-numbered"
        );
        for key in [
            "\"counters\":{",
            "\"rates\":{",
            "\"gauges\":{",
            "\"hists\":{",
        ] {
            assert!(row.contains(key), "row {i} missing {key}");
        }
        assert!(row.contains("\"op_latency_ns\""));
    }
    assert!(
        rows.last().unwrap().contains("\"final\":true"),
        "last row must be the stop flush"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
