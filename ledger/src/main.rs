//! `ledger`: the repository's benchmark. It drives an `lfrc_kv` store
//! built from `KvConfig::default()` with two client threads, checks every
//! result, and prices the KV path end to end (an untraced run) or layer by
//! layer (a traced run). README.md has the workloads, the metrics and the
//! layer-to-end-to-end map.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload get_zipf --seed 1 --seconds 10 --trace 0
//! ```

mod check;
mod driver;
mod host;
mod layers;
mod report;
mod stats;
mod workload;

use std::hint::black_box;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lfrc_core::Census;
use lfrc_kv::{Kv, KvConfig, KvWrite};
use lfrc_obs::Counter;

use check::Tally;
use driver::{closed_loop, open_loop, Client, ClosedLoop, Span, Window, CLIENTS};
use host::Reference;
use layers::{calibrate, calibrate_structures, calibrate_units, explained_ns, single_client};
use report::{detail_line, result_line, Metrics, END_TO_END, PER_LAYER};
use stats::{median, quantile, Quartiles};
use workload::{KeyDist, Kind, OpGen, Workload, WORKLOADS};

const USAGE: &str = "usage: ledger [--workload NAME|all] [--seed N] [--seconds N] \
                     [--trace [0|1]] [--smoke]";

/// Key space cap for `--smoke`.
const SMOKE_KEYS: u64 = 100_000;
/// Ops per single-client phase of the traced run, by [`Kind`] (a batch is
/// 16 writes).
const PHASE_OPS: [u64; 4] = [20_000, 20_000, 20_000, 2_000];
/// Closed-loop windows per run; throughput and latency are medians over
/// them.
const WINDOWS: usize = 10;

#[derive(Debug, Clone)]
struct Config {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut cfg = Config {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut args = std::iter::from_fn(move || args.next()).peekable();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => cfg.workload = value()?,
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cfg.trace = true;
                if let Some(v) = args.next_if(|v| v == "0" || v == "1") {
                    cfg.trace = v == "1";
                }
            }
            "--smoke" => {
                cfg.smoke = true;
                cfg.seconds = 5.0;
            }
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    if cfg.workload != "all" && workload::find(&cfg.workload).is_none() {
        return Err(format!("unknown workload {:?}", cfg.workload));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg.workload == "all" {
        return run_all(&cfg);
    }
    let w = workload::find(&cfg.workload).expect("checked by parse_args");
    let out = run(w, &cfg);
    let mut ok = out.tally.failed == 0;
    if cfg.trace {
        if let Err(e) = write_spans(w.name, cfg.seed, &out.spans) {
            eprintln!("ledger: writing spans: {e}");
            ok = false;
        }
    }
    println!("{}", out.detail);
    println!("{}", out.result);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a fresh process so that one's set-up and
/// memory do not carry into the next.
fn run_all(cfg: &Config) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &cfg.seed.to_string()]);
        cmd.args(["--seconds", &cfg.seconds.to_string()]);
        cmd.args(["--trace", if cfg.trace { "1" } else { "0" }]);
        if cfg.smoke {
            cmd.arg("--smoke");
        }
        match cmd.status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("ledger: {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one run printed and checked.
struct Outcome {
    detail: String,
    result: String,
    tally: Tally,
    spans: Vec<Span>,
}

/// A store with every even key of `0..keys`, loaded in batches of 512, and
/// the seconds that making it and loading the batches took. `after_batch`
/// runs after each batch, outside that time.
fn prepopulated(keys: u64, mut after_batch: impl FnMut()) -> (Kv, f64) {
    let start = Instant::now();
    let kv = Kv::with_config(KvConfig::default());
    let mut busy = start.elapsed();
    let mut load = |batch: &mut Vec<KvWrite>| {
        let start = Instant::now();
        kv.write_batch(batch);
        busy += start.elapsed();
        batch.clear();
        after_batch();
    };
    let mut batch = Vec::with_capacity(512);
    for k in (0..keys).step_by(2) {
        batch.push(KvWrite::Put(k));
        if batch.len() == 512 {
            load(&mut batch);
        }
    }
    if !batch.is_empty() {
        load(&mut batch);
    }
    (kv, busy.as_secs_f64())
}

fn shard_censuses(kv: &Kv) -> Vec<Arc<Census>> {
    (0..kv.shard_count())
        .map(|i| Arc::clone(kv.shard(i).heap().census()))
        .collect()
}

/// Drops `kv` and waits up to 10 s for every census to drain to zero.
fn teardown(kv: Kv, censuses: &[Arc<Census>]) -> bool {
    drop(kv);
    let start = Instant::now();
    loop {
        lfrc_core::settle_thread();
        lfrc_core::defer::flush_thread();
        lfrc_dcas::quiesce();
        if censuses.iter().all(|c| c.live() == 0) {
            return true;
        }
        if start.elapsed() > Duration::from_secs(10) {
            return false;
        }
        std::thread::yield_now();
    }
}

/// Hands freed heap pages back to the OS. Once large blocks have been
/// freed, glibc raises its trim threshold and keeps freed heap resident:
/// without this, the heap held more the longer a run went, and some runs
/// read 0.9 MiB above the rest. Resident memory should count what is live.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers; it only returns
        // free pages of the allocator's own arenas to the OS.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resident anonymous memory (`RssAnon`) in MiB: the heap, the pool's
/// slabs and the stacks. File-backed pages (the binary and its libraries)
/// are left out: how many of those are mapped depends on the page cache,
/// and it moved `VmRSS` by a few hundred KiB between identical runs.
fn rss_anon_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("RssAnon:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("an RssAnon line in /proc/self/status");
    kib as f64 / 1024.0
}

fn sorted(parts: impl Iterator<Item = Vec<u32>>) -> Vec<u32> {
    let mut all: Vec<u32> = parts.flatten().collect();
    all.sort_unstable();
    all
}

fn us(ns: u32) -> f64 {
    ns as f64 / 1e3
}

/// Median over the non-empty sample sets (a traced window keeps none) of
/// each set's `q` quantile, in µs.
fn us_median_of(sets: &[Vec<u32>], q: f64) -> f64 {
    let per_set: Vec<f64> = sets
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| us(quantile(s, q)))
        .collect();
    median(&per_set)
}

/// Closed-loop service time of `kind`, one sorted sample set per window.
fn window_latency(clients: &[Client], windows: usize, kind: Kind) -> Vec<Vec<u32>> {
    (0..windows)
        .map(|w| sorted(clients.iter().map(|c| c.latency[w][kind as usize].clone())))
        .collect()
}

/// Each build's wall time, and how many times slower than uncontended the
/// host ran the reference load in between its batches.
#[derive(Debug, Default)]
struct Builds {
    wall_s: Vec<f64>,
    slowdown: Vec<f64>,
}

impl Builds {
    /// Build times at the host's uncontended speed (see `host`).
    fn setup_s(&self) -> Vec<f64> {
        self.wall_s
            .iter()
            .zip(&self.slowdown)
            .map(|(s, slowdown)| s / slowdown)
            .collect()
    }
}

/// Times `builds` builds of the store, each torn down and drained, with the
/// reference load run between their batches; returns the times and whether
/// every build drained. They run on a thread of their own, so they and the
/// load allocate from that thread's malloc arena, not among the measured
/// store's memory. On the main thread they left 0.5 MiB more `RssAnon`
/// after the run when the measured store was built first, and 5.5 MiB more
/// (on 131,072 keys) when it was built after them.
fn time_builds(keys: u64, builds: usize) -> (Builds, bool) {
    std::thread::spawn(move || {
        let mut reference = Reference::new();
        let mut times = Builds::default();
        let mut drained = true;
        for _ in 0..builds {
            let (store, wall_s) = prepopulated(keys, || reference.run());
            times.wall_s.push(wall_s);
            times.slowdown.push(reference.take_slowdown());
            let own = shard_censuses(&store);
            drained &= teardown(store, &own);
        }
        (times, drained)
    })
    .join()
    .expect("the set-up thread panicked")
}

/// Times the builds, then builds the store the run measures, untimed.
fn set_up(
    keys: u64,
    builds: usize,
    censuses: &mut Vec<Arc<Census>>,
    tally: &mut Tally,
) -> (Kv, Builds) {
    let (times, drained) = time_builds(keys, builds);
    tally.failed += u64::from(!drained);
    release_free_heap();
    let (kv, _) = prepopulated(keys, || {});
    censuses.extend(shard_censuses(&kv));
    // Leave no set-up garbage to be freed inside a measured phase.
    lfrc_core::defer::flush_thread();
    lfrc_dcas::quiesce();
    (kv, times)
}

/// The traced run's single-thread measurements: per-kind phases on the
/// store, then the unit costs of the layers below it.
fn measure_layers(
    kv: &Kv,
    w: &Workload,
    dist: &KeyDist,
    cfg: &Config,
    tally: &mut Tally,
    censuses: &mut Vec<Arc<Census>>,
    m: &mut Metrics,
) {
    let scale = if cfg.smoke { 10 } else { 1 };
    let kinds = Kind::ALL
        .map(|k| single_client(kv, dist, k, PHASE_OPS[k as usize] / scale, cfg.seed, tally));
    let (units, census) = calibrate_units();
    censuses.push(census);
    let st = calibrate_structures(kv, dist, cfg.seed, tally);

    // Work per op of this workload's mix, weighted from the kind phases.
    let mix = |c: Counter| -> f64 {
        Kind::ALL
            .iter()
            .map(|&k| w.share(k) * kinds[k as usize].work.per_op(c))
            .sum()
    };
    let n: u64 = kinds.iter().map(|k| k.work.ops).sum();
    m.set(
        "core.counted_loads_per_op",
        mix(Counter::LoadDcasAttempt),
        n,
    );
    let get = &kinds[Kind::Get as usize].work;
    m.set(
        "core.deferred_reads_per_get",
        get.per_op(Counter::LoadDeferred),
        get.ops,
    );
    m.set(
        "core.rc_ops_per_op",
        mix(Counter::RcIncrement) + mix(Counter::RcDecrement),
        n,
    );
    m.set("core.defer_flushes_per_op", mix(Counter::DeferFlush), n);
    m.set("dcas.mcas_per_op", mix(Counter::DescImmortalReuse), n);
    m.set("reclaim.pins_per_op", mix(Counter::EpochPin), n);
    m.set("reclaim.retired_per_op", mix(Counter::EpochRetired), n);
    let allocs = mix(Counter::PoolMagazineHit) + mix(Counter::PoolMagazineMiss);
    m.set("pool.allocs_per_op", allocs, n);

    for (name, unit) in [
        ("core.load_counted_ns", &units.load_counted),
        ("core.load_deferred_ns", &units.load_deferred),
        ("dcas.dcas_ns", &units.dcas),
        ("reclaim.pin_ns", &units.pin),
        ("pool.alloc_free_ns", &units.alloc_free),
        ("structures.contains_ns", &st.contains),
        ("structures.insert_remove_ns", &st.insert_remove),
        ("structures.scan32_ns", &st.scan32),
    ] {
        m.set(name, unit.ns, unit.work.ops);
    }
    for (k, kv_name, frac_name) in [
        (Kind::Get, "kv.get_ns", "ledger.explained_frac.get"),
        (Kind::Write, "kv.write_ns", "ledger.explained_frac.write"),
        (Kind::Scan, "kv.scan_ns", "ledger.explained_frac.scan"),
        (Kind::Batch, "kv.batch_ns", "ledger.explained_frac.batch"),
    ] {
        let cost = &kinds[k as usize];
        m.set(kv_name, cost.ns, cost.work.ops);
        m.set(
            frac_name,
            explained_ns(&cost.work, &units) / cost.ns,
            cost.work.ops,
        );
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The traced run's two-client measurements: contention counters over the
/// closed-loop windows, and the open loop's tail and lateness.
fn record_traced(
    kv: &Kv,
    closed: &ClosedLoop,
    clients: &[Client],
    windows: &[Window],
    m: &mut Metrics,
) {
    let c = &closed.counters;
    let n = closed.ops;
    let attempts = c.get(Counter::LoadDcasAttempt);
    m.set(
        "core.load_retry_frac",
        ratio(c.get(Counter::LoadDcasRetry), attempts),
        attempts,
    );
    m.set(
        "core.promote_fail_per_op",
        ratio(c.get(Counter::PromoteFail), n),
        n,
    );
    let helps = c.get(Counter::McasHelp) + c.get(Counter::RdcssHelp);
    let abandoned = c.get(Counter::DescHelpAbandoned);
    m.set("dcas.helps_per_op", ratio(helps, n), n);
    m.set(
        "dcas.help_abandoned_frac",
        ratio(abandoned, helps + abandoned),
        helps + abandoned,
    );
    let retired = c.get(Counter::EpochRetired);
    m.set(
        "reclaim.freed_per_retired",
        ratio(c.get(Counter::EpochFreed), retired),
        retired,
    );
    let advances = c.get(Counter::EpochAdvance) + c.get(Counter::EpochAdvanceBlocked);
    m.set(
        "reclaim.advance_blocked_frac",
        ratio(c.get(Counter::EpochAdvanceBlocked), advances),
        advances,
    );
    m.set(
        "reclaim.grace_p99_us",
        closed.grace.quantile_ns(0.99) as f64 / 1e3,
        closed.grace.count(),
    );
    let mags = c.get(Counter::PoolMagazineHit) + c.get(Counter::PoolMagazineMiss);
    m.set(
        "pool.magazine_hit_frac",
        ratio(c.get(Counter::PoolMagazineHit), mags),
        mags,
    );
    m.set("pool.slabs_live", lfrc_pool::stats().slabs_live as f64, 1);
    let routed: u64 = closed.shard_ops.iter().sum();
    let busiest = closed.shard_ops.iter().copied().max().unwrap_or(0);
    m.set(
        "kv.shard_skew",
        ratio(busiest * kv.shard_count() as u64, routed),
        routed,
    );

    let ol = sorted(clients.iter().flat_map(|c| c.ol_latency.iter().cloned()));
    let late = sorted(clients.iter().map(|c| c.ol_late.clone()));
    m.set(
        "driver.ol_late_p99_us",
        us(quantile(&late, 0.99)),
        late.len() as u64,
    );
    m.set("driver.ol_p99_us", us(quantile(&ol, 0.99)), ol.len() as u64);
    m.set(
        "driver.ol_p999_us",
        us(quantile(&ol, 0.999)),
        ol.len() as u64,
    );
    let (untraced, traced) = split_windows(closed, windows);
    let q = Quartiles::of(&untraced);
    m.set("driver.window_spread", q.spread(), untraced.len() as u64);
    m.set(
        "trace.overhead_frac",
        1.0 - median(&traced) / q.median,
        windows.len() as u64,
    );
}

/// Throughput and service time of the two-client loops, from the untraced
/// windows. Latency quantiles are taken per window (per tenth of the open
/// loop) and their median reported, so that one window disturbed by the
/// host moves the result less than it would a pooled quantile.
fn record_service(closed: &ClosedLoop, clients: &[Client], windows: &[Window], m: &mut Metrics) {
    let (untraced, _) = split_windows(closed, windows);
    m.set(
        "kv.throughput_ops_s",
        median(&untraced),
        untraced.len() as u64,
    );
    for (kind, p50, p99) in [
        (Kind::Get, "kv.get_p50_us", "kv.get_p99_us"),
        (Kind::Write, "kv.write_p50_us", "kv.write_p99_us"),
    ] {
        let sets = window_latency(clients, windows.len(), kind);
        let n = sets.iter().map(|s| s.len() as u64).sum();
        m.set(p50, us_median_of(&sets, 0.5), n);
        m.set(p99, us_median_of(&sets, 0.99), n);
    }
    for (kind, name) in [
        (Kind::Get, "kv.ol_get_p50_us"),
        (Kind::Write, "kv.ol_write_p50_us"),
    ] {
        let tenths: Vec<Vec<u32>> = (0..10)
            .map(|f| {
                sorted(clients.iter().map(|c| {
                    let all = &c.ol_latency[kind as usize];
                    all[f * all.len() / 10..(f + 1) * all.len() / 10].to_vec()
                }))
            })
            .collect();
        let n = tenths.iter().map(|s| s.len() as u64).sum();
        m.set(name, us_median_of(&tenths, 0.5), n);
    }
}

/// Throughput of the untraced and of the traced windows.
fn split_windows(closed: &ClosedLoop, windows: &[Window]) -> (Vec<f64>, Vec<f64>) {
    let pick = |traced: bool| {
        closed
            .throughput
            .iter()
            .zip(windows)
            .filter(|(_, w)| w.traced == traced)
            .map(|(t, _)| *t)
            .collect()
    };
    (pick(false), pick(true))
}

fn run(w: &Workload, cfg: &Config) -> Outcome {
    let t0 = Instant::now();
    let w = Workload {
        keys: if cfg.smoke {
            w.keys.min(SMOKE_KEYS)
        } else {
            w.keys
        },
        ..*w
    };
    let dist = KeyDist::of(&w);
    let rc_on_freed = lfrc_obs::counters::total(Counter::CensusRcOnFreed);
    let mut tally = Tally::default();
    let mut censuses = Vec::new();
    let mut m = Metrics::default();

    let builds = if cfg.smoke { 1 } else { w.setup_builds };
    let (kv, times) = set_up(w.keys, builds, &mut censuses, &mut tally);
    let n = builds as u64;
    m.set("setup_s", median(&times.setup_s()), n);
    m.set("driver.setup_wall_s", median(&times.wall_s), n);
    m.set("driver.host_slowdown", median(&times.slowdown), n);
    if cfg.trace {
        measure_layers(&kv, &w, &dist, cfg, &mut tally, &mut censuses, &mut m);
    }
    let mut clients: Vec<Client> = (0..CLIENTS as u64)
        .map(|t| Client::new(OpGen::new(dist.clone(), w.mix, cfg.seed, t)))
        .collect();
    if cfg.trace {
        let mut gen = clients[0].gen.clone();
        let g = calibrate(20_000, |r| {
            for _ in r {
                black_box(gen.next_op());
            }
        });
        m.set("driver.gen_ns_per_op", g.ns, g.work.ops);
    }

    // Time split: 10% warm-up, 50% closed-loop windows, 40% open loop. A
    // traced run alternates untraced and traced windows, so drift hits
    // both alike.
    let secs = cfg.seconds;
    let windows: Vec<Window> = (0..WINDOWS)
        .map(|i| Window {
            length: Duration::from_secs_f64(secs * 0.5 / WINDOWS as f64),
            traced: cfg.trace && i % 2 == 1,
        })
        .collect();
    let warmup = Duration::from_secs_f64(secs * 0.1);
    let closed = closed_loop(&kv, &mut clients, warmup, &windows, t0);
    open_loop(
        &kv,
        &mut clients,
        w.rate,
        Duration::from_secs_f64(secs * 0.4),
    );

    record_service(&closed, &clients, &windows, &mut m);
    if cfg.trace {
        record_traced(&kv, &closed, &clients, &windows, &mut m);
    }
    let spans: Vec<Span> = clients
        .iter_mut()
        .flat_map(|c| std::mem::take(&mut c.spans))
        .collect();
    for c in &clients {
        tally.add(&c.tally);
    }
    // Resident memory once the samples are gone: the store, the pool and
    // the process, not the benchmark's own buffers.
    drop(clients);
    release_free_heap();
    if !cfg.trace {
        m.set("rss_mb", rss_anon_mb(), 1);
    }

    // End-of-run checks: the live key count matches every acknowledged
    // write, every census drains, and no count touched a freed object.
    let expected = (w.keys / 2) as i64 + tally.net;
    tally.failed += u64::from(kv.len() as i64 != expected);
    tally.failed += u64::from(!teardown(kv, &censuses));
    tally.failed += u64::from(lfrc_obs::counters::total(Counter::CensusRcOnFreed) != rc_on_freed);

    let names: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let (untraced, _) = split_windows(&closed, &windows);
    Outcome {
        detail: detail_line(w.name, cfg.seed, &m, &untraced),
        result: result_line(names, &m, &tally),
        tally,
        spans,
    }
}

/// Writes the traced windows' spans, one JSON object per line, to
/// `<target dir>/ledger/<workload>-<seed>.spans.jsonl`.
fn write_spans(workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let dir =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("ledger");
    std::fs::create_dir_all(&dir)?;
    let file = std::fs::File::create(dir.join(format!("{workload}-{seed}.spans.jsonl")))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        writeln!(
            out,
            "{{\"op\": {}, \"thread\": {}, \"kind\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.op,
            s.thread,
            s.kind.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Config, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cfg = args("--workload hot_small --seed 9 --seconds 3 --trace 0").unwrap();
        assert_eq!(
            (cfg.workload.as_str(), cfg.seed, cfg.seconds),
            ("hot_small", 9, 3.0)
        );
        assert!(!cfg.trace);
        assert!(args("--trace 1").unwrap().trace);
        assert!(args("--trace --seed 2").unwrap().trace);
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus").is_err());
    }

    /// A smoke run: 100k keys, 0.5 s windows, every check passing and
    /// every metric printed.
    #[test]
    fn smoke_run_is_correct() {
        for (name, trace) in [("scan_batch_zipf", false), ("hot_small", true)] {
            let cfg = args(&format!(
                "--workload {name} --smoke --trace {}",
                u8::from(trace)
            ))
            .unwrap();
            let start = Instant::now();
            let out = run(workload::find(name).unwrap(), &cfg);
            let took = start.elapsed();
            assert_eq!(out.tally.failed, 0, "{name}: {}", out.result);
            assert!(out.tally.attempted > 0);
            assert!(out.result.starts_with("{\"correct\": true"));
            // The 10 s budget holds for optimised builds.
            if !cfg!(debug_assertions) {
                assert!(took < Duration::from_secs(10), "{name} took {took:?}");
            }
            assert_eq!(trace, !out.spans.is_empty());
        }
    }
}
