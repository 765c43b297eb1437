//! The load: two client threads in one process, driven closed loop (each
//! client sends its next op when the last returns) and then open loop (ops
//! fall due at a fixed rate whether or not the store keeps up).
//!
//! Every op is drawn fresh from the client's seeded generator, so no
//! window replays writes an earlier one already applied. Generation
//! happens outside the timed call. In the open loop an op's latency runs
//! from when it fell due, so a stall also delays the ops queued behind it
//! (no coordinated omission), and how late each op started is reported.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use lfrc_kv::{Kv, KvWrite};
use lfrc_obs::{Hist, HistSnapshot, Snapshot};

use crate::check::{call, Tally};
use crate::workload::{Kind, OpGen};

/// Client threads; the reference host has two vCPUs.
pub const CLIENTS: usize = 2;

/// Spans kept per client in a traced window: a ring, so tracing costs the
/// same at any throughput and the span file stays bounded.
const SPAN_RING: usize = 1 << 16;

/// Starting capacity of every latency sample buffer: 256 KiB, above glibc's
/// 128 KiB mmap threshold. The buffers are made on the main thread before
/// the clients start, so each is a mapping of its own that grows in place
/// and is unmapped when freed. Grown from empty in a client thread, they
/// left freed pages scattered in that thread's malloc arena, and resident
/// memory after a `hot_small` run varied by 0.6 MiB between seeds; made
/// here, it varies by 0.02 MiB.
const SAMPLES_RESERVED: usize = 1 << 16;

fn samples() -> Vec<u32> {
    Vec::with_capacity(SAMPLES_RESERVED)
}

/// One traced KV call; times are ns since the run started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub thread: usize,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One client's generator, result tally and measurements.
#[derive(Debug)]
pub struct Client {
    pub gen: OpGen,
    pub tally: Tally,
    batch: Vec<KvWrite>,
    /// Closed-loop service time in ns, per window and [`Kind`]; traced
    /// windows stay empty.
    pub latency: Vec<[Vec<u32>; 4]>,
    /// Open-loop time from due to done per [`Kind`], and from due to
    /// start, in ns.
    pub ol_latency: [Vec<u32>; 4],
    pub ol_late: Vec<u32>,
    pub spans: Vec<Span>,
    ops: u64,
}

impl Client {
    pub fn new(gen: OpGen) -> Self {
        Client {
            gen,
            tally: Tally::default(),
            batch: Vec::with_capacity(crate::workload::BATCH),
            latency: Vec::new(),
            ol_latency: std::array::from_fn(|_| samples()),
            ol_late: samples(),
            spans: Vec::new(),
            ops: 0,
        }
    }

    /// Draws, runs and checks one op; returns its kind and call times.
    #[inline]
    fn step(&mut self, kv: &Kv) -> (Kind, Instant, Instant) {
        let op = self.gen.next_op();
        let start = Instant::now();
        let out = call(kv, &op, &mut self.batch);
        let end = Instant::now();
        self.tally.check(&op, &out, |k| kv.shard_of(k));
        self.ops += 1;
        (op.kind(), start, end)
    }

    fn record_span(
        &mut self,
        thread: usize,
        kind: Kind,
        t0: Instant,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            op: self.ops,
            thread,
            kind,
            start_ns: ns(start - t0),
            end_ns: ns(end - t0),
        };
        if self.spans.len() < SPAN_RING {
            self.spans.push(span);
        } else {
            self.spans[self.ops as usize % SPAN_RING] = span;
        }
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn ns32(d: Duration) -> u32 {
    d.as_nanos().min(u32::MAX as u128) as u32
}

/// Lets a scoped client thread leave no pending reference-count work
/// behind: a scope can return before thread-local destructors run.
fn quiesce_client() {
    lfrc_core::settle_thread();
    lfrc_core::defer::flush_thread();
}

/// One closed-loop measurement window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub length: Duration,
    pub traced: bool,
}

/// What the closed loop measured beyond the clients' own samples.
#[derive(Debug)]
pub struct ClosedLoop {
    /// Ops/s per window, in window order.
    pub throughput: Vec<f64>,
    /// Ops completed over all windows.
    pub ops: u64,
    /// Counter, grace-latency and shard-op deltas over all windows.
    pub counters: Snapshot,
    pub grace: HistSnapshot,
    pub shard_ops: Vec<u64>,
}

/// Runs the clients closed loop: a discarded warm-up, then `windows`.
pub fn closed_loop(
    kv: &Kv,
    clients: &mut [Client],
    warmup: Duration,
    windows: &[Window],
    t0: Instant,
) -> ClosedLoop {
    // 0 = warm-up, w + 1 = window w, windows.len() + 1 = stop.
    let phase = AtomicUsize::new(0);
    let stop = windows.len() + 1;
    for client in clients.iter_mut() {
        client.latency = windows
            .iter()
            .map(|_| std::array::from_fn(|_| samples()))
            .collect();
    }
    let (per_client, lengths, before, grace_before, shards_before) = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(thread, client)| {
                let phase = &phase;
                s.spawn(move || {
                    let mut ops = vec![0u64; windows.len()];
                    loop {
                        let p = phase.load(Ordering::Relaxed);
                        if p == stop {
                            break;
                        }
                        let (kind, start, end) = client.step(kv);
                        if p > 0 {
                            ops[p - 1] += 1;
                            if windows[p - 1].traced {
                                client.record_span(thread, kind, t0, start, end);
                            } else {
                                client.latency[p - 1][kind as usize].push(ns32(end - start));
                            }
                        }
                    }
                    quiesce_client();
                    ops
                })
            })
            .collect();
        std::thread::sleep(warmup);
        let before = Snapshot::take();
        let grace_before = HistSnapshot::take(Hist::GraceLatencyNs);
        let shards_before = kv.shard_op_counts();
        let mut lengths = Vec::with_capacity(windows.len());
        for (w, window) in windows.iter().enumerate() {
            let start = Instant::now();
            phase.store(w + 1, Ordering::Relaxed);
            std::thread::sleep(window.length);
            lengths.push(start.elapsed());
        }
        phase.store(stop, Ordering::Relaxed);
        let per_client: Vec<Vec<u64>> = workers
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (per_client, lengths, before, grace_before, shards_before)
    });
    let throughput = (0..windows.len())
        .map(|w| per_client.iter().map(|ops| ops[w]).sum::<u64>() as f64 / lengths[w].as_secs_f64())
        .collect();
    ClosedLoop {
        throughput,
        ops: per_client.iter().flatten().sum(),
        counters: Snapshot::take().diff(&before),
        grace: HistSnapshot::take(Hist::GraceLatencyNs).diff(&grace_before),
        shard_ops: kv
            .shard_op_counts()
            .iter()
            .zip(&shards_before)
            .map(|(a, b)| a - b)
            .collect(),
    }
}

/// Spins (sleeping while far ahead) until `due`.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let ahead = due - now;
        if ahead > Duration::from_micros(200) {
            std::thread::sleep(ahead - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs `n` ops due `gap_ns` apart from `first_due`: `draw` makes the
/// next op before it falls due (generation is not the store's latency),
/// `run` executes it and returns its class. Pushes each op's time from due
/// to done onto `latency[class]` and from due to start onto `late`.
fn paced<O>(
    first_due: Instant,
    gap_ns: f64,
    n: u64,
    mut draw: impl FnMut() -> O,
    mut run: impl FnMut(O) -> usize,
    latency: &mut [Vec<u32>],
    late: &mut Vec<u32>,
) {
    late.reserve(n as usize);
    for i in 0..n {
        let due = first_due + Duration::from_nanos((i as f64 * gap_ns) as u64);
        let op = draw();
        wait_until(due);
        let begun = Instant::now();
        let class = run(op);
        let end = Instant::now();
        latency[class].push(ns32(end - due));
        late.push(ns32(begun - due));
    }
}

/// Runs the clients open loop at `rate` ops/s in total for `length`.
/// Client `t`'s ops fall due `CLIENTS / rate` apart, offset by `t / rate`,
/// so arrivals interleave evenly.
pub fn open_loop(kv: &Kv, clients: &mut [Client], rate: f64, length: Duration) {
    let gap_ns = CLIENTS as f64 * 1e9 / rate;
    let start = Instant::now() + Duration::from_millis(1);
    let n = (length.as_secs_f64() * rate / CLIENTS as f64) as u64;
    std::thread::scope(|s| {
        for (t, client) in clients.iter_mut().enumerate() {
            s.spawn(move || {
                let first_due = start + Duration::from_nanos((t as f64 * 1e9 / rate) as u64);
                paced(
                    first_due,
                    gap_ns,
                    n,
                    || client.gen.next_op(),
                    |op| {
                        let out = call(kv, &op, &mut client.batch);
                        client.tally.check(&op, &out, |k| kv.shard_of(k));
                        op.kind() as usize
                    },
                    &mut client.ol_latency,
                    &mut client.ol_late,
                );
                quiesce_client();
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, KeyDist};

    /// A stub body that stalls on its first op only: every op that fell
    /// due during the stall must carry the wait, measured from its due
    /// time, which a timer started at the call would hide.
    #[test]
    fn open_loop_times_from_due_time() {
        let (gap, stall) = (Duration::from_millis(2), Duration::from_millis(20));
        let (mut latency, mut late) = ([Vec::new()], Vec::new());
        let mut i = 0u32;
        paced(
            Instant::now(),
            gap.as_nanos() as f64,
            20,
            || {
                i += 1;
                i
            },
            |op| {
                std::thread::sleep(if op == 1 { stall } else { Duration::ZERO });
                0
            },
            &mut latency,
            &mut late,
        );
        let latency = &latency[0];
        assert_eq!(latency.len(), 20);
        assert!(Duration::from_nanos(latency[0] as u64) >= stall);
        for op in 1..10u32 {
            let owed = (stall - gap * op).as_nanos() as u32;
            assert!(
                late[op as usize] >= owed,
                "op {op} started {} ns late",
                late[op as usize]
            );
            assert!(latency[op as usize] >= late[op as usize]);
        }
        assert!(late[15] < latency[0] / 2, "the backlog must drain");
    }

    #[test]
    fn open_loop_sends_rate_times_length() {
        let w = find("hot_small").unwrap();
        let kv = Kv::default();
        let mut clients: Vec<Client> = (0..CLIENTS as u64)
            .map(|t| Client::new(OpGen::new(KeyDist::of(w), w.mix, 1, t)))
            .collect();
        open_loop(&kv, &mut clients, 2_000.0, Duration::from_millis(250));
        for c in &clients {
            assert_eq!(c.ol_late.len(), 250);
            assert_eq!(c.ol_latency.iter().map(Vec::len).sum::<usize>(), 250);
            assert_eq!(c.tally.attempted, 250);
            assert_eq!(c.tally.failed, 0);
        }
    }
}
