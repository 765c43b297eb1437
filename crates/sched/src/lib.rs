//! **lfrc-sched** — a loom-style cooperative deterministic scheduler for
//! the LFRC workspace.
//!
//! The LFRC paper's own history shows why this crate exists: the published
//! Snark deque shipped with a double-pop defect that survived review and
//! testing, and was found three years later by *model checking* (Doherty
//! et al., SPAA 2004). Stress tests with real threads reach only the
//! interleavings the OS happens to produce; this crate instead runs N
//! logical threads **cooperatively** — exactly one runs at a time, and
//! control can transfer only at *instrumented yield points* — so every
//! interleaving is (a) reachable on demand and (b) reproducible from a
//! single `u64` seed.
//!
//! ## Yield points
//!
//! The code under test is instrumented through
//! [`lfrc_dcas::instrument::yield_point`], which is a thread-local no-op
//! unless a hook is installed. The instrumented sites
//! ([`InstrSite`]) cover the windows where the LFRC algorithms are
//! actually vulnerable:
//!
//! * `LoadDcasWindow` — inside `LFRCLoad`, between reading `(ptr, rc)`
//!   and the DCAS that bumps the count (the race `LFRCDestroy` must lose).
//! * `DestroyDecrement` — in `LFRCDestroy`, just before the decrement.
//! * `RdcssInstalled` / `McasBeforeStatusCas` — inside the Harris-Fraser
//!   MCAS emulation, with a descriptor installed but unresolved, so other
//!   threads are forced through the helping path.
//! * `LockSpin` — each spin of `LockWord`'s striped lock (required for
//!   progress under cooperative scheduling).
//! * `DequePush…`/`DequePop…` — the Snark pause sites, reached by
//!   instantiating a deque with the [`SchedPause`] policy.
//!
//! ## Choosing and replaying schedules
//!
//! At every yield point the scheduler picks the next runnable thread
//! using a [`Policy`]: either seeded-random ([`Policy::Random`], a
//! [`SplitMix64`] stream) or an explicit decision prefix
//! ([`Policy::Prefix`], used by [`Explorer`] for bounded DFS over the
//! schedule tree). Each run returns a [`Trace`] whose `hash` is an
//! FNV-1a digest of the full `(thread, site)` event sequence — two runs
//! with equal hashes executed bit-identical interleavings. If a thread
//! panics, the seed / decision prefix is printed (`LFRC_SCHED_SEED=…`)
//! before the panic is propagated, so any failure found by exploration
//! can be replayed exactly.
//!
//! ## Example: a two-thread race, replayed
//!
//! Two threads race a DCAS over the same pair of cells; exactly one can
//! win. Which one is schedule-dependent — but a seed pins the schedule,
//! so replaying the seed reproduces the same winner and the same trace
//! hash, bit for bit:
//!
//! ```
//! use lfrc_dcas::{DcasWord, McasWord};
//!
//! fn race(seed: u64) -> (u64, u64, u64) {
//!     let a = McasWord::new(0);
//!     let b = McasWord::new(0);
//!     let trace = {
//!         let (a, b) = (&a, &b);
//!         lfrc_sched::run_seeded(seed, vec![
//!             Box::new(move || { McasWord::dcas(a, b, 0, 0, 1, 1); }),
//!             Box::new(move || { McasWord::dcas(a, b, 0, 0, 2, 2); }),
//!         ])
//!     };
//!     (trace.hash, a.load(), b.load())
//! }
//!
//! let first = race(0xD15C_2001);
//! let second = race(0xD15C_2001);
//! assert_eq!(first, second, "same seed ⇒ bit-identical interleaving");
//! let (_, a, b) = first;
//! assert!(a == b && (a == 1 || a == 2), "exactly one DCAS won");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod explore;
pub mod rng;
pub mod shrink;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

pub use explore::{ExploreStats, Explorer};
pub use lfrc_dcas::instrument::{self, AllocSite, InstrSite};
pub use lfrc_deque::SchedPause;
pub use rng::SplitMix64;
pub use shrink::Counterexample;

/// Environment variable consulted by [`seed_from_env`] and printed when a
/// scheduled run fails, enabling exact replay of a failing interleaving.
pub const SEED_ENV: &str = "LFRC_SCHED_SEED";

/// Reads a replay seed from the [`SEED_ENV`] environment variable.
///
/// Tests use this to let a developer re-run one exact interleaving:
/// `LFRC_SCHED_SEED=12345 cargo test -- some_exploration_test`.
pub fn seed_from_env() -> Option<u64> {
    let raw = std::env::var(SEED_ENV).ok()?;
    let raw = raw.trim();
    raw.strip_prefix("0x")
        .map(|hex| u64::from_str_radix(hex, 16))
        .unwrap_or_else(|| raw.parse())
        .ok()
}

/// How the scheduler picks the next runnable thread at each yield point.
#[derive(Debug, Clone)]
pub enum Policy {
    /// Draw every choice from a [`SplitMix64`] stream. Equal seeds yield
    /// bit-identical schedules (given deterministic thread bodies).
    Random(u64),
    /// Follow an explicit decision list; once it is exhausted, always
    /// pick the first (lowest-index) runnable thread. This is the replay
    /// half of bounded DFS: a prefix of length *k* pins the first *k*
    /// branch points and the rest of the run is deterministic.
    Prefix(Vec<u32>),
}

/// One scheduling decision: which runnable thread was chosen, out of how
/// many. [`Explorer`] uses `alternatives` to enumerate sibling branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Index into the (ascending thread-id) list of runnable threads.
    pub choice: u32,
    /// How many threads were runnable at this point.
    pub alternatives: u32,
}

/// How an injected thread crash manifests at its chosen site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// The thread is permanently parked at the site — the paper's
    /// "failed thread": whatever it holds (counted references, epoch
    /// pins, unflushed decrement buffers) stays held while every other
    /// thread runs to completion. The parked thread is unwound only
    /// after the run is otherwise finished, so `std::thread::scope` can
    /// join it.
    Stall,
    /// The thread panics at the site. Its unwind runs destructors (so
    /// stack-held references are released) while still holding the
    /// scheduling token — deterministic, like any other atomic stretch.
    Panic,
}

/// Kills one logical thread at a chosen yield-site visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Which logical thread dies.
    pub thread: usize,
    /// Die at this site (`None`: at any scheduled site).
    pub site: Option<InstrSite>,
    /// Skip this many matching visits first: `0` dies at the first
    /// matching visit, `2` at the third. For `site: None` the count is
    /// over all scheduled sites.
    pub skip: u32,
    /// How the death manifests.
    pub mode: CrashMode,
}

/// Refuses allocations at a chosen [`AllocSite`] on one logical thread.
///
/// Requires the `inject` cargo feature (the checks are compiled out
/// otherwise); [`Schedule::run`] refuses to run a plan it cannot honor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OomSpec {
    /// Which logical thread's allocations fail.
    pub thread: usize,
    /// The allocation site to refuse.
    pub site: AllocSite,
    /// Skip this many visits to the site before refusing.
    pub skip: u32,
    /// Refuse this many consecutive visits (`u32::MAX`: forever).
    pub count: u32,
}

/// A deterministic fault plan: which threads die where, and which
/// allocations are refused. Part of a [`Schedule`], so a `(seed, plan)`
/// pair identifies a faulty execution exactly.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Thread-crash injections.
    pub crashes: Vec<CrashSpec>,
    /// Allocation-failure injections.
    pub ooms: Vec<OomSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a thread-crash injection.
    pub fn crash(mut self, spec: CrashSpec) -> Self {
        self.crashes.push(spec);
        self
    }

    /// Adds an allocation-failure injection.
    pub fn oom(mut self, spec: OomSpec) -> Self {
        self.ooms.push(spec);
        self
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.ooms.is_empty()
    }
}

/// One injected thread death, as it actually happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashRecord {
    /// The thread that died.
    pub thread: usize,
    /// The site it died at.
    pub site: InstrSite,
    /// How it died.
    pub mode: CrashMode,
    /// The global step count at the moment of death.
    pub step: u64,
}

/// The panic payload used internally to unwind an injected crash out of
/// the thread body. Distinguishable from a real failure by type.
struct CrashToken;

/// One step of the executed interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Logical thread id (index into the `bodies` vector).
    pub thread: usize,
    /// The instrumented site the thread yielded at, or `None` when the
    /// event records the thread's termination.
    pub site: Option<InstrSite>,
}

/// The result of one scheduled run: the interleaving actually executed.
#[derive(Debug, Clone)]
pub struct Trace {
    /// FNV-1a digest of the `(thread, site)` event sequence. Two runs
    /// with equal hashes executed bit-identical interleavings.
    pub hash: u64,
    /// Total yield points crossed (all threads).
    pub steps: u64,
    /// Every scheduling decision, in order — a complete replay recipe
    /// independent of the policy that produced it.
    pub decisions: Vec<Decision>,
    /// The full event sequence (thread, site) plus one terminal event
    /// per thread (crashed threads get a [`CrashRecord`] instead).
    pub events: Vec<Event>,
    /// Injected thread deaths that actually fired, in order.
    pub crashes: Vec<CrashRecord>,
    /// How many allocations the fault plan refused.
    pub oom_refusals: u64,
}

impl Trace {
    /// Renders the interleaving as one line per event, for debugging
    /// failures found by exploration.
    pub fn format_events(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            match e.site {
                Some(s) => out.push_str(&format!("t{} {}\n", e.thread, s.name())),
                None => out.push_str(&format!("t{} <finished>\n", e.thread)),
            }
        }
        out
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_mix(mut h: u64, thread: u64, tag: u64) -> u64 {
    for byte in thread.to_le_bytes().into_iter().chain(tag.to_le_bytes()) {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

enum Chooser {
    Random(SplitMix64),
    Prefix(Vec<u32>),
}

struct State {
    /// Id of the thread allowed to run; `usize::MAX` while parked at the
    /// start gate and after the last thread finishes.
    active: usize,
    alive: Vec<bool>,
    chooser: Chooser,
    decisions: Vec<Decision>,
    events: Vec<Event>,
    crashes: Vec<CrashRecord>,
    oom_refusals: u64,
    hash: u64,
    steps: u64,
    max_steps: u64,
    /// Set when the last runnable thread retires; stalled (crashed)
    /// threads wait on it so `std::thread::scope` can join them.
    run_done: bool,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

/// Picks the next thread among the still-alive ones (ascending id
/// order), records the decision, and returns its id. `None` iff no
/// thread is alive.
fn choose(st: &mut State) -> Option<usize> {
    let runnable: Vec<usize> = st
        .alive
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.then_some(i))
        .collect();
    if runnable.is_empty() {
        return None;
    }
    let k = match &mut st.chooser {
        Chooser::Random(rng) => rng.below(runnable.len() as u64) as usize,
        Chooser::Prefix(choices) => match choices.get(st.decisions.len()) {
            // Clamp, so a prefix recorded against a slightly different
            // run degrades to a valid schedule instead of panicking.
            Some(&c) => (c as usize).min(runnable.len() - 1),
            None => 0,
        },
    };
    st.decisions.push(Decision {
        choice: k as u32,
        alternatives: runnable.len() as u32,
    });
    Some(runnable[k])
}

/// A thread's body type: boxed so heterogeneous closures can share one
/// vector, `Send` because each runs on its own OS thread, `'env` so
/// bodies may borrow from the caller's stack (they are joined before
/// [`Schedule::run`] returns).
pub type Body<'env> = Box<dyn FnOnce() + Send + 'env>;

/// The cooperative scheduler: runs N logical threads, exactly one at a
/// time, transferring control only at instrumented yield points.
///
/// Each logical thread is a real OS thread, but a shared token
/// (mutex + condvar) ensures only the *active* one ever executes code
/// under test; at every [`yield_point`](instrument::yield_point) the
/// active thread consults the [`Policy`] and hands the token to the
/// chosen successor. Uninstrumented stretches run atomically, which is
/// sound for schedule exploration because the instrumented sites are
/// exactly the algorithm's linearization-relevant windows.
#[derive(Debug, Clone)]
pub struct Schedule {
    max_steps: u64,
    pool_sites: bool,
    faults: FaultPlan,
}

impl Default for Schedule {
    fn default() -> Self {
        Self::new()
    }
}

impl Schedule {
    /// A scheduler with the default step cap (200 000 yield points).
    /// Pool sites are excluded by default — see [`Schedule::pool_sites`].
    pub fn new() -> Self {
        Schedule {
            max_steps: 200_000,
            pool_sites: false,
            faults: FaultPlan::default(),
        }
    }

    /// Overrides the step cap. The cap turns a livelocked schedule
    /// (possible under adversarial interleavings of helping loops) into
    /// a reported failure instead of a hung test.
    pub fn max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Opts the slab pool's yield sites (`Pool…`, see
    /// [`InstrSite::is_pool`]) into scheduling.
    ///
    /// They are off by default because whether the allocator reaches them
    /// depends on process-global pool state that concurrent, unscheduled
    /// threads mutate freely — with them on, a trace is no longer a pure
    /// function of `(seed, bodies)`, so bit-identical replay is *not*
    /// guaranteed. Pool-focused exploration tests turn them on to drive
    /// races through the allocator itself and assert invariants (never
    /// trace equality).
    pub fn pool_sites(mut self, on: bool) -> Self {
        self.pool_sites = on;
        self
    }

    /// Attaches a deterministic [`FaultPlan`] — which threads die where
    /// (the paper's "failed thread") and which allocations are refused.
    ///
    /// Crash specs targeting pool sites fire only with
    /// [`Schedule::pool_sites`] on (a filtered site is never scheduled,
    /// so nothing can die there). OOM specs require the `inject` cargo
    /// feature; [`Schedule::run`] panics on a plan it cannot honor
    /// rather than silently running faultlessly.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Runs `bodies` under `policy` and returns the executed [`Trace`].
    ///
    /// If a body panics, the replay recipe (seed or decision prefix) and
    /// the trace hash are printed to stderr, then the panic is
    /// propagated to the caller.
    pub fn run<'env>(&self, policy: &Policy, bodies: Vec<Body<'env>>) -> Trace {
        let (trace, failure) = self.run_caught(policy, bodies);
        if let Some(payload) = failure {
            eprintln!(
                "lfrc-sched: schedule FAILED after {} steps (trace hash {:#018x})",
                trace.steps, trace.hash
            );
            match policy {
                Policy::Random(seed) => {
                    eprintln!("lfrc-sched: replay with {SEED_ENV}={seed}");
                }
                Policy::Prefix(choices) => {
                    eprintln!("lfrc-sched: replay decision prefix {choices:?}");
                }
            }
            // A failing schedule is one of the flight recorder's dump
            // triggers: latch (and echo) the protocol events leading up
            // to the failure before unwinding to the explorer.
            lfrc_obs::recorder::note_violation("explored schedule failed", 0);
            resume_unwind(payload);
        }
        trace
    }

    /// Like [`Schedule::run`], but a failing schedule returns the
    /// executed [`Trace`] *and* the panic payload instead of printing
    /// the replay banner and unwinding. This is what the
    /// [`shrink`] machinery probes candidates with — a shrinker that
    /// loses the failing trace cannot assert bit-identical replay.
    pub fn run_caught<'env>(
        &self,
        policy: &Policy,
        bodies: Vec<Body<'env>>,
    ) -> (Trace, Option<Box<dyn std::any::Any + Send>>) {
        assert!(
            self.faults.ooms.is_empty() || instrument::alloc_faults_compiled(),
            "fault plan has OOM specs but allocation-fault checks are compiled out; \
             rebuild with `--features inject`"
        );
        let n = bodies.len();
        let chooser = match policy {
            Policy::Random(seed) => Chooser::Random(SplitMix64::new(*seed)),
            Policy::Prefix(choices) => Chooser::Prefix(choices.clone()),
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                active: usize::MAX,
                alive: vec![true; n],
                chooser,
                decisions: Vec::new(),
                events: Vec::new(),
                crashes: Vec::new(),
                oom_refusals: 0,
                hash: FNV_OFFSET,
                steps: 0,
                max_steps: self.max_steps,
                run_done: false,
                panic: None,
            }),
            cv: Condvar::new(),
        });
        let faults = Arc::new(self.faults.clone());

        std::thread::scope(|s| {
            for (id, body) in bodies.into_iter().enumerate() {
                let shared = Arc::clone(&shared);
                let faults = Arc::clone(&faults);
                let pool_sites = self.pool_sites;
                s.spawn(move || worker(shared, id, body, pool_sites, faults));
            }
            // Open the start gate: pick the first thread to run.
            let mut st = lock(&shared.state);
            if let Some(first) = choose(&mut st) {
                st.active = first;
            }
            drop(st);
            shared.cv.notify_all();
        });

        let mut st = lock(&shared.state);
        let trace = Trace {
            hash: st.hash,
            steps: st.steps,
            decisions: std::mem::take(&mut st.decisions),
            events: std::mem::take(&mut st.events),
            crashes: std::mem::take(&mut st.crashes),
            oom_refusals: st.oom_refusals,
        };
        (trace, st.panic.take())
    }
}

/// Convenience wrapper: run `bodies` under [`Policy::Random`] with
/// `seed`.
pub fn run_seeded<'env>(seed: u64, bodies: Vec<Body<'env>>) -> Trace {
    Schedule::new().run(&Policy::Random(seed), bodies)
}

fn lock<'a>(m: &'a Mutex<State>) -> MutexGuard<'a, State> {
    // A panicking body is caught before the lock is reacquired, so the
    // state itself is never poisoned mid-update; recover the guard.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker(
    shared: Arc<Shared>,
    id: usize,
    body: Body<'_>,
    pool_sites: bool,
    faults: Arc<FaultPlan>,
) {
    // Park at the start gate until scheduled for the first time.
    {
        let mut st = lock(&shared.state);
        while st.active != id {
            st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    // Allocation-fault hook: refuses the visits the plan names. Fires
    // while this thread holds the scheduling token (allocations happen
    // inside the body), so the shared-state update is deterministic.
    let my_ooms: Vec<OomSpec> = faults
        .ooms
        .iter()
        .filter(|o| o.thread == id)
        .copied()
        .collect();
    if !my_ooms.is_empty() {
        let oom_shared = Arc::clone(&shared);
        let mut visits = [0u32; AllocSite::MAX_TAG as usize];
        instrument::set_thread_alloc_hook(Some(Box::new(move |site| {
            let idx = (site.tag() - 1) as usize;
            let v = visits[idx];
            visits[idx] += 1;
            let refuse = my_ooms
                .iter()
                .any(|o| o.site == site && v >= o.skip && v - o.skip < o.count);
            if refuse {
                let mut st = lock(&oom_shared.state);
                st.oom_refusals += 1;
                st.hash = fnv_mix(st.hash, id as u64, OOM_TAG_BASE + site.tag());
            }
            !refuse
        })));
    }

    // Every instrumented yield point in code run by this body now routes
    // into the scheduler. Pool sites are forwarded only on opt-in: their
    // firing depends on global allocator state, so scheduling on them
    // would break bit-identical replay (see `Schedule::pool_sites`).
    //
    // Crash specs are checked here too: a due site visit becomes a death
    // instead of a yield. A thread that is unwinding — from an injected
    // crash, a step-cap overrun or any other panic — no longer yields, so
    // the unwind (whose destructors cross yield points) runs as one
    // uninterrupted, and therefore deterministic, stretch: it cannot
    // re-crash, and cannot overrun the step cap again and abort.
    let my_crashes: Vec<CrashSpec> = faults
        .crashes
        .iter()
        .filter(|c| c.thread == id)
        .copied()
        .collect();
    let hook_shared = Arc::clone(&shared);
    let mut site_visits = [0u32; InstrSite::MAX_TAG as usize];
    let mut total_visits = 0u32;
    instrument::set_thread_hook(Some(Box::new(move |site| {
        if std::thread::panicking() || (site.is_pool() && !pool_sites) {
            return;
        }
        let idx = (site.tag() - 1) as usize;
        let v = site_visits[idx];
        site_visits[idx] += 1;
        let total = total_visits;
        total_visits += 1;
        let due = my_crashes
            .iter()
            .find(|c| match c.site {
                Some(s) => s == site && v == c.skip,
                None => total == c.skip,
            })
            .map(|c| c.mode);
        if let Some(mode) = due {
            crash_thread(&hook_shared, id, site, mode);
            resume_unwind(Box::new(CrashToken));
        }
        yield_to_scheduler(&hook_shared, id, site);
    })));
    let result = catch_unwind(AssertUnwindSafe(body));
    instrument::set_thread_hook(None);
    instrument::set_thread_alloc_hook(None);

    // Retire: record the terminal event and hand the token onward. An
    // injected crash already recorded its death (and, for a stall,
    // already gave up the token); it is not a failure and not a normal
    // termination either.
    let injected = matches!(&result, Err(p) if p.is::<CrashToken>());
    let mut st = lock(&shared.state);
    st.alive[id] = false;
    if !injected {
        st.events.push(Event {
            thread: id,
            site: None,
        });
        st.hash = fnv_mix(st.hash, id as u64, 0); // site tags start at 1
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
    }
    match choose(&mut st) {
        Some(next) => st.active = next,
        None => {
            st.active = usize::MAX;
            st.run_done = true;
        }
    }
    drop(st);
    shared.cv.notify_all();
}

/// Hash-tag bases marking injected faults in the trace digest, disjoint
/// from plain site tags so a faulty run never collides with a clean one.
const CRASH_STALL_TAG_BASE: u64 = 0x100;
const CRASH_PANIC_TAG_BASE: u64 = 0x200;
const OOM_TAG_BASE: u64 = 0x300;

/// Records an injected death. For a panic the caller unwinds while still
/// holding the scheduling token (the unwind is one atomic stretch, like
/// any uninstrumented code). For a stall the thread gives up the token
/// *forever* — it parks here until the run is otherwise complete, then
/// returns so the caller can unwind and be joined.
fn crash_thread(shared: &Shared, id: usize, site: InstrSite, mode: CrashMode) {
    let mut st = lock(&shared.state);
    st.steps += 1;
    let step = st.steps;
    st.crashes.push(CrashRecord {
        thread: id,
        site,
        mode,
        step,
    });
    let base = match mode {
        CrashMode::Stall => CRASH_STALL_TAG_BASE,
        CrashMode::Panic => CRASH_PANIC_TAG_BASE,
    };
    st.hash = fnv_mix(st.hash, id as u64, base + site.tag());
    if mode == CrashMode::Stall {
        st.alive[id] = false;
        match choose(&mut st) {
            Some(next) => st.active = next,
            None => {
                st.active = usize::MAX;
                st.run_done = true;
            }
        }
        shared.cv.notify_all();
        while !st.run_done {
            st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The heart of the scheduler: called (via the instrumentation hook) by
/// the active thread at every yield point. Records the event, consults
/// the policy, and blocks until this thread is scheduled again.
fn yield_to_scheduler(shared: &Shared, id: usize, site: InstrSite) {
    let mut st = lock(&shared.state);
    debug_assert_eq!(st.active, id, "only the active thread can yield");
    st.steps += 1;
    st.events.push(Event {
        thread: id,
        site: Some(site),
    });
    st.hash = fnv_mix(st.hash, id as u64, site.tag());
    if st.steps > st.max_steps {
        let cap = st.max_steps;
        drop(st);
        panic!(
            "lfrc-sched: step cap exceeded ({cap} yield points) — \
             livelocked schedule or cap set too low for this workload"
        );
    }
    // `id` is alive, so choose() cannot return None here.
    let next = choose(&mut st).expect("active thread is runnable");
    if next != id {
        st.active = next;
        shared.cv.notify_all();
        while st.active != id {
            st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Two bodies, each yielding at instrumented sites; the log of who
    /// ran must match the schedule exactly on replay.
    fn logging_bodies<'a>(log: &'a Mutex<Vec<(usize, u8)>>) -> Vec<Body<'a>> {
        (0..2)
            .map(|id| {
                let body: Body<'a> = Box::new(move || {
                    for _ in 0..4 {
                        instrument::yield_point(InstrSite::LoadDcasWindow);
                        log.lock().unwrap().push((id, 1));
                        instrument::yield_point(InstrSite::DestroyDecrement);
                        log.lock().unwrap().push((id, 2));
                    }
                });
                body
            })
            .collect()
    }

    #[test]
    fn same_seed_same_trace_and_log() {
        let run = |seed| {
            let log = Mutex::new(Vec::new());
            let trace = run_seeded(seed, logging_bodies(&log));
            (trace.hash, trace.events, log.into_inner().unwrap())
        };
        let (h1, e1, l1) = run(99);
        let (h2, e2, l2) = run(99);
        assert_eq!(h1, h2);
        assert_eq!(e1, e2);
        assert_eq!(l1, l2);
    }

    #[test]
    fn different_seeds_find_different_interleavings() {
        let mut hashes = HashSet::new();
        for seed in 0..64 {
            let log = Mutex::new(Vec::new());
            let trace = run_seeded(seed, logging_bodies(&log));
            hashes.insert(trace.hash);
        }
        assert!(
            hashes.len() > 8,
            "expected many distinct interleavings, got {}",
            hashes.len()
        );
    }

    #[test]
    fn prefix_replay_of_recorded_decisions_is_bit_identical() {
        let log = Mutex::new(Vec::new());
        let trace = run_seeded(7, logging_bodies(&log));
        // Replaying the *full* decision list must reproduce the trace,
        // independent of the PRNG that generated it.
        let choices: Vec<u32> = trace.decisions.iter().map(|d| d.choice).collect();
        let log2 = Mutex::new(Vec::new());
        let replay = Schedule::new().run(&Policy::Prefix(choices), logging_bodies(&log2));
        assert_eq!(replay.hash, trace.hash);
        assert_eq!(replay.events, trace.events);
        assert_eq!(log.into_inner().unwrap(), log2.into_inner().unwrap());
    }

    #[test]
    fn uninstrumented_bodies_run_to_completion() {
        let counter = AtomicU64::new(0);
        let bodies: Vec<Body<'_>> = (0..3)
            .map(|_| {
                let c = &counter;
                let body: Body<'_> = Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
                body
            })
            .collect();
        let trace = run_seeded(1, bodies);
        assert_eq!(counter.load(Ordering::SeqCst), 3);
        assert_eq!(trace.steps, 0);
        assert_eq!(trace.events.len(), 3); // three terminal events
    }

    #[test]
    fn empty_schedule_is_fine() {
        let trace = run_seeded(0, Vec::new());
        assert_eq!(trace.steps, 0);
        assert!(trace.events.is_empty());
    }

    #[test]
    fn panic_propagates_with_replay_banner() {
        let bodies: Vec<Body<'static>> = vec![
            Box::new(|| {
                instrument::yield_point(InstrSite::LoadDcasWindow);
                panic!("injected failure");
            }),
            Box::new(|| {
                instrument::yield_point(InstrSite::LoadDcasWindow);
            }),
        ];
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_seeded(3, bodies);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "injected failure");
    }

    /// Runs `body` alone under a 500-step cap; returns its failure message.
    fn capped_failure(body: Body<'static>) -> String {
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Schedule::new()
                .max_steps(500)
                .run(&Policy::Random(0), vec![body]);
        }))
        .unwrap_err();
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn step_cap_turns_livelock_into_failure() {
        let msg = capped_failure(Box::new(|| loop {
            instrument::yield_point(InstrSite::LockSpin);
        }));
        assert!(msg.contains("step cap"), "got: {msg}");
    }

    /// A step-cap overrun fails its own run even when the unwind it
    /// starts crosses yield points: the unwinding thread stops yielding,
    /// so the cap cannot fire again inside a destructor and abort the
    /// process.
    #[test]
    fn step_cap_overrun_unwinds_through_yielding_destructors() {
        struct YieldOnDrop;
        impl Drop for YieldOnDrop {
            fn drop(&mut self) {
                instrument::yield_point(InstrSite::LockSpin);
            }
        }
        let msg = capped_failure(Box::new(|| {
            let _guard = YieldOnDrop;
            loop {
                instrument::yield_point(InstrSite::LockSpin);
            }
        }));
        assert!(msg.contains("step cap"), "got: {msg}");
    }

    /// Two counting bodies for the crash tests: each yields once and
    /// then increments its own slot, so a thread killed at its yield
    /// site visibly never completes its work.
    fn counting_bodies<'a>(done: &'a [AtomicU64; 2]) -> Vec<Body<'a>> {
        (0..2)
            .map(|id| {
                let body: Body<'a> = Box::new(move || {
                    instrument::yield_point(InstrSite::LoadDcasWindow);
                    instrument::yield_point(InstrSite::DestroyDecrement);
                    done[id].fetch_add(1, Ordering::SeqCst);
                });
                body
            })
            .collect()
    }

    #[test]
    fn stalled_thread_never_completes_but_others_do() {
        let done = [AtomicU64::new(0), AtomicU64::new(0)];
        let trace = Schedule::new()
            .faults(FaultPlan::new().crash(CrashSpec {
                thread: 0,
                site: Some(InstrSite::LoadDcasWindow),
                skip: 0,
                mode: CrashMode::Stall,
            }))
            .run(&Policy::Random(5), counting_bodies(&done));
        assert_eq!(done[0].load(Ordering::SeqCst), 0, "dead thread ran on");
        assert_eq!(done[1].load(Ordering::SeqCst), 1, "survivor must finish");
        assert_eq!(trace.crashes.len(), 1);
        let c = trace.crashes[0];
        assert_eq!(
            (c.thread, c.site, c.mode),
            (0, InstrSite::LoadDcasWindow, CrashMode::Stall)
        );
        // Only the survivor retires normally (one terminal event).
        assert_eq!(trace.events.iter().filter(|e| e.site.is_none()).count(), 1);
    }

    #[test]
    fn panicking_crash_runs_destructors_and_is_not_a_failure() {
        struct SetOnDrop<'a>(&'a AtomicU64);
        impl Drop for SetOnDrop<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let dropped = AtomicU64::new(0);
        let completed = AtomicU64::new(0);
        let trace = {
            let (dropped, completed) = (&dropped, &completed);
            let bodies: Vec<Body<'_>> = vec![
                Box::new(move || {
                    let _guard = SetOnDrop(dropped);
                    instrument::yield_point(InstrSite::DestroyDecrement);
                    completed.fetch_add(1, Ordering::SeqCst);
                }),
                Box::new(move || {
                    instrument::yield_point(InstrSite::DestroyDecrement);
                    completed.fetch_add(1, Ordering::SeqCst);
                }),
            ];
            // `run` (not run_caught): an injected crash must not trip
            // the failure path, or this unwinds right here.
            Schedule::new()
                .faults(FaultPlan::new().crash(CrashSpec {
                    thread: 0,
                    site: Some(InstrSite::DestroyDecrement),
                    skip: 0,
                    mode: CrashMode::Panic,
                }))
                .run(&Policy::Random(11), bodies)
        };
        assert_eq!(dropped.load(Ordering::SeqCst), 1, "unwind must run Drop");
        assert_eq!(
            completed.load(Ordering::SeqCst),
            1,
            "only the survivor completes"
        );
        assert_eq!(trace.crashes.len(), 1);
    }

    #[test]
    fn crash_at_any_site_uses_the_global_visit_count() {
        let done = [AtomicU64::new(0), AtomicU64::new(0)];
        let trace = Schedule::new()
            .faults(FaultPlan::new().crash(CrashSpec {
                thread: 1,
                site: None,
                skip: 1, // die at thread 1's *second* scheduled site
                mode: CrashMode::Stall,
            }))
            .run(&Policy::Random(5), counting_bodies(&done));
        assert_eq!(trace.crashes.len(), 1);
        assert_eq!(trace.crashes[0].site, InstrSite::DestroyDecrement);
        assert_eq!(done[1].load(Ordering::SeqCst), 0);
        assert_eq!(done[0].load(Ordering::SeqCst), 1);
    }

    #[test]
    fn same_fault_plan_same_seed_same_trace() {
        let plan = FaultPlan::new().crash(CrashSpec {
            thread: 0,
            site: Some(InstrSite::DestroyDecrement),
            skip: 0,
            mode: CrashMode::Panic,
        });
        let run = |plan: FaultPlan| {
            let done = [AtomicU64::new(0), AtomicU64::new(0)];
            let trace = Schedule::new()
                .faults(plan)
                .run(&Policy::Random(42), counting_bodies(&done));
            (trace.hash, trace.events, trace.crashes)
        };
        assert_eq!(run(plan.clone()), run(plan));
        // And the digest distinguishes faulty from clean executions.
        let done = [AtomicU64::new(0), AtomicU64::new(0)];
        let clean = Schedule::new().run(&Policy::Random(42), counting_bodies(&done));
        assert_ne!(
            run(FaultPlan::new().crash(CrashSpec {
                thread: 0,
                site: Some(InstrSite::DestroyDecrement),
                skip: 0,
                mode: CrashMode::Panic,
            }))
            .0,
            clean.hash
        );
    }

    #[test]
    fn oom_plan_is_refused_when_checks_are_compiled_out() {
        if instrument::alloc_faults_compiled() {
            return; // the plan is honored instead; covered by tests/fault.rs
        }
        let plan = FaultPlan::new().oom(OomSpec {
            thread: 0,
            site: AllocSite::HeapPooled,
            skip: 0,
            count: 1,
        });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Schedule::new()
                .faults(plan)
                .run(&Policy::Random(0), vec![Box::new(|| {}) as Body<'static>]);
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("--features inject"), "got: {msg}");
    }

    #[test]
    fn seed_from_env_parses_decimal_and_hex() {
        // (Not testing via real env vars to keep tests parallel-safe;
        // exercise the parser through a local copy of its logic.)
        std::env::set_var(SEED_ENV, "12345");
        assert_eq!(seed_from_env(), Some(12345));
        std::env::set_var(SEED_ENV, "0xff");
        assert_eq!(seed_from_env(), Some(255));
        std::env::remove_var(SEED_ENV);
        assert_eq!(seed_from_env(), None);
    }
}
