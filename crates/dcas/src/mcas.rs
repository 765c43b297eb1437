//! Lock-free multi-word CAS via operation descriptors (Harris–Fraser).
//!
//! This is the primary DCAS strategy. The construction follows Harris,
//! Fraser & Pratt, *A Practical Multi-Word Compare-and-Swap Operation*
//! (DISC 2002) — the canonical software realization of the multi-location
//! atomic the LFRC paper assumes in hardware:
//!
//! * An **MCAS descriptor** publishes the whole operation (entries sorted
//!   by cell creation order, plus a three-state status word).
//! * Phase 1 installs the descriptor into each cell via **RDCSS** — a
//!   restricted double-compare single-swap that atomically checks "is the
//!   operation still undecided?" while swapping `old → descriptor`. Any
//!   mismatch decides the operation `Failed`.
//! * The status CAS (`Undecided → Succeeded/Failed`) is the linearization
//!   point.
//! * Phase 2 replaces descriptor words with the new (or, on failure,
//!   the old) values.
//!
//! Threads that encounter a descriptor *help* the operation to completion
//! and retry their own — no thread ever waits on another, so every cell
//! operation is lock-free.
//!
//! Descriptors follow Arbel-Raviv & Brown's *Reuse, don't Recycle* (see
//! [`crate::desc`]): each thread owns one immortal sequence-numbered MCAS
//! slot and one RDCSS slot, reused in place for every attempt, so the hot
//! path performs **zero allocation and zero epoch deferral**; helpers
//! validate the packed sequence on every descriptor access and abandon on
//! mismatch (DESIGN.md §5.14). A slot holds at most [`MAX_ENTRIES`]
//! entries, which bounds the arity of [`McasWord::mcas`].

use std::fmt;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::desc::{self, MAX_SLOTS, SEQ_MASK};
use crate::emu::with_guard;
use crate::instrument::{yield_point, InstrSite};
use crate::{DcasWord, McasOp, MAX_PAYLOAD};
use lfrc_obs::counters::incr;
use lfrc_obs::Counter;

const TAG_MASK: u64 = 0b11;
const TAG_VALUE: u64 = 0b00;
const TAG_MCAS: u64 = 0b01;
const TAG_RDCSS: u64 = 0b10;

const UNDECIDED: u64 = 0;
const SUCCEEDED: u64 = 1;
const FAILED: u64 = 2;
/// The owner is mid-claim — the sequence has been bumped but the entry
/// fields are not yet consistent. Helpers observing this state abandon.
const CLAIMING: u64 = 3;

/// A slot's status word packs the slot's current sequence with the
/// operation state: `(seq << 2) | state`. The status CAS that decides
/// an operation therefore compares the sequence *and* the state in one
/// shot — a helper holding a stale word cannot decide (or corrupt) the
/// slot's next operation, because its expected status carries the old
/// sequence. This is the linchpin of the seq-validation argument
/// (DESIGN.md §5.14).
#[inline]
fn pack_status(seq: u64, state: u64) -> u64 {
    debug_assert!(state <= CLAIMING);
    ((seq & SEQ_MASK) << 2) | state
}

#[inline]
fn status_state(status: u64) -> u64 {
    status & 0b11
}

#[inline]
fn status_seq(status: u64) -> u64 {
    (status >> 2) & SEQ_MASK
}

#[inline]
fn encode(value: u64) -> u64 {
    debug_assert!(value <= MAX_PAYLOAD, "payload exceeds 62 bits: {value:#x}");
    value << 2
}

#[inline]
fn decode(word: u64) -> u64 {
    debug_assert_eq!(word & TAG_MASK, TAG_VALUE);
    word >> 2
}

/// One sorted entry of an in-flight MCAS. `old`/`new` are *encoded* words.
#[derive(Clone, Copy)]
struct Entry {
    cell: *const AtomicU64,
    /// The cell's creation-order id — the global installation order (see
    /// [`McasWord::mcas`]).
    order: u64,
    old: u64,
    new: u64,
}

const EMPTY_ENTRY: Entry = Entry {
    cell: std::ptr::null(),
    order: 0,
    old: 0,
    new: 0,
};

/// The widest operation [`McasWord::mcas`] accepts, and so the entry
/// capacity of every immortal MCAS slot. DCAS needs 2 and nothing in the
/// workspace exceeds 4; a wider slot costs every attempt, since each one
/// stages, and each helper snapshot copies, a full `[Entry; MAX_ENTRIES]`.
pub const MAX_ENTRIES: usize = 4;

// ---------------------------------------------------------------------------
// Immortal descriptor slots (DESIGN.md §5.14)
// ---------------------------------------------------------------------------

/// A thread's immortal MCAS descriptor slot. Never deallocated (leaked on
/// first claim); reused in place for every operation the owning thread
/// performs. All fields are atomics because helpers read them while the
/// owner may be rewriting them for the next operation — the seqlock
/// discipline ([`mcas_snapshot`]) makes such torn reads detectable, and
/// atomics make them defined behaviour.
struct ImmortalMcas {
    /// `(seq << 2) | state` — see [`pack_status`]. Initialized to
    /// `(0, FAILED)`: sequence 0 is never packed into a published word
    /// (the first claim bumps to 1), so no garbage word can validate
    /// against a fresh slot.
    status: AtomicU64,
    /// Entry count of the current operation (≤ [`MAX_ENTRIES`]).
    len: AtomicU64,
    cells: [AtomicPtr<AtomicU64>; MAX_ENTRIES],
    olds: [AtomicU64; MAX_ENTRIES],
    news: [AtomicU64; MAX_ENTRIES],
}

impl ImmortalMcas {
    fn new() -> Self {
        ImmortalMcas {
            status: AtomicU64::new(pack_status(0, FAILED)),
            len: AtomicU64::new(0),
            cells: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            olds: std::array::from_fn(|_| AtomicU64::new(0)),
            news: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A thread's immortal RDCSS descriptor slot. Unlike the MCAS slot there
/// is no operation state machine — an RDCSS is transient (installed and
/// completed within one `rdcss` call) — so the slot carries a plain
/// seqlock word: `(seq << 1) | claiming`. Initialized to claiming so no
/// garbage word validates before the first publish.
struct ImmortalRdcss {
    seq: AtomicU64,
    data: AtomicPtr<AtomicU64>,
    /// Encoded expected value of `data`.
    old: AtomicU64,
    /// Packed descriptor word of the owning MCAS.
    mcas_word: AtomicU64,
}

impl ImmortalRdcss {
    fn new() -> Self {
        ImmortalRdcss {
            seq: AtomicU64::new(1),
            data: AtomicPtr::new(std::ptr::null_mut()),
            old: AtomicU64::new(0),
            mcas_word: AtomicU64::new(0),
        }
    }
}

/// The slot registry: one shared index namespace, two parallel tables.
/// Slots are materialized lazily (one `Box::leak` per kind on an index's
/// first claim — never on the per-attempt path) and live forever; only
/// the *index* is recycled through the free list when a thread exits, so
/// a slot's sequence stays monotone across successive owning threads.
struct SlotTables {
    mcas: Box<[AtomicPtr<ImmortalMcas>]>,
    rdcss: Box<[AtomicPtr<ImmortalRdcss>]>,
    free: Mutex<Vec<u32>>,
    next: AtomicU64,
}

fn tables() -> &'static SlotTables {
    static TABLES: OnceLock<SlotTables> = OnceLock::new();
    TABLES.get_or_init(|| SlotTables {
        mcas: (0..MAX_SLOTS)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect(),
        rdcss: (0..MAX_SLOTS)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect(),
        free: Mutex::new(Vec::new()),
        next: AtomicU64::new(0),
    })
}

/// Resolves a published word's MCAS slot. The pointer was
/// Release-published before the word could reach any cell, and the word
/// was read from a cell, so the slot is visible and never null.
#[inline]
fn mcas_slot(idx: usize) -> &'static ImmortalMcas {
    let p = tables().mcas[idx].load(Ordering::Acquire);
    debug_assert!(!p.is_null(), "descriptor word names an unmaterialized slot");
    // Safety: slots are leaked (never freed) once published.
    unsafe { &*p }
}

#[inline]
fn rdcss_slot(idx: usize) -> &'static ImmortalRdcss {
    let p = tables().rdcss[idx].load(Ordering::Acquire);
    debug_assert!(!p.is_null(), "descriptor word names an unmaterialized slot");
    // Safety: as for `mcas_slot`.
    unsafe { &*p }
}

/// A thread's claim on one slot index (both kinds). Dropping returns the
/// index — not the slots, which are immortal — to the free list.
struct ThreadSlots {
    idx: usize,
    mcas: &'static ImmortalMcas,
    rdcss: &'static ImmortalRdcss,
}

impl ThreadSlots {
    fn claim() -> ThreadSlots {
        let t = tables();
        let idx = t.free.lock().unwrap_or_else(|e| e.into_inner()).pop();
        let idx = match idx {
            Some(i) => i as usize,
            None => {
                let i = t.next.fetch_add(1, Ordering::Relaxed) as usize;
                assert!(i < MAX_SLOTS, "immortal descriptor slots exhausted");
                i
            }
        };
        // Materialize on first use of this index. Exclusive: only the
        // index holder stores, and an index is held by one thread at a
        // time. Release pairs with the Acquire in `mcas_slot`.
        if t.mcas[idx].load(Ordering::Acquire).is_null() {
            t.mcas[idx].store(Box::leak(Box::new(ImmortalMcas::new())), Ordering::Release);
            t.rdcss[idx].store(Box::leak(Box::new(ImmortalRdcss::new())), Ordering::Release);
        }
        ThreadSlots {
            idx,
            mcas: mcas_slot(idx),
            rdcss: rdcss_slot(idx),
        }
    }
}

impl Drop for ThreadSlots {
    fn drop(&mut self) {
        // The previous operation may be left mid-claim if the thread was
        // killed in the claim window (Stall-mode crash unwinding through
        // TLS teardown). That strands nothing: the next owner's claim
        // tolerates any prior state and simply bumps past it.
        let t = tables();
        t.free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(self.idx as u32);
    }
}

thread_local! {
    static SLOTS: ThreadSlots = ThreadSlots::claim();
}

/// Runs `f` with the calling thread's slots. On TLS teardown (exit-path
/// MCAS traffic, e.g. a thread-exit flush destroying objects) falls back
/// to claiming a scratch index for the single operation and returning it
/// right after — the same degradation the counter shards use.
#[inline]
fn with_slots<R>(f: impl FnOnce(&ThreadSlots) -> R) -> R {
    let mut f = Some(f);
    match SLOTS.try_with(|s| (f.take().expect("with_slots closure reused"))(s)) {
        Ok(r) => r,
        Err(_) => {
            let scratch = ThreadSlots::claim();
            (f.take().expect("with_slots closure reused"))(&scratch)
        }
    }
}

/// One claim of an MCAS slot: bumps the sequence, rewrites the entry
/// fields, publishes `(seq, UNDECIDED)`. Returns the new sequence.
///
/// The claim is single-writer (the slot's owning thread); concurrent
/// helpers only CAS the status from a seq-matching `UNDECIDED`, which the
/// CLAIMING hold keeps impossible mid-rewrite. The Acquire swap keeps the
/// field writes from floating above the CLAIMING edge; the Release
/// publish keeps them from sinking below it.
fn claim_mcas(slot: &ImmortalMcas, entries: &[Entry]) -> u64 {
    let prev = slot.status.load(Ordering::Relaxed);
    let seq = (status_seq(prev) + 1) & SEQ_MASK;
    if status_seq(prev) > 0 {
        incr(Counter::DescImmortalReuse);
    }
    yield_point(InstrSite::DescClaim);
    slot.status
        .swap(pack_status(seq, CLAIMING), Ordering::Acquire);
    slot.len.store(entries.len() as u64, Ordering::Relaxed);
    for (i, e) in entries.iter().enumerate() {
        slot.cells[i].store(e.cell as *mut AtomicU64, Ordering::Relaxed);
        slot.olds[i].store(e.old, Ordering::Relaxed);
        slot.news[i].store(e.new, Ordering::Relaxed);
    }
    yield_point(InstrSite::DescSeqBump);
    slot.status
        .store(pack_status(seq, UNDECIDED), Ordering::Release);
    seq
}

/// Seqlock read of an MCAS slot's entries, valid only if the slot still
/// carries `seq`. `None` means the slot has moved on (or is mid-claim):
/// the operation the caller's word named is already decided and fully
/// unlinked, so abandoning is correct — there is nothing left to help.
fn mcas_snapshot(slot: &ImmortalMcas, seq: u64) -> Option<([Entry; MAX_ENTRIES], usize)> {
    let s1 = slot.status.load(Ordering::Acquire);
    if status_seq(s1) != seq || status_state(s1) == CLAIMING {
        incr(Counter::DescSeqInvalid);
        return None;
    }
    let len = (slot.len.load(Ordering::Relaxed) as usize).min(MAX_ENTRIES);
    let mut entries = [EMPTY_ENTRY; MAX_ENTRIES];
    for (i, e) in entries.iter_mut().take(len).enumerate() {
        e.cell = slot.cells[i].load(Ordering::Relaxed);
        e.old = slot.olds[i].load(Ordering::Relaxed);
        e.new = slot.news[i].load(Ordering::Relaxed);
    }
    // Order the field reads before the re-read: if the sequence is
    // unchanged, no claim intervened and every field belongs to `seq`.
    fence(Ordering::Acquire);
    let s2 = slot.status.load(Ordering::Relaxed);
    if status_seq(s2) != seq || status_state(s2) == CLAIMING {
        incr(Counter::DescSeqInvalid);
        return None;
    }
    Some((entries, len))
}

/// Whether the MCAS operation named by `mcas_word` is still undecided.
/// The owner's status word is sequence-packed, so "undecided" means
/// *undecided at that sequence* — a reused slot reads as decided, which
/// is exactly right (the named operation is over).
fn owner_mcas_undecided(mcas_word: u64) -> bool {
    let slot = mcas_slot(desc::unpack_slot(mcas_word));
    slot.status.load(Ordering::SeqCst) == pack_status(desc::unpack_seq(mcas_word), UNDECIDED)
}

/// Finishes an RDCSS whose packed word was found in a cell: installs the
/// MCAS word if the operation is still undecided, else rolls back. Every
/// field read is guarded by the slot's seqlock: if the owning thread has
/// moved on to a later RDCSS, this one is already complete (its word left
/// every cell before the slot could be reused), so abandoning is correct.
fn rdcss_complete(tagged: u64) {
    let slot = rdcss_slot(desc::unpack_slot(tagged));
    let seq = desc::unpack_seq(tagged);
    yield_point(InstrSite::DescHelperValidate);
    let s1 = slot.seq.load(Ordering::Acquire);
    if s1 != seq << 1 {
        // Stale (or mid-claim, which also means a later sequence).
        incr(Counter::DescSeqInvalid);
        incr(Counter::DescHelpAbandoned);
        return;
    }
    let data = slot.data.load(Ordering::Relaxed);
    let old = slot.old.load(Ordering::Relaxed);
    let mcas_word = slot.mcas_word.load(Ordering::Relaxed);
    fence(Ordering::Acquire);
    if slot.seq.load(Ordering::Relaxed) != s1 {
        incr(Counter::DescSeqInvalid);
        incr(Counter::DescHelpAbandoned);
        return;
    }
    let replacement = if owner_mcas_undecided(mcas_word) {
        mcas_word
    } else {
        old
    };
    // Safety: `data` is a cell inside an allocation that cannot be
    // physically freed while any emulated operation is pinned; the CAS
    // expects the seq-unique `tagged`, so a stale completer (validated
    // above, then raced by a reuse) can never write into a reused cell.
    let _ =
        unsafe { &*data }.compare_exchange(tagged, replacement, Ordering::SeqCst, Ordering::SeqCst);
}

/// Performs one RDCSS for a phase-1 entry of `mcas_word`'s operation,
/// through the calling thread's RDCSS slot (helpers included).
///
/// Returns the (tagged or encoded) word that decided the outcome:
/// `entry.old` means the swap logically happened; anything else is the
/// conflicting content observed.
///
/// The slot is safe to reuse as soon as this returns — completion (ours
/// or a helper's) removed the seq-unique word from the cell, and the
/// word can never be re-installed (any still-running helper's CAS
/// expects the old cell content, which is gone).
fn rdcss(entry: &Entry, mcas_word: u64) -> u64 {
    // Fast path: peek before claiming a slot.
    // Safety: cell alive while pinned (see module docs).
    let cell = unsafe { &*entry.cell };
    let peek = cell.load(Ordering::SeqCst);
    if peek & TAG_MASK == TAG_VALUE && peek != entry.old {
        return peek;
    }

    with_slots(|slots| {
        let slot = slots.rdcss;
        let prev = slot.seq.load(Ordering::Relaxed);
        let seq = ((prev >> 1) + 1) & SEQ_MASK;
        if prev >> 1 > 0 {
            incr(Counter::DescImmortalReuse);
        }
        yield_point(InstrSite::DescClaim);
        slot.seq.swap((seq << 1) | 1, Ordering::Acquire);
        slot.data
            .store(entry.cell as *mut AtomicU64, Ordering::Relaxed);
        slot.old.store(entry.old, Ordering::Relaxed);
        slot.mcas_word.store(mcas_word, Ordering::Relaxed);
        yield_point(InstrSite::DescSeqBump);
        slot.seq.store(seq << 1, Ordering::Release);
        let tagged = desc::pack(slots.idx, seq, TAG_RDCSS);
        loop {
            match cell.compare_exchange(entry.old, tagged, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => {
                    // Installed but not yet resolved: the exact window
                    // where a helping thread can observe the half-done
                    // operation.
                    yield_point(InstrSite::RdcssInstalled);
                    rdcss_complete(tagged);
                    break entry.old;
                }
                Err(cur) if cur & TAG_MASK == TAG_RDCSS => {
                    // Help the other RDCSS out of the way and retry.
                    incr(Counter::RdcssHelp);
                    rdcss_complete(cur);
                }
                Err(cur) => break cur,
            }
        }
    })
}

/// Runs (or helps) the MCAS published as `tagged` to completion.
/// Returns whether the operation succeeded (for an abandoned help,
/// `false` — callers helping a foreign operation ignore the value, and
/// an owner can never observe its own slot as stale).
///
/// Every access to the slot is sequence-validated; a stale word (the
/// slot moved on) is abandoned — the operation it named is decided and
/// fully unlinked, so there is nothing to help and acting on the slot's
/// *current* contents would mean helping a recycled operation with the
/// wrong entries (the signature bug class of immortal descriptors).
fn mcas_help(tagged: u64) -> bool {
    let slot = mcas_slot(desc::unpack_slot(tagged));
    let seq = desc::unpack_seq(tagged);
    yield_point(InstrSite::DescHelperValidate);
    let st = slot.status.load(Ordering::SeqCst);
    if status_seq(st) != seq {
        incr(Counter::DescSeqInvalid);
        incr(Counter::DescHelpAbandoned);
        return false;
    }
    if status_state(st) == UNDECIDED {
        let Some((entries, len)) = mcas_snapshot(slot, seq) else {
            incr(Counter::DescHelpAbandoned);
            return false;
        };
        let mut outcome = SUCCEEDED;
        'phase1: for entry in &entries[..len] {
            loop {
                let seen = rdcss(entry, tagged);
                if seen == entry.old || seen == tagged {
                    // Installed (by us or a fellow helper): next entry.
                    break;
                }
                if seen & TAG_MASK == TAG_MCAS {
                    // A different operation owns this cell: help it first.
                    incr(Counter::McasHelp);
                    mcas_help(seen);
                    continue;
                }
                // Genuine value mismatch: the whole operation fails.
                outcome = FAILED;
                break 'phase1;
            }
        }
        // Phase 1 is done but the operation is still undecided — the
        // status CAS below is the linearization point. Both compared
        // words carry `seq`, so a stale helper reaching this line after
        // a reuse cannot decide (or corrupt) the slot's new operation.
        yield_point(InstrSite::McasBeforeStatusCas);
        let _ = slot.status.compare_exchange(
            pack_status(seq, UNDECIDED),
            pack_status(seq, outcome),
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }
    // Phase 2: unlink the descriptor word from every cell. Re-validate
    // first: if the slot moved on, the operation is already unlinked
    // (the owner completes phase 2 before returning, and returns before
    // reusing), and the slot's current entries are not ours to touch.
    let st = slot.status.load(Ordering::SeqCst);
    if status_seq(st) != seq {
        incr(Counter::DescSeqInvalid);
        incr(Counter::DescHelpAbandoned);
        return false;
    }
    let succeeded = status_state(st) == SUCCEEDED;
    let Some((entries, len)) = mcas_snapshot(slot, seq) else {
        incr(Counter::DescHelpAbandoned);
        return false;
    };
    for entry in &entries[..len] {
        let replacement = if succeeded { entry.new } else { entry.old };
        // Safety: cell alive while pinned. The CAS expects the
        // seq-unique `tagged`, so even a maximally-stale unlink attempt
        // cannot write into a cell a later operation owns.
        let _ = unsafe { &*entry.cell }.compare_exchange(
            tagged,
            replacement,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }
    succeeded
}

/// Resolves a cell to a plain (encoded) value, helping any in-flight
/// operation it encounters.
fn word_read(word: &AtomicU64) -> u64 {
    loop {
        let w = word.load(Ordering::SeqCst);
        match w & TAG_MASK {
            TAG_VALUE => return w,
            TAG_RDCSS => {
                incr(Counter::McasDescResolve);
                rdcss_complete(w)
            }
            TAG_MCAS => {
                incr(Counter::McasDescResolve);
                mcas_help(w);
            }
            _ => unreachable!("corrupt cell tag"),
        }
    }
}

/// A DCAS-capable cell backed by the lock-free descriptor MCAS.
///
/// This is the strategy used by all LFRC structures unless a benchmark
/// explicitly selects [`crate::LockWord`] for ablation. Its
/// [`mcas`](DcasWord::mcas) updates at most [`MAX_ENTRIES`] cells at
/// once — the capacity of a thread's immortal descriptor slot.
pub struct McasWord {
    word: AtomicU64,
    /// Creation-order id, used as the global MCAS installation order.
    ///
    /// Harris et al. sort by cell *address*; any consistent total order
    /// prevents livelock equally well, and creation order — unlike
    /// addresses — is identical across runs that perform the same
    /// allocation sequence, which is what lets `lfrc-sched` replay a
    /// seeded schedule bit-for-bit (see DESIGN.md).
    order: u64,
}

/// Source of [`McasWord::order`] ids.
static NEXT_CELL_ORDER: AtomicU64 = AtomicU64::new(0);

impl fmt::Debug for McasWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("McasWord")
            .field("value", &self.load())
            .finish()
    }
}

impl DcasWord for McasWord {
    fn new(value: u64) -> Self {
        McasWord {
            word: AtomicU64::new(encode(value)),
            order: NEXT_CELL_ORDER.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn load(&self) -> u64 {
        with_guard(|_| decode(word_read(&self.word)))
    }

    fn store(&self, value: u64) {
        let new = encode(value);
        with_guard(|_| loop {
            let cur = word_read(&self.word);
            if self
                .word
                .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
        })
    }

    fn compare_and_swap(&self, old: u64, new: u64) -> bool {
        let old = encode(old);
        let new = encode(new);
        with_guard(|_| loop {
            let cur = word_read(&self.word);
            if cur != old {
                return false;
            }
            if self
                .word
                .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return true;
            }
        })
    }

    /// # Panics
    ///
    /// If `ops` has more than [`MAX_ENTRIES`] entries.
    fn mcas(ops: &[McasOp<'_, Self>]) -> bool {
        assert!(
            ops.len() <= MAX_ENTRIES,
            "McasWord::mcas takes at most {MAX_ENTRIES} entries, got {}",
            ops.len()
        );
        let mut staged = [EMPTY_ENTRY; MAX_ENTRIES];
        for (slot, op) in staged.iter_mut().zip(ops) {
            *slot = Entry {
                cell: &op.cell.word as *const AtomicU64,
                order: op.cell.order,
                old: encode(op.old),
                new: encode(op.new),
            };
        }
        let entries = &mut staged[..ops.len()];
        // A global installation order prevents livelock between
        // overlapping operations (Harris et al. §4). Creation order is
        // used instead of address order so schedules replay exactly.
        entries.sort_by_key(|e| e.order);
        debug_assert!(
            entries.windows(2).all(|w| w[0].cell != w[1].cell),
            "mcas entries must target distinct cells"
        );
        // The pin is not for the descriptors (they are never freed): it
        // keeps every cell this operation or one it helps may still read
        // on mapped memory, even after the cell's object is retired.
        with_guard(|_| {
            with_slots(|slots| {
                let seq = claim_mcas(slots.mcas, entries);
                // No retirement: the slot is reusable the moment the
                // owning help call returns — phase 2 removed the
                // seq-unique word from every cell, and any helper still
                // holding it validates (and abandons) before touching
                // the slot's next life.
                mcas_help(desc::pack(slots.idx, seq, TAG_MCAS))
            })
        })
    }

    fn strategy_name() -> &'static str {
        "mcas"
    }
}

/// Test-only hooks into the immortal machinery: deterministic
/// construction of stale descriptor words, and the pre-fix (unvalidated)
/// helper the integration suites keep as an executable counterexample.
/// Not part of the crate's API.
#[doc(hidden)]
pub mod test_support {
    use super::*;

    /// The packed word of the calling thread's MCAS slot at its current
    /// sequence — bit-identical to the word the thread's most recent
    /// immortal MCAS published. Performing another MCAS afterwards makes
    /// the returned word stale, which is how tests put a "helper holding
    /// a descriptor across a full reuse cycle" on the schedule.
    pub fn thread_mcas_word() -> u64 {
        with_slots(|s| {
            desc::pack(
                s.idx,
                status_seq(s.mcas.status.load(Ordering::SeqCst)),
                TAG_MCAS,
            )
        })
    }

    /// Whether the slot named by `word` has moved past the word's
    /// sequence (i.e. the word is stale and any help must abandon).
    pub fn seq_moved(word: u64) -> bool {
        let slot = mcas_slot(desc::unpack_slot(word));
        status_seq(slot.status.load(Ordering::SeqCst)) != desc::unpack_seq(word)
    }

    /// The calling thread's immortal slot index.
    pub fn current_slot_index() -> usize {
        with_slots(|s| s.idx)
    }

    /// The real, sequence-validated help path, exactly as helpers run it.
    pub fn validated_help(word: u64) -> bool {
        with_guard(|_| mcas_help(word))
    }

    /// Adopts a *free* slot index and proves it is still usable: claims
    /// it off the free list, runs a full claim/publish/decide cycle on
    /// its MCAS slot, and returns it. Crash tests call this with the
    /// index a Stall-killed thread held mid-claim, to show a crash
    /// inside the claim window strands nothing. Returns `None` if the
    /// index is not currently free (another thread adopted it first — in
    /// which case that thread's own operations exercise it), `Some(ok)`
    /// otherwise.
    pub fn adopt_and_exercise(idx: usize) -> Option<bool> {
        let t = tables();
        {
            let mut free = t.free.lock().unwrap_or_else(|e| e.into_inner());
            let pos = free.iter().position(|&i| i as usize == idx)?;
            free.swap_remove(pos);
        }
        // We now exclusively own `idx`, whatever state its previous
        // owner's crash left it in (untouched, CLAIMING, or UNDECIDED).
        let slot = mcas_slot(idx);
        let before = slot.status.load(Ordering::SeqCst);
        let seq = claim_mcas(slot, &[]);
        let after = slot.status.load(Ordering::SeqCst);
        let ok = after == pack_status(seq, UNDECIDED) && seq != status_seq(before);
        // Decide the probe op so the slot is not left helpable, then
        // hand the index back.
        let _ = slot.status.compare_exchange(
            pack_status(seq, UNDECIDED),
            pack_status(seq, FAILED),
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        t.free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(idx as u32);
        Some(ok)
    }

    /// The pre-fix helper this PR's validation replaces: having captured
    /// `word` earlier, it "finishes" the operation by CASing the slot's
    /// status to FAILED whenever it observes UNDECIDED — without
    /// comparing the captured sequence against the slot's current one.
    /// If the slot was reused, this spuriously fails the *new* operation
    /// it never examined: the signature bug class of immortal
    /// descriptors. Returns whether the CAS landed.
    pub fn naive_stale_status_cas(word: u64) -> bool {
        let slot = mcas_slot(desc::unpack_slot(word));
        yield_point(InstrSite::DescHelperValidate);
        let st = slot.status.load(Ordering::SeqCst);
        if status_state(st) == UNDECIDED {
            slot.status
                .compare_exchange(
                    st,
                    pack_status(status_seq(st), FAILED),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn encode_decode_roundtrip() {
        for v in [0u64, 1, 42, MAX_PAYLOAD] {
            assert_eq!(decode(encode(v)), v);
        }
    }

    #[test]
    fn mcas_three_way_rotate() {
        let cells: Vec<McasWord> = (0..3).map(McasWord::new).collect();
        let ok = McasWord::mcas(&[
            McasOp {
                cell: &cells[0],
                old: 0,
                new: 1,
            },
            McasOp {
                cell: &cells[1],
                old: 1,
                new: 2,
            },
            McasOp {
                cell: &cells[2],
                old: 2,
                new: 0,
            },
        ]);
        assert!(ok);
        assert_eq!(cells[0].load(), 1);
        assert_eq!(cells[1].load(), 2);
        assert_eq!(cells[2].load(), 0);
    }

    #[test]
    fn mcas_all_or_nothing() {
        let cells: Vec<McasWord> = (0..4).map(|_| McasWord::new(5)).collect();
        let ok = McasWord::mcas(&[
            McasOp {
                cell: &cells[0],
                old: 5,
                new: 6,
            },
            McasOp {
                cell: &cells[1],
                old: 5,
                new: 6,
            },
            McasOp {
                cell: &cells[2],
                old: 999,
                new: 6,
            }, // mismatch
            McasOp {
                cell: &cells[3],
                old: 5,
                new: 6,
            },
        ]);
        assert!(!ok);
        for c in &cells {
            assert_eq!(c.load(), 5, "failed MCAS must leave every cell untouched");
        }
    }

    #[test]
    fn identity_dcas_validates_snapshot() {
        // The no-op DCAS (new == old) is used by tests as an atomic
        // two-cell snapshot validator; it must succeed and leave values.
        let a = McasWord::new(7);
        let b = McasWord::new(8);
        assert!(McasWord::dcas(&a, &b, 7, 8, 7, 8));
        assert_eq!(a.load(), 7);
        assert_eq!(b.load(), 8);
    }

    #[test]
    fn unique_winner_under_contention() {
        const THREADS: usize = 8;
        let a = McasWord::new(0);
        let b = McasWord::new(0);
        let barrier = Barrier::new(THREADS);
        let mut wins = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let (a, b, barrier) = (&a, &b, &barrier);
                handles.push(s.spawn(move || {
                    barrier.wait();
                    McasWord::dcas(a, b, 0, 0, t as u64 + 1, t as u64 + 1)
                }));
            }
            for h in handles {
                wins.push(h.join().unwrap());
            }
        });
        assert_eq!(wins.iter().filter(|w| **w).count(), 1);
        let winner = a.load();
        assert_eq!(b.load(), winner);
        assert!((1..=THREADS as u64).contains(&winner));
    }

    #[test]
    fn bank_transfer_conserves_sum() {
        // Two accounts, concurrent transfers via DCAS, concurrent readers
        // validating snapshots with identity-DCAS: the observed sum must
        // always be exactly the initial total.
        const TOTAL: u64 = 1_000;
        const TRANSFERS: usize = 3_000;
        const MOVERS: usize = 4;
        const READERS: usize = 3;
        let a = McasWord::new(TOTAL);
        let b = McasWord::new(0);
        let barrier = Barrier::new(MOVERS + READERS);
        let done = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..MOVERS {
                let (a, b, barrier) = (&a, &b, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let mut moved = 0;
                    let mut x = 1 + t as u64;
                    while moved < TRANSFERS {
                        let va = a.load();
                        let vb = b.load();
                        let amt = x % 7;
                        // Transfer in whichever direction has the funds,
                        // so no mover can starve on a drained account.
                        let (na, nb) = if va >= amt {
                            (va - amt, vb + amt)
                        } else {
                            (va + amt, vb - amt.min(vb))
                        };
                        if na + nb != TOTAL {
                            // b also short (transient torn reads): retry.
                            continue;
                        }
                        if McasWord::dcas(a, b, va, vb, na, nb) {
                            moved += 1;
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(1) >> 33;
                        }
                    }
                });
            }
            let movers_done = &done;
            for _ in 0..READERS {
                let (a, b, barrier, done) = (&a, &b, &barrier, movers_done);
                s.spawn(move || {
                    barrier.wait();
                    let mut validated = 0u64;
                    while done.load(Ordering::Relaxed) == 0 || validated == 0 {
                        let va = a.load();
                        let vb = b.load();
                        // Identity DCAS: succeeds iff (va, vb) was an
                        // atomic snapshot.
                        if McasWord::dcas(a, b, va, vb, va, vb) {
                            assert_eq!(va + vb, TOTAL, "torn snapshot observed");
                            validated += 1;
                        }
                    }
                    assert!(validated > 0);
                });
            }
            // Scope: wait for movers by joining implicitly at scope end is
            // not possible before flagging, so flag from a watcher thread.
            s.spawn(|| {
                // The mover threads finish on their own; this watcher just
                // flips the flag once the sum is fully in motion. Sleep-free:
                // spin until both cells have been touched, then flag.
                while a.load() == TOTAL && b.load() == 0 {
                    std::thread::yield_now();
                }
                done.store(1, Ordering::Relaxed);
            });
        });
        assert_eq!(a.load() + b.load(), TOTAL);
    }

    #[test]
    fn overlapping_mcas_stress() {
        // Many threads rotate values around overlapping triples of cells;
        // the multiset of values must be preserved.
        const CELLS: usize = 8;
        const THREADS: usize = 6;
        const OPS: usize = 500;
        let cells: Vec<McasWord> = (0..CELLS as u64).map(McasWord::new).collect();
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (cells, barrier) = (&cells, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let mut rng = 0x9e3779b97f4a7c15u64.wrapping_mul(t as u64 + 1) | 1;
                    let mut next = || {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        rng
                    };
                    let mut done = 0;
                    while done < OPS {
                        let i = (next() % CELLS as u64) as usize;
                        let j = (next() % CELLS as u64) as usize;
                        let k = (next() % CELLS as u64) as usize;
                        if i == j || j == k || i == k {
                            continue;
                        }
                        let (vi, vj, vk) = (cells[i].load(), cells[j].load(), cells[k].load());
                        if McasWord::mcas(&[
                            McasOp {
                                cell: &cells[i],
                                old: vi,
                                new: vk,
                            },
                            McasOp {
                                cell: &cells[j],
                                old: vj,
                                new: vi,
                            },
                            McasOp {
                                cell: &cells[k],
                                old: vk,
                                new: vj,
                            },
                        ]) {
                            done += 1;
                        }
                    }
                });
            }
        });
        let mut values: Vec<u64> = cells.iter().map(|c| c.load()).collect();
        values.sort_unstable();
        assert_eq!(values, (0..CELLS as u64).collect::<Vec<_>>());
        crate::quiesce();
    }

    #[test]
    fn fetch_add_is_atomic() {
        const THREADS: usize = 8;
        const PER: usize = 1_000;
        let c = McasWord::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..PER {
                        c.fetch_add(1);
                    }
                });
            }
        });
        assert_eq!(c.load(), (THREADS * PER) as u64);
    }

    #[test]
    fn fetch_add_negative() {
        let c = McasWord::new(10);
        assert_eq!(c.fetch_add(-3), 10);
        assert_eq!(c.load(), 7);
    }

    #[test]
    fn status_packing_roundtrip() {
        for seq in [0u64, 1, 42, SEQ_MASK] {
            for state in [UNDECIDED, SUCCEEDED, FAILED, CLAIMING] {
                let st = pack_status(seq, state);
                assert_eq!(status_seq(st), seq & SEQ_MASK);
                assert_eq!(status_state(st), state);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 4 entries")]
    fn mcas_rejects_more_than_max_entries() {
        let cells: Vec<McasWord> = (0..5).map(McasWord::new).collect();
        let ops: Vec<McasOp<'_, McasWord>> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| McasOp {
                cell: c,
                old: i as u64,
                new: i as u64,
            })
            .collect();
        McasWord::mcas(&ops);
    }

    #[test]
    fn stale_immortal_word_is_abandoned_not_helped() {
        let a = McasWord::new(0);
        let b = McasWord::new(0);
        assert!(McasWord::dcas(&a, &b, 0, 0, 1, 1));
        // The word op #1 published, captured across a full reuse cycle.
        let stale = test_support::thread_mcas_word();
        assert!(!test_support::seq_moved(stale));
        assert!(McasWord::dcas(&a, &b, 1, 1, 2, 2));
        assert!(test_support::seq_moved(stale));
        // Helping with the stale word must abandon and touch nothing.
        assert!(!test_support::validated_help(stale));
        assert_eq!(a.load(), 2);
        assert_eq!(b.load(), 2);
    }

    #[test]
    fn naive_stale_cas_corrupts_a_reused_slot_and_validation_does_not() {
        // Single-threaded model of the helper-race bug: while an
        // operation is in its published-but-undecided window, a stale
        // helper that skips sequence validation fails it spuriously. The
        // window is entered here by claiming without running help.
        let a = McasWord::new(0);
        let b = McasWord::new(0);
        assert!(McasWord::dcas(&a, &b, 0, 0, 1, 1));
        let stale = test_support::thread_mcas_word();
        // Claim the slot for a new operation but do not decide it yet.
        let cells = [
            (&a.word as *const AtomicU64, encode(1), encode(2)),
            (&b.word as *const AtomicU64, encode(1), encode(2)),
        ];
        let entries: Vec<Entry> = cells
            .iter()
            .map(|&(cell, old, new)| Entry {
                cell,
                order: 0,
                old,
                new,
            })
            .collect();
        let seq = with_slots(|s| claim_mcas(s.mcas, &entries));
        // The validated path abandons the stale word...
        assert!(!test_support::validated_help(stale));
        let undecided = with_slots(|s| s.mcas.status.load(Ordering::SeqCst));
        assert_eq!(
            undecided,
            pack_status(seq, UNDECIDED),
            "validated help must not decide"
        );
        // ...while the naive path spuriously fails the new operation.
        assert!(test_support::naive_stale_status_cas(stale));
        let st = with_slots(|s| s.mcas.status.load(Ordering::SeqCst));
        assert_eq!(
            st,
            pack_status(seq, FAILED),
            "naive help corrupted the reused slot"
        );
        // The claimed op never installed anything and is now decided, so
        // the slot's next claim starts clean.
    }

    #[test]
    fn immortal_attempts_do_not_allocate_or_defer() {
        let a = McasWord::new(0);
        let b = McasWord::new(0);
        // Warm up: first touch materializes the thread's slots.
        assert!(McasWord::dcas(&a, &b, 0, 0, 1, 1));
        let reuse = lfrc_obs::counters::total(Counter::DescImmortalReuse);
        for i in 1..=64u64 {
            assert!(McasWord::dcas(&a, &b, i, i, i + 1, i + 1));
        }
        // Counters are process-global and other tests run concurrently,
        // so only a monotone lower bound is assertable here; the exact
        // zero-allocation/zero-deferral deltas live in tests/obs.rs
        // under its serial lock. Reuse fires at least once per attempt.
        if lfrc_obs::enabled() {
            assert!(
                lfrc_obs::counters::total(Counter::DescImmortalReuse) >= reuse + 64,
                "every immortal attempt must reuse the slot"
            );
        }
    }
}
