//! The LFRC operations — the paper's Figure 2, operation for operation.
//!
//! These are the raw, pointer-level operations; the counting discipline
//! (paper §3 steps 5–6) is on the caller, which is why they are `unsafe`.
//! The safe layer ([`PtrField`]/[`Local`](crate::Local)/
//! [`SharedField`](crate::SharedField)) wraps them with RAII so the
//! discipline holds by construction.
//!
//! Correspondence to the paper:
//!
//! | paper | here | Figure 2 lines |
//! |---|---|---|
//! | `LFRCLoad(A, dest)` | [`load`] | 1–12 |
//! | `LFRCDestroy(p)` | [`crate::destroy::destroy`] | 13–15 |
//! | `add_to_rc(p, v)` | [`add_to_rc`] | 16–20 |
//! | `LFRCStore(A, v)` | [`store`] | 21–28 |
//! | `LFRCStoreAlloc(A, v)` | [`store_alloc`] | (Figure 1 caption) |
//! | `LFRCCopy(v, w)` | [`copy`] | 29–32 |
//! | `LFRCDCAS(A0, A1, …)` | [`dcas`] | 33–39 |
//! | `LFRCCAS(A0, …)` | [`cas`] | ("obvious simplification") |
//!
//! Two additions beyond Figure 2, both flagged in DESIGN.md:
//!
//! * [`dcas_ptr_word`] — a pointer×plain-word DCAS, the "straightforward
//!   extension to other operations" the paper mentions (§2.1); the
//!   repaired Snark pops need it to claim a value atomically with a hat
//!   move.
//! * [`load_naive_cas`] — the **deliberately unsound** CAS-only load the
//!   paper argues *against* (§1: "there is a risk that the object will be
//!   freed before we increment the reference count"). It exists solely as
//!   the counterexample for experiment E5 and requires quarantine mode.

use std::ptr;

use lfrc_dcas::DcasWord;

use crate::destroy::destroy;
use crate::object::{ptr_to_word, word_to_ptr, LfrcBox, Links, PtrField};

/// The paper's `add_to_rc`: atomically adds `v` to `p`'s reference count,
/// returning the previous count (Figure 2 lines 16–20; realized with the
/// substrate's CAS loop).
///
/// # Safety
///
/// The caller must hold a counted reference to `p` (so the count cannot
/// concurrently reach zero), and `p` must be non-null.
pub unsafe fn add_to_rc<T: Links<W>, W: DcasWord>(p: *mut LfrcBox<T, W>, v: i64) -> u64 {
    debug_assert!(!p.is_null());
    // Safety: caller holds a counted reference; object is alive.
    let obj = unsafe { &*p };
    obj.assert_alive();
    let prev = obj.rc.fetch_add(v);
    if v > 0 {
        lfrc_obs::counters::incr(lfrc_obs::Counter::RcIncrement);
        lfrc_obs::recorder::record(lfrc_obs::EventKind::Increment, p as usize, prev);
    }
    prev
}

/// `LFRCLoad` (Figure 2 lines 1–12): loads the pointer in `a` into
/// `*dest`, adjusting reference counts.
///
/// The loaded object's count is incremented **atomically with a check
/// that `a` still points to it** — the DCAS at line 9, the heart of the
/// methodology. The reference previously held by `*dest` is destroyed
/// (line 12).
///
/// # Safety
///
/// * The object containing `a` must be alive for the duration (the caller
///   holds a counted reference to it, or `a` is a structure root), **or**
///   its memory must be kept mapped by the emulation pin (a pin-scoped
///   borrow, `crate::defer`). The second case is sound because the DCAS
///   validates the field *atomically with* the increment: if the
///   container was freed, harvest has nulled `a` (load returns null) or
///   is about to (the DCAS fails and the retry observes the null) — a
///   stale success is impossible, since the field's own count keeps the
///   referent alive until the moment harvest clears it.
/// * `*dest` must be null or a counted reference owned by the caller.
/// * On return, `*dest` is a counted reference (or null) owned by the
///   caller.
pub unsafe fn load<T: Links<W>, W: DcasWord>(a: &PtrField<T, W>, dest: &mut *mut LfrcBox<T, W>) {
    let olddest = *dest; // line 1
    loop {
        // The emulation guard spans the pointer read, the count read, and
        // the DCAS: it keeps the referent's memory mapped even if the
        // object is logically freed mid-window — the same stray read a
        // hardware DCAS would perform harmlessly (see lfrc-dcas docs).
        let done = lfrc_dcas::with_guard(|_| {
            lfrc_obs::counters::incr(lfrc_obs::Counter::LoadDcasAttempt);
            let aval = a.raw().load(); // line 4
            if aval == 0 {
                *dest = ptr::null_mut(); // lines 5–7
                return true;
            }
            // Safety: `a` held a pointer to this object at the load's
            // linearization point, so it was alive then; the emulation
            // guard keeps the memory mapped since.
            let obj = unsafe { &*word_to_ptr::<T, W>(aval) };
            let r = obj.rc.load(); // line 8
                                   // The window between reading the count and the DCAS is where
                                   // a CAS-only protocol breaks (§1) — the prime target for
                                   // schedule exploration.
            lfrc_dcas::instrument::yield_point(lfrc_dcas::InstrSite::LoadDcasWindow);
            // Line 9: increment the count *iff* the pointer still exists.
            if W::dcas(a.raw(), &obj.rc, aval, r, aval, r + 1) {
                lfrc_obs::recorder::record(lfrc_obs::EventKind::LoadAcquire, aval as usize, r + 1);
                *dest = word_to_ptr(aval); // line 10
                true
            } else {
                false
            }
        });
        if done {
            break;
        }
        lfrc_obs::counters::incr(lfrc_obs::Counter::LoadDcasRetry);
    }
    // Safety: `olddest` was a caller-owned counted reference (or null).
    unsafe { destroy(olddest) }; // line 12
}

/// The deferred fast path's uncounted read (DESIGN.md §5.9): returns the
/// pointer currently in `a` as a **plain load** — no DCAS, no count
/// traffic. Compare [`load`]'s loop; this is one cell read.
///
/// The safe wrapper is
/// [`PtrField::load_deferred`](crate::PtrField::load_deferred), which
/// ties the result to a [`Pin`](crate::defer::Pin) scope.
///
/// # Safety
///
/// * The object containing `a` must be alive for the duration (as for
///   [`load`]).
/// * The caller must hold the emulator's epoch pin
///   ([`crate::defer::pinned`] / `lfrc_dcas::with_guard`) for the entire
///   lifetime of the returned pointer: the pin is all that keeps the
///   referent's memory mapped, since no count is taken. The referent may
///   be *logically* freed at any time — dereference only immutable
///   payload, and validate via its reference count before trusting link
///   reads (see `crate::defer`).
pub unsafe fn load_deferred<T: Links<W>, W: DcasWord>(a: &PtrField<T, W>) -> *mut LfrcBox<T, W> {
    // An uncounted read racing destroys by design — let the scheduler
    // interleave here.
    lfrc_dcas::instrument::yield_point(lfrc_dcas::InstrSite::BorrowLoad);
    // Counter only — no flight-recorder event: this is the hot path the
    // E11 overhead budget is measured on.
    lfrc_obs::counters::incr(lfrc_obs::Counter::LoadDeferred);
    word_to_ptr(a.raw().load())
}

/// `LFRCStore` (Figure 2 lines 21–28): stores counted pointer `v` into
/// `a`, destroying the reference the location previously held.
///
/// # Safety
///
/// `v` must be null or a counted reference that remains owned by the
/// caller (its count is incremented here, line 23).
pub unsafe fn store<T: Links<W>, W: DcasWord>(a: &PtrField<T, W>, v: *mut LfrcBox<T, W>) {
    if !v.is_null() {
        // Safety: caller holds `v` counted.
        unsafe { add_to_rc(v, 1) }; // lines 22–23
    }
    // Safety: transferring the +1 into the location.
    unsafe { store_precounted(a, v) }
}

/// `LFRCStoreAlloc` (Figure 1 caption): like [`store`] but *consumes* the
/// caller's count instead of incrementing — for storing the result of a
/// fresh allocation without an extra increment/destroy round-trip.
///
/// # Safety
///
/// `v` must be null or a counted reference whose count the caller hereby
/// gives up.
pub unsafe fn store_alloc<T: Links<W>, W: DcasWord>(a: &PtrField<T, W>, v: *mut LfrcBox<T, W>) {
    // Safety: per contract the +1 is donated by the caller.
    unsafe { store_precounted(a, v) }
}

/// Common tail of `store`/`store_alloc`: `v`'s count already covers the
/// reference about to be created (lines 24–28).
unsafe fn store_precounted<T: Links<W>, W: DcasWord>(a: &PtrField<T, W>, v: *mut LfrcBox<T, W>) {
    let vw = ptr_to_word(v);
    loop {
        let oldval = a.raw().load(); // line 25
        if a.raw().compare_and_swap(oldval, vw) {
            // line 26: we created the pre-counted pointer and destroyed
            // the one the location held.
            // Safety: the successful CAS transferred the location's old
            // reference to us.
            unsafe { destroy(word_to_ptr::<T, W>(oldval)) }; // line 27
            return;
        }
    }
}

/// `LFRCCopy` (Figure 2 lines 29–32): assigns local pointer value `w`
/// into local variable `*v`, adjusting counts.
///
/// # Safety
///
/// `w` must be null or a counted reference owned by the caller; `*v` must
/// be null or a counted reference owned by the caller (it is destroyed).
pub unsafe fn copy<T: Links<W>, W: DcasWord>(v: &mut *mut LfrcBox<T, W>, w: *mut LfrcBox<T, W>) {
    if !w.is_null() {
        // Safety: caller holds `w` counted.
        unsafe { add_to_rc(w, 1) }; // lines 29–30
    }
    let old = *v;
    *v = w; // line 32
            // Safety: `old` was caller-owned.
    unsafe { destroy(old) }; // line 31
}

/// `LFRCCAS`: the "obvious simplification" of [`dcas`] to one location.
///
/// Returns `true` iff `a0` held `old0` and now holds `new0`.
///
/// # Safety
///
/// `new0` must be null or a counted reference owned by the caller.
/// `old0` must be null, a counted reference owned by the caller, **or a
/// pin-scoped borrowed pointer** (`crate::defer`): `old0` is used only
/// for identity before the swap — nothing dereferences it — and on
/// success the reference destroyed is the *location's own* count (the
/// location holding `old0` proves the object was alive). The pin rules
/// out the address having been recycled, so word equality implies same
/// object.
pub unsafe fn cas<T: Links<W>, W: DcasWord>(
    a0: &PtrField<T, W>,
    old0: *mut LfrcBox<T, W>,
    new0: *mut LfrcBox<T, W>,
) -> bool {
    if !new0.is_null() {
        // Safety: caller holds `new0` counted.
        unsafe { add_to_rc(new0, 1) };
    }
    if a0
        .raw()
        .compare_and_swap(ptr_to_word(old0), ptr_to_word(new0))
    {
        // Safety: success transferred the location's old reference to us.
        unsafe { destroy(old0) };
        true
    } else {
        // Compensate the speculative increment (paper: "provided that the
        // thread eventually either creates the pointer, or decrements the
        // reference count to compensate").
        // Safety: we hold the +1 from above.
        unsafe { destroy(new0) };
        false
    }
}

/// [`cas`] for the deferred fast path (DESIGN.md §5.9): identical swap
/// semantics, but a successful swap **parks** the displaced reference on
/// the calling thread's decrement buffer
/// ([`crate::defer::defer_destroy_raw`]) instead of destroying it — the
/// hot loop performs no decrement, no cascade, no free.
///
/// The failure-path compensation stays eager: the speculative `+1` on
/// `new0` cannot be the last count (the caller holds `new0`), so undoing
/// it never cascades.
///
/// # Safety
///
/// As for [`cas`] (including the borrowed-`old0` allowance).
pub unsafe fn cas_deferred<T: Links<W>, W: DcasWord>(
    a0: &PtrField<T, W>,
    old0: *mut LfrcBox<T, W>,
    new0: *mut LfrcBox<T, W>,
) -> bool {
    if !new0.is_null() {
        // Safety: caller holds `new0` counted.
        unsafe { add_to_rc(new0, 1) };
    }
    if a0
        .raw()
        .compare_and_swap(ptr_to_word(old0), ptr_to_word(new0))
    {
        // Safety: success transferred the location's old reference to us;
        // the buffer takes ownership of that count unit.
        unsafe { crate::defer::defer_destroy_raw(old0) };
        true
    } else {
        // Safety: we hold the +1 from above; see the eager note in the
        // doc comment.
        unsafe { destroy(new0) };
        false
    }
}

/// `LFRCDCAS` (Figure 2 lines 33–39): atomic double compare-and-swap over
/// two pointer locations, adjusting counts.
///
/// # Safety
///
/// All four pointer arguments must be null or counted references owned by
/// the caller; both locations' containing objects must be alive.
#[allow(clippy::too_many_arguments)]
pub unsafe fn dcas<T: Links<W>, W: DcasWord>(
    a0: &PtrField<T, W>,
    a1: &PtrField<T, W>,
    old0: *mut LfrcBox<T, W>,
    old1: *mut LfrcBox<T, W>,
    new0: *mut LfrcBox<T, W>,
    new1: *mut LfrcBox<T, W>,
) -> bool {
    if !new0.is_null() {
        // Safety: caller holds counted references.
        unsafe { add_to_rc(new0, 1) }; // line 33
    }
    if !new1.is_null() {
        unsafe { add_to_rc(new1, 1) }; // line 34
    }
    if W::dcas(
        a0.raw(),
        a1.raw(),
        ptr_to_word(old0),
        ptr_to_word(old1),
        ptr_to_word(new0),
        ptr_to_word(new1),
    ) {
        // Lines 36–37: we destroyed the two references the locations held.
        // Safety: success transferred both to us.
        unsafe {
            destroy(old0);
            destroy(old1);
        }
        true
    } else {
        // Lines 38–39: compensate the speculative increments.
        // Safety: we hold both +1s.
        unsafe {
            destroy(new0);
            destroy(new1);
        }
        false
    }
}

/// Mixed DCAS: one pointer location and one plain word cell.
///
/// The paper notes (§2.1) that extending the operation set is
/// straightforward; this extension lets an algorithm atomically move a
/// pointer *and* update a non-pointer word — the repaired Snark pops use
/// it to claim a node's value while retargeting a hat.
///
/// Reference counts are adjusted for the pointer location only.
///
/// # Safety
///
/// * `new` must be null or a counted reference owned by the caller (its
///   count is incremented up front).
/// * `old` must be null, a counted reference owned by the caller, **or a
///   pin-scoped borrowed pointer**, as for [`cas`]: it is identity only,
///   and on success the reference destroyed is the location's own.
/// * `word` must be a cell inside an object the caller holds a counted
///   reference to (or a structure root), so it cannot be freed mid-call;
///   the same holds for `a` when it is a field of an object.
#[allow(clippy::too_many_arguments)]
pub unsafe fn dcas_ptr_word<T: Links<W>, W: DcasWord>(
    a: &PtrField<T, W>,
    word: &W,
    old: *mut LfrcBox<T, W>,
    word_old: u64,
    new: *mut LfrcBox<T, W>,
    word_new: u64,
) -> bool {
    if !new.is_null() {
        // Safety: caller holds `new` counted.
        unsafe { add_to_rc(new, 1) };
    }
    if W::dcas(
        a.raw(),
        word,
        ptr_to_word(old),
        word_old,
        ptr_to_word(new),
        word_new,
    ) {
        // Safety: success transferred the location's reference to us.
        unsafe { destroy(old) };
        true
    } else {
        // Safety: we hold the +1.
        unsafe { destroy(new) };
        false
    }
}

/// Release for the naive CAS-only protocol (experiment E5): like
/// [`destroy`](crate::destroy::destroy()), but tolerant of the protocol's
/// own defect — the reference being released may have landed on an object
/// that was concurrently freed, in which case a cascading destroy would
/// double-free. Such events are counted in the census instead.
///
/// # Safety
///
/// As for `destroy`, plus: the census must be in quarantine mode (freed
/// objects' memory must still be mapped).
pub unsafe fn destroy_tolerant<T: Links<W>, W: DcasWord>(v: *mut LfrcBox<T, W>) {
    let mut stack: Vec<*mut LfrcBox<T, W>> = vec![v];
    while let Some(p) = stack.pop() {
        if p.is_null() {
            continue;
        }
        // Safety: quarantine keeps the memory mapped even if freed.
        let obj = unsafe { &*p };
        lfrc_obs::counters::incr(lfrc_obs::Counter::RcDecrement);
        if obj.rc.fetch_add(-1) == 1 {
            if !obj.is_alive() {
                // We held the last count of an object that was *already*
                // freed — the naive protocol resurrected it earlier.
                lfrc_obs::recorder::record(lfrc_obs::EventKind::RcOnFreed, p as usize, 0);
                obj.census.note_rc_on_freed();
                lfrc_obs::recorder::note_violation("rc decrement on freed object", p as usize);
                continue;
            }
            obj.value.for_each_link(&mut |field| {
                let child = word_to_ptr::<T, W>(field.raw().load());
                field.raw().store(0);
                stack.push(child);
            });
            // Safety: count is zero and links are harvested; free_object
            // itself tolerates the poison-window race via a canary swap.
            unsafe { crate::object::free_object(p) };
        }
    }
}

/// The **unsound CAS-only load** the paper warns against (§1) — kept as a
/// counterexample for experiment E5. Never use outside that experiment.
///
/// Protocol: read the pointer, increment the referent's count with a
/// plain `fetch_add`, then re-check the pointer; on mismatch, undo and
/// retry. The defect: the increment can hit an object that was freed
/// between the read and the increment. Each such event is detected via
/// the canary and recorded in the census as `rc_on_freed`.
///
/// # Safety
///
/// In addition to [`load`]'s contract, the heap's census **must be in
/// quarantine mode** (asserted): only quarantine keeps the prematurely
/// touched memory mapped, turning what would be undefined behaviour into
/// a counted event.
pub unsafe fn load_naive_cas<T: Links<W>, W: DcasWord>(
    a: &PtrField<T, W>,
    dest: &mut *mut LfrcBox<T, W>,
) {
    // Safety: forwarded contract.
    unsafe { load_naive_cas_gapped(a, dest, &|| {}) }
}

/// [`load_naive_cas`] with an injectable delay in the defect window
/// (between the pointer read and the count increment) — experiment E5
/// uses a `yield` there to model preemption pressure deterministically.
///
/// # Safety
///
/// As for [`load_naive_cas`].
pub unsafe fn load_naive_cas_gapped<T: Links<W>, W: DcasWord>(
    a: &PtrField<T, W>,
    dest: &mut *mut LfrcBox<T, W>,
    gap: &dyn Fn(),
) {
    let olddest = *dest;
    loop {
        let aval = a.raw().load();
        if aval == 0 {
            *dest = ptr::null_mut();
            break;
        }
        // <-- the defect window: the object can be freed right here.
        gap();
        // (continues below)
        // Safety of this dereference is exactly what is being tested: it
        // is only memory-safe because quarantine mode retains freed
        // objects. The canary tells us whether the protocol got lucky.
        let obj = unsafe { &*word_to_ptr::<T, W>(aval) };
        assert!(
            obj.census.quarantine_on(),
            "load_naive_cas requires quarantine mode (see ops docs)"
        );
        let prev = obj.rc.fetch_add(1); // THE BUG: may resurrect a freed object.
        lfrc_obs::recorder::record(lfrc_obs::EventKind::Increment, aval as usize, prev);
        if !obj.is_alive() {
            // The increment landed on freed memory — the corruption the
            // paper's DCAS prevents. Record it, undo, retry.
            lfrc_obs::recorder::record(lfrc_obs::EventKind::RcOnFreed, aval as usize, prev);
            obj.census.note_rc_on_freed();
            lfrc_obs::recorder::note_violation("rc increment on freed object", aval as usize);
            obj.rc.fetch_add(-1);
            continue;
        }
        if a.raw().load() == aval {
            *dest = word_to_ptr(aval);
            break;
        }
        // Pointer moved on; compensate and retry. A raw decrement, not a
        // `destroy`: our speculative +1 may have resurrected an object at
        // the exact instant another thread decided to free it (count hit
        // zero before our increment landed), in which case a cascading
        // destroy here would free it a second time. That narrow window is
        // itself part of the defect being demonstrated — count it.
        if obj.rc.fetch_add(-1) == 1 {
            lfrc_obs::recorder::record(lfrc_obs::EventKind::RcOnFreed, aval as usize, 0);
            obj.census.note_rc_on_freed();
            lfrc_obs::recorder::note_violation(
                "compensating decrement hit a freeing object",
                aval as usize,
            );
        }
    }
    // Safety: caller-owned.
    unsafe { destroy(olddest) };
}

#[cfg(test)]
mod tests {
    //! Raw-layer tests: the paper's operations exercised directly on raw
    //! pointers, with the counting discipline asserted via ref counts and
    //! the census (the safe layer has its own tests in `local`/`shared`).

    use std::ptr;

    use super::*;
    use crate::object::Heap;
    use lfrc_dcas::McasWord;

    struct Pair {
        #[allow(dead_code)]
        n: u64,
        left: PtrField<Pair, McasWord>,
        right: PtrField<Pair, McasWord>,
    }

    impl Links<McasWord> for Pair {
        fn for_each_link(&self, f: &mut dyn FnMut(&PtrField<Self, McasWord>)) {
            f(&self.left);
            f(&self.right);
        }
    }

    fn heap() -> Heap<Pair, McasWord> {
        Heap::new()
    }

    fn raw_node(heap: &Heap<Pair, McasWord>, n: u64) -> *mut LfrcBox<Pair, McasWord> {
        crate::Local::into_counted_raw(heap.alloc(Pair {
            n,
            left: PtrField::null(),
            right: PtrField::null(),
        }))
    }

    fn rc(p: *mut LfrcBox<Pair, McasWord>) -> u64 {
        unsafe { (*p).ref_count() }
    }

    #[test]
    fn load_increments_and_destroys_olddest() {
        let heap = heap();
        let field: PtrField<Pair, McasWord> = PtrField::null();
        let a = raw_node(&heap, 1); // rc 1 (ours)
        unsafe {
            store(&field, a); // rc 2
            assert_eq!(rc(a), 2);

            // dest starts null: plain counted load.
            let mut dest: *mut LfrcBox<Pair, McasWord> = ptr::null_mut();
            load(&field, &mut dest);
            assert_eq!(dest, a);
            assert_eq!(rc(a), 3);

            // dest holds a: reloading destroys the old dest reference
            // and takes a fresh one — net zero.
            load(&field, &mut dest);
            assert_eq!(rc(a), 3);

            // Loading null into dest destroys the old reference.
            field.raw().store(0); // bypass counting: simulate a raw slot
            add_to_rc(a, -1); // rebalance the bypassed release
            let before = rc(a);
            load(&field, &mut dest);
            assert!(dest.is_null());
            assert_eq!(rc(a), before - 1);

            destroy(a);
        }
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn copy_balances_counts() {
        let heap = heap();
        let a = raw_node(&heap, 1);
        let b = raw_node(&heap, 2);
        unsafe {
            let mut v: *mut LfrcBox<Pair, McasWord> = ptr::null_mut();
            copy(&mut v, a); // v = a, rc(a) = 2
            assert_eq!(rc(a), 2);
            copy(&mut v, b); // destroys v's a ref, rc(b) = 2
            assert_eq!(rc(a), 1);
            assert_eq!(rc(b), 2);
            copy(&mut v, ptr::null_mut()); // destroys v's b ref
            assert_eq!(rc(b), 1);
            destroy(a);
            destroy(b);
        }
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn cas_success_and_failure_counting() {
        let heap = heap();
        let field: PtrField<Pair, McasWord> = PtrField::null();
        let a = raw_node(&heap, 1);
        let b = raw_node(&heap, 2);
        unsafe {
            // Successful CAS null -> a: cell takes a count.
            assert!(cas(&field, ptr::null_mut(), a));
            assert_eq!(rc(a), 2);
            // Failed CAS (expected null, holds a): b's speculative
            // increment must be compensated.
            assert!(!cas(&field, ptr::null_mut(), b));
            assert_eq!(rc(b), 1);
            assert_eq!(rc(a), 2);
            // Successful CAS a -> b: a's cell count released.
            assert!(cas(&field, a, b));
            assert_eq!(rc(a), 1);
            assert_eq!(rc(b), 2);
            // Clear the cell.
            assert!(cas(&field, b, ptr::null_mut()));
            assert_eq!(rc(b), 1);
            destroy(a);
            destroy(b);
        }
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn dcas_failure_compensates_both_news() {
        let heap = heap();
        let f0: PtrField<Pair, McasWord> = PtrField::null();
        let f1: PtrField<Pair, McasWord> = PtrField::null();
        let a = raw_node(&heap, 1);
        let b = raw_node(&heap, 2);
        unsafe {
            // Fail (f0 expected a but holds null).
            assert!(!dcas(&f0, &f1, a, ptr::null_mut(), b, a));
            assert_eq!(rc(a), 1);
            assert_eq!(rc(b), 1);
            // Succeed null/null -> a/b.
            assert!(dcas(&f0, &f1, ptr::null_mut(), ptr::null_mut(), a, b));
            assert_eq!(rc(a), 2);
            assert_eq!(rc(b), 2);
            // Swap the two fields' contents.
            assert!(dcas(&f0, &f1, a, b, b, a));
            assert_eq!(rc(a), 2);
            assert_eq!(rc(b), 2);
            // Clear both.
            assert!(dcas(&f0, &f1, b, a, ptr::null_mut(), ptr::null_mut()));
            assert_eq!(rc(a), 1);
            assert_eq!(rc(b), 1);
            destroy(a);
            destroy(b);
        }
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn dcas_ptr_word_counts_pointer_side_only() {
        let heap = heap();
        let field: PtrField<Pair, McasWord> = PtrField::null();
        // A standalone word cell owned by the test frame (in real use it
        // would live inside an object the caller holds counted).
        let word = McasWord::new(10);
        let a = raw_node(&heap, 1);
        unsafe {
            // Success: install a while bumping the word.
            assert!(dcas_ptr_word(&field, &word, ptr::null_mut(), 10, a, 11));
            assert_eq!(rc(a), 2);
            assert_eq!(word.load(), 11);
            // Failure on the word side: compensation on the pointer.
            assert!(!dcas_ptr_word(&field, &word, a, 99, ptr::null_mut(), 0));
            assert_eq!(rc(a), 2);
            // Success removing the pointer.
            assert!(dcas_ptr_word(&field, &word, a, 11, ptr::null_mut(), 12));
            assert_eq!(rc(a), 1);
            destroy(a);
        }
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn destroy_cascades_through_links() {
        let heap = heap();
        // a -> (left: b, right: c); b -> (left: c)
        let a = raw_node(&heap, 1);
        let b = raw_node(&heap, 2);
        let c = raw_node(&heap, 3);
        unsafe {
            store(&(*a).value().left, b);
            store(&(*a).value().right, c);
            store(&(*b).value().left, c);
            assert_eq!(rc(c), 3);
            destroy(b); // b still held by a.left
            destroy(c); // c still held by a.right and b.left
            assert_eq!(heap.census().live(), 3);
            destroy(a); // cascades: frees a, then b, then c
        }
        assert_eq!(heap.census().live(), 0);
    }

    #[test]
    fn store_alloc_consumes_the_allocation_count() {
        let heap = heap();
        let field: PtrField<Pair, McasWord> = PtrField::null();
        let a = raw_node(&heap, 1);
        unsafe {
            store_alloc(&field, a); // rc stays 1 (owned by the field now)
            assert_eq!(rc(a), 1);
            store(&field, ptr::null_mut()); // releases it
        }
        assert_eq!(heap.census().live(), 0);
    }
}
