//! Software emulation of the **DCAS** (double compare-and-swap) instruction
//! assumed by the PODC 2001 LFRC paper.
//!
//! The paper (§1) assumes "the availability of a double compare-and-swap
//! (DCAS) instruction that can atomically access two independently-chosen
//! memory locations", noting it "has been implemented in hardware in the
//! past (e.g. the Motorola 68020 `CAS2`)". No modern ISA provides it, so
//! this crate *builds* it, behind the [`DcasWord`] trait:
//!
//! * [`McasWord`] — the primary, **lock-free** strategy: Harris–Fraser
//!   style descriptor-based MCAS (RDCSS + MCAS descriptors with helping),
//!   specialized here to the word-sized cells LFRC needs. Up to
//!   [`MAX_ENTRIES`] locations may be updated atomically; DCAS is the
//!   two-location case.
//! * [`LockWord`] — a striped-ordered-spinlock strategy, used as an
//!   ablation baseline (experiment E7) and as a differential-testing
//!   oracle for the MCAS strategy.
//!
//! # Cell discipline
//!
//! Exactly as the paper requires that "pointers are accessed only by means
//! of these operations", every word that may participate in a DCAS must
//! live in a [`DcasWord`] cell and be accessed only through the trait
//! methods. Cells store 62-bit payloads (see [`MAX_PAYLOAD`]); the two low
//! bits of the underlying machine word distinguish real values from
//! in-flight operation descriptors.
//!
//! # Deallocation discipline (`retire_box`)
//!
//! Hardware DCAS may *read* one of its two locations even when the other
//! comparison fails — the LFRC algorithm depends on this: `LFRCLoad`'s
//! DCAS touches the reference count of an object that may already have
//! been freed, relying on the failing pointer comparison to prevent the
//! *write*. On a real machine that stray read is harmless; in Rust it
//! would be undefined behaviour. The emulator therefore requires that any
//! allocation containing `DcasWord` cells is physically deallocated via
//! [`retire_box`], which defers the actual `free` until no in-flight
//! emulated operation can still touch it (an epoch-based grace period from
//! `lfrc-reclaim`). This is part of emulating the *hardware*, not of the
//! LFRC algorithm: the algorithm calls "free" at exactly the points the
//! paper says, and never observes a deferred object again.
//!
//! # Example
//!
//! ```
//! use lfrc_dcas::{DcasWord, McasWord};
//!
//! let a = McasWord::new(1);
//! let b = McasWord::new(2);
//! // Atomically swap the contents of two independently chosen cells.
//! assert!(McasWord::dcas(&a, &b, 1, 2, 2, 1));
//! assert_eq!(a.load(), 2);
//! assert_eq!(b.load(), 1);
//! // A stale expected value makes the whole operation fail.
//! assert!(!McasWord::dcas(&a, &b, 1, 2, 9, 9));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod desc;
pub mod emu;
pub mod llsc;
pub mod locked;
pub mod mcas;

// The yield-point instrumentation lives in `lfrc-obs` (the bottom of the
// crate graph) so that `lfrc-pool`, which sits below this crate, can
// reach it without a dependency cycle. The historical paths
// (`lfrc_dcas::instrument::*`, `lfrc_dcas::InstrSite`) remain valid
// through this re-export.
pub use lfrc_obs::instrument;

pub use emu::{emulation_stats, quiesce, retire_box, retire_fn, set_advance_gate, with_guard};
pub use instrument::InstrSite;
pub use llsc::{Linked, LlScCell};
pub use locked::LockWord;
pub use mcas::{McasWord, MAX_ENTRIES};

/// Largest payload a [`DcasWord`] cell can store: cells reserve the two
/// low bits of the machine word for descriptor tagging, so payloads are
/// 62-bit. Pointers and reference counts fit comfortably.
pub const MAX_PAYLOAD: u64 = (1 << 62) - 1;

/// One location/expected/new triple of a multi-word CAS.
///
/// See [`DcasWord::mcas`].
#[derive(Debug, Clone, Copy)]
pub struct McasOp<'a, W> {
    /// The cell to update.
    pub cell: &'a W,
    /// Value the cell must currently hold.
    pub old: u64,
    /// Value to install if every comparison succeeds.
    pub new: u64,
}

/// A word-sized cell supporting single- and multi-location atomic updates
/// — the emulated "memory" of a machine with hardware DCAS.
///
/// All methods are linearizable with respect to each other. Implementors
/// guarantee that [`DcasWord::dcas`] (and the generalized
/// [`DcasWord::mcas`]) behaves exactly like the paper's DCAS: both
/// locations are compared and either both are updated or neither is.
///
/// Payloads must not exceed [`MAX_PAYLOAD`]; methods panic in debug builds
/// otherwise, so callers shift/clamp first. The LFRC layer stores pointers
/// (whose low bits are zero anyway) and small counters, both well within
/// range.
pub trait DcasWord: Send + Sync + Sized + 'static {
    /// Creates a cell holding `value`.
    fn new(value: u64) -> Self;

    /// Atomically reads the cell.
    fn load(&self) -> u64;

    /// Atomically overwrites the cell.
    fn store(&self, value: u64);

    /// Single-location compare-and-swap. Returns `true` iff the cell held
    /// `old` and now holds `new`.
    fn compare_and_swap(&self, old: u64, new: u64) -> bool;

    /// Atomically adds `delta` (which may be negative) to the cell,
    /// returning the *previous* value. Used for the paper's `add_to_rc`.
    fn fetch_add(&self, delta: i64) -> u64 {
        loop {
            let cur = self.load();
            let next = (cur as i64).wrapping_add(delta) as u64;
            if self.compare_and_swap(cur, next) {
                return cur;
            }
        }
    }

    /// Multi-location compare-and-swap over up to [`MAX_ENTRIES`] cells.
    ///
    /// Cells may be listed in any order; two entries must not target the
    /// same cell (debug-asserted). [`McasWord`] panics on a wider call:
    /// its per-thread descriptor slot holds [`MAX_ENTRIES`] entries.
    fn mcas(ops: &[McasOp<'_, Self>]) -> bool;

    /// The paper's DCAS: atomically compare `a` with `a_old` and `b` with
    /// `b_old`; if both match, set them to `a_new`/`b_new` and return
    /// `true`; otherwise change nothing and return `false`.
    fn dcas(a: &Self, b: &Self, a_old: u64, b_old: u64, a_new: u64, b_new: u64) -> bool {
        Self::mcas(&[
            McasOp {
                cell: a,
                old: a_old,
                new: a_new,
            },
            McasOp {
                cell: b,
                old: b_old,
                new: b_new,
            },
        ])
    }

    /// Short human-readable strategy name, used in benchmark tables.
    fn strategy_name() -> &'static str;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise<W: DcasWord>() {
        let a = W::new(10);
        let b = W::new(20);
        assert_eq!(a.load(), 10);
        a.store(11);
        assert_eq!(a.load(), 11);
        assert!(a.compare_and_swap(11, 12));
        assert!(!a.compare_and_swap(11, 13));
        assert_eq!(a.fetch_add(5), 12);
        assert_eq!(a.fetch_add(-7), 17);
        assert_eq!(a.load(), 10);
        assert!(W::dcas(&a, &b, 10, 20, 100, 200));
        assert!(!W::dcas(&a, &b, 10, 20, 0, 0));
        assert_eq!(a.load(), 100);
        assert_eq!(b.load(), 200);
        // A failed DCAS must leave *both* cells untouched even when one
        // comparison would have succeeded.
        assert!(!W::dcas(&a, &b, 100, 999, 1, 1));
        assert_eq!(a.load(), 100);
        assert_eq!(b.load(), 200);
    }

    #[test]
    fn mcas_word_semantics() {
        exercise::<McasWord>();
    }

    #[test]
    fn lock_word_semantics() {
        exercise::<LockWord>();
    }
}
