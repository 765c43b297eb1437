//! Word packing for the MCAS emulation's immortal descriptors.
//!
//! Following Arbel-Raviv & Brown's *Reuse, don't Recycle* (PPoPP 2017 /
//! arXiv 1708.01797), descriptors are **immortal**: each thread owns a
//! fixed MCAS + RDCSS descriptor slot pair that is *never* reclaimed; a
//! slot is reused in place for every operation, carrying a monotone
//! **sequence number** bumped on each reuse. In-word descriptor
//! references are packed `(slot index, sequence)` instead of raw
//! pointers, so a helper that loads a stale word detects the reuse by
//! sequence mismatch and abandons instead of helping a recycled
//! operation. The MCAS hot path then does **zero allocation and zero
//! epoch deferral** — the write-side twin of the deferred-increment
//! read-side win (DESIGN.md §5.13). The full sequence-validation safety
//! argument is DESIGN.md §5.14.
//!
//! ```text
//!  bits 63..16        bits 15..2     bits 1..0
//! ┌──────────────────┬──────────────┬───────────┐
//! │ sequence (48 b)  │ slot (14 b)  │ tag       │
//! └──────────────────┴──────────────┴───────────┘
//! ```
//!
//! 14 slot bits bound the registry at 16384 thread slots (each thread
//! owns exactly one MCAS + one RDCSS slot under a shared index); 48
//! sequence bits roll over only after ~10^14 reuses of a single slot —
//! and even a rollover collision requires the helper to have stalled
//! across the *entire* wrap, in which case it would help an operation of
//! identical seq whose status CAS is still seq-guarded.

/// Width of the slot-index field.
pub const SLOT_BITS: u32 = 14;

/// Maximum number of immortal descriptor slots (per kind) the registry
/// can hand out; claiming past this panics (it would mean 16k concurrent
/// threads, far past the pool's design point).
pub const MAX_SLOTS: usize = 1 << SLOT_BITS;

const SLOT_MASK: u64 = (MAX_SLOTS as u64 - 1) << 2;

/// Bit offset of the sequence field.
pub const SEQ_SHIFT: u32 = 2 + SLOT_BITS;

/// Mask of the (unshifted) 48-bit sequence field.
pub const SEQ_MASK: u64 = (1 << (64 - SEQ_SHIFT)) - 1;

/// Packs an immortal descriptor reference: slot index + sequence + the
/// 2-bit descriptor tag (`TAG_MCAS`/`TAG_RDCSS`).
#[inline]
pub fn pack(slot: usize, seq: u64, tag: u64) -> u64 {
    debug_assert!(slot < MAX_SLOTS);
    debug_assert!(tag <= 0b11);
    ((seq & SEQ_MASK) << SEQ_SHIFT) | ((slot as u64) << 2) | tag
}

/// The slot index of a packed immortal word.
#[inline]
pub fn unpack_slot(word: u64) -> usize {
    ((word & SLOT_MASK) >> 2) as usize
}

/// The (masked) sequence of a packed immortal word.
#[inline]
pub fn unpack_seq(word: u64) -> u64 {
    (word >> SEQ_SHIFT) & SEQ_MASK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips_and_is_tag_transparent() {
        for (slot, seq, tag) in [
            (0usize, 0u64, 0b01u64),
            (1, 1, 0b10),
            (MAX_SLOTS - 1, SEQ_MASK, 0b01),
            (7, 0xDEAD_BEEF, 0b10),
        ] {
            let w = pack(slot, seq, tag);
            assert_eq!(w & 0b11, tag, "low tag bits must survive packing");
            assert_eq!(unpack_slot(w), slot);
            assert_eq!(unpack_seq(w), seq & SEQ_MASK);
        }
    }

    #[test]
    fn fields_do_not_overlap() {
        let w = pack(MAX_SLOTS - 1, SEQ_MASK, 0b11);
        assert_eq!(w, u64::MAX, "fields must tile the word exactly");
        assert_eq!((SEQ_MASK << SEQ_SHIFT) | SLOT_MASK | 0b11, u64::MAX);
    }
}
