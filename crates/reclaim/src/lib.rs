//! Deferred-reclamation substrates for the LFRC reproduction.
//!
//! The PODC 2001 LFRC paper transforms *garbage-collection-dependent*
//! lock-free data structures into GC-independent ones. To reproduce the
//! paper we therefore also need the *input side*: an environment in which
//! the GC-dependent originals (Snark, Treiber stack, Michael–Scott queue)
//! can run safely. This crate provides two such environments:
//!
//! * [`epoch`] — a from-scratch **epoch-based reclamation** (EBR) scheme.
//!   Memory retired by one thread is freed only after every concurrently
//!   pinned thread has moved on, which gives GC-dependent algorithms
//!   exactly the two guarantees the paper says they get "for free" from a
//!   garbage collector: no premature reclamation, and hence no ABA on
//!   pointers (paper §1: "GC gives us a free solution to the so-called ABA
//!   problem").
//! * [`leak`] — a **leak arena** that never reclaims until the arena itself
//!   is dropped. This is the purest model of "assume a GC exists and never
//!   runs": useful as a correctness oracle and as the memory-consumption
//!   worst case in experiment E3.
//!
//! The [`epoch`] module is additionally used *inside* the software-DCAS
//! emulator (`lfrc-dcas`) to keep freed objects that contain DCAS cells
//! mapped while an emulated operation may still read them. That use is an
//! artifact of emulating the paper's hardware DCAS in software — a real
//! `CAS2` instruction allocates nothing — and is documented as such in
//! DESIGN.md §2.
//!
//! Note (paper footnote 2): a *blocking* collector does not make a
//! GC-dependent lock-free structure non-lock-free; nevertheless the EBR
//! implemented here is non-blocking throughout (registration, pinning,
//! retiring, and collection never take locks).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod epoch;
pub mod leak;
pub mod pad;
pub mod stats;

pub use epoch::{Collector, Guard, LocalHandle};
pub use leak::LeakArena;
pub use pad::CachePadded;
