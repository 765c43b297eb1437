//! **Lock-free reference counting (LFRC)** — a faithful Rust
//! implementation of the methodology of Detlefs, Martin, Moir & Steele,
//! *Lock-Free Reference Counting*, PODC 2001.
//!
//! The paper shows how to transform a lock-free data structure that
//! *assumes garbage collection* into one that manages its own memory,
//! without giving up lock-freedom, by keeping a per-object reference
//! count with a deliberately *weakened* accuracy requirement:
//!
//! * if pointers to an object exist, its count is non-zero
//!   (**never freed prematurely** — which also defeats the ABA problem);
//! * if no pointers remain, the count eventually reaches zero
//!   (**eventually freed**).
//!
//! The linchpin is [`ops::load`] (the paper's `LFRCLoad`): it uses
//! **DCAS** to increment an object's count *atomically with* re-checking
//! that the shared pointer to the object still exists. A single-word CAS
//! cannot do this — the object might be freed between the pointer read and
//! the count update — which is why CAS-only schemes (Valois) must fall
//! back to type-stable freelists. [`ops::load_naive_cas`] implements that
//! unsound CAS-only variant *as a counterexample* for experiment E5.
//!
//! # Layers
//!
//! * [`ops`] — the paper's Figure 2, operation for operation, at the raw
//!   pointer level (`unsafe`, counting discipline on the caller).
//! * [`Local`] / [`SharedField`] — a safe RAII layer automating the
//!   paper's step 6 ("whenever a thread loses a pointer, it first calls
//!   LFRCDestroy"): a [`Local`] *is* a counted local pointer variable, and
//!   dropping it destroys it.
//! * [`object`] — the object header (paper step 1: "add a field `rc` to
//!   each object") and the [`Links`] trait (paper step 2: iterate over all
//!   pointers in an object).
//! * [`destroy`] — the recursive destruction of Figure 2 made iterative,
//!   plus the paper's §7 future-work extension: *incremental* destruction
//!   that bounds the pause when the last pointer to a large structure is
//!   dropped.
//! * [`defer`] — the deferred fast path (DESIGN.md §5.9): pin-scoped
//!   **uncounted** reads ([`Borrowed`], via
//!   [`PtrField::load_deferred`]/[`Local::borrow`]) and a per-thread
//!   decrement buffer ([`defer_destroy`]/[`flush_thread`]) that batches
//!   `LFRCDestroy` under one epoch guard.
//! * [`strategy`] — per-structure-instance choice between the paper's
//!   DCAS load (the executable spec) and the deferred fast path.
//! * [`diag`] — allocation census, freed-object canaries, and a
//!   quarantine mode used by the safety experiments.
//!
//! # Generic over the DCAS substrate
//!
//! Everything is generic over `W:`[`DcasWord`] — the emulated DCAS-capable
//! memory from `lfrc-dcas`. [`McasWord`] (lock-free)
//! is the default; benchmarks may substitute
//! [`LockWord`] for ablation.
//!
//! # Quickstart
//!
//! ```
//! use lfrc_core::{Heap, Links, PtrField, SharedField};
//! use lfrc_dcas::McasWord;
//!
//! // A singly linked node; `Links` tells LFRC where its pointers live
//! // (the paper's step 2).
//! struct Node {
//!     value: u64,
//!     next: PtrField<Node, McasWord>,
//! }
//! impl Links<McasWord> for Node {
//!     fn for_each_link(&self, f: &mut dyn FnMut(&PtrField<Node, McasWord>)) {
//!         f(&self.next);
//!     }
//! }
//!
//! let heap: Heap<Node, McasWord> = Heap::new();
//! let head: SharedField<Node, McasWord> = SharedField::null();
//!
//! // Push one node: allocate (rc = 1), link, publish.
//! let n = heap.alloc(Node { value: 7, next: PtrField::null() });
//! head.store(Some(&n));
//! drop(n); // destroys the local reference; the shared one keeps rc > 0
//!
//! let loaded = head.load().expect("non-null");
//! assert_eq!(loaded.value, 7);
//! drop(loaded);
//!
//! head.store(None); // last pointer gone: node is freed
//! assert_eq!(heap.census().live(), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod defer;
pub mod destroy;
pub mod diag;
pub mod llsc;
pub mod local;
pub mod object;
pub mod ops;
pub mod shared;
pub mod strategy;

pub use audit::{audit, AuditReport};
pub use defer::{defer_destroy, flush_thread, pending, pinned, Borrowed, Pin};
pub use destroy::{Backlog, StepStats};
pub use diag::Census;
pub use llsc::LinkedPtrField;
pub use local::Local;
pub use object::{Heap, LfrcBox, Links, PtrField};
pub use shared::SharedField;
pub use strategy::Strategy;

// Re-exported so downstream crates name the substrate through one path.
pub use lfrc_dcas::{DcasWord, LockWord, McasWord};

/// Does nothing. It settled the per-thread buffer of the removed
/// deferred-increment strategy (DESIGN.md §5.13) and stays only because
/// the benchmark in `ledger/` still calls it; remove it together with
/// those calls at the next change to the benchmark.
pub fn settle_thread() {}
