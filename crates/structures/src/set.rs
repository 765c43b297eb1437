//! A lock-free ordered set (sorted linked list), LFRC-managed — a third
//! demonstration of the methodology's breadth.
//!
//! The paper motivates GC-simplified concurrent structures with search
//! structures (its \[10\] is Kung & Lehman's concurrent binary search
//! trees, its \[16\] Pugh's concurrent skip lists). This module applies
//! LFRC to the *lazy-list* style ordered set, with one twist that makes
//! it a particularly good fit for this paper:
//!
//! Harris's classic lock-free list marks a node deleted by setting a low
//! bit **inside the next pointer** — pointer arithmetic that the LFRC
//! compliance criterion (§2.1) explicitly forbids ("this precludes the
//! use of pointer arithmetic"). With DCAS the mark can live in its own
//! word: every structural update is a
//! [`dcas_ptr_word`](lfrc_core::ops::dcas_ptr_word) that swings
//! `pred.next` *atomically with* validating `pred.marked == 0`. The mark
//! never contaminates the pointer, so the implementation stays
//! LFRC-compliant — an instance of the paper's thesis that DCAS buys
//! algorithmic simplicity.
//!
//! Operation sketch (standard lazy-list arguments apply):
//!
//! * `insert` — find ⟨pred, curr⟩, link a new node by DCAS
//!   ⟨`pred.next`: curr→new, `pred.marked` = 0⟩;
//! * `remove` — logically delete with a CAS on `curr.marked` (0→1); the
//!   mark freezes `curr.next` (all writers validate the mark), then
//!   best-effort physical unlink;
//! * `find` — helps unlink marked nodes it passes, by the same DCAS.
//!
//! Garbage is cycle-free: an unlinked node's `next` points forward into
//! the list, so step 3 of the methodology holds with no modification.
//!
//! Every operation, `contains` included, uses counted `LFRCLoad`s: the
//! set is the paper-faithful breadth demonstration and has no
//! [`Strategy`](lfrc_core::Strategy) knob. The skip list
//! (`crate::skiplist`) is the ordered structure that runs on the
//! deferred fast path.

use std::fmt;

use lfrc_core::{DcasWord, Heap, Links, Local, PtrField, SharedField};

/// Keys are `u64` strictly below this bound (one value is reserved for
/// the tail sentinel).
pub const MAX_KEY: u64 = u64::MAX - 1;

/// Internal key encoding: head sentinel = 0, user key k = k + 1,
/// tail sentinel = u64::MAX.
#[inline]
fn encode_key(k: u64) -> u64 {
    assert!(k < MAX_KEY, "set keys must be < MAX_KEY");
    k + 1
}

const HEAD_KEY: u64 = 0;
const TAIL_KEY: u64 = u64::MAX;

/// A node of the ordered set.
pub struct SetNode<W: DcasWord> {
    /// Encoded key (immutable after construction).
    key: u64,
    /// 0 = live, 1 = logically deleted. A plain word cell, DCAS-able
    /// with the pointer cells — this is where Harris's pointer tag went.
    marked: W,
    next: PtrField<SetNode<W>, W>,
}

impl<W: DcasWord> Links<W> for SetNode<W> {
    fn for_each_link(&self, f: &mut dyn FnMut(&PtrField<Self, W>)) {
        f(&self.next);
    }
}

impl<W: DcasWord> fmt::Debug for SetNode<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SetNode")
            .field("key", &self.key)
            .field("marked", &self.marked.load())
            .finish()
    }
}

/// A lock-free sorted-list set of `u64` keys, memory-managed by LFRC.
///
/// # Example
///
/// ```
/// use lfrc_structures::LfrcOrderedSet;
/// use lfrc_core::McasWord;
///
/// let set: LfrcOrderedSet<McasWord> = LfrcOrderedSet::new();
/// assert!(set.insert(5));
/// assert!(!set.insert(5));
/// assert!(set.contains(5));
/// assert!(set.remove(5));
/// assert!(!set.contains(5));
/// assert!(!set.remove(5));
/// ```
pub struct LfrcOrderedSet<W: DcasWord> {
    head: SharedField<SetNode<W>, W>,
    heap: Heap<SetNode<W>, W>,
}

impl<W: DcasWord> fmt::Debug for LfrcOrderedSet<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LfrcOrderedSet")
            .field("census", self.heap.census())
            .finish()
    }
}

impl<W: DcasWord> Default for LfrcOrderedSet<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: DcasWord> LfrcOrderedSet<W> {
    /// Creates an empty set (two sentinel nodes).
    pub fn new() -> Self {
        let heap: Heap<SetNode<W>, W> = Heap::new();
        let tail = heap.alloc(SetNode {
            key: TAIL_KEY,
            marked: W::new(0),
            next: PtrField::null(),
        });
        let head_node = heap.alloc(SetNode {
            key: HEAD_KEY,
            marked: W::new(0),
            next: PtrField::null(),
        });
        head_node.next.store_consume(tail);
        let set = LfrcOrderedSet {
            head: SharedField::null(),
            heap,
        };
        set.head.store_consume(head_node);
        set
    }

    /// The heap (census inspection).
    pub fn heap(&self) -> &Heap<SetNode<W>, W> {
        &self.heap
    }

    /// Atomically swings `pred.next` from `curr` to `new` while
    /// validating that `pred` is still unmarked — the DCAS that replaces
    /// Harris's pointer tagging.
    fn swing(
        &self,
        pred: &Local<SetNode<W>, W>,
        curr: Option<&Local<SetNode<W>, W>>,
        new: Option<&Local<SetNode<W>, W>>,
    ) -> bool {
        // Safety: `pred` is a counted local reference, so `pred.marked`
        // is a cell in a live object for the duration of the call, as
        // `dcas_ptr_word` requires; `curr`/`new` are caller-held counted
        // references (or null).
        unsafe {
            lfrc_core::ops::dcas_ptr_word(
                &pred.next,
                &pred.marked,
                Local::option_as_raw(curr),
                0,
                Local::option_as_raw(new),
                0,
            )
        }
    }

    /// Finds the first node with key ≥ `ekey` (encoded), returning
    /// ⟨pred, curr⟩ with `pred.key < ekey ≤ curr.key`, unlinking any
    /// marked nodes encountered on the way.
    fn find(&self, ekey: u64) -> (Local<SetNode<W>, W>, Local<SetNode<W>, W>) {
        'retry: loop {
            let mut pred = self.head.load().expect("head sentinel");
            let mut curr = pred.next.load().expect("tail sentinel terminates");
            loop {
                // Help: physically remove logically deleted nodes.
                while curr.marked.load() == 1 {
                    let succ = curr.next.load().expect("marked node precedes tail");
                    if !self.swing(&pred, Some(&curr), Some(&succ)) {
                        // pred moved on or got marked: restart.
                        continue 'retry;
                    }
                    curr = succ;
                }
                if curr.key >= ekey {
                    return (pred, curr);
                }
                let next = curr.next.load().expect("tail terminates");
                pred = curr;
                curr = next;
            }
        }
    }

    /// Inserts `key`; `false` if already present.
    pub fn insert(&self, key: u64) -> bool {
        let ekey = encode_key(key);
        loop {
            let (pred, curr) = self.find(ekey);
            if curr.key == ekey {
                return false;
            }
            let node = self.heap.alloc(SetNode {
                key: ekey,
                marked: W::new(0),
                next: PtrField::null(),
            });
            node.next.store(Some(&curr));
            if self.swing(&pred, Some(&curr), Some(&node)) {
                return true;
            }
            // Lost a race: `node` drops here and is freed immediately.
        }
    }

    /// Removes `key`; `false` if absent.
    pub fn remove(&self, key: u64) -> bool {
        let ekey = encode_key(key);
        loop {
            let (pred, curr) = self.find(ekey);
            if curr.key != ekey {
                return false;
            }
            // Logical deletion; the mark also freezes `curr.next`
            // (every writer validates the mark via DCAS).
            if !curr.marked.compare_and_swap(0, 1) {
                // Another remover got it first; re-find (we will observe
                // either the unlink or the mark and return false).
                continue;
            }
            // Best-effort physical unlink; finds will help if we fail.
            let succ = curr.next.load().expect("marked node precedes tail");
            let _ = self.swing(&pred, Some(&curr), Some(&succ));
            return true;
        }
    }

    /// Membership test (read-only traversal; does not help unlink).
    pub fn contains(&self, key: u64) -> bool {
        let ekey = encode_key(key);
        let mut curr = self.head.load().expect("head sentinel");
        while curr.key < ekey {
            let next = curr.next.load().expect("tail terminates");
            curr = next;
        }
        curr.key == ekey && curr.marked.load() == 0
    }

    /// Number of live (unmarked, reachable) keys — O(n) diagnostic.
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut curr = self.head.load().expect("head sentinel");
        loop {
            let next = curr.next.load();
            let Some(next) = next else { break };
            if next.key != TAIL_KEY && next.marked.load() == 0 {
                n += 1;
            }
            curr = next;
        }
        n
    }

    /// `true` if no live keys are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// The head root releases its reference on drop; the chain (including the
// sentinels and any still-linked marked nodes) is acyclic and cascades.

#[cfg(test)]
mod tests {
    use super::*;
    use lfrc_core::McasWord;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn sequential_semantics() {
        let s: LfrcOrderedSet<McasWord> = LfrcOrderedSet::new();
        assert!(s.is_empty());
        assert!(s.insert(10));
        assert!(s.insert(5));
        assert!(s.insert(20));
        assert!(!s.insert(10), "duplicate insert must fail");
        assert_eq!(s.len(), 3);
        assert!(s.contains(5) && s.contains(10) && s.contains(20));
        assert!(!s.contains(15));
        assert!(s.remove(10));
        assert!(!s.remove(10), "double remove must fail");
        assert!(!s.contains(10));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn no_leaks_including_failed_inserts() {
        let census;
        {
            let s: LfrcOrderedSet<McasWord> = LfrcOrderedSet::new();
            census = std::sync::Arc::clone(s.heap().census());
            for k in 0..500 {
                s.insert(k % 100); // 400 duplicates allocate-and-free
            }
            for k in 0..100 {
                s.remove(k);
            }
            assert!(s.is_empty());
        }
        assert_eq!(census.live(), 0, "set leaked nodes");
    }

    #[test]
    fn marked_nodes_are_helped_out() {
        let s: LfrcOrderedSet<McasWord> = LfrcOrderedSet::new();
        for k in 0..50 {
            s.insert(k);
        }
        for k in (0..50).step_by(2) {
            s.remove(k);
        }
        // Traversal by an unrelated operation must observe only live keys.
        assert_eq!(s.len(), 25);
        for k in 0..50 {
            assert_eq!(s.contains(k), k % 2 == 1);
        }
    }

    #[test]
    fn concurrent_insert_remove_disjoint_ranges() {
        const THREADS: usize = 4;
        const PER: u64 = 500;
        let s: LfrcOrderedSet<McasWord> = LfrcOrderedSet::new();
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (s, barrier) = (&s, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let base = t as u64 * PER;
                    for k in base..base + PER {
                        assert!(s.insert(k));
                    }
                    for k in (base..base + PER).step_by(2) {
                        assert!(s.remove(k));
                    }
                });
            }
        });
        assert_eq!(s.len(), THREADS * PER as usize / 2);
    }

    #[test]
    fn concurrent_contention_single_key_space() {
        // All threads fight over the same small key space; every
        // successful insert/remove must strictly alternate per key.
        const THREADS: usize = 6;
        const OPS: u64 = 2_000;
        const KEYS: u64 = 8;
        let s: LfrcOrderedSet<McasWord> = LfrcOrderedSet::new();
        let net = AtomicU64::new(0); // inserts minus removes (successful)
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (s, net, barrier) = (&s, &net, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let mut x = t as u64 * 7919 + 1;
                    for _ in 0..OPS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % KEYS;
                        if x & 1 == 0 {
                            if s.insert(k) {
                                net.fetch_add(1, Ordering::Relaxed);
                            }
                        } else if s.remove(k) {
                            net.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            s.len() as u64,
            net.load(Ordering::Relaxed),
            "successful inserts minus removes must equal final size"
        );
    }

    #[test]
    fn concurrent_contention_with_readers() {
        // The contended workload above with `contains` readers racing the
        // unlink swings; every node must be freed afterwards.
        const THREADS: usize = 4;
        const OPS: u64 = 1_500;
        const KEYS: u64 = 8;
        let s: LfrcOrderedSet<McasWord> = LfrcOrderedSet::new();
        let census = std::sync::Arc::clone(s.heap().census());
        let net = AtomicU64::new(0);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (s, net, barrier) = (&s, &net, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let mut x = t as u64 * 7919 + 1;
                    for _ in 0..OPS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % KEYS;
                        match x % 3 {
                            0 => {
                                if s.insert(k) {
                                    net.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            1 => {
                                if s.remove(k) {
                                    net.fetch_sub(1, Ordering::Relaxed);
                                }
                            }
                            _ => {
                                let _ = s.contains(k);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(s.len() as u64, net.load(Ordering::Relaxed));
        drop(s);
        assert_eq!(census.live(), 0, "set leaked nodes");
    }

    #[test]
    fn drop_frees_everything_including_marked_stragglers() {
        let census;
        {
            let s: LfrcOrderedSet<McasWord> = LfrcOrderedSet::new();
            census = std::sync::Arc::clone(s.heap().census());
            for k in 0..200 {
                s.insert(k);
            }
            // Remove some without giving finds a chance to help unlink.
            for k in 0..200 {
                if k % 3 == 0 {
                    s.remove(k);
                }
            }
        }
        assert_eq!(census.live(), 0);
    }
}
