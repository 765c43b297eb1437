//! A lock-free skip-list set, LFRC-managed — the paper's \[16\] citation
//! (Pugh, *Concurrent maintenance of skip lists*) realized under the
//! methodology.
//!
//! Same design vocabulary as [`set`](crate::set): a node carries **one**
//! deleted-mark word, and every structural update at every level is a
//! pointer×word DCAS (`dcas_ptr_word`) that swings `pred.next[lvl]`
//! atomically with validating `pred.marked == 0` — no pointer tagging,
//! no per-level locks. Compared to Herlihy–Shavit's lock-free skip list
//! (which needs a mark bit in *each* level's pointer), DCAS lets one
//! mark govern the whole tower: a node is logically in the set iff it is
//! reachable at level 0 and unmarked.
//!
//! * `insert` — one descent, then link level 0 (the linearization
//!   point) and each upper level from the saved preds, re-descending
//!   only when a swing fails (Fraser; Herlihy–Shavit);
//! * `remove` — one descent, CAS the mark (linearization point), then
//!   unlink each level through the saved preds; if an unlink fails, one
//!   more descent helps finish it;
//! * `contains` — top-down descent whose load protocol follows the
//!   instance [`Strategy`]: the §5.9 deferred fast path (plain loads
//!   under a pin, rc-validated) for `DeferredDec`, and
//!   [`contains_counted`](LfrcSkipList::contains_counted) — one
//!   `LFRCLoad` DCAS per hop — for `Dcas`.
//!
//! Writers make one descent per operation, inside one
//! [`defer::pinned`] scope. Under `DeferredDec` its hops are uncounted
//! `load_deferred` reads, validated as in `contains_deferred`, and a
//! writer promotes only the nodes it links through (DESIGN.md §5.9,
//! "Writers on the fast path"). Under `Dcas` the same `insert` and
//! `remove` run over counted `LFRCLoad` hops: the executable spec.
//!
//! Garbage stays cycle-free: all tower pointers aim forward (toward
//! larger keys), so step 3 of the methodology holds untouched.

use std::alloc::Layout;
use std::cell::RefCell;
use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::Deref;
use std::ptr::{self, NonNull};

use lfrc_core::defer::{self, Borrowed, Pin};
use lfrc_core::{DcasWord, Heap, LfrcBox, Links, Local, PtrField, SharedField, Strategy};

use crate::set::MAX_KEY;

/// Maximum tower height (supports ~2³² elements at p = 1/2).
pub const MAX_HEIGHT: usize = 16;

const HEAD_KEY: u64 = 0;
const TAIL_KEY: u64 = u64::MAX;

#[inline]
fn encode_key(k: u64) -> u64 {
    assert!(k < MAX_KEY, "skip-list keys must be < MAX_KEY");
    k + 1
}

/// A skip-list node: encoded key, one mark word, and a tower of links.
pub struct SkipNode<W: DcasWord> {
    key: u64,
    /// 0 = live, 1 = logically deleted (governs the whole tower).
    marked: W,
    /// `next[0]` is the full list; higher levels are the index.
    next: Vec<PtrField<SkipNode<W>, W>>,
}

impl<W: DcasWord> Links<W> for SkipNode<W> {
    fn for_each_link(&self, f: &mut dyn FnMut(&PtrField<Self, W>)) {
        for field in &self.next {
            f(field);
        }
    }
}

impl<W: DcasWord> fmt::Debug for SkipNode<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipNode")
            .field("key", &self.key)
            .field("height", &self.next.len())
            .field("marked", &(self.marked.load() == 1))
            .finish()
    }
}

impl<W: DcasWord> SkipNode<W> {
    fn new(key: u64, height: usize) -> Self {
        let layout = Layout::array::<PtrField<SkipNode<W>, W>>(height).expect("tower layout");
        let recycled = TOWERS
            .try_with(|t| t.borrow_mut().take(layout))
            .ok()
            .flatten();
        let next = match recycled {
            Some(buf) => {
                let fields = buf.cast::<PtrField<SkipNode<W>, W>>().as_ptr();
                // Safety: `buf` is a released tower buffer allocated with
                // exactly `layout`, i.e. for `height` fields; each slot is
                // initialized here before the `Vec` takes it over.
                unsafe {
                    for i in 0..height {
                        fields.add(i).write(PtrField::null());
                    }
                    Vec::from_raw_parts(fields, height, height)
                }
            }
            None => (0..height).map(|_| PtrField::null()).collect(),
        };
        SkipNode {
            key,
            marked: W::new(0),
            next,
        }
    }
}

/// Hands the tower buffer to the releasing thread's [`TOWERS`] instead of
/// the allocator. A node is dropped only when its slot is released, after
/// the grace period, so no reader can still reach the buffer.
impl<W: DcasWord> Drop for SkipNode<W> {
    fn drop(&mut self) {
        let mut tower = ManuallyDrop::new(std::mem::take(&mut self.next));
        let Ok(layout) = Layout::array::<PtrField<SkipNode<W>, W>>(tower.capacity()) else {
            return; // unreachable: a tower holds at most MAX_HEIGHT fields
        };
        if layout.size() == 0 {
            return; // nothing was allocated
        }
        let buf = NonNull::from(tower.as_mut_slice()).cast::<u8>();
        // Safety: the fields are dropped once here and never touched again
        // through `tower`, which is forgotten.
        unsafe { ptr::drop_in_place(tower.as_mut_slice()) };
        let kept = TOWERS
            .try_with(|t| t.borrow_mut().give(layout, buf))
            .unwrap_or(false);
        if !kept {
            // Safety: `buf` was allocated by the global allocator with
            // `layout` (a `Vec` of this capacity) and is no longer used.
            unsafe { std::alloc::dealloc(buf.as_ptr(), layout) };
        }
    }
}

/// Most released towers of one size a thread keeps for reuse.
const TOWER_CACHE: usize = 256;

thread_local! {
    /// Released tower buffers, reused by this thread's next inserts.
    ///
    /// A tower is a global-allocator `Vec`, and the thread that releases
    /// a dead node is often not the one that built it. glibc returns a
    /// freed block to the arena it came from, where the releasing
    /// thread's own inserts cannot reuse it. Under churn, the towers of a
    /// store built on one thread then drain out of that thread's arena,
    /// whose pages stay resident around the towers still live, into the
    /// writers' arenas, which grow. Resident memory then rises with the
    /// number of writes rather than with the store's size: 5.5% on the
    /// ledger's `scan_batch_zipf` workload on a 2-vCPU host. Reusing
    /// released towers on the releasing thread keeps them in place.
    static TOWERS: RefCell<TowerCache> = RefCell::new(TowerCache::default());
}

/// Released tower buffers, binned by their allocation layout.
#[derive(Default)]
struct TowerCache {
    bins: Vec<(Layout, Vec<NonNull<u8>>)>,
}

impl TowerCache {
    fn take(&mut self, layout: Layout) -> Option<NonNull<u8>> {
        let (_, bin) = self.bins.iter_mut().find(|(l, _)| *l == layout)?;
        bin.pop()
    }

    /// Keeps `buf` unless its bin is full; `false` hands it back.
    fn give(&mut self, layout: Layout, buf: NonNull<u8>) -> bool {
        let i = match self.bins.iter().position(|(l, _)| *l == layout) {
            Some(i) => i,
            None => {
                self.bins.push((layout, Vec::new()));
                self.bins.len() - 1
            }
        };
        let bin = &mut self.bins[i].1;
        if bin.len() == TOWER_CACHE {
            return false;
        }
        bin.push(buf);
        true
    }
}

impl Drop for TowerCache {
    fn drop(&mut self) {
        for (layout, bin) in &self.bins {
            for buf in bin {
                // Safety: every cached buffer was allocated with its bin's
                // layout and is owned by the cache alone.
                unsafe { std::alloc::dealloc(buf.as_ptr(), *layout) };
            }
        }
    }
}

/// A lock-free ordered set backed by a skip list, memory-managed by LFRC.
///
/// # Example
///
/// ```
/// use lfrc_structures::LfrcSkipList;
/// use lfrc_core::McasWord;
///
/// let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
/// for k in [5, 1, 9, 3] {
///     assert!(s.insert(k));
/// }
/// assert!(s.contains(3));
/// assert!(s.remove(3));
/// assert!(!s.contains(3));
/// assert_eq!(s.len(), 3);
/// ```
pub struct LfrcSkipList<W: DcasWord> {
    head: SharedField<SkipNode<W>, W>,
    heap: Heap<SkipNode<W>, W>,
    seed: std::sync::atomic::AtomicU64,
    strategy: Strategy,
}

impl<W: DcasWord> fmt::Debug for LfrcSkipList<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LfrcSkipList")
            .field("census", self.heap.census())
            .field("strategy", &self.strategy)
            .finish()
    }
}

impl<W: DcasWord> Default for LfrcSkipList<W> {
    fn default() -> Self {
        Self::new()
    }
}

type NodeRef<W> = Local<SkipNode<W>, W>;
type NodePtr<W> = *mut LfrcBox<SkipNode<W>, W>;

/// How a writer's descent holds the nodes it passes: a counted `Local`
/// per hop (the `Dcas` spec, one `LFRCLoad` each) or an uncounted
/// `Borrowed` per hop (the `DeferredDec` fast path, one plain load each,
/// with only the nodes a writer links through counted by
/// [`Hop::counted`]).
trait Hop<'p, W: DcasWord>: Deref<Target = SkipNode<W>> + Clone {
    /// Reads a link; `None` is null.
    fn read(field: &PtrField<SkipNode<W>, W>, pin: &'p Pin) -> Option<Self>;
    /// Whether the node is still live (its count is nonzero).
    fn alive(&self) -> bool;
    /// A counted reference, or `None` if the node already died.
    fn counted(self) -> Option<NodeRef<W>>;
    /// The node's address (identity only; see DESIGN.md §5.9).
    fn ptr(&self) -> NodePtr<W>;
}

impl<'p, W: DcasWord> Hop<'p, W> for NodeRef<W> {
    fn read(field: &PtrField<SkipNode<W>, W>, _pin: &'p Pin) -> Option<Self> {
        field.load()
    }

    fn alive(&self) -> bool {
        true // the count this reference owns keeps it alive
    }

    fn counted(self) -> Option<NodeRef<W>> {
        Some(self)
    }

    fn ptr(&self) -> NodePtr<W> {
        Local::as_raw(self)
    }
}

impl<'p, W: DcasWord> Hop<'p, W> for Borrowed<'p, SkipNode<W>, W> {
    fn read(field: &PtrField<SkipNode<W>, W>, pin: &'p Pin) -> Option<Self> {
        field.load_deferred(pin)
    }

    fn alive(&self) -> bool {
        Borrowed::ref_count(self) != 0
    }

    fn counted(self) -> Option<NodeRef<W>> {
        Borrowed::promote(&self)
    }

    fn ptr(&self) -> NodePtr<W> {
        Borrowed::as_raw(self)
    }
}

/// What one descent saw: at every level `l`, `preds[l].key < ekey <=
/// succs[l].key`, with `succs[l]` read from `preds[l].next[l]`.
struct Window<H> {
    preds: [H; MAX_HEIGHT],
    succs: [H; MAX_HEIGHT],
}

impl<H> Window<H> {
    /// The pred and succ at level `l`.
    fn level(self, l: usize) -> (H, H) {
        let pred = self.preds.into_iter().nth(l);
        let succ = self.succs.into_iter().nth(l);
        (pred.expect("l < MAX_HEIGHT"), succ.expect("l < MAX_HEIGHT"))
    }
}

impl<W: DcasWord> LfrcSkipList<W> {
    /// Creates an empty skip list (full-height head and tail sentinels)
    /// with the default [`Strategy`].
    pub fn new() -> Self {
        Self::with_strategy(Strategy::default())
    }

    /// Creates an empty skip list using `strategy` for its load protocol.
    pub fn with_strategy(strategy: Strategy) -> Self {
        let heap: Heap<SkipNode<W>, W> = Heap::new();
        let tail = heap.alloc(SkipNode::new(TAIL_KEY, MAX_HEIGHT));
        let head_node = heap.alloc(SkipNode::new(HEAD_KEY, MAX_HEIGHT));
        for lvl in 0..MAX_HEIGHT {
            head_node.next[lvl].store(Some(&tail));
        }
        drop(tail);
        let list = LfrcSkipList {
            head: SharedField::null(),
            heap,
            seed: std::sync::atomic::AtomicU64::new(0x853c49e6748fea9b),
            strategy,
        };
        list.head.store_consume(head_node);
        list
    }

    /// The heap (census inspection).
    pub fn heap(&self) -> &Heap<SkipNode<W>, W> {
        &self.heap
    }

    /// The load strategy this instance was built with.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Geometric tower height in `1..=MAX_HEIGHT` (p = 1/2).
    fn random_height(&self) -> usize {
        use std::sync::atomic::Ordering;
        let mut x = self.seed.fetch_add(0x9e3779b97f4a7c15, Ordering::Relaxed);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        ((x.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    }

    /// Swings `pred.next[lvl]` from `old` to `new` iff `pred` is
    /// unmarked — the DCAS that replaces per-level pointer marks.
    ///
    /// `pred` (whose cells the DCAS writes) and `new` (which gains the
    /// field's unit) are counted; `old` is identity only, read inside
    /// the caller's pin (DESIGN.md §5.9, "Writers on the fast path").
    fn swing(&self, pred: &NodeRef<W>, lvl: usize, old: NodePtr<W>, new: &NodeRef<W>) -> bool {
        // Safety: `pred` and `new` are counted (so `pred`'s cells are
        // alive); `old` was read inside the caller's pin, so word
        // equality is object identity and a success releases the
        // field's own unit.
        unsafe {
            lfrc_core::ops::dcas_ptr_word(
                &pred.next[lvl],
                &pred.marked,
                old,
                0,
                Local::as_raw(new),
                0,
            )
        }
    }

    /// One top-down descent toward `ekey` (encoded): at every level, the
    /// last node with key `< ekey` and the first with key `>= ekey`,
    /// helping unlink marked nodes on the way. A help swing counts its
    /// pred and succ first.
    ///
    /// Returns `None` when the caller must restart: a link read null
    /// (towers are complete before publication, so a null is a harvested
    /// field of a dead node), a node the help swing had to count had
    /// died, or the help swing lost a race.
    fn find<'p, H: Hop<'p, W>>(&self, ekey: u64, pin: &'p Pin) -> Option<Window<H>> {
        let mut preds: [Option<H>; MAX_HEIGHT] = Default::default();
        let mut succs: [Option<H>; MAX_HEIGHT] = Default::default();
        let mut pred = H::read(&self.head, pin)?;
        for lvl in (0..MAX_HEIGHT).rev() {
            let mut curr = H::read(&pred.next[lvl], pin)?;
            loop {
                // Help unlink marked nodes at this level.
                while curr.marked.load() == 1 {
                    let succ = H::read(&curr.next[lvl], pin)?;
                    let (p, s) = (pred.clone().counted()?, succ.clone().counted()?);
                    if !self.swing(&p, lvl, curr.ptr(), &s) {
                        return None;
                    }
                    curr = succ;
                }
                if curr.key >= ekey {
                    break;
                }
                let next = H::read(&curr.next[lvl], pin)?;
                pred = curr;
                curr = next;
            }
            preds[lvl] = Some(pred.clone());
            succs[lvl] = Some(curr);
            // `pred` carries down to the next level.
        }
        Some(Window {
            preds: preds.map(|p| p.expect("every level visited")),
            succs: succs.map(|s| s.expect("every level visited")),
        })
    }

    /// Inserts `key`; `false` if already present.
    pub fn insert(&self, key: u64) -> bool {
        let ekey = encode_key(key);
        defer::pinned(|pin| match self.strategy {
            Strategy::Dcas => self.insert_in::<NodeRef<W>>(ekey, pin),
            Strategy::DeferredDec => self.insert_in::<Borrowed<'_, SkipNode<W>, W>>(ekey, pin),
        })
    }

    fn insert_in<'p, H: Hop<'p, W>>(&self, ekey: u64, pin: &'p Pin) -> bool {
        let height = self.random_height();
        let mut node: Option<NodeRef<W>> = None;
        // The counted pred each level's swing writes, and the succ it
        // expects (identity; the succ's unit sits in `node.next`).
        let mut preds: [Option<NodeRef<W>>; MAX_HEIGHT] = Default::default();
        let mut succs: [NodePtr<W>; MAX_HEIGHT] = [ptr::null_mut(); MAX_HEIGHT];
        // Level 0 is the linearization point.
        let node = loop {
            let Some(Window {
                preds: ps,
                succs: ss,
            }) = self.find::<H>(ekey, pin)
            else {
                continue;
            };
            if ss[0].key == ekey {
                if ss[0].alive() {
                    return false;
                }
                continue; // freed under us; re-descend
            }
            // Allocated once; a retry only retargets its tower, which no
            // reader can reach before the level-0 swing publishes it.
            let new = node.get_or_insert_with(|| self.heap.alloc(SkipNode::new(ekey, height)));
            // Count what this insert links through — each level's pred
            // and succ — before the linearization point, so a node that
            // died since the descent just restarts it. The succ's promoted
            // unit is donated to the tower field.
            let counted = ps
                .into_iter()
                .zip(ss)
                .take(height)
                .enumerate()
                .all(|(l, (p, s))| {
                    let (Some(p), Some(s)) = (p.counted(), s.counted()) else {
                        return false;
                    };
                    succs[l] = Local::as_raw(&s);
                    new.next[l].store_consume(s);
                    preds[l] = Some(p);
                    true
                });
            if counted && self.swing(preds[0].as_ref().expect("counted"), 0, succs[0], new) {
                break node.take().expect("allocated above");
            }
        };
        // Index the upper levels from the saved window (best-effort);
        // re-descend only for a level whose swing fails.
        for l in 1..height {
            loop {
                if node.marked.load() == 1 {
                    return true; // concurrently removed: stop indexing
                }
                if self.swing(preds[l].as_ref().expect("counted"), l, succs[l], &node) {
                    break;
                }
                let Some((p, s)) = self.find::<H>(ekey, pin).map(|w| w.level(l)) else {
                    continue;
                };
                if s.ptr() == Local::as_raw(&node) {
                    break; // already linked at this level
                }
                let (Some(p), Some(s)) = (p.counted(), s.counted()) else {
                    continue;
                };
                // Retarget this level's forward pointer from the fresh
                // window. The store may displace an earlier retarget's
                // unit eagerly — safe: `node.next[l]` is unreachable to
                // readers until a swing publishes `node` at this level.
                succs[l] = Local::as_raw(&s);
                node.next[l].store_consume(s);
                preds[l] = Some(p);
            }
        }
        true
    }

    /// Removes `key`; `false` if absent.
    pub fn remove(&self, key: u64) -> bool {
        let ekey = encode_key(key);
        defer::pinned(|pin| match self.strategy {
            Strategy::Dcas => self.remove_in::<NodeRef<W>>(ekey, pin),
            Strategy::DeferredDec => self.remove_in::<Borrowed<'_, SkipNode<W>, W>>(ekey, pin),
        })
    }

    fn remove_in<'p, H: Hop<'p, W>>(&self, ekey: u64, pin: &'p Pin) -> bool {
        loop {
            let Some(Window {
                preds: ps,
                succs: ss,
            }) = self.find::<H>(ekey, pin)
            else {
                continue;
            };
            let victim = &ss[0];
            if victim.key != ekey {
                return false;
            }
            // The levels the descent saw the victim linked at.
            let height = ss.iter().take_while(|s| s.ptr() == victim.ptr()).count();
            // Count the victim's preds — the unlink swings' containers —
            // before the mark, so a pred that died just restarts.
            let mut preds: [Option<NodeRef<W>>; MAX_HEIGHT] = Default::default();
            let counted = ps
                .into_iter()
                .zip(&mut preds)
                .take(height)
                .all(|(p, slot)| {
                    *slot = p.counted();
                    slot.is_some()
                });
            if !counted {
                continue;
            }
            // Linearization point: the mark.
            if !victim.marked.compare_and_swap(0, 1) {
                // Another remover got it; re-find to observe the unlink.
                continue;
            }
            // Unlink top-down through the saved preds. The mark froze the
            // victim's links, so each successor read now is final; it is
            // counted because the swing installs it.
            let unlinked = (0..height).rev().all(|l| {
                H::read(&victim.next[l], pin)
                    .and_then(H::counted)
                    .is_some_and(|succ| {
                        self.swing(preds[l].as_ref().expect("counted"), l, victim.ptr(), &succ)
                    })
            });
            if !unlinked {
                // A saved pred moved on: one more descent helps unlink
                // whatever is left.
                while self.find::<H>(ekey, pin).is_none() {}
            }
            return true;
        }
    }

    /// Membership test, dispatching on the instance [`Strategy`]:
    ///
    /// * `Dcas` → [`contains_counted`](Self::contains_counted) (one
    ///   `LFRCLoad` DCAS per hop, the paper-faithful baseline);
    /// * `DeferredDec` → the §5.9 uncounted fast path (plain loads,
    ///   rc-validated, restart on suspicion).
    pub fn contains(&self, key: u64) -> bool {
        match self.strategy {
            Strategy::Dcas => self.contains_counted(key),
            Strategy::DeferredDec => self.contains_deferred(key),
        }
    }

    /// Membership test — the deferred fast path (DESIGN.md §5.9).
    ///
    /// The whole traversal runs inside one [`defer::pinned`] scope with
    /// **plain pointer loads**: no DCAS, no count traffic per hop — versus
    /// one `LFRCLoad` DCAS per hop for [`contains_counted`]. A hop may
    /// land on a node that was concurrently freed (the pin keeps its
    /// memory mapped); soundness comes from validation, not counts:
    ///
    /// * a null link may be a harvested field on a freed node — reading a
    ///   nonzero [`Borrowed::ref_count`] *after* the read proves the null
    ///   was genuine, otherwise restart;
    /// * at a key match, a nonzero count after the match proves `curr`
    ///   was a real, reachable node when its key was read.
    ///
    /// Keys are immutable payload (readable even on a freed node), so the
    /// comparisons in between need no validation of their own.
    pub fn contains_deferred(&self, key: u64) -> bool {
        let ekey = encode_key(key);
        defer::pinned(|pin| 'restart: loop {
            let Some(mut pred) = self.head.load_deferred(pin) else {
                return false; // only during teardown
            };
            for lvl in (0..MAX_HEIGHT).rev() {
                let mut curr = match pred.next[lvl].load_deferred(pin) {
                    Some(c) => c,
                    None => {
                        if Borrowed::ref_count(&pred) == 0 {
                            continue 'restart; // harvested, not "level empty"
                        }
                        continue;
                    }
                };
                while curr.key < ekey {
                    let next = match curr.next[lvl].load_deferred(pin) {
                        Some(n) => n,
                        None => {
                            if Borrowed::ref_count(&curr) == 0 {
                                continue 'restart;
                            }
                            break;
                        }
                    };
                    pred = curr;
                    curr = next;
                }
                if curr.key == ekey {
                    if Borrowed::ref_count(&curr) == 0 {
                        continue 'restart; // freed under us; re-traverse
                    }
                    return curr.marked.load() == 0;
                }
            }
            return false;
        })
    }

    /// Membership test via counted loads (`LFRCLoad` per hop) — the
    /// baseline the deferred paths are measured against in experiment
    /// E10.
    pub fn contains_counted(&self, key: u64) -> bool {
        let ekey = encode_key(key);
        let mut pred = self.head.load().expect("head sentinel");
        for lvl in (0..MAX_HEIGHT).rev() {
            let mut curr = match pred.next[lvl].load() {
                Some(c) => c,
                None => continue,
            };
            while curr.key < ekey {
                let next = match curr.next[lvl].load() {
                    Some(n) => n,
                    None => break,
                };
                pred = curr;
                curr = next;
            }
            if curr.key == ekey {
                return curr.marked.load() == 0;
            }
        }
        false
    }

    /// Bounded ascending range scan: up to `limit` live keys `>= start`,
    /// in key order.
    ///
    /// The descent and the level-0 walk both use **counted** loads
    /// (`LFRCLoad` DCAS per hop), which are sound under every
    /// [`Strategy`] — each hop holds a real count on the node it visits,
    /// so a concurrent remove can unlink but never free a node mid-walk.
    /// The scan is not an atomic snapshot: each returned key was live at
    /// the moment its node was inspected, which is the usual guarantee
    /// for lock-free range queries (keys inserted or removed while the
    /// walk passes them may or may not appear).
    pub fn scan(&self, start: u64, limit: usize) -> Vec<u64> {
        if limit == 0 {
            return Vec::new();
        }
        let estart = encode_key(start);
        // Counted top-down descent (as in `contains_counted`) to reach
        // the last node with key < estart without walking the full list.
        let mut pred = self.head.load().expect("head sentinel");
        for lvl in (0..MAX_HEIGHT).rev() {
            let mut curr = match pred.next[lvl].load() {
                Some(c) => c,
                None => continue,
            };
            while curr.key < estart {
                let next = match curr.next[lvl].load() {
                    Some(n) => n,
                    None => break,
                };
                pred = curr;
                curr = next;
            }
        }
        // Level-0 walk from pred, collecting live in-range keys.
        let mut out = Vec::with_capacity(limit.min(64));
        let mut curr = pred;
        loop {
            let next = match curr.next[0].load() {
                Some(n) => n,
                None => break,
            };
            if next.key == TAIL_KEY {
                break;
            }
            if next.key >= estart && next.marked.load() == 0 {
                out.push(next.key - 1); // decode
                if out.len() == limit {
                    break;
                }
            }
            curr = next;
        }
        out
    }

    /// Number of live keys (O(n) level-0 walk; diagnostics).
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut curr = self.head.load().expect("head sentinel");
        loop {
            let next = curr.next[0].load();
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

#[cfg(test)]
mod tests {
    use super::*;
    use lfrc_core::McasWord;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn sequential_semantics() {
        let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
        assert!(s.is_empty());
        for k in [50, 10, 90, 30, 70] {
            assert!(s.insert(k));
        }
        assert!(!s.insert(50));
        assert_eq!(s.len(), 5);
        for k in [10, 30, 50, 70, 90] {
            assert!(s.contains(k));
        }
        assert!(!s.contains(40));
        assert!(s.remove(50));
        assert!(!s.remove(50));
        assert!(!s.contains(50));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn large_sequential_no_leak() {
        let census;
        {
            let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
            census = std::sync::Arc::clone(s.heap().census());
            for k in 0..2_000u64 {
                s.insert((k * 2_654_435_761) % 100_000);
            }
            let before = s.len();
            assert!(before > 1_500, "hash spread should mostly be distinct");
            for k in 0..2_000u64 {
                s.remove((k * 2_654_435_761) % 100_000);
            }
            assert!(s.is_empty());
        }
        assert_eq!(census.live(), 0, "skip list leaked");
    }

    #[test]
    fn towers_index_correctly() {
        // Insert ascending keys; contains must find every one through the
        // multi-level descent (exercises upper-level links).
        let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
        for k in 0..512u64 {
            s.insert(k);
        }
        for k in 0..512u64 {
            assert!(s.contains(k), "lost key {k}");
        }
        assert_eq!(s.len(), 512);
    }

    #[test]
    fn concurrent_disjoint_ranges() {
        const THREADS: usize = 4;
        const PER: u64 = 400;
        let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
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
        for k in 0..THREADS as u64 * PER {
            assert_eq!(s.contains(k), k % 2 == 1, "key {k}");
        }
    }

    #[test]
    fn concurrent_contended_key_space() {
        const THREADS: usize = 4;
        const OPS: u64 = 1_000;
        const KEYS: u64 = 16;
        let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
        let net = AtomicU64::new(0);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (s, net, barrier) = (&s, &net, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let mut x = (t as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1;
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
        assert_eq!(s.len() as u64, net.load(Ordering::Relaxed));
    }

    #[test]
    fn deferred_and_counted_contains_agree() {
        let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
        for k in 0..256u64 {
            s.insert(k);
        }
        for k in (0..256u64).step_by(3) {
            s.remove(k);
        }
        // Quiescent: the deferred traversal and the counted baseline must
        // answer identically for every key.
        for k in 0..300u64 {
            assert_eq!(s.contains(k), s.contains_counted(k), "key {k}");
        }
    }

    #[test]
    fn deferred_contains_survives_concurrent_churn() {
        // Readers on the deferred path race inserts/removes that free
        // nodes mid-traversal; the rc validation must keep every answer
        // plausible (no panic, no wrong answer for keys nobody touches).
        const STABLE: u64 = 999; // outside the churned range
        let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
        s.insert(STABLE);
        let barrier = Barrier::new(3);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let (s, barrier) = (&s, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for round in 0..60 {
                        for k in 0..48u64 {
                            s.insert(k);
                        }
                        for k in 0..48u64 {
                            s.remove(k);
                        }
                        let _ = round;
                    }
                });
            }
            let (s, barrier) = (&s, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..4_000 {
                    assert!(s.contains(STABLE), "stable key lost mid-churn");
                    let _ = s.contains(17); // churned key: any answer is fine
                }
            });
        });
        assert!(s.contains(STABLE));
    }

    /// Flushes the calling thread's parked decrements, then checks that
    /// every node was freed.
    #[track_caller]
    fn assert_census_drains(census: &lfrc_core::Census) {
        lfrc_core::defer::flush_thread();
        assert_eq!(census.live(), 0, "census did not drain");
    }

    #[test]
    fn lfrc_skiplist_every_strategy_sequential() {
        for strategy in Strategy::ALL {
            let s: LfrcSkipList<McasWord> = LfrcSkipList::with_strategy(strategy);
            assert_eq!(s.strategy(), strategy);
            for k in [50, 10, 90, 30, 70] {
                assert!(s.insert(k), "{strategy}");
            }
            assert!(!s.insert(50), "{strategy}");
            assert_eq!(s.len(), 5);
            for k in [10, 30, 50, 70, 90] {
                assert!(s.contains(k), "{strategy}: key {k}");
            }
            assert!(!s.contains(40), "{strategy}");
            assert!(s.remove(50), "{strategy}");
            assert!(!s.contains(50), "{strategy}");
            // Both traversal protocols agree on a quiescent list.
            for k in 0..100u64 {
                assert_eq!(s.contains_counted(k), s.contains_deferred(k), "key {k}");
            }
            let census = std::sync::Arc::clone(s.heap().census());
            drop(s);
            assert_census_drains(&census);
        }
    }

    #[test]
    fn scan_returns_ordered_live_range() {
        let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
        for k in (0..100u64).rev() {
            s.insert(k * 10);
        }
        s.remove(40);
        assert_eq!(s.scan(25, 4), vec![30, 50, 60, 70]);
        assert_eq!(s.scan(30, 3), vec![30, 50, 60]);
        assert_eq!(s.scan(0, 2), vec![0, 10]);
        // Past the end: empty, not panic.
        assert_eq!(s.scan(991, 8), Vec::<u64>::new());
        // limit 0 and oversized limits.
        assert_eq!(s.scan(0, 0), Vec::<u64>::new());
        assert_eq!(s.scan(960, usize::MAX), vec![960, 970, 980, 990]);
    }

    #[test]
    fn scan_every_strategy_matches_contains() {
        for strategy in Strategy::ALL {
            let s: LfrcSkipList<McasWord> = LfrcSkipList::with_strategy(strategy);
            for k in 0..64u64 {
                s.insert(k * 3);
            }
            for k in (0..64u64).step_by(2) {
                s.remove(k * 3);
            }
            let got = s.scan(0, usize::MAX);
            let want: Vec<u64> = (0..64u64).filter(|k| k % 2 == 1).map(|k| k * 3).collect();
            assert_eq!(got, want, "{strategy}");
            let census = std::sync::Arc::clone(s.heap().census());
            drop(s);
            assert_census_drains(&census);
        }
    }

    #[test]
    fn drop_frees_everything() {
        let census;
        {
            let s: LfrcSkipList<McasWord> = LfrcSkipList::new();
            census = std::sync::Arc::clone(s.heap().census());
            for k in 0..500 {
                s.insert(k);
            }
            for k in (0..500).step_by(3) {
                s.remove(k);
            }
        }
        assert_eq!(census.live(), 0);
    }
}
