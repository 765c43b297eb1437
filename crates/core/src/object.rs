//! The LFRC object model: headers, link traversal, and allocation.
//!
//! Paper step 1 — *"Add a field `rc` to each object type … set to 1 in a
//! newly-created object"* — becomes the [`LfrcBox`] header wrapping every
//! user value. Paper step 2 — *"LFRCDestroy should recursively call itself
//! with each pointer in the object"* — becomes the [`Links`] trait, the
//! "most convenient and language-independent way to iterate over all
//! pointers in an object".

use std::fmt;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use lfrc_dcas::{DcasWord, MAX_PAYLOAD};
use lfrc_obs::instrument;

use crate::defer::Borrowed;
use crate::diag::{Census, CANARY_ALIVE, CANARY_FREED};
use crate::local::Local;

/// Declares where an object's LFRC-managed pointers live.
///
/// This is the paper's step 2: destruction must be able to visit every
/// pointer field so reference counts cascade correctly. Implementations
/// must call `f` on **every** [`PtrField`] the type contains — missing one
/// leaks whatever that field points at.
///
/// The object graph is homogeneous in `Self` (the paper's Snark has a
/// single node type, `SNode`); heterogeneous graphs can use an `enum`
/// node payload.
pub trait Links<W: DcasWord>: Send + Sync + Sized + 'static {
    /// Invokes `f` on each LFRC pointer field of `self`.
    fn for_each_link(&self, f: &mut dyn FnMut(&PtrField<Self, W>));
}

/// An LFRC-managed heap object: reference-count header plus user value.
///
/// Created by [`Heap::alloc`]; freed automatically when its reference
/// count reaches zero. User code normally never names this type — it works
/// with [`Local`] handles — but the raw [`ops`](crate::ops) layer (the
/// paper's Figure 2) traffics in `*mut LfrcBox`.
#[repr(C)]
pub struct LfrcBox<T: Links<W>, W: DcasWord> {
    /// Paper step 1: the reference count. A DCAS-capable cell so that
    /// `LFRCLoad` can update it atomically with a pointer check.
    pub(crate) rc: W,
    /// Poisoned on free; checked by count mutators and `Local` derefs.
    pub(crate) canary: AtomicU64,
    /// Intrusive hook for the incremental-destruction backlog (§7).
    pub(crate) backlog_next: AtomicUsize,
    /// `true` when the object lives in a `lfrc-pool` slab slot rather
    /// than a `Box`; [`free_object`] dispatches the release path on it.
    pub(crate) pooled: bool,
    /// Accounting for the heap this object came from.
    pub(crate) census: Arc<Census>,
    /// The user value.
    pub(crate) value: T,
}

impl<T: Links<W>, W: DcasWord> LfrcBox<T, W> {
    /// The reference-count cell (exposed for the raw `ops` layer and for
    /// mixed pointer×word DCAS as in the repaired Snark pops).
    pub fn rc_cell(&self) -> &W {
        &self.rc
    }

    /// The wrapped user value.
    pub fn value(&self) -> &T {
        &self.value
    }

    /// Current reference count (racy snapshot; diagnostics only).
    pub fn ref_count(&self) -> u64 {
        self.rc.load()
    }

    /// `true` while the object has not been logically freed.
    pub(crate) fn is_alive(&self) -> bool {
        self.canary.load(Ordering::SeqCst) == CANARY_ALIVE
    }

    pub(crate) fn assert_alive(&self) {
        debug_assert!(
            self.is_alive(),
            "LFRC object accessed after logical free (canary poisoned)"
        );
    }
}

impl<T: Links<W> + fmt::Debug, W: DcasWord> fmt::Debug for LfrcBox<T, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LfrcBox")
            .field("rc", &self.ref_count())
            .field("value", &self.value)
            .finish()
    }
}

/// Reads a pointer field's raw cell word (crate-internal: audit walks).
pub(crate) fn field_raw_load<T: Links<W>, W: DcasWord>(field: &PtrField<T, W>) -> u64 {
    field.raw().load()
}

/// Converts a possibly-null object pointer to the payload stored in a cell.
#[inline]
pub(crate) fn ptr_to_word<T: Links<W>, W: DcasWord>(p: *mut LfrcBox<T, W>) -> u64 {
    let w = p as usize as u64;
    debug_assert!(w <= MAX_PAYLOAD, "pointer exceeds 62-bit payload");
    w
}

/// Converts a cell payload back to a possibly-null object pointer.
#[inline]
pub(crate) fn word_to_ptr<T: Links<W>, W: DcasWord>(w: u64) -> *mut LfrcBox<T, W> {
    w as usize as *mut LfrcBox<T, W>
}

/// A shared pointer slot inside (or alongside) LFRC objects.
///
/// This is the paper's `SNode **A` — "a pointer to a shared memory
/// location that contains a pointer". All access goes through the LFRC
/// operations; the safe methods here wrap [`crate::ops`] one-for-one:
///
/// | method | paper operation |
/// |---|---|
/// | [`PtrField::load`] | `LFRCLoad` |
/// | [`PtrField::store`] | `LFRCStore` |
/// | [`PtrField::store_consume`] | `LFRCStoreAlloc` |
/// | [`PtrField::compare_and_set`] | `LFRCCAS` |
/// | [`PtrField::dcas`] | `LFRCDCAS` |
///
/// Fields inside objects are visited by [`Links::for_each_link`] during
/// destruction; *standalone* roots should prefer
/// [`SharedField`](crate::SharedField), whose `Drop` releases the
/// reference automatically (fields inside objects must **not** do that —
/// destruction of the containing object already accounts for them).
pub struct PtrField<T: Links<W>, W: DcasWord> {
    cell: W,
    _marker: PhantomData<*mut LfrcBox<T, W>>,
}

// Safety: a `PtrField` is an atomic cell; the objects it points to are
// `Send + Sync` (`Links` requires it).
unsafe impl<T: Links<W>, W: DcasWord> Send for PtrField<T, W> {}
unsafe impl<T: Links<W>, W: DcasWord> Sync for PtrField<T, W> {}

impl<T: Links<W>, W: DcasWord> Default for PtrField<T, W> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T: Links<W>, W: DcasWord> fmt::Debug for PtrField<T, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PtrField({:#x})", self.cell.load())
    }
}

impl<T: Links<W>, W: DcasWord> PtrField<T, W> {
    /// A field initialized to null.
    ///
    /// Paper step 6: "all pointer variables must be initialized to NULL
    /// before being used with any of the LFRC operations".
    pub fn null() -> Self {
        PtrField {
            cell: W::new(0),
            _marker: PhantomData,
        }
    }

    /// The underlying DCAS cell (raw `ops` layer only).
    pub(crate) fn raw(&self) -> &W {
        &self.cell
    }

    /// `true` if the field currently holds null (uncounted peek).
    pub fn is_null(&self) -> bool {
        self.cell.load() == 0
    }

    /// `LFRCLoad`: loads the pointer, returning a counted local reference
    /// (or `None` for null).
    pub fn load(&self) -> Option<Local<T, W>> {
        let mut dest: *mut LfrcBox<T, W> = ptr::null_mut();
        // Safety: `dest` starts null (nothing to over-destroy); the
        // returned pointer's count is owned by the new `Local`.
        unsafe {
            crate::ops::load(self, &mut dest);
            Local::from_counted_raw(dest)
        }
    }

    /// The deferred fast path (DESIGN.md §5.9): reads the pointer as a
    /// **plain load** — no DCAS, no count — returning a pin-scoped
    /// [`Borrowed`]. Upgrade with [`Borrowed::promote`] when a counted
    /// reference is needed; validate link reads via
    /// [`Borrowed::ref_count`] (see [`crate::defer`]).
    ///
    /// Also available on [`SharedField`](crate::SharedField) roots via
    /// its `Deref` to `PtrField`.
    pub fn load_deferred<'p>(&self, pin: &'p crate::defer::Pin) -> Option<Borrowed<'p, T, W>> {
        // Safety: the object containing `self` is alive (caller holds it
        // counted/borrowed, or it is a root); `pin` witnesses the epoch
        // guard that keeps the referent mapped.
        unsafe {
            let p = crate::ops::load_deferred(self);
            Borrowed::from_raw(p, pin)
        }
    }

    /// `LFRCCAS` with a **borrowed** expectation: like
    /// [`PtrField::compare_and_set`], but `expected` is a pin-scoped
    /// [`Borrowed`] instead of a counted [`Local`] — the deferred fast
    /// path's replace step, saving the counted load of the value being
    /// swapped out. `expected` is identity-only; `new` still pays its
    /// count (promote first). On success the displaced reference is
    /// **parked** on the thread's decrement buffer
    /// ([`crate::defer`]) rather than destroyed — the swap itself does
    /// no decrement work.
    pub fn compare_and_set_deferred(
        &self,
        expected: Option<&Borrowed<'_, T, W>>,
        new: Option<&Local<T, W>>,
    ) -> bool {
        // Safety: `new` is a live counted reference (or null); `expected`
        // is pin-scoped, which `ops::cas_deferred` explicitly permits for
        // the expectation side (identity-only; the count parked on
        // success is the location's own).
        unsafe {
            crate::ops::cas_deferred(
                self,
                Borrowed::option_as_raw(expected),
                Local::option_as_ptr(new),
            )
        }
    }

    /// `LFRCStore`: stores `v` (incrementing its count), releasing the
    /// reference previously held by the field.
    pub fn store(&self, v: Option<&Local<T, W>>) {
        // Safety: `v` is a live counted reference (or null).
        unsafe { crate::ops::store(self, Local::option_as_ptr(v)) }
    }

    /// `LFRCStoreAlloc`: stores `v`, *consuming* its count instead of
    /// incrementing — "more convenient than explicitly saving the pointer
    /// returned by `new` so that it can be immediately LFRCDestroyed"
    /// (paper Figure 1 caption).
    pub fn store_consume(&self, v: Local<T, W>) {
        let p = Local::into_counted_raw(v);
        // Safety: `p`'s count is transferred to the field.
        unsafe { crate::ops::store_alloc(self, p) }
    }

    /// `LFRCCAS`: atomically replaces `expected` with `new`.
    ///
    /// Identity is pointer equality. Returns `true` on success.
    pub fn compare_and_set(
        &self,
        expected: Option<&Local<T, W>>,
        new: Option<&Local<T, W>>,
    ) -> bool {
        // Safety: both are live counted references (or null).
        unsafe {
            crate::ops::cas(
                self,
                Local::option_as_ptr(expected),
                Local::option_as_ptr(new),
            )
        }
    }

    /// `LFRCDCAS`: atomically replaces `a_expected`/`b_expected` in two
    /// independently chosen fields with `a_new`/`b_new`.
    #[allow(clippy::too_many_arguments)]
    pub fn dcas(
        a: &Self,
        b: &Self,
        a_expected: Option<&Local<T, W>>,
        b_expected: Option<&Local<T, W>>,
        a_new: Option<&Local<T, W>>,
        b_new: Option<&Local<T, W>>,
    ) -> bool {
        // Safety: all are live counted references (or null).
        unsafe {
            crate::ops::dcas(
                a,
                b,
                Local::option_as_ptr(a_expected),
                Local::option_as_ptr(b_expected),
                Local::option_as_ptr(a_new),
                Local::option_as_ptr(b_new),
            )
        }
    }
}

/// An allocator of LFRC objects of one node type, with census attached.
///
/// Lock-free structures own a `Heap` and allocate nodes from it; the heap
/// imposes **no freelist and no type-stable-memory restriction** — nodes
/// come back to the allocator the moment their count hits zero (plus the
/// emulator's grace period), which is precisely the property the paper
/// contrasts against Valois' scheme (§1). Nodes are served from the
/// `lfrc-pool` slab allocator, which returns whole slabs to the OS once
/// they empty, so it is a cache, not a type-stable freelist. A node the
/// pool declines (bigger than `lfrc_pool::MAX_ALLOC`, alignment above 64,
/// or an injected refusal) gets its own `Box` instead.
pub struct Heap<T: Links<W>, W: DcasWord> {
    census: Arc<Census>,
    _marker: PhantomData<fn() -> (T, W)>,
}

impl<T: Links<W>, W: DcasWord> fmt::Debug for Heap<T, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Heap")
            .field("census", &self.census)
            .finish()
    }
}

impl<T: Links<W>, W: DcasWord> Default for Heap<T, W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Links<W>, W: DcasWord> Clone for Heap<T, W> {
    fn clone(&self) -> Self {
        Heap {
            census: Arc::clone(&self.census),
            _marker: PhantomData,
        }
    }
}

impl<T: Links<W>, W: DcasWord> Heap<T, W> {
    /// Creates a heap with a fresh census.
    pub fn new() -> Self {
        Heap {
            census: Arc::new(Census::new()),
            _marker: PhantomData,
        }
    }

    /// The census this heap reports into.
    pub fn census(&self) -> &Arc<Census> {
        &self.census
    }

    /// Allocates a new object with reference count 1 (paper step 1: "this
    /// field should be set to 1 in a newly-created object"), returning the
    /// counted local reference that the count covers.
    ///
    /// Infallible from the caller's perspective: a pool refusal falls
    /// back to the global allocator, and a global-allocator refusal
    /// (only reachable under injected faults — a real OOM aborts inside
    /// `Box::new`) panics. Error-propagating callers use
    /// [`Heap::try_alloc`].
    pub fn alloc(&self, value: T) -> Local<T, W> {
        self.try_alloc(value)
            .unwrap_or_else(|_| panic!("lfrc heap allocation failed (injected fault)"))
    }

    /// Fallible [`Heap::alloc`]: returns the value back as `Err` when the
    /// allocation cannot be satisfied.
    ///
    /// A refused pool slot falls back to the global allocator, and only
    /// a refused global allocation is an error. Without the `inject`
    /// feature the global allocator never refuses (real exhaustion aborts
    /// the process, as with `Box::new`), so `Err` is unreachable in
    /// production builds.
    pub fn try_alloc(&self, value: T) -> Result<Local<T, W>, T> {
        let raw = match self.alloc_pooled(value) {
            Ok(raw) => raw,
            Err(value) => self.try_alloc_global(value)?,
        };
        self.census.note_alloc(std::mem::size_of::<LfrcBox<T, W>>());
        lfrc_obs::recorder::record(lfrc_obs::EventKind::Alloc, raw as usize, 1);
        // Safety: fresh allocation, count 1, owned by the returned Local.
        Ok(unsafe { Local::from_counted_raw(raw).expect("fresh allocation is non-null") })
    }

    /// Tries to place `value` in a pool slot; hands the value back when
    /// the pool declines the layout (or an injected fault refuses it).
    fn alloc_pooled(&self, value: T) -> Result<*mut LfrcBox<T, W>, T> {
        if !instrument::alloc_allowed(instrument::AllocSite::HeapPooled) {
            return Err(value);
        }
        let layout = std::alloc::Layout::new::<LfrcBox<T, W>>();
        let Some(slot) = lfrc_pool::alloc(layout) else {
            return Err(value);
        };
        let raw = slot.as_ptr() as *mut LfrcBox<T, W>;
        // Safety: the slot is uninitialized, exclusively ours, and big
        // enough for the layout we asked for.
        unsafe {
            raw.write(LfrcBox {
                rc: W::new(1),
                canary: AtomicU64::new(CANARY_ALIVE),
                backlog_next: AtomicUsize::new(0),
                pooled: true,
                census: Arc::clone(&self.census),
                value,
            });
        }
        Ok(raw)
    }

    /// Places `value` in its own `Box`: the path for layouts the pool
    /// declines and for injected pool refusals.
    fn try_alloc_global(&self, value: T) -> Result<*mut LfrcBox<T, W>, T> {
        if !instrument::alloc_allowed(instrument::AllocSite::HeapGlobal) {
            return Err(value);
        }
        Ok(Box::into_raw(Box::new(LfrcBox {
            rc: W::new(1),
            canary: AtomicU64::new(CANARY_ALIVE),
            backlog_next: AtomicUsize::new(0),
            pooled: false,
            census: Arc::clone(&self.census),
            value,
        })))
    }
}

/// Logically frees an object whose reference count has reached zero.
///
/// Poisons the canary, updates the census, and releases the memory —
/// physically deferred through the DCAS emulator's grace period (or
/// parked in quarantine while the census has quarantine mode on).
///
/// # Safety
///
/// `ptr`'s reference count must have just reached zero (exclusive
/// access), with all link fields already harvested.
pub(crate) unsafe fn free_object<T: Links<W>, W: DcasWord>(ptr: *mut LfrcBox<T, W>) {
    // Safety: exclusive access per contract.
    let obj = unsafe { &*ptr };
    // The canary swap makes free idempotent: the deliberately unsound
    // protocol of experiment E5 can race two frees onto one object (an
    // increment landing in the instant between the freeing decision and
    // this poison store); the loser is counted, not executed.
    if obj.canary.swap(CANARY_FREED, Ordering::SeqCst) != CANARY_ALIVE {
        lfrc_obs::recorder::record(lfrc_obs::EventKind::RcOnFreed, ptr as usize, 0);
        obj.census.note_rc_on_freed();
        lfrc_obs::recorder::note_violation("double free raced on canary", ptr as usize);
        return;
    }
    obj.census.note_free(std::mem::size_of::<LfrcBox<T, W>>());
    lfrc_obs::recorder::record(lfrc_obs::EventKind::Free, ptr as usize, 0);
    let census = Arc::clone(&obj.census);
    let pooled = obj.pooled;
    if census.quarantine_on() {
        if pooled {
            // Safety: pushed exactly once; the drain (which runs at
            // quiescence) routes the slot back through the pool.
            unsafe { census.quarantine_push_with(ptr as *mut (), release_pooled_slot::<T, W>) };
        } else {
            // Safety: pushed exactly once; drained after the experiment.
            unsafe { census.quarantine_push(ptr) };
        }
    } else if pooled {
        // Safety: retired exactly once; the algorithm holds no pointers.
        // The grace period before `release_pooled_slot` runs is what lets
        // the pool recirculate the slot immediately on release — see the
        // `lfrc-pool` crate docs.
        unsafe { lfrc_dcas::retire_fn(ptr as *mut (), release_pooled_slot::<T, W>) };
    } else {
        // Safety: retired exactly once; the algorithm holds no pointers.
        unsafe { lfrc_dcas::retire_box(ptr) };
    }
}

/// Deferred release of a pool-resident object: runs the value's `Drop`
/// and hands the slot back to the pool. The monomorphic `unsafe fn`
/// shape is what `retire_fn`/`defer_fn` carry through the grace period
/// without allocating.
///
/// # Safety
///
/// `p` must be a pooled `LfrcBox<T, W>` whose count reached zero, called
/// exactly once, after the grace period.
unsafe fn release_pooled_slot<T: Links<W>, W: DcasWord>(p: *mut ()) {
    let ptr = p as *mut LfrcBox<T, W>;
    // Safety: exclusive access per contract; the slot came from
    // `lfrc_pool::alloc` (we wrote `pooled: true` into it).
    unsafe {
        ptr::drop_in_place(ptr);
        lfrc_pool::dealloc(std::ptr::NonNull::new_unchecked(ptr as *mut u8));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfrc_dcas::McasWord;

    struct Node {
        #[allow(dead_code)]
        id: u64,
        next: PtrField<Node, McasWord>,
    }

    impl Links<McasWord> for Node {
        fn for_each_link(&self, f: &mut dyn FnMut(&PtrField<Node, McasWord>)) {
            f(&self.next);
        }
    }

    /// Too big for any pool size class, so its heap falls back to `Box`.
    struct Big {
        #[allow(dead_code)]
        pad: [u8; lfrc_pool::MAX_ALLOC],
    }

    impl Links<McasWord> for Big {
        fn for_each_link(&self, _f: &mut dyn FnMut(&PtrField<Big, McasWord>)) {}
    }

    fn is_pooled<T: Links<McasWord>>(n: &Local<T, McasWord>) -> bool {
        // Safety: the counted `n` keeps its object alive.
        unsafe { (*Local::option_as_ptr(Some(n))).pooled }
    }

    #[test]
    fn backends_agree_on_census_accounting() {
        let small: Heap<Node, McasWord> = Heap::new();
        let nodes: Vec<_> = (0..100)
            .map(|id| {
                small.alloc(Node {
                    id,
                    next: PtrField::null(),
                })
            })
            .collect();
        assert_eq!(small.census().live(), 100);
        drop(nodes);
        assert_eq!(small.census().live(), 0);

        let big: Heap<Big, McasWord> = Heap::new();
        let nodes: Vec<_> = (0..100)
            .map(|_| {
                big.alloc(Big {
                    pad: [0; lfrc_pool::MAX_ALLOC],
                })
            })
            .collect();
        assert!(!nodes.iter().any(is_pooled), "over MAX_ALLOC must be boxed");
        assert_eq!(big.census().live(), 100);
        drop(nodes);
        assert_eq!(big.census().live(), 0);
        lfrc_dcas::quiesce();
    }

    #[test]
    fn heap_draws_from_the_pool() {
        let heap: Heap<Node, McasWord> = Heap::new();
        let n = heap.alloc(Node {
            id: 0,
            next: PtrField::null(),
        });
        assert!(is_pooled(&n));
    }

    #[test]
    fn pooled_nodes_round_trip_through_quarantine() {
        let heap: Heap<Node, McasWord> = Heap::new();
        heap.census().set_quarantine(true);
        let n = heap.alloc(Node {
            id: 7,
            next: PtrField::null(),
        });
        let pooled = is_pooled(&n);
        drop(n);
        assert_eq!(heap.census().quarantined(), 1);
        // Safety: fully quiesced — no other thread touches this heap.
        assert_eq!(unsafe { heap.census().drain_quarantine() }, 1);
        assert_eq!(heap.census().live(), 0);
        assert!(
            pooled,
            "quarantine test should exercise the pooled release path"
        );
    }
}
