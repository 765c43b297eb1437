//! An epoch-gated slab allocator for LFRC nodes.
//!
//! The LFRC protocol allocates and frees constantly: every counted object
//! is a heap node. Routing node traffic through the global allocator
//! makes `malloc` the dominant cost of the whole reproduction. This crate
//! replaces it with a purpose-built pool shaped by the protocol's
//! reclamation rules:
//!
//! * **Size-class slabs.** Requests are rounded up to a multiple of
//!   64 bytes (up to [`MAX_ALLOC`]) and served from 64 KiB slabs aligned
//!   to 64 KiB, so a slot pointer finds its slab header by masking low
//!   bits — no per-slot metadata.
//! * **Per-thread magazines.** Each thread owns a bounded LIFO cache of
//!   free slots per class. The hot alloc/free path is a thread-local
//!   `Vec` push/pop: no atomics, no locks. Magazine shards live in a
//!   claim/vacate registry (mirroring the `lfrc-obs` counter shards): a
//!   vacating thread drains its slots back to their slabs so memory is
//!   never stranded, and the shard structure is recycled by the next
//!   thread to start.
//! * **Lock-free remote free.** A slot freed by a thread whose magazine
//!   is full (or by a thread other than the allocator, after the shards
//!   rotate) is pushed onto its slab's intrusive Treiber stack with a
//!   single CAS. Slabs are harvested from that stack, under the class
//!   lock, on the magazine-refill cold path.
//! * **Epoch-gated retirement.** When the last outstanding slot of a
//!   fully-carved slab comes home, the freeing thread takes the class
//!   lock, re-checks, unlinks the slab from the live registry, and hands
//!   it to the registered *retire sink* (see [`set_retire_sink`]). The
//!   sink — installed by `lfrc-dcas`, which owns the process-wide epoch
//!   collector — defers [`release_retired_slab`] by one grace period, so
//!   the slab's pages are returned to the OS only after every operation
//!   that could still read them has finished.
//!
//! # Why slot reuse needs no epoch gate of its own
//!
//! The pool hands a freed slot back into circulation immediately, yet the
//! `Borrowed`/pin contract promises that pinned readers never observe a
//! *recycled* object. The gate lives in the caller: `lfrc-core` and
//! `lfrc-dcas` never call [`dealloc`] directly from the algorithm's
//! "free". They epoch-defer the release (via `retire_fn`), so by the time
//! a slot reaches this crate one full grace period has already elapsed
//! since the object was unreachable. Slab *retirement* then adds a second
//! grace period before the pages are unmapped — belt and braces for the
//! emulator's stray-read discipline, which permits reads (never writes)
//! of stale cells one epoch back.
//!
//! # Feature gating
//!
//! Everything is behind the `enabled` cargo feature. When it is off,
//! [`alloc`] always returns `None` and callers fall back to the global
//! allocator, which keeps the pool out of `--no-default-features` builds
//! entirely. Only the workspace root and `lfrc-bench` forward a feature
//! here; the crates that use the pool depend on it featurelessly.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::alloc::Layout;
use std::ptr::NonNull;

/// Largest request (in bytes) the pool will serve; bigger layouts make
/// [`alloc`] return `None` and the caller falls back to the global
/// allocator. Also the largest size class.
pub const MAX_ALLOC: usize = 4096;

/// Size (and alignment) of one slab. Slot pointers are mapped to their
/// slab header by masking the low `log2(SLAB_SIZE)` bits.
pub const SLAB_SIZE: usize = 64 * 1024;

/// Point-in-time gauges of the pool's footprint.
///
/// Unlike the monotone `lfrc-obs` counters (which survive as high-water
/// marks), these can shrink: a grow-then-shrink workload should show
/// `slabs_live` returning to near its baseline once churn stops and
/// magazines are flushed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Slabs currently linked into a class registry (allocated − retired).
    pub slabs_live: u64,
    /// Slabs ever mapped.
    pub slabs_allocated: u64,
    /// Slabs unlinked and handed to the retire sink (or leaked when no
    /// sink is registered).
    pub slabs_retired: u64,
    /// Retired slabs whose pages have actually been returned to the OS
    /// (the sink's grace period expired).
    pub slabs_released: u64,
    /// Bytes still mapped: (allocated − released) × [`SLAB_SIZE`].
    pub bytes_mapped: u64,
}

/// Whether this build contains the pool (`enabled` cargo feature).
///
/// When `false`, [`alloc`] always returns `None`.
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

#[cfg(feature = "enabled")]
mod imp {
    use std::alloc::Layout;
    use std::cell::UnsafeCell;
    use std::mem;
    use std::ptr::NonNull;
    use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;

    use lfrc_obs::counters::{self, Counter};
    use lfrc_obs::instrument::{self, yield_point, InstrSite};

    use super::{PoolStats, MAX_ALLOC, SLAB_SIZE};

    /// Classes are multiples of this grain; it is also the maximum layout
    /// alignment the pool serves (slots sit on 64-byte boundaries).
    const CLASS_GRAIN: usize = 64;
    const N_CLASSES: usize = MAX_ALLOC / CLASS_GRAIN;
    /// Bytes reserved at the front of a slab for its header; the first
    /// slot starts here.
    const HDR_RESERVE: usize = 64;
    /// Magazine capacity per (thread, class); refills aim for half.
    const MAG_CAP: usize = 64;
    const SLAB_MASK: usize = !(SLAB_SIZE - 1);
    const SLAB_MAGIC: u64 = 0x4c46_5243_504f_4f4c; // "LFRCPOOL"

    /// Lives at offset 0 of every slab.
    ///
    /// `in_use` counts slots currently *outside* the slab — held by a
    /// live object or parked in some thread's magazine. It is incremented
    /// under the class lock when a slot leaves (fresh carve or remote
    /// harvest) and decremented by the lock-free remote push when a slot
    /// comes home; the decrement that reaches zero triggers the
    /// retirement attempt. Slots sitting in magazines therefore pin their
    /// slab live, which is exactly why vacating threads drain.
    #[repr(C, align(64))]
    struct SlabHeader {
        magic: u64,
        class_idx: u32,
        slot_size: u32,
        n_slots: u32,
        /// Slots handed out at least once (bump cursor). Mutated only
        /// under the class lock; a slab retires only once fully carved,
        /// so at most one partially-carved slab lingers per class.
        carved: AtomicU32,
        in_use: AtomicUsize,
        /// Treiber stack of returned slots; each free slot's first word
        /// is the intrusive next link (0 terminates).
        remote_head: AtomicUsize,
    }

    const _: () = assert!(mem::size_of::<SlabHeader>() <= HDR_RESERVE);
    const _: () = assert!(SLAB_SIZE.is_power_of_two());

    struct ClassState {
        /// Addresses of live slab headers, including `current`.
        slabs: Vec<usize>,
        /// The bump-carve slab (0 = none).
        current: usize,
    }

    impl ClassState {
        const fn new() -> Self {
            ClassState {
                slabs: Vec::new(),
                current: 0,
            }
        }
    }

    static CLASSES: [Mutex<ClassState>; N_CLASSES] =
        [const { Mutex::new(ClassState::new()) }; N_CLASSES];

    static SLABS_ALLOCATED: AtomicU64 = AtomicU64::new(0);
    static SLABS_RETIRED: AtomicU64 = AtomicU64::new(0);
    static SLABS_RELEASED: AtomicU64 = AtomicU64::new(0);
    static SLABS_LIVE: AtomicU64 = AtomicU64::new(0);

    /// The registered retire sink as a `usize` (0 = none). A plain store
    /// rather than a `OnceLock` so tests can install their own.
    static RETIRE_SINK: AtomicUsize = AtomicUsize::new(0);

    fn slab_layout() -> Layout {
        Layout::from_size_align(SLAB_SIZE, SLAB_SIZE).unwrap()
    }

    fn class_of(layout: Layout) -> Option<usize> {
        let size = layout.size().max(1);
        if size > MAX_ALLOC || layout.align() > CLASS_GRAIN {
            return None;
        }
        Some(size.div_ceil(CLASS_GRAIN) - 1)
    }

    /// # Safety
    /// `slot` must have been returned by [`alloc`] (and not yet released
    /// back past its slab's retirement).
    unsafe fn header_of(slot: *mut u8) -> *mut SlabHeader {
        ((slot as usize) & SLAB_MASK) as *mut SlabHeader
    }

    // ---- magazines ------------------------------------------------------

    struct MagazineSet {
        mags: UnsafeCell<[Vec<*mut u8>; N_CLASSES]>,
    }

    /// Vacated magazine shards, recycled by the next thread to start.
    /// Stored as addresses; a shard is owned exclusively by whichever
    /// thread popped it (or by nobody, while it sits here).
    static FREE_SETS: Mutex<Vec<usize>> = Mutex::new(Vec::new());

    struct MagGuard(*mut MagazineSet);

    impl MagGuard {
        fn claim() -> Self {
            let recycled = FREE_SETS.lock().unwrap().pop();
            let set = match recycled {
                Some(addr) => addr as *mut MagazineSet,
                None => Box::into_raw(Box::new(MagazineSet {
                    mags: UnsafeCell::new(std::array::from_fn(|_| Vec::new())),
                })),
            };
            MagGuard(set)
        }
    }

    impl Drop for MagGuard {
        fn drop(&mut self) {
            // Thread exit: hand every cached slot back to its slab so a
            // dead thread's magazine cannot strand memory or block slab
            // retirement. The shard itself is recycled, not freed.
            unsafe { drain_set(self.0) };
            FREE_SETS.lock().unwrap().push(self.0 as usize);
        }
    }

    thread_local! {
        static TLS_MAGS: MagGuard = MagGuard::claim();
    }

    /// Drains every magazine in `set` back to the slabs. Returns how many
    /// slots were flushed.
    ///
    /// Takes each class's `Vec` out before touching the pool again: a
    /// remote free can retire a slab, whose sink may re-enter the pool
    /// (an epoch reap executing deferred releases), and that re-entry
    /// must not alias the `&mut` we hold on the magazine array. Slots
    /// pushed back by such re-entrant frees simply stay in the shard for
    /// its next owner.
    unsafe fn drain_set(set: *mut MagazineSet) -> usize {
        let mut n = 0;
        for cls in 0..N_CLASSES {
            let slots = {
                let mags = unsafe { &mut *(*set).mags.get() };
                mem::take(&mut mags[cls])
            };
            n += slots.len();
            for slot in slots {
                unsafe { remote_free(header_of(slot), slot) };
            }
        }
        n
    }

    fn magazine_pop(cls: usize) -> Option<*mut u8> {
        TLS_MAGS
            .try_with(|g| {
                // Safety: the shard is owned by this thread; the borrow
                // does not outlive the closure and nothing re-entrant
                // runs inside it.
                let mags = unsafe { &mut *(*g.0).mags.get() };
                mags[cls].pop()
            })
            .ok()
            .flatten()
    }

    fn magazine_push(cls: usize, slot: *mut u8) -> bool {
        TLS_MAGS
            .try_with(|g| {
                let mags = unsafe { &mut *(*g.0).mags.get() };
                let m = &mut mags[cls];
                if m.len() < MAG_CAP {
                    m.push(slot);
                    true
                } else {
                    false
                }
            })
            .unwrap_or(false) // TLS torn down: fall through to remote free
    }

    // ---- slabs ----------------------------------------------------------

    fn new_slab(cls: usize) -> *mut SlabHeader {
        let ptr = unsafe { std::alloc::alloc(slab_layout()) };
        assert!(!ptr.is_null(), "lfrc-pool: slab allocation failed");
        let slot_size = ((cls + 1) * CLASS_GRAIN) as u32;
        let n_slots = ((SLAB_SIZE - HDR_RESERVE) / slot_size as usize) as u32;
        let hdr = ptr as *mut SlabHeader;
        unsafe {
            hdr.write(SlabHeader {
                magic: SLAB_MAGIC,
                class_idx: cls as u32,
                slot_size,
                n_slots,
                carved: AtomicU32::new(0),
                in_use: AtomicUsize::new(0),
                remote_head: AtomicUsize::new(0),
            });
        }
        SLABS_ALLOCATED.fetch_add(1, Ordering::Relaxed);
        let live = SLABS_LIVE.fetch_add(1, Ordering::Relaxed) + 1;
        counters::add(Counter::PoolSlabAlloc, 1);
        counters::record_max(Counter::PoolSlabsLiveHighWater, live);
        hdr
    }

    /// Pops one slot off `hdr`'s remote stack. Called only under the
    /// class lock (pops are serialized; pushes stay lock-free), which is
    /// what makes the pop ABA-free: no one else can remove `head` while
    /// we hold the lock, so if the CAS sees `head` it still links `next`.
    unsafe fn remote_pop(hdr: *mut SlabHeader) -> Option<*mut u8> {
        let h = unsafe { &*hdr };
        loop {
            let head = h.remote_head.load(Ordering::Acquire);
            if head == 0 {
                return None;
            }
            let next = unsafe { *(head as *const usize) };
            if h.remote_head
                .compare_exchange_weak(head, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                h.in_use.fetch_add(1, Ordering::AcqRel);
                return Some(head as *mut u8);
            }
        }
    }

    /// Takes up to `want` never-used slots from `hdr`'s bump region.
    /// Called only under the class lock.
    unsafe fn carve(hdr: *mut SlabHeader, want: usize, out: &mut Vec<*mut u8>) -> usize {
        let h = unsafe { &*hdr };
        let carved = h.carved.load(Ordering::Relaxed) as usize;
        let n = (h.n_slots as usize - carved).min(want);
        if n == 0 {
            return 0;
        }
        let base = hdr as usize + HDR_RESERVE;
        for i in 0..n {
            out.push((base + (carved + i) * h.slot_size as usize) as *mut u8);
        }
        h.carved.store((carved + n) as u32, Ordering::Relaxed);
        h.in_use.fetch_add(n, Ordering::AcqRel);
        n
    }

    /// Pushes a slot onto its slab's remote stack and runs the
    /// retirement check. Lock-free except for the (rare) retirement
    /// itself. Never called with the class lock held — retirement takes
    /// it.
    unsafe fn remote_free(hdr: *mut SlabHeader, slot: *mut u8) {
        yield_point(InstrSite::PoolRemoteFree);
        let h = unsafe { &*hdr };
        debug_assert_eq!(h.magic, SLAB_MAGIC, "remote_free on a non-pool pointer");
        let mut head = h.remote_head.load(Ordering::Relaxed);
        loop {
            unsafe { (slot as *mut usize).write(head) };
            match h.remote_head.compare_exchange_weak(
                head,
                slot as usize,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(cur) => head = cur,
            }
        }
        counters::add(Counter::PoolRemoteFree, 1);
        let prev = h.in_use.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev >= 1, "pool in_use underflow");
        if prev == 1 {
            try_retire(hdr);
        }
    }

    /// Retires `hdr` if it is still fully free. Races resolve under the
    /// class lock: a refill that harvested slots in the meantime raised
    /// `in_use` (under the lock) and we back off; a second freeing thread
    /// that also saw zero finds the slab already unlinked and backs off.
    fn try_retire(hdr: *mut SlabHeader) {
        let h = unsafe { &*hdr };
        let cls = h.class_idx as usize;
        {
            let mut st = CLASSES[cls].lock().unwrap();
            let fully_carved = h.carved.load(Ordering::Relaxed) as usize == h.n_slots as usize;
            if !fully_carved || h.in_use.load(Ordering::Acquire) != 0 {
                return;
            }
            let Some(pos) = st.slabs.iter().position(|&s| s == hdr as usize) else {
                return; // already retired by a racing thread
            };
            st.slabs.swap_remove(pos);
            if st.current == hdr as usize {
                st.current = 0;
            }
        }
        // Lock released before anything that can park (the yield hook) or
        // re-enter the pool (the sink may drive an epoch reap).
        SLABS_RETIRED.fetch_add(1, Ordering::Relaxed);
        SLABS_LIVE.fetch_sub(1, Ordering::Relaxed);
        counters::add(Counter::PoolSlabRetire, 1);
        yield_point(InstrSite::PoolSlabRetire);
        let sink = RETIRE_SINK.load(Ordering::Acquire);
        if sink == 0 {
            // Standalone use with no grace-period sink: leak the slab
            // (it stays mapped, which is always safe).
            return;
        }
        let sink: unsafe fn(*mut ()) = unsafe { mem::transmute(sink) };
        // Safety: the slab is unlinked and has no outstanding slots; the
        // sink contract says it will call `release_retired_slab` exactly
        // once, after readers quiesce.
        unsafe { sink(hdr as *mut ()) };
    }

    // ---- public entry points (wrapped by the crate root) ----------------

    pub fn alloc(layout: Layout) -> Option<NonNull<u8>> {
        let cls = class_of(layout)?;
        if let Some(p) = magazine_pop(cls) {
            counters::add(Counter::PoolMagazineHit, 1);
            yield_point(InstrSite::PoolMagazineHit);
            // Safety: magazines only ever hold non-null slot pointers.
            return Some(unsafe { NonNull::new_unchecked(p) });
        }
        counters::add(Counter::PoolMagazineMiss, 1);
        // Injected refill failure: the cold path is where a real pool
        // would hit mmap exhaustion, and `None` is the documented
        // "fall back to the global allocator" answer for every caller.
        if !instrument::alloc_allowed(instrument::AllocSite::PoolRefill) {
            return None;
        }
        Some(slow_alloc(cls))
    }

    fn slow_alloc(cls: usize) -> NonNull<u8> {
        let want = MAG_CAP / 2;
        let mut batch: Vec<*mut u8> = Vec::with_capacity(want);
        {
            let mut st = CLASSES[cls].lock().unwrap();
            // First harvest remote-freed slots — they are hot in some
            // cache and keep existing slabs filling up.
            for &s in &st.slabs {
                let hdr = s as *mut SlabHeader;
                while batch.len() < want {
                    match unsafe { remote_pop(hdr) } {
                        Some(slot) => batch.push(slot),
                        None => break,
                    }
                }
                if batch.len() >= want {
                    break;
                }
            }
            // Then carve fresh slots; map at most one new slab per miss.
            while batch.len() < want {
                if st.current == 0 {
                    if !batch.is_empty() {
                        break;
                    }
                    let hdr = new_slab(cls);
                    st.slabs.push(hdr as usize);
                    st.current = hdr as usize;
                }
                let hdr = st.current as *mut SlabHeader;
                if unsafe { carve(hdr, want - batch.len(), &mut batch) } == 0 {
                    st.current = 0;
                }
            }
        }
        let out = batch.pop().unwrap();
        // Stock the magazine outside the class lock: a full magazine
        // drops slots through remote_free, which may retire a slab and
        // must be able to take the lock.
        for slot in batch {
            if !magazine_push(cls, slot) {
                unsafe { remote_free(header_of(slot), slot) };
            }
        }
        // Safety: slots are carved from non-null slab interiors.
        unsafe { NonNull::new_unchecked(out) }
    }

    pub unsafe fn dealloc(ptr: NonNull<u8>) {
        let slot = ptr.as_ptr();
        let hdr = unsafe { header_of(slot) };
        debug_assert_eq!(
            unsafe { (*hdr).magic },
            SLAB_MAGIC,
            "lfrc_pool::dealloc on a pointer the pool did not allocate"
        );
        let cls = unsafe { (*hdr).class_idx } as usize;
        if magazine_push(cls, slot) {
            return;
        }
        unsafe { remote_free(hdr, slot) };
    }

    pub fn set_retire_sink(sink: unsafe fn(*mut ())) {
        RETIRE_SINK.store(sink as usize, Ordering::Release);
    }

    pub unsafe fn release_retired_slab(p: *mut ()) {
        let hdr = p as *mut SlabHeader;
        unsafe {
            debug_assert_eq!(
                (*hdr).magic,
                SLAB_MAGIC,
                "double release of a retired slab?"
            );
            // Poison the magic so a late header_of on a stale slot fails
            // loudly in debug builds (until the pages are reused).
            (*hdr).magic = 0;
            std::alloc::dealloc(p as *mut u8, slab_layout());
        }
        SLABS_RELEASED.fetch_add(1, Ordering::Relaxed);
    }

    pub fn flush_magazines() -> usize {
        TLS_MAGS
            .try_with(|g| unsafe { drain_set(g.0) })
            .unwrap_or(0)
    }

    pub fn stats() -> PoolStats {
        let allocated = SLABS_ALLOCATED.load(Ordering::Acquire);
        let released = SLABS_RELEASED.load(Ordering::Acquire);
        PoolStats {
            slabs_live: SLABS_LIVE.load(Ordering::Acquire),
            slabs_allocated: allocated,
            slabs_retired: SLABS_RETIRED.load(Ordering::Acquire),
            slabs_released: released,
            bytes_mapped: allocated.saturating_sub(released) * SLAB_SIZE as u64,
        }
    }

    #[cfg(test)]
    pub(crate) fn class_of_for_tests(layout: Layout) -> Option<usize> {
        class_of(layout)
    }
}

/// Allocates a slot big enough for `layout`, or `None` when the pool
/// cannot serve it — size above [`MAX_ALLOC`], alignment above 64, or the
/// `enabled` feature is off. `None` means "use the global allocator";
/// the caller must remember which path it took (e.g. a `pooled` flag in
/// the object header) and free accordingly.
///
/// The returned memory is **uninitialized** — in particular, a recycled
/// slot's first word holds a stale intrusive-stack link.
pub fn alloc(layout: Layout) -> Option<NonNull<u8>> {
    #[cfg(feature = "enabled")]
    return imp::alloc(layout);
    #[cfg(not(feature = "enabled"))]
    {
        let _ = layout;
        None
    }
}

/// Returns a slot to the pool: onto the calling thread's magazine when
/// there is room, else onto the owning slab's lock-free remote stack
/// (possibly triggering that slab's retirement).
///
/// # Safety
///
/// * `ptr` must have come from [`alloc`] and be returned exactly once.
/// * The slot's contents must already be dropped; the pool overwrites
///   the first word.
/// * **Epoch discipline:** callers on the protocol's free path must not
///   call this directly — they defer it by one grace period (see the
///   crate docs), because the slot re-enters circulation immediately.
pub unsafe fn dealloc(ptr: NonNull<u8>) {
    #[cfg(feature = "enabled")]
    unsafe {
        imp::dealloc(ptr)
    };
    #[cfg(not(feature = "enabled"))]
    {
        let _ = ptr;
        unreachable!("lfrc_pool::dealloc without the `enabled` feature — alloc never succeeds");
    }
}

/// Installs the retirement sink: called with each retired slab (as a
/// `*mut ()`), it must arrange for [`release_retired_slab`] to run on
/// that pointer exactly once, after a grace period in which no thread
/// can still read the slab's pages. `lfrc-dcas` installs a sink that
/// defers through its epoch collector; without one, retired slabs are
/// leaked (safe, merely unreclaimed).
pub fn set_retire_sink(sink: unsafe fn(*mut ())) {
    #[cfg(feature = "enabled")]
    imp::set_retire_sink(sink);
    #[cfg(not(feature = "enabled"))]
    let _ = sink;
}

/// Returns a retired slab's pages to the OS. The second half of the
/// retire-sink contract — pass this to `defer_fn`/`retire_fn` with the
/// pointer the sink received.
///
/// # Safety
///
/// `p` must be a pointer handed to the retire sink, released exactly
/// once, after every thread that could read the slab has quiesced.
pub unsafe fn release_retired_slab(p: *mut ()) {
    #[cfg(feature = "enabled")]
    unsafe {
        imp::release_retired_slab(p)
    };
    #[cfg(not(feature = "enabled"))]
    {
        let _ = p;
        unreachable!("lfrc_pool::release_retired_slab without the `enabled` feature");
    }
}

/// Drains the calling thread's magazines back to their slabs, so idle
/// cached slots cannot keep slabs alive. Returns the number of slots
/// flushed. Called automatically when a thread exits; call it manually
/// at quiescence points (experiment phase ends, shrink tests).
pub fn flush_magazines() -> usize {
    #[cfg(feature = "enabled")]
    return imp::flush_magazines();
    #[cfg(not(feature = "enabled"))]
    0
}

/// Current footprint gauges. All zeros when the pool is disabled.
pub fn stats() -> PoolStats {
    #[cfg(feature = "enabled")]
    return imp::stats();
    #[cfg(not(feature = "enabled"))]
    PoolStats::default()
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The pool is process-global state; tests that assert on gauge
    /// deltas serialize here and use generous (monotone-delta) checks.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 8).unwrap()
    }

    #[test]
    fn class_mapping_boundaries() {
        let cls = |size| imp::class_of_for_tests(layout(size));
        assert_eq!(cls(1), Some(0));
        assert_eq!(cls(64), Some(0));
        assert_eq!(cls(65), Some(1));
        assert_eq!(cls(4096), Some(63));
        assert_eq!(cls(4097), None);
        assert_eq!(
            imp::class_of_for_tests(Layout::from_size_align(64, 128).unwrap()),
            None
        );
    }

    #[test]
    fn roundtrip_is_lifo_and_aligned() {
        let _g = TEST_LOCK.lock().unwrap();
        let l = layout(48);
        let p = alloc(l).unwrap();
        assert_eq!(
            p.as_ptr() as usize % 64,
            0,
            "slots sit on 64-byte boundaries"
        );
        assert_ne!(
            p.as_ptr() as usize % SLAB_SIZE,
            0,
            "slot 0 must not alias the slab header"
        );
        unsafe { dealloc(p) };
        let q = alloc(l).unwrap();
        assert_eq!(
            p, q,
            "magazine is LIFO: immediate realloc returns the same slot"
        );
        unsafe { dealloc(q) };
    }

    #[test]
    fn oversized_and_overaligned_fall_back() {
        assert!(alloc(layout(MAX_ALLOC + 1)).is_none());
        assert!(alloc(Layout::from_size_align(64, 4096).unwrap()).is_none());
    }

    #[test]
    fn churn_retires_fully_free_slabs() {
        let _g = TEST_LOCK.lock().unwrap();
        set_retire_sink(release_retired_slab); // immediate release: no readers here
        let before = stats();
        // Class 1008→1024 is used by this test only; a 64 KiB slab holds
        // (65536-64)/1024 = 63 slots, so 200 live objects span 4 slabs.
        let l = layout(1008);
        let ptrs: Vec<_> = (0..200).map(|_| alloc(l).unwrap()).collect();
        for p in ptrs {
            unsafe { dealloc(p) };
        }
        flush_magazines();
        let after = stats();
        assert!(
            after.slabs_retired >= before.slabs_retired + 3,
            "freeing everything should retire the fully-carved slabs: {before:?} -> {after:?}"
        );
        assert!(after.slabs_released >= before.slabs_released + 3);
        // The one partially-carved slab per class may stay live.
        assert_eq!(
            after.slabs_live,
            after.slabs_allocated - after.slabs_retired,
            "live gauge must stay consistent"
        );
    }

    #[test]
    fn cross_thread_free_and_flush_retire_the_slab() {
        let _g = TEST_LOCK.lock().unwrap();
        set_retire_sink(release_retired_slab);
        let before = stats();
        // Unique class for this test: 2048-byte slots, 31 per slab.
        let l = layout(2048);
        let ptrs: Vec<usize> = std::thread::spawn(move || {
            (0..31)
                .map(|_| alloc(l).unwrap().as_ptr() as usize)
                .collect()
        })
        .join()
        .unwrap();
        // Free on a different thread than allocated.
        for p in ptrs {
            unsafe { dealloc(NonNull::new(p as *mut u8).unwrap()) };
        }
        flush_magazines();
        let after = stats();
        assert!(
            after.slabs_retired > before.slabs_retired,
            "cross-thread frees must still retire the slab: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn thread_exit_drains_magazines() {
        let _g = TEST_LOCK.lock().unwrap();
        set_retire_sink(release_retired_slab);
        let before = stats();
        // 3072-byte slots: 21 per slab, unique to this test. The worker
        // frees into its own magazine and exits WITHOUT flushing; the
        // vacate drain must hand the slots back so the slab retires.
        std::thread::spawn(|| {
            let l = layout(3072);
            let ptrs: Vec<_> = (0..21).map(|_| alloc(l).unwrap()).collect();
            for p in ptrs {
                unsafe { dealloc(p) };
            }
        })
        .join()
        .unwrap();
        let after = stats();
        assert!(
            after.slabs_retired > before.slabs_retired,
            "thread exit must drain magazines and allow retirement: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn multithreaded_churn_keeps_gauges_consistent() {
        let _g = TEST_LOCK.lock().unwrap();
        set_retire_sink(release_retired_slab);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let l = layout(400 + t * 16);
                    for _ in 0..200 {
                        let ps: Vec<_> = (0..32).map(|_| alloc(l).unwrap()).collect();
                        for p in ps {
                            unsafe { dealloc(p) };
                        }
                    }
                    flush_magazines();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = stats();
        assert!(s.slabs_retired <= s.slabs_allocated);
        assert!(s.slabs_released <= s.slabs_retired);
        assert_eq!(s.slabs_live, s.slabs_allocated - s.slabs_retired);
        assert_eq!(
            s.bytes_mapped,
            (s.slabs_allocated - s.slabs_released) * SLAB_SIZE as u64
        );
    }

    #[test]
    fn disabled_surface_matches_contract() {
        // Even with the feature on, the fallback contract is observable
        // through oversized requests.
        assert!(enabled());
        assert!(alloc(layout(MAX_ALLOC + 1)).is_none());
    }
}
