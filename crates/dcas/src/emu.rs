//! The emulator's private reclamation domain.
//!
//! User allocations containing cells must outlive their logical lifetime
//! inside the DCAS emulation: a failing emulated DCAS (or a lagging
//! helper) may still *read* a cell inside an object the algorithm has
//! already freed — exactly the stray read hardware DCAS performs (see the
//! crate docs). MCAS/RDCSS descriptors need no such care: they live in
//! immortal per-thread slots that are never freed (DESIGN.md §5.14).
//!
//! Such objects are retired into one process-wide epoch [`Collector`]
//! (`lfrc-reclaim`); every emulated operation runs inside a pin guard, so
//! retired memory is physically freed only once no in-flight operation can
//! touch it. None of this is visible to the LFRC algorithm above: it calls
//! "free" where the paper says, and never sees the object again.

use std::cell::OnceCell;
use std::sync::OnceLock;

use lfrc_reclaim::epoch::Guard;
use lfrc_reclaim::stats::StatsSnapshot;
use lfrc_reclaim::{Collector, LocalHandle};

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| {
        // The slab pool sits below this crate in the dependency graph, so
        // it cannot epoch-defer by itself; wire its retirement path to
        // this collector the first time anything pins. Every pool user
        // reaches a pin before any slab can possibly retire (slabs retire
        // on the free path, and frees are themselves epoch-deferred), so
        // registering here is early enough.
        lfrc_pool::set_retire_sink(pool_retire_sink);
        Collector::new()
    })
}

/// Retire sink for `lfrc-pool`: a fully-free slab's pages are unmapped
/// only after one further grace period, so an emulated operation that
/// still holds a stale slot pointer (the stray *read* hardware DCAS may
/// perform) keeps reading mapped memory.
unsafe fn pool_retire_sink(slab: *mut ()) {
    unsafe { retire_fn(slab, lfrc_pool::release_retired_slab) };
}

thread_local! {
    static HANDLE: OnceCell<LocalHandle> = const { OnceCell::new() };
}

/// Runs `f` with the calling thread pinned in the emulator's epoch.
///
/// Every cell operation of every strategy goes through this; nesting is
/// cheap (reentrant pinning).
///
/// Exposed publicly because a *composite* algorithm step sometimes needs
/// the pin to span several cell operations: the LFRC `load`, for example,
/// reads a pointer cell and then touches the referent's reference-count
/// cell — the referent may be logically freed in between, and only the
/// emulator's grace period keeps its memory mapped for the failing DCAS,
/// exactly as physical memory would remain mapped under hardware DCAS.
pub fn with_guard<R>(f: impl FnOnce(&Guard<'_>) -> R) -> R {
    // `Option` dance: the closure below runs at most once, but `try_with`
    // cannot prove that to the borrow checker.
    let mut f = Some(f);
    match HANDLE.try_with(|h| {
        let handle = h.get_or_init(|| collector().register());
        let guard = handle.pin();
        (f.take().unwrap())(&guard)
    }) {
        Ok(r) => r,
        // The thread-local handle is already destroyed: we are inside a
        // TLS destructor (a vacating thread draining its pool magazines
        // can retire a slab, whose deallocation is epoch-deferred from
        // right here). Registering a scratch handle is cheap — `register`
        // reuses vacated registry slots — and correctness only needs *a*
        // pin, not *this thread's* pin.
        Err(_) => {
            let handle = collector().register();
            let guard = handle.pin();
            (f.take().unwrap())(&guard)
        }
    }
}

/// Defers physical deallocation of a `Box`-allocated object until no
/// in-flight emulated DCAS/MCAS can still read its cells.
///
/// Call this instead of `drop(Box::from_raw(ptr))` for **any** allocation
/// that contains [`DcasWord`](crate::DcasWord) cells. The object's `Drop`
/// implementation runs when the grace period expires.
///
/// # Safety
///
/// * `ptr` must come from [`Box::into_raw`] and be retired exactly once.
/// * The *algorithm* must no longer reach the object through live pointers
///   (for LFRC that is guaranteed: the reference count hit zero).
pub unsafe fn retire_box<T: Send + 'static>(ptr: *mut T) {
    with_guard(|guard| unsafe { guard.defer_destroy(ptr) });
}

/// Defers `call(data)` until no in-flight emulated DCAS/MCAS (and no
/// pin-scoped `Borrowed` reader — they pin the same collector) can still
/// observe the memory `data` names. The non-allocating sibling of
/// [`retire_box`], used for pooled-slot releases where the deferred
/// action is "drop the value in place and hand the slot back to the
/// pool" rather than a `Box` drop.
///
/// # Safety
///
/// * `call(data)` must be safe to invoke exactly once, from any thread.
/// * The algorithm must no longer reach the memory through live pointers.
pub unsafe fn retire_fn(data: *mut (), call: unsafe fn(*mut ())) {
    with_guard(|guard| unsafe { guard.defer_fn(data, call) });
}

/// Counters of the emulator's reclamation domain (retired user objects
/// and pool slabs). Used by the memory experiments to report how much
/// physically-unreclaimed memory the emulation itself is holding.
pub fn emulation_stats() -> StatsSnapshot {
    collector().stats()
}

/// Drives the emulator's collector until everything currently eligible is
/// freed. Intended for tests and experiment teardown (call from a moment
/// when no other thread is mid-operation).
pub fn quiesce() {
    HANDLE.with(|h| {
        let handle = h.get_or_init(|| collector().register());
        handle.flush();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn retire_box_defers_then_frees() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Noisy;
        impl Drop for Noisy {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let before = DROPS.load(Ordering::SeqCst);
        let p = Box::into_raw(Box::new(Noisy));
        unsafe { retire_box(p) };
        // Only this thread's own collect reaps its bag, and the pin held
        // inside `retire_box` keeps the epoch from moving two steps past
        // the retirement, so the drop cannot have run yet.
        assert_eq!(DROPS.load(Ordering::SeqCst), before);
        // `quiesce` may stop early while another test's thread is pinned,
        // so keep driving it until the grace period has passed.
        let deadline = Instant::now() + Duration::from_secs(10);
        while DROPS.load(Ordering::SeqCst) == before {
            assert!(Instant::now() < deadline, "retired box was never freed");
            quiesce();
            std::thread::yield_now();
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), before + 1);
    }

    #[test]
    fn with_guard_is_reentrant() {
        with_guard(|_g1| {
            with_guard(|_g2| {
                // Nested pinning must not deadlock or panic.
            });
        });
    }
}
