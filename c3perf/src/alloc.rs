//! A counting global allocator, armed only during the traced phase.
//!
//! Disarmed, every allocation pays one relaxed load of [`ARMED`] on top
//! of the system allocator. Armed, it also bumps two per-thread counters,
//! so a thread can attribute what it allocated to the calls it made.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// The system allocator plus per-thread allocation counts.
pub struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised cells without destructors: safe to touch from
    // inside the allocator, which may run during thread set-up and
    // tear-down.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn note(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counting
// touches only const-initialised thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded verbatim; the caller guarantees a non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded verbatim; the caller guarantees a non-zero size.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded verbatim under the caller's realloc contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on or off for every thread.
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::SeqCst);
}

/// `(allocations, bytes)` counted on the calling thread so far.
pub fn thread_counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Runs `f` and returns its result with the `(allocations, bytes)` the
/// calling thread made inside it (zero unless armed).
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = thread_counts();
    let r = f();
    let (a1, b1) = thread_counts();
    (r, a1 - a0, b1 - b0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_armed() {
        // The test binary does not install `Counting`, so drive `note`
        // directly: the bookkeeping is what is under test.
        let (_, a, _) = counted(|| note(64));
        assert_eq!(a, 0, "disarmed counting must not count");
        arm(true);
        let (_, a, b) = counted(|| {
            note(64);
            note(16);
        });
        arm(false);
        assert_eq!((a, b), (2, 80));
    }
}
