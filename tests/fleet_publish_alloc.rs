//! Guards the fleet store against a return to whole-table publishes: an
//! incremental publish on a 100 000-tenant store must allocate in
//! proportion to the bindings it changes, and the new head must share
//! every subtree the delta did not touch with the version before it.
//!
//! The check counts bytes, not time: a `BTreeMap` clone of the table
//! allocates several MB, the structurally shared merge a few KB, in a
//! debug build as in a release one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use concord::fleet::{Delta, PolicyStore};

/// The system allocator plus a per-thread byte count while armed.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and without a destructor: safe to touch from
    // inside the allocator.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counting
// touches only a const-initialised thread-local and never allocates.
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

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes the calling thread allocates inside `f`.
fn bytes_allocated<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ARMED.store(true, Ordering::SeqCst);
    let b0 = BYTES.with(Cell::get);
    let r = f();
    let b1 = BYTES.with(Cell::get);
    ARMED.store(false, Ordering::SeqCst);
    (r, b1 - b0)
}

const TENANTS: u64 = 100_000;
/// What a 5-binding publish may allocate: the copied paths, the artifact
/// map and the commit's bookkeeping, with room to spare.
const PUBLISH_BUDGET: u64 = 64 * 1024;

#[test]
fn small_publish_allocates_its_paths_not_the_table() {
    let art = Arc::new(vec![7u8; 64]);
    let store = PolicyStore::new(TENANTS as usize);
    let all: Vec<u64> = (0..TENANTS).collect();
    store
        .publish(&Delta::bind_all(&all, 1, Arc::clone(&art)))
        .unwrap();
    // A first incremental publish registers the store's metrics.
    store
        .publish(&Delta::bind_all(&[50_000], 2, Arc::clone(&art)))
        .unwrap();

    let touched = [1, 2_003, 4_005, 6_007, 8_009];
    let (v, bytes) =
        bytes_allocated(|| store.publish(&Delta::bind_all(&touched, 2, Arc::clone(&art))));
    let v = v.unwrap();
    assert!(
        bytes < PUBLISH_BUDGET,
        "a 5-binding publish allocated {bytes} B (budget {PUBLISH_BUDGET} B)"
    );

    let (old, new) = (store.snapshot(v - 1).unwrap(), store.snapshot(v).unwrap());
    let height = new.bindings.height();
    assert!(height >= 3, "{TENANTS} tenants in {height} levels");
    // The touched paths were copied; the old version still reads as before.
    for t in touched {
        assert_eq!(new.bindings.shared_height(&old.bindings, t), 0);
        assert_eq!(old.bindings.get(&t), Some(&1));
        assert_eq!(new.bindings.get(&t), Some(&2));
    }
    // Everything under the root away from them is the same allocation.
    assert_eq!(
        new.bindings.shared_height(&old.bindings, TENANTS - 1),
        height - 1
    );
    assert_eq!(new.bindings.len(), old.bindings.len());
}
