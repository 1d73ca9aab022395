//! Offline stand-in for the `crossbeam-epoch` crate.
//!
//! Implements the same *interface contract* — pinned guards keep deferred
//! destructions from running until every guard that could have observed
//! the unlinked pointer is dropped — with a much simpler engine: one
//! global mutex-protected epoch table instead of thread-local epoch
//! caches. Correctness argument:
//!
//! - Every `pin()` records the global epoch at pin time; the pin count for
//!   that epoch stays non-zero until the guard drops.
//! - `defer_destroy(p)` tags the garbage with the *current* epoch `E` and
//!   then bumps the global epoch, so any guard pinned at `<= E` might
//!   still hold a reference to `p`, while guards pinned later cannot
//!   (the caller guarantees `p` was already unlinked — the usual epoch
//!   contract).
//! - Garbage tagged `E` is destroyed only once the minimum pinned epoch
//!   exceeds `E` (or no guard is pinned at all).
//!
//! Destructors run *after* the state mutex is released so a destructor
//! may itself pin/defer without deadlocking. The mutex serializes every
//! pin/unpin, which is slow compared to real crossbeam but perfectly
//! adequate for this workspace's tests and single-digit thread counts.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Mutex;

/// A deferred destruction: raw pointer plus its monomorphized dropper.
struct Garbage {
    ptr: *mut u8,
    dtor: unsafe fn(*mut u8),
}

// SAFETY: the pointee is unlinked and owned solely by the garbage list;
// it is only touched once, by the destructor, under the collector's rules.
unsafe impl Send for Garbage {}

struct State {
    /// Monotonic epoch, bumped on every deferral.
    epoch: u64,
    /// Pin epoch → number of live guards pinned at it.
    pins: BTreeMap<u64, usize>,
    /// Deferred destructions tagged with their deferral epoch.
    garbage: Vec<(u64, Garbage)>,
}

static STATE: Mutex<State> = Mutex::new(State {
    epoch: 0,
    pins: BTreeMap::new(),
    garbage: Vec::new(),
});

/// Drains every garbage item whose tag epoch precedes all live pins.
/// Returns the drained items; the caller runs the destructors after
/// unlocking.
fn collect(state: &mut State) -> Vec<Garbage> {
    let min_pin = state.pins.keys().next().copied();
    let mut freed = Vec::new();
    state.garbage.retain_mut(|(tag, g)| {
        let free = match min_pin {
            Some(e) => e > *tag,
            None => true,
        };
        if free {
            freed.push(Garbage {
                ptr: g.ptr,
                dtor: g.dtor,
            });
        }
        !free
    });
    freed
}

fn run_dtors(freed: Vec<Garbage>) {
    for g in freed {
        // SAFETY: each Garbage is destroyed exactly once, and the epoch
        // rule above guarantees no pinned reader can still reach it.
        unsafe { (g.dtor)(g.ptr) };
    }
}

/// Pins the current epoch; deferred destructions stay queued while the
/// returned guard is alive.
pub fn pin() -> Guard {
    let mut s = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let epoch = s.epoch;
    *s.pins.entry(epoch).or_insert(0) += 1;
    Guard { epoch: Some(epoch) }
}

/// Returns a dummy guard that does not pin anything.
///
/// # Safety
///
/// The caller must guarantee no concurrent mutation of the data structures
/// accessed through this guard (e.g. it holds `&mut` or is in `Drop`).
pub unsafe fn unprotected() -> &'static Guard {
    static UNPROTECTED: Guard = Guard { epoch: None };
    &UNPROTECTED
}

/// An epoch pin. Dropping it unpins and may run deferred destructors.
pub struct Guard {
    /// `None` for the unprotected guard.
    epoch: Option<u64>,
}

impl Guard {
    /// Schedules `shared`'s pointee for destruction once all current pins
    /// are gone.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null, unlinked from every shared location
    /// (no new reader can acquire it), and not deferred twice.
    pub unsafe fn defer_destroy<T>(&self, shared: Shared<'_, T>) {
        unsafe fn dropper<T>(p: *mut u8) {
            drop(Box::from_raw(p as *mut T));
        }
        let g = Garbage {
            ptr: shared.ptr as *mut u8,
            dtor: dropper::<T>,
        };
        let mut s = STATE.lock().unwrap_or_else(|e| e.into_inner());
        let tag = s.epoch;
        s.garbage.push((tag, g));
        // Bump so future pins are distinguishable from ones that may still
        // observe the unlinked pointer.
        s.epoch += 1;
    }

    /// Eagerly runs any deferred destructors whose epochs have expired.
    pub fn flush(&self) {
        let freed = {
            let mut s = STATE.lock().unwrap_or_else(|e| e.into_inner());
            collect(&mut s)
        };
        run_dtors(freed);
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(epoch) = self.epoch else { return };
        let freed = {
            let mut s = STATE.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(n) = s.pins.get_mut(&epoch) {
                *n -= 1;
                if *n == 0 {
                    s.pins.remove(&epoch);
                }
            }
            collect(&mut s)
        };
        run_dtors(freed);
    }
}

/// Types that can be consumed into a raw pointer for atomic storage.
pub trait Pointer<T> {
    /// The raw pointer this handle designates.
    fn as_ptr(&self) -> *const T;
    /// Consumes the handle without dropping the pointee.
    fn into_ptr(self) -> *const T;
}

/// An owned, heap-allocated value destined for an [`Atomic`] slot.
pub struct Owned<T> {
    ptr: *mut T,
}

impl<T> Owned<T> {
    /// Heap-allocates `value`.
    pub fn new(value: T) -> Self {
        Owned {
            ptr: Box::into_raw(Box::new(value)),
        }
    }

    /// Converts into a [`Shared`] tied to `_guard`.
    pub fn into_shared(self, _guard: &Guard) -> Shared<'_, T> {
        Shared {
            ptr: self.into_ptr(),
            _marker: PhantomData,
        }
    }
}

impl<T> Pointer<T> for Owned<T> {
    fn as_ptr(&self) -> *const T {
        self.ptr
    }

    fn into_ptr(self) -> *const T {
        let p = self.ptr;
        std::mem::forget(self);
        p
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        // SAFETY: an un-consumed Owned still uniquely owns its allocation.
        unsafe { drop(Box::from_raw(self.ptr)) };
    }
}

impl<T> std::ops::Deref for Owned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: `ptr` is a live unique allocation until consumed/dropped.
        unsafe { &*self.ptr }
    }
}

/// A shared pointer loaded from an [`Atomic`], valid while its guard pins
/// the epoch.
pub struct Shared<'g, T> {
    ptr: *const T,
    _marker: PhantomData<&'g T>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Shared<'_, T> {}

impl<'g, T> Shared<'g, T> {
    /// The null shared pointer.
    pub fn null() -> Self {
        Shared {
            ptr: ptr::null(),
            _marker: PhantomData,
        }
    }

    /// The raw pointer value.
    pub fn as_raw(&self) -> *const T {
        self.ptr
    }

    /// Whether this is the null pointer.
    pub fn is_null(&self) -> bool {
        self.ptr.is_null()
    }

    /// Dereferences the pointer.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null and the pointee alive for `'g` (i.e.
    /// protected by the guard this was loaded under).
    pub unsafe fn deref(&self) -> &'g T {
        &*self.ptr
    }

    /// Reclaims unique ownership of the allocation.
    ///
    /// # Safety
    ///
    /// The caller must be the sole owner; no other thread may reach the
    /// pointer anymore.
    pub unsafe fn into_owned(self) -> Owned<T> {
        Owned {
            ptr: self.ptr as *mut T,
        }
    }
}

impl<T> From<*const T> for Shared<'_, T> {
    fn from(ptr: *const T) -> Self {
        Shared {
            ptr,
            _marker: PhantomData,
        }
    }
}

impl<T> Pointer<T> for Shared<'_, T> {
    fn as_ptr(&self) -> *const T {
        self.ptr
    }

    fn into_ptr(self) -> *const T {
        self.ptr
    }
}

/// Error returned by a failed [`Atomic::compare_exchange`].
pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
    /// The value actually stored in the atomic.
    pub current: Shared<'g, T>,
    /// The proposed new value, handed back to the caller.
    pub new: P,
}

/// An atomic pointer slot holding epoch-managed values.
pub struct Atomic<T> {
    ptr: AtomicPtr<T>,
}

// SAFETY: the slot hands out references across threads; same bounds as a
// `std::sync` container of T.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
// SAFETY: see above.
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// Allocates `value` and stores its pointer.
    pub fn new(value: T) -> Self {
        Atomic {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
        }
    }

    /// An atomic slot holding the null pointer.
    pub fn null() -> Self {
        Atomic {
            ptr: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Loads the current pointer under `_guard`'s protection.
    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            ptr: self.ptr.load(ord),
            _marker: PhantomData,
        }
    }

    /// Atomically replaces the pointer, returning the previous one.
    pub fn swap<'g, P: Pointer<T>>(&self, new: P, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        let prev = self.ptr.swap(new.into_ptr() as *mut T, ord);
        Shared {
            ptr: prev,
            _marker: PhantomData,
        }
    }

    /// Compare-and-exchange; on success returns the *new* pointer, on
    /// failure hands `new` back in the error.
    ///
    /// # Errors
    ///
    /// Returns [`CompareExchangeError`] with the observed pointer when the
    /// slot did not contain `current`.
    pub fn compare_exchange<'g, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new_ptr = new.as_ptr() as *mut T;
        match self.ptr.compare_exchange(
            current.as_raw() as *mut T,
            new_ptr,
            success,
            failure,
        ) {
            Ok(_) => {
                let _ = new.into_ptr();
                Ok(Shared {
                    ptr: new_ptr,
                    _marker: PhantomData,
                })
            }
            Err(observed) => Err(CompareExchangeError {
                current: Shared {
                    ptr: observed,
                    _marker: PhantomData,
                },
                new,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// The epoch table is process-global: a pin held by one test keeps
    /// another test's garbage alive, so the tests run one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn deferred_destruction_waits_for_pins() {
        let _serial = serial();
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let slot = Atomic::new(Counted(Arc::clone(&drops)));
        let reader = pin();
        let old = slot.load(Ordering::Acquire, &reader);
        let writer = pin();
        let prev = slot.swap(Owned::new(Counted(Arc::clone(&drops))), Ordering::AcqRel, &writer);
        unsafe { writer.defer_destroy(prev) };
        drop(writer);
        // The reader's pin predates the deferral: nothing freed yet.
        pin().flush();
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        let _ = unsafe { old.deref() };
        drop(reader);
        pin().flush();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        // Cleanup of the current value.
        let g = pin();
        let cur = slot.swap(Shared::null(), Ordering::AcqRel, &g);
        unsafe { g.defer_destroy(cur) };
        drop(g);
        pin().flush();
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn compare_exchange_success_returns_new() {
        let _serial = serial();
        let g = pin();
        let slot = Atomic::new(1u32);
        let cur = slot.load(Ordering::Acquire, &g);
        let got = slot
            .compare_exchange(cur, Owned::new(2), Ordering::AcqRel, Ordering::Acquire, &g)
            .unwrap_or_else(|_| panic!("cas must succeed"));
        assert_eq!(unsafe { *got.deref() }, 2);
        // Failed CAS hands the Owned back (and drops it, not leaking).
        let stale = cur;
        assert!(slot
            .compare_exchange(stale, Owned::new(3), Ordering::AcqRel, Ordering::Acquire, &g)
            .is_err());
        unsafe {
            g.defer_destroy(cur);
            let now = slot.swap(Shared::null(), Ordering::AcqRel, &g);
            g.defer_destroy(now);
        }
        drop(g);
        pin().flush();
    }
}
