//! A counting global allocator for the `heap_*` metrics.
//!
//! It forwards every call to the system allocator and keeps two numbers:
//! bytes currently live and the highest live value since the last
//! [`reset_peak`].  Counts are requested sizes, not what the system
//! allocator rounds them up to, so they depend only on the program's
//! allocation sequence.  Work wrapped in [`uncounted`] (the speed probe's)
//! is left out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The allocator; installed with `#[global_allocator]` in `main.rs`.
pub struct Counting;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    !UNCOUNTED.try_with(Cell::get).unwrap_or(false)
}

/// Runs `f` with this thread's allocations left out of the counts.  Every
/// block `f` allocates must be freed inside an `uncounted` call too.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    UNCOUNTED.with(|u| u.set(true));
    let result = f();
    UNCOUNTED.with(|u| u.set(false));
    result
}

fn grow(bytes: usize) {
    if !counted() {
        return;
    }
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    if !counted() {
        return;
    }
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size, as
        // `System.alloc` requires.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator (and
        // so from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live block
        // of this allocator and that `new_size` is valid for `layout.align()`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Bytes currently allocated.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// Highest [`live`] value since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

/// Starts a new peak window at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Bytes to megabytes (10^6 bytes).
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}
