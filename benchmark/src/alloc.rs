//! A counting `#[global_allocator]`: forwards to the system allocator
//! and, while switched on, counts calls, bytes and live bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Forwards to [`System`]. Switched off it costs one relaxed load per
/// call, so untraced runs measure the program's own allocation cost.
pub struct Counting;

// Statistics only: none of these publishes other data, so `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE: AtomicI64 = AtomicI64::new(0);

fn grew(size: usize) {
    if ON.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(size: usize) {
    if ON.load(Ordering::Relaxed) {
        LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // this `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What was allocated between [`start`] and [`stop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    pub calls: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
    /// Highest growth of the live heap above its level at [`start`];
    /// memory freed that was allocated before `start` counts as negative.
    pub peak_live_bytes: u64,
}

/// Zeroes the counters and switches counting on.
pub fn start() {
    ON.store(false, Ordering::Relaxed);
    CALLS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK_LIVE.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
}

/// Switches counting off and returns what was counted since [`start`].
pub fn stop() -> AllocStats {
    ON.store(false, Ordering::Relaxed);
    AllocStats {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak_live_bytes: PEAK_LIVE.load(Ordering::Relaxed).max(0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The only test in this binary that switches counting on: tests run on
    // parallel threads and the counters are process-wide, so it asserts
    // lower bounds only.
    #[test]
    fn counts_calls_bytes_and_peak_between_start_and_stop() {
        start();
        let a = vec![0u8; 1 << 20];
        let b = vec![1u8; 1 << 19];
        drop(a);
        let c = vec![2u8; 1 << 18];
        let stats = stop();
        assert!(stats.calls >= 3);
        assert!(stats.bytes >= (1 << 20) + (1 << 19) + (1 << 18));
        assert!(stats.peak_live_bytes >= (1 << 20) + (1 << 19));
        let after = vec![3u8; 1 << 20];
        assert_eq!(stop(), stats, "nothing is counted while switched off");
        std::hint::black_box((b, c, after));
    }
}
