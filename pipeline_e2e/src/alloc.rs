//! Counting global allocator: live and peak heap bytes of the process.
//!
//! Every call is forwarded to [`System`] unchanged; two relaxed atomics
//! observe the sizes. A measured call brackets itself with [`start`] and
//! [`peak_since`], so its peak is reported above whatever was live before
//! it (the input points, the benchmark's own buffers).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The allocator installed as `#[global_allocator]` in `main.rs`.
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// `GlobalAlloc` is an unsafe trait because the compiler trusts whatever
// memory an implementation hands out; this one only forwards to `System`,
// so every guarantee is `System`'s, and the counters never touch memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees about `layout` pass through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`
        // is valid for `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Starts a measurement: resets the peak to the bytes live now and
/// returns them as the baseline for [`peak_since`].
pub fn start() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Peak live bytes since [`start`], above its `baseline`.
pub fn peak_since(baseline: usize) -> usize {
    PEAK.load(Relaxed).saturating_sub(baseline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn known_pattern_reports_expected_peak() {
        const MIB: usize = 1 << 20;
        let base = start();
        let a = black_box(vec![1u8; MIB]);
        let b = black_box(vec![2u8; 2 * MIB]);
        drop(a);
        // 2.5 MiB live here: below the 3 MiB reached while `a` and `b` coexisted.
        let c = black_box(vec![3u8; MIB / 2]);
        drop(b);
        drop(c);
        let peak = peak_since(base);
        // Other test threads may allocate a little at the same time.
        assert!(
            (3 * MIB..3 * MIB + 256 * 1024).contains(&peak),
            "peak {peak} bytes, expected 3 MiB"
        );
        assert!(LIVE.load(Relaxed) < base + 256 * 1024, "frees not counted");
    }
}
