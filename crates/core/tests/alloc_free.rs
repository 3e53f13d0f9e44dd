//! Pins the Phase-1 insert path's allocation claim: once a builder is
//! warm, feeding a point that an existing leaf entry absorbs makes no
//! heap allocation.
//!
//! A counting global allocator forwards every call to [`System`] and
//! counts the calling thread's `alloc`/`realloc` calls in a
//! const-initialized thread-local, so allocations by the test harness's
//! other threads never enter the measured window.
//!
//! The claim is about the production insert path. Under the
//! `strict-audit` feature every insert also runs a full-tree audit, which
//! allocates by design, so the test is compiled out there.

#![cfg(not(feature = "strict-audit"))]

use birch_core::phase1::Phase1Builder;
use birch_core::{BirchConfig, Cf, Point};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's locals may already be gone while it exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter is
// a const-initialized thread-local, which never allocates itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`, and the caller meets `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

/// 400 tight blobs of 25 points each on a 20 × 20 grid, 100 apart: every
/// blob spans at most 1.2 × 1.2, well inside the threshold below.
fn blobs() -> Vec<Point> {
    let mut pts = Vec::with_capacity(400 * 25);
    for c in 0..400u32 {
        let (cx, cy) = (f64::from(c % 20) * 100.0, f64::from(c / 20) * 100.0);
        for k in 0..25u32 {
            let (dx, dy) = (f64::from(k % 5) * 0.3, f64::from(k / 5) * 0.3);
            pts.push(Point::xy(cx + dx, cy + dy));
        }
    }
    pts
}

#[test]
fn warm_phase1_feeds_allocate_nothing() {
    // A diameter threshold of 5 keeps each blob's points together, and a
    // 16 MB budget rules out rebuilds.
    let config = BirchConfig::with_clusters(400)
        .initial_threshold(5.0)
        .memory(16 << 20);
    let points = blobs();
    let mut builder = Phase1Builder::new(&config, 2);
    for p in &points {
        builder.feed_point(p);
    }
    assert!(builder.tree().height() > 1, "the descent has a path");

    // The points the warm tree absorbs. A descent can reach a leaf that
    // lacks its blob's entry (the tree is a heuristic index), so not
    // every point qualifies. A clone of the tree absorbs them one by one;
    // fed in the same order, each is absorbed by the builder's tree too.
    let mut probe = builder.tree().clone();
    let refeed: Vec<&Point> = points
        .iter()
        .filter(|p| probe.try_absorb(&Cf::from_point(p)))
        .collect();
    assert!(
        refeed.len() >= points.len() / 2,
        "only {} of {} points absorb",
        refeed.len(),
        points.len()
    );

    let entries = builder.tree().leaf_entry_count();
    let before = allocs_on_this_thread();
    for p in &refeed {
        builder.feed_point(p);
    }
    let allocs = allocs_on_this_thread() - before;
    assert_eq!(
        builder.tree().leaf_entry_count(),
        entries,
        "every re-fed point absorbed"
    );
    assert_eq!(
        allocs,
        0,
        "{allocs} heap allocations over {} warm feeds",
        refeed.len()
    );
}
