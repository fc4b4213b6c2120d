//! Allocation-count regression test for unarmed injection points.
//!
//! Production crates built with the `faults` feature call [`fire`] on hot
//! paths (every featurized table, every serving round), and those paths
//! carry zero-allocation contracts of their own. Once a site has been seen,
//! evaluating it while unarmed must not touch the heap. A counting global
//! allocator makes that a hard assertion; the file holds a single test so
//! no concurrent test pollutes the counter.

use sato_faults::{fire, hits};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn unarmed_seen_sites_fire_without_allocating() {
    // The first hit registers the site (and the registry itself).
    assert!(!fire("t.hot_site", 0));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for key in 0..100 {
        assert!(!fire("t.hot_site", key));
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "unarmed fire must not allocate (got {} allocations over 100 hits)",
        after - before
    );
    assert_eq!(hits("t.hot_site"), 101);
}
