//! Counting-allocator regression test: the extraction and merge hot paths
//! must not leak per-frame allocations back in as they are optimised.
//!
//! A counting `#[global_allocator]` wraps `System`; this file holds a
//! single `#[test]` so no concurrent test can perturb the counters. Two
//! properties are pinned:
//!
//! * extraction reaches a *steady state*: once warmed, processing the same
//!   frame sequence costs an identical allocation count every cycle (the
//!   only per-frame heap traffic is the returned `ExtractionOutput`;
//!   every scratch buffer is reused), and
//! * the merge path is *zero-alloc* once warmed: a `PointCloudMerger`
//!   add/reset cycle — what the edge's `MergeStage` runs every frame —
//!   touches only capacity that already exists.

use erpd_geometry::Vec3;
use erpd_pointcloud::{ExtractionConfig, MovingObjectExtractor, PointCloud, PointCloudMerger};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

/// A deterministic two-frame scene: a dense blob that shifts between
/// frames (a moving object) plus a stationary blob.
fn frame(phase: usize) -> PointCloud {
    let mut cloud = PointCloud::new();
    let shift = phase as f64 * 0.9;
    for i in 0..60 {
        let a = i as f64 * 0.37;
        cloud.push(Vec3::new(
            10.0 + shift + (a.sin() * 0.8),
            4.0 + (a.cos() * 0.8),
            0.5,
        ));
        cloud.push(Vec3::new(
            -20.0 + (a * 1.7).sin() * 0.8,
            -6.0 + (a * 1.7).cos() * 0.8,
            0.5,
        ));
    }
    cloud
}

#[test]
fn warm_extraction_and_merge_paths_do_not_allocate_per_frame() {
    // --- Extraction: identical allocation count per warmed cycle. ------
    let frames = [frame(0), frame(1)];
    let mut extractor = MovingObjectExtractor::new(ExtractionConfig::default());
    for k in 0..6 {
        let out = extractor.process(&frames[k % 2]);
        assert!(!out.objects.is_empty(), "the scene must segment");
    }
    let mut per_cycle = Vec::new();
    for _ in 0..3 {
        let before = allocs();
        let a = extractor.process(&frames[0]);
        let b = extractor.process(&frames[1]);
        per_cycle.push(allocs() - before);
        drop((a, b));
    }
    assert_eq!(
        per_cycle[0], per_cycle[1],
        "extraction must reach an allocation steady state"
    );
    assert_eq!(per_cycle[1], per_cycle[2]);
    // The residual is the returned `ExtractionOutput` only: a handful of
    // objects, each a few lane vectors — nowhere near the hundreds a
    // per-frame scratch rebuild would cost.
    assert!(
        per_cycle[0] <= 64,
        "per-cycle allocations crept up to {} — scratch reuse broke",
        per_cycle[0]
    );

    // --- Batch merge: zero-alloc add/reset once warmed. ----------------
    let world = frame(0);
    let mut merger = PointCloudMerger::new(0.4);
    for _ in 0..3 {
        merger.add(&world);
        merger.reset();
    }
    let before = allocs();
    merger.add(&world);
    let n_out = merger.output_points();
    merger.reset();
    assert_eq!(
        allocs() - before,
        0,
        "a warmed PointCloudMerger cycle must not allocate"
    );
    assert!(n_out > 0);
}
