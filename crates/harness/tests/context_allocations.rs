//! Allocation guard for building an evaluation context: the measurement
//! campaign, the split, the rank encoding, both forest fits and the
//! held-out scoring, counted by a global allocator.
//!
//! A build spawns campaign and fit workers, so the counter is one global
//! atomic rather than a per-thread tally; this is the only test in its
//! binary, so nothing else allocates while it counts. Nothing here is
//! timed, so the bounds cannot flake; but the number of workers follows
//! the host's core count, and each worker makes its own allocations
//! (thread start-up, a fit worker's scratch buffers and its tree list),
//! so the bound grants [`PER_WORKER`] allocations to each worker a build
//! may start on this host.
//!
//! A build must allocate per kernel, per tree and per worker, never per
//! sample. The fast context measured when the bounds were set:
//!
//! | build            | samples | before  | 1 core | 2 cores | bound at 1 / 2 cores |
//! |------------------|---------|---------|--------|---------|----------------------|
//! | fast (stride 4)  | 11,616  | 70,935  | 1,048  | 1,090   | 1,156 / 1,216        |
//! | fast at stride 2 | 23,232  | 140,645 | 1,048  | 1,090   | fast + 1 per 100 samples |
//!
//! One core means the test run under `taskset -c 0`, which
//! [`std::thread::available_parallelism`] reports as 1. The 42
//! allocations between the two columns come from three more workers
//! (one campaign worker and one more per forest fit): 14 each. The
//! bound is [`PER_KERNEL_OR_TREE`] allocations per training kernel and
//! per fitted tree, plus [`PER_WORKER`] per worker: one campaign worker
//! per core, and each forest's fit workers
//! ([`RandomForest::resolved_fit_threads`]). "Before" is the build when
//! every sample owned a feature `Vec` and a kernel-name `String`, the
//! parallel campaign copied each worker's samples once more, each split
//! cloned every sample it kept, and the rank encoding and scoring walked
//! rows one `Vec` at a time.
//!
//! A clone of the trained predictor shares its forests, so it allocates
//! nothing (it made 44 allocations before).

use gpm_harness::{training_kernels, EvalContext, EvalOptions};
use gpm_model::RandomForest;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation of
/// every thread.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per training kernel and per fitted tree a fast build may
/// make.
const PER_KERNEL_OR_TREE: u64 = 8;

/// Allocations per worker thread a build may make (14 measured).
const PER_WORKER: u64 = 20;

/// The allocations `f` makes, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// The allocations of one context build, and the samples it measured.
fn build(options: EvalOptions) -> (u64, usize, EvalContext) {
    let (allocations, ctx) = counted(|| EvalContext::build(options));
    let samples = ctx.rf_report.train_samples + ctx.rf_report.test_samples;
    println!("{samples} samples: {allocations} allocations");
    (allocations, samples, ctx)
}

#[test]
fn a_context_build_allocates_per_kernel_and_tree_not_per_sample() {
    let fast = EvalOptions::fast();
    let kernels = training_kernels().len() as u64;
    let trees = 2 * fast.forest.num_trees as u64;
    let cores = std::thread::available_parallelism().map_or(1, usize::from) as u64;
    let fit_workers = RandomForest::resolved_fit_threads(0, fast.forest.num_trees) as u64;
    let workers = cores + 2 * fit_workers;
    let (small, samples, ctx) = build(fast.clone());
    let bound = PER_KERNEL_OR_TREE * (kernels + trees) + PER_WORKER * workers;
    assert!(
        small <= bound,
        "{small} allocations for {kernels} kernels, {trees} trees and {workers} workers, \
         over the bound {bound}"
    );

    // Twice the configurations, so twice the samples: the count may grow
    // with the fitted trees, not with the samples.
    let (large, more_samples, _) = build(EvalOptions {
        train_config_stride: fast.train_config_stride / 2,
        ..fast
    });
    assert_eq!(more_samples, 2 * samples);
    let added = (more_samples - samples) as u64;
    assert!(
        large.saturating_sub(small) <= added / 100,
        "{} more allocations for {added} more samples",
        large.saturating_sub(small)
    );

    let (clone_allocations, rf) = counted(|| ctx.rf.clone());
    assert_eq!(clone_allocations, 0, "a predictor clone copied its forests");
    assert_eq!(rf, ctx.rf);
}
