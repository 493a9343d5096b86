//! Allocation guard for a cold fleet job: one `FleetScenario::mixed`
//! scenario on a single worker over a fast context, counted by a global
//! allocator.
//!
//! The fleet worker is a thread of its own, so the counter is one global
//! atomic rather than a per-thread tally; this is the only test in its
//! binary, so nothing else allocates while it counts. The count is a
//! pure function of the code and the scenario, so the bound cannot
//! flake: nothing here is timed. Allocations per trace decision:
//!
//! | scenario                          | before | earlier | when set | bound |
//! |-----------------------------------|--------|---------|----------|-------|
//! | `mixed(0xF1EE7, 4, 6)`, 1 worker  | 19.18  | 4.19    | 2.71     | 2.85  |
//!
//! "Before" is the same run when every named job built all fifteen
//! suite workloads to keep one, every dispatch copied its kernel name
//! into the replay's record, every evaluation's baseline clone copied
//! those names again, and every fault draw collected its hash words
//! into a `Vec`. "Earlier" is the run when every traced dispatch still
//! copied its kernel name into its `Dispatch` event, and every kernel
//! clone of a freshly built workload copied its name.

use gpm_fleet::{FleetScenario, FleetService};
use gpm_harness::{EvalContext, EvalOptions};
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

#[test]
fn a_fleet_job_stays_within_its_allocation_budget() {
    const BOUND: f64 = 2.85;
    let service = FleetService::new(EvalContext::build(EvalOptions::fast())).with_workers(1);
    let scenario = FleetScenario::mixed(0xF1EE7, 4, 6);
    // Warm up: the suite baselines are cached in the shared context.
    service.run(&scenario);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = service.run(&scenario);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let decisions = report.rollup.trace.decisions;
    assert!(decisions > 0);
    let per_decision = allocations as f64 / decisions as f64;
    println!("{allocations} allocations over {decisions} decisions, {per_decision:.2} each");
    assert!(
        per_decision <= BOUND,
        "{per_decision:.2} allocations per decision, over the bound {BOUND}"
    );
}
