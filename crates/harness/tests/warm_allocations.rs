//! Allocation guard for the warm decision path: one suite pass of
//! `ExecEnv::evaluate` on a warm fast context, counted by a global
//! allocator that tallies each thread's allocations.
//!
//! The counts are a pure function of the code and the suite, so the
//! bounds below cannot flake: nothing here is timed. Each bound sits a
//! little above the count per decision (profiling plus measured
//! dispatches) measured when it was set:
//!
//! | scheme           | before | earlier | when set | bound |
//! |------------------|--------|---------|----------|-------|
//! | MPC(RF,adaptive) | 7.16   | 3.54    | 2.04     | 2.15  |
//! | PPK(RF)          | 2.85   | 1.99    | 0.49     | 0.55  |
//! | TurboCore        | 3.91   | 2.42    | 0.42     | 0.5   |
//!
//! "Before" is the same pass when each MPC decision built two
//! `BTreeMap`s and four `Vec`s for its window, each hill climb collected
//! its knob sensitivities into a `Vec`, each governor owned a 27 KB climb
//! memo, and each evaluation cloned the configuration space and the
//! baseline run. "Earlier" is the pass when each dispatch's record still
//! carried its kernel name as a fresh `String`, copied again by every
//! clone of the cached baseline. What remains is a few allocations per
//! evaluation (the label strings and per-kernel vectors of the measured
//! run and of the baseline clone, and the governor itself) and, per MPC
//! decision, the plan's window.

use gpm_harness::{EvalContext, EvalOptions, ExecEnv, Scheme};
use gpm_mpc::HorizonMode;
use gpm_workloads::suite;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation of
/// the calling thread.
struct Counting;

fn tally() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and decisions of one pass of `scheme` over the suite.
fn pass(env: &ExecEnv, ctx: &EvalContext, scheme: Scheme) -> (u64, usize) {
    let workloads = suite();
    let before = ALLOCATIONS.with(Cell::get);
    let mut decisions = 0;
    for w in &workloads {
        let outcome = env.evaluate(ctx, w, scheme);
        decisions += outcome.measured.per_kernel.len()
            + outcome.profiling.as_ref().map_or(0, |p| p.per_kernel.len());
    }
    (ALLOCATIONS.with(Cell::get) - before, decisions)
}

#[test]
fn a_warm_suite_pass_stays_within_its_allocation_budget() {
    let ctx = EvalContext::build(EvalOptions::fast());
    let env = ExecEnv::new();
    let schemes = [
        (
            Scheme::MpcRf {
                horizon: HorizonMode::Adaptive { alpha: 0.05 },
            },
            2.15,
        ),
        (Scheme::PpkRf, 0.55),
        (Scheme::TurboCore, 0.5),
    ];
    // Warm up: baselines cached, per-thread memos allocated.
    for (scheme, _) in schemes {
        pass(&env, &ctx, scheme);
    }
    for (scheme, bound) in schemes {
        let (allocations, decisions) = pass(&env, &ctx, scheme);
        assert!(decisions > 0);
        let per_decision = allocations as f64 / decisions as f64;
        println!(
            "{}: {allocations} allocations over {decisions} decisions, {per_decision:.2} each",
            scheme.label()
        );
        assert!(
            per_decision <= bound,
            "{}: {per_decision:.2} allocations per decision, over the bound {bound}",
            scheme.label()
        );
    }
}
