//! The fault matrix: the `robustness` experiment's degradation sweep and
//! graceful-degradation gate at every full-mode rate, on one workload of
//! each class with the deployed evaluation context, and on kmeans with
//! the fast context.
//!
//! Building the deployed context takes minutes in a debug build, so the
//! matrix is `#[ignore]`d and runs in release:
//!
//! ```text
//! cargo test --release -p gpm-xp --test robustness_matrix -- --ignored --nocapture
//! ```

use gpm_harness::{EvalContext, EvalOptions, Scheme};
use gpm_mpc::HorizonMode;
use gpm_workloads::workload_by_name;
use gpm_xp::experiments::robustness::{
    degradation_curve, degradation_gate_failures, render_curve, FAULT_SEED, FULL_RATES,
    MAX_SLOWDOWN,
};

/// Sweeps each named workload over `FULL_RATES` and returns every gate
/// failure, prefixed with the workload name.
fn sweep_failures(ctx: &EvalContext, workloads: &[&str]) -> Vec<String> {
    let scheme = Scheme::MpcRf {
        horizon: HorizonMode::default(),
    };
    let mut failures = Vec::new();
    for &name in workloads {
        let workload = workload_by_name(name).expect("suite workload");
        // An empty baseline cache per workload: the sweep must simulate
        // the Turbo Core baseline once and serve every later rate from
        // the cache.
        let ctx = ctx.with_fresh_baselines();
        let curve = degradation_curve(&ctx, &workload, scheme, FAULT_SEED, &FULL_RATES);
        print!("{}", render_curve(name, &curve));
        let cache = ctx.baseline_stats();
        println!(
            "baseline cache: {} simulated, {} served from cache",
            cache.computed, cache.hits
        );
        if cache.computed != 1 || cache.hits != FULL_RATES.len() as u64 - 1 {
            failures.push(format!(
                "{name}: baseline cache {} computes / {} hits",
                cache.computed, cache.hits
            ));
        }
        failures.extend(
            degradation_gate_failures(&curve, MAX_SLOWDOWN)
                .into_iter()
                .map(|f| format!("{name}: {f}")),
        );
    }
    failures
}

#[test]
#[ignore = "release-only gate; run with --ignored"]
fn every_workload_class_degrades_gracefully() {
    let deployed = EvalContext::build(EvalOptions::default());
    let failures = sweep_failures(&deployed, &["kmeans", "Spmv", "hybridsort", "lulesh"]);
    assert!(failures.is_empty(), "gate failures: {failures:#?}");
}

#[test]
#[ignore = "release-only gate; run with --ignored"]
fn kmeans_degrades_gracefully_on_the_fast_context() {
    let fast = EvalContext::build(EvalOptions::fast());
    let failures = sweep_failures(&fast, &["kmeans"]);
    assert!(failures.is_empty(), "gate failures: {failures:#?}");
}
