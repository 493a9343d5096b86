//! Quickstart: evaluate the adaptive-MPC governor against AMD Turbo Core
//! on one benchmark.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The flow mirrors the paper's protocol end to end: run the measurement
//! campaign and train the Random Forest offline, replay the benchmark once
//! under Turbo Core to fix the performance target, let MPC profile the
//! application on its first invocation, then measure the steady state.

use gpm::harness::metrics::Comparison;
use gpm::harness::{EvalContext, EvalOptions, ExecEnv, Scheme};
use gpm::mpc::HorizonMode;
use gpm::workloads::workload_by_name;

fn main() {
    // 1. Offline phase: measurement campaign + Random-Forest training.
    //    (EvalOptions::default() is the full-fidelity setup; `fast()` cuts
    //    the forest down for quick experimentation.)
    let ctx = EvalContext::build(EvalOptions::fast());
    println!(
        "trained Random Forest: time MAPE {:.1}%, power MAPE {:.1}% (paper: 25% / 12%)",
        ctx.rf_report.time_mape * 100.0,
        ctx.rf_report.power_mape * 100.0
    );

    // 2. Pick a workload. `kmeans` shows the low→high throughput
    //    transition that defeats history-based governors.
    let workload = workload_by_name("kmeans").expect("kmeans is in the suite");
    println!("workload: {workload}");

    // 3. Evaluate the full MPC system (adaptive horizon, α = 5%,
    //    optimizer overheads charged) and the PPK baseline. The execution
    //    environment is clean here — no tracing, no fault injection.
    let env = ExecEnv::new();
    let mpc = env.evaluate(
        &ctx,
        &workload,
        Scheme::MpcRf {
            horizon: HorizonMode::default(),
        },
    );
    let ppk = env.evaluate(&ctx, &workload, Scheme::PpkRf);

    let mpc_c = Comparison::between(&mpc.baseline, &mpc.measured);
    let ppk_c = Comparison::between(&ppk.baseline, &ppk.measured);
    println!(
        "MPC vs Turbo Core: {:+.1}% energy, speedup {:.3}",
        mpc_c.energy_savings_pct, mpc_c.speedup
    );
    println!(
        "PPK vs Turbo Core: {:+.1}% energy, speedup {:.3}",
        ppk_c.energy_savings_pct, ppk_c.speedup
    );

    // 4. Inspect MPC's decisions: horizon per kernel and the configs it
    //    chose.
    let stats = mpc.mpc_stats.expect("MPC scheme records stats");
    println!(
        "average horizon {:.1} of N={} kernels; {} predictor evaluations total",
        stats.average_horizon(),
        workload.len(),
        stats.total_evaluations()
    );
    for k in mpc.measured.per_kernel.iter().take(5) {
        println!(
            "  kernel {:>2} {:<16} -> {} ({:.1} ms)",
            k.position,
            workload.kernels()[k.position].name(),
            k.config,
            k.time_s * 1e3
        );
    }
}
