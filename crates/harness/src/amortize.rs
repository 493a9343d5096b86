//! Figure 11: amortization of initial profiling losses over repeated
//! application executions.
//!
//! MPC pays a tax on the first invocation (it runs PPK while profiling);
//! the paper shows the tax amortizes quickly: "most of the full gains are
//! observed after only ten re-executions". This module re-executes both
//! MPC and PPK `k` times after the initial run and compares *cumulative*
//! energy and wall time, plus the steady-state (no-initial-loss) limit.

use crate::context::EvalContext;
use crate::env::ExecEnv;
use crate::metrics::{energy_savings_pct, speedup};
use gpm_governors::{OverheadModel, PpkGovernor};
use gpm_mpc::{MpcConfig, MpcGovernor};
use gpm_workloads::Workload;
use serde::{Deserialize, Serialize};

/// One row of Figure 11 for one workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AmortizationPoint {
    /// Re-executions after the initial run; `None` = steady state.
    pub re_executions: Option<usize>,
    /// Cumulative energy savings of MPC relative to PPK, percent.
    pub energy_savings_pct: f64,
    /// Cumulative speedup of MPC relative to PPK.
    pub speedup: f64,
}

/// Runs the Figure 11 protocol on one workload for the given re-execution
/// counts (the paper uses 1, 10, 100, and steady state).
///
/// Cumulative totals *include* each scheme's initial run; the steady-state
/// point compares single post-profiling runs only.
pub fn amortization(
    ctx: &EvalContext,
    workload: &Workload,
    re_executions: &[usize],
) -> Vec<AmortizationPoint> {
    let sim = &ctx.sim;
    let env = ExecEnv::new();
    let (_, target) = env.baseline(ctx, workload);
    let space = ctx.campaign_space().clone();
    let max_runs = re_executions.iter().copied().max().unwrap_or(0) + 1;

    // Collect per-run (energy, wall) sequences for both schemes.
    let mut mpc_gov = MpcGovernor::new(&ctx.rf, sim.params().clone(), MpcConfig::default());
    let mut ppk_gov = PpkGovernor::new(
        &ctx.rf,
        sim.params().clone(),
        space,
        OverheadModel::default(),
    );
    let mut mpc_runs = Vec::with_capacity(max_runs);
    let mut ppk_runs = Vec::with_capacity(max_runs);
    for run in 0..max_runs {
        mpc_runs.push(env.run(sim, workload, &mut mpc_gov, target, run, false));
        ppk_runs.push(env.run(sim, workload, &mut ppk_gov, target, run, false));
    }

    let cum = |runs: &[crate::run::RunResult], upto: usize| -> (f64, f64) {
        runs[..=upto].iter().fold((0.0, 0.0), |(e, t), r| {
            (e + r.total_energy_j(), t + r.wall_time_s())
        })
    };

    let mut points: Vec<AmortizationPoint> = re_executions
        .iter()
        .map(|&k| {
            let (me, mt) = cum(&mpc_runs, k.min(max_runs - 1));
            let (pe, pt) = cum(&ppk_runs, k.min(max_runs - 1));
            AmortizationPoint {
                re_executions: Some(k),
                energy_savings_pct: energy_savings_pct(pe, me),
                speedup: speedup(pt, mt),
            }
        })
        .collect();

    // Steady state: ignore run 0 entirely, compare one steady run each.
    let m = &mpc_runs[max_runs - 1];
    let p = &ppk_runs[max_runs - 1];
    points.push(AmortizationPoint {
        re_executions: None,
        energy_savings_pct: energy_savings_pct(p.total_energy_j(), m.total_energy_j()),
        speedup: speedup(p.wall_time_s(), m.wall_time_s()),
    });
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalOptions;
    use gpm_workloads::workload_by_name;
    use std::sync::OnceLock;

    fn ctx() -> &'static EvalContext {
        static CTX: OnceLock<EvalContext> = OnceLock::new();
        CTX.get_or_init(|| EvalContext::build(EvalOptions::fast()))
    }

    #[test]
    fn amortization_produces_requested_points_plus_steady_state() {
        let w = workload_by_name("kmeans").unwrap();
        let points = amortization(ctx(), &w, &[1, 4]);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].re_executions, Some(1));
        assert_eq!(points[1].re_executions, Some(4));
        assert_eq!(points[2].re_executions, None);
    }

    #[test]
    fn gains_converge_toward_steady_state() {
        let w = workload_by_name("Spmv").unwrap();
        let points = amortization(ctx(), &w, &[1, 8]);
        let steady = points.last().unwrap();
        let at_1 = &points[0];
        let at_8 = &points[1];
        // More re-executions bring the cumulative savings closer to the
        // steady-state value.
        let d1 = (at_1.energy_savings_pct - steady.energy_savings_pct).abs();
        let d8 = (at_8.energy_savings_pct - steady.energy_savings_pct).abs();
        assert!(d8 <= d1 + 1.0, "d1 {d1} vs d8 {d8}");
    }
}
