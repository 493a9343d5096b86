//! Section V-B: on an application's first invocation the MPC governor
//! "behaves exactly like PPK". Replaying run 0 of every suite workload
//! under `MpcGovernor` and `PpkGovernor` with the same fault-wrapped
//! Random Forest must yield the same per-kernel decisions and the same
//! search / fail-safe trace, with and without injected faults.

use gpm_faults::{FaultPlan, FaultyPredictor};
use gpm_governors::{Governor, OverheadModel, PpkGovernor};
use gpm_harness::{EvalContext, EvalOptions, ExecEnv, RunResult};
use gpm_mpc::{MpcConfig, MpcGovernor};
use gpm_trace::{RingSink, TraceEvent, TraceSink};
use gpm_workloads::{suite, Workload};
use std::sync::{Arc, OnceLock};

fn ctx() -> &'static EvalContext {
    static CTX: OnceLock<EvalContext> = OnceLock::new();
    CTX.get_or_init(|| EvalContext::build(EvalOptions::fast()))
}

/// Replays run 0 of `workload` under `gov` in a traced environment with
/// `plan`, returning the run and its `Search` / `FailSafe` events.
fn first_run(
    plan: &FaultPlan,
    workload: &Workload,
    gov: &mut dyn Governor,
) -> (RunResult, Vec<TraceEvent>) {
    let ring = Arc::new(RingSink::new(65_536));
    let env = ExecEnv::new()
        .with_trace(ring.clone() as Arc<dyn TraceSink>)
        .with_fault_plan(plan.clone());
    let (_, target) = env.baseline(ctx(), workload);
    env.install(gov);
    let run = env.run(&ctx().sim, workload, gov, target, 0, false);
    let events = ring
        .snapshot()
        .into_iter()
        .filter(|e| matches!(e, TraceEvent::Search { .. } | TraceEvent::FailSafe { .. }))
        .collect();
    (run, events)
}

#[test]
fn mpc_first_invocation_is_ppk() {
    let ctx = ctx();
    for plan in [FaultPlan::zero(0), FaultPlan::uniform(7, 0.1)] {
        let mut decisions = 0;
        for w in suite() {
            let mut mpc = MpcGovernor::new(
                FaultyPredictor::new(&ctx.rf, &plan),
                ctx.sim.params().clone(),
                MpcConfig::default(),
            );
            let mut ppk = PpkGovernor::new(
                FaultyPredictor::new(&ctx.rf, &plan),
                ctx.sim.params().clone(),
                ctx.campaign_space().clone(),
                OverheadModel::default(),
            );
            let (mpc_run, mpc_events) = first_run(&plan, &w, &mut mpc);
            let (ppk_run, ppk_events) = first_run(&plan, &w, &mut ppk);
            assert_eq!(mpc_run.per_kernel.len(), ppk_run.per_kernel.len());
            for (m, p) in mpc_run.per_kernel.iter().zip(&ppk_run.per_kernel) {
                assert_eq!(
                    (m.config, m.overhead_s.to_bits(), m.horizon),
                    (p.config, p.overhead_s.to_bits(), p.horizon),
                    "{} position {} under {plan:?}",
                    w.name(),
                    m.position
                );
            }
            assert_eq!(mpc_events, ppk_events, "{} under {plan:?}", w.name());
            decisions += mpc_run.per_kernel.len();
        }
        assert!(decisions > 0);
    }
}
