//! Named power-management schemes and end-to-end evaluation.
//!
//! A [`Scheme`] identifies one of the paper's evaluated policies —
//! Turbo Core, PPK or MPC with a given predictor, or Theoretically
//! Optimal. [`ExecEnv::evaluate`](crate::env::ExecEnv::evaluate) runs
//! the full protocol for one workload: resolve the Turbo Core baseline
//! (which defines the Eq. 1 performance target) through the context's
//! shared cache, run the scheme's profiling invocation where applicable,
//! then measure its steady-state invocation including optimizer
//! overheads.

use crate::context::EvalContext;
use crate::env::ExecEnv;
use crate::run::RunResult;
use gpm_faults::FaultyPredictor;
use gpm_governors::{
    to, Governor, OverheadModel, PerfTarget, PlannedGovernor, PpkGovernor, TurboCore,
};
use gpm_model::{ErrorInjectedPredictor, ErrorSpec};
use gpm_mpc::{HorizonMode, MpcConfig, MpcGovernor, MpcStats};
use gpm_sim::{ApuSimulator, OraclePredictor, PowerPerfPredictor};
use gpm_workloads::Workload;
use std::borrow::Cow;

/// The evaluated power-management schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// The shipping Turbo Core policy (also the baseline).
    TurboCore,
    /// PPK with perfect prediction and zero overheads — the Section II-E
    /// limit study (Figure 4).
    PpkOracle,
    /// PPK with the trained Random Forest and overheads — the realistic
    /// history-based scheme of Figures 8–11.
    PpkRf,
    /// MPC with the Random Forest, adaptive horizon, and overheads — the
    /// paper's full system (Figures 8–11, 14, 15).
    MpcRf {
        /// Horizon policy (the evaluation default is adaptive, α = 0.05).
        horizon: HorizonMode,
    },
    /// MPC with the Random Forest and an explicit overhead cost model —
    /// used by the Section VI-E ablation to study regimes where optimizer
    /// time is large relative to kernel time (the paper's millisecond-scale
    /// kernels).
    MpcRfOverhead {
        /// Horizon policy.
        horizon: HorizonMode,
        /// Optimizer cost accounting.
        overhead: OverheadModel,
    },
    /// MPC with the Random Forest, full horizon, no overheads —
    /// Figure 13's "RF" configuration.
    MpcRfIdealized,
    /// MPC with perfect prediction, full horizon, no overheads —
    /// Figure 12's near-limit configuration.
    MpcOracle,
    /// MPC with half-normal prediction error, full horizon, no overheads —
    /// Figure 13's Err_* configurations.
    MpcError {
        /// Mean-absolute-error specification.
        spec: ErrorSpec,
    },
    /// The Theoretically Optimal offline solution (Figures 4 and 12).
    TheoreticallyOptimal,
    /// An Equalizer-style reactive counter-driven tuner (related work the
    /// paper contrasts with; Sethia & Mahlke).
    Equalizer {
        /// Performance- or efficiency-chasing objective.
        mode: gpm_governors::EqualizerMode,
    },
}

impl Scheme {
    /// Short display name used in tables. Borrowed for every fixed
    /// scheme; only parameterized variants (fixed horizons, error specs)
    /// allocate.
    pub fn label(&self) -> Cow<'static, str> {
        match self {
            Scheme::TurboCore => Cow::Borrowed("TurboCore"),
            Scheme::PpkOracle => Cow::Borrowed("PPK(oracle)"),
            Scheme::PpkRf => Cow::Borrowed("PPK(RF)"),
            Scheme::MpcRf {
                horizon: HorizonMode::Adaptive { .. },
            } => Cow::Borrowed("MPC(RF,adaptive)"),
            Scheme::MpcRf {
                horizon: HorizonMode::Full,
            } => Cow::Borrowed("MPC(RF,full)"),
            Scheme::MpcRf {
                horizon: HorizonMode::Fixed(h),
            } => Cow::Owned(format!("MPC(RF,H={h})")),
            Scheme::MpcRfOverhead {
                horizon: HorizonMode::Full,
                ..
            } => Cow::Borrowed("MPC(RF,full,custom-oh)"),
            Scheme::MpcRfOverhead { .. } => Cow::Borrowed("MPC(RF,adaptive,custom-oh)"),
            Scheme::MpcRfIdealized => Cow::Borrowed("MPC(RF,ideal)"),
            Scheme::MpcOracle => Cow::Borrowed("MPC(oracle)"),
            Scheme::MpcError { spec } => Cow::Owned(format!(
                "MPC(Err_{:.0}%_{:.0}%)",
                spec.time_mae * 100.0,
                spec.power_mae * 100.0
            )),
            Scheme::TheoreticallyOptimal => Cow::Borrowed("TO"),
            Scheme::Equalizer {
                mode: gpm_governors::EqualizerMode::Performance,
            } => Cow::Borrowed("Equalizer(perf)"),
            Scheme::Equalizer {
                mode: gpm_governors::EqualizerMode::Efficiency,
            } => Cow::Borrowed("Equalizer(eff)"),
        }
    }
}

/// Everything measured for one (workload, scheme) pair.
#[derive(Debug, Clone)]
pub struct SchemeOutcome {
    /// Scheme display label (borrowed for fixed schemes — no per-run
    /// allocation on hot paths).
    pub label: Cow<'static, str>,
    /// The Turbo Core baseline run.
    pub baseline: RunResult,
    /// The performance target derived from the baseline.
    pub target: PerfTarget,
    /// The scheme's profiling (first) invocation, when it has one.
    pub profiling: Option<RunResult>,
    /// The steady-state measured invocation.
    pub measured: RunResult,
    /// MPC decision statistics, for MPC schemes.
    pub mpc_stats: Option<MpcStats>,
}

/// Runs Turbo Core once and derives the Eq. 1 performance target from its
/// kernel-time totals.
///
/// This is the raw, uncached primitive; scheme evaluation goes through
/// the per-workload cache via
/// [`ExecEnv::baseline`](crate::env::ExecEnv::baseline).
pub fn turbo_core_baseline(sim: &ApuSimulator, workload: &Workload) -> (RunResult, PerfTarget) {
    let mut tc = TurboCore::new(sim.params().tdp_w);
    // Target placeholder: Turbo Core ignores it.
    let result = ExecEnv::new().run(sim, workload, &mut tc, PerfTarget::new(1.0, 1.0), 0, false);
    let target = PerfTarget::new(result.ginstructions, result.kernel_time_s);
    (result, target)
}

impl ExecEnv {
    /// Evaluates `scheme` on `workload` under the shared context, with
    /// this environment's middleware installed on the scheme's governor
    /// (capturing internal search / fail-safe telemetry) and threaded
    /// through every profiling and measured replay.
    ///
    /// The Turbo Core baseline that defines the performance target stays
    /// clean — untraced and unfaulted — and is resolved through the
    /// context's per-workload cache; with fault injection active, the
    /// scheme's predictor is additionally wrapped in a
    /// [`FaultyPredictor`] driven by the environment's plan.
    pub fn evaluate(
        &self,
        ctx: &EvalContext,
        workload: &Workload,
        scheme: Scheme,
    ) -> SchemeOutcome {
        let sim = &ctx.sim;
        let (baseline, target) = self.baseline(ctx, workload);
        let protocol = Protocol {
            env: self,
            ctx,
            workload,
            target,
        };
        // The limit studies run the full horizon with no overheads.
        let ideal = MpcConfig {
            horizon_mode: HorizonMode::Full,
            overhead: OverheadModel::free(),
            ..MpcConfig::default()
        };
        let ideal_truth = MpcConfig {
            store_truth: true,
            ..ideal
        };

        let (profiling, measured, mpc_stats) = match scheme {
            Scheme::TurboCore => {
                let mut tc = TurboCore::new(sim.params().tdp_w);
                self.install(&mut tc);
                let measured = self.run(sim, workload, &mut tc, target, 0, false);
                (None, measured, None)
            }
            Scheme::PpkOracle => {
                protocol.ppk(OraclePredictor::new(sim), OverheadModel::free(), true)
            }
            Scheme::PpkRf => protocol.ppk(&ctx.rf, OverheadModel::default(), false),
            Scheme::MpcRf { horizon } => protocol.mpc(
                &ctx.rf,
                MpcConfig {
                    horizon_mode: horizon,
                    ..MpcConfig::default()
                },
                false,
            ),
            Scheme::MpcRfOverhead { horizon, overhead } => protocol.mpc(
                &ctx.rf,
                MpcConfig {
                    horizon_mode: horizon,
                    overhead,
                    ..MpcConfig::default()
                },
                false,
            ),
            Scheme::MpcRfIdealized => protocol.mpc(&ctx.rf, ideal, false),
            Scheme::MpcOracle => protocol.mpc(OraclePredictor::new(sim), ideal_truth, true),
            Scheme::MpcError { spec } => protocol.mpc(
                ErrorInjectedPredictor::new(sim, spec, ctx.options.seed),
                ideal_truth,
                true,
            ),
            Scheme::Equalizer { mode } => {
                let mut gov = gpm_governors::Equalizer::new(mode);
                protocol.profile_and_measure(&mut gov, false)
            }
            Scheme::TheoreticallyOptimal => {
                let to_plan = to::plan_optimal(
                    sim,
                    workload.kernels(),
                    ctx.campaign_space(),
                    target.total_time_s(),
                );
                let mut gov = PlannedGovernor::new("theoretically-optimal", to_plan.configs);
                self.install(&mut gov);
                let measured = self.run(sim, workload, &mut gov, target, 0, false);
                (None, measured, None)
            }
        };
        SchemeOutcome {
            label: scheme.label(),
            baseline,
            target,
            profiling,
            measured,
            mpc_stats,
        }
    }
}

/// What one scheme's evaluation measured: the profiling invocation (when
/// the scheme has one), the measured invocation, and MPC's statistics.
type Measured = (Option<RunResult>, RunResult, Option<MpcStats>);

/// The standard two-invocation protocol for one (workload, target) pair:
/// profile on run 0, measure on run 1, with the environment's middleware
/// installed once and the scheme's predictor wrapped in the environment's
/// fault plan.
struct Protocol<'a> {
    env: &'a ExecEnv,
    ctx: &'a EvalContext,
    workload: &'a Workload,
    target: PerfTarget,
}

impl Protocol<'_> {
    fn profile_and_measure(&self, gov: &mut dyn Governor, provide_truth: bool) -> Measured {
        let Protocol {
            env,
            ctx,
            workload,
            target,
            ..
        } = *self;
        env.install(gov);
        let profiling = env.run(&ctx.sim, workload, gov, target, 0, provide_truth);
        let measured = env.run(&ctx.sim, workload, gov, target, 1, provide_truth);
        (Some(profiling), measured, None)
    }

    /// PPK over `predictor`; `provide_truth` also attaches ground truth
    /// to its snapshots.
    fn ppk<P: PowerPerfPredictor>(
        &self,
        predictor: P,
        overhead: OverheadModel,
        provide_truth: bool,
    ) -> Measured {
        let mut gov = PpkGovernor::new(
            FaultyPredictor::new(predictor, self.env.fault_plan()),
            self.ctx.sim.params().clone(),
            self.ctx.campaign_space().clone(),
            overhead,
        )
        .with_truth_snapshots(provide_truth);
        self.profile_and_measure(&mut gov, provide_truth)
    }

    /// MPC over `predictor` under `cfg`.
    fn mpc<P: PowerPerfPredictor>(
        &self,
        predictor: P,
        cfg: MpcConfig,
        provide_truth: bool,
    ) -> Measured {
        let mut gov = MpcGovernor::new(
            FaultyPredictor::new(predictor, self.env.fault_plan()),
            self.ctx.sim.params().clone(),
            cfg,
        );
        let (profiling, measured, _) = self.profile_and_measure(&mut gov, provide_truth);
        (profiling, measured, Some(gov.stats().clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalOptions;
    use crate::metrics::Comparison;
    use gpm_workloads::workload_by_name;
    use std::sync::OnceLock;

    fn ctx() -> &'static EvalContext {
        static CTX: OnceLock<EvalContext> = OnceLock::new();
        CTX.get_or_init(|| EvalContext::build(EvalOptions::fast()))
    }

    /// Pins which suite workloads TO runs at the fail-safe configuration
    /// because the DP finds no plan within Turbo Core's time. The budget
    /// is Turbo Core's *measured* time (the simulator's noisy `evaluate`),
    /// while TO plans with the noiseless `evaluate_exact`. On these seven
    /// the noise draws put the budget below the sum of every kernel's
    /// fastest noiseless time, so no plan fits even in continuous time;
    /// on the other eight the DP finds one.
    /// Figures 4 and 12 therefore compare against a partly fail-safe TO.
    #[test]
    fn to_falls_back_to_fail_safe_on_seven_workloads() {
        let ctx = ctx();
        let fallbacks: Vec<String> = gpm_workloads::suite()
            .iter()
            .filter(|w| {
                let (_, target) = turbo_core_baseline(&ctx.sim, w);
                let budget = target.total_time_s();
                let plan = to::plan_optimal(&ctx.sim, w.kernels(), ctx.campaign_space(), budget);
                let fastest: f64 = w
                    .kernels()
                    .iter()
                    .map(|k| {
                        ctx.campaign_space()
                            .iter()
                            .map(|cfg| ctx.sim.evaluate_exact(k, cfg).time_s)
                            .fold(f64::INFINITY, f64::min)
                    })
                    .sum();
                assert_eq!(plan.feasible, fastest <= budget, "{}", w.name());
                !plan.feasible
            })
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(
            fallbacks,
            [
                "mandelbulbGPU",
                "EigenValue",
                "Spmv",
                "swat",
                "mis",
                "srad",
                "lulesh"
            ]
        );
    }

    #[test]
    fn baseline_defines_target_from_kernel_time() {
        let w = workload_by_name("NBody").unwrap();
        let (base, target) = turbo_core_baseline(&ctx().sim, &w);
        assert!((target.total_time_s() - base.kernel_time_s).abs() < 1e-12);
        assert!((target.total_ginstructions() - base.ginstructions).abs() < 1e-12);
    }

    #[test]
    fn to_beats_turbo_core_on_energy_without_perf_loss() {
        let w = workload_by_name("Spmv").unwrap();
        let out = ExecEnv::new().evaluate(ctx(), &w, Scheme::TheoreticallyOptimal);
        let c = Comparison::between(&out.baseline, &out.measured);
        assert!(
            c.energy_savings_pct > 5.0,
            "TO savings {}",
            c.energy_savings_pct
        );
        // TO plans against the noiseless model; allow small noise-induced
        // slack on the realized time.
        assert!(c.speedup > 0.93, "TO speedup {}", c.speedup);
    }

    #[test]
    fn ppk_oracle_saves_energy_on_regular_benchmark() {
        let w = workload_by_name("mandelbulbGPU").unwrap();
        let out = ExecEnv::new().evaluate(ctx(), &w, Scheme::PpkOracle);
        let c = Comparison::between(&out.baseline, &out.measured);
        assert!(
            c.energy_savings_pct > 10.0,
            "PPK savings {}",
            c.energy_savings_pct
        );
        assert!(c.speedup > 0.9, "PPK speedup {}", c.speedup);
    }

    #[test]
    fn mpc_oracle_tracks_to_on_irregular_benchmark() {
        let w = workload_by_name("kmeans").unwrap();
        let env = ExecEnv::new();
        let to_out = env.evaluate(ctx(), &w, Scheme::TheoreticallyOptimal);
        let mpc_out = env.evaluate(ctx(), &w, Scheme::MpcOracle);
        let to_c = Comparison::between(&to_out.baseline, &to_out.measured);
        let mpc_c = Comparison::between(&mpc_out.baseline, &mpc_out.measured);
        // MPC should capture a large share of TO's savings (92% suite-wide
        // in the paper; be generous per-benchmark).
        assert!(
            mpc_c.energy_savings_pct > 0.5 * to_c.energy_savings_pct,
            "MPC {} vs TO {}",
            mpc_c.energy_savings_pct,
            to_c.energy_savings_pct
        );
    }

    #[test]
    fn mpc_rf_scheme_produces_stats() {
        let w = workload_by_name("EigenValue").unwrap();
        let out = ExecEnv::new().evaluate(
            ctx(),
            &w,
            Scheme::MpcRf {
                horizon: HorizonMode::default(),
            },
        );
        let stats = out.mpc_stats.unwrap();
        assert!(!stats.horizons.is_empty());
        assert!(out.profiling.is_some());
        assert!(out.measured.overhead_time_s >= 0.0);
    }

    #[test]
    fn labels_are_distinct() {
        let schemes = [
            Scheme::TurboCore,
            Scheme::PpkOracle,
            Scheme::PpkRf,
            Scheme::MpcRf {
                horizon: HorizonMode::default(),
            },
            Scheme::MpcRf {
                horizon: HorizonMode::Full,
            },
            Scheme::MpcRfIdealized,
            Scheme::MpcOracle,
            Scheme::MpcError {
                spec: ErrorSpec::ERR_5,
            },
            Scheme::TheoreticallyOptimal,
        ];
        let mut labels: Vec<Cow<'static, str>> = schemes.iter().map(|s| s.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), schemes.len());
    }

    #[test]
    fn fixed_scheme_labels_do_not_allocate() {
        assert!(matches!(Scheme::TurboCore.label(), Cow::Borrowed(_)));
        assert!(matches!(
            Scheme::MpcRf {
                horizon: HorizonMode::default()
            }
            .label(),
            Cow::Borrowed(_)
        ));
        assert!(matches!(
            Scheme::MpcRf {
                horizon: HorizonMode::Fixed(4)
            }
            .label(),
            Cow::Owned(_)
        ));
    }
}
