//! The MPC governor: the full Figure 6 system behind the
//! [`Governor`] interface.
//!
//! Lifecycle, matching Section V-B:
//!
//! 1. **First application invocation** — no stored knowledge. The governor
//!    behaves exactly like PPK: it decides each kernel with the shared
//!    [`ppk_step`] (fail-safe for the very first kernel, then
//!    one-kernel-lookback optimization) while the pattern extractor records
//!    the execution order and the total PPK optimization time `T_PPK`.
//! 2. **`end_run`** — the recorded order becomes the reference pattern;
//!    the search order (Section IV-A1a) and adaptive horizon generator
//!    (Section IV-A4) are derived from the profile.
//! 3. **Subsequent invocations** — full MPC: per-kernel adaptive horizon,
//!    window optimization in search order, greedy hill climbing, with the
//!    performance tracker feeding back actual elapsed time/instructions.

use crate::horizon::{HorizonGenerator, HorizonMode};
use crate::optimizer::{optimize_window, optimize_window_exact};
use crate::search_order::{average_full_horizon, search_order, ProfiledKernel};
use crate::stats::MpcStats;
use gpm_faults::{no_faults, FaultInjector, FaultKey};
use gpm_governors::search::{record_search, EnergyEvaluator, SearchStats};
use gpm_governors::{
    ppk_step, Governor, GovernorDecision, KernelContext, OverheadModel, PerfTarget,
};
use gpm_hw::HwConfig;
use gpm_pattern::PatternExtractor;
use gpm_sim::predictor::{KernelSnapshot, PowerPerfPredictor};
use gpm_sim::{KernelCharacteristics, KernelOutcome, SimParams};
use gpm_trace::{noop_sink, FailSafeReason, FaultChannelKind, TraceEvent, TraceSink};
use std::sync::Arc;

/// Which window optimizer the governor runs each decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowSolver {
    /// The paper's polynomial-time heuristic: search-order walk + greedy
    /// hill climbing (Section IV-A1a). The runtime configuration.
    #[default]
    Greedy,
    /// The exact Eq. 3 solution (multiple-choice-knapsack DP over the full
    /// measured configuration space) — the expensive reference of the 65×
    /// search-cost claim. Ablation/testing only.
    ExactDp,
}

/// Static configuration of the MPC governor.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MpcConfig {
    /// Horizon policy; the paper's evaluation uses `Adaptive { alpha: 0.05 }`.
    pub horizon_mode: HorizonMode,
    /// Optimizer cost accounting; `OverheadModel::free()` for limit studies.
    pub overhead: OverheadModel,
    /// Attach ground truth to stored snapshots (oracle-predictor studies).
    pub store_truth: bool,
    /// Window optimizer (greedy heuristic by default).
    pub solver: WindowSolver,
    /// Ablation switch: when `false`, the window walk visits kernels in
    /// plain execution order instead of the Section IV-A1a search order
    /// (used by the `search_order_ablation` binary to quantify the
    /// heuristic's contribution).
    pub use_search_order: bool,
}

/// The adaptive-MPC power-management governor (the paper's contribution).
///
/// Generic over the power/performance predictor: plug in the trained
/// Random Forest for the realistic system, an oracle for limit studies, or
/// an error-injected model for Figure 13.
#[derive(Debug, Clone)]
pub struct MpcGovernor<P> {
    evaluator: EnergyEvaluator<P>,
    cfg: MpcConfig,
    extractor: PatternExtractor,
    last_snapshot: Option<KernelSnapshot>,
    profile: Vec<ProfiledKernel>,
    t_ppk: f64,
    search: Option<Vec<usize>>,
    horizon_gen: Option<HorizonGenerator>,
    pending_overhead_s: f64,
    target_seen: Option<PerfTarget>,
    stats: MpcStats,
    trace: Arc<dyn TraceSink>,
    faults: Arc<dyn FaultInjector>,
    /// The current decision's window: (position, expected snapshot)
    /// pairs in ascending position order, refilled by each decision so
    /// its allocation is reused.
    window: Vec<(usize, KernelSnapshot)>,
}

impl<P: PowerPerfPredictor> MpcGovernor<P> {
    /// Creates the governor with the given predictor, simulator parameters
    /// (for the CPU `V²f` model), and configuration.
    pub fn new(predictor: P, params: SimParams, cfg: MpcConfig) -> MpcGovernor<P> {
        MpcGovernor {
            evaluator: EnergyEvaluator::new(predictor, params),
            cfg,
            extractor: PatternExtractor::new(),
            last_snapshot: None,
            profile: Vec::new(),
            t_ppk: 0.0,
            search: None,
            horizon_gen: None,
            pending_overhead_s: 0.0,
            target_seen: None,
            stats: MpcStats::new(),
            trace: noop_sink(),
            faults: no_faults(),
            window: Vec::new(),
        }
    }

    /// Decision statistics (horizons, evaluations, overheads).
    pub fn stats(&self) -> &MpcStats {
        &self.stats
    }

    /// The pattern extractor state.
    pub fn extractor(&self) -> &PatternExtractor {
        &self.extractor
    }

    /// The derived search order, once profiling has completed.
    pub fn search_order(&self) -> Option<&[usize]> {
        self.search.as_deref()
    }

    /// Total PPK optimization time accumulated during profiling — the
    /// `T_PPK` consumed by the adaptive horizon generator.
    pub fn t_ppk(&self) -> f64 {
        self.t_ppk
    }

    /// Whether the governor is still in its profiling (PPK) phase.
    pub fn is_profiling(&self) -> bool {
        self.search.is_none()
    }

    /// Reads a pattern-store snapshot for the kernel expected at window
    /// position `p`, routing it through the fault injector and discarding
    /// it (with a `Recovered` trace event) when it comes back malformed.
    fn window_snapshot(&mut self, run_index: usize, p: usize, id: usize) -> Option<KernelSnapshot> {
        let mut snap = self.extractor.record(id)?.snapshot();
        if self.faults.enabled() {
            let key = FaultKey {
                run_index,
                position: p,
            };
            if let Some(f) = self.faults.corrupt_snapshot(key, &mut snap) {
                if self.trace.enabled() {
                    self.trace.record(&TraceEvent::FaultInjected {
                        run_index,
                        position: p,
                        channel: f.channel,
                        magnitude: f.magnitude,
                    });
                }
            }
        }
        if snap.is_well_formed() {
            Some(snap)
        } else {
            // Stale/corrupted record: better to shrink the window than to
            // optimize against garbage.
            self.stats.stale_rejections += 1;
            if self.trace.enabled() {
                self.trace.record(&TraceEvent::Recovered {
                    run_index,
                    position: p,
                    channel: FaultChannelKind::StalePattern,
                    retries: 0,
                });
            }
            None
        }
    }

    /// PPK decision used while profiling (and past the reference
    /// pattern's end): the shared [`ppk_step`], plus this governor's
    /// bookkeeping.
    fn ppk_decision(&mut self, ctx: &KernelContext, charge_t_ppk: bool) -> GovernorDecision {
        self.stats.profiling_decisions += 1;
        let (decision, search) = ppk_step(
            &self.evaluator,
            self.last_snapshot.as_ref(),
            ctx,
            self.cfg.overhead,
            &*self.trace,
        );
        if charge_t_ppk {
            self.t_ppk += decision.overhead_s;
        }
        self.pending_overhead_s = decision.overhead_s;
        self.stats.prediction_anomalies += search.anomalies;
        decision
    }

    /// Full MPC decision once the reference pattern exists.
    fn mpc_decision(&mut self, ctx: &KernelContext) -> GovernorDecision {
        let gen = self
            .horizon_gen
            .as_ref()
            .expect("horizon generator exists post-profiling");
        let h = gen.horizon_for(ctx.position);
        if h == 0 {
            // No optimization budget: run the performance-safe default.
            self.stats.record_decision(0, 0, 0.0, false);
            self.pending_overhead_s = 0.0;
            record_search(
                &*self.trace,
                ctx,
                Some(0),
                &SearchStats::default(),
                0.0,
                None,
            );
            return GovernorDecision {
                config: HwConfig::FAIL_SAFE,
                overhead_s: 0.0,
                evaluations: 0,
                horizon: Some(0),
                predicted: None,
            };
        }

        let mut current_rejected = false;
        let mut window = std::mem::take(&mut self.window);
        window.clear();
        for p in ctx.position..ctx.position + h {
            if let Some(id) = self.extractor.expected(p) {
                let before = self.stats.stale_rejections;
                if let Some(snap) = self.window_snapshot(ctx.run_index, p, id) {
                    window.push((p, snap));
                } else if p == ctx.position && self.stats.stale_rejections > before {
                    // The head kernel's own record was discarded; any
                    // resulting fail-safe is attributable to staleness.
                    current_rejected = true;
                }
            }
        }
        let plan = match self.cfg.solver {
            WindowSolver::Greedy => optimize_window(
                &self.evaluator,
                &window,
                // Without the search order the window is visited in
                // execution order.
                if self.cfg.use_search_order {
                    self.search.as_deref().unwrap_or(&[])
                } else {
                    &[]
                },
                ctx.position,
                h,
                ctx.elapsed_gi,
                ctx.elapsed_kernel_s,
                &ctx.target,
            ),
            WindowSolver::ExactDp => optimize_window_exact(
                &self.evaluator,
                &window,
                &gpm_hw::ConfigSpace::paper_campaign(),
                ctx.position,
                h,
                ctx.elapsed_gi,
                ctx.elapsed_kernel_s,
                &ctx.target,
            ),
        };
        self.window = window;
        let (config, evals, fail_safe, search, chosen) = match plan {
            Some(p) => (p.config, p.evaluations, p.fail_safe, p.search, p.chosen),
            None => (HwConfig::FAIL_SAFE, 0, true, Default::default(), None),
        };
        let overhead_s = self.cfg.overhead.cost_s(evals);
        self.stats.record_decision(h, evals, overhead_s, fail_safe);
        self.pending_overhead_s = overhead_s;
        self.stats.prediction_anomalies += search.anomalies;
        let fail_safe = fail_safe.then_some(if current_rejected {
            FailSafeReason::StalePattern
        } else if search.anomalies > 0 {
            FailSafeReason::PredictionAnomaly
        } else {
            FailSafeReason::InfeasibleWindow
        });
        record_search(&*self.trace, ctx, Some(h), &search, overhead_s, fail_safe);
        GovernorDecision {
            config,
            overhead_s,
            evaluations: evals,
            horizon: Some(h),
            predicted: chosen,
        }
    }
}

impl<P: PowerPerfPredictor> Governor for MpcGovernor<P> {
    fn name(&self) -> &str {
        "mpc"
    }

    fn select(&mut self, ctx: &KernelContext) -> GovernorDecision {
        self.target_seen = Some(ctx.target);
        let in_reference = self
            .extractor
            .reference_len()
            .is_some_and(|len| ctx.position < len);
        if self.search.is_some() && in_reference {
            self.mpc_decision(ctx)
        } else {
            // Profiling run, or the application outgrew its reference
            // pattern: fall back to history-based behaviour. T_PPK only
            // accumulates during true profiling.
            self.ppk_decision(ctx, self.search.is_none())
        }
    }

    fn observe(
        &mut self,
        ctx: &KernelContext,
        executed_at: HwConfig,
        outcome: &KernelOutcome,
        truth: Option<&KernelCharacteristics>,
    ) {
        // Never let a corrupted measurement into the pattern store, the
        // PPK lookback snapshot, or the horizon generator's budget tracker.
        let mut sanitized = outcome.clone();
        if sanitized.sanitize() && self.trace.enabled() {
            self.trace.record(&TraceEvent::Recovered {
                run_index: ctx.run_index,
                position: ctx.position,
                channel: FaultChannelKind::CounterNoise,
                retries: 0,
            });
        }
        let outcome = &sanitized;
        let truth = if self.cfg.store_truth {
            truth.cloned()
        } else {
            None
        };
        let expected = self.extractor.expected(ctx.position);
        let observed = self.extractor.observe(outcome, executed_at, truth.clone());
        if let Some(expected) = expected {
            self.stats.pattern_checks += 1;
            if expected != observed {
                self.stats.pattern_mispredictions += 1;
                if self.trace.enabled() {
                    self.trace.record(&TraceEvent::PatternMiss {
                        run_index: ctx.run_index,
                        position: ctx.position,
                        expected,
                        observed,
                    });
                }
            }
        }
        self.last_snapshot = Some(KernelSnapshot {
            counters: outcome.counters,
            measured_at: executed_at,
            ginstructions: outcome.ginstructions,
            truth,
        });
        if self.search.is_none() {
            self.profile.push(ProfiledKernel {
                position: ctx.position,
                gi: outcome.ginstructions,
                time_s: outcome.time_s,
            });
        }
        if let Some(gen) = self.horizon_gen.as_mut() {
            gen.record(outcome.time_s, self.pending_overhead_s);
        }
        self.pending_overhead_s = 0.0;
    }

    fn end_run(&mut self) {
        self.extractor.end_run();
        if self.search.is_none() {
            if let (Some(n), Some(target)) = (self.extractor.reference_len(), self.target_seen) {
                if n > 0 {
                    self.search = Some(search_order(&self.profile, target.throughput()));
                    let mut gen = HorizonGenerator::new(
                        self.cfg.horizon_mode,
                        n,
                        average_full_horizon(n),
                        self.t_ppk,
                        target.total_time_s(),
                    );
                    // Budget each position by its share of the profiled
                    // run time, so heterogeneous kernels are charged
                    // what they actually cost rather than T_total/N.
                    let weights: Vec<f64> = self.profile.iter().map(|p| p.time_s).collect();
                    gen.set_budget_weights(&weights);
                    self.horizon_gen = Some(gen);
                }
            }
        }
        if let Some(gen) = self.horizon_gen.as_mut() {
            gen.reset_run();
        }
        self.last_snapshot = None;
        self.pending_overhead_s = 0.0;
    }

    fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.trace = sink;
    }

    fn set_fault_injector(&mut self, faults: Arc<dyn FaultInjector>) {
        self.faults = faults;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_hw::ConfigSpace;
    use gpm_sim::{ApuSimulator, OraclePredictor};

    /// Minimal driver: runs `governor` over the kernel sequence once,
    /// returning (total kernel time, total energy, total overhead time).
    fn drive(
        governor: &mut dyn Governor,
        sim: &ApuSimulator,
        kernels: &[KernelCharacteristics],
        target: PerfTarget,
        run_index: usize,
    ) -> (f64, f64, f64) {
        let mut elapsed_s = 0.0;
        let mut elapsed_gi = 0.0;
        let mut energy = 0.0;
        let mut overhead_s = 0.0;
        for (position, k) in kernels.iter().enumerate() {
            let ctx = KernelContext {
                position,
                run_index,
                elapsed_kernel_s: elapsed_s,
                elapsed_gi,
                target,
                total_kernels: Some(kernels.len()),
            };
            let d = governor.select(&ctx);
            overhead_s += d.overhead_s;
            let out = sim.evaluate(k, d.config);
            energy += out.energy.total_j();
            elapsed_s += out.time_s;
            elapsed_gi += out.ginstructions;
            governor.observe(&ctx, d.config, &out, Some(k));
        }
        governor.end_run();
        (elapsed_s, energy, overhead_s)
    }

    /// The irregular kmeans-style pattern: one long low-throughput kernel,
    /// then many fast ones (A B²⁰ condensed to B⁸).
    fn irregular_app() -> Vec<KernelCharacteristics> {
        let swap = KernelCharacteristics::unscalable("swap", 0.05);
        let kmeans = KernelCharacteristics::compute_bound("kmeans", 25.0);
        let mut seq = vec![swap];
        for _ in 0..8 {
            seq.push(kmeans.clone());
        }
        seq
    }

    fn baseline_target(sim: &ApuSimulator, kernels: &[KernelCharacteristics]) -> PerfTarget {
        let mut gi = 0.0;
        let mut t = 0.0;
        for k in kernels {
            let out = sim.evaluate(k, HwConfig::MAX_PERF);
            gi += out.ginstructions;
            t += out.time_s;
        }
        PerfTarget::new(gi, t)
    }

    fn oracle_mpc(sim: &ApuSimulator, cfg: MpcConfig) -> MpcGovernor<OraclePredictor> {
        let mut cfg = cfg;
        cfg.store_truth = true;
        MpcGovernor::new(OraclePredictor::new(sim), SimParams::noiseless(), cfg)
    }

    #[test]
    fn profiling_run_starts_fail_safe_and_records() {
        let sim = ApuSimulator::noiseless();
        let kernels = irregular_app();
        let target = baseline_target(&sim, &kernels);
        let mut mpc = oracle_mpc(&sim, MpcConfig::default());
        assert!(mpc.is_profiling());
        let ctx = KernelContext {
            position: 0,
            run_index: 0,
            elapsed_kernel_s: 0.0,
            elapsed_gi: 0.0,
            target,
            total_kernels: Some(kernels.len()),
        };
        let d = mpc.select(&ctx);
        assert_eq!(d.config, HwConfig::FAIL_SAFE);
        assert_eq!(d.horizon, None);
    }

    #[test]
    fn end_run_derives_search_order_and_horizon() {
        let sim = ApuSimulator::noiseless();
        let kernels = irregular_app();
        let target = baseline_target(&sim, &kernels);
        let mut mpc = oracle_mpc(&sim, MpcConfig::default());
        drive(&mut mpc, &sim, &kernels, target, 0);
        assert!(!mpc.is_profiling());
        let order = mpc.search_order().unwrap().to_vec();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..kernels.len()).collect::<Vec<_>>());
        assert!(mpc.t_ppk() > 0.0);
    }

    #[test]
    fn post_profiling_decisions_carry_horizons() {
        let sim = ApuSimulator::noiseless();
        let kernels = irregular_app();
        let target = baseline_target(&sim, &kernels);
        let mut mpc = oracle_mpc(&sim, MpcConfig::default());
        drive(&mut mpc, &sim, &kernels, target, 0);
        let profiling_decisions = mpc.stats().profiling_decisions;
        drive(&mut mpc, &sim, &kernels, target, 1);
        assert_eq!(mpc.stats().profiling_decisions, profiling_decisions);
        assert!(!mpc.stats().horizons.is_empty());
        let n = kernels.len();
        assert!(mpc.stats().horizons.iter().all(|&h| h <= n));
    }

    #[test]
    fn mpc_saves_energy_versus_max_perf_within_perf_budget() {
        let sim = ApuSimulator::noiseless();
        let kernels = irregular_app();
        let target = baseline_target(&sim, &kernels);
        // Baseline energy at max perf.
        let base_energy: f64 = kernels
            .iter()
            .map(|k| sim.evaluate(k, HwConfig::MAX_PERF).energy.total_j())
            .sum();
        let base_time = target.total_time_s();

        let mut mpc = oracle_mpc(&sim, MpcConfig::default());
        drive(&mut mpc, &sim, &kernels, target, 0); // profiling
        let (time, energy, overhead) = drive(&mut mpc, &sim, &kernels, target, 1);
        assert!(
            energy < base_energy * 0.95,
            "MPC energy {energy} should undercut max-perf {base_energy}"
        );
        assert!(
            time + overhead < base_time * 1.10,
            "MPC time {time}+{overhead} vs baseline {base_time}"
        );
    }

    #[test]
    fn full_horizon_mode_uses_n() {
        let sim = ApuSimulator::noiseless();
        let kernels = irregular_app();
        let target = baseline_target(&sim, &kernels);
        let cfg = MpcConfig {
            horizon_mode: HorizonMode::Full,
            overhead: OverheadModel::free(),
            store_truth: true,
            ..MpcConfig::default()
        };
        let mut mpc = oracle_mpc(&sim, cfg);
        drive(&mut mpc, &sim, &kernels, target, 0);
        drive(&mut mpc, &sim, &kernels, target, 1);
        assert!(mpc.stats().horizons.iter().all(|&h| h == kernels.len()));
    }

    #[test]
    fn zero_overhead_model_reports_zero_overhead() {
        let sim = ApuSimulator::noiseless();
        let kernels = irregular_app();
        let target = baseline_target(&sim, &kernels);
        let cfg = MpcConfig {
            horizon_mode: HorizonMode::Full,
            overhead: OverheadModel::free(),
            store_truth: true,
            ..MpcConfig::default()
        };
        let mut mpc = oracle_mpc(&sim, cfg);
        drive(&mut mpc, &sim, &kernels, target, 0);
        let (_, _, overhead) = drive(&mut mpc, &sim, &kernels, target, 1);
        assert_eq!(overhead, 0.0);
        assert_eq!(mpc.t_ppk(), 0.0);
    }

    #[test]
    fn regular_app_mpc_matches_ppk_closely() {
        // Single repeating kernel: future knowledge buys nothing (the
        // paper's regular benchmarks), so MPC and PPK energies agree
        // within a few percent.
        let sim = ApuSimulator::noiseless();
        let kernel = KernelCharacteristics::compute_bound("mandelbulb", 20.0);
        let kernels: Vec<_> = (0..10).map(|_| kernel.clone()).collect();
        let target = baseline_target(&sim, &kernels);

        let mut mpc = oracle_mpc(&sim, MpcConfig::default());
        drive(&mut mpc, &sim, &kernels, target, 0);
        let (_, mpc_energy, _) = drive(&mut mpc, &sim, &kernels, target, 1);

        let mut ppk = gpm_governors::PpkGovernor::new(
            OraclePredictor::new(&sim),
            SimParams::noiseless(),
            ConfigSpace::paper_campaign(),
            OverheadModel::default(),
        )
        .with_truth_snapshots(true);
        drive(&mut ppk, &sim, &kernels, target, 0);
        let (_, ppk_energy, _) = drive(&mut ppk, &sim, &kernels, target, 1);

        let ratio = mpc_energy / ppk_energy;
        assert!((0.9..=1.1).contains(&ratio), "MPC/PPK energy ratio {ratio}");
    }

    #[test]
    fn irregular_app_mpc_beats_ppk() {
        // kmeans-style low→high transition: PPK mispredicts the phase
        // change and loses performance it cannot recover; MPC anticipates
        // it (Section II-E).
        let sim = ApuSimulator::noiseless();
        let kernels = irregular_app();
        let target = baseline_target(&sim, &kernels);

        let mut mpc = oracle_mpc(&sim, MpcConfig::default());
        drive(&mut mpc, &sim, &kernels, target, 0);
        let (mpc_time, _, mpc_oh) = drive(&mut mpc, &sim, &kernels, target, 1);

        let mut ppk = gpm_governors::PpkGovernor::new(
            OraclePredictor::new(&sim),
            SimParams::noiseless(),
            ConfigSpace::paper_campaign(),
            OverheadModel::default(),
        )
        .with_truth_snapshots(true);
        drive(&mut ppk, &sim, &kernels, target, 0);
        let (ppk_time, _, ppk_oh) = drive(&mut ppk, &sim, &kernels, target, 1);

        let mpc_total = mpc_time + mpc_oh;
        let ppk_total = ppk_time + ppk_oh;
        assert!(
            mpc_total <= ppk_total * 1.02,
            "MPC wall time {mpc_total} should not trail PPK {ppk_total}"
        );
        // And MPC must stay within striking distance of the target.
        assert!(mpc_time <= target.total_time_s() * 1.10);
    }
}
