//! Predict Previous Kernel (PPK), the paper's stand-in for
//! state-of-the-art history-based schemes (Sections II-E, III).
//!
//! PPK "assumes that the last seen kernel or phase repeats again and uses
//! its behavior to estimate the energy optimal configuration of the
//! upcoming kernel", under the running throughput constraint of Eq. 2. It
//! never looks further than one kernel ahead and so cannot anticipate
//! throughput phase changes — the failure mode that motivates MPC.

use crate::governor::{Governor, GovernorDecision, KernelContext, OverheadModel};
use crate::search::{hill_climb, record_search, EnergyEvaluator, SearchStats};
use gpm_hw::{ConfigSpace, HwConfig};
use gpm_sim::predictor::{KernelSnapshot, PowerPerfPredictor};
use gpm_sim::{KernelCharacteristics, KernelOutcome, SimParams};
use gpm_trace::{noop_sink, FailSafeReason, FaultChannelKind, TraceEvent, TraceSink};
use std::sync::Arc;

/// The PPK governor.
///
/// The very first kernel runs at the fail-safe configuration ("the very
/// first kernel is run at fail-safe since no performance counters are
/// available", Section V-B); afterwards each decision optimizes the
/// predicted energy of the *previous* kernel's snapshot under the Eq. 2
/// prefix-throughput constraint, by the same greedy hill climb the MPC
/// optimizer runs per kernel, so the profiling run's `T_PPK` is a
/// faithful cost proxy for the adaptive horizon generator.
#[derive(Debug, Clone)]
pub struct PpkGovernor<P> {
    evaluator: EnergyEvaluator<P>,
    overhead: OverheadModel,
    store_truth: bool,
    last: Option<KernelSnapshot>,
    total_overhead_s: f64,
    total_evaluations: u64,
    trace: Arc<dyn TraceSink>,
}

impl<P: PowerPerfPredictor> PpkGovernor<P> {
    /// PPK with the given predictor, simulator parameters (for the CPU
    /// `V²f` model), and overhead accounting.
    ///
    /// The hill climb walks the knob lattice from the fail-safe
    /// configuration and never reads `_space`; the parameter is kept so
    /// existing callers, the `perfbench` benchmark among them, build
    /// unchanged.
    pub fn new(
        predictor: P,
        params: SimParams,
        _space: ConfigSpace,
        overhead: OverheadModel,
    ) -> PpkGovernor<P> {
        PpkGovernor {
            evaluator: EnergyEvaluator::new(predictor, params),
            overhead,
            store_truth: false,
            last: None,
            total_overhead_s: 0.0,
            total_evaluations: 0,
            trace: noop_sink(),
        }
    }

    /// Attach ground truth to snapshots (oracle-predictor studies only).
    pub fn with_truth_snapshots(mut self, enabled: bool) -> PpkGovernor<P> {
        self.store_truth = enabled;
        self
    }

    /// Cumulative optimizer overhead charged so far, seconds. This is the
    /// `T_PPK` the adaptive horizon generator consumes after a profiling
    /// run.
    pub fn total_overhead_s(&self) -> f64 {
        self.total_overhead_s
    }

    /// Cumulative predictor evaluations.
    pub fn total_evaluations(&self) -> u64 {
        self.total_evaluations
    }
}

/// One PPK decision (Section III) for the kernel at `ctx`, recording its
/// `Search` and any `FailSafe` event on `trace`.
///
/// With no `last` snapshot the kernel runs at the fail-safe configuration
/// at no cost. Otherwise the hill climb prices `last` (the upcoming
/// kernel is assumed to repeat it) under the Eq. 2 time cap, falling back
/// to fail-safe when no configuration meets the cap. [`PpkGovernor`]
/// decides every kernel this way; the MPC governor decides its profiling
/// invocation this way, which is what makes it "behave exactly like PPK"
/// there (Section V-B). Returns the decision and its search telemetry.
pub fn ppk_step<P: PowerPerfPredictor>(
    evaluator: &EnergyEvaluator<P>,
    last: Option<&KernelSnapshot>,
    ctx: &KernelContext,
    overhead: OverheadModel,
    trace: &dyn TraceSink,
) -> (GovernorDecision, SearchStats) {
    let Some(last) = last else {
        // No history yet: fail safe, no optimization charged.
        return (
            GovernorDecision::instant(HwConfig::FAIL_SAFE),
            SearchStats::default(),
        );
    };
    // Eq. 2: the upcoming kernel (assumed equal to the previous one) must
    // keep cumulative throughput at or above target.
    let cap = ctx
        .target
        .time_cap(ctx.elapsed_gi, ctx.elapsed_kernel_s, last.ginstructions);
    let (best, stats) = {
        let _span = gpm_telemetry::span("search.hill_climb");
        hill_climb(evaluator, last, HwConfig::FAIL_SAFE, cap)
    };
    let overhead_s = overhead.cost_s(stats.evaluations);
    // Distinguish a predictor gone bad from a genuinely unsatisfiable cap.
    let fail_safe = best.is_none().then_some(if stats.anomalies > 0 {
        FailSafeReason::PredictionAnomaly
    } else {
        FailSafeReason::InfeasibleCap
    });
    record_search(trace, ctx, None, &stats, overhead_s, fail_safe);
    let decision = GovernorDecision {
        config: best.map_or(HwConfig::FAIL_SAFE, |b| b.config),
        overhead_s,
        evaluations: stats.evaluations,
        horizon: None,
        predicted: best,
    };
    (decision, stats)
}

impl<P: PowerPerfPredictor> Governor for PpkGovernor<P> {
    fn name(&self) -> &str {
        "ppk"
    }

    fn select(&mut self, ctx: &KernelContext) -> GovernorDecision {
        let (decision, _) = ppk_step(
            &self.evaluator,
            self.last.as_ref(),
            ctx,
            self.overhead,
            &*self.trace,
        );
        self.total_overhead_s += decision.overhead_s;
        self.total_evaluations += decision.evaluations;
        decision
    }

    fn observe(
        &mut self,
        ctx: &KernelContext,
        executed_at: HwConfig,
        outcome: &KernelOutcome,
        truth: Option<&KernelCharacteristics>,
    ) {
        let truth = if self.store_truth {
            truth.cloned()
        } else {
            None
        };
        let mut snapshot = KernelSnapshot {
            counters: outcome.counters,
            measured_at: executed_at,
            ginstructions: outcome.ginstructions,
            truth,
        };
        // A corrupted observation must not poison the one-kernel history:
        // clamp it and note the recovery.
        if !snapshot.is_well_formed() {
            snapshot.counters.sanitize();
            if !snapshot.ginstructions.is_finite() || snapshot.ginstructions < 0.0 {
                snapshot.ginstructions = 0.0;
            }
            if self.trace.enabled() {
                self.trace.record(&TraceEvent::Recovered {
                    run_index: ctx.run_index,
                    position: ctx.position,
                    channel: FaultChannelKind::CounterNoise,
                    retries: 0,
                });
            }
        }
        self.last = Some(snapshot);
    }

    fn end_run(&mut self) {
        // History does not carry across application invocations: the next
        // run's first kernel again has no predecessor within the run.
        self.last = None;
    }

    fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.trace = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::PerfTarget;
    use gpm_sim::{ApuSimulator, OraclePredictor};

    fn ctx(position: usize, elapsed_gi: f64, elapsed_s: f64, target: PerfTarget) -> KernelContext {
        KernelContext {
            position,
            run_index: 0,
            elapsed_kernel_s: elapsed_s,
            elapsed_gi,
            target,
            total_kernels: None,
        }
    }

    fn oracle_ppk(sim: &ApuSimulator) -> PpkGovernor<OraclePredictor> {
        PpkGovernor::new(
            OraclePredictor::new(sim),
            SimParams::noiseless(),
            ConfigSpace::paper_campaign(),
            OverheadModel::default(),
        )
        .with_truth_snapshots(true)
    }

    #[test]
    fn first_kernel_is_fail_safe() {
        let sim = ApuSimulator::noiseless();
        let mut ppk = oracle_ppk(&sim);
        let target = PerfTarget::new(10.0, 1.0);
        let d = ppk.select(&ctx(0, 0.0, 0.0, target));
        assert_eq!(d.config, HwConfig::FAIL_SAFE);
        assert_eq!(d.overhead_s, 0.0);
    }

    #[test]
    fn optimizes_after_first_observation() {
        let sim = ApuSimulator::noiseless();
        let mut ppk = oracle_ppk(&sim);
        let k = KernelCharacteristics::unscalable("us", 0.02);
        // Establish a lenient target from a fail-safe run.
        let base = sim.evaluate(&k, HwConfig::FAIL_SAFE);
        let target = PerfTarget::new(base.ginstructions * 10.0, base.time_s * 10.0 * 1.5);

        let c = ctx(0, 0.0, 0.0, target);
        ppk.observe(&c, HwConfig::FAIL_SAFE, &base, Some(&k));
        let d = ppk.select(&ctx(1, base.ginstructions, base.time_s, target));
        // An unscalable kernel with slack: PPK should pick something much
        // lower-power than fail-safe.
        assert_ne!(d.config, HwConfig::FAIL_SAFE);
        assert!(d.evaluations > 0);
        assert!(d.overhead_s > 0.0);
        let chosen = sim.evaluate(&k, d.config);
        assert!(chosen.power.total_w() < base.power.total_w());
    }

    #[test]
    fn falls_back_when_behind_target() {
        let sim = ApuSimulator::noiseless();
        let mut ppk = oracle_ppk(&sim);
        let k = KernelCharacteristics::compute_bound("cb", 20.0);
        let base = sim.evaluate(&k, HwConfig::MAX_PERF);
        // Impossible target: twice the max-perf throughput.
        let target = PerfTarget::new(base.ginstructions * 2.0, base.time_s);
        let c = ctx(0, 0.0, 0.0, target);
        ppk.observe(&c, HwConfig::MAX_PERF, &base, Some(&k));
        // Deep performance debt makes the cap negative → fail-safe.
        let d = ppk.select(&ctx(1, base.ginstructions, base.time_s * 4.0, target));
        assert_eq!(d.config, HwConfig::FAIL_SAFE);
    }

    #[test]
    fn end_run_clears_history() {
        let sim = ApuSimulator::noiseless();
        let mut ppk = oracle_ppk(&sim);
        let k = KernelCharacteristics::compute_bound("cb", 20.0);
        let out = sim.evaluate(&k, HwConfig::FAIL_SAFE);
        let target = PerfTarget::new(1.0, 1.0);
        ppk.observe(
            &ctx(0, 0.0, 0.0, target),
            HwConfig::FAIL_SAFE,
            &out,
            Some(&k),
        );
        ppk.end_run();
        let d = ppk.select(&ctx(0, 0.0, 0.0, target));
        assert_eq!(d.config, HwConfig::FAIL_SAFE);
        assert_eq!(d.evaluations, 0);
    }

    #[test]
    fn accumulates_overhead_accounting() {
        let sim = ApuSimulator::noiseless();
        let mut ppk = oracle_ppk(&sim);
        let k = KernelCharacteristics::memory_bound("mb", 1.0);
        let base = sim.evaluate(&k, HwConfig::FAIL_SAFE);
        let target = PerfTarget::new(base.ginstructions * 5.0, base.time_s * 5.0 * 2.0);
        let c = ctx(0, 0.0, 0.0, target);
        ppk.observe(&c, HwConfig::FAIL_SAFE, &base, Some(&k));
        let before = ppk.total_overhead_s();
        let d = ppk.select(&ctx(1, base.ginstructions, base.time_s, target));
        assert!(
            d.evaluations > 0 && d.evaluations < 60,
            "evals {}",
            d.evaluations
        );
        assert!(ppk.total_overhead_s() > before);
        assert_eq!(ppk.total_evaluations(), d.evaluations);
    }

    #[test]
    fn corrupted_observation_is_sanitized_before_storage() {
        let sim = ApuSimulator::noiseless();
        let mut ppk = oracle_ppk(&sim);
        let k = KernelCharacteristics::memory_bound("mb", 1.0);
        let clean = sim.evaluate(&k, HwConfig::FAIL_SAFE);
        let target = PerfTarget::new(clean.ginstructions * 5.0, clean.time_s * 5.0 * 2.0);
        let mut corrupted = clean.clone();
        corrupted.counters.values_mut()[0] = f64::NAN;
        corrupted.ginstructions = f64::INFINITY;
        ppk.observe(
            &ctx(0, 0.0, 0.0, target),
            HwConfig::FAIL_SAFE,
            &corrupted,
            Some(&k),
        );
        // The next decision must still be well-defined: finite overhead, a
        // real configuration, no NaN leaking out of the search.
        let d = ppk.select(&ctx(1, clean.ginstructions, clean.time_s, target));
        assert!(ConfigSpace::full().contains(d.config));
        assert!(d.overhead_s.is_finite());
        if let Some(p) = d.predicted {
            assert!(p.is_plausible());
        }
    }
}
