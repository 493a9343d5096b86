//! Pass-through wrappers of the public layer traits (`Governor`,
//! `PowerPerfPredictor`, `Platform`) that time every call into a layer
//! from outside it. Each wrapper forwards to the wrapped value unchanged,
//! so decisions are identical with and without it; the suite replay
//! checks that against `ExecEnv::evaluate` on every run.
//!
//! Timings accumulate in a thread-local [`Tally`]: the replay that uses
//! the wrappers is single-threaded, and the predictor, governor and
//! platform wrappers of one replay must share one ledger to split a
//! `select` call into predictor time and governor self time.

use gpm_faults::FaultInjector;
use gpm_governors::{Governor, GovernorDecision, KernelContext};
use gpm_hw::HwConfig;
use gpm_sim::predictor::KernelSnapshot;
use gpm_sim::{
    EnergyBreakdown, KernelCharacteristics, KernelOutcome, Platform, PowerPerfEstimate,
    PowerPerfPredictor, SimParams,
};
use gpm_trace::TraceSink;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer counters and host times (nanoseconds) of one replay phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Every `Governor::select` call.
    pub select_calls: u64,
    pub select_ns: u64,
    /// Predictor time spent inside `select` calls.
    pub select_predict_ns: u64,
    /// `select` calls of the RF-driven schemes, their host times, and the
    /// candidates their decisions report having priced.
    pub rf_select_ns: Vec<u64>,
    pub rf_evaluations: u64,
    pub observe_ns: u64,
    /// `predict_batch` calls, and candidates priced by them and by
    /// single `predict` calls.
    pub batch_calls: u64,
    pub candidates: u64,
    pub predict_ns: u64,
    /// `Platform::evaluate` calls and time; `optimizer_energy` time.
    pub sim_evaluate_calls: u64,
    pub sim_evaluate_ns: u64,
    pub sim_energy_ns: u64,
    /// Governor construction as `ExecEnv::evaluate` does it, and the
    /// `ExecEnv::run` and `ExecEnv::baseline` calls of the replay.
    pub construct_ns: u64,
    pub run_ns: u64,
    pub baseline_calls: u64,
    pub baseline_ns: u64,
}

thread_local! {
    static TALLY: RefCell<Tally> = RefCell::new(Tally::default());
}

/// Applies `f` to this thread's tally.
pub fn with_tally<R>(f: impl FnOnce(&mut Tally) -> R) -> R {
    TALLY.with(|t| f(&mut t.borrow_mut()))
}

/// Returns this thread's tally and starts a fresh one.
pub fn take_tally() -> Tally {
    TALLY.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Times `f` and adds its host time to the field `slot` selects.
pub fn timed<R>(slot: fn(&mut Tally) -> &mut u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let ns = elapsed_ns(start);
    with_tally(|t| *slot(t) += ns);
    out
}

/// Times every `select` and `observe` of the wrapped governor.
pub struct TimedGovernor<G> {
    pub inner: G,
    /// Whether this governor is RF-driven: its `select` times feed the
    /// decision-latency percentiles.
    rf: bool,
}

impl<G> TimedGovernor<G> {
    pub fn new(inner: G, rf: bool) -> TimedGovernor<G> {
        TimedGovernor { inner, rf }
    }
}

impl<G: Governor> Governor for TimedGovernor<G> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(&mut self, ctx: &KernelContext) -> GovernorDecision {
        let predict_before = with_tally(|t| t.predict_ns);
        let start = Instant::now();
        let decision = self.inner.select(ctx);
        let ns = elapsed_ns(start);
        with_tally(|t| {
            t.select_calls += 1;
            t.select_ns += ns;
            t.select_predict_ns += t.predict_ns - predict_before;
            if self.rf {
                t.rf_select_ns.push(ns);
                t.rf_evaluations += decision.evaluations;
            }
        });
        decision
    }

    fn observe(
        &mut self,
        ctx: &KernelContext,
        executed_at: HwConfig,
        outcome: &KernelOutcome,
        truth: Option<&KernelCharacteristics>,
    ) {
        timed(
            |t| &mut t.observe_ns,
            || self.inner.observe(ctx, executed_at, outcome, truth),
        );
    }

    fn end_run(&mut self) {
        self.inner.end_run();
    }

    fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.inner.set_trace_sink(sink);
    }

    fn set_fault_injector(&mut self, faults: Arc<dyn FaultInjector>) {
        self.inner.set_fault_injector(faults);
    }
}

/// Times every prediction of the wrapped predictor. `predict_batch` is
/// forwarded explicitly: the trait default would loop `predict` and
/// bypass whatever batch path the wrapped predictor has.
#[derive(Debug, Clone)]
pub struct TimedPredictor<P>(pub P);

impl<P: PowerPerfPredictor> PowerPerfPredictor for TimedPredictor<P> {
    fn predict(&self, snapshot: &KernelSnapshot, cfg: HwConfig) -> PowerPerfEstimate {
        let start = Instant::now();
        let est = self.0.predict(snapshot, cfg);
        let ns = elapsed_ns(start);
        with_tally(|t| {
            t.candidates += 1;
            t.predict_ns += ns;
        });
        est
    }

    fn predict_batch(
        &self,
        snapshot: &KernelSnapshot,
        cfgs: &[HwConfig],
        out: &mut Vec<PowerPerfEstimate>,
    ) {
        let start = Instant::now();
        self.0.predict_batch(snapshot, cfgs, out);
        let ns = elapsed_ns(start);
        with_tally(|t| {
            t.batch_calls += 1;
            t.candidates += cfgs.len() as u64;
            t.predict_ns += ns;
        });
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Times every measurement the replay takes from the wrapped platform.
pub struct TimedPlatform<'a>(pub &'a dyn Platform);

impl Platform for TimedPlatform<'_> {
    fn evaluate(&self, kernel: &KernelCharacteristics, cfg: HwConfig) -> KernelOutcome {
        let start = Instant::now();
        let out = self.0.evaluate(kernel, cfg);
        let ns = elapsed_ns(start);
        with_tally(|t| {
            t.sim_evaluate_calls += 1;
            t.sim_evaluate_ns += ns;
        });
        out
    }

    fn optimizer_energy(&self, cfg: HwConfig, duration_s: f64) -> EnergyBreakdown {
        timed(
            |t| &mut t.sim_energy_ns,
            || self.0.optimizer_energy(cfg, duration_s),
        )
    }

    fn params(&self) -> &SimParams {
        self.0.params()
    }
}
