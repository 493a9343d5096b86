//! The unified execution environment: one replay engine with layered,
//! opt-in middleware.
//!
//! [`ExecEnv`] bundles the cross-cutting concerns that used to be
//! threaded through parallel function families (`run_once` /
//! `run_once_traced` / `run_once_faulted` and the `evaluate_scheme`
//! ladder): a decision-level [`TraceSink`] and a deterministic
//! [`FaultInjector`]. Both default to disabled no-ops that the replay
//! loop skips entirely, so the clean path pays nothing — an `ExecEnv`
//! built with [`ExecEnv::new`] is byte-identical to the historical
//! untraced, unfaulted functions (property-tested in
//! `tests/execenv_equivalence.rs`).
//!
//! ```
//! use gpm_harness::env::ExecEnv;
//! use gpm_governors::{PerfTarget, TurboCore};
//! use gpm_sim::ApuSimulator;
//! use gpm_workloads::workload_by_name;
//!
//! let sim = ApuSimulator::default();
//! let w = workload_by_name("Spmv").unwrap();
//! let mut tc = TurboCore::new(sim.params().tdp_w);
//! let env = ExecEnv::new();
//! let run = env.run(&sim, &w, &mut tc, PerfTarget::new(1.0, 1.0), 0, false);
//! assert_eq!(run.per_kernel.len(), w.len());
//! ```
//!
//! Layering a concern is one builder call — the engine and every caller
//! stay unchanged:
//!
//! ```
//! use gpm_faults::{FaultInjector, FaultPlan};
//! use gpm_harness::env::ExecEnv;
//! use gpm_trace::{AggregateSink, TraceSink};
//! use std::sync::Arc;
//!
//! let agg = Arc::new(AggregateSink::new());
//! let env = ExecEnv::new()
//!     .with_trace(agg.clone() as Arc<dyn TraceSink>)
//!     .with_fault_plan(FaultPlan::uniform(7, 0.05));
//! assert!(env.sink().enabled() && env.fault_plan().enabled());
//! ```

use crate::context::EvalContext;
use crate::run::{KernelRun, RunResult};
use gpm_faults::{FaultInjector, FaultKey, FaultPlan};
use gpm_governors::{Governor, KernelContext, PerfTarget};
use gpm_hw::HwConfig;
use gpm_sim::{EnergyBreakdown, KernelOutcome, Platform};
use gpm_telemetry::{SpanGuard, Telemetry};
use gpm_trace::{noop_sink, FailSafeReason, FaultChannelKind, TraceEvent, TraceSink};
use gpm_workloads::Workload;
use std::sync::Arc;

/// A builder-constructed execution environment: the single dispatch path
/// for replaying workloads under governors.
///
/// The environment owns the middleware stack — trace sink and fault
/// injector — and installs it on governors once ([`ExecEnv::install`])
/// instead of threading `&dyn` references through every call. See the
/// [module docs](self) for construction examples.
#[derive(Debug, Clone)]
pub struct ExecEnv {
    sink: Arc<dyn TraceSink>,
    /// The one fault representation: the dispatch path and governors
    /// see it as a [`FaultInjector`], and [`ExecEnv::evaluate`] wraps
    /// scheme predictors in [`FaultyPredictor`](gpm_faults::FaultyPredictor)
    /// with it. A zero plan is the identity.
    faults: Arc<FaultPlan>,
    /// Metrics/span registry entered for the duration of each replay,
    /// when installed via [`ExecEnv::with_telemetry`].
    telemetry: Option<Telemetry>,
}

impl Default for ExecEnv {
    fn default() -> ExecEnv {
        ExecEnv::new()
    }
}

impl ExecEnv {
    /// A clean environment: no tracing, no fault injection. Replays are
    /// byte-identical to the historical plain `run_once` path.
    pub fn new() -> ExecEnv {
        ExecEnv {
            sink: noop_sink(),
            faults: Arc::new(FaultPlan::zero(0)),
            telemetry: None,
        }
    }

    /// Installs a decision-level trace sink. Tracing is strictly
    /// read-only: any sink observes byte-identical decisions to the
    /// untraced environment.
    #[must_use]
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> ExecEnv {
        self.sink = sink;
        self
    }

    /// Installs a deterministic fault plan on the dispatch path, on
    /// governors ([`ExecEnv::install`]) and on scheme predictors
    /// ([`ExecEnv::evaluate`]). A zero plan is the identity.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> ExecEnv {
        self.faults = Arc::new(plan);
        self
    }

    /// Installs a telemetry registry as replay middleware. For the
    /// duration of every [`ExecEnv::run`] and [`ExecEnv::baseline`] the
    /// registry is the thread-current one, so phase spans emitted by
    /// deeper layers (`rf.fit`, `search.*`) land in
    /// it, and the replay loop times each dispatch as an `env.dispatch`
    /// span. Telemetry is strictly read-only observability: an
    /// environment with a registry produces byte-identical results to
    /// one without (pinned by `tests/execenv_equivalence.rs`).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ExecEnv {
        self.telemetry = Some(telemetry);
        self
    }

    /// The installed telemetry registry, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// The installed trace sink.
    pub fn sink(&self) -> &Arc<dyn TraceSink> {
        &self.sink
    }

    /// The installed fault plan (zero unless set via
    /// [`ExecEnv::with_fault_plan`]).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Installs the environment's middleware on a governor: the trace
    /// sink (internal search / fail-safe telemetry) and the fault
    /// injector (pattern-store read path). Governors without the
    /// corresponding internals ignore either.
    pub fn install(&self, governor: &mut dyn Governor) {
        governor.set_trace_sink(Arc::clone(&self.sink));
        governor.set_fault_injector(Arc::clone(&self.faults) as Arc<dyn FaultInjector>);
    }

    /// Replays `workload` once under `governor` with this environment's
    /// middleware on the dispatch path.
    ///
    /// `run_index` distinguishes the profiling invocation (0) from later
    /// ones; `provide_truth` hands the governor ground-truth kernel
    /// characteristics (oracle-predictor studies only). Optimizer
    /// overhead is charged at the paper's MPC host configuration
    /// (`[P5, NB0, DPM0, 2 CUs]`) with the GPU idle, per Section V's
    /// worst-case assumption. The governor's `end_run` is invoked before
    /// returning.
    ///
    /// `sim` is any [`Platform`] — the live analytical simulator or a
    /// recorded [`ReplayPlatform`](gpm_sim::ReplayPlatform) measurement
    /// table (`&ApuSimulator` coerces automatically).
    ///
    /// Governor-*internal* events (search statistics, fail-safe
    /// triggers) are only captured if the sink is also installed on the
    /// governor — call [`ExecEnv::install`] first, or use
    /// [`ExecEnv::evaluate`] which does so automatically.
    pub fn run(
        &self,
        sim: &dyn Platform,
        workload: &Workload,
        governor: &mut dyn Governor,
        target: PerfTarget,
        run_index: usize,
        provide_truth: bool,
    ) -> RunResult {
        replay(
            sim,
            workload,
            governor,
            target,
            run_index,
            provide_truth,
            Middleware {
                sink: self.sink.as_ref(),
                faults: &*self.faults,
                telemetry: self.telemetry.as_ref(),
            },
        )
    }

    /// Resolves the Turbo Core baseline (run + Eq. 1 performance target)
    /// for `workload` through the context's shared cache: the first
    /// resolution per workload simulates Turbo Core, every later one is
    /// a lock-protected map lookup. Emits a
    /// [`TraceEvent::BaselineResolved`] marking whether the cache hit.
    ///
    /// The baseline always runs clean — untraced and unfaulted — because
    /// it defines the target that (possibly degraded) schemes are judged
    /// against.
    pub fn baseline(&self, ctx: &EvalContext, workload: &Workload) -> (RunResult, PerfTarget) {
        let _enter = self.telemetry.as_ref().map(|t| t.enter());
        let _span = gpm_telemetry::span("baseline.resolve");
        let ((result, target), cached) = ctx.resolve_baseline(workload);
        if let Some(t) = Telemetry::current() {
            let label = if cached { "hit" } else { "miss" };
            t.counter_with("gpm_baseline_resolutions_total", &[("cache", label)])
                .inc();
        }
        if self.sink.enabled() {
            self.sink.record(&TraceEvent::BaselineResolved {
                run_index: 0,
                workload: workload.name().to_string(),
                cached,
            });
        }
        (result, target)
    }
}

/// Borrowed middleware views for one replay.
struct Middleware<'a> {
    sink: &'a dyn TraceSink,
    faults: &'a dyn FaultInjector,
    telemetry: Option<&'a Telemetry>,
}

/// The core replay loop. Every replay — [`ExecEnv::run`] and everything
/// built on it — funnels through here.
fn replay(
    sim: &dyn Platform,
    workload: &Workload,
    governor: &mut dyn Governor,
    target: PerfTarget,
    run_index: usize,
    provide_truth: bool,
    mw: Middleware<'_>,
) -> RunResult {
    let Middleware {
        sink,
        faults,
        telemetry,
    } = mw;
    // Make the environment's registry current for the whole replay so
    // library spans (search, fit) nest under
    // `env.dispatch`. Without one, spans route to whatever registry the
    // caller entered (e.g. the xp runner's), or nowhere.
    let _enter = telemetry.map(|t| t.enter());
    let tracing = sink.enabled();
    let injecting = faults.enabled();
    if tracing {
        sink.record(&TraceEvent::RunStart {
            workload: workload.name().to_string(),
            governor: governor.name().to_string(),
            run_index,
            total_kernels: workload.len(),
        });
    }
    let mut result = RunResult {
        governor: governor.name().to_string(),
        workload: workload.name().to_string(),
        kernel_time_s: 0.0,
        overhead_time_s: 0.0,
        transition_time_s: 0.0,
        energy: EnergyBreakdown::default(),
        overhead_energy: EnergyBreakdown::default(),
        ginstructions: 0.0,
        per_kernel: Vec::with_capacity(workload.len()),
    };

    let mut prev_config: Option<HwConfig> = None;
    // One guard spans every dispatch: each iteration's `reopen` closes
    // the previous dispatch's span and opens this one on one clock read.
    let mut dispatch_span = SpanGuard::inert();
    for (position, kernel) in workload.kernels().iter().enumerate() {
        dispatch_span.reopen("env.dispatch");
        let ctx = KernelContext {
            position,
            run_index,
            elapsed_kernel_s: result.kernel_time_s,
            elapsed_gi: result.ginstructions,
            target,
            total_kernels: Some(workload.len()),
        };
        if tracing {
            sink.record(&TraceEvent::Dispatch {
                run_index,
                position,
                kernel: kernel.name().to_string(),
            });
        }
        let decision = governor.select(&ctx);
        if tracing {
            sink.record(&TraceEvent::Decision {
                run_index,
                position,
                config: decision.config,
                horizon: decision.horizon,
                evaluations: decision.evaluations,
                overhead_s: decision.overhead_s,
                predicted_time_s: decision.predicted.map(|p| p.time_s),
                predicted_power_w: decision.predicted.map(|p| p.chip_power_w),
                predicted_energy_j: decision.predicted.map(|p| p.energy_j),
            });
        }
        if decision.overhead_s > 0.0 {
            // Optimizer time overlapping a host CPU phase is hidden: the
            // CPU was busy with application work anyway, so neither extra
            // wall time nor extra energy is charged for that portion
            // (Section VI-E). With no modelled CPU phases (the default)
            // this is the paper's worst case: everything is charged.
            let visible = (decision.overhead_s - workload.cpu_phase_s(position)).max(0.0);
            result.overhead_time_s += visible;
            if visible > 0.0 {
                let oh = sim.optimizer_energy(HwConfig::MPC_HOST, visible);
                result.overhead_energy.accumulate(&oh);
            }
        }

        // Route the knob-transition request through the fault injector:
        // failed attempts cost retry latency, and a transition that fails
        // its full retry budget leaves the chip at the fail-safe state.
        let fault_key = FaultKey {
            run_index,
            position,
        };
        let mut executed = decision.config;
        if injecting {
            if let Some(prev) = prev_config {
                if let Some(t) = faults.transition(fault_key, prev, decision.config) {
                    executed = t.config;
                    if t.penalty_s > 0.0 {
                        result.transition_time_s += t.penalty_s;
                        let te = sim.optimizer_energy(prev, t.penalty_s);
                        result.overhead_energy.accumulate(&te);
                    }
                    if tracing {
                        sink.record(&TraceEvent::FaultInjected {
                            run_index,
                            position,
                            channel: FaultChannelKind::TransitionFail,
                            magnitude: t.failed_attempts as f64,
                        });
                        if t.fell_back {
                            sink.record(&TraceEvent::FailSafe {
                                run_index,
                                position,
                                reason: FailSafeReason::TransitionFailed,
                            });
                        } else {
                            sink.record(&TraceEvent::Recovered {
                                run_index,
                                position,
                                channel: FaultChannelKind::TransitionFail,
                                retries: t.failed_attempts,
                            });
                        }
                    }
                }
            }
        }

        // DVFS transition stall between the previous kernel's state and
        // this decision (free unless the simulator's transition model is
        // enabled).
        if let Some(prev) = prev_config {
            let stall = gpm_sim::transition::transition_cost_s(sim.params(), prev, executed);
            if stall > 0.0 {
                result.transition_time_s += stall;
                let te = sim.optimizer_energy(executed, stall);
                result.overhead_energy.accumulate(&te);
            }
        }
        prev_config = Some(executed);

        let mut outcome = sim.evaluate(kernel, executed);
        if injecting {
            if let Some(f) = faults.throttle(fault_key, &mut outcome) {
                if tracing {
                    sink.record(&TraceEvent::FaultInjected {
                        run_index,
                        position,
                        channel: f.channel,
                        magnitude: f.magnitude,
                    });
                }
            }
        }
        result.kernel_time_s += outcome.time_s;
        result.ginstructions += outcome.ginstructions;
        result.energy.accumulate(&outcome.energy);
        result.per_kernel.push(KernelRun {
            position,
            name: kernel.name().to_string(),
            config: executed,
            time_s: outcome.time_s,
            energy_j: outcome.energy.total_j(),
            gi: outcome.ginstructions,
            overhead_s: decision.overhead_s,
            horizon: decision.horizon,
        });

        if tracing {
            let observed_power_w = if outcome.time_s > 0.0 {
                Some(outcome.energy.total_j() / outcome.time_s)
            } else {
                None
            };
            // Signed errors follow the convention predicted − observed:
            // positive means the predictor overestimated.
            sink.record(&TraceEvent::Outcome {
                run_index,
                position,
                config: executed,
                time_s: outcome.time_s,
                energy_j: outcome.energy.total_j(),
                gi: outcome.ginstructions,
                time_error_s: decision.predicted.map(|p| p.time_s - outcome.time_s),
                power_error_w: decision
                    .predicted
                    .and_then(|p| observed_power_w.map(|ow| p.chip_power_w - ow)),
                energy_error_j: decision
                    .predicted
                    .map(|p| p.energy_j - outcome.energy.total_j()),
            });
            // Eq. 5 slack after this kernel retired: how much longer the
            // run could afford to take while still meeting the target.
            sink.record(&TraceEvent::Headroom {
                run_index,
                position,
                slack_s: target.time_cap(result.ginstructions, result.kernel_time_s, 0.0),
            });
        }

        // Optionally corrupt the *observation* the governor learns from —
        // the physical accounting above stays truthful.
        let observed: Option<KernelOutcome> = if injecting {
            let mut obs = outcome.clone();
            faults.corrupt_observation(fault_key, &mut obs).map(|f| {
                if tracing {
                    sink.record(&TraceEvent::FaultInjected {
                        run_index,
                        position,
                        channel: f.channel,
                        magnitude: f.magnitude,
                    });
                }
                obs
            })
        } else {
            None
        };
        let truth = provide_truth.then_some(kernel);
        governor.observe(&ctx, executed, observed.as_ref().unwrap_or(&outcome), truth);
    }
    drop(dispatch_span);
    governor.end_run();
    if tracing {
        sink.record(&TraceEvent::RunEnd {
            run_index,
            kernel_time_s: result.kernel_time_s,
            overhead_time_s: result.overhead_time_s,
            transition_time_s: result.transition_time_s,
            energy_j: result.total_energy_j(),
            gi: result.ginstructions,
        });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_governors::{FixedGovernor, TurboCore};
    use gpm_sim::ApuSimulator;
    use gpm_trace::RingSink;
    use gpm_workloads::workload_by_name;

    #[test]
    fn clean_env_is_disabled_on_both_channels() {
        let env = ExecEnv::new();
        assert!(!env.sink().enabled());
        assert!(!env.fault_plan().enabled());
    }

    #[test]
    fn fault_plan_enables_injector_and_keeps_plan() {
        let plan = FaultPlan::uniform(3, 0.5);
        let env = ExecEnv::new().with_fault_plan(plan.clone());
        assert!(env.fault_plan().enabled());
        assert_eq!(env.fault_plan(), &plan);
    }

    #[test]
    fn traced_env_emits_lifecycle_events() {
        let sim = ApuSimulator::noiseless();
        let w = workload_by_name("Spmv").unwrap();
        let ring = Arc::new(RingSink::new(4096));
        let env = ExecEnv::new().with_trace(ring.clone());
        let mut gov = FixedGovernor::new(HwConfig::FAIL_SAFE);
        let res = env.run(&sim, &w, &mut gov, PerfTarget::new(1.0, 1.0), 0, false);
        let events = ring.snapshot();
        assert_eq!(res.per_kernel.len(), w.len());
        assert!(events.iter().any(|e| e.kind() == "RunStart"));
        assert_eq!(
            events.iter().filter(|e| e.kind() == "Decision").count(),
            w.len()
        );
        assert!(events.iter().any(|e| e.kind() == "RunEnd"));
    }

    #[test]
    fn telemetry_env_records_one_dispatch_span_per_kernel() {
        let sim = ApuSimulator::noiseless();
        let w = workload_by_name("Spmv").unwrap();
        let tel = Telemetry::new();
        let env = ExecEnv::new().with_telemetry(tel.clone());
        assert!(env.telemetry().unwrap().same_registry(&tel));
        let mut gov = FixedGovernor::new(HwConfig::FAIL_SAFE);
        let res = env.run(&sim, &w, &mut gov, PerfTarget::new(1.0, 1.0), 0, false);
        let snap = tel.snapshot();
        let dispatch = snap.span("env.dispatch").unwrap();
        assert_eq!(dispatch.count, res.per_kernel.len() as u64);
        // The replay un-enters its registry on return.
        assert!(Telemetry::current().is_none());
    }

    #[test]
    fn install_is_safe_on_internals_free_governors() {
        let sim = ApuSimulator::noiseless();
        let w = workload_by_name("kmeans").unwrap();
        let env = ExecEnv::new().with_fault_plan(FaultPlan::uniform(11, 0.2));
        let mut tc = TurboCore::new(sim.params().tdp_w);
        env.install(&mut tc);
        let res = env.run(&sim, &w, &mut tc, PerfTarget::new(1.0, 1.0), 0, false);
        assert_eq!(res.per_kernel.len(), w.len());
    }
}
