//! The typed trace-event vocabulary.
//!
//! One [`TraceEvent`] is emitted per governor action. The harness replay
//! loop produces the universal lifecycle events (`RunStart`, `Dispatch`,
//! `Decision`, `Outcome`, `Headroom`, `RunEnd`) for *every* governor, so
//! baselines and MPC are directly comparable; governors with internals
//! additionally emit `Search`, `FailSafe`, and `PatternMiss` through the
//! sink installed via `Governor::set_trace_sink`.

use gpm_hw::{HwConfig, Knob};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Per-knob candidate-visit counters of a configuration search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnobVisits {
    /// Candidates reached by stepping the CPU P-state knob.
    pub cpu_pstate: u64,
    /// Candidates reached by stepping the northbridge-state knob.
    pub nb_state: u64,
    /// Candidates reached by stepping the GPU DPM knob.
    pub gpu_dpm: u64,
    /// Candidates reached by stepping the compute-unit-count knob.
    pub cu_count: u64,
}

impl KnobVisits {
    /// Counts one candidate visited by stepping `knob`.
    pub fn bump(&mut self, knob: Knob) {
        match knob {
            Knob::CpuPState => self.cpu_pstate += 1,
            Knob::NbState => self.nb_state += 1,
            Knob::GpuDpm => self.gpu_dpm += 1,
            Knob::CuCount => self.cu_count += 1,
        }
    }

    /// Adds another search's counters into this one.
    pub fn merge(&mut self, other: &KnobVisits) {
        self.cpu_pstate += other.cpu_pstate;
        self.nb_state += other.nb_state;
        self.gpu_dpm += other.gpu_dpm;
        self.cu_count += other.cu_count;
    }

    /// Total candidates visited across all knobs.
    pub fn total(&self) -> u64 {
        self.cpu_pstate + self.nb_state + self.gpu_dpm + self.cu_count
    }
}

/// Why a governor fell back to the fail-safe configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailSafeReason {
    /// The Eq. 5 time cap was unsatisfiable for the single kernel being
    /// priced (even the fail-safe configuration misses it).
    InfeasibleCap,
    /// The window optimizer could not keep the whole window on target and
    /// fell back for the current kernel.
    InfeasibleWindow,
    /// The search rejected predictor estimates as anomalous (non-finite or
    /// outside the physically plausible envelope) and no trustworthy
    /// candidate satisfied the cap.
    PredictionAnomaly,
    /// The pattern-store record for the current position was stale or
    /// corrupted and had to be discarded.
    StalePattern,
    /// A hardware knob transition failed even after bounded retries; the
    /// kernel ran at the fail-safe configuration instead.
    TransitionFailed,
}

/// The injectable fault channels of the `gpm-faults` layer, as they
/// appear in trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultChannelKind {
    /// Measurement corruption on the observation handed to the governor
    /// (performance counters, measured time, instruction count).
    CounterNoise,
    /// A predictor estimate replaced by an outlier spike.
    PredictorSpike,
    /// A stale or corrupted pattern-store record.
    StalePattern,
    /// A transiently failing hardware knob transition.
    TransitionFail,
    /// A transient TDP-throttle event stretching the kernel.
    TdpThrottle,
}

/// One governor action, as recorded by a [`TraceSink`](crate::TraceSink).
///
/// Field conventions: `run_index` is the 0-based application invocation
/// (0 = profiling), `position` the 0-based kernel position within the run
/// (the pattern-window position), times are seconds, energies joules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// An application invocation is starting under a governor.
    RunStart {
        /// Workload name.
        workload: String,
        /// Governor name.
        governor: String,
        /// 0-based invocation index.
        run_index: usize,
        /// Kernels in the application.
        total_kernels: usize,
    },
    /// A Turbo Core baseline (run + Eq. 1 performance target) was
    /// resolved for a workload — either freshly simulated or served from
    /// the evaluation context's shared cache.
    BaselineResolved {
        /// Invocation index the baseline replays as (always 0).
        run_index: usize,
        /// Workload the baseline belongs to.
        workload: String,
        /// `true` when the cached baseline was reused, `false` when the
        /// Turbo Core run was actually simulated.
        cached: bool,
    },
    /// A kernel is about to be dispatched (before the governor decides).
    Dispatch {
        /// Invocation index.
        run_index: usize,
        /// Pattern-window position of the kernel.
        position: usize,
        /// Kernel name, shared with the workload's kernel: recording a
        /// dispatch copies no string.
        kernel: Arc<str>,
    },
    /// MPC search telemetry for one decision.
    Search {
        /// Invocation index.
        run_index: usize,
        /// Position decided for.
        position: usize,
        /// Prediction horizon of the window, when horizon-based.
        horizon: Option<usize>,
        /// Predictor evaluations performed.
        evaluations: u64,
        /// Candidate configurations visited per knob.
        visits: KnobVisits,
        /// Candidates evaluated and rejected (energy increase or cap
        /// violation) — the pruned branches of the greedy climb.
        pruned: u64,
        /// Wall-clock optimizer overhead charged, seconds.
        overhead_s: f64,
    },
    /// The configuration chosen for the upcoming kernel.
    Decision {
        /// Invocation index.
        run_index: usize,
        /// Position decided for.
        position: usize,
        /// Chosen hardware configuration.
        config: HwConfig,
        /// Horizon used, for horizon-based governors.
        horizon: Option<usize>,
        /// Predictor evaluations behind the decision.
        evaluations: u64,
        /// Optimizer overhead charged before the kernel, seconds.
        overhead_s: f64,
        /// Predicted kernel time at `config`, when the governor's search
        /// produced an estimate.
        predicted_time_s: Option<f64>,
        /// Predicted chip power at `config`, watts.
        predicted_power_w: Option<f64>,
        /// Predicted chip energy at `config`, joules.
        predicted_energy_j: Option<f64>,
    },
    /// A governor fell back to the fail-safe configuration.
    FailSafe {
        /// Invocation index.
        run_index: usize,
        /// Position the fallback applies to.
        position: usize,
        /// What made the fallback necessary.
        reason: FailSafeReason,
    },
    /// A post-profiling kernel's identity differed from the reference
    /// pattern's expectation (Section IV-A2).
    PatternMiss {
        /// Invocation index.
        run_index: usize,
        /// Mispredicted position.
        position: usize,
        /// Kernel id the reference pattern expected.
        expected: usize,
        /// Kernel id actually observed.
        observed: usize,
    },
    /// The retired kernel's measured outcome, with signed prediction
    /// errors (`predicted − observed`; positive means the predictor
    /// overestimated) when the decision carried a prediction.
    Outcome {
        /// Invocation index.
        run_index: usize,
        /// Retired position.
        position: usize,
        /// Configuration the kernel executed at.
        config: HwConfig,
        /// Measured execution time, seconds.
        time_s: f64,
        /// Measured kernel energy, joules.
        energy_j: f64,
        /// Instructions retired, giga-instructions.
        gi: f64,
        /// Signed time prediction error, seconds.
        time_error_s: Option<f64>,
        /// Signed power prediction error, watts.
        power_error_w: Option<f64>,
        /// Signed energy prediction error, joules.
        energy_error_j: Option<f64>,
    },
    /// Performance-tracker slack after a kernel retired: how much earlier
    /// than the Eq. 2 schedule the run currently sits (negative = behind
    /// target).
    Headroom {
        /// Invocation index.
        run_index: usize,
        /// Position just retired.
        position: usize,
        /// Accumulated schedule slack, seconds.
        slack_s: f64,
    },
    /// A deterministic fault plan injected a fault at this site.
    FaultInjected {
        /// Invocation index.
        run_index: usize,
        /// Kernel position the fault applies to.
        position: usize,
        /// Which fault channel fired.
        channel: FaultChannelKind,
        /// Channel-specific severity: relative perturbation amplitude,
        /// throttle factor, or seconds of latency penalty.
        magnitude: f64,
    },
    /// A governor or the dispatch path absorbed a fault and recovered
    /// without abandoning the run (sanitized input, successful retry).
    Recovered {
        /// Invocation index.
        run_index: usize,
        /// Kernel position the recovery applies to.
        position: usize,
        /// Which fault channel was recovered from.
        channel: FaultChannelKind,
        /// Retries spent before recovery (0 when recovery was
        /// sanitization or rejection rather than a retry).
        retries: u32,
    },
    /// An application invocation finished.
    RunEnd {
        /// Invocation index.
        run_index: usize,
        /// Sum of kernel execution times, seconds.
        kernel_time_s: f64,
        /// Sum of visible optimizer overheads, seconds.
        overhead_time_s: f64,
        /// Sum of DVFS transition stalls, seconds.
        transition_time_s: f64,
        /// Kernel-phase chip energy, joules.
        energy_j: f64,
        /// Instructions retired, giga-instructions.
        gi: f64,
    },
}

impl TraceEvent {
    /// The invocation index the event belongs to.
    pub fn run_index(&self) -> usize {
        match *self {
            TraceEvent::RunStart { run_index, .. }
            | TraceEvent::BaselineResolved { run_index, .. }
            | TraceEvent::Dispatch { run_index, .. }
            | TraceEvent::Search { run_index, .. }
            | TraceEvent::Decision { run_index, .. }
            | TraceEvent::FailSafe { run_index, .. }
            | TraceEvent::PatternMiss { run_index, .. }
            | TraceEvent::Outcome { run_index, .. }
            | TraceEvent::Headroom { run_index, .. }
            | TraceEvent::FaultInjected { run_index, .. }
            | TraceEvent::Recovered { run_index, .. }
            | TraceEvent::RunEnd { run_index, .. } => run_index,
        }
    }

    /// The variant name, as it appears as the JSON tag.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "RunStart",
            TraceEvent::BaselineResolved { .. } => "BaselineResolved",
            TraceEvent::Dispatch { .. } => "Dispatch",
            TraceEvent::Search { .. } => "Search",
            TraceEvent::Decision { .. } => "Decision",
            TraceEvent::FailSafe { .. } => "FailSafe",
            TraceEvent::PatternMiss { .. } => "PatternMiss",
            TraceEvent::Outcome { .. } => "Outcome",
            TraceEvent::Headroom { .. } => "Headroom",
            TraceEvent::FaultInjected { .. } => "FaultInjected",
            TraceEvent::Recovered { .. } => "Recovered",
            TraceEvent::RunEnd { .. } => "RunEnd",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_visits_bump_and_merge() {
        let mut v = KnobVisits::default();
        for knob in Knob::ALL {
            v.bump(knob);
        }
        v.bump(Knob::GpuDpm);
        assert_eq!(v.gpu_dpm, 2);
        assert_eq!(v.total(), 5);
        let mut w = v;
        w.merge(&v);
        assert_eq!(w.total(), 10);
        assert_eq!(w.cpu_pstate, 2);
    }

    #[test]
    fn run_index_and_kind_cover_all_variants() {
        let events = vec![
            TraceEvent::RunStart {
                workload: "w".into(),
                governor: "g".into(),
                run_index: 3,
                total_kernels: 7,
            },
            TraceEvent::BaselineResolved {
                run_index: 3,
                workload: "w".into(),
                cached: true,
            },
            TraceEvent::Dispatch {
                run_index: 3,
                position: 0,
                kernel: "k".into(),
            },
            TraceEvent::Search {
                run_index: 3,
                position: 0,
                horizon: Some(2),
                evaluations: 10,
                visits: KnobVisits::default(),
                pruned: 1,
                overhead_s: 1e-5,
            },
            TraceEvent::FailSafe {
                run_index: 3,
                position: 0,
                reason: FailSafeReason::InfeasibleCap,
            },
            TraceEvent::PatternMiss {
                run_index: 3,
                position: 1,
                expected: 0,
                observed: 2,
            },
            TraceEvent::Headroom {
                run_index: 3,
                position: 1,
                slack_s: -0.1,
            },
            TraceEvent::FaultInjected {
                run_index: 3,
                position: 2,
                channel: FaultChannelKind::TdpThrottle,
                magnitude: 1.4,
            },
            TraceEvent::Recovered {
                run_index: 3,
                position: 2,
                channel: FaultChannelKind::TransitionFail,
                retries: 1,
            },
        ];
        for e in &events {
            assert_eq!(e.run_index(), 3);
            assert!(!e.kind().is_empty());
        }
    }
}
