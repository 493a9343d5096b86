//! The power/performance prediction interface consumed by optimizers.
//!
//! The paper's optimizer asks one question: *"if kernel `k` (known through
//! its stored performance counters) runs at configuration `s`, what will
//! its execution time and GPU power be?"* (Section IV-A3). Different
//! answers plug in behind [`PowerPerfPredictor`]:
//!
//! * [`OraclePredictor`] — perfect prediction straight from the noiseless
//!   simulator; used by the limit studies (Figures 4 and 12).
//! * `RandomForestPredictor` (in `gpm-model`) — the paper's offline-trained
//!   Random Forest.
//! * `ErrorInjectedPredictor` (in `gpm-model`) — oracle plus half-normal
//!   error, reproducing Figure 13's Err_15%_10% / Err_5% / Err_0% models.
//!
//! CPU power is *not* part of the prediction: the paper models it with a
//! normalized `V²f` formula because the CPU busy-waits; governors obtain it
//! from [`ApuSimulator::cpu_busywait_power`].

use crate::apu::ApuSimulator;
use crate::counters::CounterSet;
use crate::kernel::KernelCharacteristics;
use gpm_hw::HwConfig;
use serde::{Deserialize, Serialize};

/// What a predictor knows about a kernel when asked to extrapolate it to a
/// new configuration: its stored counters (captured at the configuration it
/// last executed at) and, for oracle predictors only, the ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelSnapshot {
    /// Table III counters captured at `measured_at`.
    pub counters: CounterSet,
    /// Configuration the counters were captured at.
    pub measured_at: HwConfig,
    /// Instruction count for the throughput metric, giga-instructions.
    pub ginstructions: f64,
    /// Ground-truth characteristics; `None` for purely counter-driven
    /// predictors. Oracle predictors require it.
    pub truth: Option<KernelCharacteristics>,
}

impl KernelSnapshot {
    /// Snapshot with ground truth attached (for oracle predictors).
    pub fn with_truth(
        counters: CounterSet,
        measured_at: HwConfig,
        truth: KernelCharacteristics,
    ) -> KernelSnapshot {
        KernelSnapshot {
            counters,
            measured_at,
            ginstructions: truth.ginstructions(),
            truth: Some(truth),
        }
    }

    /// Whether the snapshot can safely drive a predictor: every counter
    /// finite and non-negative, instruction count finite and non-negative.
    /// Corrupted (e.g. fault-injected) records fail this check and must be
    /// discarded rather than extrapolated from.
    pub fn is_well_formed(&self) -> bool {
        self.counters.is_well_formed()
            && self.ginstructions.is_finite()
            && self.ginstructions >= 0.0
    }

    /// Counter-only snapshot (for model-driven predictors).
    pub fn counters_only(
        counters: CounterSet,
        measured_at: HwConfig,
        ginstructions: f64,
    ) -> KernelSnapshot {
        KernelSnapshot {
            counters,
            measured_at,
            ginstructions,
            truth: None,
        }
    }
}

/// A predicted (time, GPU power) pair for one kernel at one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerPerfEstimate {
    /// Predicted kernel execution time, seconds.
    pub time_s: f64,
    /// Predicted GPU-domain power (GPU + NB, as measured on the shared
    /// rail), watts.
    pub gpu_power_w: f64,
}

impl PowerPerfEstimate {
    /// GPU-domain energy implied by the estimate, joules.
    pub fn gpu_energy_j(&self) -> f64 {
        self.time_s * self.gpu_power_w
    }
}

/// Predicts kernel time and GPU power at an arbitrary configuration.
///
/// Implementations must be deterministic: optimizers evaluate the same
/// (snapshot, config) pair repeatedly while hill climbing and rely on
/// consistent answers.
pub trait PowerPerfPredictor {
    /// Predicts behaviour of the kernel described by `snapshot` at `cfg`.
    fn predict(&self, snapshot: &KernelSnapshot, cfg: HwConfig) -> PowerPerfEstimate;

    /// Predicts one snapshot at every candidate in `cfgs`, writing the
    /// estimates into `out` (cleared and refilled, index-aligned with
    /// `cfgs`; the allocation is reused across calls).
    ///
    /// The default implementation loops [`predict`](Self::predict), and
    /// every model in this workspace, the Random Forest included, uses
    /// it; wrapping predictors override it only to pass the batch on to
    /// the predictor they wrap. An override **must** return values
    /// bit-identical to the loop — optimizers treat the two paths as
    /// interchangeable.
    fn predict_batch(
        &self,
        snapshot: &KernelSnapshot,
        cfgs: &[HwConfig],
        out: &mut Vec<PowerPerfEstimate>,
    ) {
        out.clear();
        out.extend(cfgs.iter().map(|&cfg| self.predict(snapshot, cfg)));
    }

    /// Human-readable predictor name for reports.
    fn name(&self) -> &str {
        "predictor"
    }
}

impl<P: PowerPerfPredictor + ?Sized> PowerPerfPredictor for &P {
    fn predict(&self, snapshot: &KernelSnapshot, cfg: HwConfig) -> PowerPerfEstimate {
        (**self).predict(snapshot, cfg)
    }

    fn predict_batch(
        &self,
        snapshot: &KernelSnapshot,
        cfgs: &[HwConfig],
        out: &mut Vec<PowerPerfEstimate>,
    ) {
        (**self).predict_batch(snapshot, cfgs, out);
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<P: PowerPerfPredictor + ?Sized> PowerPerfPredictor for Box<P> {
    fn predict(&self, snapshot: &KernelSnapshot, cfg: HwConfig) -> PowerPerfEstimate {
        (**self).predict(snapshot, cfg)
    }

    fn predict_batch(
        &self,
        snapshot: &KernelSnapshot,
        cfgs: &[HwConfig],
        out: &mut Vec<PowerPerfEstimate>,
    ) {
        (**self).predict_batch(snapshot, cfgs, out);
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Perfect prediction from the noiseless analytical model.
///
/// Requires snapshots carrying ground truth; used by the paper's limit
/// studies where PPK/TO "have perfect knowledge of the effect of every
/// hardware configuration" (Section II-E).
///
/// # Panics
///
/// [`predict`](PowerPerfPredictor::predict) panics if the snapshot has no
/// ground truth attached — an oracle without truth is a programming error,
/// not a recoverable condition.
#[derive(Debug, Clone, Default)]
pub struct OraclePredictor {
    sim: ApuSimulator,
}

impl OraclePredictor {
    /// Oracle backed by a noiseless copy of the given simulator's
    /// parameters.
    pub fn new(sim: &ApuSimulator) -> OraclePredictor {
        let mut params = sim.params().clone();
        params.noise_rel_std = 0.0;
        OraclePredictor {
            sim: ApuSimulator::new(params),
        }
    }
}

impl PowerPerfPredictor for OraclePredictor {
    fn predict(&self, snapshot: &KernelSnapshot, cfg: HwConfig) -> PowerPerfEstimate {
        let truth = snapshot
            .truth
            .as_ref()
            .expect("OraclePredictor requires snapshots with ground truth");
        let out = self.sim.evaluate_exact(truth, cfg);
        PowerPerfEstimate {
            time_s: out.time_s,
            gpu_power_w: out.power.gpu_domain_w(),
        }
    }

    fn name(&self) -> &str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_hw::HwConfig;

    fn snapshot() -> KernelSnapshot {
        let sim = ApuSimulator::noiseless();
        let k = KernelCharacteristics::compute_bound("cb", 20.0);
        let out = sim.evaluate_exact(&k, HwConfig::FAIL_SAFE);
        KernelSnapshot::with_truth(out.counters, HwConfig::FAIL_SAFE, k)
    }

    #[test]
    fn oracle_matches_simulator_exactly() {
        let sim = ApuSimulator::default();
        let oracle = OraclePredictor::new(&sim);
        let snap = snapshot();
        let exact = ApuSimulator::noiseless()
            .evaluate_exact(snap.truth.as_ref().unwrap(), HwConfig::MAX_PERF);
        let est = oracle.predict(&snap, HwConfig::MAX_PERF);
        assert_eq!(est.time_s, exact.time_s);
        assert_eq!(est.gpu_power_w, exact.power.gpu_domain_w());
    }

    #[test]
    fn oracle_strips_noise_from_sim_params() {
        let sim = ApuSimulator::default();
        assert!(sim.params().noise_rel_std > 0.0);
        let oracle = OraclePredictor::new(&sim);
        let snap = snapshot();
        let a = oracle.predict(&snap, HwConfig::MAX_PERF);
        let b = oracle.predict(&snap, HwConfig::MAX_PERF);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "ground truth")]
    fn oracle_panics_without_truth() {
        let oracle = OraclePredictor::default();
        let snap = KernelSnapshot::counters_only(CounterSet::default(), HwConfig::FAIL_SAFE, 1.0);
        let _ = oracle.predict(&snap, HwConfig::MAX_PERF);
    }

    #[test]
    fn estimate_energy_is_product() {
        let est = PowerPerfEstimate {
            time_s: 2.0,
            gpu_power_w: 30.0,
        };
        assert_eq!(est.gpu_energy_j(), 60.0);
    }

    #[test]
    fn default_batch_matches_looped_predict() {
        let sim = ApuSimulator::default();
        let oracle = OraclePredictor::new(&sim);
        let snap = snapshot();
        let cfgs = [HwConfig::FAIL_SAFE, HwConfig::MAX_PERF];
        let mut out = Vec::new();
        oracle.predict_batch(&snap, &cfgs, &mut out);
        assert_eq!(out.len(), cfgs.len());
        for (est, &cfg) in out.iter().zip(&cfgs) {
            assert_eq!(*est, oracle.predict(&snap, cfg));
        }
        // Forwarding impls route through the same batch entry point.
        let boxed: Box<dyn PowerPerfPredictor> = Box::new(oracle);
        let mut via_box = Vec::new();
        boxed.predict_batch(&snap, &cfgs, &mut via_box);
        assert_eq!(via_box, out);
    }

    #[test]
    fn trait_object_and_ref_forwarding() {
        let sim = ApuSimulator::default();
        let oracle = OraclePredictor::new(&sim);
        let snap = snapshot();
        let direct = oracle.predict(&snap, HwConfig::MAX_PERF);
        let via_ref = oracle.predict(&snap, HwConfig::MAX_PERF);
        let boxed: Box<dyn PowerPerfPredictor> = Box::new(oracle.clone());
        let via_box = boxed.predict(&snap, HwConfig::MAX_PERF);
        assert_eq!(direct, via_ref);
        assert_eq!(direct, via_box);
        assert_eq!(boxed.name(), "oracle");
    }
}
