//! The platform abstraction: where kernel "measurements" come from.
//!
//! The paper does not simulate — it **replays**: performance and power
//! were captured once per (kernel, configuration) on real hardware, and
//! every power-management scheme is evaluated against that table
//! (Section V: the campaign "permits accurate comparison of ... different
//! power management schemes"). [`Platform`] abstracts the source of
//! measurements so the harness can run either against the live analytical
//! model ([`ApuSimulator`]) or against a recorded table
//! ([`ReplayPlatform`]), which also proves that governors only ever visit
//! states the campaign covered.

use crate::apu::ApuSimulator;
use crate::kernel::KernelCharacteristics;
use crate::outcome::{EnergyBreakdown, KernelOutcome};
use crate::params::SimParams;
use gpm_hw::{ConfigSpace, HwConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A source of kernel measurements.
///
/// Implemented by the live analytical simulator and by recorded
/// measurement tables. `&ApuSimulator` coerces to `&dyn Platform`
/// wherever the harness accepts one.
pub trait Platform {
    /// Measured outcome of `kernel` at `cfg` (with measurement noise).
    fn evaluate(&self, kernel: &KernelCharacteristics, cfg: HwConfig) -> KernelOutcome;

    /// Energy of running optimizer code for `duration_s` at `cfg`.
    fn optimizer_energy(&self, cfg: HwConfig, duration_s: f64) -> EnergyBreakdown;

    /// The calibration parameters behind the platform.
    fn params(&self) -> &SimParams;
}

impl Platform for ApuSimulator {
    fn evaluate(&self, kernel: &KernelCharacteristics, cfg: HwConfig) -> KernelOutcome {
        ApuSimulator::evaluate(self, kernel, cfg)
    }

    fn optimizer_energy(&self, cfg: HwConfig, duration_s: f64) -> EnergyBreakdown {
        ApuSimulator::optimizer_energy(self, cfg, duration_s)
    }

    fn params(&self) -> &SimParams {
        ApuSimulator::params(self)
    }
}

/// A recorded measurement table: one [`KernelOutcome`] per
/// (kernel name, configuration) pair.
///
/// # Examples
///
/// ```
/// use gpm_hw::{ConfigSpace, HwConfig};
/// use gpm_sim::platform::{Platform, ReplayPlatform};
/// use gpm_sim::{ApuSimulator, KernelCharacteristics};
///
/// let sim = ApuSimulator::default();
/// let kernels = vec![KernelCharacteristics::compute_bound("k", 10.0)];
/// let replay = ReplayPlatform::record(&sim, &kernels, &ConfigSpace::paper_campaign());
/// let live = sim.evaluate(&kernels[0], HwConfig::FAIL_SAFE);
/// let replayed = replay.evaluate(&kernels[0], HwConfig::FAIL_SAFE);
/// assert_eq!(live.time_s, replayed.time_s);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayPlatform {
    records: HashMap<String, HashMap<usize, KernelOutcome>>,
    params: SimParams,
    /// Inner simulator for optimizer-energy accounting (cheap analytic
    /// quantities the campaign does not capture).
    #[serde(skip, default)]
    inner: ApuSimulator,
}

impl ReplayPlatform {
    /// Runs the measurement campaign for `kernels` over `space` and
    /// freezes the results.
    pub fn record(
        sim: &ApuSimulator,
        kernels: &[KernelCharacteristics],
        space: &ConfigSpace,
    ) -> ReplayPlatform {
        let mut records: HashMap<String, HashMap<usize, KernelOutcome>> = HashMap::new();
        for kernel in kernels {
            let per_cfg = records.entry(kernel.name().to_string()).or_default();
            for cfg in space {
                per_cfg.insert(cfg.dense_index(), sim.simulate(kernel, cfg));
            }
        }
        ReplayPlatform {
            records,
            params: sim.params().clone(),
            inner: ApuSimulator::new(sim.params().clone()),
        }
    }

    /// Number of recorded (kernel, configuration) measurements.
    pub fn len(&self) -> usize {
        self.records.values().map(HashMap::len).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a measurement exists for `(kernel_name, cfg)`.
    pub fn contains(&self, kernel_name: &str, cfg: HwConfig) -> bool {
        self.records
            .get(kernel_name)
            .is_some_and(|m| m.contains_key(&cfg.dense_index()))
    }

    /// Serializes the table to JSON (the exportable campaign artifact).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("replay table serializes")
    }

    /// Restores a table exported with [`ReplayPlatform::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error for malformed input.
    pub fn from_json(json: &str) -> Result<ReplayPlatform, serde_json::Error> {
        let mut p: ReplayPlatform = serde_json::from_str(json)?;
        p.inner = ApuSimulator::new(p.params.clone());
        Ok(p)
    }
}

impl Platform for ReplayPlatform {
    /// Replays the recorded measurement.
    ///
    /// # Panics
    ///
    /// Panics when `(kernel, cfg)` was never measured — a governor
    /// visiting an unrecorded state is an experiment-design bug, exactly
    /// the situation the paper's 336-configuration campaign rules out.
    fn evaluate(&self, kernel: &KernelCharacteristics, cfg: HwConfig) -> KernelOutcome {
        self.records
            .get(kernel.name())
            .and_then(|m| m.get(&cfg.dense_index()))
            .unwrap_or_else(|| {
                panic!(
                    "no recorded measurement for kernel `{}` at {cfg} — \
                     the campaign space does not cover this state",
                    kernel.name()
                )
            })
            .clone()
    }

    fn optimizer_energy(&self, cfg: HwConfig, duration_s: f64) -> EnergyBreakdown {
        self.inner.optimizer_energy(cfg, duration_s)
    }

    fn params(&self) -> &SimParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernels() -> Vec<KernelCharacteristics> {
        vec![
            KernelCharacteristics::compute_bound("a", 10.0),
            KernelCharacteristics::memory_bound("b", 1.0),
        ]
    }

    #[test]
    fn replay_matches_live_bit_for_bit() {
        let sim = ApuSimulator::default();
        let ks = kernels();
        let replay = ReplayPlatform::record(&sim, &ks, &ConfigSpace::paper_campaign());
        assert_eq!(replay.len(), 2 * 336);
        for cfg in &ConfigSpace::paper_campaign() {
            for k in &ks {
                let live = Platform::evaluate(&sim, k, cfg);
                let rep = replay.evaluate(k, cfg);
                assert_eq!(live, rep);
            }
        }
    }

    #[test]
    #[should_panic(expected = "no recorded measurement")]
    fn unrecorded_state_panics() {
        let sim = ApuSimulator::default();
        let ks = kernels();
        // Record only the measured campaign; DPM1 is outside it.
        let replay = ReplayPlatform::record(&sim, &ks, &ConfigSpace::paper_campaign());
        let mut cfg = HwConfig::FAIL_SAFE;
        cfg.gpu = gpm_hw::GpuDpm::Dpm1;
        let _ = replay.evaluate(&ks[0], cfg);
    }

    #[test]
    fn json_roundtrip_preserves_measurements() {
        let sim = ApuSimulator::default();
        let ks = kernels();
        let space = ConfigSpace::nb_cu_sweep(gpm_hw::CpuPState::P5, gpm_hw::GpuDpm::Dpm4);
        let replay = ReplayPlatform::record(&sim, &ks, &space);
        let restored = ReplayPlatform::from_json(&replay.to_json()).unwrap();
        assert_eq!(restored.len(), replay.len());
        for cfg in &space {
            assert_eq!(replay.evaluate(&ks[0], cfg), restored.evaluate(&ks[0], cfg));
        }
    }

    #[test]
    fn contains_reports_coverage() {
        let sim = ApuSimulator::default();
        let ks = kernels();
        let replay = ReplayPlatform::record(&sim, &ks, &ConfigSpace::paper_campaign());
        assert!(replay.contains("a", HwConfig::FAIL_SAFE));
        assert!(!replay.contains("nope", HwConfig::FAIL_SAFE));
        assert!(!replay.is_empty());
    }

    #[test]
    fn dyn_platform_dispatch_works() {
        let sim = ApuSimulator::default();
        let ks = kernels();
        let replay = ReplayPlatform::record(&sim, &ks, &ConfigSpace::paper_campaign());
        let platforms: Vec<&dyn Platform> = vec![&sim, &replay];
        for p in platforms {
            let out = p.evaluate(&ks[0], HwConfig::FAIL_SAFE);
            assert!(out.time_s > 0.0);
            assert!(p.optimizer_energy(HwConfig::MPC_HOST, 0.001).total_j() > 0.0);
            assert_eq!(p.params().tdp_w, 95.0);
        }
    }
}
