//! Results of simulating one kernel invocation.

use crate::counters::CounterSet;
pub use crate::perf::TimeBreakdown;
pub use crate::power::PowerBreakdown;
use serde::{Deserialize, Serialize};

/// Energy consumed by one kernel invocation, split the way the paper
/// reports it, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct EnergyBreakdown {
    /// CPU energy (dynamic + leakage).
    pub cpu_j: f64,
    /// GPU-domain energy: GPU + NB dynamic plus GPU leakage — what the
    /// APU's power controller attributes to the GPU rail.
    pub gpu_j: f64,
    /// DRAM energy.
    pub dram_j: f64,
    /// Remaining SoC energy.
    pub other_j: f64,
}

impl EnergyBreakdown {
    /// Integrates a power breakdown over `time_s` seconds.
    pub fn from_power(power: &PowerBreakdown, time_s: f64) -> EnergyBreakdown {
        EnergyBreakdown {
            cpu_j: power.cpu_domain_w() * time_s,
            gpu_j: power.gpu_domain_w() * time_s,
            dram_j: power.dram_w * time_s,
            other_j: power.other_w * time_s,
        }
    }

    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.cpu_j + self.gpu_j + self.dram_j + self.other_j
    }

    /// Component-wise sum; useful for accumulating application totals.
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        self.cpu_j += other.cpu_j;
        self.gpu_j += other.gpu_j;
        self.dram_j += other.dram_j;
        self.other_j += other.other_j;
    }
}

/// The two quantities a measurement-campaign sample records: the time
/// and GPU-domain power of [`KernelOutcome`], as
/// [`ApuSimulator::measure_time_power`](crate::ApuSimulator::measure_time_power)
/// reports them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimePower {
    /// End-to-end kernel time in seconds (with measurement noise).
    pub time_s: f64,
    /// GPU-domain power in watts (with measurement noise).
    pub gpu_power_w: f64,
}

/// Complete observed outcome of one kernel invocation: what a governor
/// learns after the kernel retires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelOutcome {
    /// End-to-end kernel time in seconds (with measurement noise).
    pub time_s: f64,
    /// Noiseless time decomposition from the analytical model.
    pub time_breakdown: TimeBreakdown,
    /// Average power over the invocation (with measurement noise applied to
    /// the GPU domain).
    pub power: PowerBreakdown,
    /// Energy integrated over the (noisy) invocation time.
    pub energy: EnergyBreakdown,
    /// Synthesized Table III performance counters.
    pub counters: CounterSet,
    /// Instructions executed, in giga-instructions (the `I_i` of Eq. 1).
    pub ginstructions: f64,
}

impl KernelOutcome {
    /// Kernel instruction throughput in giga-instructions per second, the
    /// paper's performance metric.
    pub fn throughput(&self) -> f64 {
        self.ginstructions / self.time_s
    }

    /// Repairs a corrupted observation so learning components (pattern
    /// store, headroom tracker, predictors) can consume it without
    /// poisoning their state: counters are clamped finite and
    /// non-negative, and a non-finite or non-positive time / negative
    /// instruction count falls back to a tiny safe default. Returns
    /// `true` when anything had to change.
    pub fn sanitize(&mut self) -> bool {
        let mut changed = self.counters.sanitize();
        if !self.time_s.is_finite() || self.time_s <= 0.0 {
            self.time_s = 1e-9;
            changed = true;
        }
        if !self.ginstructions.is_finite() || self.ginstructions < 0.0 {
            self.ginstructions = 0.0;
            changed = true;
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn power() -> PowerBreakdown {
        PowerBreakdown {
            cpu_dyn_w: 10.0,
            gpu_dyn_w: 20.0,
            nb_dyn_w: 5.0,
            dram_w: 3.0,
            cpu_leak_w: 2.0,
            gpu_leak_w: 4.0,
            other_w: 1.0,
            temp_c: 50.0,
        }
    }

    #[test]
    fn energy_integrates_power() {
        let e = EnergyBreakdown::from_power(&power(), 2.0);
        assert!((e.cpu_j - 24.0).abs() < 1e-12); // (10 + 2) × 2
        assert!((e.gpu_j - 58.0).abs() < 1e-12); // (20 + 5 + 4) × 2
        assert!((e.dram_j - 6.0).abs() < 1e-12);
        assert!((e.other_j - 2.0).abs() < 1e-12);
        assert!((e.total_j() - power().total_w() * 2.0).abs() < 1e-12);
    }

    #[test]
    fn sanitize_repairs_corrupted_outcomes() {
        let mut out = KernelOutcome {
            time_s: 0.5,
            time_breakdown: TimeBreakdown {
                compute_s: 0.3,
                memory_s: 0.1,
                fixed_s: 0.05,
                launch_s: 0.05,
                total_s: 0.5,
                alu_activity: 0.5,
                mem_util: 0.2,
                dram_traffic_gb: 0.1,
            },
            power: power(),
            energy: EnergyBreakdown::from_power(&power(), 0.5),
            counters: CounterSet::from_values([1.0; 8]),
            ginstructions: 2.0,
        };
        assert!(!out.clone().sanitize());
        out.time_s = f64::NAN;
        out.ginstructions = f64::NEG_INFINITY;
        out.counters.values_mut()[3] = f64::NAN;
        assert!(out.sanitize());
        assert!(out.time_s > 0.0 && out.time_s.is_finite());
        assert_eq!(out.ginstructions, 0.0);
        assert!(out.counters.is_well_formed());
        assert!(out.throughput().is_finite());
    }

    #[test]
    fn accumulate_sums_componentwise() {
        let mut acc = EnergyBreakdown::default();
        let e = EnergyBreakdown::from_power(&power(), 1.0);
        acc.accumulate(&e);
        acc.accumulate(&e);
        assert!((acc.total_j() - 2.0 * e.total_j()).abs() < 1e-12);
        assert!((acc.cpu_j - 2.0 * e.cpu_j).abs() < 1e-12);
    }
}
