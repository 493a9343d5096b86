//! Replay result types: the per-kernel and per-invocation records every
//! run of the engine in [`crate::env`] produces.
//!
//! All replays go through [`ExecEnv`](crate::env::ExecEnv):
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
//! let run = ExecEnv::new().run(&sim, &w, &mut tc, PerfTarget::new(1.0, 1.0), 0, false);
//! assert!(run.total_energy_j() > 0.0);
//! ```

use gpm_hw::HwConfig;
use gpm_sim::EnergyBreakdown;
use serde::{Deserialize, Serialize};

/// Per-invocation record within a [`RunResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelRun {
    /// Position within the application; the kernel is
    /// `workload.kernels()[position]`.
    pub position: usize,
    /// Configuration the governor chose.
    pub config: HwConfig,
    /// Measured execution time, seconds.
    pub time_s: f64,
    /// Kernel energy, joules.
    pub energy_j: f64,
    /// Instructions, giga-instructions.
    pub gi: f64,
    /// Optimizer overhead charged before this kernel, seconds.
    pub overhead_s: f64,
    /// Horizon used, for MPC-style governors.
    pub horizon: Option<usize>,
}

impl KernelRun {
    /// Kernel instruction throughput, giga-instructions per second.
    pub fn throughput(&self) -> f64 {
        self.gi / self.time_s.max(1e-12)
    }
}

/// Totals of one application invocation under one governor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Governor name.
    pub governor: String,
    /// Workload name.
    pub workload: String,
    /// Sum of kernel execution times, seconds (the `ΣT` of Eq. 1).
    pub kernel_time_s: f64,
    /// Sum of optimizer overheads, seconds.
    pub overhead_time_s: f64,
    /// Sum of DVFS state-transition stalls, seconds (0 unless the
    /// simulator's transition model is enabled).
    pub transition_time_s: f64,
    /// Kernel-phase energy breakdown.
    pub energy: EnergyBreakdown,
    /// Energy consumed while the optimizer ran between kernels.
    pub overhead_energy: EnergyBreakdown,
    /// Total instructions, giga-instructions.
    pub ginstructions: f64,
    /// Per-kernel details.
    pub per_kernel: Vec<KernelRun>,
}

impl RunResult {
    /// End-to-end wall time: kernels plus optimizer overheads plus any
    /// DVFS transition stalls (the paper's worst case of back-to-back
    /// kernels).
    pub fn wall_time_s(&self) -> f64 {
        self.kernel_time_s + self.overhead_time_s + self.transition_time_s
    }

    /// Total chip energy including optimizer overhead energy, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j() + self.overhead_energy.total_j()
    }

    /// GPU-domain energy including the GPU static energy burned during
    /// optimization (Figure 10's metric), joules.
    pub fn gpu_energy_j(&self) -> f64 {
        self.energy.gpu_j + self.overhead_energy.gpu_j
    }

    /// CPU-domain energy, joules.
    pub fn cpu_energy_j(&self) -> f64 {
        self.energy.cpu_j + self.overhead_energy.cpu_j
    }

    /// Application kernel throughput, giga-instructions per second over
    /// wall time.
    pub fn throughput(&self) -> f64 {
        self.ginstructions / self.wall_time_s().max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ExecEnv;
    use gpm_governors::{FixedGovernor, PerfTarget, TurboCore};
    use gpm_sim::ApuSimulator;
    use gpm_workloads::workload_by_name;

    fn sim() -> ApuSimulator {
        ApuSimulator::noiseless()
    }

    #[test]
    fn totals_are_sums_of_per_kernel() {
        let sim = sim();
        let w = workload_by_name("Spmv").unwrap();
        let mut gov = FixedGovernor::new(HwConfig::FAIL_SAFE);
        let res = ExecEnv::new().run(&sim, &w, &mut gov, PerfTarget::new(1.0, 1.0), 0, false);
        assert_eq!(res.per_kernel.len(), 30);
        let t: f64 = res.per_kernel.iter().map(|k| k.time_s).sum();
        assert!((t - res.kernel_time_s).abs() < 1e-9);
        let gi: f64 = res.per_kernel.iter().map(|k| k.gi).sum();
        assert!((gi - res.ginstructions).abs() < 1e-9);
        assert_eq!(res.overhead_time_s, 0.0);
        assert_eq!(res.wall_time_s(), res.kernel_time_s);
    }

    #[test]
    fn turbo_core_run_is_deterministic() {
        let sim = ApuSimulator::default();
        let w = workload_by_name("kmeans").unwrap();
        let env = ExecEnv::new();
        let run = |i: usize| {
            let mut gov = TurboCore::new(95.0);
            let _ = i;
            env.run(&sim, &w, &mut gov, PerfTarget::new(1.0, 1.0), 0, false)
        };
        let a = run(0);
        let b = run(1);
        assert_eq!(a.kernel_time_s, b.kernel_time_s);
        assert_eq!(a.total_energy_j(), b.total_energy_j());
    }

    #[test]
    fn overhead_energy_accrues_for_optimizing_governors() {
        use gpm_governors::{OverheadModel, PpkGovernor};
        use gpm_hw::ConfigSpace;
        use gpm_sim::{OraclePredictor, SimParams};
        let sim = sim();
        let w = workload_by_name("EigenValue").unwrap();
        let env = ExecEnv::new();
        // Target from a fail-safe run.
        let mut fixed = FixedGovernor::new(HwConfig::FAIL_SAFE);
        let base = env.run(&sim, &w, &mut fixed, PerfTarget::new(1.0, 1.0), 0, false);
        let target = PerfTarget::new(base.ginstructions, base.kernel_time_s);
        let mut ppk = PpkGovernor::new(
            OraclePredictor::new(&sim),
            SimParams::noiseless(),
            ConfigSpace::paper_campaign(),
            OverheadModel::default(),
        )
        .with_truth_snapshots(true);
        let res = env.run(&sim, &w, &mut ppk, target, 0, true);
        assert!(res.overhead_time_s > 0.0);
        assert!(res.overhead_energy.total_j() > 0.0);
        assert!(res.total_energy_j() > res.energy.total_j());
    }

    #[test]
    fn per_kernel_throughput_positive() {
        let sim = sim();
        let w = workload_by_name("hybridsort").unwrap();
        let mut gov = FixedGovernor::new(HwConfig::MAX_PERF);
        let res = ExecEnv::new().run(&sim, &w, &mut gov, PerfTarget::new(1.0, 1.0), 0, false);
        for k in &res.per_kernel {
            assert!(k.throughput() > 0.0, "kernel {} throughput", k.position);
        }
    }
}
