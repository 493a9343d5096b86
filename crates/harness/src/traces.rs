//! Characterization traces: the Figure 2 sweeps and Figure 3 throughput
//! traces.

use crate::run::RunResult;
use gpm_hw::{CpuPState, CuCount, GpuDpm, HwConfig, NbState};
use gpm_sim::sampling::PowerSegment;
use gpm_sim::{ApuSimulator, KernelCharacteristics};
use gpm_workloads::Workload;
use serde::{Deserialize, Serialize};

/// One point of a Figure 2 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Northbridge state of the point.
    pub nb: NbState,
    /// Active compute units.
    pub cu: u32,
    /// Speedup relative to the (NB3, 2 CU) corner.
    pub speedup: f64,
    /// Kernel energy at this point, joules.
    pub energy_j: f64,
    /// Whether this is the energy-optimal point of the sweep (the mark in
    /// each Figure 2 panel).
    pub energy_optimal: bool,
}

/// Sweeps NB states × CU counts for one kernel at fixed CPU/GPU settings,
/// reproducing one panel of Figure 2.
///
/// The paper's panels fix the GPU DPM state high and scan the other two
/// GPU-side knobs; speedups are normalized to the slowest corner
/// (NB3, 2 CUs).
pub fn fig2_sweep(sim: &ApuSimulator, kernel: &KernelCharacteristics) -> Vec<SweepPoint> {
    let cfg_at = |nb: NbState, cu: CuCount| HwConfig::new(CpuPState::P5, nb, GpuDpm::Dpm4, cu);
    let base_time = sim
        .evaluate(kernel, cfg_at(NbState::Nb3, CuCount::MIN))
        .time_s;

    let mut points = Vec::with_capacity(16);
    for &nb in &NbState::ALL {
        for &cu in &CuCount::ALL {
            let out = sim.evaluate(kernel, cfg_at(nb, cu));
            points.push(SweepPoint {
                nb,
                cu: cu.get(),
                speedup: base_time / out.time_s,
                energy_j: out.energy.total_j(),
                energy_optimal: false,
            });
        }
    }
    if let Some(best) = points
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.energy_j.total_cmp(&b.1.energy_j))
        .map(|(i, _)| i)
    {
        points[best].energy_optimal = true;
    }
    points
}

/// Per-invocation kernel throughput normalized to the application's
/// overall throughput (the y-axis of Figure 3), measured at the Turbo Core
/// boost configuration.
pub fn fig3_trace(sim: &ApuSimulator, workload: &Workload) -> Vec<f64> {
    let outs: Vec<_> = workload
        .kernels()
        .iter()
        .map(|k| sim.evaluate(k, HwConfig::MAX_PERF))
        .collect();
    let total_gi: f64 = outs.iter().map(|o| o.ginstructions).sum();
    let total_t: f64 = outs.iter().map(|o| o.time_s).sum();
    let overall = total_gi / total_t.max(1e-12);
    outs.iter().map(|o| o.throughput() / overall).collect()
}

/// Reconstructs the piecewise-constant power timeline of a completed run,
/// ready for [`gpm_sim::sampling::sample_trace`] — the 1 ms power traces
/// the paper's measurement controller captures. Optimizer gaps appear as
/// `mpc-optimizer` segments at the MPC host configuration's power.
pub fn power_segments(
    sim: &ApuSimulator,
    workload: &Workload,
    result: &RunResult,
) -> Vec<PowerSegment> {
    let mut segments = Vec::with_capacity(result.per_kernel.len() * 2);
    for (kernel, run) in workload.kernels().iter().zip(&result.per_kernel) {
        if run.overhead_s > 0.0 {
            let opt = gpm_sim::power::optimizer_power(sim.params(), HwConfig::MPC_HOST);
            segments.push(PowerSegment {
                label: "mpc-optimizer".into(),
                duration_s: run.overhead_s,
                power: opt,
            });
        }
        let out = sim.evaluate(kernel, run.config);
        segments.push(PowerSegment {
            label: kernel.name().to_string(),
            duration_s: run.time_s,
            power: out.power,
        });
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_workloads::{microkernels, workload_by_name};

    #[test]
    fn sweep_has_sixteen_points_and_one_optimum() {
        let sim = ApuSimulator::noiseless();
        let points = fig2_sweep(&sim, &microkernels::max_flops());
        assert_eq!(points.len(), 16);
        assert_eq!(points.iter().filter(|p| p.energy_optimal).count(), 1);
        // Normalization corner has speedup 1.
        let corner = points
            .iter()
            .find(|p| p.nb == NbState::Nb3 && p.cu == 2)
            .unwrap();
        assert!((corner.speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_sweep_grows_with_cus() {
        let sim = ApuSimulator::noiseless();
        let points = fig2_sweep(&sim, &microkernels::max_flops());
        let at = |nb: NbState, cu: u32| {
            points
                .iter()
                .find(|p| p.nb == nb && p.cu == cu)
                .unwrap()
                .speedup
        };
        assert!(at(NbState::Nb0, 8) > 2.5 * at(NbState::Nb0, 2));
    }

    #[test]
    fn memory_bound_sweep_plateaus_from_nb2() {
        let sim = ApuSimulator::noiseless();
        let points = fig2_sweep(&sim, &microkernels::read_global_memory_coalesced());
        let at = |nb: NbState, cu: u32| {
            points
                .iter()
                .find(|p| p.nb == nb && p.cu == cu)
                .unwrap()
                .speedup
        };
        assert!((at(NbState::Nb2, 8) / at(NbState::Nb0, 8) - 1.0).abs() < 0.05);
        assert!(at(NbState::Nb3, 8) < 0.7 * at(NbState::Nb2, 8));
    }

    #[test]
    fn fig3_traces_have_expected_shapes() {
        let sim = ApuSimulator::noiseless();
        let spmv = fig3_trace(&sim, &workload_by_name("Spmv").unwrap());
        assert_eq!(spmv.len(), 30);
        assert!(spmv[0] > 1.0 && spmv[29] < 1.0, "Spmv high→low");
        let kmeans = fig3_trace(&sim, &workload_by_name("kmeans").unwrap());
        assert!(kmeans[0] < 1.0 && kmeans[5] > 1.0, "kmeans low→high");
    }

    #[test]
    fn power_segments_reconstruct_run_energy() {
        use crate::env::ExecEnv;
        use gpm_governors::{FixedGovernor, PerfTarget};
        use gpm_sim::sampling::{sample_trace, trace_energy_j};
        let sim = ApuSimulator::noiseless();
        let w = workload_by_name("EigenValue").unwrap();
        let mut gov = FixedGovernor::new(HwConfig::FAIL_SAFE);
        let res = ExecEnv::new().run(&sim, &w, &mut gov, PerfTarget::new(1.0, 1.0), 0, false);
        let segments = power_segments(&sim, &w, &res);
        assert_eq!(segments.len(), w.len());
        let total_seg: f64 = segments.iter().map(|s| s.duration_s).sum();
        assert!((total_seg - res.wall_time_s()).abs() < 1e-9);
        // A 1 ms-sampled trace integrates to within a few percent of the
        // true energy.
        let trace = sample_trace(&segments, 1e-3);
        let measured = trace_energy_j(&trace, 1e-3);
        assert!(
            (measured / res.total_energy_j() - 1.0).abs() < 0.05,
            "sampled {measured} vs true {}",
            res.total_energy_j()
        );
    }

    #[test]
    fn power_segments_carry_kernel_names_and_charged_overheads() {
        use crate::env::ExecEnv;
        use gpm_governors::{FixedGovernor, OverheadModel, PerfTarget, PpkGovernor};
        use gpm_hw::ConfigSpace;
        use gpm_sim::{OraclePredictor, SimParams};
        let sim = ApuSimulator::noiseless();
        // Every hybridsort invocation has a kernel name of its own.
        let w = workload_by_name("hybridsort").unwrap();
        let env = ExecEnv::new();
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
        let charged = res.per_kernel.iter().filter(|k| k.overhead_s > 0.0).count();
        assert!(charged > 0, "the optimizing run charged no overhead");

        let segments = power_segments(&sim, &w, &res);
        assert_eq!(segments.len(), w.len() + charged);
        let mut rest = segments.iter();
        for (kernel, run) in w.kernels().iter().zip(&res.per_kernel) {
            if run.overhead_s > 0.0 {
                let opt = rest.next().unwrap();
                assert_eq!(opt.label, "mpc-optimizer");
                assert_eq!(opt.duration_s, run.overhead_s);
            }
            let seg = rest.next().unwrap();
            assert_eq!(seg.label, kernel.name(), "position {}", run.position);
            assert_eq!(seg.duration_s, run.time_s);
        }
        assert!(rest.next().is_none());
    }

    #[test]
    fn fig3_normalization_is_consistent() {
        // The time-weighted harmonic structure: overall throughput equals
        // total gi over total time, so normalized values straddle 1.
        let sim = ApuSimulator::noiseless();
        let t = fig3_trace(&sim, &workload_by_name("hybridsort").unwrap());
        assert!(t.iter().any(|&v| v > 1.0));
        assert!(t.iter().any(|&v| v < 1.0));
    }
}
