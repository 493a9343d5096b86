//! The top-level APU simulator.

use crate::counters::CounterSet;
use crate::kernel::KernelCharacteristics;
use crate::outcome::{EnergyBreakdown, KernelOutcome, PowerBreakdown, TimeBreakdown, TimePower};
use crate::params::SimParams;
use crate::perf;
use crate::power;
use gpm_hw::{CpuPState, HwConfig};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Simulates kernel executions on an A10-7850K-class APU.
///
/// `evaluate` plays the role of running a kernel on instrumented hardware:
/// it returns the time, power, energy, and performance counters a profiling
/// campaign would capture, including deterministic measurement noise.
/// `evaluate_exact` exposes the noiseless analytical model (used as the
/// ground truth for "perfect prediction" studies).
///
/// # Examples
///
/// ```
/// use gpm_hw::HwConfig;
/// use gpm_sim::{ApuSimulator, KernelCharacteristics};
///
/// let sim = ApuSimulator::default();
/// let k = KernelCharacteristics::memory_bound("stream", 1.0);
/// let fast = sim.evaluate(&k, HwConfig::MAX_PERF);
/// let slow = sim.evaluate(&k, HwConfig::FAIL_SAFE);
/// assert!(fast.time_s > 0.0 && slow.time_s > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ApuSimulator {
    params: SimParams,
}

impl ApuSimulator {
    /// Creates a simulator with the given calibration parameters.
    pub fn new(params: SimParams) -> ApuSimulator {
        ApuSimulator { params }
    }

    /// A simulator with measurement noise disabled.
    pub fn noiseless() -> ApuSimulator {
        ApuSimulator {
            params: SimParams::noiseless(),
        }
    }

    /// The calibration parameters in use.
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// Runs `kernel` at `cfg` and reports what instrumented hardware would
    /// measure, including multiplicative measurement noise on time, GPU
    /// power and the sampled counters. The noise is a pure function of
    /// (noise seed, kernel name, configuration), so repeated calls agree —
    /// and so do re-runs of any experiment.
    ///
    /// The composition of the time/power half
    /// ([`measure_time_power`](ApuSimulator::measure_time_power) reads
    /// it alone) and the counter half.
    pub fn evaluate(&self, kernel: &KernelCharacteristics, cfg: HwConfig) -> KernelOutcome {
        self.complete(kernel, cfg, self.measure(kernel, cfg, true))
    }

    /// The time and GPU-domain power [`evaluate`](ApuSimulator::evaluate)
    /// reports for `kernel` at `cfg`, bit for bit, without synthesizing
    /// the counters: all a measurement-campaign sample keeps.
    pub fn measure_time_power(&self, kernel: &KernelCharacteristics, cfg: HwConfig) -> TimePower {
        let m = self.measure(kernel, cfg, true);
        TimePower {
            time_s: m.time_s,
            gpu_power_w: m.power.gpu_domain_w(),
        }
    }

    /// The time/power half of a measurement: the analytical model, with
    /// noise on time and GPU dynamic power when `noisy` and the
    /// calibration has any.
    fn measure(&self, kernel: &KernelCharacteristics, cfg: HwConfig, noisy: bool) -> Measured {
        let time = perf::execution_time(&self.params, kernel, cfg);
        let mut power = power::kernel_power(&self.params, cfg, &time);
        let mut time_s = time.total_s;
        let mut noise = None;
        if noisy && self.params.noise_rel_std > 0.0 {
            let prefix = self.noise_prefix(kernel.name(), cfg);
            let (zt, zp) = noise_pair(&prefix);
            time_s *= noise_factor(zt, self.params.noise_rel_std);
            power.gpu_dyn_w *= noise_factor(zp, self.params.noise_rel_std);
            noise = Some(prefix);
        }
        Measured {
            time,
            time_s,
            power,
            noise,
        }
    }

    /// The counter half of a measurement: synthesizes the counters, adds
    /// their noise when the time/power half drew any, and integrates the
    /// energy.
    fn complete(
        &self,
        kernel: &KernelCharacteristics,
        cfg: HwConfig,
        m: Measured,
    ) -> KernelOutcome {
        let mut counters = CounterSet::synthesize(kernel, cfg, &m.time);
        if let Some(prefix) = &m.noise {
            counters = self.noisy_counters(prefix, counters);
        }
        KernelOutcome {
            time_s: m.time_s,
            time_breakdown: m.time,
            power: m.power,
            energy: EnergyBreakdown::from_power(&m.power, m.time_s),
            counters,
            ginstructions: kernel.ginstructions(),
        }
    }

    /// The hash of (noise seed, kernel name, configuration): the prefix
    /// every noise draw of one measurement shares, hashed once.
    fn noise_prefix(&self, kernel_name: &str, cfg: HwConfig) -> DefaultHasher {
        let mut h = DefaultHasher::new();
        self.params.noise_seed.hash(&mut h);
        kernel_name.hash(&mut h);
        cfg.dense_index().hash(&mut h);
        h
    }

    /// Applies measurement noise to the *sampled* counters. Quantities the
    /// runtime knows exactly (`GlobalWorkSize`, `ScratchRegs`) stay exact;
    /// rate/percentage counters carry the same relative noise as other
    /// measurements, with percentage counters clamped to [0, 100]. Counter
    /// `i` draws from `prefix` extended by `i`.
    fn noisy_counters(&self, prefix: &DefaultHasher, counters: CounterSet) -> CounterSet {
        const EXACT: [bool; 8] = [true, false, false, false, true, false, false, false];
        const PERCENT: [bool; 8] = [false, true, true, false, false, true, false, false];
        let mut values = *counters.values();
        for (i, v) in values.iter_mut().enumerate() {
            if EXACT[i] {
                continue;
            }
            let mut h = prefix.clone();
            i.hash(&mut h);
            let s = h.finish();
            let z = box_muller_cos(
                splitmix_unit(s.wrapping_add(11)),
                splitmix_unit(s.wrapping_add(13)),
            );
            *v *= noise_factor(z, self.params.noise_rel_std);
            if PERCENT[i] {
                *v = v.clamp(0.0, 100.0);
            }
        }
        CounterSet::from_values(values)
    }

    /// Runs the noiseless analytical model — the ground truth used by
    /// oracle predictors and the Theoretically Optimal scheme.
    pub fn evaluate_exact(&self, kernel: &KernelCharacteristics, cfg: HwConfig) -> KernelOutcome {
        self.complete(kernel, cfg, self.measure(kernel, cfg, false))
    }

    /// Energy consumed by running optimizer code on the CPU for
    /// `duration_s` seconds at configuration `cfg` while the GPU idles —
    /// used to charge MPC/PPK overheads between kernels.
    pub fn optimizer_energy(&self, cfg: HwConfig, duration_s: f64) -> EnergyBreakdown {
        let pwr = power::optimizer_power(&self.params, cfg);
        EnergyBreakdown::from_power(&pwr, duration_s)
    }

    /// CPU busy-wait power at P-state `cpu` — the normalized `V²f` CPU
    /// model governors use when estimating configuration energy.
    pub fn cpu_busywait_power(&self, cpu: CpuPState) -> f64 {
        power::cpu_busywait_power(&self.params, cpu)
    }

    /// Whether `cfg` keeps package power within TDP for `kernel`.
    pub fn within_tdp(&self, kernel: &KernelCharacteristics, cfg: HwConfig) -> bool {
        self.evaluate_exact(kernel, cfg).power.package_w() <= self.params.tdp_w
    }
}

/// The time/power half of one measurement, before its counters.
struct Measured {
    /// The noiseless time decomposition the counters are synthesized from.
    time: TimeBreakdown,
    /// Measured time: `time.total_s`, with noise when drawn.
    time_s: f64,
    /// Power, with noise on the GPU dynamic part when drawn.
    power: PowerBreakdown,
    /// The measurement's noise hash prefix, which the counter noise
    /// continues; `None` when no noise was drawn.
    noise: Option<DefaultHasher>,
}

/// Two independent standard-normal draws, deterministic per
/// (seed, kernel, config): the hash `prefix` of the three.
fn noise_pair(prefix: &DefaultHasher) -> (f64, f64) {
    let s = prefix.finish();
    let u1 = splitmix_unit(s.wrapping_add(1));
    let u2 = splitmix_unit(s.wrapping_add(2));
    box_muller(u1, u2)
}

/// SplitMix64 step mapped to (0, 1).
fn splitmix_unit(mut z: u64) -> f64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    // Map to (0,1) exclusive of endpoints to keep ln() finite.
    ((z >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// Box–Muller transform: two uniforms → two standard normals.
fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// The first normal of [`box_muller`] alone, computed the same way.
fn box_muller_cos(u1: f64, u2: f64) -> f64 {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    r * theta.cos()
}

/// Multiplicative noise factor `1 + σz`, clamped to [0.7, 1.3] so a noisy
/// measurement can never flip sign or dominate the signal.
fn noise_factor(z: f64, rel_std: f64) -> f64 {
    (1.0 + rel_std * z).clamp(0.7, 1.3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_hw::{ConfigSpace, CuCount, GpuDpm, NbState};

    #[test]
    fn evaluate_is_deterministic() {
        let sim = ApuSimulator::default();
        let k = KernelCharacteristics::compute_bound("cb", 20.0);
        let a = sim.evaluate(&k, HwConfig::MAX_PERF);
        let b = sim.evaluate(&k, HwConfig::MAX_PERF);
        assert_eq!(a.time_s, b.time_s);
        assert_eq!(a.power.total_w(), b.power.total_w());
    }

    #[test]
    fn noise_varies_across_configs_but_stays_small() {
        let sim = ApuSimulator::default();
        let k = KernelCharacteristics::compute_bound("cb", 20.0);
        let exact = sim.evaluate_exact(&k, HwConfig::MAX_PERF);
        let noisy = sim.evaluate(&k, HwConfig::MAX_PERF);
        let ratio = noisy.time_s / exact.time_s;
        assert!((0.7..=1.3).contains(&ratio));
    }

    #[test]
    fn noiseless_sim_matches_exact() {
        let sim = ApuSimulator::noiseless();
        let k = KernelCharacteristics::memory_bound("mb", 1.0);
        let a = sim.evaluate(&k, HwConfig::FAIL_SAFE);
        let b = sim.evaluate_exact(&k, HwConfig::FAIL_SAFE);
        assert_eq!(a.time_s, b.time_s);
        assert_eq!(a.energy.total_j(), b.energy.total_j());
    }

    #[test]
    fn energy_equals_power_times_time() {
        let sim = ApuSimulator::default();
        let k = KernelCharacteristics::peak("pk", 10.0);
        let out = sim.evaluate(&k, HwConfig::FAIL_SAFE);
        assert!((out.energy.total_j() - out.power.total_w() * out.time_s).abs() < 1e-9);
    }

    #[test]
    fn max_perf_is_fastest_for_compute_bound() {
        let sim = ApuSimulator::noiseless();
        let k = KernelCharacteristics::compute_bound("cb", 20.0);
        let fastest = sim.evaluate(&k, HwConfig::MAX_PERF).time_s;
        for cfg in &ConfigSpace::paper_campaign() {
            assert!(sim.evaluate(&k, cfg).time_s >= fastest - 1e-12);
        }
    }

    #[test]
    fn energy_optimal_points_differ_by_class() {
        // The crux of Figure 2: different classes reach best energy at
        // different configurations.
        let sim = ApuSimulator::noiseless();
        let space = ConfigSpace::nb_cu_sweep(CpuPState::P7, GpuDpm::Dpm4);
        let best = |k: &KernelCharacteristics| {
            space
                .iter()
                .min_by(|&a, &b| {
                    let ea = sim.evaluate(k, a).energy.total_j();
                    let eb = sim.evaluate(k, b).energy.total_j();
                    ea.partial_cmp(&eb).unwrap()
                })
                .unwrap()
        };
        let cb = best(&KernelCharacteristics::compute_bound("cb", 20.0));
        let mb = best(&KernelCharacteristics::memory_bound("mb", 1.0));
        let pk = best(&KernelCharacteristics::peak("pk", 10.0));
        // Compute-bound: many CUs, low NB state.
        assert_eq!(cb.cu, CuCount::MAX);
        assert!(
            cb.nb >= NbState::Nb2,
            "compute-bound optimal NB was {}",
            cb.nb
        );
        // Memory-bound: needs NB2 or better for bandwidth.
        assert!(
            mb.nb <= NbState::Nb2,
            "memory-bound optimal NB was {}",
            mb.nb
        );
        // Peak: fewer than 8 CUs.
        assert!(pk.cu < CuCount::MAX, "peak optimal CU was {}", pk.cu);
    }

    #[test]
    fn within_tdp_at_fail_safe() {
        let sim = ApuSimulator::noiseless();
        let k = KernelCharacteristics::compute_bound("cb", 20.0);
        assert!(sim.within_tdp(&k, HwConfig::FAIL_SAFE));
    }

    #[test]
    fn optimizer_energy_scales_with_duration() {
        let sim = ApuSimulator::noiseless();
        let e1 = sim.optimizer_energy(HwConfig::MPC_HOST, 0.01);
        let e2 = sim.optimizer_energy(HwConfig::MPC_HOST, 0.02);
        assert!((e2.total_j() - 2.0 * e1.total_j()).abs() < 1e-9);
    }

    #[test]
    fn splitmix_unit_in_open_interval() {
        for i in 0..1000u64 {
            let u = splitmix_unit(i);
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn box_muller_reasonable_spread() {
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        let n = 4000;
        for i in 0..n {
            let (a, b) = box_muller(splitmix_unit(i * 2), splitmix_unit(i * 2 + 1));
            sum += a + b;
            sum2 += a * a + b * b;
        }
        let cnt = (2 * n) as f64;
        let mean = sum / cnt;
        let var = sum2 / cnt - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
