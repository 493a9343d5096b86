//! The top-level APU simulator.

use crate::counters::CounterSet;
use crate::kernel::KernelCharacteristics;
use crate::memo::MeasurementMemo;
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
/// `evaluate` is a pure function of (parameters, kernel, configuration),
/// and the parameters are fixed when the simulator is built. The
/// simulator relies on that: it measures each (kernel, configuration)
/// pair once and serves repeats from a memo that keys every field of the
/// kernel bit for bit, so a repeat returns exactly what a fresh
/// measurement would. Clones share the memo; a simulator built with
/// [`new`](ApuSimulator::new) starts with an empty one.
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
    /// The outcomes `evaluate` has measured, shared by clones.
    measured: MeasurementMemo,
}

impl ApuSimulator {
    /// Creates a simulator with the given calibration parameters.
    pub fn new(params: SimParams) -> ApuSimulator {
        ApuSimulator {
            params,
            measured: MeasurementMemo::default(),
        }
    }

    /// A simulator with measurement noise disabled.
    pub fn noiseless() -> ApuSimulator {
        ApuSimulator::new(SimParams::noiseless())
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
    /// it alone) and the counter half, computed on the first call for a
    /// (kernel, configuration) pair and served from the memo after.
    pub fn evaluate(&self, kernel: &KernelCharacteristics, cfg: HwConfig) -> KernelOutcome {
        self.measured
            .get_or_measure(kernel, cfg, || self.simulate(kernel, cfg))
    }

    /// What [`evaluate`](ApuSimulator::evaluate) reports, computed afresh
    /// and not stored: for callers that measure each pair once.
    pub(crate) fn simulate(&self, kernel: &KernelCharacteristics, cfg: HwConfig) -> KernelOutcome {
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
    use crate::kernel::KernelClass;
    use crate::memo::CAPACITY;
    use gpm_hw::{ConfigSpace, CuCount, GpuDpm, NbState};
    use std::sync::Barrier;

    /// Whether two outcomes are equal bit for bit: `f64`'s `Debug` text
    /// round-trips its bits.
    fn same(a: &KernelOutcome, b: &KernelOutcome) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    fn cfg(idx: usize) -> HwConfig {
        HwConfig::from_dense_index(idx).unwrap()
    }

    #[test]
    fn same_name_kernels_that_differ_in_one_field_never_share_an_entry() {
        let b = || KernelCharacteristics::builder("k", 4.0).ginstructions(3.0);
        let base = b().build();
        let variants = [
            ("class", b().class(KernelClass::Peak).build()),
            (
                "compute_gops",
                KernelCharacteristics::builder("k", 5.0)
                    .ginstructions(3.0)
                    .build(),
            ),
            ("memory_gb", b().memory_gb(0.2).build()),
            ("cache_hit_base", b().cache_hit(0.5).build()),
            ("cache_interference", b().cache_interference(0.01).build()),
            ("parallel_fraction", b().parallel_fraction(0.9).build()),
            ("occupancy", b().occupancy(0.6).build()),
            ("fixed_time_s", b().fixed_time(1e-4).build()),
            ("launch_overhead_s", b().launch_overhead(40e-6).build()),
            ("global_work_size", b().global_work_size(4096.0).build()),
            ("lds_conflict", b().lds_conflict(0.1).build()),
            ("scratch_regs", b().scratch_regs(16.0).build()),
            ("ginstructions", b().ginstructions(6.0).build()),
        ];
        for (field, variant) in &variants {
            assert_ne!(&base, variant, "{field}: the variant equals the base");
            let sim = ApuSimulator::default();
            let first = sim.evaluate(&base, HwConfig::FAIL_SAFE);
            let got = sim.evaluate(variant, HwConfig::FAIL_SAFE);
            assert_eq!(
                sim.measured.len(),
                2,
                "{field}: the variant shared an entry"
            );
            assert!(
                same(&got, &sim.simulate(variant, HwConfig::FAIL_SAFE)),
                "{field}: the variant was served the base's outcome"
            );
            let again = sim.evaluate(&base, HwConfig::FAIL_SAFE);
            assert!(same(&again, &first), "{field}: the base lost its entry");
        }
        // The name is compared by content: a kernel equal in every field
        // but built separately is served the stored outcome.
        let sim = ApuSimulator::default();
        sim.evaluate(&base, HwConfig::FAIL_SAFE);
        sim.evaluate(&b().build(), HwConfig::FAIL_SAFE);
        assert_eq!(sim.measured.len(), 1);
        sim.evaluate(&base.renamed("k2"), HwConfig::FAIL_SAFE);
        assert_eq!(sim.measured.len(), 2, "a renamed kernel shared an entry");
    }

    #[test]
    fn a_simulator_with_another_noise_seed_never_sees_the_first_ones_outcomes() {
        let first = ApuSimulator::default();
        let other = ApuSimulator::new(SimParams {
            noise_seed: first.params().noise_seed + 1,
            ..first.params().clone()
        });
        let k = KernelCharacteristics::memory_bound("mb", 1.0);
        let mut differ = 0;
        for idx in 0..HwConfig::DENSE_COUNT {
            let mine = first.evaluate(&k, cfg(idx));
            let theirs = other.evaluate(&k, cfg(idx));
            assert!(
                same(&theirs, &other.simulate(&k, cfg(idx))),
                "at {}",
                cfg(idx)
            );
            differ += usize::from(mine.time_s != theirs.time_s);
        }
        assert!(
            differ > HwConfig::DENSE_COUNT / 2,
            "{differ} outcomes differ"
        );
        // A clone shares its original's table.
        assert_eq!(first.clone().measured.len(), HwConfig::DENSE_COUNT);
        assert_eq!(other.measured.len(), HwConfig::DENSE_COUNT);
    }

    #[test]
    fn filling_past_capacity_clears_the_table_and_refills_it_correctly() {
        let sim = ApuSimulator::default();
        let kernels: Vec<_> = (0..CAPACITY.div_ceil(HwConfig::DENSE_COUNT) + 1)
            .map(|i| KernelCharacteristics::compute_bound(format!("k{i}"), 1.0 + i as f64))
            .collect();
        let pairs: Vec<_> = kernels
            .iter()
            .flat_map(|k| (0..HwConfig::DENSE_COUNT).map(move |idx| (k, cfg(idx))))
            .collect();
        for (n, &(k, c)) in pairs[..CAPACITY].iter().enumerate() {
            sim.evaluate(k, c);
            assert_eq!(sim.measured.len(), n + 1);
        }
        let (k, c) = pairs[CAPACITY];
        assert!(same(&sim.evaluate(k, c), &sim.simulate(k, c)));
        assert_eq!(sim.measured.len(), 1, "a full table did not clear");
        // The pairs measured before the clear are measured again, right.
        for (n, &(k, c)) in pairs[..CAPACITY - 1].iter().enumerate() {
            assert!(same(&sim.evaluate(k, c), &sim.simulate(k, c)), "{k} at {c}");
            assert_eq!(sim.measured.len(), n + 2);
        }
        for &(k, c) in &pairs[..CAPACITY - 1] {
            assert!(same(&sim.evaluate(k, c), &sim.simulate(k, c)), "{k} at {c}");
        }
        assert_eq!(sim.measured.len(), CAPACITY);
    }

    #[test]
    fn two_threads_filling_one_table_get_the_serial_answers() {
        let kernels = [
            KernelCharacteristics::compute_bound("cb", 20.0),
            KernelCharacteristics::memory_bound("mb", 1.0),
            KernelCharacteristics::peak("pk", 10.0),
        ];
        let pairs: Vec<_> = kernels
            .iter()
            .flat_map(|k| {
                (0..HwConfig::DENSE_COUNT)
                    .step_by(3)
                    .map(move |i| (k, cfg(i)))
            })
            .collect();
        let serial = ApuSimulator::default();
        let want: Vec<_> = pairs.iter().map(|&(k, c)| serial.simulate(k, c)).collect();
        let shared = ApuSimulator::default();
        let barrier = Barrier::new(2);
        // Both threads walk the pairs forward in lockstep, so they miss on
        // the same pair at once and both store it; then one walks forward
        // and the other backward, hitting different entries at once.
        let walk = |backward: bool| {
            let sim = shared.clone();
            let second: Vec<usize> = if backward {
                (0..pairs.len()).rev().collect()
            } else {
                (0..pairs.len()).collect()
            };
            (0..pairs.len())
                .chain(second)
                .map(|i| {
                    barrier.wait();
                    (i, sim.evaluate(pairs[i].0, pairs[i].1))
                })
                .collect::<Vec<_>>()
        };
        let (forward, backward) = std::thread::scope(|s| {
            let f = s.spawn(|| walk(false));
            let b = s.spawn(|| walk(true));
            (f.join().unwrap(), b.join().unwrap())
        });
        for (i, got) in forward.iter().chain(&backward) {
            assert!(same(got, &want[*i]), "{} at {}", pairs[*i].0, pairs[*i].1);
        }
        assert_eq!(shared.measured.len(), pairs.len());
    }

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
