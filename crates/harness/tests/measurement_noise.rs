//! The simulator's measurement noise against the formula it replaced:
//! every (kernel, configuration) pair of the training and extended
//! kernels over the full configuration lattice must measure bit for bit
//! what the per-draw hashing formula measured.
//!
//! `reference_evaluate` is that formula: the noiseless outcome, with the
//! time/power pair and every sampled counter each hashing (noise seed,
//! kernel name, configuration) from scratch, and each counter taking the
//! first normal of a full Box–Muller pair.
//!
//! The simulator serves a repeated measurement from its memo, which its
//! clones share: a second call, on the simulator or on a clone, must
//! report what the first did.
//!
//! The campaign reads only the time/power half of a measurement; it must
//! report what the full `evaluate` does.

use gpm_harness::{training_kernels, training_space};
use gpm_hw::HwConfig;
use gpm_sim::{ApuSimulator, EnergyBreakdown, KernelCharacteristics, KernelOutcome};
use gpm_workloads::extended_suite;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn splitmix_unit(mut z: u64) -> f64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    ((z >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

fn noise_factor(z: f64, rel_std: f64) -> f64 {
    (1.0 + rel_std * z).clamp(0.7, 1.3)
}

fn noise_pair(seed: u64, kernel_name: &str, cfg: HwConfig) -> (f64, f64) {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    kernel_name.hash(&mut h);
    cfg.dense_index().hash(&mut h);
    let s = h.finish();
    box_muller(
        splitmix_unit(s.wrapping_add(1)),
        splitmix_unit(s.wrapping_add(2)),
    )
}

fn noisy_counters(seed: u64, rel_std: f64, kernel_name: &str, cfg: HwConfig, values: &mut [f64]) {
    const EXACT: [bool; 8] = [true, false, false, false, true, false, false, false];
    const PERCENT: [bool; 8] = [false, true, true, false, false, true, false, false];
    for (i, v) in values.iter_mut().enumerate() {
        if EXACT[i] {
            continue;
        }
        let mut h = DefaultHasher::new();
        seed.hash(&mut h);
        kernel_name.hash(&mut h);
        cfg.dense_index().hash(&mut h);
        i.hash(&mut h);
        let (z, _) = box_muller(
            splitmix_unit(h.finish().wrapping_add(11)),
            splitmix_unit(h.finish().wrapping_add(13)),
        );
        *v *= noise_factor(z, rel_std);
        if PERCENT[i] {
            *v = v.clamp(0.0, 100.0);
        }
    }
}

fn reference_evaluate(
    sim: &ApuSimulator,
    kernel: &KernelCharacteristics,
    cfg: HwConfig,
) -> KernelOutcome {
    let params = sim.params();
    let mut out = sim.evaluate_exact(kernel, cfg);
    let (zt, zp) = noise_pair(params.noise_seed, kernel.name(), cfg);
    out.time_s *= noise_factor(zt, params.noise_rel_std);
    out.power.gpu_dyn_w *= noise_factor(zp, params.noise_rel_std);
    out.energy = EnergyBreakdown::from_power(&out.power, out.time_s);
    noisy_counters(
        params.noise_seed,
        params.noise_rel_std,
        kernel.name(),
        cfg,
        out.counters.values_mut(),
    );
    out
}

#[test]
fn noise_matches_the_per_draw_hashing_formula_on_every_kernel_and_config() {
    let sim = ApuSimulator::default();
    assert!(
        sim.params().noise_rel_std > 0.0,
        "the default simulator is noisy"
    );
    let mut kernels = training_kernels();
    let training = kernels.len();
    for w in extended_suite() {
        for k in w.kernels() {
            if !kernels.iter().any(|have| have.name() == k.name()) {
                kernels.push(k.clone());
            }
        }
    }
    let clone = sim.clone();
    let mut pairs = 0;
    for k in &kernels {
        for idx in 0..HwConfig::DENSE_COUNT {
            let cfg = HwConfig::from_dense_index(idx).unwrap();
            // `f64`'s `Debug` text round-trips its bits, so equal text is
            // bit-equality of every field.
            let want = format!("{:?}", reference_evaluate(&sim, k, cfg));
            for (call, got) in [
                ("measured", sim.evaluate(k, cfg)),
                ("served to the simulator", sim.evaluate(k, cfg)),
                ("served to a clone", clone.evaluate(k, cfg)),
            ] {
                assert_eq!(format!("{got:?}"), want, "{} at {cfg}, {call}", k.name());
            }
            pairs += 1;
        }
    }
    assert_eq!(pairs, kernels.len() * HwConfig::DENSE_COUNT);
    assert!(kernels.len() > training, "no extended kernel was added");
}

#[test]
fn the_time_power_half_is_bit_identical_to_evaluate() {
    let kernels = training_kernels();
    let space = training_space(1);
    for (what, sim) in [
        ("default", ApuSimulator::default()),
        ("noiseless", ApuSimulator::noiseless()),
    ] {
        for k in &kernels {
            for cfg in &space {
                let full = sim.evaluate(k, cfg);
                let half = sim.measure_time_power(k, cfg);
                assert_eq!(
                    (half.time_s.to_bits(), half.gpu_power_w.to_bits()),
                    (full.time_s.to_bits(), full.power.gpu_domain_w().to_bits()),
                    "{what}: {} at {cfg}",
                    k.name()
                );
            }
        }
    }
}
