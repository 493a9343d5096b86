//! Feature encoding shared by training and prediction.
//!
//! Each sample is the concatenation of the kernel's eight Table III
//! counters (log-scaled, since they span many orders of magnitude) and six
//! features describing the *target* hardware configuration. Keeping the
//! encoding in one place guarantees that the predictor sees exactly the
//! layout the forest was trained on.
//!
//! The encoding has two halves:
//!
//! * [`encode_counter_features`] — the snapshot-dependent prefix (four
//!   `ln(1+x)` calls);
//! * [`encode_config_features`] — the six-element configuration suffix.
//!
//! The predictor writes both into one stack row per estimate;
//! [`encode_features`] is the same composition into a `Vec`.

use gpm_hw::HwConfig;
use gpm_sim::{CounterSet, NUM_COUNTERS};

/// Number of configuration features appended to the counter prefix.
pub const NUM_CONFIG_FEATURES: usize = 6;

/// Total feature dimensionality: 8 counters + 6 configuration features.
pub const NUM_FEATURES: usize = NUM_COUNTERS + NUM_CONFIG_FEATURES;

/// Human-readable feature names, index-aligned with [`encode_features`].
pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
    "log_GlobalWorkSize",
    "MemUnitStalled",
    "CacheHit",
    "log_VFetchInsts",
    "ScratchRegs",
    "LDSBankConflict",
    "log_VALUInsts",
    "log_FetchSize",
    "cpu_freq_ghz",
    "nb_freq_ghz",
    "mem_freq_ghz",
    "gpu_freq_ghz",
    "cu_count",
    "rail_voltage",
];

/// Encodes the snapshot-dependent feature prefix: the eight Table III
/// counters with wide-dynamic-range entries (`GlobalWorkSize`,
/// `VFetchInsts`, `VALUInsts`, `FetchSize`) `ln(1+x)`-scaled and
/// percentage counters kept linear.
pub fn encode_counter_features(counters: &CounterSet) -> [f64; NUM_COUNTERS] {
    let v = counters.values();
    [
        (v[0] + 1.0).ln(),
        v[1],
        v[2],
        (v[3] + 1.0).ln(),
        v[4],
        v[5],
        (v[6] + 1.0).ln(),
        (v[7] + 1.0).ln(),
    ]
}

/// Encodes the six-element configuration suffix: physical quantities
/// (clocks in GHz, the shared rail voltage) rather than opaque state
/// indices, so trees can split on meaningful thresholds.
pub fn encode_config_features(cfg: HwConfig) -> [f64; NUM_CONFIG_FEATURES] {
    [
        cfg.cpu.freq_ghz(),
        cfg.nb.freq_ghz(),
        cfg.nb.mem_freq_mhz() / 1000.0,
        cfg.gpu.freq_mhz() / 1000.0,
        f64::from(cfg.cu.get()),
        cfg.rail_voltage(),
    ]
}

/// Encodes a (counters, configuration) pair into the model feature vector.
///
/// The composition of [`encode_counter_features`] and
/// [`encode_config_features`].
///
/// # Examples
///
/// ```
/// use gpm_hw::HwConfig;
/// use gpm_model::{encode_features, NUM_FEATURES};
/// use gpm_sim::CounterSet;
///
/// let f = encode_features(&CounterSet::default(), HwConfig::FAIL_SAFE);
/// assert_eq!(f.len(), NUM_FEATURES);
/// ```
pub fn encode_features(counters: &CounterSet, cfg: HwConfig) -> Vec<f64> {
    let mut out = Vec::with_capacity(NUM_FEATURES);
    out.extend_from_slice(&encode_counter_features(counters));
    out.extend_from_slice(&encode_config_features(cfg));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_hw::{CpuPState, CuCount, GpuDpm, NbState};

    #[test]
    fn feature_count_and_names_agree() {
        assert_eq!(FEATURE_NAMES.len(), NUM_FEATURES);
        let f = encode_features(&CounterSet::default(), HwConfig::FAIL_SAFE);
        assert_eq!(f.len(), NUM_FEATURES);
    }

    #[test]
    fn config_features_vary_with_config() {
        let c = CounterSet::default();
        let a = encode_features(&c, HwConfig::MAX_PERF);
        let b = encode_features(
            &c,
            HwConfig::new(CpuPState::P7, NbState::Nb3, GpuDpm::Dpm0, CuCount::MIN),
        );
        // Counter features identical, config features all different.
        assert_eq!(a[..8], b[..8]);
        for i in 8..NUM_FEATURES {
            assert_ne!(a[i], b[i], "feature {} should differ", FEATURE_NAMES[i]);
        }
    }

    #[test]
    fn log_scaling_compresses_large_counters() {
        let big = CounterSet::from_values([1e9, 50.0, 50.0, 1e6, 8.0, 5.0, 1e4, 1e7]);
        let f = encode_features(&big, HwConfig::FAIL_SAFE);
        assert!(f[0] < 25.0);
        assert!(f[3] < 16.0);
        assert!(f[7] < 18.0);
        // Percent counters stay linear.
        assert_eq!(f[1], 50.0);
    }

    #[test]
    fn features_are_finite() {
        let c = CounterSet::from_values([0.0; 8]);
        for v in encode_features(&c, HwConfig::FAIL_SAFE) {
            assert!(v.is_finite());
        }
    }
}
