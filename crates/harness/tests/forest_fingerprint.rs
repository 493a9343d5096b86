//! Pins the fitted forests of the evaluation contexts bit for bit.
//!
//! `RandomForestPredictor::train_and_evaluate` on an `EvalOptions`
//! campaign runs the whole training path: the train/test split, the
//! bootstrap bags drawn from the shared seeded stream, the per-tree split
//! search, and the threaded fit. The serialized forests are hashed and the
//! held-out report is compared exactly, so any change in how a split is
//! chosen (including how ties between equally good splits are broken)
//! fails here even when the accuracy barely moves. Because the options are
//! read from `EvalOptions` itself, changing a context's forest parameters,
//! seed or campaign also fails here until the fingerprint is re-recorded.

use gpm_harness::{training_kernels, training_space, EvalOptions};
use gpm_hw::HwConfig;
use gpm_model::{Dataset, RandomForest, RandomForestPredictor};
use gpm_sim::ApuSimulator;

/// Forest hashes, then the bit patterns of time/power MAPE and R², then
/// the train and test sample counts.
type Fingerprint = (u64, u64, u64, u64, u64, u64, usize, usize);

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fits the context's forests the way `EvalContext::build` does and
/// fingerprints them.
fn fingerprint(options: &EvalOptions) -> Fingerprint {
    let sim = ApuSimulator::new(options.sim_params.clone());
    let dataset = Dataset::from_campaign(
        &sim,
        &training_kernels(),
        &training_space(options.train_config_stride),
        HwConfig::FAIL_SAFE,
    );
    let (rf, report) = RandomForestPredictor::train_and_evaluate(
        &dataset,
        &options.forest,
        options.test_fraction,
        options.seed,
    );
    let hash = |forest: &RandomForest| {
        fnv1a(
            serde_json::to_string(forest)
                .expect("forest serializes")
                .as_bytes(),
        )
    };
    (
        hash(rf.time_forest()),
        hash(rf.power_forest()),
        report.time_mape.to_bits(),
        report.power_mape.to_bits(),
        report.time_r2.to_bits(),
        report.power_r2.to_bits(),
        report.train_samples,
        report.test_samples,
    )
}

#[test]
fn fast_context_forests_match_recorded_fingerprint() {
    assert_eq!(fingerprint(&EvalOptions::fast()), FAST);
}

/// The forests every default-mode experiment runs on. Seconds in release:
/// `cargo test --release -p gpm-harness --test forest_fingerprint -- --ignored`.
#[test]
#[ignore = "needs a release build; CI runs it with --ignored"]
fn default_context_forests_match_recorded_fingerprint() {
    assert_eq!(fingerprint(&EvalOptions::default()), DEFAULT);
}

/// Recorded from the per-threshold reference fitter.
const FAST: Fingerprint = (
    0x793c_b38d_2ed7_ab8d,
    0xca09_1b6d_f011_5ffa,
    0x3fc3_d077_9eee_c8ad,
    0x3fb0_9676_bfd7_50fd,
    0x3fee_9ecb_5cf1_3c41,
    0x3fef_4282_92b2_fb29,
    9874,
    1742,
);

/// Recorded from the per-threshold reference fitter.
const DEFAULT: Fingerprint = (
    0x8c1f_9b6a_9b4d_800b,
    0xf619_f057_61a4_d7a4,
    0x3fb5_9b25_896c_6de6,
    0x3fa2_0c82_04b7_7bee,
    0x3fef_9403_3e54_c707,
    0x3fef_c6dc_e5b3_cfc2,
    19_747,
    3485,
);
