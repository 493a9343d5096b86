//! Pins the fitted forests of the evaluation contexts bit for bit.
//!
//! `RandomForestPredictor::train_and_evaluate` on an `EvalOptions`
//! campaign runs the whole training path: the train/test split, the
//! bootstrap bags drawn from the shared seeded stream, the per-tree split
//! search, and the threaded fit. The saved (packed) forests are hashed and the
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
        1,
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

/// Recorded from the per-threshold reference fitter; the forest hashes
/// were re-recorded when forests were first saved in the packed layout,
/// by packing the previous build's fitted forests and hashing them.
const FAST: Fingerprint = (
    0xfebb_e925_8cf3_7212,
    0x870e_76f9_059d_cfdd,
    0x3fc3_d077_9eee_c8ad,
    0x3fb0_9676_bfd7_50fd,
    0x3fee_9ecb_5cf1_3c41,
    0x3fef_4282_92b2_fb29,
    9874,
    1742,
);

/// Recorded as [`FAST`] was.
const DEFAULT: Fingerprint = (
    0x4126_b8af_c6ea_0d1e,
    0x0864_7d72_b16f_e20c,
    0x3fb5_9b25_896c_6de6,
    0x3fa2_0c82_04b7_7bee,
    0x3fef_9403_3e54_c707,
    0x3fef_c6dc_e5b3_cfc2,
    19_747,
    3485,
);
