//! The parallel measurement campaign must be byte-identical regardless
//! of worker count or the order in which workers happen to finish.
//! Every artifact in `results/` descends from a campaign dataset, so
//! this is the root determinism guarantee behind the reproduction
//! pipeline's tolerance gates.

use gpm_harness::{parallel_campaign, parallel_campaign_auto, training_kernels, training_space};
use gpm_hw::HwConfig;
use gpm_model::Dataset;
use gpm_sim::ApuSimulator;

/// Serialized bytes of every sample, in dataset order. Comparing the
/// encoded form (rather than `PartialEq` on floats) pins the exact bit
/// patterns every forest is fitted to.
fn campaign_bytes(ds: &Dataset) -> String {
    serde_json::to_string(&ds.samples().to_vec()).expect("samples serialize")
}

#[test]
fn campaign_is_byte_identical_across_thread_counts() {
    let sim = ApuSimulator::default();
    let kernels = training_kernels();
    let space = training_space(3);

    let sequential = Dataset::from_campaign(&sim, &kernels, &space, HwConfig::FAIL_SAFE);
    let expected = campaign_bytes(&sequential);

    for threads in [1usize, 2] {
        let par = parallel_campaign(&sim, &kernels, &space, HwConfig::FAIL_SAFE, threads);
        assert_eq!(
            campaign_bytes(&par),
            expected,
            "campaign diverged at {threads} worker threads"
        );
    }

    let auto = parallel_campaign_auto(&sim, &kernels, &space, HwConfig::FAIL_SAFE);
    assert_eq!(
        campaign_bytes(&auto),
        expected,
        "campaign diverged with auto-sized worker pool"
    );
}

#[test]
fn campaign_is_independent_of_worker_completion_order() {
    let sim = ApuSimulator::default();
    let kernels = training_kernels();
    let space = training_space(4);

    // More workers than kernels maximizes scheduling freedom: chunks are
    // single kernels and finish in whatever order the OS picks. Repeat
    // the run so a lucky in-order completion cannot mask a reassembly
    // bug.
    let reference = campaign_bytes(&parallel_campaign(
        &sim,
        &kernels,
        &space,
        HwConfig::FAIL_SAFE,
        1,
    ));
    for round in 0..4 {
        let par = parallel_campaign(&sim, &kernels, &space, HwConfig::FAIL_SAFE, 64);
        assert_eq!(
            campaign_bytes(&par),
            reference,
            "round {round} produced a different byte stream"
        );
    }
}
