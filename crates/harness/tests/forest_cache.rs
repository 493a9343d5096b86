//! The run-scoped forest cache: a hit is the forest a fresh fit would
//! produce, the key is the exact training input, and concurrent requests
//! for one key fit it once.
//!
//! Fits are counted from `rf.fit` spans. One fit trains two forests (time
//! and power), so a fit shows up as two spans.

use gpm_harness::{EvalContext, EvalOptions, ForestCache};
use gpm_hw::{ConfigSpace, CpuPState, GpuDpm, HwConfig};
use gpm_model::{
    Dataset, ForestParams, RandomForest, RandomForestPredictor, TreeParams, NUM_FEATURES,
};
use gpm_sim::{ApuSimulator, KernelCharacteristics, SimParams};
use gpm_telemetry::Telemetry;
use std::sync::Barrier;

/// `rf.fit` spans per fit: the time forest and the power forest.
const SPANS_PER_FIT: u64 = 2;

/// 64-bit FNV-1a, as in `forest_fingerprint.rs`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn forest_hash(forest: &RandomForest) -> u64 {
    fnv1a(
        serde_json::to_string(forest)
            .expect("forest serializes")
            .as_bytes(),
    )
}

/// A forest small enough to fit in milliseconds in a debug build.
fn tiny_forest() -> ForestParams {
    ForestParams {
        num_trees: 2,
        tree: TreeParams {
            max_depth: 4,
            min_samples_leaf: 4,
            feature_subsample: None,
            threshold_candidates: 4,
        },
        bootstrap_fraction: 0.5,
    }
}

/// The real training campaign, thinned, with the tiny forest.
fn tiny_options() -> EvalOptions {
    EvalOptions {
        forest: tiny_forest(),
        train_config_stride: 8,
        ..EvalOptions::fast()
    }
}

fn small_dataset() -> Dataset {
    let kernels = [
        KernelCharacteristics::compute_bound("a", 10.0),
        KernelCharacteristics::memory_bound("b", 1.0),
        KernelCharacteristics::peak("c", 8.0),
    ];
    let space = ConfigSpace::nb_cu_sweep(CpuPState::P5, GpuDpm::Dpm4);
    Dataset::from_campaign(
        &ApuSimulator::default(),
        &kernels,
        &space,
        HwConfig::FAIL_SAFE,
        1,
    )
}

/// `rf.fit` spans recorded on this thread while `f` runs.
fn fit_spans(f: impl FnOnce()) -> u64 {
    let telemetry = Telemetry::new();
    {
        let _enter = telemetry.enter();
        f();
    }
    telemetry
        .snapshot()
        .span("rf.fit")
        .map_or(0, |row| row.count)
}

#[test]
fn a_hit_returns_the_forests_a_fresh_fit_produces() {
    let cache = ForestCache::new();
    let dataset = small_dataset();
    let forest = tiny_forest();
    let miss = fit_spans(|| {
        cache.fit(dataset.clone(), &forest, 0.2, 7);
    });
    assert_eq!(miss, SPANS_PER_FIT);

    let mut hit = None;
    let spans = fit_spans(|| hit = Some(cache.fit(dataset.clone(), &forest, 0.2, 7)));
    assert_eq!(spans, 0, "a repeated request must not fit again");
    let (cached, cached_report) = hit.unwrap();

    let (fresh, fresh_report) =
        RandomForestPredictor::train_and_evaluate(&dataset, &forest, 0.2, 7);
    assert_eq!(
        forest_hash(cached.time_forest()),
        forest_hash(fresh.time_forest())
    );
    assert_eq!(
        forest_hash(cached.power_forest()),
        forest_hash(fresh.power_forest())
    );
    assert_eq!(cached_report, fresh_report);
}

#[test]
fn every_part_of_the_key_separates_fits() {
    let cache = ForestCache::new();
    let dataset = small_dataset();
    let forest = tiny_forest();
    cache.fit(dataset.clone(), &forest, 0.2, 7);
    let deeper = ForestParams {
        tree: TreeParams {
            max_depth: 5,
            ..forest.tree.clone()
        },
        ..forest.clone()
    };
    for (what, spans) in [
        (
            "seed",
            fit_spans(|| drop(cache.fit(dataset.clone(), &forest, 0.2, 8))),
        ),
        (
            "test fraction",
            fit_spans(|| drop(cache.fit(dataset.clone(), &forest, 0.25, 7))),
        ),
        (
            "forest parameters",
            fit_spans(|| drop(cache.fit(dataset.clone(), &deeper, 0.2, 7))),
        ),
    ] {
        assert_eq!(spans, SPANS_PER_FIT, "a different {what} must miss");
    }
}

#[test]
fn a_dataset_differing_only_in_the_sign_of_zero_misses() {
    // Two copies of one campaign whose first feature value is `0.0` in
    // one and `-0.0` in the other.
    let source = small_dataset();
    let with_first_feature = |value: f64| {
        let mut ds = Dataset::default();
        for i in 0..source.len() {
            let mut row = [0.0; NUM_FEATURES];
            row.copy_from_slice(source.row(i));
            if i == 0 {
                row[0] = value;
            }
            ds.push(
                &row,
                source.time_s()[i],
                source.gpu_power_w()[i],
                source.kernel(i),
            );
        }
        ds
    };
    let positive = with_first_feature(0.0);
    let negative = with_first_feature(-0.0);
    // `PartialEq` cannot tell them apart; the cache must.
    assert_eq!(positive, negative);

    let cache = ForestCache::new();
    let forest = tiny_forest();
    cache.fit(positive.clone(), &forest, 0.2, 7);
    let spans = fit_spans(|| drop(cache.fit(negative, &forest, 0.2, 7)));
    assert_eq!(spans, SPANS_PER_FIT);
    let spans = fit_spans(|| drop(cache.fit(positive, &forest, 0.2, 7)));
    assert_eq!(spans, 0);
}

#[test]
fn a_noise_seed_change_misses() {
    let cache = ForestCache::new();
    let options = tiny_options();
    EvalContext::build_cached(options.clone(), &cache);
    let reseeded = EvalOptions {
        sim_params: SimParams {
            noise_seed: 0x1234_5678,
            ..options.sim_params.clone()
        },
        ..options
    };
    let spans = fit_spans(|| drop(EvalContext::build_cached(reseeded, &cache)));
    assert_eq!(spans, SPANS_PER_FIT);
}

#[test]
fn a_transition_scale_change_hits_because_the_campaign_never_reads_it() {
    let cache = ForestCache::new();
    let options = tiny_options();
    let base = EvalContext::build_cached(options.clone(), &cache);
    let slow = EvalOptions {
        sim_params: SimParams {
            dvfs_transition_scale: 10.0,
            ..options.sim_params.clone()
        },
        ..options
    };
    let mut scaled = None;
    let spans = fit_spans(|| scaled = Some(EvalContext::build_cached(slow, &cache)));
    assert_eq!(spans, 0);
    let scaled = scaled.unwrap();
    assert_eq!(scaled.rf, base.rf);
    assert_eq!(scaled.rf_report, base.rf_report);
    // The context keeps its own simulator parameters.
    assert_eq!(scaled.sim.params().dvfs_transition_scale, 10.0);
}

#[test]
fn cached_contexts_get_their_own_baseline_caches() {
    let cache = ForestCache::new();
    let w = gpm_workloads::workload_by_name("Spmv").unwrap();
    let first = EvalContext::build_cached(tiny_options(), &cache);
    gpm_harness::ExecEnv::new().evaluate(&first, &w, gpm_harness::Scheme::PpkOracle);
    assert_eq!(first.baseline_stats().computed, 1);
    let second = EvalContext::build_cached(tiny_options(), &cache);
    assert_eq!(second.baseline_stats(), Default::default());
}

#[test]
fn concurrent_requests_for_one_key_fit_once() {
    let cache = ForestCache::new();
    let dataset = small_dataset();
    let forest = tiny_forest();
    let telemetry = Telemetry::new();
    let start = Barrier::new(2);
    let results: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let _enter = telemetry.enter();
                    start.wait();
                    cache.fit(dataset.clone(), &forest, 0.2, 7)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let spans = telemetry
        .snapshot()
        .span("rf.fit")
        .map_or(0, |row| row.count);
    assert_eq!(spans, SPANS_PER_FIT);
    assert_eq!(results[0], results[1]);
}
