//! Property tests for the forest predictor's value memo: retraining
//! (through any `fit_with_threads` thread count) assembles a predictor
//! with a strictly newer generation tag, and the thread-local
//! per-snapshot value memo never serves an estimate priced by an older
//! predictor — predictions after a retrain are bit-identical to the
//! fresh predictor's nested-forest reference.

use gpm_hw::{ConfigSpace, HwConfig};
use gpm_model::{
    encode_features, ForestParams, RandomForest, RandomForestPredictor, RegressionTree, TreeParams,
    NUM_FEATURES,
};
use gpm_sim::predictor::{KernelSnapshot, PowerPerfPredictor};
use gpm_sim::CounterSet;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random regression problem of the model's real dimensionality.
fn random_problem(seed: u64, rows: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> = (0..rows)
        .map(|_| {
            (0..NUM_FEATURES)
                .map(|_| rng.gen_range(-10.0..10.0))
                .collect()
        })
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| x[0] - 0.5 * x[5] + (x[9] * 0.3).tanh() + rng.gen_range(-0.2..0.2))
        .collect();
    (xs, ys)
}

fn params() -> ForestParams {
    ForestParams {
        num_trees: 4,
        tree: TreeParams {
            max_depth: 6,
            min_samples_leaf: 2,
            feature_subsample: None,
            threshold_candidates: 6,
        },
        bootstrap_fraction: 0.9,
    }
}

/// Fits both forests at `threads` and assembles a predictor — the
/// retraining path the memo must survive.
fn fit_predictor(seed: u64, threads: usize) -> RandomForestPredictor {
    let (xs, ys_time) = random_problem(seed, 60);
    let (_, ys_power) = random_problem(seed ^ 0xABCD, 60);
    let time = RandomForest::fit_with_threads(&xs, &ys_time, &params(), seed, threads);
    let power = RandomForest::fit_with_threads(&xs, &ys_power, &params(), seed ^ 1, threads);
    RandomForestPredictor::from_forests(time, power)
}

fn snapshot(seed: u64) -> KernelSnapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut values = [0.0f64; 8];
    for v in &mut values {
        *v = rng.gen_range(0.0..1e6);
    }
    KernelSnapshot::counters_only(CounterSet::from_values(values), HwConfig::FAIL_SAFE, 1.0)
}

/// Reference: one-shot encoding + nested forest traversal + exp/clamp,
/// touching none of the thread-local memo state under test.
fn reference_sweep(
    rf: &RandomForestPredictor,
    snap: &KernelSnapshot,
    cfgs: &[HwConfig],
) -> Vec<u64> {
    let nested = |trees: &[RegressionTree], x: &[f64]| {
        trees.iter().map(|t| t.predict(x)).sum::<f64>() / trees.len() as f64
    };
    let (time, power) = (rf.time_forest().to_trees(), rf.power_forest().to_trees());
    cfgs.iter()
        .flat_map(|&cfg| {
            let features = encode_features(&snap.counters, cfg);
            let time_s = nested(&time, &features).exp().max(1e-9);
            let gpu_power_w = nested(&power, &features).max(0.1);
            [time_s.to_bits(), gpu_power_w.to_bits()]
        })
        .collect()
}

/// The predictor's own estimates, walked or served by the memo.
fn memo_sweep(rf: &RandomForestPredictor, snap: &KernelSnapshot, cfgs: &[HwConfig]) -> Vec<u64> {
    cfgs.iter()
        .flat_map(|&cfg| {
            let est = rf.predict(snap, cfg);
            [est.time_s.to_bits(), est.gpu_power_w.to_bits()]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generation tags are strictly monotone across retrains, whatever
    /// thread count fitted the forests — so memo entries priced by an
    /// older predictor can never look current to a newer one.
    #[test]
    fn retraining_strictly_advances_the_generation(
        seed in 0u64..(1u64 << 32),
        threads_a in 0usize..4,
        threads_b in 0usize..4,
    ) {
        let a = fit_predictor(seed, threads_a);
        let b = fit_predictor(seed ^ 0x5EED, threads_b);
        prop_assert!(a.generation() > 0, "generation 0 is never handed out");
        prop_assert!(
            b.generation() > a.generation(),
            "retrain produced generation {} after {}",
            b.generation(),
            a.generation()
        );
        // Clones share the fitted model and its memo identity.
        prop_assert_eq!(a.clone().generation(), a.generation());
    }

    /// The stale-serve property itself: prime the thread-local memo with
    /// predictor A, retrain to B on the same thread, and price the same
    /// snapshot/configs — every value must match B's nested reference
    /// bit-for-bit (a stale memo entry from A would leak A's values).
    /// Interleaving A afterwards must restore A's values just as exactly.
    #[test]
    fn memo_primed_by_an_old_predictor_is_never_served_after_retrain(
        seed in 0u64..(1u64 << 32),
        threads in 0usize..4,
    ) {
        let cfgs: Vec<HwConfig> = ConfigSpace::paper_campaign().iter().collect();
        let snap = snapshot(seed ^ 0xC0FFEE);

        let a = fit_predictor(seed, threads);
        // Prime: fill the value memo for this exact (generation,
        // snapshot) on this thread, twice so the second sweep is pure
        // memo hits.
        let a_first = memo_sweep(&a, &snap, &cfgs);
        let a_memo = memo_sweep(&a, &snap, &cfgs);
        prop_assert_eq!(&a_first, &a_memo, "A's memo hit diverged from its own fill");

        // Retrain. Same thread, same snapshot, same configs — only the
        // predictor (and its generation) changed.
        let b = fit_predictor(seed ^ 0xB00_57ED, threads);
        let b_memo = memo_sweep(&b, &snap, &cfgs);
        let b_reference = reference_sweep(&b, &snap, &cfgs);
        prop_assert_eq!(&b_memo, &b_reference, "B served stale estimates primed by A");
        prop_assert_ne!(&b_memo, &a_first, "distinct forests predicted identically");

        // Swap back to A: its values must round-trip exactly, from A's
        // own memo slot, not B's.
        let a_again = memo_sweep(&a, &snap, &cfgs);
        prop_assert_eq!(&a_again, &a_first, "A's values did not survive the B interleave");
    }

    /// `fit_with_threads` is bit-identical across thread counts, so the
    /// memo property composes with parallel retraining: predictors
    /// fitted at different thread counts from the same data predict
    /// identically (while still carrying distinct generations).
    #[test]
    fn thread_count_changes_generation_but_not_predictions(
        seed in 0u64..(1u64 << 32),
    ) {
        let cfgs: Vec<HwConfig> = ConfigSpace::paper_campaign().iter().collect();
        let snap = snapshot(seed);
        let seq = fit_predictor(seed, 1);
        let par = fit_predictor(seed, 0);
        prop_assert!(par.generation() > seq.generation());
        prop_assert_eq!(memo_sweep(&seq, &snap, &cfgs), memo_sweep(&par, &snap, &cfgs));
    }
}
