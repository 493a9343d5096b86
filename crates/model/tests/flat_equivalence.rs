//! Property tests pinning the packed forest walk to the nested
//! traversal: across randomly fitted forests, [`RandomForest::predict`]
//! is bit-identical to the mean of the unpacked trees' predictions.

use gpm_model::{ForestParams, RandomForest, TreeParams, NUM_FEATURES};
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

fn forest_params(num_trees: usize, max_depth: usize) -> ForestParams {
    ForestParams {
        num_trees,
        tree: TreeParams {
            max_depth,
            min_samples_leaf: 2,
            feature_subsample: None,
            threshold_candidates: 6,
        },
        bootstrap_fraction: 0.9,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn packed_walk_is_bit_identical_to_nested(
        seed in 0u64..(1u64 << 32),
        num_trees in 1usize..8,
        max_depth in 2usize..8,
        rows in 20usize..80,
    ) {
        let (xs, ys) = random_problem(seed, rows);
        let forest = RandomForest::fit(&xs, &ys, &forest_params(num_trees, max_depth), seed);
        let trees = forest.to_trees();
        // Training rows land exactly on leaves; probe rows exercise both
        // branch directions away from fitted thresholds.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let probes: Vec<Vec<f64>> = (0..20)
            .map(|_| (0..NUM_FEATURES).map(|_| rng.gen_range(-12.0..12.0)).collect())
            .collect();
        for x in xs.iter().take(25).chain(&probes) {
            let nested = trees.iter().map(|t| t.predict(x)).sum::<f64>() / trees.len() as f64;
            prop_assert_eq!(forest.predict(x).to_bits(), nested.to_bits());
        }
    }
}
