//! Property tests pinning the flat-inference engine to the nested
//! traversal: across randomly fitted forests, flat predictions are
//! bit-identical to [`RandomForest::predict`].

use gpm_model::{FlatForest, ForestParams, RandomForest, TreeParams, NUM_FEATURES};
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
    fn flat_forest_is_bit_identical_to_nested(
        seed in 0u64..(1u64 << 32),
        num_trees in 1usize..8,
        max_depth in 2usize..8,
        rows in 20usize..80,
    ) {
        let (xs, ys) = random_problem(seed, rows);
        let forest = RandomForest::fit(&xs, &ys, &forest_params(num_trees, max_depth), seed);
        let flat = FlatForest::from_forest(&forest).unwrap();
        // Training rows land exactly on leaves; probe rows exercise both
        // branch directions away from fitted thresholds.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let probes: Vec<Vec<f64>> = (0..20)
            .map(|_| (0..NUM_FEATURES).map(|_| rng.gen_range(-12.0..12.0)).collect())
            .collect();
        for x in xs.iter().take(25).chain(&probes) {
            prop_assert_eq!(flat.predict(x).to_bits(), forest.predict(x).to_bits());
        }
    }

    #[test]
    fn predict_all_into_matches_scalar_mean(
        seed in 0u64..(1u64 << 32),
        num_trees in 1usize..8,
    ) {
        let (xs, ys) = random_problem(seed, 40);
        let forest = RandomForest::fit(&xs, &ys, &forest_params(num_trees, 5), seed);
        let mut per_tree = Vec::new();
        for x in xs.iter().take(10) {
            forest.predict_all_into(x, &mut per_tree);
            prop_assert_eq!(per_tree.len(), forest.num_trees());
            let mean = per_tree.iter().sum::<f64>() / per_tree.len() as f64;
            prop_assert_eq!(mean.to_bits(), forest.predict(x).to_bits());
        }
    }
}
