//! Permutation feature importance.
//!
//! Measures how much a fitted forest relies on each feature: shuffle one
//! feature column across the evaluation set and record how much the error
//! grows. Features the model ignores score ≈ 0; load-bearing features
//! (for this problem, the GPU clock and CU count for time; the rail
//! voltage for power) score high. Used by the `model_accuracy` binary and
//! as a sanity check that the forest learned physics, not noise.

use crate::dataset::Dataset;
use crate::features::NUM_FEATURES;
use crate::forest::RandomForest;
use crate::metrics::rmse;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Importance of one feature: the relative RMSE increase when the feature
/// is permuted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureImportance {
    /// Feature index (see [`crate::features::FEATURE_NAMES`]).
    pub feature: usize,
    /// Baseline RMSE on the intact evaluation set.
    pub baseline_rmse: f64,
    /// RMSE with this feature's column permuted.
    pub permuted_rmse: f64,
}

impl FeatureImportance {
    /// Relative error increase; 0 = the model ignores the feature.
    pub fn score(&self) -> f64 {
        if self.baseline_rmse <= 0.0 {
            return self.permuted_rmse;
        }
        (self.permuted_rmse - self.baseline_rmse) / self.baseline_rmse
    }
}

/// Computes permutation importance of every feature for `forest` on
/// `eval_set`, against `targets` (one per sample, e.g.
/// [`Dataset::ys_log_time`] for a time forest). Each permuted row is
/// copied onto the stack and walked there.
///
/// Returns one entry per feature, in feature order.
///
/// # Panics
///
/// Panics if the evaluation set is empty or `targets` does not hold one
/// value per sample.
pub fn permutation_importance(
    forest: &RandomForest,
    eval_set: &Dataset,
    targets: &[f64],
    seed: u64,
) -> Vec<FeatureImportance> {
    let _span = gpm_telemetry::span("rf.score");
    assert!(
        !eval_set.is_empty(),
        "cannot measure importance on an empty set"
    );
    assert_eq!(targets.len(), eval_set.len(), "one target per sample");
    let preds: Vec<f64> = eval_set.rows().map(|x| forest.predict(x)).collect();
    let baseline = rmse(&preds, targets);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut column = Vec::with_capacity(eval_set.len());
    let mut permuted_preds = Vec::with_capacity(eval_set.len());
    (0..NUM_FEATURES)
        .map(|f| {
            column.clear();
            column.extend(eval_set.rows().map(|x| x[f]));
            column.shuffle(&mut rng);
            permuted_preds.clear();
            permuted_preds.extend(eval_set.rows().zip(&column).map(|(x, &v)| {
                let mut row = [0.0; NUM_FEATURES];
                row.copy_from_slice(x);
                row[f] = v;
                forest.predict(&row)
            }));
            FeatureImportance {
                feature: f,
                baseline_rmse: baseline,
                permuted_rmse: rmse(&permuted_preds, targets),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestParams;
    use crate::RegressionTree;
    use gpm_hw::{ConfigSpace, HwConfig};
    use gpm_sim::{ApuSimulator, KernelCharacteristics};

    /// Synthetic data where only feature 0 matters; feature 1 is a pure
    /// distractor and the rest are constant.
    fn dataset() -> Dataset {
        let mut ds = Dataset::default();
        for i in 0..240 {
            let mut row = [0.0; NUM_FEATURES];
            row[0] = (i % 60) as f64;
            row[1] = ((i * 37) % 17) as f64;
            ds.push(
                &row,
                (2.0 * row[0]).exp().clamp(1e-9, 1e6),
                2.0 * row[0] + 5.0,
                &format!("k{}", i % 3),
            );
        }
        ds
    }

    fn power_forest(ds: &Dataset) -> RandomForest {
        RandomForest::fit(&ds.xs(), ds.gpu_power_w(), &ForestParams::default(), 5)
    }

    /// The nested-walk formula the packed walk replaced: the unpacked
    /// trees' mean over a cloned row per permuted sample.
    fn nested_oracle(
        trees: &[RegressionTree],
        eval_set: &Dataset,
        targets: &[f64],
        seed: u64,
    ) -> Vec<FeatureImportance> {
        let predict =
            |x: &[f64]| trees.iter().map(|t| t.predict(x)).sum::<f64>() / trees.len() as f64;
        let xs = eval_set.xs();
        let preds: Vec<f64> = xs.iter().map(|x| predict(x)).collect();
        let baseline = rmse(&preds, targets);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..xs[0].len())
            .map(|f| {
                let mut column: Vec<f64> = xs.iter().map(|x| x[f]).collect();
                column.shuffle(&mut rng);
                let permuted: Vec<f64> = xs
                    .iter()
                    .zip(&column)
                    .map(|(x, &v)| {
                        let mut x2 = x.clone();
                        x2[f] = v;
                        predict(&x2)
                    })
                    .collect();
                FeatureImportance {
                    feature: f,
                    baseline_rmse: baseline,
                    permuted_rmse: rmse(&permuted, targets),
                }
            })
            .collect()
    }

    #[test]
    fn informative_feature_dominates() {
        let ds = dataset();
        let imp = permutation_importance(&power_forest(&ds), &ds, ds.gpu_power_w(), 5);
        assert_eq!(imp.len(), NUM_FEATURES);
        assert!(
            imp[0].score() > 5.0 * imp[1].score().max(0.01),
            "feature 0 score {} should dwarf feature 1 score {}",
            imp[0].score(),
            imp[1].score()
        );
    }

    #[test]
    fn scores_are_nonnegative_in_expectation() {
        let ds = dataset();
        let imp = permutation_importance(&power_forest(&ds), &ds, ds.gpu_power_w(), 5);
        // Permuting can only help by chance; allow tiny negatives.
        for fi in &imp {
            assert!(
                fi.score() > -0.1,
                "feature {} score {}",
                fi.feature,
                fi.score()
            );
        }
    }

    #[test]
    fn importance_is_deterministic_per_seed() {
        let ds = dataset();
        let forest = power_forest(&ds);
        let a = permutation_importance(&forest, &ds, ds.gpu_power_w(), 9);
        let b = permutation_importance(&forest, &ds, ds.gpu_power_w(), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn packed_walk_matches_the_nested_oracle_bit_for_bit() {
        let sim = ApuSimulator::default();
        let kernels = [
            KernelCharacteristics::compute_bound("cb", 15.0),
            KernelCharacteristics::memory_bound("mb", 1.5),
            KernelCharacteristics::peak("pk", 8.0),
        ];
        let ds = Dataset::from_campaign(
            &sim,
            &kernels,
            &ConfigSpace::paper_campaign(),
            HwConfig::FAIL_SAFE,
            1,
        );
        let (train, test) = ds.split(0.2, 3);
        let params = ForestParams {
            num_trees: 11,
            ..ForestParams::default()
        };
        for (targets, test_targets) in [
            (train.ys_log_time(), test.ys_log_time()),
            (train.gpu_power_w().to_vec(), test.gpu_power_w().to_vec()),
        ] {
            let forest = RandomForest::fit(&train.xs(), &targets, &params, 4);
            let trees = forest.to_trees();
            for seed in [7, 8] {
                let got = permutation_importance(&forest, &test, &test_targets, seed);
                let want = nested_oracle(&trees, &test, &test_targets, seed);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.feature, w.feature);
                    assert_eq!(g.baseline_rmse.to_bits(), w.baseline_rmse.to_bits());
                    assert_eq!(
                        g.permuted_rmse.to_bits(),
                        w.permuted_rmse.to_bits(),
                        "feature {} seed {seed}",
                        g.feature
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_set_panics() {
        let ds = dataset();
        let _ = permutation_importance(&power_forest(&ds), &Dataset::default(), &[], 1);
    }
}
