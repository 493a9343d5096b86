//! Random Forest regression: bagged CART trees with feature subsampling
//! (Breiman 2001, the algorithm the paper selected for its predictor).

use crate::tree::{FitScratch, RankedColumns, RegressionTree, SimdTier, TreeParams};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a [`RandomForest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForestParams {
    /// Number of trees in the ensemble.
    pub num_trees: usize,
    /// Parameters of each tree. `feature_subsample: None` here means
    /// "use ⌈√d⌉ features per split", the usual forest default.
    pub tree: TreeParams,
    /// Bootstrap sample size as a fraction of the training set.
    pub bootstrap_fraction: f64,
}

impl Default for ForestParams {
    fn default() -> ForestParams {
        ForestParams {
            num_trees: 48,
            tree: TreeParams::default(),
            bootstrap_fraction: 1.0,
        }
    }
}

/// A fitted Random Forest: the mean of its trees' predictions.
///
/// # Examples
///
/// ```
/// use gpm_model::{RandomForest, ForestParams};
///
/// let xs: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64, (80 - i) as f64]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0).collect();
/// let forest = RandomForest::fit(&xs, &ys, &ForestParams::default(), 42);
/// let err = (forest.predict(&[40.0, 40.0]) - 80.0).abs();
/// assert!(err < 20.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
    /// For each tree, the training-sample indices it saw (bootstrap
    /// membership), kept for out-of-bag evaluation.
    in_bag: Vec<Vec<bool>>,
}

impl RandomForest {
    /// Fits a forest to `(xs, ys)` with deterministic randomness from
    /// `seed`, fitting trees in parallel across all available cores.
    ///
    /// Equivalent to [`fit_with_threads`](RandomForest::fit_with_threads)
    /// with `threads = 0` (auto); the result is bit-identical regardless
    /// of thread count.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or `ys.len() != xs.len()` (propagated from
    /// tree fitting).
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], params: &ForestParams, seed: u64) -> RandomForest {
        RandomForest::fit_with_threads(xs, ys, params, seed, 0)
    }

    /// Fits a forest on an explicit number of worker threads (`0` means
    /// "one per available core").
    ///
    /// Determinism is preserved by construction: every bootstrap bag is
    /// drawn **sequentially** from the single seeded stream before any
    /// tree is fitted, and each tree then derives its own split/subsample
    /// RNG from `seed ^ t·0x9e37` — so the fitted forest is bit-identical
    /// for every `threads` value (pinned by a unit test).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty, `ys.len() != xs.len()`, or feature vectors
    /// have inconsistent lengths.
    pub fn fit_with_threads(
        xs: &[Vec<f64>],
        ys: &[f64],
        params: &ForestParams,
        seed: u64,
        threads: usize,
    ) -> RandomForest {
        assert!(!xs.is_empty(), "cannot fit a forest to zero samples");
        assert_eq!(xs.len(), ys.len(), "xs and ys must have equal length");
        let columns = RankedColumns::from_rows(xs);
        RandomForest::fit_ranked(&columns, ys, params, seed, threads)
    }

    /// [`fit_with_threads`](RandomForest::fit_with_threads) on a feature
    /// matrix that is already rank-encoded, so forests fitted to several
    /// targets of one dataset share the encoding.
    pub(crate) fn fit_ranked(
        columns: &RankedColumns,
        ys: &[f64],
        params: &ForestParams,
        seed: u64,
        threads: usize,
    ) -> RandomForest {
        let _span = gpm_telemetry::span("rf.fit");
        assert_eq!(
            columns.num_rows(),
            ys.len(),
            "xs and ys must have equal length"
        );
        let mut tree_params = params.tree.clone();
        if tree_params.feature_subsample.is_none() {
            let k = (columns.num_features() as f64).sqrt().ceil() as usize;
            tree_params.feature_subsample = Some(k.max(1));
        }

        let mut bags = draw_bags(columns.num_rows(), params, seed);
        let in_bag = bags
            .iter()
            .map(|bag| {
                let mut seen = vec![false; columns.num_rows()];
                for &row in bag {
                    seen[row as usize] = true;
                }
                seen
            })
            .collect();

        let num_trees = bags.len();
        let threads = RandomForest::resolved_fit_threads(threads, num_trees);
        let tree_seed = |t: usize| seed ^ (t as u64).wrapping_mul(0x9e37);
        let tier = SimdTier::detected();
        let fit_chunk = |first: usize, bags: &mut [Vec<u32>]| -> Vec<RegressionTree> {
            let mut scratch = FitScratch::default();
            bags.iter_mut()
                .enumerate()
                .map(|(off, bag)| {
                    RegressionTree::fit_ranked(
                        columns,
                        ys,
                        bag,
                        &tree_params,
                        tree_seed(first + off),
                        &mut scratch,
                        tier,
                    )
                })
                .collect()
        };
        let chunk = num_trees.div_ceil(threads);
        let fit_chunk = &fit_chunk;
        let trees = std::thread::scope(|scope| {
            let workers: Vec<_> = bags
                .chunks_mut(chunk)
                .enumerate()
                .map(|(w, bags)| scope.spawn(move || fit_chunk(w * chunk, bags)))
                .collect();
            workers
                .into_iter()
                .flat_map(|worker| worker.join().expect("tree fit panicked"))
                .collect()
        });
        RandomForest { trees, in_bag }
    }

    /// The number of worker threads a fit of `num_trees` trees asked for
    /// `threads` runs on: `0` means one per available core, and there is
    /// never more than one per tree or fewer than one.
    pub fn resolved_fit_threads(threads: usize, num_trees: usize) -> usize {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        };
        threads.clamp(1, num_trees.max(1))
    }

    /// Mean prediction over all trees.
    ///
    /// Dimensionality checking follows [`RegressionTree::predict`]'s
    /// contract: debug builds assert, release builds rely on callers
    /// validating the row width at the batch boundary.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// Per-tree predictions written into `out` (cleared and refilled, so
    /// the allocation is reused across calls); exposes ensemble spread for
    /// diagnostics without a per-call allocation.
    pub fn predict_all_into(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.trees.iter().map(|t| t.predict(x)));
    }

    /// Allocating convenience wrapper around
    /// [`predict_all_into`](RandomForest::predict_all_into) for one-shot
    /// diagnostics callers.
    pub fn predict_all(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.trees.len());
        self.predict_all_into(x, &mut out);
        out
    }

    /// The fitted trees, for flattening into a
    /// [`FlatForest`](crate::FlatForest).
    pub(crate) fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// A forest of trees fitted one by one, so tests can put trees of
    /// unlike shapes side by side.
    #[cfg(test)]
    pub(crate) fn from_trees(trees: Vec<RegressionTree>) -> RandomForest {
        RandomForest {
            in_bag: vec![Vec::new(); trees.len()],
            trees,
        }
    }

    /// Number of trees in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Out-of-bag prediction for training sample `i` of the fit: the mean
    /// over the trees whose bootstrap did *not* contain `i`. `None` when
    /// every tree saw the sample (possible for small ensembles).
    pub fn oob_predict(&self, i: usize, x: &[f64]) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (tree, bag) in self.trees.iter().zip(&self.in_bag) {
            if !bag.get(i).copied().unwrap_or(false) {
                sum += tree.predict(x);
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Out-of-bag RMSE over the training set — the free generalization
    /// estimate classic Random Forests report (Breiman 2001). Samples seen
    /// by every tree are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `xs`/`ys` differ in length from the training set.
    pub fn oob_rmse(&self, xs: &[Vec<f64>], ys: &[f64]) -> f64 {
        assert_eq!(xs.len(), ys.len(), "xs and ys must have equal length");
        assert_eq!(
            xs.len(),
            self.in_bag.first().map_or(xs.len(), Vec::len),
            "out-of-bag evaluation needs the original training set"
        );
        let mut sse = 0.0;
        let mut n = 0usize;
        for (i, (x, &y)) in xs.iter().zip(ys).enumerate() {
            if let Some(pred) = self.oob_predict(i, x) {
                sse += (pred - y) * (pred - y);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            (sse / n as f64).sqrt()
        }
    }
}

/// The bootstrap bags of a fit, as training-row indices in draw order.
///
/// Every bag comes from the single stream seeded with `seed`, in tree
/// order, before any tree is fitted: the part of a fit that must stay
/// sequential for the forest to be the same at every thread count.
pub(crate) fn draw_bags(num_rows: usize, params: &ForestParams, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sample_n =
        ((num_rows as f64 * params.bootstrap_fraction).round() as usize).clamp(1, num_rows * 4);
    (0..params.num_trees.max(1))
        .map(|_| {
            (0..sample_n)
                .map(|_| rng.gen_range(0..num_rows) as u32)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::oracle;
    use crate::{Dataset, RandomForestPredictor};
    use gpm_hw::{ConfigSpace, CuCount, GpuDpm, HwConfig, NbState};
    use gpm_sim::{ApuSimulator, KernelCharacteristics};

    /// Asserts that every tree of `forest` is the tree the per-threshold
    /// oracle grows on the same bag with the same per-tree seed.
    fn assert_matches_oracle(
        xs: &[Vec<f64>],
        ys: &[f64],
        params: &ForestParams,
        seed: u64,
        forest: &RandomForest,
    ) {
        let mut tree_params = params.tree.clone();
        let default_subsample = ((xs[0].len() as f64).sqrt().ceil() as usize).max(1);
        tree_params
            .feature_subsample
            .get_or_insert(default_subsample);
        let bags = draw_bags(xs.len(), params, seed);
        assert_eq!(forest.num_trees(), bags.len());
        for (t, (tree, bag)) in forest.trees().iter().zip(&bags).enumerate() {
            let bag_xs: Vec<Vec<f64>> = bag.iter().map(|&r| xs[r as usize].clone()).collect();
            let bag_ys: Vec<f64> = bag.iter().map(|&r| ys[r as usize]).collect();
            let tree_seed = seed ^ (t as u64).wrapping_mul(0x9e37);
            let reference = oracle::fit(&bag_xs, &bag_ys, &tree_params, tree_seed);
            // `assert!`, not `assert_eq!`: a deployed tree prints as ~100 KB.
            assert!(tree == &reference, "tree {t} diverged from the oracle");
        }
    }

    #[test]
    fn bagged_trees_match_the_oracle() {
        let (xs, ys) = noisy_linear(5);
        for threads in [1, 3] {
            let forest =
                RandomForest::fit_with_threads(&xs, &ys, &ForestParams::default(), 9, threads);
            assert_matches_oracle(&xs, &ys, &ForestParams::default(), 9, &forest);
        }
    }

    /// The deployed fit against the oracle, tree by tree, for both
    /// forests: the training split of the default evaluation context
    /// (gpm-harness's `EvalOptions::default()`: every distinct suite
    /// kernel over every second CPU state of the campaign, 15% held out,
    /// 24 trees of depth 11 scoring 14 thresholds). Seconds in release:
    /// `cargo test --release -p gpm-model -- --ignored`.
    ///
    /// gpm-model cannot depend on gpm-harness, so the kernel dedup of
    /// `training_kernels`, the stride-2 space of `training_space`, the
    /// seed, the held-out fraction and the forest parameters below are
    /// copies of `EvalOptions::default()` in `crates/harness/src/context.rs`.
    /// gpm-harness's `default_context_forests_match_recorded_fingerprint`
    /// fails when that source changes; update these copies with it.
    #[test]
    #[ignore = "needs a release build; CI runs it with --ignored"]
    fn default_context_forests_match_the_oracle() {
        let mut kernels: Vec<KernelCharacteristics> = Vec::new();
        for workload in gpm_workloads::suite() {
            for k in workload.kernels() {
                if !kernels.iter().any(|have| have.name() == k.name()) {
                    kernels.push(k.clone());
                }
            }
        }
        let full = ConfigSpace::paper_campaign();
        let space = ConfigSpace::from_axes(
            full.cpus().iter().copied().step_by(2).collect(),
            NbState::ALL.to_vec(),
            GpuDpm::MEASURED.to_vec(),
            CuCount::ALL.to_vec(),
        );
        let dataset = Dataset::from_campaign(
            &ApuSimulator::default(),
            &kernels,
            &space,
            HwConfig::FAIL_SAFE,
            1,
        );
        let seed = 0xA10_7850;
        let (train, _) = dataset.split(0.15, seed);
        assert_eq!(
            train.len(),
            19_747,
            "not the default context's training set"
        );
        let params = ForestParams {
            num_trees: 24,
            tree: TreeParams {
                max_depth: 11,
                min_samples_leaf: 2,
                feature_subsample: None,
                threshold_candidates: 14,
            },
            bootstrap_fraction: 0.8,
        };
        let rf = RandomForestPredictor::train(&train, &params, seed);
        let xs = train.xs();
        assert_matches_oracle(&xs, &train.ys_log_time(), &params, seed, rf.time_forest());
        assert_matches_oracle(
            &xs,
            train.gpu_power_w(),
            &params,
            seed.wrapping_add(1),
            rf.power_forest(),
        );
    }

    fn noisy_linear(seed_like: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..150)
            .map(|i| vec![i as f64, ((i * 31 + seed_like) % 13) as f64])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 0.5 * x[0] + ((x[1] as i64 % 3) as f64) * 0.1)
            .collect();
        (xs, ys)
    }

    #[test]
    fn forest_fits_linear_trend() {
        let (xs, ys) = noisy_linear(0);
        let forest = RandomForest::fit(&xs, &ys, &ForestParams::default(), 7);
        for probe in [10.0, 75.0, 140.0] {
            let pred = forest.predict(&[probe, 1.0]);
            assert!(
                (pred - 0.5 * probe).abs() < 8.0,
                "probe {probe} pred {pred}"
            );
        }
    }

    #[test]
    fn fit_is_deterministic_per_seed() {
        let (xs, ys) = noisy_linear(0);
        let a = RandomForest::fit(&xs, &ys, &ForestParams::default(), 7);
        let b = RandomForest::fit(&xs, &ys, &ForestParams::default(), 7);
        assert_eq!(a.predict(&[42.0, 3.0]), b.predict(&[42.0, 3.0]));
    }

    #[test]
    fn different_seeds_differ() {
        let (xs, ys) = noisy_linear(0);
        let a = RandomForest::fit(&xs, &ys, &ForestParams::default(), 7);
        let b = RandomForest::fit(&xs, &ys, &ForestParams::default(), 8);
        // Overwhelmingly likely to differ somewhere.
        let differs = (0..150).any(|i| a.predict(&[i as f64, 1.0]) != b.predict(&[i as f64, 1.0]));
        assert!(differs);
    }

    #[test]
    fn predict_all_has_num_trees_entries() {
        let (xs, ys) = noisy_linear(0);
        let params = ForestParams {
            num_trees: 12,
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&xs, &ys, &params, 7);
        assert_eq!(forest.num_trees(), 12);
        assert_eq!(forest.predict_all(&[1.0, 1.0]).len(), 12);
    }

    #[test]
    fn mean_of_predict_all_is_predict() {
        let (xs, ys) = noisy_linear(1);
        let forest = RandomForest::fit(&xs, &ys, &ForestParams::default(), 3);
        let x = [55.0, 2.0];
        let all = forest.predict_all(&x);
        let mean = all.iter().sum::<f64>() / all.len() as f64;
        assert!((mean - forest.predict(&x)).abs() < 1e-12);
    }

    #[test]
    fn fit_is_bit_identical_across_thread_counts() {
        let (xs, ys) = noisy_linear(4);
        let params = ForestParams {
            num_trees: 10,
            ..ForestParams::default()
        };
        let auto = RandomForest::fit(&xs, &ys, &params, 11);
        for threads in [1, 2, 3, 8, 64] {
            let forest = RandomForest::fit_with_threads(&xs, &ys, &params, 11, threads);
            assert_eq!(forest, auto, "{threads} threads diverged from auto fit");
        }
    }

    #[test]
    fn resolved_fit_threads_stays_between_one_and_the_tree_count() {
        assert_eq!(RandomForest::resolved_fit_threads(2, 10), 2);
        assert_eq!(RandomForest::resolved_fit_threads(64, 10), 10);
        assert_eq!(RandomForest::resolved_fit_threads(3, 0), 1);
        let auto = RandomForest::resolved_fit_threads(0, 1000);
        assert_eq!(
            auto,
            std::thread::available_parallelism().map_or(1, usize::from)
        );
        assert_eq!(RandomForest::resolved_fit_threads(0, 1), 1);
    }

    #[test]
    fn predict_all_into_reuses_allocation_and_matches_wrapper() {
        let (xs, ys) = noisy_linear(1);
        let forest = RandomForest::fit(&xs, &ys, &ForestParams::default(), 3);
        let mut out = Vec::new();
        forest.predict_all_into(&[55.0, 2.0], &mut out);
        assert_eq!(out, forest.predict_all(&[55.0, 2.0]));
        let cap = out.capacity();
        forest.predict_all_into(&[10.0, 1.0], &mut out);
        assert_eq!(out.capacity(), cap, "refill must not reallocate");
        assert_eq!(out.len(), forest.num_trees());
    }

    #[test]
    fn single_tree_forest_works() {
        let (xs, ys) = noisy_linear(0);
        let params = ForestParams {
            num_trees: 1,
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&xs, &ys, &params, 7);
        assert_eq!(forest.num_trees(), 1);
        assert!(forest.predict(&[10.0, 0.0]).is_finite());
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_fit_panics() {
        let _ = RandomForest::fit(&[], &[], &ForestParams::default(), 1);
    }

    #[test]
    fn oob_error_approximates_held_out_error() {
        // OOB RMSE should be in the same ballpark as RMSE on a fresh
        // held-out set drawn from the same process.
        let (xs, ys) = noisy_linear(0);
        let (train_x, test_x) = xs.split_at(100);
        let (train_y, test_y) = ys.split_at(100);
        let forest = RandomForest::fit(train_x, train_y, &ForestParams::default(), 7);
        let oob = forest.oob_rmse(train_x, train_y);
        let held_sse: f64 = test_x
            .iter()
            .zip(test_y)
            .map(|(x, &y)| (forest.predict(x) - y) * (forest.predict(x) - y))
            .sum();
        let held = (held_sse / test_x.len() as f64).sqrt();
        assert!(oob > 0.0);
        assert!(oob < held * 3.0 + 1.0, "OOB {oob} vs held-out {held}");
    }

    #[test]
    fn oob_predict_excludes_in_bag_trees() {
        let (xs, ys) = noisy_linear(2);
        let params = ForestParams {
            num_trees: 16,
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&xs, &ys, &params, 3);
        // Some sample must be out-of-bag for at least one tree.
        let any_oob = (0..xs.len()).any(|i| forest.oob_predict(i, &xs[i]).is_some());
        assert!(any_oob);
    }
}
