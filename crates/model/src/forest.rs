//! Random Forest regression: bagged CART trees with feature subsampling
//! (Breiman 2001, the algorithm the paper selected for its predictor),
//! fitted, walked and saved in one packed layout.
//!
//! A fit writes every tree straight into one contiguous array of packed
//! 16-byte nodes — an `f64` threshold, a `u32` feature id and a `u32`
//! right-child index, with the left child always the next slot — so one
//! walk step is one load. Each fit worker packs its trees one after
//! another, and the workers' arrays are joined in tree order.
//!
//! Leaves loop back to themselves: a leaf's threshold is NaN and its
//! right child is its own index. `x <= NaN` is false for every `x`, so
//! the step `i = if row[f] <= t { i + 1 } else { right }` needs no leaf
//! test, and a walk that has reached its leaf stays parked there. Leaf
//! values live in a side array that is read once per tree, and each
//! tree's depth is recorded when the forest is assembled, so a walk runs
//! an exact number of steps.
//!
//! [`RandomForest::predict`] advances eight trees at once, for the
//! group's greatest depth. Each walk is a dependent load chain (node →
//! feature → compare → next node); eight independent chains overlap
//! their latencies instead of adding them up, and the direction of each
//! step is a conditional move, since a mispredicted jump would flush
//! every lane.
//!
//! The walk is bit-identical to the nested enum-node walk of
//! [`RegressionTree`], into which [`RandomForest::to_trees`] unpacks a
//! forest: every comparison (`x[feature] <= threshold`, so NaN features
//! go right), every leaf value, and the per-row accumulation order (tree
//! 0, tree 1, …, from `-0.0` as `Iterator::sum` starts, then one division
//! by the tree count) are the nested walk's. The tests of this module and
//! of `tests/flat_equivalence.rs` pin that guarantee.
//!
//! A forest is saved as the same arrays, and a load checks the layout
//! before any walk trusts it.

use crate::features::NUM_FEATURES;
use crate::tree::{
    PackedNode, PackedTrees, RankedColumns, RegressionTree, SimdTier, TreeFitter, TreeParams,
};
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

/// Trees the walk advances together.
const LANES: usize = 8;

/// A fitted Random Forest: the mean of its trees' predictions, held in
/// the packed layout (see the [module docs](self)).
///
/// Layout invariants, which a fit establishes and a load checks:
/// * every split's right child lies after it and inside its own tree,
///   so its left child, the next slot, does too;
/// * every leaf loops to itself;
/// * every feature id is `< num_features`, and the node and leaf-value
///   arrays have one entry per node.
///
/// Equality is bit for bit.
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
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: PackedTrees,
    /// Depth in edges of each tree: the steps a walk of it needs.
    depths: Vec<u32>,
    num_features: usize,
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
    /// tree is fitted, each tree then derives its own split/subsample
    /// RNG from `seed ^ t·0x9e37`, and the workers' trees are joined in
    /// tree order — so the fitted forest is bit-identical for every
    /// `threads` value (pinned by a unit test).
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
        let num_trees = bags.len();
        let threads = RandomForest::resolved_fit_threads(threads, num_trees);
        let tree_seed = |t: usize| seed ^ (t as u64).wrapping_mul(0x9e37);
        let tier = SimdTier::detected();
        let fit_chunk = |first: usize, bags: &mut [Vec<u32>]| -> PackedTrees {
            let mut fitter = TreeFitter::new(columns, ys, &tree_params, tier);
            for (off, bag) in bags.iter_mut().enumerate() {
                fitter.fit(bag, tree_seed(first + off));
            }
            fitter.trees
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
                .fold(PackedTrees::default(), |mut trees, worker| {
                    trees.append(worker.join().expect("tree fit panicked"));
                    trees
                })
        });
        RandomForest::assemble(columns.num_features(), trees).expect("a fit lays out valid trees")
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

    /// A forest of packed trees: checks every layout invariant the walk
    /// relies on, gives each leaf its NaN threshold (a saved leaf has
    /// none; the walk needs one) and records each tree's depth.
    ///
    /// # Errors
    ///
    /// Names a fault; a fit never makes one, so only a corrupted or
    /// hand-edited saved forest can.
    fn assemble(num_features: usize, mut trees: PackedTrees) -> Result<RandomForest, String> {
        if trees.roots.is_empty() {
            return Err("no trees".to_owned());
        }
        if trees.leaf_values.len() != trees.nodes.len() {
            return Err(format!(
                "{} leaf values for {} nodes",
                trees.leaf_values.len(),
                trees.nodes.len()
            ));
        }
        if u32::try_from(trees.nodes.len()).is_err() {
            return Err(format!("{} nodes overflow u32 indices", trees.nodes.len()));
        }
        if trees.roots[0] != 0 {
            return Err(format!("tree 0 starts at node {}, not 0", trees.roots[0]));
        }
        // Children sit after their parent, so one backward pass over a
        // tree sees both children's depths before the parent's.
        let mut depth = vec![0u32; trees.nodes.len()];
        let mut depths = Vec::with_capacity(trees.roots.len());
        for t in 0..trees.roots.len() {
            let span = trees.span(t);
            if span.is_empty() {
                return Err(format!("tree {t} has no nodes"));
            }
            for i in span.clone().rev() {
                let node = &mut trees.nodes[i];
                let right = node.right as usize;
                if node.feature as usize >= num_features {
                    return Err(format!(
                        "node {i} of tree {t} references feature {}, past the {num_features} \
                         features",
                        node.feature
                    ));
                }
                if right == i {
                    node.threshold = f64::NAN;
                    continue;
                }
                if right < i {
                    return Err(format!(
                        "node {i} of tree {t} neither loops to itself (a leaf) nor has its \
                         right child after it (a split): right child {right}"
                    ));
                }
                if right >= span.end {
                    return Err(format!(
                        "split at node {i} has its right child {right} outside its tree, \
                         nodes {}..{}",
                        span.start, span.end
                    ));
                }
                if node.threshold.is_nan() {
                    return Err(format!("split at node {i} has a null threshold"));
                }
                depth[i] = 1 + depth[i + 1].max(depth[right]);
            }
            depths.push(depth[span.start]);
        }
        Ok(RandomForest {
            trees,
            depths,
            num_features,
        })
    }

    /// Mean prediction over all trees for one row — bit-identical to the
    /// nested walk of [`to_trees`](RandomForest::to_trees).
    ///
    /// Trees go in groups of eight, and every lane of a group advances
    /// for the group's greatest depth: a lane that reaches its leaf early
    /// stays parked there, so afterwards each lane sits on exactly the
    /// leaf the nested walk reaches. A group short of eight trees parks
    /// its spare lanes on the last node, a leaf of the last tree, whose
    /// value is never added. The sum starts from `-0.0`, as
    /// `Iterator::sum` does, and adds the leaves in tree order.
    ///
    /// # Panics
    ///
    /// Debug builds panic unless `row` has exactly the fitted
    /// dimensionality; release builds panic only when a feature a walk
    /// reads lies past the end of `row`.
    pub fn predict(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.num_features, "feature dimensionality");
        let PackedTrees {
            nodes,
            leaf_values,
            roots,
        } = &self.trees;
        let spare = nodes.len() - 1;
        let mut sum = -0.0;
        for (roots, depths) in roots.chunks(LANES).zip(self.depths.chunks(LANES)) {
            let mut lanes = [spare; LANES];
            for (lane, &root) in lanes.iter_mut().zip(roots) {
                *lane = root as usize;
            }
            for _ in 0..depths.iter().copied().max().unwrap_or(0) {
                for i in &mut lanes {
                    let node = nodes[*i];
                    *i = node.next(*i, row[node.feature as usize]);
                }
            }
            for &i in &lanes[..roots.len()] {
                sum += leaf_values[i];
            }
        }
        sum / self.num_trees() as f64
    }

    /// Unpacks every tree into the nested enum-node form, the reference
    /// the oracle tests check fits and walks against. The mean of the
    /// trees' predictions, summed in tree order, is
    /// [`predict`](RandomForest::predict) bit for bit.
    pub fn to_trees(&self) -> Vec<RegressionTree> {
        (0..self.num_trees())
            .map(|t| RegressionTree::unpack(&self.trees, t, self.num_features))
            .collect()
    }

    /// Number of trees in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.trees.roots.len()
    }

    /// Dimensionality the forest was fitted on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// A forest of one tree fitted to every row of `(xs, ys)` in order,
    /// without a bootstrap bag.
    #[cfg(test)]
    pub(crate) fn fit_unbagged(
        xs: &[Vec<f64>],
        ys: &[f64],
        params: &TreeParams,
        seed: u64,
    ) -> RandomForest {
        let columns = RankedColumns::from_rows(xs);
        let mut fitter = TreeFitter::new(&columns, ys, params, SimdTier::detected());
        fitter.fit(&mut (0..xs.len() as u32).collect::<Vec<_>>(), seed);
        RandomForest::assemble(columns.num_features(), fitter.trees).unwrap()
    }

    /// The trees of `forests`, side by side in one forest, so tests can
    /// put trees of unlike shapes in one walk.
    #[cfg(test)]
    pub(crate) fn concat(forests: Vec<RandomForest>) -> RandomForest {
        let num_features = forests[0].num_features;
        let trees = forests
            .into_iter()
            .fold(PackedTrees::default(), |mut trees, forest| {
                trees.append(forest.trees);
                trees
            });
        RandomForest::assemble(num_features, trees).unwrap()
    }
}

impl PartialEq for RandomForest {
    fn eq(&self, other: &RandomForest) -> bool {
        let (a, b) = (&self.trees, &other.trees);
        self.num_features == other.num_features
            && a.roots == b.roots
            && a.nodes == b.nodes
            // As long as the equal node arrays, so the zip checks them all.
            && a.leaf_values.iter().zip(&b.leaf_values).all(|(x, y)| x.to_bits() == y.to_bits())
    }
}

/// The saved form of a [`RandomForest`]: its packed arrays, each node as
/// `[threshold, feature, right]`. The depths are recomputed on load.
///
/// JSON has no NaN, so a leaf's threshold goes out as `null`; a leaf is
/// known by its structure (its right child is itself), and the load
/// gives it back its NaN. A `null` threshold on a split is a fault.
#[derive(Serialize, Deserialize)]
struct SavedForest {
    num_features: usize,
    roots: Vec<u32>,
    nodes: Vec<(f64, u32, u32)>,
    leaf_values: Vec<f64>,
}

impl Serialize for RandomForest {
    fn serialize_content(&self) -> serde::Content {
        SavedForest {
            num_features: self.num_features,
            roots: self.trees.roots.clone(),
            nodes: self
                .trees
                .nodes
                .iter()
                .map(|node| (node.threshold, node.feature, node.right))
                .collect(),
            leaf_values: self.trees.leaf_values.clone(),
        }
        .serialize_content()
    }
}

impl Deserialize for RandomForest {
    /// Loads a saved forest, checking every layout invariant, since a
    /// saved file is input from outside the program. Only the predictor's
    /// forests are saved, so a forest must be [`NUM_FEATURES`] wide.
    fn deserialize_content(content: &serde::Content) -> Result<RandomForest, serde::DeError> {
        let saved = SavedForest::deserialize_content(content)?;
        if saved.num_features != NUM_FEATURES {
            return Err(serde::DeError::custom(format!(
                "forest fitted on {} features, not {NUM_FEATURES}",
                saved.num_features
            )));
        }
        let trees = PackedTrees {
            nodes: saved
                .nodes
                .into_iter()
                .map(|(threshold, feature, right)| PackedNode {
                    threshold,
                    feature,
                    right,
                })
                .collect(),
            leaf_values: saved.leaf_values,
            roots: saved.roots,
        };
        RandomForest::assemble(saved.num_features, trees).map_err(serde::DeError::custom)
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
        for (t, (tree, bag)) in forest.to_trees().iter().zip(&bags).enumerate() {
            let bag_xs: Vec<Vec<f64>> = bag.iter().map(|&r| xs[r as usize].clone()).collect();
            let bag_ys: Vec<f64> = bag.iter().map(|&r| ys[r as usize]).collect();
            let tree_seed = seed ^ (t as u64).wrapping_mul(0x9e37);
            let reference = oracle::fit(&bag_xs, &bag_ys, &tree_params, tree_seed);
            oracle::assert_same(tree, &reference, &format!("tree {t}"));
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
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = RandomForest::fit(&[vec![1.0]], &[1.0, 2.0], &ForestParams::default(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "feature dimensionality")]
    fn predict_wrong_arity_panics() {
        let (xs, ys) = noisy_linear(0);
        let forest = RandomForest::fit(&xs, &ys, &ForestParams::default(), 1);
        let _ = forest.predict(&[1.0, 2.0, 3.0]);
    }

    /// The nested walk: the mean of the unpacked trees' predictions, in
    /// tree order.
    fn nested_predict(trees: &[RegressionTree], row: &[f64]) -> f64 {
        trees.iter().map(|t| t.predict(row)).sum::<f64>() / trees.len() as f64
    }

    /// A random regression problem of the model's real dimensionality.
    fn random_problem(seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..NUM_FEATURES)
                    .map(|_| rng.gen_range(-5.0..5.0))
                    .collect()
            })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| x[0] * 2.0 - x[3] + (x[7] * x[1]).sin() + rng.gen_range(-0.1..0.1))
            .collect();
        (xs, ys)
    }

    #[test]
    fn packed_walk_is_bit_identical_to_nested_across_random_forests() {
        for seed in 0..8u64 {
            let (xs, ys) = random_problem(seed, 160);
            let params = ForestParams {
                num_trees: 9,
                tree: TreeParams {
                    max_depth: 7,
                    min_samples_leaf: 2,
                    feature_subsample: None,
                    threshold_candidates: 8,
                },
                bootstrap_fraction: 0.8,
            };
            let forest = RandomForest::fit(&xs, &ys, &params, seed ^ 0xDEAD);
            let trees = forest.to_trees();
            for x in &xs {
                assert_eq!(
                    forest.predict(x).to_bits(),
                    nested_predict(&trees, x).to_bits(),
                    "seed {seed}: packed and nested walks diverged"
                );
            }
        }
    }

    /// Probe rows: values inside the training range, then NaN, +∞ and
    /// −∞ in each feature position in turn and in all of them at once.
    fn probe_rows(seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<Vec<f64>> = (0..NUM_FEATURES + 10)
            .map(|_| {
                (0..NUM_FEATURES)
                    .map(|_| rng.gen_range(-6.0..6.0))
                    .collect()
            })
            .collect();
        for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for f in 0..NUM_FEATURES {
                let mut row = rows[f].clone();
                row[f] = special;
                rows.push(row);
            }
            rows.push(vec![special; NUM_FEATURES]);
        }
        rows
    }

    /// Asserts that the packed walk reproduces the nested one bit for
    /// bit on every row.
    fn assert_walk_matches(forest: &RandomForest, rows: &[Vec<f64>], what: &str) {
        let trees = forest.to_trees();
        for row in rows {
            assert_eq!(
                forest.predict(row).to_bits(),
                nested_predict(&trees, row).to_bits(),
                "{what}: the packed walk diverged on {row:?}"
            );
        }
    }

    #[test]
    fn walk_is_bit_identical_for_every_group_shape() {
        // Tree counts below, at and past one and several 8-tree groups,
        // so the last group is full, partial or a single tree.
        let (xs, ys) = random_problem(17, 120);
        let rows = probe_rows(17);
        for num_trees in [1, 7, 8, 9, 17, 24, 48] {
            let params = ForestParams {
                num_trees,
                tree: TreeParams {
                    max_depth: 6,
                    ..TreeParams::default()
                },
                bootstrap_fraction: 0.8,
            };
            let forest = RandomForest::fit(&xs, &ys, &params, num_trees as u64);
            assert_walk_matches(&forest, &rows, &format!("{num_trees} trees"));
        }
    }

    #[test]
    fn walk_is_bit_identical_for_single_leaf_and_uneven_depth_trees() {
        let (xs, ys) = random_problem(5, 200);
        let tree = |max_depth: usize| {
            let params = TreeParams {
                max_depth,
                ..TreeParams::default()
            };
            RandomForest::fit_unbagged(&xs, &ys, &params, 0)
        };
        // Single leaves (depth 0) next to the deepest trees in one group:
        // the early lanes must stay parked on their leaves.
        let uneven = RandomForest::concat(
            [0, 12, 1, 0, 9, 3, 12, 0, 2, 11, 0]
                .into_iter()
                .map(tree)
                .collect(),
        );
        let leaves = RandomForest::concat((0..3).map(|_| tree(0)).collect());
        assert!(
            uneven.depths.contains(&0) && uneven.depths.iter().any(|&d| d >= 9),
            "depths {:?}",
            uneven.depths
        );
        let rows = probe_rows(5);
        assert_walk_matches(&uneven, &rows, "uneven depths");
        assert_walk_matches(&leaves, &rows, "single leaves");
    }

    #[test]
    fn nan_features_take_the_right_branch() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] < 20.0 { 1.0 } else { 5.0 })
            .collect();
        let params = TreeParams {
            max_depth: 1,
            ..TreeParams::default()
        };
        let forest = RandomForest::fit_unbagged(&xs, &ys, &params, 0);
        let trees = forest.to_trees();
        for (x, side) in [
            (f64::NAN, 5.0),
            (f64::INFINITY, 5.0),
            (f64::NEG_INFINITY, 1.0),
        ] {
            assert_eq!(nested_predict(&trees, &[x]), side, "nested walk at {x}");
            assert_eq!(forest.predict(&[x]), side, "packed walk at {x}");
        }
    }

    #[test]
    fn single_leaf_trees_have_depth_zero() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64; NUM_FEATURES]).collect();
        let ys = vec![7.5; 20];
        let forest = RandomForest::fit(
            &xs,
            &ys,
            &ForestParams {
                num_trees: 2,
                ..ForestParams::default()
            },
            1,
        );
        assert_eq!(forest.predict(&xs[0]), 7.5);
        assert_eq!(forest.depths, [0, 0]);
    }

    #[test]
    fn forest_reports_shape() {
        let (xs, ys) = random_problem(9, 60);
        let params = ForestParams {
            num_trees: 5,
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&xs, &ys, &params, 2);
        assert_eq!(forest.num_trees(), 5);
        assert_eq!(forest.num_features(), NUM_FEATURES);
        assert!(forest.depths.iter().all(|&d| d > 0));
    }
}
