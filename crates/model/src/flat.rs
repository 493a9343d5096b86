//! Allocation-free forest inference (the MPC hot-path engine).
//!
//! A fitted [`RegressionTree`] stores an enum node array (~40 bytes per
//! node, one match per step). [`FlatForest`] re-lays every tree of a
//! forest into one contiguous array of packed 16-byte nodes — an `f64`
//! threshold, a `u32` feature id and a `u32` right-child index, with the
//! left child always the next slot — so one walk step is one load.
//!
//! Leaves loop back to themselves: a leaf's threshold is NaN and its
//! right child is its own index. `x <= NaN` is false for every `x`, so
//! the step `i = if row[f] <= t { i + 1 } else { right }` needs no leaf
//! test, and a walk that has reached its leaf stays parked there. Leaf
//! values live in a side array that is read once per tree, and each
//! tree's depth is recorded at flattening, so a walk runs an exact number
//! of steps.
//!
//! [`FlatForest::predict`] advances eight trees at once, for the group's
//! greatest depth. Each walk is a dependent load chain (node → feature →
//! compare → next node); eight independent chains overlap their
//! latencies instead of adding them up, and the direction of each step is
//! a conditional move, since a mispredicted jump would flush every lane.
//! A group short of eight trees parks its spare lanes on a sentinel leaf
//! at the end of the node array, so every tree count takes the one walk.
//!
//! The engine is *decision-invariant* by construction: every comparison
//! (`x[feature] <= threshold`, so NaN features go right), every leaf
//! value, and the per-row accumulation order (tree 0, tree 1, …, from
//! `-0.0` as `Iterator::sum` starts, then one division by the tree count)
//! are exactly those of the nested traversal, so predictions are
//! bit-identical to [`RandomForest::predict`] — the equivalence tests in
//! this module and in `tests/flat_equivalence.rs` pin that guarantee.

use crate::forest::RandomForest;
use crate::tree::{Node, RegressionTree};

/// Trees the walk advances together.
const LANES: usize = 8;

/// One split or leaf of a [`FlatForest`], packed into 16 bytes.
#[derive(Debug, Clone, Copy)]
struct FlatNode {
    /// Split threshold; NaN at a leaf, where every comparison fails.
    threshold: f64,
    /// Feature id compared at this node; 0 at a leaf, whose comparison
    /// never decides anything.
    feature: u32,
    /// Right-child index into the forest's node array; the left child is
    /// always the next slot. A leaf holds its own index.
    right: u32,
}

impl FlatNode {
    /// The leaf at node index `i`: it loops back to itself.
    fn leaf(i: usize) -> FlatNode {
        FlatNode {
            threshold: f64::NAN,
            feature: 0,
            right: i as u32,
        }
    }

    /// One walk step from this node, stored at index `i`, given the value
    /// `x` of its feature. The direction is data, so it is a conditional
    /// move: a mispredicted jump would flush every other lane of the walk.
    #[inline(always)]
    fn next(self, i: usize, x: f64) -> usize {
        std::hint::select_unpredictable(x <= self.threshold, i + 1, self.right as usize)
    }
}

/// A whole forest in flat form: the inference engine behind
/// [`RandomForestPredictor`](crate::RandomForestPredictor).
///
/// Layout invariants, validated at construction:
/// * the left child of the split at index `i` is index `i + 1` (the
///   fitted builder reserves a node's slot before recursing left, so the
///   nested array already satisfies this — flattening is a re-encoding,
///   not a re-ordering);
/// * every split's right child is `> i` and inside its own tree, and
///   every leaf's is `i` (a walk strictly advances until it parks);
/// * every feature id is `< num_features`.
///
/// # Examples
///
/// ```
/// use gpm_model::{FlatForest, ForestParams, RandomForest};
///
/// let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0]).collect();
/// let forest = RandomForest::fit(&xs, &ys, &ForestParams::default(), 7);
/// let flat = FlatForest::from_forest(&forest).expect("a fitted forest flattens");
/// // Bit-identical to the nested traversal.
/// assert_eq!(flat.predict(&[30.0]), forest.predict(&[30.0]));
/// ```
#[derive(Debug, Clone)]
pub struct FlatForest {
    /// Every tree's nodes, tree after tree, then one sentinel leaf that
    /// idle lanes of the walk park on.
    nodes: Vec<FlatNode>,
    /// Leaf value per node, index-aligned with `nodes` (0.0 at splits).
    leaf_values: Vec<f64>,
    /// Index of each tree's root in `nodes`.
    roots: Vec<u32>,
    /// Depth in edges of each tree: the steps a walk of it needs.
    depths: Vec<u32>,
    num_features: usize,
}

impl FlatForest {
    /// Flattens every tree of a fitted forest.
    ///
    /// # Errors
    ///
    /// Describes the first layout invariant a tree violates — possible
    /// only for a corrupted (hand-edited or mis-saved) tree, never for
    /// one produced by [`RegressionTree::fit`].
    pub fn from_forest(forest: &RandomForest) -> Result<FlatForest, String> {
        let len = forest
            .trees()
            .iter()
            .map(RegressionTree::len)
            .sum::<usize>()
            + 1;
        if len >= u32::MAX as usize {
            return Err(format!("{len} nodes overflow the u32 node indices"));
        }
        let num_features = forest
            .trees()
            .first()
            .map_or(0, RegressionTree::num_features);
        if num_features > u32::MAX as usize {
            return Err(format!(
                "{num_features} features overflow the u32 feature ids"
            ));
        }
        let mut flat = FlatForest {
            nodes: Vec::with_capacity(len),
            leaf_values: Vec::with_capacity(len),
            roots: Vec::with_capacity(forest.num_trees()),
            depths: Vec::with_capacity(forest.num_trees()),
            num_features,
        };
        for (t, tree) in forest.trees().iter().enumerate() {
            flat.push_tree(tree).map_err(|e| format!("tree {t}: {e}"))?;
        }
        let sentinel = flat.nodes.len();
        flat.nodes.push(FlatNode::leaf(sentinel));
        flat.leaf_values.push(0.0);
        Ok(flat)
    }

    /// Appends one tree's nodes, rebasing its child indices, and records
    /// its root and depth. The caller has checked that every node index
    /// and feature id fits in a `u32`.
    fn push_tree(&mut self, tree: &RegressionTree) -> Result<(), String> {
        let nodes = tree.nodes();
        let num_features = self.num_features;
        let base = self.nodes.len();
        if nodes.is_empty() {
            return Err("no nodes".to_owned());
        }
        for (i, node) in nodes.iter().enumerate() {
            match *node {
                Node::Leaf { value } => {
                    self.nodes.push(FlatNode::leaf(base + i));
                    self.leaf_values.push(value);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    if left != i + 1 {
                        return Err(format!("split at {i} has non-adjacent left child {left}"));
                    }
                    if right <= i || right >= nodes.len() {
                        return Err(format!("split at {i} has out-of-range right child {right}"));
                    }
                    if feature >= num_features {
                        return Err(format!(
                            "split at {i} references feature {feature} >= {num_features}"
                        ));
                    }
                    self.nodes.push(FlatNode {
                        threshold,
                        feature: feature as u32,
                        right: (base + right) as u32,
                    });
                    self.leaf_values.push(0.0);
                }
            }
        }
        // Children sit after their parent, so one backward pass sees both
        // children's depths before the parent's.
        let tree_nodes = &self.nodes[base..];
        let mut depth = vec![0u32; tree_nodes.len()];
        for (i, node) in tree_nodes.iter().enumerate().rev() {
            let right = node.right as usize - base;
            if right != i {
                depth[i] = 1 + depth[i + 1].max(depth[right]);
            }
        }
        self.roots.push(base as u32);
        self.depths.push(depth[0]);
        Ok(())
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.roots.len()
    }

    /// Dimensionality the forest was fitted on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Mean prediction over all trees for one row — bit-identical to
    /// [`RandomForest::predict`] on the source forest.
    ///
    /// Trees go in groups of eight, and every lane of a group advances
    /// for the group's greatest depth: a lane that reaches its leaf early
    /// stays parked there, so afterwards each lane sits on exactly the
    /// leaf the nested traversal reaches. A group short of eight trees
    /// parks its spare lanes on the sentinel leaf. The sum starts from
    /// `-0.0`, as `Iterator::sum` does, and adds the leaves in tree order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is narrower than the fitted dimensionality (via the
    /// feature access; see [`RegressionTree::predict`]'s contract).
    pub fn predict(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.num_features, "feature dimensionality");
        let sentinel = self.nodes.len() - 1;
        let mut sum = -0.0;
        for (roots, depths) in self.roots.chunks(LANES).zip(self.depths.chunks(LANES)) {
            let mut lanes = [sentinel; LANES];
            for (lane, &root) in lanes.iter_mut().zip(roots) {
                *lane = root as usize;
            }
            for _ in 0..depths.iter().copied().max().unwrap_or(0) {
                for i in &mut lanes {
                    let node = self.nodes[*i];
                    *i = node.next(*i, row[node.feature as usize]);
                }
            }
            for &i in &lanes[..roots.len()] {
                sum += self.leaf_values[i];
            }
        }
        sum / self.num_trees() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::NUM_FEATURES;
    use crate::forest::ForestParams;
    use crate::tree::TreeParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn flat_predictions_bit_identical_to_nested_across_random_forests() {
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
            let flat = FlatForest::from_forest(&forest).unwrap();
            for x in &xs {
                assert_eq!(
                    flat.predict(x).to_bits(),
                    forest.predict(x).to_bits(),
                    "seed {seed}: flat and nested traversal diverged"
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

    /// Asserts that the flat walk reproduces the nested forest bit for
    /// bit on every row.
    fn assert_walk_matches(forest: &RandomForest, rows: &[Vec<f64>], what: &str) {
        let flat = FlatForest::from_forest(forest).unwrap();
        for row in rows {
            assert_eq!(
                flat.predict(row).to_bits(),
                forest.predict(row).to_bits(),
                "{what}: the flat walk diverged on {row:?}"
            );
        }
    }

    #[test]
    fn walk_is_bit_identical_for_every_group_shape() {
        // Tree counts below, at and past one and several 8-tree groups,
        // so the last group is full, partial or a single tree.
        let (xs, ys) = random_problem(17, 120);
        let rows = probe_rows(17);
        let forests: Vec<RandomForest> = [1, 7, 8, 9, 17, 24, 48]
            .into_iter()
            .map(|num_trees| {
                let params = ForestParams {
                    num_trees,
                    tree: TreeParams {
                        max_depth: 6,
                        ..TreeParams::default()
                    },
                    bootstrap_fraction: 0.8,
                };
                RandomForest::fit(&xs, &ys, &params, num_trees as u64)
            })
            .collect();
        for forest in &forests {
            assert_walk_matches(forest, &rows, &format!("{} trees", forest.num_trees()));
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
            RegressionTree::fit(&xs, &ys, &params, 0)
        };
        // Single leaves (depth 0) next to the deepest trees in one group:
        // the early lanes must stay parked on their leaves.
        let uneven = RandomForest::from_trees(
            [0, 12, 1, 0, 9, 3, 12, 0, 2, 11, 0]
                .into_iter()
                .map(tree)
                .collect(),
        );
        let leaves = RandomForest::from_trees((0..3).map(|_| tree(0)).collect());
        let depths = FlatForest::from_forest(&uneven).unwrap().depths;
        assert!(
            depths.contains(&0) && depths.iter().any(|&d| d >= 9),
            "depths {depths:?}"
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
        let forest = RandomForest::from_trees(vec![RegressionTree::fit(&xs, &ys, &params, 0)]);
        let flat = FlatForest::from_forest(&forest).unwrap();
        for (x, side) in [
            (f64::NAN, 5.0),
            (f64::INFINITY, 5.0),
            (f64::NEG_INFINITY, 1.0),
        ] {
            assert_eq!(forest.predict(&[x]), side, "nested walk at {x}");
            assert_eq!(flat.predict(&[x]), side, "flat walk at {x}");
        }
    }

    #[test]
    fn single_leaf_tree_flattens() {
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
        let flat = FlatForest::from_forest(&forest).unwrap();
        assert_eq!(flat.predict(&xs[0]), 7.5);
        assert!(flat.depths.iter().all(|&d| d == 0));
    }

    #[test]
    fn flat_forest_reports_shape() {
        let (xs, ys) = random_problem(9, 60);
        let params = ForestParams {
            num_trees: 5,
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&xs, &ys, &params, 2);
        let flat = FlatForest::from_forest(&forest).unwrap();
        assert_eq!(flat.num_trees(), 5);
        assert_eq!(flat.num_features(), NUM_FEATURES);
        assert!(flat.depths.iter().all(|&d| d > 0));
    }
}
