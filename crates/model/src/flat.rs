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
//!
//! On top of the flat layout, [`FlatForest::specialize_into`] partially
//! evaluates a forest against a batch's shared counter prefix, producing
//! a [`PrunedForest`] whose interleaved walk compares only the six
//! config features of compact suffix rows — the engine actually run per
//! candidate sweep.

use crate::features::FeatureMatrix;
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

/// A whole forest in flat form: the scalar inference engine and the
/// source of [`PrunedForest`] specializations.
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
/// let flat = FlatForest::from_forest(&forest);
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
    /// # Panics
    ///
    /// Panics if a tree violates the layout invariants above — possible
    /// only for a corrupted (hand-deserialized) tree, never for one
    /// produced by [`RegressionTree::fit`].
    pub fn from_forest(forest: &RandomForest) -> FlatForest {
        let len = forest
            .trees()
            .iter()
            .map(RegressionTree::len)
            .sum::<usize>()
            + 1;
        let num_features = forest
            .trees()
            .first()
            .map_or(0, RegressionTree::num_features);
        assert!(
            num_features <= u32::MAX as usize,
            "feature dimensionality {num_features} overflows the u32 id space"
        );
        let mut flat = FlatForest {
            nodes: Vec::with_capacity(len),
            leaf_values: Vec::with_capacity(len),
            roots: Vec::with_capacity(forest.num_trees()),
            depths: Vec::with_capacity(forest.num_trees()),
            num_features,
        };
        for tree in forest.trees() {
            flat.push_tree(tree);
        }
        let sentinel = flat.nodes.len();
        assert!(
            sentinel < u32::MAX as usize,
            "forest too large for u32 node indices"
        );
        flat.nodes.push(FlatNode::leaf(sentinel));
        flat.leaf_values.push(0.0);
        flat
    }

    /// Appends one tree's nodes, rebasing its child indices, and records
    /// its root and depth.
    fn push_tree(&mut self, tree: &RegressionTree) {
        let nodes = tree.nodes();
        let num_features = self.num_features;
        let base = self.nodes.len();
        assert!(!nodes.is_empty(), "tree has no nodes");
        assert!(
            base + nodes.len() < u32::MAX as usize,
            "forest too large for u32 node indices"
        );
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
                    assert!(
                        left == i + 1,
                        "split at {i} has non-adjacent left child {left}"
                    );
                    assert!(
                        right > i && right < nodes.len(),
                        "split at {i} has out-of-range right child {right}"
                    );
                    assert!(
                        feature < num_features,
                        "split at {i} references feature {feature} >= {num_features}"
                    );
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

    /// Prices every row of `matrix`, writing the per-row forest means
    /// into `out` (cleared and refilled; the allocation is reused across
    /// calls, so steady-state batches allocate nothing). Each row is
    /// [`predict`](FlatForest::predict)'s walk.
    ///
    /// # Panics
    ///
    /// Panics when the matrix width differs from the fitted
    /// dimensionality — the batch-boundary check that replaces the
    /// demoted per-call assertions.
    pub fn predict_batch_into(&self, matrix: &FeatureMatrix, out: &mut Vec<f64>) {
        assert_eq!(
            crate::features::NUM_FEATURES,
            self.num_features,
            "feature matrix width differs from fitted dimensionality"
        );
        out.clear();
        out.extend(matrix.iter_rows().map(|row| self.predict(row)));
    }

    /// Allocating convenience wrapper around
    /// [`predict_batch_into`](FlatForest::predict_batch_into).
    pub fn predict_batch(&self, matrix: &FeatureMatrix) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_batch_into(matrix, &mut out);
        out
    }

    /// Partially evaluates every tree against the first `prefix_len`
    /// features of `prefix`, rebuilding `out` in place.
    ///
    /// `prefix` is typically a batch's first row: within one knob sweep
    /// all rows share a bit-identical counter prefix, so splits on those
    /// features resolve to the same side for every row and can be
    /// collapsed once here instead of being re-compared per row. The
    /// resulting [`PrunedForest`] predicts bit-identically to this forest
    /// for any row that carries that exact prefix.
    ///
    /// # Panics
    ///
    /// Panics when `prefix` is shorter than `prefix_len`.
    pub fn specialize_into(&self, prefix: &[f64], prefix_len: usize, out: &mut PrunedForest) {
        let _span = gpm_telemetry::span("flat.specialize");
        assert!(
            prefix.len() >= prefix_len,
            "prefix row narrower than prefix_len"
        );
        out.nodes.clear();
        out.roots.clear();
        out.depths.clear();
        out.num_features = self.num_features;
        out.suffix_base = prefix_len;
        for &root in &self.roots {
            out.roots.push(out.nodes.len() as u32);
            let depth = self.specialize_node(root as usize, prefix, prefix_len, out);
            out.depths.push(depth);
        }
    }

    /// Appends the subtree rooted at `root`, specialized against
    /// `prefix`, to `out`, returning the emitted subtree's depth in edges
    /// (see [`FlatForest::specialize_into`]).
    ///
    /// Splits on prefix features compare once here — with exactly the
    /// `x[f] <= t` semantics of the full walk — and collapse to the taken
    /// side; splits on suffix features are re-emitted (left child first,
    /// preserving the left-is-next-slot layout). Recursion depth is
    /// bounded by the emitted depth, itself bounded by the fitted tree
    /// depth.
    fn specialize_node(
        &self,
        root: usize,
        prefix: &[f64],
        prefix_len: usize,
        out: &mut PrunedForest,
    ) -> u32 {
        let mut i = root;
        // Resolve the chain of prefix-feature splits leading to the next
        // emitted node.
        let (slot, left, right) = loop {
            let node = self.nodes[i];
            if node.right as usize == i {
                out.nodes.push(PrunedNode {
                    threshold: self.leaf_values[i],
                    feature: PRUNED_LEAF,
                    right: 0,
                });
                return 0;
            }
            let fi = node.feature as usize;
            if fi < prefix_len {
                i = node.next(i, prefix[fi]);
                continue;
            }
            let slot = out.nodes.len();
            out.nodes.push(PrunedNode {
                threshold: node.threshold,
                feature: (fi - prefix_len) as u32,
                right: 0,
            });
            break (slot, i + 1, node.right as usize);
        };
        let left_depth = self.specialize_node(left, prefix, prefix_len, out);
        out.nodes[slot].right = out.nodes.len() as u32;
        let right_depth = self.specialize_node(right, prefix, prefix_len, out);
        1 + left_depth.max(right_depth)
    }
}

/// A [`FlatForest`] partially evaluated against one snapshot's shared
/// feature prefix — the per-batch engine behind the Random-Forest
/// predictor's `predict_batch`.
///
/// Within one knob sweep every candidate row carries the *same* counter
/// prefix (written once by
/// [`FeatureBuffer::begin_snapshot`](crate::FeatureBuffer::begin_snapshot))
/// and differs only in the config suffix. Every tree split on a prefix
/// feature therefore takes the same branch for all rows; specialization
/// resolves those splits once and keeps only the suffix splits, so the
/// per-row walk touches a handful of nodes instead of the full tree
/// depth.
///
/// The buffers are reused across [`FlatForest::specialize_into`] calls —
/// steady-state specialization allocates nothing.
///
/// Nodes are stored array-of-structs: one 16-byte `PrunedNode` holds the
/// threshold, feature id, and right-child index together, so each walk
/// step touches a single cache line instead of three parallel arrays —
/// the pruned power forest typically spills past L1, where that halves
/// the loads in the dependent chain.
#[derive(Debug, Clone, Default)]
pub struct PrunedForest {
    nodes: Vec<PrunedNode>,
    roots: Vec<u32>,
    /// Depth in edges of each pruned tree, index-aligned with `roots`;
    /// lets the interleaved walk run an exact-count loop with no per-step
    /// are-all-lanes-done reduction.
    depths: Vec<u32>,
    num_features: usize,
    /// The `prefix_len` the forest was specialized with; node feature ids
    /// are stored relative to it, so the hot walk can run over compact
    /// suffix-only rows.
    suffix_base: usize,
}

/// Leaf sentinel in `PrunedNode::feature`; the threshold lane then
/// holds the leaf value.
const PRUNED_LEAF: u32 = u32::MAX;

/// One specialized split or leaf, packed into 16 bytes.
#[derive(Debug, Clone, Copy)]
struct PrunedNode {
    /// Split threshold, or the leaf value when `feature` is
    /// [`PRUNED_LEAF`].
    threshold: f64,
    /// Feature id compared at this node, relative to
    /// [`PrunedForest::suffix_base`].
    feature: u32,
    /// Right-child index; the left child is always the next slot.
    right: u32,
}

impl PrunedForest {
    /// Number of nodes across all pruned trees (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether every tree pruned down to a single leaf.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= self.roots.len()
    }

    /// Width of the compact suffix rows
    /// [`predict_suffix_batch_into`](PrunedForest::predict_suffix_batch_into)
    /// expects.
    pub fn suffix_width(&self) -> usize {
        self.num_features - self.suffix_base
    }

    /// Prices every row of `matrix`, writing the per-row forest means
    /// into `out` (cleared and refilled, allocation reused).
    ///
    /// Bit-identical to [`FlatForest::predict_batch_into`] on the source
    /// forest **provided** every row carries the prefix the forest was
    /// specialized against: the walk performs the same suffix
    /// comparisons, reaches the same leaves, and accumulates in the same
    /// tree order before one division per row. The interleaved hot path
    /// is [`predict_suffix_batch_into`](PrunedForest::predict_suffix_batch_into);
    /// this full-width walk is the plain reference form.
    ///
    /// # Panics
    ///
    /// Panics when the matrix width differs from the fitted
    /// dimensionality.
    pub fn predict_batch_into(&self, matrix: &FeatureMatrix, out: &mut Vec<f64>) {
        assert_eq!(
            crate::features::NUM_FEATURES,
            self.num_features,
            "feature matrix width differs from fitted dimensionality"
        );
        out.clear();
        out.resize(matrix.rows(), 0.0);
        for &root in &self.roots {
            for (acc, row) in out.iter_mut().zip(matrix.iter_rows()) {
                let mut i = root as usize;
                loop {
                    let node = self.nodes[i];
                    if node.feature == PRUNED_LEAF {
                        *acc += node.threshold;
                        break;
                    }
                    i = if row[self.suffix_base + node.feature as usize] <= node.threshold {
                        i + 1
                    } else {
                        node.right as usize
                    };
                }
            }
        }
        let n = self.roots.len() as f64;
        for acc in out.iter_mut() {
            *acc /= n;
        }
    }

    /// Prices compact suffix-only rows — the batch hot path.
    ///
    /// `suffix` is row-major with
    /// [`suffix_width`](PrunedForest::suffix_width) columns per row: just
    /// the features past the specialization prefix (for the power/perf
    /// model, the six config features — 6×8 bytes per row instead of the
    /// full 14, so a whole campaign sweep stays L1-resident next to the
    /// pruned nodes). Bit-identical to
    /// [`predict_batch_into`](PrunedForest::predict_batch_into) on rows
    /// whose suffix matches.
    ///
    /// # Panics
    ///
    /// Panics when `suffix.len()` is not a multiple of the suffix width.
    pub fn predict_suffix_batch_into(&self, suffix: &[f64], out: &mut Vec<f64>) {
        let width = self.suffix_width();
        assert_eq!(
            suffix.len() % width.max(1),
            0,
            "suffix rows must be {width} wide"
        );
        let rows = suffix.len() / width.max(1);
        out.clear();
        out.resize(rows, 0.0);
        let row_at = |r: usize| &suffix[r * width..r * width + width];
        let nodes = &self.nodes[..];
        for (&root, &depth) in self.roots.iter().zip(&self.depths) {
            let root = root as usize;
            // Eight interleaved traversals, advanced exactly `depth`
            // times: each walk is a dependent load chain (node → feature
            // → compare → next node), so advancing independent rows side
            // by side hides that latency. A lane that reaches its leaf
            // early parks there (`i` unchanged) — after `depth` steps
            // every lane sits at exactly the leaf the scalar walk
            // reaches, with no per-step are-we-done reduction.
            let mut r = 0;
            while r + 8 <= rows {
                let (r0, r1) = (row_at(r), row_at(r + 1));
                let (r2, r3) = (row_at(r + 2), row_at(r + 3));
                let (r4, r5) = (row_at(r + 4), row_at(r + 5));
                let (r6, r7) = (row_at(r + 6), row_at(r + 7));
                let (mut i0, mut i1, mut i2, mut i3) = (root, root, root, root);
                let (mut i4, mut i5, mut i6, mut i7) = (root, root, root, root);
                for _ in 0..depth {
                    i0 = step(i0, nodes[i0], r0);
                    i1 = step(i1, nodes[i1], r1);
                    i2 = step(i2, nodes[i2], r2);
                    i3 = step(i3, nodes[i3], r3);
                    i4 = step(i4, nodes[i4], r4);
                    i5 = step(i5, nodes[i5], r5);
                    i6 = step(i6, nodes[i6], r6);
                    i7 = step(i7, nodes[i7], r7);
                }
                out[r] += nodes[i0].threshold;
                out[r + 1] += nodes[i1].threshold;
                out[r + 2] += nodes[i2].threshold;
                out[r + 3] += nodes[i3].threshold;
                out[r + 4] += nodes[i4].threshold;
                out[r + 5] += nodes[i5].threshold;
                out[r + 6] += nodes[i6].threshold;
                out[r + 7] += nodes[i7].threshold;
                r += 8;
            }
            for (rr, acc) in out.iter_mut().enumerate().skip(r) {
                let row = row_at(rr);
                let mut i = root;
                loop {
                    let node = nodes[i];
                    if node.feature == PRUNED_LEAF {
                        *acc += node.threshold;
                        break;
                    }
                    i = if row[node.feature as usize] <= node.threshold {
                        i + 1
                    } else {
                        node.right as usize
                    };
                }
            }
        }
        let n = self.roots.len() as f64;
        for acc in out.iter_mut() {
            *acc /= n;
        }
    }
}

/// One interleaved-walk step: leaves self-loop, splits advance.
#[inline(always)]
fn step(i: usize, node: PrunedNode, row: &[f64]) -> usize {
    if node.feature == PRUNED_LEAF {
        i
    } else if row[node.feature as usize] <= node.threshold {
        i + 1
    } else {
        node.right as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{encode_features, FeatureBuffer, NUM_FEATURES};
    use crate::forest::ForestParams;
    use crate::tree::TreeParams;
    use gpm_hw::{ConfigSpace, HwConfig};
    use gpm_sim::CounterSet;
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
            let flat = FlatForest::from_forest(&forest);
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
        let flat = FlatForest::from_forest(forest);
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
        let depths = FlatForest::from_forest(&uneven).depths;
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
        let flat = FlatForest::from_forest(&forest);
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
    fn batch_predictions_bit_identical_to_looped_scalar() {
        let sim_counters = CounterSet::from_values([1e8, 40.0, 60.0, 1e5, 6.0, 3.0, 1e6, 1e6]);
        let space = ConfigSpace::paper_campaign();
        let xs: Vec<Vec<f64>> = space
            .iter()
            .map(|cfg| encode_features(&sim_counters, cfg))
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[11] * 3.0 - x[12]).collect();
        let forest = RandomForest::fit(&xs, &ys, &ForestParams::default(), 5);
        let flat = FlatForest::from_forest(&forest);

        let mut buf = FeatureBuffer::new();
        buf.begin_snapshot(&sim_counters);
        for cfg in &space {
            buf.push_config(cfg);
        }
        let batch = flat.predict_batch(buf.matrix());
        assert_eq!(batch.len(), space.len());
        for (out, x) in batch.iter().zip(&xs) {
            assert_eq!(out.to_bits(), forest.predict(x).to_bits());
            assert_eq!(out.to_bits(), flat.predict(x).to_bits());
        }
    }

    #[test]
    fn batch_into_reuses_allocation() {
        let (xs, ys) = random_problem(3, 80);
        let forest = RandomForest::fit(
            &xs,
            &ys,
            &ForestParams {
                num_trees: 4,
                ..ForestParams::default()
            },
            1,
        );
        let flat = FlatForest::from_forest(&forest);
        let mut buf = FeatureBuffer::new();
        buf.begin_snapshot(&CounterSet::default());
        for cfg in &ConfigSpace::paper_campaign() {
            buf.push_config(cfg);
        }
        let mut out = Vec::new();
        flat.predict_batch_into(buf.matrix(), &mut out);
        let cap = out.capacity();
        let first = out.clone();
        flat.predict_batch_into(buf.matrix(), &mut out);
        assert_eq!(out, first);
        assert_eq!(out.capacity(), cap, "refill must not reallocate");
    }

    #[test]
    fn specialized_forest_bit_identical_for_shared_prefix_rows() {
        use crate::features::NUM_CONFIG_FEATURES;
        const PREFIX: usize = NUM_FEATURES - NUM_CONFIG_FEATURES;
        for seed in 0..6u64 {
            let counters = {
                let mut rng = StdRng::seed_from_u64(seed);
                CounterSet::from_values([
                    rng.gen_range(0.0..1e9),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..1e6),
                    rng.gen_range(0.0..16.0),
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..1e7),
                    rng.gen_range(0.0..1e7),
                ])
            };
            let space = ConfigSpace::paper_campaign();
            // Train across several snapshots so the fitted trees split on
            // counter features too — otherwise there is nothing to prune.
            let other_a = CounterSet::from_values([9e8, 80.0, 20.0, 9e5, 15.0, 1.0, 9e6, 1e5]);
            let other_b = CounterSet::from_values([1e6, 5.0, 95.0, 1e3, 1.0, 9.0, 1e4, 8e6]);
            let xs: Vec<Vec<f64>> = [&counters, &other_a, &other_b]
                .into_iter()
                .flat_map(|c| space.iter().map(move |cfg| encode_features(c, cfg)))
                .collect();
            let ys: Vec<f64> = xs
                .iter()
                .map(|x| x[0] * 1e-9 + x[9] - 2.0 * x[12])
                .collect();
            let forest = RandomForest::fit(&xs, &ys, &ForestParams::default(), seed);
            let flat = FlatForest::from_forest(&forest);

            let mut buf = FeatureBuffer::new();
            buf.begin_snapshot(&counters);
            for cfg in &space {
                buf.push_config(cfg);
            }
            let mut pruned = PrunedForest::default();
            flat.specialize_into(buf.matrix().row(0), PREFIX, &mut pruned);
            assert!(
                pruned.len() < flat.nodes.len() - 1,
                "seed {seed}: specialization removed no nodes"
            );
            let mut fast = Vec::new();
            pruned.predict_batch_into(buf.matrix(), &mut fast);
            let full = flat.predict_batch(buf.matrix());
            for (i, (a, b)) in fast.iter().zip(&full).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "seed {seed}, row {i}: pruned and full walks diverged"
                );
            }
            // The compact suffix-only walk (the hot path) must agree too.
            assert_eq!(pruned.suffix_width(), NUM_CONFIG_FEATURES);
            let suffix: Vec<f64> = buf
                .matrix()
                .iter_rows()
                .flat_map(|row| row[PREFIX..].to_vec())
                .collect();
            let mut compact = Vec::new();
            pruned.predict_suffix_batch_into(&suffix, &mut compact);
            for (i, (a, b)) in compact.iter().zip(&full).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "seed {seed}, row {i}: compact suffix walk diverged"
                );
            }
            // Reuse: re-specializing against another snapshot stays correct.
            let counters2 = CounterSet::from_values([5e8, 10.0, 90.0, 2e5, 3.0, 7.0, 4e6, 9e5]);
            let mut buf2 = FeatureBuffer::new();
            buf2.begin_snapshot(&counters2);
            for cfg in &space {
                buf2.push_config(cfg);
            }
            flat.specialize_into(buf2.matrix().row(0), PREFIX, &mut pruned);
            pruned.predict_batch_into(buf2.matrix(), &mut fast);
            let full2 = flat.predict_batch(buf2.matrix());
            for (a, b) in fast.iter().zip(&full2) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
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
        let flat = FlatForest::from_forest(&forest);
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
        let flat = FlatForest::from_forest(&forest);
        assert_eq!(flat.num_trees(), 5);
        assert_eq!(flat.num_features(), NUM_FEATURES);
        assert!(flat.depths.iter().all(|&d| d > 0));
        let _ = HwConfig::FAIL_SAFE; // keep the hw import exercised in all cfgs
    }
}
