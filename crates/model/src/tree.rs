//! CART regression trees with variance-reduction splitting.
//!
//! Each tree greedily chooses, at every node, the (feature, threshold) pair
//! that minimizes the summed squared error of the two children. Thresholds
//! are midpoints between the node's sorted distinct feature values, taken
//! at up to [`TreeParams::threshold_candidates`] evenly spaced quantiles.
//!
//! Training never sorts a node's samples. `RankedColumns` maps every
//! column to ranks into its sorted distinct values once per dataset, so a
//! node counts its samples per rank, noting each rank on its first sample
//! (sorting only those few ranks), and a threshold's left child is the
//! samples whose rank lies below a bound. The node's targets are then
//! swept once, in sample order, per group of `LANES` thresholds: each
//! lane adds a sample's target, or `-0.0` when the sample goes right,
//! which leaves a sum unchanged. Every left sum is therefore the same
//! sequence of additions a per-threshold rescan would make, so the fitted
//! tree is bit-identical to it. The order matters: features that induce
//! the same partition tie on SSE, and the strict `<` that keeps the first
//! of them sees different last bits under any other summation order.
//!
//! The split search is compiled once per instruction-set tier (AVX2 and
//! the portable baseline) and each fit runs the widest copy the CPU
//! supports ([`fit_simd_tier`] names it), so one operation of an 8-lane
//! sweep step is two AVX2 instructions instead of four SSE2 ones. The
//! lanes make the same IEEE additions, multiplications and divisions at
//! every width (Rust never fuses them into FMAs), so every tier grows the
//! same tree bit for bit.
//!
//! A `TreeFitter` writes each tree straight into the packed 16-byte
//! layout that forests are walked and saved in (`PackedNode`): it
//! reserves a node's slot before recursing left, so a split's left child
//! is always the next slot, and fills the split in once its right child's
//! index is known. [`RegressionTree`], the nested enum-node form, is only
//! the reference the oracle tests compare fits and walks against.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hyper-parameters of a single regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth; the root is depth 0.
    pub max_depth: usize,
    /// Minimum samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Number of features examined per split (`None` = all). Random
    /// forests set this to roughly √d to decorrelate trees.
    pub feature_subsample: Option<usize>,
    /// Candidate split thresholds examined per feature.
    pub threshold_candidates: usize,
}

impl Default for TreeParams {
    fn default() -> TreeParams {
        TreeParams {
            max_depth: 12,
            min_samples_leaf: 2,
            feature_subsample: None,
            threshold_candidates: 24,
        }
    }
}

/// One split or leaf of a fitted tree in the packed layout: 16 bytes.
///
/// The left child of a split is always the next slot, since the fitter
/// reserves a node's slot before it recurses left. A leaf's right child
/// is its own index and its threshold is NaN, so the walk step
/// `if x <= threshold { i + 1 } else { right }` parks on it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackedNode {
    /// Split threshold; NaN at a leaf, where every comparison fails.
    pub(crate) threshold: f64,
    /// Feature id compared at this node; 0 at a leaf, whose comparison
    /// never decides anything.
    pub(crate) feature: u32,
    /// Right-child index into the forest's node array; a leaf holds its
    /// own index.
    pub(crate) right: u32,
}

impl PackedNode {
    /// The leaf at node index `i`: it loops back to itself.
    pub(crate) fn leaf(i: usize) -> PackedNode {
        PackedNode {
            threshold: f64::NAN,
            feature: 0,
            right: i as u32,
        }
    }

    /// One walk step from this node, stored at index `i`, given the value
    /// `x` of its feature. The direction is data, so it is a conditional
    /// move: a mispredicted jump would flush every other lane of the walk.
    #[inline(always)]
    pub(crate) fn next(self, i: usize, x: f64) -> usize {
        std::hint::select_unpredictable(x <= self.threshold, i + 1, self.right as usize)
    }
}

impl PartialEq for PackedNode {
    /// Bit for bit, so a `-0.0` threshold differs from `0.0` and a leaf's
    /// NaN equals itself.
    fn eq(&self, other: &PackedNode) -> bool {
        (self.threshold.to_bits(), self.feature, self.right)
            == (other.threshold.to_bits(), other.feature, other.right)
    }
}

/// Fitted trees in the packed layout, tree after tree, with child
/// indices counted from the start of `nodes`: what a fit worker appends
/// its trees to and a [`RandomForest`](crate::RandomForest) holds.
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedTrees {
    pub(crate) nodes: Vec<PackedNode>,
    /// Leaf value per node, index-aligned with `nodes` (0.0 at splits).
    pub(crate) leaf_values: Vec<f64>,
    /// Index of each tree's root in `nodes`.
    pub(crate) roots: Vec<u32>,
}

impl PackedTrees {
    /// Appends `other`'s trees after these, rebasing its indices.
    pub(crate) fn append(&mut self, other: PackedTrees) {
        if self.roots.is_empty() {
            *self = other;
            return;
        }
        let base = self.nodes.len() as u32;
        self.roots
            .extend(other.roots.iter().map(|&root| root + base));
        self.nodes
            .extend(other.nodes.iter().map(|&node| PackedNode {
                right: node.right + base,
                ..node
            }));
        self.leaf_values.extend_from_slice(&other.leaf_values);
    }

    /// The node indices of tree `t`: from its root to the next tree's.
    pub(crate) fn span(&self, t: usize) -> std::ops::Range<usize> {
        let end = self
            .roots
            .get(t + 1)
            .map_or(self.nodes.len(), |&root| root as usize);
        self.roots[t] as usize..end
    }
}

/// A node of a [`RegressionTree`], the nested reference form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// One tree as an array of enum nodes, walked one `match` per step: the
/// reference the packed forest walk is checked against, bit for bit.
///
/// Only [`RandomForest::to_trees`](crate::RandomForest::to_trees) and the
/// per-threshold oracle fitter of the tests build one; forests are fitted,
/// walked and saved in the packed layout.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    num_features: usize,
}

impl RegressionTree {
    /// Unpacks tree `t` of `trees`, fitted on `num_features` features.
    pub(crate) fn unpack(trees: &PackedTrees, t: usize, num_features: usize) -> RegressionTree {
        let span = trees.span(t);
        let base = span.start;
        let nodes = span
            .map(|i| {
                let node = trees.nodes[i];
                if node.right as usize == i {
                    Node::Leaf {
                        value: trees.leaf_values[i],
                    }
                } else {
                    Node::Split {
                        feature: node.feature as usize,
                        threshold: node.threshold,
                        left: i + 1 - base,
                        right: node.right as usize - base,
                    }
                }
            })
            .collect();
        RegressionTree {
            nodes,
            num_features,
        }
    }

    /// Predicts the target for one feature vector.
    ///
    /// # Panics
    ///
    /// Debug builds panic unless `x` has exactly the training
    /// dimensionality; release builds panic only when a feature it
    /// reads lies past the end of `x`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(
            x.len(),
            self.num_features,
            "feature dimensionality mismatch"
        );
        let mut node = 0usize;
        loop {
            match self.nodes[node] {
                Node::Leaf { value } => return value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[feature] <= threshold { left } else { right };
                }
            }
        }
    }
}

/// Rank of a NaN with its sign bit set; `total_cmp` sorts it first.
const NEG_NAN: u32 = u32::MAX - 1;
/// Rank of a NaN with its sign bit clear; `total_cmp` sorts it last.
const POS_NAN: u32 = u32::MAX;

/// Thresholds scored per sweep over a node's samples: few enough that
/// every lane's two sums stay in registers.
const LANES: usize = 8;

/// An instruction set the split search is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimdTier {
    /// The target's baseline (SSE2 on x86-64), and the only tier off x86.
    Portable,
    /// 256-bit vectors: one 8-lane step is two instructions.
    Avx2,
}

impl SimdTier {
    /// Every tier, widest first.
    pub(crate) const ALL: [SimdTier; 2] = [SimdTier::Avx2, SimdTier::Portable];

    /// Whether this CPU can run the tier.
    pub(crate) fn is_supported(self) -> bool {
        match self {
            SimdTier::Portable => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdTier::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            SimdTier::Avx2 => false,
        }
    }

    /// The widest tier this CPU can run.
    pub(crate) fn detected() -> SimdTier {
        SimdTier::ALL
            .into_iter()
            .find(|tier| tier.is_supported())
            .unwrap_or(SimdTier::Portable)
    }

    /// The tier's name as reports print it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            SimdTier::Portable => "portable",
            SimdTier::Avx2 => "avx2",
        }
    }
}

/// The instruction-set tier forest fits on this CPU search splits with:
/// `"avx2"` or `"portable"`. Every tier grows the same trees bit for bit;
/// only the fit time differs.
///
/// # Examples
///
/// ```
/// let tier = gpm_model::fit_simd_tier();
/// assert!(["avx2", "portable"].contains(&tier));
/// ```
pub fn fit_simd_tier() -> &'static str {
    SimdTier::detected().name()
}

/// A feature matrix rank-encoded once per dataset.
///
/// Column `f` keeps its distinct non-NaN values sorted the way a node
/// sorts them (`total_cmp`, then `==` dedup, so `-0.0` and `0.0` share a
/// rank), and each row stores the rank of its value. Sharing a rank is
/// safe: a midpoint `(z + v) / 2` is the same for either zero `z`, and
/// `<=` compares the two zeros alike. NaNs get one sentinel rank per sign,
/// because `==` never merges them: a node's sorted values hold one entry
/// per NaN, first or last by sign.
#[derive(Debug)]
pub(crate) struct RankedColumns {
    num_rows: usize,
    /// Per feature, the sorted distinct non-NaN values.
    values: Vec<Vec<f64>>,
    /// Per feature, the rank of every row's value in `values`.
    ranks: Vec<Vec<u32>>,
}

impl RankedColumns {
    /// Encodes a feature matrix given as one `Vec` per row.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or there are more
    /// than `u32::MAX - 2` of them.
    pub(crate) fn from_rows(xs: &[Vec<f64>]) -> RankedColumns {
        let num_features = xs.first().map_or(0, Vec::len);
        assert!(
            xs.iter().all(|x| x.len() == num_features),
            "inconsistent feature dimensionality"
        );
        RankedColumns::from_matrix(&xs.concat(), xs.len(), num_features)
    }

    /// Encodes a row-major feature matrix of `num_rows` rows of
    /// `num_features` values each.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` does not hold `num_rows * num_features` values
    /// or there are more than `u32::MAX - 2` rows.
    pub(crate) fn from_matrix(
        matrix: &[f64],
        num_rows: usize,
        num_features: usize,
    ) -> RankedColumns {
        assert_eq!(
            matrix.len(),
            num_rows * num_features,
            "inconsistent feature dimensionality"
        );
        assert!(num_rows < NEG_NAN as usize, "too many rows to rank");
        let mut rank_of = RankTable::default();
        let (values, ranks) = (0..num_features)
            .map(|f| {
                let column = || matrix.iter().skip(f).step_by(num_features).copied();
                rank_column(column, &mut rank_of)
            })
            .unzip();
        RankedColumns {
            num_rows,
            values,
            ranks,
        }
    }

    pub(crate) fn num_rows(&self) -> usize {
        self.num_rows
    }

    pub(crate) fn num_features(&self) -> usize {
        self.values.len()
    }
}

/// One column of [`RankedColumns`]: its sorted distinct non-NaN values
/// and every row's rank in them.
type RankedColumn = (Vec<f64>, Vec<u32>);

/// A hash map from a value's bit pattern to its rank in its column.
type RankTable = HashMap<u64, u32, BuildHasherDefault<BitsHasher>>;

/// Hashes one `u64` bit pattern: a multiply between two xor-shifts,
/// so the bucket index (low bits) and the control byte (high bits) both
/// depend on every input bit. Float bit patterns of round values end in
/// long runs of zeros, which a bare multiply would leave in the low bits.
#[derive(Default)]
struct BitsHasher(u64);

impl Hasher for BitsHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 bit patterns are hashed");
    }

    fn write_u64(&mut self, bits: u64) {
        let x = (bits ^ (bits >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 29);
    }
}

/// Ranks one column; `column` yields its values in row order.
///
/// A campaign column holds at most a few hundred distinct values however
/// many rows it has, so only the distinct bit patterns are sorted, and
/// each row's rank is then looked up by its bit pattern. Sorting bit
/// patterns distinct by `total_cmp` and merging `==` values keeps the
/// same values, in the same order, as sorting the whole column would.
/// `rank_of` is cleared first; it is passed in so its buckets are
/// allocated once per matrix, not once per column.
fn rank_column<I: Iterator<Item = f64>>(
    column: impl Fn() -> I,
    rank_of: &mut RankTable,
) -> RankedColumn {
    rank_of.clear();
    for v in column().filter(|v| !v.is_nan()) {
        rank_of.insert(v.to_bits(), 0);
    }
    let mut distinct: Vec<f64> = rank_of.keys().map(|&bits| f64::from_bits(bits)).collect();
    distinct.sort_unstable_by(f64::total_cmp);
    distinct.dedup();
    for (&bits, rank) in rank_of.iter_mut() {
        let v = f64::from_bits(bits);
        *rank = distinct.partition_point(|&u| u < v) as u32;
    }
    let ranks = column()
        .map(|v| match v {
            v if v.is_nan() && v.is_sign_negative() => NEG_NAN,
            v if v.is_nan() => POS_NAN,
            v => rank_of[&v.to_bits()],
        })
        .collect();
    (distinct, ranks)
}

/// Buffers a [`TreeFitter`] reuses across every node of every tree.
#[derive(Debug, Default)]
struct FitScratch {
    /// The node's targets and squared targets, in sample order.
    ys: Vec<f64>,
    qs: Vec<f64>,
    /// The node's ranks in the feature being scored, in sample order and
    /// as `f64`, so the sweep's comparisons yield masks as wide as its
    /// sums. NaN samples read `+inf` and go right of every threshold.
    ranks: Vec<f64>,
    /// Per rank, the last scored node's sample count: nonzero only at the
    /// ranks in `present`, which the next call zeroes.
    count: Vec<u32>,
    /// Ranks present at the node, ascending.
    present: Vec<u32>,
    candidates: Vec<Candidate>,
    features: Vec<usize>,
    /// Right-child rows while a node's rows are partitioned.
    spill: Vec<u32>,
}

/// A threshold worth scoring: its left child is the node's samples with
/// rank below `bound`, `left` of them.
#[derive(Debug)]
struct Candidate {
    threshold: f64,
    bound: u32,
    left: usize,
}

/// The chosen split of a node.
struct Split {
    feature: usize,
    threshold: f64,
    bound: u32,
    sse: f64,
}

/// Fits trees one after another straight into the packed layout: one per
/// fit worker, reusing its buffers across every tree.
pub(crate) struct TreeFitter<'a> {
    columns: &'a RankedColumns,
    ys: &'a [f64],
    params: &'a TreeParams,
    /// Which build of the split search runs; `new` checked that this CPU
    /// supports it.
    tier: SimdTier,
    /// The feature subsampling stream of the tree being fitted.
    rng: StdRng,
    scratch: FitScratch,
    /// Every tree fitted so far.
    pub(crate) trees: PackedTrees,
}

impl<'a> TreeFitter<'a> {
    /// A fitter of trees on `columns` against the targets `ys`, searching
    /// splits with `tier`'s build.
    ///
    /// # Panics
    ///
    /// Panics if this CPU cannot run `tier`.
    pub(crate) fn new(
        columns: &'a RankedColumns,
        ys: &'a [f64],
        params: &'a TreeParams,
        tier: SimdTier,
    ) -> TreeFitter<'a> {
        assert!(tier.is_supported(), "this CPU cannot run the {tier:?} tier");
        TreeFitter {
            columns,
            ys,
            params,
            tier,
            rng: StdRng::seed_from_u64(0),
            scratch: FitScratch::default(),
            trees: PackedTrees::default(),
        }
    }

    /// Fits one tree to the samples `rows` (repeats allowed, in the order
    /// the samples were drawn), subsampling features with a stream seeded
    /// by `seed`, and appends it to [`trees`](TreeFitter::trees). `rows`
    /// is reordered in place.
    pub(crate) fn fit(&mut self, rows: &mut [u32], seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        self.trees.roots.push(self.trees.nodes.len() as u32);
        self.build(rows, 0);
    }

    /// Appends the subtree of `rows` in preorder: a node, its left
    /// subtree, then its right subtree.
    fn build(&mut self, rows: &mut [u32], depth: usize) {
        let sum = rows.iter().map(|&r| self.ys[r as usize]).sum::<f64>();
        let mean = sum / rows.len() as f64;
        let stop = depth >= self.params.max_depth
            || rows.len() < 2 * self.params.min_samples_leaf
            || rows
                .iter()
                .all(|&r| (self.ys[r as usize] - mean).abs() < 1e-15);
        let split = if stop {
            None
        } else {
            self.best_split(rows, sum)
        };
        let slot = self.trees.nodes.len();
        self.trees.nodes.push(PackedNode::leaf(slot));
        let Some(split) = split else {
            self.trees.leaf_values.push(mean);
            return;
        };
        // The slot is reserved before recursing, so the left child is the
        // next one; the split is written over it once the right child's
        // index is known.
        self.trees.leaf_values.push(0.0);

        // Stable partition, so each child keeps the sample order its sums
        // are accumulated in. Every row is written to both sides and only
        // its side's cursor advances: the branch would mispredict on
        // about every other row.
        let ranks = &self.columns.ranks[split.feature];
        let spill = &mut self.scratch.spill;
        spill.clear();
        spill.resize(rows.len(), 0);
        let (mut left, mut right) = (0, 0);
        for i in 0..rows.len() {
            let row = rows[i];
            let goes_left = ranks[row as usize] < split.bound;
            rows[left] = row;
            spill[right] = row;
            left += usize::from(goes_left);
            right += usize::from(!goes_left);
        }
        rows[left..].copy_from_slice(&spill[..right]);
        let (left_rows, right_rows) = rows.split_at_mut(left);

        self.build(left_rows, depth + 1);
        let right = self.trees.nodes.len();
        self.build(right_rows, depth + 1);
        self.trees.nodes[slot] = PackedNode {
            threshold: split.threshold,
            feature: split.feature as u32,
            right: right as u32,
        };
    }

    /// The split with the least child SSE, earliest in (shuffled feature,
    /// ascending threshold) order on ties; `None` when no split improves
    /// on the parent. Runs the fit's tier of [`search`](Fitter::search).
    fn best_split(&mut self, rows: &[u32], sum: f64) -> Option<Split> {
        match self.tier {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdTier::Avx2 => {
                // SAFETY: `TreeFitter::new` only builds a fitter for a tier
                // that `is_supported` found this CPU runs: AVX2.
                unsafe { self.search_avx2(rows, sum) }
            }
            _ => self.search(rows, sum),
        }
    }

    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    fn search_avx2(&mut self, rows: &[u32], sum: f64) -> Option<Split> {
        self.search(rows, sum)
    }

    /// The body of [`best_split`](Fitter::best_split), inlined into each
    /// tier's build so the sweep is compiled for that tier's vectors.
    #[inline(always)]
    fn search(&mut self, rows: &[u32], sum: f64) -> Option<Split> {
        let num_features = self.columns.num_features();
        let s = &mut self.scratch;
        s.features.clear();
        s.features.extend(0..num_features);
        if let Some(k) = self.params.feature_subsample {
            s.features.shuffle(&mut self.rng);
            s.features.truncate(k.max(1).min(num_features));
        }
        s.ys.clear();
        s.ys.extend(rows.iter().map(|&r| self.ys[r as usize]));
        s.qs.clear();
        s.qs.extend(s.ys.iter().map(|y| y * y));

        let n = rows.len() as f64;
        let sum_sq = s.qs.iter().copied().sum::<f64>();
        let parent_sse_base = sum_sq - sum * sum / n;

        let mut best: Option<Split> = None;
        for fi in 0..s.features.len() {
            let feature = s.features[fi];
            s.collect_candidates(self.columns, feature, rows, self.params);
            for group in s.candidates.chunks(LANES) {
                let (sls, qls) = s.sweep(group);
                for (c, (&sl, &ql)) in group.iter().zip(sls.iter().zip(&qls)) {
                    let nl = c.left as f64;
                    let nr = n - nl;
                    let sr = sum - sl;
                    let qr = sum_sq - ql;
                    let sse = (ql - sl * sl / nl) + (qr - sr * sr / nr);
                    if sse < parent_sse_base - 1e-12 && best.as_ref().is_none_or(|b| sse < b.sse) {
                        best = Some(Split {
                            feature,
                            threshold: c.threshold,
                            bound: c.bound,
                            sse,
                        });
                    }
                }
            }
        }
        best
    }
}

impl FitScratch {
    /// Fills `ranks` with the node's ranks in `feature` and `candidates`
    /// with the thresholds worth scoring, ascending.
    ///
    /// The thresholds are those of a sort of the node's values: with the
    /// `L` sorted values (NaNs included, one entry each), up to
    /// `threshold_candidates` positions `k` are spaced `(L-1)/K` apart
    /// and give `(v[k] + v[k+1]) / 2`. Thresholds that cannot change the
    /// result are dropped: NaN ones and ones with an empty left child
    /// (their SSE is NaN), ones with the same left child as the previous
    /// one (an equal SSE loses the strict-`<` tie), and ones that leave a
    /// child under `min_samples_leaf`.
    #[inline(always)]
    fn collect_candidates(
        &mut self,
        columns: &RankedColumns,
        feature: usize,
        rows: &[u32],
        params: &TreeParams,
    ) {
        let values = &columns.values[feature];
        let column = &columns.ranks[feature];
        for &r in &self.present {
            self.count[r as usize] = 0;
        }
        if self.count.len() < values.len() {
            self.count.resize(values.len(), 0);
        }
        let count = &mut self.count[..values.len()];

        self.present.clear();
        self.ranks.clear();
        self.ranks.resize(rows.len(), 0.0);
        let (mut neg_nan, mut pos_nan) = (0usize, 0usize);
        for (rank, &row) in self.ranks.iter_mut().zip(rows) {
            let r = column[row as usize];
            if r >= NEG_NAN {
                if r == NEG_NAN {
                    neg_nan += 1;
                } else {
                    pos_nan += 1;
                }
                *rank = f64::INFINITY;
                continue;
            }
            *rank = f64::from(r);
            let at = r as usize;
            if count[at] == 0 {
                self.present.push(r);
            }
            count[at] += 1;
        }
        // One entry per distinct value, so this sorts at most a column's
        // distinct values (121 on the deployed data), not the node.
        self.present.sort_unstable();

        self.candidates.clear();
        let present = &self.present;
        let total = neg_nan + present.len() + pos_nan;
        if total < 2 {
            return;
        }
        let value_at = |pos: usize| match pos.checked_sub(neg_nan) {
            Some(i) if i < present.len() => values[present[i] as usize],
            _ => f64::NAN,
        };
        let max_candidates = params.threshold_candidates;
        let step = (total - 1).max(1) as f64 / max_candidates as f64;
        let mut t = step;
        let mut emitted = 0;
        // `present[..below]` are the ranks at or under the threshold; the
        // thresholds never decrease, so `below` only advances.
        let mut below = 0;
        let mut left = 0usize;
        let mut previous_left = 0usize;
        while t < (total - 1) as f64 + 1e-9 && emitted < max_candidates {
            let k = (t as usize).min(total - 2);
            emitted += 1;
            t += step.max(1e-9);
            let threshold = (value_at(k) + value_at(k + 1)) / 2.0;
            if threshold.is_nan() {
                continue;
            }
            while below < present.len() && values[present[below] as usize] <= threshold {
                left += self.count[present[below] as usize] as usize;
                below += 1;
            }
            if left == previous_left {
                continue;
            }
            previous_left = left;
            if left < params.min_samples_leaf || rows.len() - left < params.min_samples_leaf {
                continue;
            }
            self.candidates.push(Candidate {
                threshold,
                bound: present[below - 1] + 1,
                left,
            });
        }
    }

    /// Left-child sums of targets and squared targets for up to [`LANES`]
    /// candidates, accumulated in sample order. A lane adds `-0.0` for a
    /// sample that goes right, which leaves its sum bit-for-bit unchanged.
    #[inline(always)]
    fn sweep(&self, group: &[Candidate]) -> ([f64; LANES], [f64; LANES]) {
        // Unused lanes keep bound 0, which no rank is below.
        let mut bound = [0.0f64; LANES];
        for (b, c) in bound.iter_mut().zip(group) {
            *b = f64::from(c.bound);
        }
        let mut sl = [0.0f64; LANES];
        let mut ql = [0.0f64; LANES];
        for ((&r, &y), &q) in self.ranks.iter().zip(&self.ys).zip(&self.qs) {
            for lane in 0..LANES {
                let goes_left = r < bound[lane];
                sl[lane] += if goes_left { y } else { -0.0 };
                ql[lane] += if goes_left { q } else { -0.0 };
            }
        }
        (sl, ql)
    }
}

/// The per-threshold scanner the ranked fitter replaced, kept as the
/// reference it must match bit for bit: at every node it sorts each
/// sampled feature's values, then rescans the node once per threshold.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{Node, RegressionTree, TreeParams};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Asserts that `tree` is the oracle's `reference` bit for bit:
    /// `Debug` prints every float in full, down to the sign of a zero.
    pub(crate) fn assert_same(tree: &RegressionTree, reference: &RegressionTree, what: &str) {
        // `assert!`, not `assert_eq!`: a deployed tree prints as ~100 KB.
        assert!(
            format!("{tree:?}") == format!("{reference:?}"),
            "{what}: the tree diverged from the oracle"
        );
    }

    /// Fits a tree to `(xs, ys)` the way the ranked fitter must.
    pub(crate) fn fit(
        xs: &[Vec<f64>],
        ys: &[f64],
        params: &TreeParams,
        seed: u64,
    ) -> RegressionTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            num_features: xs[0].len(),
        };
        let idx: Vec<usize> = (0..xs.len()).collect();
        build(&mut tree, xs, ys, idx, 0, params, &mut rng);
        tree
    }

    fn build(
        tree: &mut RegressionTree,
        xs: &[Vec<f64>],
        ys: &[f64],
        idx: Vec<usize>,
        depth: usize,
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> usize {
        let mean = idx.iter().map(|&i| ys[i]).sum::<f64>() / idx.len() as f64;
        let stop = depth >= params.max_depth
            || idx.len() < 2 * params.min_samples_leaf
            || idx.iter().all(|&i| (ys[i] - mean).abs() < 1e-15);
        if stop {
            tree.nodes.push(Node::Leaf { value: mean });
            return tree.nodes.len() - 1;
        }

        let split = best_split(tree.num_features, xs, ys, &idx, params, rng);
        let Some((feature, threshold)) = split else {
            tree.nodes.push(Node::Leaf { value: mean });
            return tree.nodes.len() - 1;
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            idx.into_iter().partition(|&i| xs[i][feature] <= threshold);
        let slot = tree.nodes.len();
        tree.nodes.push(Node::Leaf { value: mean });
        let left = build(tree, xs, ys, left_idx, depth + 1, params, rng);
        let right = build(tree, xs, ys, right_idx, depth + 1, params, rng);
        tree.nodes[slot] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }

    fn best_split(
        num_features: usize,
        xs: &[Vec<f64>],
        ys: &[f64],
        idx: &[usize],
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> Option<(usize, f64)> {
        let mut features: Vec<usize> = (0..num_features).collect();
        if let Some(k) = params.feature_subsample {
            features.shuffle(rng);
            features.truncate(k.max(1).min(num_features));
        }

        let n = idx.len() as f64;
        let sum: f64 = idx.iter().map(|&i| ys[i]).sum();
        let sum_sq: f64 = idx.iter().map(|&i| ys[i] * ys[i]).sum();
        let parent_sse_base = sum_sq - sum * sum / n;

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for &f in &features {
            let mut vals: Vec<f64> = idx.iter().map(|&i| xs[i][f]).collect();
            vals.sort_by(|a, b| a.total_cmp(b));
            vals.dedup();
            if vals.len() < 2 {
                continue;
            }
            let step = (vals.len() - 1).max(1) as f64 / params.threshold_candidates as f64;
            let mut thresholds: Vec<f64> = Vec::new();
            let mut t = step;
            while t < (vals.len() - 1) as f64 + 1e-9
                && thresholds.len() < params.threshold_candidates
            {
                let k = (t as usize).min(vals.len() - 2);
                thresholds.push((vals[k] + vals[k + 1]) / 2.0);
                t += step.max(1e-9);
            }
            thresholds.dedup();

            for &thr in &thresholds {
                let mut nl = 0.0f64;
                let mut sl = 0.0f64;
                let mut ql = 0.0f64;
                for &i in idx {
                    if xs[i][f] <= thr {
                        nl += 1.0;
                        sl += ys[i];
                        ql += ys[i] * ys[i];
                    }
                }
                let nr = n - nl;
                if (nl as usize) < params.min_samples_leaf
                    || (nr as usize) < params.min_samples_leaf
                {
                    continue;
                }
                let sr = sum - sl;
                let qr = sum_sq - ql;
                let sse = (ql - sl * sl / nl) + (qr - sr * sr / nr);
                if sse < parent_sse_base - 1e-12 && best.is_none_or(|(_, _, b)| sse < b) {
                    best = Some((f, thr, sse));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomForest;
    use rand::{Rng, RngCore};

    /// A seeded dataset whose columns cover what the ranked fitter must
    /// treat exactly as a sort would: heavy duplicates, continuous and
    /// negative values, both zeros, NaNs of both signs, infinities,
    /// neighbouring floats whose midpoint rounds onto one of them, and
    /// values whose midpoint overflows. Columns 5 and 6 repeat column 0's
    /// partitions, so equally good splits tie across features the way
    /// per-kernel counter features do.
    fn mixed_dataset(seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let one_up = 1.0 + f64::EPSILON;
        let extremes = [
            1.0,
            one_up,
            one_up + f64::EPSILON,
            1e308,
            1.7e308,
            -1e308,
            -1.7e308,
        ];
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let dup = f64::from(rng.gen_range(0..6u32)) * 0.5 - 1.0;
                vec![
                    dup,
                    rng.gen_range(-50.0..50.0),
                    [-0.0, 0.0, -1.5, 2.25, 0.0][rng.gen_range(0..5usize)],
                    match rng.gen_range(0..10u32) {
                        0 => f64::NAN,
                        1 => -f64::NAN,
                        2 => f64::INFINITY,
                        3 => f64::NEG_INFINITY,
                        k => f64::from(k),
                    },
                    extremes[rng.gen_range(0..extremes.len())],
                    dup * 7.0 + 100.0,
                    dup,
                ]
            })
            .collect();
        let ys = xs
            .iter()
            .map(|x| {
                let signal = 3.0 * x[0] + if x[2] > 0.0 { 1.5 } else { -0.5 } + x[1] / 25.0;
                // Quantized noise keeps many targets exactly equal.
                signal + f64::from(rng.gen_range(0..4u32)) * 0.25
            })
            .collect();
        (xs, ys)
    }

    /// One oracle case: a bootstrap bag (repeated rows, in draw order) of a
    /// mixed dataset, the parameters to fit it with, and the oracle's tree.
    struct OracleCase<'a> {
        /// The whole dataset, rank-encoded, and its targets.
        columns: &'a RankedColumns,
        ys: &'a [f64],
        bag: Vec<u32>,
        bag_xs: Vec<Vec<f64>>,
        bag_ys: Vec<f64>,
        params: TreeParams,
        seed: u64,
        reference: RegressionTree,
        what: String,
    }

    /// The rank encoding of one column by its definition: sort a copy of
    /// the whole column, merge `==` neighbours, and binary-search every
    /// row.
    fn sorted_column_oracle(column: &[f64]) -> RankedColumn {
        let mut distinct: Vec<f64> = column.iter().copied().filter(|v| !v.is_nan()).collect();
        distinct.sort_unstable_by(f64::total_cmp);
        distinct.dedup();
        let ranks = column
            .iter()
            .map(|&v| match v {
                v if v.is_nan() && v.is_sign_negative() => NEG_NAN,
                v if v.is_nan() => POS_NAN,
                v => distinct.partition_point(|&u| u < v) as u32,
            })
            .collect();
        (distinct, ranks)
    }

    #[test]
    fn ranking_matches_the_sorted_column_oracle() {
        // Repeated values, both zeros and NaNs of both signs in every
        // column; the last column has (almost) every value distinct.
        let rows = 5_000;
        let width = 5;
        let mut rng = StdRng::seed_from_u64(41);
        let specials = [0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY];
        let matrix: Vec<f64> = (0..rows * width)
            .map(|i| match rng.gen_range(0..10) {
                _ if i % width == width - 1 => rng.gen_range(-1e3..1e3),
                0 => specials[i % specials.len()],
                1..=4 => f64::from(rng.gen_range(0..40)),
                _ => rng.gen_range(-1e3..1e3),
            })
            .collect();
        let ranked = RankedColumns::from_matrix(&matrix, rows, width);
        assert_eq!(ranked.num_rows(), rows);
        assert_eq!(ranked.num_features(), width);
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        for f in 0..width {
            let column: Vec<f64> = matrix.iter().skip(f).step_by(width).copied().collect();
            let (values, ranks) = sorted_column_oracle(&column);
            assert_eq!(bits(&ranked.values[f]), bits(&values), "column {f}");
            assert_eq!(ranked.ranks[f], ranks, "column {f}");
        }
        // A column holding only `0.0` keeps `0.0`; once a `-0.0` joins,
        // the merged zero is `-0.0`, as in the sorted column.
        for column in [vec![0.0, 0.0], vec![0.0, -0.0, 0.0], vec![f64::NAN]] {
            let ranked = RankedColumns::from_matrix(&column, column.len(), 1);
            let (values, ranks) = sorted_column_oracle(&column);
            assert_eq!(bits(&ranked.values[0]), bits(&values), "{column:?}");
            assert_eq!(ranked.ranks[0], ranks, "{column:?}");
        }
        let nested: Vec<Vec<f64>> = matrix.chunks(width).map(<[f64]>::to_vec).collect();
        assert_eq!(RankedColumns::from_rows(&nested).ranks, ranked.ranks);
    }

    /// Calls `check` on every oracle case: three mixed datasets, 1–64
    /// thresholds, leaves of 1–5 samples, with and without feature
    /// subsampling.
    fn for_each_oracle_case(mut check: impl FnMut(&OracleCase)) {
        // The largest set gives the continuous column far more distinct
        // values than any feature of the deployed data.
        for (data_seed, n) in [(0u64, 240), (1, 240), (2, 1200)] {
            let (xs, ys) = mixed_dataset(data_seed, n);
            let columns = RankedColumns::from_rows(&xs);
            let mut rng = StdRng::seed_from_u64(data_seed ^ 0xba9);
            for threshold_candidates in [1, 6, 14, 24, 64] {
                for min_samples_leaf in 1..=5 {
                    for feature_subsample in [None, Some(3)] {
                        let params = TreeParams {
                            max_depth: 9,
                            min_samples_leaf,
                            feature_subsample,
                            threshold_candidates,
                        };
                        let seed = rng.next_u64();
                        let bag: Vec<u32> = (0..xs.len())
                            .map(|_| rng.gen_range(0..xs.len() as u32))
                            .collect();
                        let bag_xs: Vec<Vec<f64>> =
                            bag.iter().map(|&r| xs[r as usize].clone()).collect();
                        let bag_ys: Vec<f64> = bag.iter().map(|&r| ys[r as usize]).collect();
                        check(&OracleCase {
                            columns: &columns,
                            ys: &ys,
                            reference: oracle::fit(&bag_xs, &bag_ys, &params, seed),
                            what: format!("data {data_seed}, {params:?}, bagged"),
                            bag,
                            bag_xs,
                            bag_ys,
                            params,
                            seed,
                        });
                    }
                }
            }
        }
    }

    /// The one tree of a forest fitted to every row of `(xs, ys)` in
    /// order, unpacked.
    fn fit_tree(xs: &[Vec<f64>], ys: &[f64], params: &TreeParams, seed: u64) -> RegressionTree {
        RandomForest::fit_unbagged(xs, ys, params, seed)
            .to_trees()
            .remove(0)
    }

    #[test]
    fn ranked_fit_matches_the_oracle_bit_for_bit() {
        // Ranks the bag's own rows, then packs the tree into a forest.
        for_each_oracle_case(|case| {
            let fitted = fit_tree(&case.bag_xs, &case.bag_ys, &case.params, case.seed);
            oracle::assert_same(&fitted, &case.reference, &case.what);
        });
    }

    #[test]
    fn every_supported_simd_tier_matches_the_oracle_bit_for_bit() {
        let (tiers, missing): (Vec<SimdTier>, Vec<SimdTier>) = SimdTier::ALL
            .into_iter()
            .partition(|tier| tier.is_supported());
        println!(
            "simd tiers checked against the oracle: {:?}; not supported by this CPU: {:?}",
            tiers.iter().map(|tier| tier.name()).collect::<Vec<_>>(),
            missing.iter().map(|tier| tier.name()).collect::<Vec<_>>()
        );
        assert_eq!(tiers[0], SimdTier::detected());
        assert!(tiers.contains(&SimdTier::Portable));
        // Each tier fits the bag's rows of the whole dataset's ranks.
        for_each_oracle_case(|case| {
            for &tier in &tiers {
                let mut fitter = TreeFitter::new(case.columns, case.ys, &case.params, tier);
                fitter.fit(&mut case.bag.clone(), case.seed);
                let fitted = RegressionTree::unpack(&fitter.trees, 0, case.columns.num_features());
                oracle::assert_same(
                    &fitted,
                    &case.reference,
                    &format!("{}, {tier:?}", case.what),
                );
            }
        });
    }

    #[test]
    fn oracle_cases_reach_every_special_value() {
        // Guards the test above: its trees must actually split on the
        // columns holding zeros, NaNs/infinities and rounding midpoints.
        let (xs, ys) = mixed_dataset(0, 240);
        let params = TreeParams {
            max_depth: 9,
            min_samples_leaf: 1,
            feature_subsample: None,
            threshold_candidates: 64,
        };
        let tree = fit_tree(&xs, &ys, &params, 1);
        let split_features: Vec<usize> = tree
            .nodes
            .iter()
            .filter_map(|node| match node {
                Node::Split { feature, .. } => Some(*feature),
                Node::Leaf { .. } => None,
            })
            .collect();
        for feature in [1, 2, 3, 4] {
            assert!(
                split_features.contains(&feature),
                "no split on feature {feature}: {split_features:?}"
            );
        }
    }

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] < 50.0 { -2.0 } else { 4.0 })
            .collect();
        (xs, ys)
    }

    #[test]
    fn learns_step_function_exactly() {
        let (xs, ys) = step_data();
        let tree = fit_tree(&xs, &ys, &TreeParams::default(), 1);
        assert!((tree.predict(&[10.0, 0.0]) + 2.0).abs() < 1e-9);
        assert!((tree.predict(&[80.0, 0.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys = vec![7.5; 20];
        let tree = fit_tree(&xs, &ys, &TreeParams::default(), 1);
        assert_eq!(tree.nodes.len(), 1);
        assert_eq!(tree.predict(&[123.0]), 7.5);
    }

    #[test]
    fn depth_zero_is_mean_predictor() {
        let (xs, ys) = step_data();
        let params = TreeParams {
            max_depth: 0,
            ..TreeParams::default()
        };
        let tree = fit_tree(&xs, &ys, &params, 1);
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        assert!((tree.predict(&[0.0, 0.0]) - mean).abs() < 1e-9);
    }

    #[test]
    fn respects_min_samples_leaf() {
        let (xs, ys) = step_data();
        let params = TreeParams {
            min_samples_leaf: 60,
            ..TreeParams::default()
        };
        let tree = fit_tree(&xs, &ys, &params, 1);
        // 100 samples cannot split into two leaves of ≥60.
        assert_eq!(tree.nodes.len(), 1);
    }

    #[test]
    fn deeper_trees_fit_finer_structure() {
        let xs: Vec<Vec<f64>> = (0..128).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] / 16.0).floor()).collect();
        let shallow = fit_tree(
            &xs,
            &ys,
            &TreeParams {
                max_depth: 1,
                ..TreeParams::default()
            },
            1,
        );
        let deep = fit_tree(
            &xs,
            &ys,
            &TreeParams {
                max_depth: 8,
                ..TreeParams::default()
            },
            1,
        );
        let sse = |t: &RegressionTree| -> f64 {
            xs.iter()
                .zip(&ys)
                .map(|(x, y)| (t.predict(x) - y).powi(2))
                .sum()
        };
        assert!(sse(&deep) < sse(&shallow) * 0.2);
        assert!(deep.nodes.len() > shallow.nodes.len());
    }

    #[test]
    fn multifeature_splits_pick_informative_feature() {
        // Feature 1 is pure noise; feature 0 carries the signal.
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i / 2) as f64, (i * 37 % 11) as f64])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] < 50.0 { 0.0 } else { 10.0 })
            .collect();
        let tree = fit_tree(&xs, &ys, &TreeParams::default(), 1);
        assert!((tree.predict(&[10.0, 5.0]) - 0.0).abs() < 1e-9);
        assert!((tree.predict(&[90.0, 5.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fit_is_deterministic_without_subsampling() {
        let (xs, ys) = step_data();
        let a = fit_tree(&xs, &ys, &TreeParams::default(), 1);
        let b = fit_tree(&xs, &ys, &TreeParams::default(), 999);
        assert_eq!(a, b);
    }
}
