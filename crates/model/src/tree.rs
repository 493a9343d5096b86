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

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// A fitted CART regression tree.
///
/// # Examples
///
/// ```
/// use gpm_model::{RegressionTree, TreeParams};
///
/// let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| if x[0] < 20.0 { 1.0 } else { 5.0 }).collect();
/// let tree = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 1);
/// assert!((tree.predict(&[3.0]) - 1.0).abs() < 1e-9);
/// assert!((tree.predict(&[33.0]) - 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    num_features: usize,
}

impl RegressionTree {
    /// Fits a tree to `(xs, ys)`.
    ///
    /// `seed` drives feature subsampling; trees with
    /// `feature_subsample: None` are deterministic regardless of seed.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty, `ys.len() != xs.len()`, or feature vectors
    /// have inconsistent lengths.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], params: &TreeParams, seed: u64) -> RegressionTree {
        assert!(!xs.is_empty(), "cannot fit a tree to zero samples");
        assert_eq!(xs.len(), ys.len(), "xs and ys must have equal length");
        let columns = RankedColumns::from_rows(xs);
        let mut rows: Vec<u32> = (0..columns.num_rows() as u32).collect();
        RegressionTree::fit_ranked(
            &columns,
            ys,
            &mut rows,
            params,
            seed,
            &mut FitScratch::default(),
            SimdTier::detected(),
        )
    }

    /// Fits a tree to the samples `rows` of `columns` (repeats allowed, in
    /// the order the samples were drawn), searching splits with `tier`'s
    /// build. `rows` is reordered in place.
    ///
    /// # Panics
    ///
    /// Panics if this CPU cannot run `tier`.
    pub(crate) fn fit_ranked(
        columns: &RankedColumns,
        ys: &[f64],
        rows: &mut [u32],
        params: &TreeParams,
        seed: u64,
        scratch: &mut FitScratch,
        tier: SimdTier,
    ) -> RegressionTree {
        assert!(tier.is_supported(), "this CPU cannot run the {tier:?} tier");
        let mut fitter = Fitter {
            columns,
            ys,
            params,
            rng: StdRng::seed_from_u64(seed),
            scratch,
            tier,
            nodes: Vec::new(),
        };
        fitter.build(rows, 0);
        RegressionTree {
            nodes: fitter.nodes,
            num_features: columns.num_features(),
        }
    }

    /// Predicts the target for one feature vector.
    ///
    /// # Panics
    ///
    /// The dimensionality check is a `debug_assert!`: callers must pass a
    /// vector of exactly the training dimensionality
    /// ([`num_features`](RegressionTree::num_features)). Debug builds panic
    /// on a mismatch; release builds skip the per-call check (this sits on
    /// the optimizer's innermost loop) and a *shorter* vector then panics
    /// on the out-of-bounds feature access, while a longer one silently
    /// ignores the extra entries. Batch callers should validate once at
    /// the batch boundary instead.
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

    /// Number of nodes in the fitted tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Dimensionality of the feature vectors the tree was fitted on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// The fitted node array (crate-internal; consumed by the flat
    /// inference engine).
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Whether the tree is a single leaf.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], at: usize) -> usize {
            match nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, left).max(walk(nodes, right)),
            }
        }
        walk(&self.nodes, 0)
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

/// Buffers one worker reuses across every node of every tree it fits.
#[derive(Debug, Default)]
pub(crate) struct FitScratch {
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

struct Fitter<'a> {
    columns: &'a RankedColumns,
    ys: &'a [f64],
    params: &'a TreeParams,
    rng: StdRng,
    scratch: &'a mut FitScratch,
    /// Which build of the split search runs; `fit_ranked` checked that
    /// this CPU supports it.
    tier: SimdTier,
    nodes: Vec<Node>,
}

impl Fitter<'_> {
    fn build(&mut self, rows: &mut [u32], depth: usize) -> usize {
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
        let Some(split) = split else {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        };

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

        // Reserve this node's slot before recursing.
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean });
        let left = self.build(left_rows, depth + 1);
        let right = self.build(right_rows, depth + 1);
        self.nodes[slot] = Node::Split {
            feature: split.feature,
            threshold: split.threshold,
            left,
            right,
        };
        slot
    }

    /// The split with the least child SSE, earliest in (shuffled feature,
    /// ascending threshold) order on ties; `None` when no split improves
    /// on the parent. Runs the fit's tier of [`search`](Fitter::search).
    fn best_split(&mut self, rows: &[u32], sum: f64) -> Option<Split> {
        match self.tier {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdTier::Avx2 => {
                // SAFETY: `fit_ranked` only builds a fitter for a tier that
                // `is_supported` found this CPU runs: AVX2.
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
        let s = &mut *self.scratch;
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

    /// Asserts the ranked fitter and the oracle grow the same tree, down
    /// to the sign of a zero threshold.
    fn assert_same_tree(ranked: &RegressionTree, reference: &RegressionTree, what: &str) {
        assert_eq!(ranked, reference, "{what}");
        assert_eq!(
            serde_json::to_string(ranked).expect("tree serializes"),
            serde_json::to_string(reference).expect("tree serializes"),
            "{what}"
        );
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

    #[test]
    fn ranked_fit_matches_the_oracle_bit_for_bit() {
        // The public entry point ranks the bag's own rows.
        for_each_oracle_case(|case| {
            let fitted = RegressionTree::fit(&case.bag_xs, &case.bag_ys, &case.params, case.seed);
            assert_same_tree(&fitted, &case.reference, &case.what);
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
        let mut scratch = FitScratch::default();
        for_each_oracle_case(|case| {
            for &tier in &tiers {
                let fitted = RegressionTree::fit_ranked(
                    case.columns,
                    case.ys,
                    &mut case.bag.clone(),
                    &case.params,
                    case.seed,
                    &mut scratch,
                    tier,
                );
                let what = format!("{}, {tier:?} tier", case.what);
                assert_same_tree(&fitted, &case.reference, &what);
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
        let tree = RegressionTree::fit(&xs, &ys, &params, 1);
        let split_features: Vec<usize> = tree
            .nodes()
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
        let tree = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 1);
        assert!((tree.predict(&[10.0, 0.0]) + 2.0).abs() < 1e-9);
        assert!((tree.predict(&[80.0, 0.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys = vec![7.5; 20];
        let tree = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 1);
        assert!(tree.is_empty());
        assert_eq!(tree.predict(&[123.0]), 7.5);
    }

    #[test]
    fn depth_zero_is_mean_predictor() {
        let (xs, ys) = step_data();
        let params = TreeParams {
            max_depth: 0,
            ..TreeParams::default()
        };
        let tree = RegressionTree::fit(&xs, &ys, &params, 1);
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
        let tree = RegressionTree::fit(&xs, &ys, &params, 1);
        // 100 samples cannot split into two leaves of ≥60.
        assert!(tree.is_empty());
    }

    #[test]
    fn deeper_trees_fit_finer_structure() {
        let xs: Vec<Vec<f64>> = (0..128).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] / 16.0).floor()).collect();
        let shallow = RegressionTree::fit(
            &xs,
            &ys,
            &TreeParams {
                max_depth: 1,
                ..TreeParams::default()
            },
            1,
        );
        let deep = RegressionTree::fit(
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
        assert!(deep.depth() > shallow.depth());
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
        let tree = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 1);
        assert!((tree.predict(&[10.0, 5.0]) - 0.0).abs() < 1e-9);
        assert!((tree.predict(&[90.0, 5.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_fit_panics() {
        let _ = RegressionTree::fit(&[], &[], &TreeParams::default(), 1);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = RegressionTree::fit(&[vec![1.0]], &[1.0, 2.0], &TreeParams::default(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dimensionality mismatch")]
    fn predict_wrong_arity_panics() {
        let tree = RegressionTree::fit(
            &[vec![1.0], vec![2.0], vec![3.0], vec![4.0]],
            &[1.0, 2.0, 3.0, 4.0],
            &TreeParams::default(),
            1,
        );
        let _ = tree.predict(&[1.0, 2.0]);
    }

    #[test]
    fn fit_is_deterministic_without_subsampling() {
        let (xs, ys) = step_data();
        let a = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 1);
        let b = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 999);
        for x in &xs {
            assert_eq!(a.predict(x), b.predict(x));
        }
    }
}
