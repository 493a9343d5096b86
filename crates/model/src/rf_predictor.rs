//! The trained Random-Forest predictor behind the
//! [`PowerPerfPredictor`] interface.

use crate::dataset::Dataset;
use crate::features::{encode_config_features, encode_counter_features, NUM_FEATURES};
use crate::forest::{ForestParams, RandomForest};
use crate::metrics;
use crate::tree::RankedColumns;
use gpm_hw::HwConfig;
use gpm_sim::predictor::{KernelSnapshot, PowerPerfEstimate, PowerPerfPredictor};
use gpm_sim::{CounterSet, NUM_COUNTERS};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Held-out accuracy of a trained predictor, in the units the paper
/// reports (MAPE fractions; Section VI-D quotes 25% performance and 12%
/// power).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// MAPE of execution-time predictions on the held-out set.
    pub time_mape: f64,
    /// MAPE of GPU-power predictions on the held-out set.
    pub power_mape: f64,
    /// R² of log-time predictions.
    pub time_r2: f64,
    /// R² of power predictions.
    pub power_r2: f64,
    /// Training samples used.
    pub train_samples: usize,
    /// Held-out samples evaluated.
    pub test_samples: usize,
}

/// Random-Forest power/performance predictor (Section IV-A3).
///
/// Two forests: one regressing `ln(time)`, one regressing GPU power.
///
/// # Examples
///
/// ```
/// use gpm_hw::{ConfigSpace, HwConfig, CpuPState, GpuDpm};
/// use gpm_model::{Dataset, ForestParams, RandomForestPredictor};
/// use gpm_sim::{ApuSimulator, KernelCharacteristics};
///
/// let sim = ApuSimulator::default();
/// let kernels = vec![KernelCharacteristics::compute_bound("k", 10.0)];
/// let space = ConfigSpace::nb_cu_sweep(CpuPState::P5, GpuDpm::Dpm4);
/// let ds = Dataset::from_campaign(&sim, &kernels, &space, HwConfig::FAIL_SAFE, 1);
/// let rf = RandomForestPredictor::train(&ds, &ForestParams::default(), 1);
/// # let _ = rf;
/// ```
///
/// Both forests are the packed [`RandomForest`]s every prediction walks
/// and a save writes, as `{"time_forest": …, "power_forest": …}`; a
/// load checks each forest's layout and that it is [`NUM_FEATURES`]
/// wide.
///
/// Each forest sits behind an [`Arc`], so a clone copies two pointers
/// and a tag, never a forest. Equality compares the forests bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForestPredictor {
    time_forest: Arc<RandomForest>,
    power_forest: Arc<RandomForest>,
    #[serde(skip)]
    generation: Generation,
}

/// Process-unique tag for the thread-local value memo: every predictor
/// construction, a load included, draws a fresh one (as its `Default`),
/// so a stale memo entry can only ever match the forests it was priced
/// with. Clones share the tag — their forests are the same, so memo hits
/// stay correct. It is cache identity, not model state, so it never
/// makes two predictors unequal.
#[derive(Debug, Clone, Copy)]
struct Generation(u64);

/// Source of [`Generation`] tags (never 0).
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

impl Default for Generation {
    fn default() -> Generation {
        Generation(NEXT_GENERATION.fetch_add(1, Ordering::Relaxed))
    }
}

impl PartialEq for Generation {
    fn eq(&self, _: &Generation) -> bool {
        true
    }
}

thread_local! {
    /// Per-thread value memo, so `predict` stays `&self` and allocates
    /// nothing in steady state.
    static MEMO: RefCell<ValueMemo> = const { RefCell::new(ValueMemo::EMPTY) };
}

/// (predictor, snapshot) keys the per-thread value memo holds before it
/// clears wholesale. Measured per thread on perfbench's workloads: a
/// `suite_replay` pass prices 146 distinct snapshots, a `fleet_mixed`
/// worker at most 212 in one scenario (median 127), and a
/// `reproduce_fast` job at most 564 (under three predictors). So every
/// measured working set fits, with room for three and a half times the
/// largest.
const MEMO_SNAPSHOTS: usize = 2048;

/// Estimates the memo holds before it clears wholesale. The same runs
/// price 566, at most 1,521 (median 569) and at most 2,336 distinct
/// (snapshot, config) pairs per thread.
const MEMO_ENTRIES: usize = 8192;

/// Cells of the snapshot index: twice [`MEMO_SNAPSHOTS`], so the index is
/// at most half full and a probe ends within a few cells.
const INDEX_CELLS: usize = 2 * MEMO_SNAPSHOTS;

/// Cells of the estimate table: twice [`MEMO_ENTRIES`], for the same
/// reason. With 16-byte index cells, 72-byte keys and 24-byte estimate
/// cells, a thread's memo is 592 KiB at most, less than the 860 KB of one
/// dense 560-entry row per snapshot for 64 snapshots.
const ENTRY_CELLS: usize = 2 * MEMO_ENTRIES;

// Resizing the memo must keep it within the dense memo's 860 KB: 64
// snapshots of one 24-byte entry per lattice point.
const _: () = assert!(
    INDEX_CELLS * std::mem::size_of::<IndexCell>()
        + MEMO_SNAPSHOTS * std::mem::size_of::<SnapshotKey>()
        + ENTRY_CELLS * std::mem::size_of::<EntryCell>()
        <= 64 * HwConfig::DENSE_COUNT * 24
);

/// Everything a forest estimate depends on besides the configuration:
/// the predictor's [`generation`](RandomForestPredictor::generation) and
/// the exact bits of the snapshot's counters.
#[derive(Clone, Copy)]
struct SnapshotKey {
    generation: u64,
    counters: [u64; NUM_COUNTERS],
}

impl SnapshotKey {
    fn new(generation: u64, counters: &CounterSet) -> SnapshotKey {
        SnapshotKey {
            generation,
            counters: counters.values().map(f64::to_bits),
        }
    }

    /// A 64-bit digest of the key: equal keys have equal fingerprints, so
    /// a cell whose fingerprint differs cannot hold the key. Each counter
    /// is rotated by its own amount, so equal values in swapped places
    /// still differ; the rotations are independent, so the digest costs a
    /// few cycles. A collision only costs a full-key compare.
    fn fingerprint(&self) -> u64 {
        self.counters
            .iter()
            .zip(0u32..)
            .fold(self.generation, |h, (&w, i)| h ^ w.rotate_left(7 * i + 1))
    }

    /// Exact equality as one xor-fold over the nine words, compiled to
    /// straight-line loads instead of a `bcmp` call.
    fn same(&self, other: &SnapshotKey) -> bool {
        let diff = self
            .counters
            .iter()
            .zip(&other.counters)
            .fold(self.generation ^ other.generation, |d, (a, b)| d | (a ^ b));
        diff == 0
    }
}

/// A snapshot-index cell: (fingerprint, claim stamp, position of the key
/// in [`ValueMemo::keys`]).
type IndexCell = (u64, u32, u32);

/// An estimate cell: ([`entry_tag`], `time_s`, `gpu_power_w`).
type EntryCell = (u64, f64, f64);

/// The estimate table's key for `cfg` under a snapshot's claim stamp: the
/// stamp above the configuration's dense index.
fn entry_tag(stamp: u32, cfg: HwConfig) -> u64 {
    u64::from(stamp) << 32 | cfg.dense_index() as u64
}

/// The first cell a probe for `hash` reads in a table of `cells` cells (a
/// power of two): the top bits of a Fibonacci multiply, so keys that
/// differ only in their low bits still spread.
fn home(hash: u64, cells: usize) -> usize {
    (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - cells.trailing_zeros())) as usize
}

/// Sparse value memo: for a fixed (predictor, snapshot) pair the estimate
/// is a pure function of the configuration, so each (snapshot, config)
/// pair is walked at most once while the memo holds it. It holds the
/// post-clamp estimates `predict` returns.
///
/// Two open-addressed, linearly probed tables:
/// - the snapshot index maps a key's fingerprint to the key's claim stamp,
///   and confirms a match with one full-key compare against `keys`;
/// - the estimate table maps ([`entry_tag`]) a claim stamp and a
///   configuration to the estimate.
///
/// Each claim hands out a fresh, increasing stamp. A cell whose stamp is
/// below `floor`, the first stamp handed out since the last clear, is
/// vacant, so a wholesale clear raises `floor` and stores nothing else.
/// Cells are never vacated one by one, so a probe stops at the first
/// vacant cell. The memo clears wholesale when a claim finds
/// [`MEMO_SNAPSHOTS`] keys, or a lookup finds [`MEMO_ENTRIES`] estimates,
/// stored since the last clear.
///
/// Both tables are allocated at a thread's first claim. A cell's zero is
/// all-zero bytes, so `vec!` requests zeroed memory from the allocator
/// and fills nothing in Rust; whether the allocator then clears reused
/// memory itself or maps fresh zeroed pages is its own choice.
struct ValueMemo {
    /// [`INDEX_CELLS`] snapshot-index cells.
    index: Vec<IndexCell>,
    /// The keys claimed since the last clear, in claim order.
    keys: Vec<SnapshotKey>,
    /// [`ENTRY_CELLS`] estimate cells.
    entries: Vec<EntryCell>,
    /// Estimates stored since the last clear.
    filled: usize,
    /// The last stamp handed out; 0 is never a claim's stamp.
    stamp: u32,
    /// The first stamp handed out since the last clear.
    floor: u32,
    /// Index cell of the last lookup: consecutive calls nearly always
    /// price the same snapshot.
    last: usize,
}

impl ValueMemo {
    /// A memo with nothing claimed and nothing allocated.
    const EMPTY: ValueMemo = ValueMemo {
        index: Vec::new(),
        keys: Vec::new(),
        entries: Vec::new(),
        filled: 0,
        stamp: 0,
        floor: 1,
        last: 0,
    };

    /// The claim stamp of `key`, where `fingerprint` is
    /// `key.fingerprint()`. An unknown key claims a fresh stamp, with
    /// every estimate unpriced; when the memo is full, or the stamps run
    /// out, it is cleared wholesale first.
    fn stamp_of(&mut self, key: &SnapshotKey, fingerprint: u64) -> u32 {
        if self.filled == MEMO_ENTRIES {
            self.clear();
        }
        if let Some(&(f, stamp, at)) = self.index.get(self.last) {
            if stamp >= self.floor && f == fingerprint && self.keys[at as usize].same(key) {
                return stamp;
            }
        }
        if self.index.is_empty() {
            self.index = vec![(0, 0, 0); INDEX_CELLS];
            self.entries = vec![(0, 0.0, 0.0); ENTRY_CELLS];
            self.keys = Vec::with_capacity(MEMO_SNAPSHOTS);
        }
        let mut cell = home(fingerprint, INDEX_CELLS);
        loop {
            let (f, stamp, at) = self.index[cell];
            if stamp < self.floor {
                break;
            }
            if f == fingerprint && self.keys[at as usize].same(key) {
                self.last = cell;
                return stamp;
            }
            cell = (cell + 1) % INDEX_CELLS;
        }
        if self.keys.len() == MEMO_SNAPSHOTS || self.stamp == u32::MAX {
            self.clear();
            // Every cell is vacant now, the probe's first one included.
            cell = home(fingerprint, INDEX_CELLS);
        }
        self.stamp += 1;
        self.index[cell] = (fingerprint, self.stamp, self.keys.len() as u32);
        self.keys.push(*key);
        self.last = cell;
        self.stamp
    }

    /// Forgets every key and estimate.
    fn clear(&mut self) {
        if self.stamp == u32::MAX {
            // Stamps are about to repeat: no cell may carry an old one.
            self.stamp = 0;
            self.index.fill((0, 0, 0));
            self.entries.fill((0, 0.0, 0.0));
        }
        self.floor = self.stamp + 1;
        self.keys.clear();
        self.filled = 0;
    }

    /// The estimate of `cfg` under the claim `stamp`, or the vacant cell
    /// its estimate goes in.
    fn get(&self, stamp: u32, cfg: HwConfig) -> Result<PowerPerfEstimate, usize> {
        debug_assert!(stamp >= self.floor, "a stamp from before the last clear");
        let tag = entry_tag(stamp, cfg);
        let mut cell = home(tag, ENTRY_CELLS);
        loop {
            let (t, time_s, gpu_power_w) = self.entries[cell];
            if t == tag {
                return Ok(PowerPerfEstimate {
                    time_s,
                    gpu_power_w,
                });
            }
            if ((t >> 32) as u32) < self.floor {
                return Err(cell);
            }
            cell = (cell + 1) % ENTRY_CELLS;
        }
    }

    /// Stores `est` for `cfg` under the claim `stamp` in `cell`, the
    /// vacant cell [`get`](ValueMemo::get) returned.
    fn set(&mut self, cell: usize, stamp: u32, cfg: HwConfig, est: PowerPerfEstimate) {
        self.entries[cell] = (entry_tag(stamp, cfg), est.time_s, est.gpu_power_w);
        self.filled += 1;
    }
}

impl RandomForestPredictor {
    /// Trains both forests on `dataset`, rank-encoding its feature matrix
    /// once for the two fits.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train(dataset: &Dataset, params: &ForestParams, seed: u64) -> RandomForestPredictor {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let columns = RankedColumns::from_matrix(dataset.features(), dataset.len(), NUM_FEATURES);
        let time_forest =
            RandomForest::fit_ranked(&columns, &dataset.ys_log_time(), params, seed, 0);
        let power_forest = RandomForest::fit_ranked(
            &columns,
            dataset.gpu_power_w(),
            params,
            seed.wrapping_add(1),
            0,
        );
        RandomForestPredictor::from_forests(time_forest, power_forest)
    }

    /// Assembles a predictor from fitted forests. Each assembly gets a
    /// fresh [`generation`](RandomForestPredictor::generation) tag, so
    /// retraining (e.g. via [`RandomForest::fit_with_threads`]) can never
    /// be served stale per-thread memo entries.
    ///
    /// # Panics
    ///
    /// Panics if a forest was fitted on other than [`NUM_FEATURES`]
    /// features, the width of every row the predictor encodes.
    pub fn from_forests(time_forest: RandomForest, power_forest: RandomForest) -> Self {
        for forest in [&time_forest, &power_forest] {
            assert_eq!(forest.num_features(), NUM_FEATURES, "forest width");
        }
        RandomForestPredictor {
            time_forest: Arc::new(time_forest),
            power_forest: Arc::new(power_forest),
            generation: Generation::default(),
        }
    }

    /// Evaluates held-out accuracy on `test`, walking both forests over
    /// the dataset's rows in place.
    pub fn evaluate(&self, test: &Dataset, train_samples: usize) -> TrainReport {
        let _span = gpm_telemetry::span("rf.score");
        let mut log_time_pred = Vec::with_capacity(test.len());
        let mut time_pred = Vec::with_capacity(test.len());
        let mut power_pred = Vec::with_capacity(test.len());
        for row in test.rows() {
            let lt = self.time_forest.predict(row);
            log_time_pred.push(lt);
            time_pred.push(lt.exp());
            power_pred.push(self.power_forest.predict(row));
        }
        TrainReport {
            time_mape: metrics::mape(&time_pred, test.time_s()),
            power_mape: metrics::mape(&power_pred, test.gpu_power_w()),
            time_r2: metrics::r2(&log_time_pred, &test.ys_log_time()),
            power_r2: metrics::r2(&power_pred, test.gpu_power_w()),
            train_samples,
            test_samples: test.len(),
        }
    }

    /// The fitted `ln(time)` forest.
    pub fn time_forest(&self) -> &RandomForest {
        &self.time_forest
    }

    /// The fitted GPU-power forest.
    pub fn power_forest(&self) -> &RandomForest {
        &self.power_forest
    }

    /// This predictor's memo-identity tag: process-unique and strictly
    /// increasing across assemblies. Two predictors share memoized
    /// estimates only if their generations are equal — i.e. only a
    /// predictor and its clones.
    pub fn generation(&self) -> u64 {
        self.generation.0
    }

    /// Convenience: split, train, and report in one call.
    pub fn train_and_evaluate(
        dataset: &Dataset,
        params: &ForestParams,
        test_fraction: f64,
        seed: u64,
    ) -> (RandomForestPredictor, TrainReport) {
        let (train, test) = dataset.split(test_fraction, seed);
        let rf = RandomForestPredictor::train(&train, params, seed);
        let report = rf.evaluate(&test, train.len());
        (rf, report)
    }
}

impl PowerPerfPredictor for RandomForestPredictor {
    fn predict(&self, snapshot: &KernelSnapshot, cfg: HwConfig) -> PowerPerfEstimate {
        MEMO.with(|memo| {
            let memo = &mut *memo.borrow_mut();
            let key = SnapshotKey::new(self.generation.0, &snapshot.counters);
            let stamp = memo.stamp_of(&key, key.fingerprint());
            let cell = match memo.get(stamp, cfg) {
                Ok(est) => return est,
                Err(cell) => cell,
            };
            #[cfg(test)]
            tests::WALKS.with(|walks| walks.set(walks.get() + 1));
            let mut row = [0.0; NUM_FEATURES];
            let (counters, config) = row.split_at_mut(NUM_COUNTERS);
            counters.copy_from_slice(&encode_counter_features(&snapshot.counters));
            config.copy_from_slice(&encode_config_features(cfg));
            let est = PowerPerfEstimate {
                time_s: self.time_forest.predict(&row).exp().max(1e-9),
                gpu_power_w: self.power_forest.predict(&row).max(0.1),
            };
            memo.set(cell, stamp, cfg, est);
            est
        })
    }

    fn name(&self) -> &str {
        "random-forest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RegressionTree;
    use gpm_hw::{ConfigSpace, CpuPState, GpuDpm};
    use gpm_sim::{ApuSimulator, KernelCharacteristics};
    use serde_json::Value;

    fn campaign() -> (ApuSimulator, Vec<KernelCharacteristics>, Dataset) {
        let sim = ApuSimulator::default();
        let kernels = vec![
            KernelCharacteristics::compute_bound("cb", 15.0),
            KernelCharacteristics::memory_bound("mb", 1.5),
            KernelCharacteristics::peak("pk", 8.0),
            KernelCharacteristics::unscalable("us", 0.01),
        ];
        let space = ConfigSpace::paper_campaign();
        let ds = Dataset::from_campaign(&sim, &kernels, &space, HwConfig::FAIL_SAFE, 1);
        (sim, kernels, ds)
    }

    #[test]
    fn training_produces_usable_accuracy() {
        let (_, _, ds) = campaign();
        let (_, report) =
            RandomForestPredictor::train_and_evaluate(&ds, &ForestParams::default(), 0.2, 11);
        // In-distribution accuracy should beat the paper's out-of-sample
        // 25%/12% MAPE comfortably.
        assert!(report.time_mape < 0.25, "time MAPE {}", report.time_mape);
        assert!(report.power_mape < 0.15, "power MAPE {}", report.power_mape);
        assert!(report.time_r2 > 0.8, "time R² {}", report.time_r2);
        assert_eq!(report.train_samples + report.test_samples, ds.len());
    }

    #[test]
    fn predictor_tracks_config_trends() {
        let (sim, kernels, ds) = campaign();
        let rf = RandomForestPredictor::train(&ds, &ForestParams::default(), 11);
        let cb = &kernels[0];
        let out = sim.evaluate(cb, HwConfig::FAIL_SAFE);
        let snap = gpm_sim::predictor::KernelSnapshot::counters_only(
            out.counters,
            HwConfig::FAIL_SAFE,
            cb.ginstructions(),
        );
        // Compute-bound kernel: 8 CUs at DPM4 must be predicted faster than
        // 2 CUs at DPM0.
        let fast = rf.predict(&snap, HwConfig::MAX_PERF);
        let slow_cfg = HwConfig::new(
            CpuPState::P7,
            gpm_hw::NbState::Nb3,
            GpuDpm::Dpm0,
            gpm_hw::CuCount::MIN,
        );
        let slow = rf.predict(&snap, slow_cfg);
        assert!(
            fast.time_s < slow.time_s,
            "fast {} slow {}",
            fast.time_s,
            slow.time_s
        );
        assert!(fast.gpu_power_w > slow.gpu_power_w);
    }

    #[test]
    fn prediction_is_deterministic() {
        let (_, _, ds) = campaign();
        let rf = RandomForestPredictor::train(&ds, &ForestParams::default(), 11);
        let snap = gpm_sim::predictor::KernelSnapshot::counters_only(
            gpm_sim::CounterSet::default(),
            HwConfig::FAIL_SAFE,
            1.0,
        );
        let a = rf.predict(&snap, HwConfig::MAX_PERF);
        let b = rf.predict(&snap, HwConfig::MAX_PERF);
        assert_eq!(a, b);
    }

    /// The mean of the nested walks of `trees`, in tree order.
    fn walk(trees: &[RegressionTree], row: &[f64]) -> f64 {
        trees.iter().map(|t| t.predict(row)).sum::<f64>() / trees.len() as f64
    }

    /// The seed formula on `rf`'s forests, unpacked once: one-shot
    /// encoding + nested walk + exp/clamp, touching no thread-local state.
    fn nested_reference(
        rf: &RandomForestPredictor,
    ) -> impl Fn(&KernelSnapshot, HwConfig) -> PowerPerfEstimate {
        let (time, power) = (rf.time_forest().to_trees(), rf.power_forest().to_trees());
        move |snap, cfg| {
            let features = crate::features::encode_features(&snap.counters, cfg);
            PowerPerfEstimate {
                time_s: walk(&time, &features).exp().max(1e-9),
                gpu_power_w: walk(&power, &features).max(0.1),
            }
        }
    }

    fn assert_bits_eq(est: PowerPerfEstimate, reference: PowerPerfEstimate, what: &str) {
        assert_eq!(est.time_s.to_bits(), reference.time_s.to_bits(), "{what}");
        assert_eq!(
            est.gpu_power_w.to_bits(),
            reference.gpu_power_w.to_bits(),
            "{what}"
        );
    }

    #[test]
    fn predict_matches_nested_reference_path() {
        // The flat hot path must reproduce the seed formula bit-for-bit,
        // on the walk that fills the memo and on the hit that reads it.
        let (_, _, ds) = campaign();
        let rf = RandomForestPredictor::train(&ds, &ForestParams::default(), 11);
        let nested = nested_reference(&rf);
        let snap = KernelSnapshot::counters_only(
            gpm_sim::CounterSet::from_values([1e8, 40.0, 60.0, 1e5, 6.0, 3.0, 1e6, 1e6]),
            HwConfig::FAIL_SAFE,
            1.0,
        );
        for _ in 0..2 {
            for cfg in &ConfigSpace::paper_campaign() {
                assert_bits_eq(
                    rf.predict(&snap, cfg),
                    nested(&snap, cfg),
                    &format!("{cfg}"),
                );
            }
        }
    }

    /// The nested-walk formula of the held-out report: each forest's own
    /// traversal over a cloned row per sample.
    fn nested_report(
        rf: &RandomForestPredictor,
        test: &Dataset,
        train_samples: usize,
    ) -> TrainReport {
        let xs = test.xs();
        let (time, power) = (rf.time_forest().to_trees(), rf.power_forest().to_trees());
        let log_time_pred: Vec<f64> = xs.iter().map(|x| walk(&time, x)).collect();
        let time_pred: Vec<f64> = log_time_pred.iter().map(|lt| lt.exp()).collect();
        let power_pred: Vec<f64> = xs.iter().map(|x| walk(&power, x)).collect();
        TrainReport {
            time_mape: metrics::mape(&time_pred, test.time_s()),
            power_mape: metrics::mape(&power_pred, test.gpu_power_w()),
            time_r2: metrics::r2(&log_time_pred, &test.ys_log_time()),
            power_r2: metrics::r2(&power_pred, test.gpu_power_w()),
            train_samples,
            test_samples: test.len(),
        }
    }

    #[test]
    fn held_out_report_matches_the_nested_oracle_bit_for_bit() {
        let (_, _, ds) = campaign();
        for (test_fraction, seed) in [(0.2, 11), (0.5, 3)] {
            let (train, test) = ds.split(test_fraction, seed);
            let rf = RandomForestPredictor::train(&train, &ForestParams::default(), seed);
            let got = rf.evaluate(&test, train.len());
            let want = nested_report(&rf, &test, train.len());
            let bits = |r: &TrainReport| {
                [r.time_mape, r.power_mape, r.time_r2, r.power_r2].map(f64::to_bits)
            };
            assert_eq!(bits(&got), bits(&want), "split {test_fraction} seed {seed}");
            assert_eq!(
                (got.train_samples, got.test_samples),
                (want.train_samples, want.test_samples)
            );
        }
    }

    #[test]
    fn clones_share_their_forests() {
        let (_, _, ds) = campaign();
        let params = ForestParams {
            num_trees: 4,
            ..ForestParams::default()
        };
        let rf = RandomForestPredictor::train(&ds, &params, 11);
        let clone = rf.clone();
        assert!(Arc::ptr_eq(&rf.time_forest, &clone.time_forest));
        assert!(Arc::ptr_eq(&rf.power_forest, &clone.power_forest));
        assert_eq!(clone.generation(), rf.generation());
        assert_eq!(clone, rf);
    }

    thread_local! {
        /// Forest walks `predict` paid for on this thread.
        pub(super) static WALKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Forest walks on this thread so far.
    fn walks() -> u64 {
        WALKS.with(std::cell::Cell::get)
    }

    /// Starts this thread's value memo over, so a test sees only its own
    /// claims whatever ran on the thread before.
    fn fresh_memo() {
        MEMO.with(|memo| *memo.borrow_mut() = ValueMemo::EMPTY);
    }

    /// A four-tree predictor: the memo does not depend on the forests, and
    /// small ones keep the debug-mode walks of the memo tests cheap.
    fn small_rf(seed: u64) -> RandomForestPredictor {
        let (_, _, ds) = campaign();
        let params = ForestParams {
            num_trees: 4,
            ..ForestParams::default()
        };
        RandomForestPredictor::train(&ds, &params, seed)
    }

    /// The `i`-th of a family of distinct snapshots.
    fn snapshot(i: usize) -> KernelSnapshot {
        let f = 1.0 + i as f64 * 0.37;
        KernelSnapshot::counters_only(
            gpm_sim::CounterSet::from_values([
                1e7 * f,
                (30.0 + 7.0 * i as f64) % 100.0,
                (55.0 + 13.0 * i as f64) % 100.0,
                1e4 * f,
                (i % 16) as f64,
                (i % 5) as f64,
                1e5 * f * f,
                1e5 * f,
            ]),
            HwConfig::FAIL_SAFE,
            1.0,
        )
    }

    /// The claim stamp of `key` under its real fingerprint.
    fn claim(memo: &mut ValueMemo, key: &SnapshotKey) -> u32 {
        memo.stamp_of(key, key.fingerprint())
    }

    /// Stores `est` for `cfg` under `stamp`, which must not have priced it.
    fn price(memo: &mut ValueMemo, stamp: u32, cfg: HwConfig, est: PowerPerfEstimate) {
        let cell = memo.get(stamp, cfg).expect_err("already priced");
        memo.set(cell, stamp, cfg, est);
    }

    /// An estimate that names `i`.
    fn est(i: usize) -> PowerPerfEstimate {
        PowerPerfEstimate {
            time_s: i as f64,
            gpu_power_w: 1.0,
        }
    }

    #[test]
    fn a_working_set_that_fits_is_walked_once_per_pair() {
        // More snapshots than a 64-snapshot memo holds, each priced at a
        // few configurations and cycled three times: every pair is walked
        // in the first round and served from the memo after it.
        fresh_memo();
        let rf = small_rf(11);
        let nested = nested_reference(&rf);
        let snaps: Vec<KernelSnapshot> = (0..200).map(snapshot).collect();
        let cfgs: Vec<HwConfig> = ConfigSpace::paper_campaign().iter().step_by(53).collect();
        let pairs = snaps.len() * cfgs.len();
        assert!(snaps.len() > 64 && snaps.len() < MEMO_SNAPSHOTS);
        assert!(cfgs.len() > 4 && pairs < MEMO_ENTRIES);
        let before = walks();
        for round in 0..3 {
            for (i, snap) in snaps.iter().enumerate() {
                for &cfg in &cfgs {
                    let what = format!("round {round} snapshot {i} {cfg}");
                    assert_bits_eq(rf.predict(snap, cfg), nested(snap, cfg), &what);
                }
            }
            assert_eq!(walks() - before, pairs as u64, "round {round}");
        }
    }

    #[test]
    fn value_memo_invalidates_on_snapshot_and_predictor_change() {
        // Interleaves single and batched pricing of more (predictor,
        // snapshot, config) estimates than the value memo holds, under two
        // predictors, on one thread: the memo must tell the predictors
        // apart, start over when full without serving an estimate priced
        // before the clear, and match the nested reference throughout.
        fresh_memo();
        let (rf_a, rf_b) = (small_rf(11), small_rf(23));
        let (nested_a, nested_b) = (nested_reference(&rf_a), nested_reference(&rf_b));
        let cfgs: Vec<HwConfig> = ConfigSpace::paper_campaign().iter().step_by(7).collect();
        let snaps: Vec<KernelSnapshot> = (0..MEMO_ENTRIES / (2 * cfgs.len()) + 5)
            .map(snapshot)
            .collect();
        // Two predictors per snapshot: the memo fills at least once per
        // round.
        let pairs = 2 * snaps.len() * cfgs.len();
        assert!(pairs > MEMO_ENTRIES);
        let references: Vec<Vec<[PowerPerfEstimate; 2]>> = snaps
            .iter()
            .map(|snap| {
                cfgs.iter()
                    .map(|&cfg| [nested_a(snap, cfg), nested_b(snap, cfg)])
                    .collect()
            })
            .collect();
        let before = walks();
        let mut batch = Vec::new();
        for round in 0..3 {
            for (i, snap) in snaps.iter().enumerate() {
                for (p, rf) in [&rf_a, &rf_b].into_iter().enumerate() {
                    let what =
                        |cfg: HwConfig| format!("round {round} snapshot {i} predictor {p} {cfg}");
                    let check_batch = |batch: &mut Vec<PowerPerfEstimate>| {
                        rf.predict_batch(snap, &cfgs, batch);
                        for (j, &cfg) in cfgs.iter().enumerate() {
                            assert_bits_eq(batch[j], references[i][j][p], &what(cfg));
                        }
                    };
                    let check_scalar = |step: usize| {
                        for (j, &cfg) in cfgs.iter().enumerate().skip(step % 2).step_by(2) {
                            assert_bits_eq(rf.predict(snap, cfg), references[i][j][p], &what(cfg));
                        }
                    };
                    // Alternate which call fills the snapshot's memo, and
                    // let the single estimates fill only half of it so the
                    // batch that follows mixes hits and walks.
                    if (round + i + p) % 2 == 0 {
                        check_batch(&mut batch);
                        check_scalar(i);
                    } else {
                        check_scalar(i);
                        check_batch(&mut batch);
                    }
                }
            }
        }
        // The clears made later rounds walk again.
        assert!(walks() - before > pairs as u64, "the memo never filled");
    }

    #[test]
    fn memo_stamp_overflow_resets_cleanly() {
        // The claims of the first round run the stamps out mid-round: the
        // memo clears wholesale, and every later estimate, walked or
        // served, still matches the nested reference.
        fresh_memo();
        let (_, _, ds) = campaign();
        let rf = RandomForestPredictor::train(&ds, &ForestParams::default(), 11);
        let nested = nested_reference(&rf);
        let snaps: Vec<KernelSnapshot> = (0..4)
            .map(|i| {
                KernelSnapshot::counters_only(
                    gpm_sim::CounterSet::from_values([
                        1e7 * (1.0 + i as f64),
                        30.0,
                        55.0,
                        1e4,
                        2.0,
                        1.0,
                        1e5,
                        1e5,
                    ]),
                    HwConfig::FAIL_SAFE,
                    1.0,
                )
            })
            .collect();
        let cfgs: Vec<HwConfig> = ConfigSpace::paper_campaign().iter().step_by(23).collect();
        MEMO.with(|m| m.borrow_mut().stamp = u32::MAX - 1);
        let mut batch = Vec::new();
        for round in 0..3 {
            for (i, snap) in snaps.iter().enumerate() {
                rf.predict_batch(snap, &cfgs[..cfgs.len() / 2], &mut batch);
                for &cfg in &cfgs {
                    let what = format!("round {round} snapshot {i} {cfg}");
                    assert_bits_eq(rf.predict(snap, cfg), nested(snap, cfg), &what);
                }
            }
        }
        let stamp = MEMO.with(|m| m.borrow().stamp);
        assert!(stamp < 8, "the stamps did not wrap: {stamp}");
    }

    #[test]
    fn a_reclaimed_slot_never_serves_the_previous_snapshot() {
        let key = |i: usize| SnapshotKey {
            generation: 1,
            counters: [i as u64; NUM_COUNTERS],
        };
        let cfg = HwConfig::FAIL_SAFE;
        for start_stamp in [0, u32::MAX - MEMO_SNAPSHOTS as u32] {
            let mut memo = ValueMemo {
                stamp: start_stamp,
                ..ValueMemo::EMPTY
            };
            for i in 0..MEMO_SNAPSHOTS {
                let stamp = claim(&mut memo, &key(i));
                assert_eq!(stamp, start_stamp + 1 + i as u32);
                price(&mut memo, stamp, cfg, est(i));
            }
            let stamp = claim(&mut memo, &key(0));
            assert_eq!(memo.get(stamp, cfg), Ok(est(0)));
            // A snapshot none of the first claims is, whose home index
            // cell one of them holds, so its probe passes live cells.
            let new = (MEMO_SNAPSHOTS..)
                .find(|&i| memo.index[home(key(i).fingerprint(), INDEX_CELLS)].1 >= memo.floor)
                .expect("an occupied home cell");
            // Full (or out of stamps): the new snapshot clears the memo
            // and takes key position 0, which still holds snapshot 0's
            // key, and its home cell, not the one its probe stopped at.
            let claimed = claim(&mut memo, &key(new));
            assert_eq!(memo.keys.len(), 1, "start stamp {start_stamp}");
            assert!(memo.get(claimed, cfg).is_err(), "start stamp {start_stamp}");
            price(&mut memo, claimed, cfg, est(new));
            // Snapshot 0 is forgotten too, and its new claim is unpriced.
            let stamp = claim(&mut memo, &key(0));
            assert_eq!(memo.keys.len(), 2, "start stamp {start_stamp}");
            assert!(memo.get(stamp, cfg).is_err(), "start stamp {start_stamp}");
            // The new snapshot is found again under its one claim.
            assert_eq!(claim(&mut memo, &key(new)), claimed);
            assert_eq!(memo.get(claimed, cfg), Ok(est(new)));
        }
        // Stamps that run out start over at 1, the stamp snapshot 0's first
        // estimates were written under: the wholesale clear must erase them.
        let mut memo = ValueMemo::EMPTY;
        let stamp = claim(&mut memo, &key(0));
        price(&mut memo, stamp, cfg, est(0));
        memo.stamp = u32::MAX;
        let stamp = claim(&mut memo, &key(1));
        assert_eq!(stamp, 1);
        assert!(memo.get(stamp, cfg).is_err());
    }

    #[test]
    fn colliding_fingerprints_still_resolve_each_key_to_its_own_slot() {
        // Each run of 256 keys is looked up under one shared fingerprint,
        // so the run shares one probe chain and only the full-key compare
        // tells its keys apart (runs keep the debug-mode probes short); the
        // keys differ in a single word (one counter, or the generation
        // alone), and there are more of them than the memo holds, so it
        // clears wholesale twice and the chains are rebuilt over their
        // stale cells.
        let fingerprint = |i: usize| 0x5EED + (i / 256) as u64;
        let key = |i: usize| {
            let mut counters = [3; NUM_COUNTERS];
            let generation = if i.is_multiple_of(2) {
                counters[i % NUM_COUNTERS] = 1000 + i as u64;
                1
            } else {
                2000 + i as u64
            };
            SnapshotKey {
                generation,
                counters,
            }
        };
        let cfg = HwConfig::MAX_PERF;
        let mut memo = ValueMemo::EMPTY;
        // The stamp of each key claimed since the last clear.
        let mut stamps = Vec::new();
        let total = 2 * MEMO_SNAPSHOTS + 3;
        for i in 0..total {
            if i.is_multiple_of(MEMO_SNAPSHOTS) {
                stamps.clear();
            }
            let stamp = memo.stamp_of(&key(i), fingerprint(i));
            assert_eq!(memo.keys.len(), stamps.len() + 1, "key {i}");
            assert!(
                memo.get(stamp, cfg).is_err(),
                "key {i} found a priced claim"
            );
            price(&mut memo, stamp, cfg, est(i));
            stamps.push(stamp);
            // The first key since the clear still resolves; with a full
            // memo, or at the end, so does every key claimed since then,
            // looked up in either order.
            let first = i - i % MEMO_SNAPSHOTS;
            let full = stamps.len() == MEMO_SNAPSHOTS || i + 1 == total;
            let since_clear = if full { first..=i } else { first..=first };
            for j in since_clear.clone().chain(since_clear.rev()) {
                let stamp = memo.stamp_of(&key(j), fingerprint(j));
                assert_eq!(stamp, stamps[j - first], "key {j} after claiming {i}");
                assert_eq!(memo.get(stamp, cfg), Ok(est(j)), "key {j}");
            }
        }
        // The real fingerprint separates keys that differ in one word.
        assert_ne!(key(0).fingerprint(), key(2).fingerprint());
        assert_ne!(key(1).fingerprint(), key(3).fingerprint());
    }

    #[test]
    fn estimates_sharing_a_probe_chain_across_a_wholesale_clear_stay_apart() {
        // Claim stamps are chosen so that every estimate of `cfg` starts
        // its probe at one cell: three before a clear fill a chain of three
        // cells, two after it take the chain's stale cells over.
        let cfg = HwConfig::MAX_PERF;
        let h = home(entry_tag(1, cfg), ENTRY_CELLS);
        let mut colliding = (2..).filter(|&s| home(entry_tag(s, cfg), ENTRY_CELLS) == h);
        let mut next = || colliding.next().expect("a colliding stamp");
        let key = |i: usize| SnapshotKey {
            generation: 7,
            counters: [i as u64; NUM_COUNTERS],
        };
        // Claims key `i` under exactly `stamp`: stamps only ever grow.
        let claim_at = |memo: &mut ValueMemo, i: usize, stamp: u32| {
            memo.stamp = stamp - 1;
            assert_eq!(claim(memo, &key(i)), stamp);
        };
        let cell = |k: usize| (h + k) % ENTRY_CELLS;
        let mut memo = ValueMemo::EMPTY;
        let before = [1, next(), next()];
        for (i, &stamp) in before.iter().enumerate() {
            claim_at(&mut memo, i, stamp);
            assert_eq!(memo.get(stamp, cfg), Err(cell(i)));
            price(&mut memo, stamp, cfg, est(i));
        }
        assert_eq!(memo.get(before[2], cfg), Ok(est(2)));
        // A full estimate table clears at the next lookup.
        memo.filled = MEMO_ENTRIES;
        let d = next();
        claim_at(&mut memo, 3, d);
        assert_eq!((memo.filled, memo.keys.len()), (0, 1));
        // The first stale cell is vacant: D's estimate goes there, and a
        // probe for it reads no further.
        assert_eq!(memo.get(d, cfg), Err(cell(0)));
        price(&mut memo, d, cfg, est(3));
        // Snapshot 2, claimed again, is unpriced although its old estimate
        // sits further down the chain: its probe passes D's live cell and
        // stops at snapshot 1's stale one, which it then takes.
        let again = next();
        claim_at(&mut memo, 2, again);
        assert_eq!(memo.get(again, cfg), Err(cell(1)));
        price(&mut memo, again, cfg, est(20));
        assert_eq!(memo.entries[cell(2)].0, entry_tag(before[2], cfg));
        assert_eq!(memo.get(d, cfg), Ok(est(3)));
        assert_eq!(memo.get(again, cfg), Ok(est(20)));
        // A third claim walks the whole chain: two live cells, then the
        // stale cell of snapshot 2's first claim.
        let e = next();
        claim_at(&mut memo, 4, e);
        assert_eq!(memo.get(e, cfg), Err(cell(2)));
    }

    /// The keys of a JSON object, in order.
    fn keys(value: &Value) -> Vec<&str> {
        let map = value.as_map().expect("an object");
        map.iter().map(|(k, _)| k.as_str().unwrap()).collect()
    }

    #[test]
    fn serde_roundtrip_keeps_the_packed_forests_bit_for_bit() {
        let (_, _, ds) = campaign();
        let params = ForestParams {
            num_trees: 6,
            ..ForestParams::default()
        };
        let rf = RandomForestPredictor::train(&ds, &params, 11);
        let json = serde_json::to_string(&rf).unwrap();
        let back: RandomForestPredictor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rf, "the forests must load bit for bit");
        assert_ne!(
            back.generation(),
            rf.generation(),
            "a load is a new predictor"
        );
        assert_eq!(serde_json::to_string(&back).unwrap(), json);

        // The wire format is the two packed forests and nothing per
        // sample or per tree beyond each root.
        let mut value: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(keys(&value), ["time_forest", "power_forest"]);
        for forest in ["time_forest", "power_forest"] {
            assert_eq!(
                keys(&value[forest]),
                ["num_features", "roots", "nodes", "leaf_values"]
            );
            assert_eq!(value[forest]["roots"].as_array().unwrap().len(), 6);
        }

        // Negative zeros in a split threshold and a leaf value survive.
        let forest = &mut value["time_forest"];
        let leaf = forest["nodes"]
            .as_array()
            .unwrap()
            .iter()
            .zip(0..)
            .position(|(node, i)| node[2] == i)
            .expect("a leaf");
        assert_ne!(leaf, 0, "the root is a split");
        forest["nodes"][0][0] = Value::F64(-0.0);
        forest["leaf_values"][leaf] = Value::F64(-0.0);
        let edited = serde_json::to_string(&value).unwrap();
        assert!(edited.contains("[-0.0,"), "{}", &edited[..200]);
        let back: RandomForestPredictor = serde_json::from_str(&edited).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), edited);
    }

    #[test]
    fn predictions_are_positive_even_on_garbage() {
        let (_, _, ds) = campaign();
        let rf = RandomForestPredictor::train(&ds, &ForestParams::default(), 11);
        let snap = gpm_sim::predictor::KernelSnapshot::counters_only(
            gpm_sim::CounterSet::from_values([0.0; 8]),
            HwConfig::FAIL_SAFE,
            1.0,
        );
        let est = rf.predict(&snap, HwConfig::FAIL_SAFE);
        assert!(est.time_s > 0.0);
        assert!(est.gpu_power_w > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let _ = RandomForestPredictor::train(&Dataset::default(), &ForestParams::default(), 1);
    }
}
