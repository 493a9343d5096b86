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

/// Snapshots the per-thread value memo holds before it starts over. The
/// largest single suite evaluation touches 20 distinct snapshots.
const MEMO_SNAPSHOTS: usize = 64;

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
    /// a slot whose fingerprint differs cannot hold the key. Each counter
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

/// Per-snapshot value memo: for a fixed (predictor, snapshot) pair the
/// estimate is a pure function of the configuration, so each of the
/// [`HwConfig::DENSE_COUNT`] lattice points is walked at most once per
/// snapshot while the snapshot stays memoized. It holds the post-clamp
/// estimates `predict` returns.
///
/// A lookup scans the slots' 8-byte fingerprints and confirms a match
/// with one full-key compare, so a miss over 64 slots reads 512 bytes and
/// compares no key.
///
/// Claiming a slot writes nothing but its key and a fresh claim stamp:
/// an entry is valid only while it carries its slot's current stamp, so
/// the estimates a slot held for an earlier snapshot go stale without a
/// single store. Past each slot's first claim on a thread, only the
/// entries actually priced are touched.
struct ValueMemo {
    /// The memoized snapshots, one slot each, at most [`MEMO_SNAPSHOTS`].
    keys: Vec<SnapshotKey>,
    /// [`SnapshotKey::fingerprint`] of each slot, index-aligned with `keys`.
    fingerprints: Vec<u64>,
    /// Claim stamp of each slot, index-aligned with `keys`.
    stamps: Vec<u32>,
    /// `MEMO_SNAPSHOTS * DENSE_COUNT` entries, slot-major by dense index,
    /// allocated at the first claim and filled out slot by slot.
    entries: Vec<MemoEntry>,
    /// The last stamp handed out; 0 is never a slot's stamp.
    stamp: u32,
    /// Slot of the last lookup: consecutive calls nearly always price the
    /// same snapshot.
    last: usize,
}

/// One memoized estimate and the claim stamp it was written under.
#[derive(Clone, Copy)]
struct MemoEntry {
    stamp: u32,
    est: PowerPerfEstimate,
}

impl MemoEntry {
    /// An entry no slot's stamp matches.
    const UNPRICED: MemoEntry = MemoEntry {
        stamp: 0,
        est: PowerPerfEstimate {
            time_s: f64::NAN,
            gpu_power_w: f64::NAN,
        },
    };
}

impl ValueMemo {
    /// A memo with no slot claimed and nothing allocated.
    const EMPTY: ValueMemo = ValueMemo {
        keys: Vec::new(),
        fingerprints: Vec::new(),
        stamps: Vec::new(),
        entries: Vec::new(),
        stamp: 0,
        last: 0,
    };

    /// The slot holding `key`'s estimates, where `fingerprint` is
    /// `key.fingerprint()`. An unknown key claims the next slot with
    /// every estimate unpriced; when all slots are taken, or the claim
    /// stamps run out, the memo is cleared wholesale first.
    fn slot(&mut self, key: &SnapshotKey, fingerprint: u64) -> usize {
        let last = self.last;
        if self.fingerprints.get(last) == Some(&fingerprint) && self.keys[last].same(key) {
            return last;
        }
        self.last = match self
            .fingerprints
            .iter()
            .zip(&self.keys)
            .position(|(&f, k)| f == fingerprint && k.same(key))
        {
            Some(slot) => slot,
            None => self.claim(key, fingerprint),
        };
        self.last
    }

    fn claim(&mut self, key: &SnapshotKey, fingerprint: u64) -> usize {
        if self.keys.len() == MEMO_SNAPSHOTS || self.stamp == u32::MAX {
            self.keys.clear();
            self.fingerprints.clear();
            self.stamps.clear();
        }
        if self.stamp == u32::MAX {
            // Stamps are about to repeat: no entry may carry an old one.
            self.stamp = 0;
            for entry in &mut self.entries {
                entry.stamp = 0;
            }
        }
        let slot = self.keys.len();
        let end = (slot + 1) * HwConfig::DENSE_COUNT;
        if self.entries.len() < end {
            // The whole table is allocated at the first claim.
            self.entries
                .reserve_exact(MEMO_SNAPSHOTS * HwConfig::DENSE_COUNT - self.entries.len());
            self.entries.resize(end, MemoEntry::UNPRICED);
        }
        self.stamp += 1;
        self.keys.push(*key);
        self.fingerprints.push(fingerprint);
        self.stamps.push(self.stamp);
        slot
    }

    /// The estimate of `cfg` in `slot`, if priced since the slot's claim.
    fn get(&self, slot: usize, cfg: HwConfig) -> Option<PowerPerfEstimate> {
        let entry = self.entries[slot * HwConfig::DENSE_COUNT + cfg.dense_index()];
        (entry.stamp == self.stamps[slot]).then_some(entry.est)
    }

    fn set(&mut self, slot: usize, cfg: HwConfig, est: PowerPerfEstimate) {
        self.entries[slot * HwConfig::DENSE_COUNT + cfg.dense_index()] = MemoEntry {
            stamp: self.stamps[slot],
            est,
        };
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
            let slot = memo.slot(&key, key.fingerprint());
            if let Some(est) = memo.get(slot, cfg) {
                return est;
            }
            let mut row = [0.0; NUM_FEATURES];
            let (counters, config) = row.split_at_mut(NUM_COUNTERS);
            counters.copy_from_slice(&encode_counter_features(&snapshot.counters));
            config.copy_from_slice(&encode_config_features(cfg));
            let est = PowerPerfEstimate {
                time_s: self.time_forest.predict(&row).exp().max(1e-9),
                gpu_power_w: self.power_forest.predict(&row).max(0.1),
            };
            memo.set(slot, cfg, est);
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

    #[test]
    fn value_memo_invalidates_on_snapshot_and_predictor_change() {
        // Interleaves single and batched pricing over more distinct
        // snapshots than the value memo holds, under two predictors, on
        // one thread: the memo must tell the predictors apart, start
        // over when full without serving a reclaimed slot's old values,
        // and match the nested reference throughout.
        let (_, _, ds) = campaign();
        let rf_a = RandomForestPredictor::train(&ds, &ForestParams::default(), 11);
        let rf_b = RandomForestPredictor::train(&ds, &ForestParams::default(), 23);
        let (nested_a, nested_b) = (nested_reference(&rf_a), nested_reference(&rf_b));
        let snaps: Vec<KernelSnapshot> = (0..MEMO_SNAPSHOTS / 2 + 5)
            .map(|i| {
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
            })
            .collect();
        // Two (predictor, snapshot) keys per snapshot: the memo wraps
        // more than once per round.
        assert!(2 * snaps.len() > MEMO_SNAPSHOTS);
        let cfgs: Vec<HwConfig> = ConfigSpace::paper_campaign().iter().step_by(7).collect();
        let references: Vec<Vec<[PowerPerfEstimate; 2]>> = snaps
            .iter()
            .map(|snap| {
                cfgs.iter()
                    .map(|&cfg| [nested_a(snap, cfg), nested_b(snap, cfg)])
                    .collect()
            })
            .collect();
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
    }

    #[test]
    fn memo_stamp_overflow_resets_cleanly() {
        // The claims of the first round run the stamps out mid-round: the
        // memo clears wholesale, and every later estimate, walked or
        // served, still matches the nested reference.
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
        let key = |i: u64| SnapshotKey {
            generation: 1,
            counters: [i; NUM_COUNTERS],
        };
        let lookup = |memo: &mut ValueMemo, i: u64| {
            let key = key(i);
            memo.slot(&key, key.fingerprint())
        };
        let est = |i: u64| PowerPerfEstimate {
            time_s: i as f64,
            gpu_power_w: 1.0,
        };
        let cfg = HwConfig::FAIL_SAFE;
        for start_stamp in [0, u32::MAX - MEMO_SNAPSHOTS as u32] {
            let mut memo = ValueMemo {
                stamp: start_stamp,
                ..ValueMemo::EMPTY
            };
            for i in 0..MEMO_SNAPSHOTS as u64 {
                let slot = lookup(&mut memo, i);
                assert_eq!(slot, i as usize);
                memo.set(slot, cfg, est(i));
            }
            let slot = lookup(&mut memo, 0);
            assert_eq!(memo.get(slot, cfg), Some(est(0)));
            // Full (or out of stamps): a new snapshot clears the memo and
            // reclaims slot 0, whose entry still holds snapshot 0's
            // estimate under the old stamp.
            let slot = lookup(&mut memo, 1000);
            assert_eq!(slot, 0, "start stamp {start_stamp}");
            assert_eq!(memo.get(slot, cfg), None, "start stamp {start_stamp}");
            memo.set(slot, cfg, est(1000));
            // Snapshot 0 is forgotten too, and its new slot is unpriced.
            let slot = lookup(&mut memo, 0);
            assert_eq!(slot, 1, "start stamp {start_stamp}");
            assert_eq!(memo.get(slot, cfg), None, "start stamp {start_stamp}");
            let slot = lookup(&mut memo, 1000);
            assert_eq!(memo.get(slot, cfg), Some(est(1000)));
        }
        // Stamps that run out start over at 1, the stamp slot 0's first
        // entries were written under: the wholesale clear must erase them.
        let mut memo = ValueMemo::EMPTY;
        let slot = lookup(&mut memo, 0);
        memo.set(slot, cfg, est(0));
        memo.stamp = u32::MAX;
        let slot = lookup(&mut memo, 1000);
        assert_eq!((slot, memo.stamp), (0, 1));
        assert_eq!(memo.get(slot, cfg), None);
    }

    #[test]
    fn colliding_fingerprints_still_resolve_each_key_to_its_own_slot() {
        // Every key is looked up under one shared fingerprint, so only the
        // full-key compare tells them apart; the keys differ in a single
        // word (one counter, or the generation alone), and there are more
        // of them than the memo holds, so it clears wholesale twice.
        const FINGERPRINT: u64 = 0x5EED;
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
        let est = |i: usize| PowerPerfEstimate {
            time_s: i as f64,
            gpu_power_w: 1.0,
        };
        let cfg = HwConfig::MAX_PERF;
        let mut memo = ValueMemo::EMPTY;
        for i in 0..2 * MEMO_SNAPSHOTS + 3 {
            let slot = memo.slot(&key(i), FINGERPRINT);
            assert_eq!(slot, i % MEMO_SNAPSHOTS, "key {i}");
            assert_eq!(memo.get(slot, cfg), None, "key {i} found a priced slot");
            memo.set(slot, cfg, est(i));
            // Every key claimed since the last clear, looked up in either
            // order, still resolves to its own slot and estimate.
            let since_clear = i - i % MEMO_SNAPSHOTS..=i;
            for j in since_clear.clone().chain(since_clear.rev()) {
                let slot = memo.slot(&key(j), FINGERPRINT);
                assert_eq!(slot, j % MEMO_SNAPSHOTS, "key {j} after claiming {i}");
                assert_eq!(memo.get(slot, cfg), Some(est(j)), "key {j}");
            }
        }
        // The real fingerprint separates keys that differ in one word.
        assert_ne!(key(0).fingerprint(), key(2).fingerprint());
        assert_ne!(key(1).fingerprint(), key(3).fingerprint());
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
