//! The trained Random-Forest predictor behind the
//! [`PowerPerfPredictor`] interface.

use crate::dataset::Dataset;
use crate::features::{encode_config_features, encode_counter_features, NUM_FEATURES};
use crate::flat::FlatForest;
use crate::forest::{ForestParams, RandomForest};
use crate::metrics;
use crate::tree::RankedColumns;
use gpm_hw::HwConfig;
use gpm_sim::predictor::{KernelSnapshot, PowerPerfEstimate, PowerPerfPredictor};
use gpm_sim::{CounterSet, NUM_COUNTERS};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Held-out accuracy of a trained predictor, in the units the paper
/// reports (MAPE fractions; Section VI-D quotes 25% performance and 12%
/// power).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
/// let ds = Dataset::from_campaign(&sim, &kernels, &space, HwConfig::FAIL_SAFE);
/// let rf = RandomForestPredictor::train(&ds, &ForestParams::default(), 1);
/// # let _ = rf;
/// ```
/// Inference happens on flattened [`FlatForest`] copies of the fitted
/// forests (bit-identical to the nested traversal; see the [`crate::flat`]
/// module). The serialized format carries only the two nested forests —
/// the flat engines are deterministic re-encodings rebuilt on
/// deserialization, so saved contexts stay compatible. Deserialization
/// fails on a forest that does not flatten or was not fitted on
/// [`NUM_FEATURES`] features.
#[derive(Debug, Clone)]
pub struct RandomForestPredictor {
    time_forest: RandomForest,
    power_forest: RandomForest,
    time_flat: FlatForest,
    power_flat: FlatForest,
    /// Process-unique tag for the thread-local value memo; never reused
    /// across predictor constructions, so a stale memo entry can only
    /// ever match the forests it was priced with. Clones share the tag —
    /// their forests are identical, so memo hits stay correct.
    generation: u64,
}

/// Source of [`RandomForestPredictor::generation`] tags (never 0).
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

impl PartialEq for RandomForestPredictor {
    fn eq(&self, other: &Self) -> bool {
        // The flat engines are deterministic re-encodings and the
        // generation is cache identity, not model state: the fitted
        // forests are the whole comparison.
        self.time_forest == other.time_forest && self.power_forest == other.power_forest
    }
}

/// Serialized form of [`RandomForestPredictor`]: the fitted forests only,
/// field-compatible with predictors saved before the flat engine existed.
#[derive(Serialize, Deserialize)]
struct SavedForests {
    time_forest: RandomForest,
    power_forest: RandomForest,
}

// Hand-written so the wire format stays exactly `SavedForests` while the
// in-memory type also carries the derived flat engines.
impl Serialize for RandomForestPredictor {
    fn serialize_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            (
                serde::Content::Str("time_forest".to_owned()),
                self.time_forest.serialize_content(),
            ),
            (
                serde::Content::Str("power_forest".to_owned()),
                self.power_forest.serialize_content(),
            ),
        ])
    }
}

impl Deserialize for RandomForestPredictor {
    fn deserialize_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        let saved = SavedForests::deserialize_content(content)?;
        RandomForestPredictor::from_forests(saved.time_forest, saved.power_forest)
            .map_err(serde::DeError::custom)
    }
}

thread_local! {
    /// Per-thread value memo, so `predict` stays `&self` and allocates
    /// nothing in steady state.
    static MEMO: RefCell<ValueMemo> = RefCell::new(ValueMemo::default());
}

/// Snapshots the per-thread value memo holds before it starts over. The
/// largest single suite evaluation touches 20 distinct snapshots.
const MEMO_SNAPSHOTS: usize = 64;

/// Everything a forest estimate depends on besides the configuration:
/// the predictor's [`generation`](RandomForestPredictor::generation) and
/// the exact bits of the snapshot's counters.
#[derive(Clone, Copy, PartialEq, Eq)]
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
}

/// Per-snapshot value memo: for a fixed (predictor, snapshot) pair the
/// estimate is a pure function of the configuration, so each of the
/// [`HwConfig::DENSE_COUNT`] lattice points is walked at most once per
/// snapshot while the snapshot stays memoized. It holds the post-clamp
/// estimates `predict` returns.
///
/// Claiming a slot writes nothing but its key and a fresh claim stamp:
/// an entry is valid only while it carries its slot's current stamp, so
/// the estimates a slot held for an earlier snapshot go stale without a
/// single store. Past each slot's first claim on a thread, only the
/// entries actually priced are touched.
#[derive(Default)]
struct ValueMemo {
    /// The memoized snapshots, one slot each, at most [`MEMO_SNAPSHOTS`].
    keys: Vec<SnapshotKey>,
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
    /// The slot holding `key`'s estimates. An unknown key claims the next
    /// slot with every estimate unpriced; when all slots are taken, or
    /// the claim stamps run out, the memo is cleared wholesale first.
    fn slot(&mut self, key: &SnapshotKey) -> usize {
        if self.keys.get(self.last) == Some(key) {
            return self.last;
        }
        self.last = match self.keys.iter().position(|k| k == key) {
            Some(slot) => slot,
            None => self.claim(key),
        };
        self.last
    }

    fn claim(&mut self, key: &SnapshotKey) -> usize {
        if self.keys.len() == MEMO_SNAPSHOTS || self.stamp == u32::MAX {
            self.keys.clear();
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
    /// Panics if the dataset is empty or its rows are not
    /// [`NUM_FEATURES`] wide.
    pub fn train(dataset: &Dataset, params: &ForestParams, seed: u64) -> RandomForestPredictor {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let columns =
            RankedColumns::from_rows(dataset.samples().iter().map(|s| s.features.as_slice()));
        let time_forest =
            RandomForest::fit_ranked(&columns, &dataset.ys_log_time(), params, seed, 0);
        let power_forest = RandomForest::fit_ranked(
            &columns,
            &dataset.ys_power(),
            params,
            seed.wrapping_add(1),
            0,
        );
        RandomForestPredictor::from_forests(time_forest, power_forest)
            .expect("training rows are NUM_FEATURES wide")
    }

    /// Assembles a predictor from fitted forests, building the flat
    /// inference engines. Each assembly gets a fresh
    /// [`generation`](RandomForestPredictor::generation) tag, so
    /// retraining (e.g. via [`RandomForest::fit_with_threads`]) can never
    /// be served stale per-thread memo entries.
    ///
    /// # Errors
    ///
    /// Describes the problem when a forest does not flatten (see
    /// [`FlatForest::from_forest`]) or was fitted on other than
    /// [`NUM_FEATURES`] features, the width of every row the predictor
    /// encodes.
    pub fn from_forests(
        time_forest: RandomForest,
        power_forest: RandomForest,
    ) -> Result<RandomForestPredictor, String> {
        let flatten = |forest: &RandomForest, what: &str| {
            let flat = FlatForest::from_forest(forest).map_err(|e| format!("{what}: {e}"))?;
            if flat.num_features() != NUM_FEATURES {
                return Err(format!(
                    "{what} was fitted on {} features, not {NUM_FEATURES}",
                    flat.num_features()
                ));
            }
            Ok(flat)
        };
        let time_flat = flatten(&time_forest, "time forest")?;
        let power_flat = flatten(&power_forest, "power forest")?;
        Ok(RandomForestPredictor {
            time_forest,
            power_forest,
            time_flat,
            power_flat,
            generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Evaluates held-out accuracy on `test`.
    pub fn evaluate(&self, test: &Dataset, train_samples: usize) -> TrainReport {
        let mut time_pred = Vec::with_capacity(test.len());
        let mut power_pred = Vec::with_capacity(test.len());
        let mut time_truth = Vec::with_capacity(test.len());
        let mut power_truth = Vec::with_capacity(test.len());
        let mut log_time_pred = Vec::with_capacity(test.len());
        let mut log_time_truth = Vec::with_capacity(test.len());
        for s in test.samples() {
            let lt = self.time_forest.predict(&s.features);
            log_time_pred.push(lt);
            log_time_truth.push(s.time_s.max(1e-12).ln());
            time_pred.push(lt.exp());
            time_truth.push(s.time_s);
            power_pred.push(self.power_forest.predict(&s.features));
            power_truth.push(s.gpu_power_w);
        }
        TrainReport {
            time_mape: metrics::mape(&time_pred, &time_truth),
            power_mape: metrics::mape(&power_pred, &power_truth),
            time_r2: metrics::r2(&log_time_pred, &log_time_truth),
            power_r2: metrics::r2(&power_pred, &power_truth),
            train_samples,
            test_samples: test.len(),
        }
    }

    /// The fitted `ln(time)` forest (for diagnostics such as permutation
    /// importance).
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
        self.generation
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
            let slot = memo.slot(&SnapshotKey::new(self.generation, &snapshot.counters));
            if let Some(est) = memo.get(slot, cfg) {
                return est;
            }
            let mut row = [0.0; NUM_FEATURES];
            let (counters, config) = row.split_at_mut(NUM_COUNTERS);
            counters.copy_from_slice(&encode_counter_features(&snapshot.counters));
            config.copy_from_slice(&encode_config_features(cfg));
            let est = PowerPerfEstimate {
                time_s: self.time_flat.predict(&row).exp().max(1e-9),
                gpu_power_w: self.power_flat.predict(&row).max(0.1),
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
    use gpm_hw::{ConfigSpace, CpuPState, GpuDpm};
    use gpm_sim::{ApuSimulator, KernelCharacteristics};

    fn campaign() -> (ApuSimulator, Vec<KernelCharacteristics>, Dataset) {
        let sim = ApuSimulator::default();
        let kernels = vec![
            KernelCharacteristics::compute_bound("cb", 15.0),
            KernelCharacteristics::memory_bound("mb", 1.5),
            KernelCharacteristics::peak("pk", 8.0),
            KernelCharacteristics::unscalable("us", 0.01),
        ];
        let space = ConfigSpace::paper_campaign();
        let ds = Dataset::from_campaign(&sim, &kernels, &space, HwConfig::FAIL_SAFE);
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

    /// The seed formula: one-shot encoding + nested forest traversal +
    /// exp/clamp, touching no thread-local state.
    fn nested_reference(
        rf: &RandomForestPredictor,
        snap: &KernelSnapshot,
        cfg: HwConfig,
    ) -> PowerPerfEstimate {
        let features = crate::features::encode_features(&snap.counters, cfg);
        PowerPerfEstimate {
            time_s: rf.time_forest().predict(&features).exp().max(1e-9),
            gpu_power_w: rf.power_forest().predict(&features).max(0.1),
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
        let snap = KernelSnapshot::counters_only(
            gpm_sim::CounterSet::from_values([1e8, 40.0, 60.0, 1e5, 6.0, 3.0, 1e6, 1e6]),
            HwConfig::FAIL_SAFE,
            1.0,
        );
        for _ in 0..2 {
            for cfg in &ConfigSpace::paper_campaign() {
                assert_bits_eq(
                    rf.predict(&snap, cfg),
                    nested_reference(&rf, &snap, cfg),
                    &format!("{cfg}"),
                );
            }
        }
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
                    .map(|&cfg| {
                        [
                            nested_reference(&rf_a, snap, cfg),
                            nested_reference(&rf_b, snap, cfg),
                        ]
                    })
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
                    assert_bits_eq(
                        rf.predict(snap, cfg),
                        nested_reference(&rf, snap, cfg),
                        &what,
                    );
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
        let est = |i: u64| PowerPerfEstimate {
            time_s: i as f64,
            gpu_power_w: 1.0,
        };
        let cfg = HwConfig::FAIL_SAFE;
        for start_stamp in [0, u32::MAX - MEMO_SNAPSHOTS as u32] {
            let mut memo = ValueMemo {
                stamp: start_stamp,
                ..ValueMemo::default()
            };
            for i in 0..MEMO_SNAPSHOTS as u64 {
                let slot = memo.slot(&key(i));
                assert_eq!(slot, i as usize);
                memo.set(slot, cfg, est(i));
            }
            let slot = memo.slot(&key(0));
            assert_eq!(memo.get(slot, cfg), Some(est(0)));
            // Full (or out of stamps): a new snapshot clears the memo and
            // reclaims slot 0, whose entry still holds snapshot 0's
            // estimate under the old stamp.
            let slot = memo.slot(&key(1000));
            assert_eq!(slot, 0, "start stamp {start_stamp}");
            assert_eq!(memo.get(slot, cfg), None, "start stamp {start_stamp}");
            memo.set(slot, cfg, est(1000));
            // Snapshot 0 is forgotten too, and its new slot is unpriced.
            let slot = memo.slot(&key(0));
            assert_eq!(slot, 1, "start stamp {start_stamp}");
            assert_eq!(memo.get(slot, cfg), None, "start stamp {start_stamp}");
            let slot = memo.slot(&key(1000));
            assert_eq!(memo.get(slot, cfg), Some(est(1000)));
        }
        // Stamps that run out start over at 1, the stamp slot 0's first
        // entries were written under: the wholesale clear must erase them.
        let mut memo = ValueMemo::default();
        let slot = memo.slot(&key(0));
        memo.set(slot, cfg, est(0));
        memo.stamp = u32::MAX;
        let slot = memo.slot(&key(1000));
        assert_eq!((slot, memo.stamp), (0, 1));
        assert_eq!(memo.get(slot, cfg), None);
    }

    #[test]
    fn serde_roundtrip_rebuilds_flat_engines() {
        let (_, _, ds) = campaign();
        let params = ForestParams {
            num_trees: 6,
            ..ForestParams::default()
        };
        let rf = RandomForestPredictor::train(&ds, &params, 11);
        let json = serde_json::to_string(&rf).unwrap();
        let back: RandomForestPredictor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rf, "flat engines must rebuild identically on load");
        // The wire format carries only the nested forests.
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let keys: Vec<&str> = value
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str().unwrap())
            .collect();
        assert_eq!(keys, ["time_forest", "power_forest"]);
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
