//! Training-set construction from a simulated measurement campaign.
//!
//! Mirrors the paper's methodology (Section V): every training kernel is
//! "executed" at each configuration of the campaign space while CodeXL-style
//! counters and power are captured. One training sample pairs the kernel's
//! profiling counters with a target configuration and the measured
//! time/power at that configuration.
//!
//! Counters are captured once per kernel at a fixed profiling configuration
//! (the fail-safe state). At *prediction* time the stored counters may come
//! from whatever configuration the kernel last executed at — a realistic
//! train/serve mismatch that, together with measurement noise, produces
//! model error comparable to the paper's reported MAPE.
//!
//! A [`Dataset`] is a set of columns, not of per-sample records: one
//! row-major feature matrix [`NUM_FEATURES`] values wide, the time and
//! power targets, and a kernel-id column whose names live in a table. A
//! campaign encodes each kernel's counter features once, and measures
//! only the time and power of each sample
//! ([`ApuSimulator::measure_time_power`]); splits gather rows by index.

use crate::features::{encode_config_features, encode_counter_features, NUM_FEATURES};
use gpm_hw::{ConfigSpace, HwConfig};
use gpm_sim::{ApuSimulator, KernelCharacteristics, NUM_COUNTERS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;

/// A collection of training samples, stored column-wise.
///
/// # Examples
///
/// ```
/// use gpm_hw::{ConfigSpace, HwConfig};
/// use gpm_model::Dataset;
/// use gpm_sim::{ApuSimulator, KernelCharacteristics};
///
/// let sim = ApuSimulator::default();
/// let kernels = vec![KernelCharacteristics::compute_bound("k", 10.0)];
/// let space = ConfigSpace::nb_cu_sweep(gpm_hw::CpuPState::P5, gpm_hw::GpuDpm::Dpm4);
/// let ds = Dataset::from_campaign(&sim, &kernels, &space, HwConfig::FAIL_SAFE, 1);
/// assert_eq!(ds.len(), 16);
/// assert_eq!(ds.kernel(3), "k");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct Dataset {
    /// Row-major feature matrix, [`NUM_FEATURES`] values per row (see
    /// [`crate::features`]).
    features: Vec<f64>,
    /// Measured kernel execution time per row, seconds.
    time_s: Vec<f64>,
    /// Measured GPU-domain power per row, watts.
    gpu_power_w: Vec<f64>,
    /// Per row, the index of its kernel's name in `kernel_names` (for
    /// leave-one-out splits).
    kernel_ids: Vec<u32>,
    /// Distinct kernel names, in order of first appearance.
    kernel_names: Vec<String>,
}

/// Consecutive rows of a [`Dataset`] borrowed mutably, so that disjoint
/// blocks of one campaign can be measured on different threads.
struct RowsMut<'a> {
    features: &'a mut [f64],
    time_s: &'a mut [f64],
    gpu_power_w: &'a mut [f64],
}

impl RowsMut<'_> {
    /// Measures `kernels` into these rows, kernel-major and
    /// configuration-minor: each kernel is profiled once at
    /// `profile_cfg`, its counter features encoded once, and then only
    /// its time and power are measured at every configuration of `space`.
    fn measure_campaign(
        self,
        sim: &ApuSimulator,
        kernels: &[KernelCharacteristics],
        space: &ConfigSpace,
        profile_cfg: HwConfig,
    ) {
        debug_assert_eq!(self.time_s.len(), kernels.len() * space.len());
        let rows = self.features.chunks_exact_mut(NUM_FEATURES);
        let mut samples = rows.zip(self.time_s.iter_mut().zip(self.gpu_power_w.iter_mut()));
        for kernel in kernels {
            let counters = encode_counter_features(&sim.evaluate(kernel, profile_cfg).counters);
            for (cfg, (row, (time_s, gpu_power_w))) in space.iter().zip(samples.by_ref()) {
                row[..NUM_COUNTERS].copy_from_slice(&counters);
                row[NUM_COUNTERS..].copy_from_slice(&encode_config_features(cfg));
                let measured = sim.measure_time_power(kernel, cfg);
                *time_s = measured.time_s;
                *gpu_power_w = measured.gpu_power_w;
            }
        }
    }
}

impl Dataset {
    /// Runs the measurement campaign on `threads` workers: profiles each
    /// kernel at `profile_cfg`, then measures it at every configuration
    /// in `space`. Rows are kernel-major and configuration-minor.
    ///
    /// Kernels are partitioned across scoped worker threads, and each
    /// worker measures its share straight into its own disjoint block of
    /// the columns. Blocks follow kernel order, so the dataset is
    /// bit-identical for every `threads` value, with nothing to merge.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn from_campaign(
        sim: &ApuSimulator,
        kernels: &[KernelCharacteristics],
        space: &ConfigSpace,
        profile_cfg: HwConfig,
        threads: usize,
    ) -> Dataset {
        assert!(threads > 0, "at least one worker thread is required");
        let mut dataset = Dataset::unmeasured_campaign(kernels, space);
        let per_worker = kernels.len().div_ceil(threads).max(1);
        let blocks = dataset.blocks_mut(per_worker * space.len().max(1));
        let mut jobs = kernels.chunks(per_worker).zip(blocks);
        // The first block is measured on the calling thread.
        let first = jobs.next();
        std::thread::scope(|scope| {
            for (chunk, rows) in jobs {
                scope.spawn(move || rows.measure_campaign(sim, chunk, space, profile_cfg));
            }
            if let Some((chunk, rows)) = first {
                rows.measure_campaign(sim, chunk, space, profile_cfg);
            }
        });
        dataset
    }

    /// The campaign of `kernels` over `space` before any measurement:
    /// one row per (kernel, configuration), kernel-major, every row named
    /// after its kernel and its features and targets zero.
    fn unmeasured_campaign(kernels: &[KernelCharacteristics], space: &ConfigSpace) -> Dataset {
        let rows = kernels.len() * space.len();
        let mut dataset = Dataset {
            features: vec![0.0; rows * NUM_FEATURES],
            time_s: vec![0.0; rows],
            gpu_power_w: vec![0.0; rows],
            kernel_ids: Vec::with_capacity(rows),
            kernel_names: Vec::new(),
        };
        for kernel in kernels {
            let id = dataset.intern(kernel.name());
            dataset
                .kernel_ids
                .extend(std::iter::repeat_n(id, space.len()));
        }
        dataset
    }

    /// The rows in consecutive blocks of `rows` rows (the last may be
    /// shorter), each borrowed mutably on its own.
    fn blocks_mut(&mut self, rows: usize) -> impl Iterator<Item = RowsMut<'_>> {
        self.features
            .chunks_mut(rows * NUM_FEATURES)
            .zip(self.time_s.chunks_mut(rows))
            .zip(self.gpu_power_w.chunks_mut(rows))
            .map(|((features, time_s), gpu_power_w)| RowsMut {
                features,
                time_s,
                gpu_power_w,
            })
    }

    /// Appends one sample: its features, measured time (seconds) and GPU
    /// power (watts), and the name of the kernel it came from.
    pub fn push(
        &mut self,
        features: &[f64; NUM_FEATURES],
        time_s: f64,
        gpu_power_w: f64,
        kernel: &str,
    ) {
        let id = self.intern(kernel);
        self.features.extend_from_slice(features);
        self.time_s.push(time_s);
        self.gpu_power_w.push(gpu_power_w);
        self.kernel_ids.push(id);
    }

    /// The id of `name` in the kernel table, added if new.
    fn intern(&mut self, name: &str) -> u32 {
        let id = match self.kernel_names.iter().position(|n| n == name) {
            Some(id) => id,
            None => {
                self.kernel_names.push(name.to_owned());
                self.kernel_names.len() - 1
            }
        };
        u32::try_from(id).expect("fewer than 2^32 kernels")
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.time_s.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.time_s.is_empty()
    }

    /// The row-major feature matrix, [`NUM_FEATURES`] values per row.
    pub fn features(&self) -> &[f64] {
        &self.features
    }

    /// The features of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.features[i * NUM_FEATURES..(i + 1) * NUM_FEATURES]
    }

    /// Every row's features, in order.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.features.chunks_exact(NUM_FEATURES)
    }

    /// Measured time per row, seconds.
    pub fn time_s(&self) -> &[f64] {
        &self.time_s
    }

    /// Measured GPU power per row, watts: the power forest's target.
    pub fn gpu_power_w(&self) -> &[f64] {
        &self.gpu_power_w
    }

    /// Name of the kernel row `i` came from.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn kernel(&self, i: usize) -> &str {
        &self.kernel_names[self.kernel_ids[i] as usize]
    }

    /// The feature matrix as one `Vec` per row, for the nested-row API of
    /// [`RandomForest::fit`](crate::RandomForest::fit).
    pub fn xs(&self) -> Vec<Vec<f64>> {
        self.rows().map(<[f64]>::to_vec).collect()
    }

    /// `ln(time)` target vector — time spans orders of magnitude across
    /// kernels, so the forest regresses its logarithm.
    pub fn ys_log_time(&self) -> Vec<f64> {
        self.time_s.iter().map(|t| t.max(1e-12).ln()).collect()
    }

    /// Whether the two datasets are identical column by column, every
    /// float compared by its bit pattern (`f64::to_bits`, so `-0.0` and
    /// `0.0` differ and NaN matches itself), and with the same kernel-id
    /// column and kernel table.
    pub fn same_bits(&self, other: &Dataset) -> bool {
        let bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        self.kernel_ids == other.kernel_ids
            && self.kernel_names == other.kernel_names
            && bits(&self.time_s, &other.time_s)
            && bits(&self.gpu_power_w, &other.gpu_power_w)
            && bits(&self.features, &other.features)
    }

    /// The rows `rows` names, in that order, with the whole kernel table.
    fn gather(&self, rows: impl Iterator<Item = usize> + Clone) -> Dataset {
        let n = rows.clone().count();
        let mut features = Vec::with_capacity(n * NUM_FEATURES);
        for i in rows.clone() {
            features.extend_from_slice(self.row(i));
        }
        Dataset {
            features,
            time_s: rows.clone().map(|i| self.time_s[i]).collect(),
            gpu_power_w: rows.clone().map(|i| self.gpu_power_w[i]).collect(),
            kernel_ids: rows.map(|i| self.kernel_ids[i]).collect(),
            kernel_names: self.kernel_names.clone(),
        }
    }

    /// Random split into (train, test) with the given test fraction.
    pub fn split(&self, test_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let n_test = ((self.len() as f64) * test_fraction.clamp(0.0, 1.0)).round() as usize;
        let (test_idx, train_idx) = idx.split_at(n_test.min(self.len()));
        (
            self.gather(train_idx.iter().copied()),
            self.gather(test_idx.iter().copied()),
        )
    }

    /// Leave-one-kernel-out split: samples of `kernel_name` become the test
    /// set. This is the honest evaluation for a predictor that will face
    /// kernels it never trained on.
    pub fn split_leave_kernel_out(&self, kernel_name: &str) -> (Dataset, Dataset) {
        let held_out = self
            .kernel_names
            .iter()
            .position(|n| n == kernel_name)
            .map(|id| id as u32);
        let rows = |test: bool| {
            (0..self.len()).filter(move |&i| (Some(self.kernel_ids[i]) == held_out) == test)
        };
        (self.gather(rows(false)), self.gather(rows(true)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_hw::{CpuPState, GpuDpm};

    fn tiny_dataset() -> Dataset {
        let sim = ApuSimulator::default();
        let kernels = vec![
            KernelCharacteristics::compute_bound("cb", 10.0),
            KernelCharacteristics::memory_bound("mb", 1.0),
        ];
        let space = ConfigSpace::nb_cu_sweep(CpuPState::P5, GpuDpm::Dpm4);
        Dataset::from_campaign(&sim, &kernels, &space, HwConfig::FAIL_SAFE, 1)
    }

    #[test]
    fn campaign_size_is_kernels_times_configs() {
        let ds = tiny_dataset();
        assert_eq!(ds.len(), 2 * 16);
        assert!(!ds.is_empty());
        assert_eq!(ds.features().len(), ds.len() * NUM_FEATURES);
    }

    #[test]
    fn samples_have_full_feature_vectors_and_positive_targets() {
        let ds = tiny_dataset();
        assert_eq!(ds.rows().len(), ds.len());
        for ((row, &t), &p) in ds.rows().zip(ds.time_s()).zip(ds.gpu_power_w()) {
            assert_eq!(row.len(), NUM_FEATURES);
            assert!(t > 0.0);
            assert!(p > 0.0);
        }
    }

    #[test]
    fn campaign_rows_are_what_the_simulator_measures() {
        // Row by row: the profile's counters, the target configuration,
        // and the full measurement's time and power.
        let sim = ApuSimulator::default();
        let kernels = [
            KernelCharacteristics::compute_bound("cb", 10.0),
            KernelCharacteristics::peak("pk", 8.0),
        ];
        let space = ConfigSpace::nb_cu_sweep(CpuPState::P5, GpuDpm::Dpm4);
        let ds = Dataset::from_campaign(&sim, &kernels, &space, HwConfig::FAIL_SAFE, 1);
        let mut i = 0;
        for kernel in &kernels {
            let profile = sim.evaluate(kernel, HwConfig::FAIL_SAFE);
            for cfg in &space {
                let out = sim.evaluate(kernel, cfg);
                let want = crate::features::encode_features(&profile.counters, cfg);
                assert_eq!(ds.row(i), want.as_slice());
                assert_eq!(ds.time_s()[i].to_bits(), out.time_s.to_bits());
                assert_eq!(
                    ds.gpu_power_w()[i].to_bits(),
                    out.power.gpu_domain_w().to_bits()
                );
                assert_eq!(ds.kernel(i), kernel.name());
                i += 1;
            }
        }
    }

    #[test]
    fn log_time_targets_are_finite() {
        let ds = tiny_dataset();
        for y in ds.ys_log_time() {
            assert!(y.is_finite());
        }
    }

    #[test]
    fn split_partitions_all_samples() {
        let ds = tiny_dataset();
        let (train, test) = ds.split(0.25, 3);
        assert_eq!(train.len() + test.len(), ds.len());
        assert_eq!(test.len(), 8);
    }

    #[test]
    fn split_is_deterministic() {
        let ds = tiny_dataset();
        let (a, _) = ds.split(0.25, 3);
        let (b, _) = ds.split(0.25, 3);
        assert!(a.same_bits(&b));
    }

    #[test]
    fn split_gathers_the_shuffled_rows_in_order() {
        // Test rows first in the shuffled order, then training rows: each
        // split row is the source row the shuffle put in its place.
        let ds = tiny_dataset();
        let mut idx: Vec<usize> = (0..ds.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(3));
        let (train, test) = ds.split(0.25, 3);
        let (test_idx, train_idx) = idx.split_at(8);
        for (part, rows) in [(&test, test_idx), (&train, train_idx)] {
            for (j, &i) in rows.iter().enumerate() {
                assert_eq!(part.row(j), ds.row(i));
                assert_eq!(part.time_s()[j].to_bits(), ds.time_s()[i].to_bits());
                assert_eq!(
                    part.gpu_power_w()[j].to_bits(),
                    ds.gpu_power_w()[i].to_bits()
                );
                assert_eq!(part.kernel(j), ds.kernel(i));
            }
        }
    }

    #[test]
    fn leave_kernel_out_isolates_kernel() {
        let ds = tiny_dataset();
        let (train, test) = ds.split_leave_kernel_out("cb");
        assert_eq!(test.len(), 16);
        assert!((0..test.len()).all(|i| test.kernel(i) == "cb"));
        assert!((0..train.len()).all(|i| train.kernel(i) != "cb"));
        // Both halves keep the source order.
        assert_eq!(test.row(0), ds.row(0));
        assert_eq!(train.row(0), ds.row(16));
        let (all, none) = ds.split_leave_kernel_out("missing");
        assert!(all.same_bits(&ds) && none.is_empty());
    }

    #[test]
    fn push_interns_kernel_names() {
        let mut ds = Dataset::default();
        for (i, kernel) in ["a", "b", "a"].into_iter().enumerate() {
            ds.push(&[i as f64; NUM_FEATURES], 1.0, 2.0, kernel);
        }
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.kernel_names, ["a", "b"]);
        assert_eq!(ds.kernel_ids, [0, 1, 0]);
        assert_eq!(ds.row(2), [2.0; NUM_FEATURES]);
    }

    #[test]
    fn same_bits_tells_the_zeros_apart() {
        let mut row = [1.0; NUM_FEATURES];
        let mut positive = Dataset::default();
        row[3] = 0.0;
        positive.push(&row, 1.0, 2.0, "k");
        let mut negative = Dataset::default();
        row[3] = -0.0;
        negative.push(&row, 1.0, 2.0, "k");
        assert_eq!(positive, negative);
        assert!(!positive.same_bits(&negative));
        assert!(positive.same_bits(&positive.clone()));
        let mut renamed = Dataset::default();
        renamed.push(&row, 1.0, 2.0, "j");
        assert!(!negative.same_bits(&renamed));
    }
}
