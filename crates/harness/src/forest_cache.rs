//! Trained forests shared by the contexts of one reproduction run.
//!
//! The paper trains its Random Forest offline, once (Section IV-A3). A
//! reproduction run builds several contexts whose training inputs are
//! identical — a DVFS transition scale the campaign never reads, a noise
//! seed equal to the default — and a [`ForestCache`] makes each distinct
//! fit happen once.
//!
//! The key is the exact training input: the dataset compared column by
//! column, bit for bit ([`Dataset::same_bits`], so `-0.0` and `0.0`
//! differ and NaN matches itself),
//! the forest parameters, the test fraction and the seed. Keying on the
//! dataset rather than on the options that produced it leaves no list of
//! campaign-relevant fields to keep in sync.
//!
//! A cache lives as long as its owner decides: the reproduction runner
//! creates one per run and drops it at the end, so separate runs (and
//! separately timed context builds) never share fits.

use gpm_model::{Dataset, ForestParams, RandomForestPredictor, TrainReport};
use parking_lot::Mutex;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// One distinct training input and, once fitted, its forests.
struct Slot {
    dataset: Dataset,
    forest: ForestParams,
    test_fraction: f64,
    seed: u64,
    fitted: OnceLock<(RandomForestPredictor, TrainReport)>,
}

impl Slot {
    fn matches(
        &self,
        dataset: &Dataset,
        forest: &ForestParams,
        test_fraction: f64,
        seed: u64,
    ) -> bool {
        self.seed == seed
            && self.test_fraction.to_bits() == test_fraction.to_bits()
            && self.forest.num_trees == forest.num_trees
            && self.forest.tree == forest.tree
            && self.forest.bootstrap_fraction.to_bits() == forest.bootstrap_fraction.to_bits()
            && self.dataset.same_bits(dataset)
    }
}

/// Forests fitted by [`RandomForestPredictor::train_and_evaluate`],
/// memoized on their exact training inputs.
///
/// One slot per distinct input, each filled at most once. The map lock is
/// held only to find or add a slot, never during a fit: two threads that
/// ask for different forests fit them in parallel, and two that ask for
/// the same forest fit it once (the second waits for the first).
#[derive(Default)]
pub struct ForestCache {
    slots: Mutex<Vec<Arc<Slot>>>,
}

impl fmt::Debug for ForestCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ForestCache")
            .field("slots", &self.slots.lock().len())
            .finish()
    }
}

impl ForestCache {
    /// An empty cache.
    pub fn new() -> ForestCache {
        ForestCache::default()
    }

    /// The result of `RandomForestPredictor::train_and_evaluate(&dataset,
    /// forest, test_fraction, seed)`, fitted on the first request for
    /// these exact inputs and cloned from the cache afterwards (a clone
    /// shares the fitted forests; it copies none). On a miss
    /// the dataset becomes part of the key, so it is taken by value.
    pub fn fit(
        &self,
        dataset: Dataset,
        forest: &ForestParams,
        test_fraction: f64,
        seed: u64,
    ) -> (RandomForestPredictor, TrainReport) {
        let slot = {
            let mut slots = self.slots.lock();
            match slots
                .iter()
                .find(|s| s.matches(&dataset, forest, test_fraction, seed))
            {
                Some(slot) => Arc::clone(slot),
                None => {
                    let slot = Arc::new(Slot {
                        dataset,
                        forest: forest.clone(),
                        test_fraction,
                        seed,
                        fitted: OnceLock::new(),
                    });
                    slots.push(Arc::clone(&slot));
                    slot
                }
            }
        };
        slot.fitted
            .get_or_init(|| {
                RandomForestPredictor::train_and_evaluate(
                    &slot.dataset,
                    &slot.forest,
                    slot.test_fraction,
                    slot.seed,
                )
            })
            .clone()
    }
}
