//! Power and performance prediction models (Section IV-A3 of the paper).
//!
//! The paper trains an offline **Random Forest** regressor that maps a
//! kernel's performance counters plus a candidate hardware configuration to
//! predicted execution time and GPU power. This crate implements that
//! pipeline from scratch:
//!
//! * [`tree`] — CART regression trees with variance-reduction splitting,
//!   fitted straight into packed 16-byte nodes;
//! * [`forest`] — bagged ensembles with per-split feature subsampling:
//!   [`RandomForest`] holds every tree in the one packed layout it is
//!   fitted, walked 8 trees at a time, and saved in;
//! * [`features`] — the 14-dimensional feature encoding (8 log-scaled
//!   Table III counters + 6 configuration features);
//! * [`dataset`] — building training data from a simulated measurement
//!   campaign over the paper's 336-configuration space;
//! * [`importance`] — permutation feature importance, a check that the
//!   forest learned the hardware's physics (GPU clock, CU count, rail
//!   voltage) rather than noise;
//! * [`metrics`] — MAPE/RMSE/R², to verify the paper's reported model
//!   error (≈25% performance, ≈12% power MAPE, Section VI-D);
//! * [`rf_predictor`] — the trained forest behind the
//!   [`PowerPerfPredictor`](gpm_sim::PowerPerfPredictor) interface;
//! * [`error_model`] — synthetic predictors with half-normal error
//!   (Err_15%_10%, Err_5%, Err_0% of Figure 13).
//!
//! # Examples
//!
//! ```
//! use gpm_model::{ForestParams, RandomForest, NUM_FEATURES};
//!
//! // Tiny synthetic regression on rows of the model's width: y = 3·x₀.
//! let xs: Vec<Vec<f64>> = (0..60)
//!     .map(|i| {
//!         let mut x = vec![0.0; NUM_FEATURES];
//!         x[0] = i as f64;
//!         x
//!     })
//!     .collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0]).collect();
//! let forest = RandomForest::fit(&xs, &ys, &ForestParams::default(), 7);
//! let pred = forest.predict(&xs[30]);
//! assert!((pred - 90.0).abs() < 15.0);
//!
//! // The layout a fit writes is the one a prediction walks and a save
//! // writes: a load gives back the same forest, bit for bit.
//! let saved = serde_json::to_string(&forest).unwrap();
//! let loaded: RandomForest = serde_json::from_str(&saved).unwrap();
//! assert_eq!(loaded, forest);
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod dataset;
pub mod error_model;
pub mod features;
pub mod forest;
pub mod importance;
pub mod metrics;
pub mod rf_predictor;
pub mod tree;

pub use dataset::Dataset;
pub use error_model::{ErrorInjectedPredictor, ErrorSpec};
pub use features::{
    encode_config_features, encode_counter_features, encode_features, FEATURE_NAMES,
    NUM_CONFIG_FEATURES, NUM_FEATURES,
};
pub use forest::{ForestParams, RandomForest};
pub use importance::{permutation_importance, FeatureImportance};
pub use metrics::{mape, r2, rmse};
pub use rf_predictor::{RandomForestPredictor, TrainReport};
pub use tree::{fit_simd_tier, RegressionTree, TreeParams};
