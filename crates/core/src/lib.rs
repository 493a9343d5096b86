//! Adaptive Model-Predictive-Control GPU power management — the paper's
//! primary contribution (Section IV).
//!
//! At each kernel boundary the MPC governor optimizes energy over a
//! receding horizon of predicted future kernels, applies the resulting
//! configuration to the *current* kernel only, then shifts the horizon.
//! Four cooperating pieces (Figure 6):
//!
//! * the **kernel pattern extractor** (from [`gpm_pattern`]) predicts which
//!   kernels appear next and supplies their stored counters;
//! * the **power/performance predictor** (any
//!   [`PowerPerfPredictor`](gpm_sim::PowerPerfPredictor)) prices candidate
//!   configurations;
//! * the **optimizer** ([`optimizer`]) walks the window in the
//!   profiling-derived **search order** ([`mod@search_order`]) and greedily
//!   hill-climbs each kernel's knobs (via [`gpm_governors::search`]);
//! * the **performance tracker** (Eq. 4/5, [`gpm_governors::PerfTarget`])
//!   carries headroom between kernels, and the **adaptive horizon
//!   generator** ([`horizon`]) bounds total overhead to a fraction `α` of
//!   baseline runtime (Section IV-A4).
//!
//! # Examples
//!
//! Constructing the governor in its realistic configuration (Random-Forest
//! predictor, adaptive horizon, α = 5%):
//!
//! ```no_run
//! use gpm_governors::OverheadModel;
//! use gpm_hw::ConfigSpace;
//! use gpm_mpc::{HorizonMode, MpcConfig, MpcGovernor};
//! use gpm_model::{Dataset, ForestParams, RandomForestPredictor};
//! use gpm_sim::SimParams;
//!
//! # let dataset = Dataset::default();
//! let rf = RandomForestPredictor::train(&dataset, &ForestParams::default(), 7);
//! let mpc = MpcGovernor::new(rf, SimParams::default(), MpcConfig::default());
//! # let _ = mpc;
//! ```

pub mod governor;
pub mod horizon;
pub mod optimizer;
pub mod search_order;
pub mod stats;

pub use governor::{MpcConfig, MpcGovernor, WindowSolver};
pub use horizon::{HorizonGenerator, HorizonMode};
pub use optimizer::{optimize_window, optimize_window_exact, WindowPlan};
pub use search_order::{average_full_horizon, search_order, ProfiledKernel};
pub use stats::MpcStats;
