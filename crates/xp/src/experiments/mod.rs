//! The experiment implementations: one run function over
//! [`crate::XpEnv`] per registered experiment.
//!
//! Grouping mirrors the paper: `figures` and `tables` reproduce numbered
//! exhibits, `ablations` the Section IV/VI design studies, `extensions`
//! the repo's beyond-the-paper studies, and `robustness` the
//! fault-injection degradation sweep.

pub mod ablations;
pub mod extensions;
pub mod figures;
pub mod fleet;
pub mod robustness;
pub mod tables;
pub mod telemetry;

use gpm_harness::Scheme;
use gpm_mpc::HorizonMode;

/// The MPC scheme of the headline figures: RF prediction, adaptive
/// horizon at α = 5%, all overheads charged.
fn mpc_headline() -> Scheme {
    Scheme::MpcRf {
        horizon: HorizonMode::default(),
    }
}
