//! Power-management governors: the baselines the paper's MPC scheme is
//! measured against.
//!
//! * [`TurboCore`] — the state-of-the-practice shipping policy
//!   (Section V-B): boost everything while package power stays under TDP,
//!   shifting power away from the CPU when it does not.
//! * [`PpkGovernor`] — *Predict Previous Kernel*, the paper's idealization
//!   of state-of-the-art history-based schemes: assume the next kernel
//!   equals the last one and pick its predicted energy-optimal
//!   configuration under the running throughput constraint (Eq. 2).
//! * [`to`] — the *Theoretically Optimal* scheme: full-knowledge,
//!   offline multiple-choice-knapsack solution (minimum energy subject to
//!   the end-to-end throughput target), used as the limit in Figures 4
//!   and 12.
//! * [`Equalizer`] — a reactive counter-driven tuner in the style of
//!   Sethia & Mahlke's Equalizer (related work the paper contrasts with).
//! * [`FixedGovernor`] / [`PlannedGovernor`] — building blocks for sweeps
//!   (Figure 2) and for replaying precomputed plans.
//!
//! All governors implement [`Governor`], the interface the experiment
//! harness drives: `select` a configuration before each kernel launch,
//! `observe` the outcome after it retires.

pub mod equalizer;
pub mod fixed;
pub mod governor;
pub mod ppk;
pub mod search;
pub mod to;
pub mod turbocore;

pub use equalizer::{Equalizer, EqualizerMode};
pub use fixed::{FixedGovernor, PlannedGovernor};
pub use governor::{Governor, GovernorDecision, KernelContext, OverheadModel, PerfTarget};
pub use ppk::{ppk_step, PpkGovernor};
pub use to::{plan_optimal, ToPlan, ToSolver};
pub use turbocore::TurboCore;
