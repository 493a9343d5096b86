//! Analytical simulator of an AMD A10-7850K-class APU.
//!
//! The paper drives its evaluation from power/performance measurements of
//! real hardware at 336 configurations. This crate substitutes a
//! first-principles model with the same interface: given a kernel's
//! intrinsic characteristics ([`KernelCharacteristics`]) and a hardware
//! configuration ([`gpm_hw::HwConfig`]), [`ApuSimulator::evaluate`] returns
//! the kernel's execution time, a power breakdown, the energy consumed, and
//! the GPU performance counters of Table III.
//!
//! The model reproduces the behaviours the paper's results depend on:
//!
//! * a roofline-style performance model (compute vs. memory bound) with
//!   Amdahl-style CU scaling and shared-cache interference, yielding the
//!   four kernel classes of Figure 2;
//! * DRAM bandwidth set by the NB state's memory clock, saturating from NB2
//!   onwards (Figure 2(b));
//! * a CV²f dynamic-power model with a shared GPU/NB voltage rail and
//!   temperature-dependent leakage;
//! * deterministic, seedable measurement noise so that model training sees
//!   realistic (but reproducible) error.
//!
//! # Examples
//!
//! ```
//! use gpm_hw::HwConfig;
//! use gpm_sim::{ApuSimulator, KernelCharacteristics};
//!
//! let sim = ApuSimulator::default();
//! let kernel = KernelCharacteristics::compute_bound("maxflops", 40.0);
//! let out = sim.evaluate(&kernel, HwConfig::MAX_PERF);
//! assert!(out.time_s > 0.0 && out.power.total_w() > 0.0);
//! ```

pub mod apu;
pub mod counters;
pub mod kernel;
mod memo;
pub mod outcome;
pub mod params;
pub mod perf;
pub mod platform;
pub mod power;
pub mod predictor;
pub mod sampling;
pub mod thermal;
pub mod transition;

pub use apu::ApuSimulator;
pub use counters::{CounterSet, COUNTER_NAMES, NUM_COUNTERS};
pub use kernel::{KernelCharacteristics, KernelClass};
pub use outcome::{EnergyBreakdown, KernelOutcome, PowerBreakdown, TimeBreakdown, TimePower};
pub use params::SimParams;
pub use platform::{Platform, ReplayPlatform};
pub use predictor::{KernelSnapshot, OraclePredictor, PowerPerfEstimate, PowerPerfPredictor};
