//! `gpm-fleet` — sharded multi-device fleet simulation service.
//!
//! The paper governs one APU between kernel launches; this crate scales
//! that governor to a fleet. A [`FleetScenario`] (the declarative DSL in
//! [`scenario`]) describes N simulated devices with staggered arrivals,
//! mixed workloads, and per-shard fault plans; [`FleetService`] executes
//! the scenario with a pool of worker threads that claim whole shards
//! from a work-stealing admission cursor, each shard running hermetically
//! in its own [`gpm_harness::ExecEnv`] while sharing the read-only
//! trained forest and the memoized Turbo Core baseline cache of one
//! [`gpm_harness::EvalContext`]. Telemetry flows through `gpm-trace`
//! ([`gpm_trace::TraceSummary::merge`]) into a [`FleetReport`] with a
//! fleet-level energy/throughput rollup ([`telemetry`]).
//!
//! # Determinism contract
//!
//! The serialized [`FleetReport`] is **byte-identical for any worker
//! count** — 1, 2, or one per core. Shards never share mutable state,
//! worker scheduling only changes *which thread* runs a shard, and
//! reports are assembled in shard order. `tests/fleet_determinism.rs`
//! enforces the contract by diffing full artifacts across worker counts,
//! and the `fleet_scaling` experiment re-checks it on every `reproduce`
//! run.
//!
//! ```no_run
//! use gpm_fleet::{FleetScenario, FleetService};
//! use gpm_harness::{EvalContext, EvalOptions};
//!
//! let ctx = EvalContext::build(EvalOptions::fast());
//! let scenario = FleetScenario::mixed(42, 8, 4);
//! let report = FleetService::new(ctx).run(&scenario);
//! println!(
//!     "{} jobs, {:.1} GI/s fleet throughput",
//!     report.rollup.jobs, report.rollup.throughput_gips
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenario;
pub mod service;
pub mod telemetry;

pub use scenario::{FleetScenario, JobSpec, SchemeSpec, ShardPlan, WorkloadSpec};
pub use service::FleetService;
pub use telemetry::{FleetReport, FleetRollup, JobReport, ShardReport};
