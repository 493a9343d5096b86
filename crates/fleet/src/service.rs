//! The sharded fleet service: N simulated devices, each with its own
//! [`ExecEnv`] and fault plan, sharing one read-only [`EvalContext`]
//! (trained forest + memoized Turbo Core baselines).
//!
//! # Determinism
//!
//! Worker threads claim *whole shards* from an atomic admission cursor
//! (work stealing: a fast worker drains more shards), and every shard is
//! evaluated hermetically — its own `ExecEnv`, trace sink, and fault
//! plan, with no cross-shard mutable state. Completed shard reports are
//! pushed under a mutex tagged with their shard id and sorted before
//! assembly, so the serialized [`FleetReport`] is byte-identical for any
//! worker count. The only shared state, the context's baseline cache, is
//! value-deterministic: whichever shard resolves a baseline first stores
//! the same bits any other shard would have computed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gpm_harness::{EvalContext, ExecEnv};
use gpm_telemetry::Telemetry;
use gpm_trace::AggregateSink;
use parking_lot::Mutex;

use crate::scenario::{FleetScenario, ShardPlan};
use crate::telemetry::{FleetReport, FleetRollup, JobReport, ShardReport};

/// The fleet simulation service.
///
/// Owns the shared evaluation context; [`FleetService::run`] executes a
/// scenario and returns the aggregate report.
pub struct FleetService {
    ctx: EvalContext,
    workers: usize,
    telemetry: Option<Telemetry>,
}

impl FleetService {
    /// A service over `ctx` with automatic worker sizing
    /// ([`std::thread::available_parallelism`], capped by shard count).
    pub fn new(ctx: EvalContext) -> FleetService {
        FleetService {
            ctx,
            workers: 0,
            telemetry: None,
        }
    }

    /// Pins the worker-thread count; `0` restores automatic sizing.
    /// Results are byte-identical for every setting.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> FleetService {
        self.workers = workers;
        self
    }

    /// Installs a fleet-level telemetry registry. Workers record
    /// `fleet.worker`/`fleet.shard` spans into it (shard, job and
    /// fail-safe counts are the [`FleetReport`]'s), and every shard
    /// additionally gets a private per-shard registry whose snapshot lands in
    /// [`ShardReport::telemetry`] and, merged, in
    /// [`FleetRollup::telemetry`]. Snapshots carry wall-clock span
    /// timings, so they are `#[serde(skip)]`ed out of the artifact —
    /// the serialized [`FleetReport`] stays byte-identical for any
    /// worker count with registries live.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> FleetService {
        self.telemetry = Some(telemetry);
        self
    }

    /// The fleet-level telemetry registry, if installed.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// The shared evaluation context.
    pub fn ctx(&self) -> &EvalContext {
        &self.ctx
    }

    /// Worker threads a scenario with `shards` shards would use.
    pub fn effective_workers(&self, shards: usize) -> usize {
        let auto = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let w = if self.workers == 0 {
            auto()
        } else {
            self.workers
        };
        w.clamp(1, shards.max(1))
    }

    /// Runs every shard of `scenario` to completion and returns the
    /// fleet report (shards sorted by id).
    pub fn run(&self, scenario: &FleetScenario) -> FleetReport {
        let workers = self.effective_workers(scenario.shards.len());
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<ShardReport>> =
            Mutex::new(Vec::with_capacity(scenario.shards.len()));

        crossbeam::scope(|scope| {
            for _ in 0..workers {
                let cursor = &cursor;
                let results = &results;
                let telemetry = self.telemetry.as_ref();
                scope.spawn(move |_| {
                    // Route spans from this worker into the fleet
                    // registry; inert when none installed.
                    let _enter = telemetry.map(|t| t.enter());
                    let _worker_span = gpm_telemetry::span("fleet.worker");
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(plan) = scenario.shards.get(idx) else {
                            break;
                        };
                        let report = run_shard(&self.ctx, plan, telemetry.is_some());
                        results.lock().push(report);
                    }
                });
            }
        })
        .expect("fleet worker panicked");

        let mut shards = results.into_inner();
        shards.sort_by_key(|s| s.shard_id);
        FleetReport {
            scenario: scenario.name.clone(),
            seed: scenario.seed,
            rollup: FleetRollup::from_shards(&shards),
            shards,
        }
    }
}

/// Evaluates one shard's job queue hermetically. With `instrument` set,
/// the shard gets a private telemetry registry (snapshotted into the
/// report) and a `fleet.shard` span in whatever registry the calling
/// worker has entered.
fn run_shard(ctx: &EvalContext, plan: &ShardPlan, instrument: bool) -> ShardReport {
    let _shard_span = gpm_telemetry::span("fleet.shard");
    let shard_telemetry = instrument.then(Telemetry::new);
    let sink = Arc::new(AggregateSink::new());
    let mut env = ExecEnv::new()
        .with_trace(sink.clone())
        .with_fault_plan(plan.faults.clone());
    if let Some(t) = &shard_telemetry {
        env = env.with_telemetry(t.clone());
    }
    let mut jobs = Vec::with_capacity(plan.jobs.len());
    let mut busy_time_s = 0.0;
    let mut energy_j = 0.0;
    let mut ginstructions = 0.0;
    for job in &plan.jobs {
        let workload = job.workload.materialize();
        let out = env.evaluate(ctx, &workload, job.scheme.to_scheme());
        let report = JobReport::from_outcome(&out);
        busy_time_s += report.wall_time_s;
        energy_j += report.energy_j;
        ginstructions += report.ginstructions;
        jobs.push(report);
    }
    let trace = sink.summary();
    ShardReport {
        shard_id: plan.shard_id,
        device: plan.device.clone(),
        arrival_offset_s: plan.arrival_offset_s,
        jobs,
        busy_time_s,
        energy_j,
        ginstructions,
        baseline_resolutions: trace.baseline_resolutions,
        trace,
        telemetry: shard_telemetry.map(|t| t.snapshot()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_harness::EvalOptions;

    fn ctx() -> EvalContext {
        EvalContext::build(EvalOptions::fast())
    }

    #[test]
    fn single_shard_runs_all_jobs_in_order() {
        let scenario = FleetScenario::mixed(11, 1, 3);
        let report = FleetService::new(ctx()).with_workers(1).run(&scenario);
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.shards[0].jobs.len(), 3);
        assert_eq!(report.rollup.jobs, 3);
        assert!(report.rollup.energy_j > 0.0);
        assert!(report.rollup.throughput_gips > 0.0);
        // Job order matches the plan's admission order.
        for (job, spec) in report.shards[0].jobs.iter().zip(&scenario.shards[0].jobs) {
            assert_eq!(job.workload, spec.workload.materialize().name());
            assert_eq!(job.scheme, spec.scheme.to_scheme().label().as_ref());
        }
    }

    #[test]
    fn effective_workers_clamps_to_shard_count() {
        let svc = FleetService::new(ctx()).with_workers(64);
        assert_eq!(svc.effective_workers(4), 4);
        assert_eq!(svc.effective_workers(0), 1);
        let auto = FleetService::new(svc.ctx.clone());
        assert!(auto.effective_workers(1000) >= 1);
    }

    #[test]
    fn faulty_shards_record_injections_and_healthy_shards_do_not() {
        // mixed() arms every third shard (id 2) with a uniform plan.
        let scenario = FleetScenario::mixed(3, 3, 2);
        let report = FleetService::new(ctx()).with_workers(2).run(&scenario);
        assert!(report.shards[2].trace.fault_injections > 0);
        assert_eq!(report.shards[0].trace.fault_injections, 0);
        assert_eq!(
            report.rollup.fault_injections,
            report
                .shards
                .iter()
                .map(|s| s.trace.fault_injections)
                .sum::<u64>()
        );
    }
}
