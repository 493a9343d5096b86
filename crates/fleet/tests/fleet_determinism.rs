//! The fleet determinism contract: serialized fleet artifacts are
//! byte-identical for any worker count, and repeated runs of the same
//! scenario never drift (soak).
//!
//! This suite is the load-bearing gate for every future scaling change —
//! if a PR introduces worker-count-dependent state (shared RNG, unsorted
//! assembly, cross-shard mutation), the artifact diff here catches it.

use gpm_fleet::{FleetScenario, FleetService};
use gpm_harness::{EvalContext, EvalOptions};

fn ctx() -> EvalContext {
    EvalContext::build(EvalOptions::fast())
}

/// The headline gate from the issue: a ≥8-shard mixed-workload scenario
/// (staggered arrivals, generated + suite workloads, faulty and healthy
/// shards) replayed at 1, 2, and auto workers produces byte-identical
/// serialized artifacts.
#[test]
fn mixed_scenario_artifacts_are_byte_identical_across_worker_counts() {
    let ctx = ctx();
    let scenario = FleetScenario::mixed(0xF1EE7, 8, 3);
    assert!(scenario.shards.len() >= 8);

    let one = FleetService::new(ctx.clone())
        .with_workers(1)
        .run(&scenario)
        .to_artifact_json();
    let two = FleetService::new(ctx.clone())
        .with_workers(2)
        .run(&scenario)
        .to_artifact_json();
    let auto = FleetService::new(ctx).run(&scenario).to_artifact_json();

    assert_eq!(one, two, "1-worker and 2-worker artifacts diverged");
    assert_eq!(one, auto, "1-worker and auto-worker artifacts diverged");
}

/// Sharing one context (baseline cache warm from a previous run) must
/// not change results either: a cold context and a warm one produce the
/// same bytes, because cached baselines are value-deterministic.
#[test]
fn warm_baseline_cache_does_not_change_artifacts() {
    let scenario = FleetScenario::mixed(0xCAFE, 8, 2);

    let cold = FleetService::new(ctx()).with_workers(2).run(&scenario);
    let warm_svc = FleetService::new(ctx()).with_workers(2);
    let _prime = warm_svc.run(&scenario); // warm the shared cache
    let warm = warm_svc.run(&scenario);

    assert_eq!(cold.to_artifact_json(), warm.to_artifact_json());
    // The warm run actually hit the cache — the contract is "same bytes
    // despite different cache states", so prove the states differed.
    let stats = warm_svc.ctx().baseline_stats();
    assert!(
        stats.hits > 0,
        "expected baseline cache hits, got {stats:?}"
    );
}

/// Soak: replaying the same seeded scenario many times on one service
/// never drifts from the first artifact, and each round also replays a
/// scenario under a fresh rotated seed twice, byte for byte.
/// `GPM_FLEET_SOAK_ITERS` overrides the iteration count (CI's
/// fleet-soak job raises it).
#[test]
fn repeated_replays_never_drift() {
    let iters: usize = std::env::var("GPM_FLEET_SOAK_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let scenario = FleetScenario::mixed(0x50A4, 8, 2);
    let svc = FleetService::new(ctx());
    let first = svc.run(&scenario).to_artifact_json();
    for i in 1..iters {
        let again = svc.run(&scenario).to_artifact_json();
        assert_eq!(first, again, "artifact drifted on replay {i}");
        let rotated = FleetScenario::mixed(0xF1EE7 ^ (i as u64).wrapping_mul(0x9e37_79b9), 8, 2);
        assert_eq!(
            svc.run(&rotated).to_artifact_json(),
            svc.run(&rotated).to_artifact_json(),
            "rotated-seed artifact drifted on round {i}"
        );
    }
}

/// Live telemetry registries must be invisible to the artifact: a run
/// with per-shard registries and a fleet-level registry installed is
/// byte-identical to a clean run, at every worker count — while the
/// registries demonstrably observed the fleet (so the gate is not
/// vacuous).
#[test]
fn live_telemetry_registries_do_not_change_artifacts() {
    let ctx = ctx();
    let scenario = FleetScenario::mixed(0x7E1E, 8, 2);
    let clean = FleetService::new(ctx.clone())
        .with_workers(2)
        .run(&scenario)
        .to_artifact_json();

    for workers in [1usize, 2, 4] {
        let fleet_tel = gpm_telemetry::Telemetry::new();
        let report = FleetService::new(ctx.clone())
            .with_workers(workers)
            .with_telemetry(fleet_tel.clone())
            .run(&scenario);
        assert_eq!(
            clean,
            report.to_artifact_json(),
            "telemetry-instrumented artifact diverged at {workers} workers"
        );

        // The report holds every shard and job; the fleet registry timed
        // one shard span per shard, and worker spans.
        assert_eq!(report.shards.len(), scenario.shards.len());
        assert_eq!(
            report.rollup.jobs,
            scenario.shards.iter().map(|s| s.jobs.len()).sum::<usize>()
        );
        let fleet_snap = fleet_tel.snapshot();
        assert_eq!(
            fleet_snap.span("fleet.shard").map(|s| s.count),
            Some(report.shards.len() as u64)
        );
        assert!(fleet_snap.span("fleet.worker").is_some());

        // Per-shard registries were snapshotted into the reports, and
        // each (and the rollup merge) timed one dispatch span per
        // dispatch the trace counts.
        let dispatch_spans =
            |snap: &gpm_telemetry::TelemetrySnapshot| snap.span("env.dispatch").map(|s| s.count);
        let rollup_snap = report.rollup.telemetry.as_ref().expect("rollup snapshot");
        assert_eq!(
            dispatch_spans(rollup_snap),
            Some(report.rollup.trace.dispatches)
        );
        for shard in &report.shards {
            let snap = shard.telemetry.as_ref().expect("shard snapshot");
            assert_eq!(dispatch_spans(snap), Some(shard.trace.dispatches));
        }
    }
}

/// Different seeds must produce different fleets — guards against the
/// scenario builder collapsing to a constant (which would make the
/// byte-identity gates vacuous).
#[test]
fn distinct_seeds_produce_distinct_artifacts() {
    let ctx = ctx();
    let a = FleetService::new(ctx.clone())
        .with_workers(1)
        .run(&FleetScenario::mixed(1, 8, 2))
        .to_artifact_json();
    let b = FleetService::new(ctx)
        .with_workers(1)
        .run(&FleetScenario::mixed(2, 8, 2))
        .to_artifact_json();
    assert_ne!(a, b);
}

/// The rollup is internally consistent with the per-shard reports it
/// aggregates (totals, makespan, merged trace counters).
#[test]
fn rollup_is_consistent_with_shard_reports() {
    let scenario = FleetScenario::mixed(7, 8, 2);
    let report = FleetService::new(ctx()).run(&scenario);

    let energy: f64 = report.shards.iter().map(|s| s.energy_j).sum();
    let gi: f64 = report.shards.iter().map(|s| s.ginstructions).sum();
    let makespan = report
        .shards
        .iter()
        .map(|s| s.completion_s())
        .fold(0.0f64, f64::max);
    assert!((report.rollup.energy_j - energy).abs() < 1e-9);
    assert!((report.rollup.ginstructions - gi).abs() < 1e-9);
    assert!((report.rollup.makespan_s - makespan).abs() < 1e-12);
    assert_eq!(
        report.rollup.jobs,
        report.shards.iter().map(|s| s.jobs.len()).sum::<usize>()
    );
    assert_eq!(
        report.rollup.trace.decisions,
        report.shards.iter().map(|s| s.trace.decisions).sum::<u64>()
    );
    assert_eq!(
        report.rollup.fault_injections,
        report
            .shards
            .iter()
            .map(|s| s.trace.fault_injections)
            .sum::<u64>()
    );
}
