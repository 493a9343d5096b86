//! Fleet-scaling study: the sharded multi-device service of `gpm-fleet`
//! run at 1, 2, and auto workers over the canonical mixed scenario, with
//! the byte-identity determinism contract as a hard gate.

use crate::experiment::{metric, ExperimentOutput, XpEnv};
use gpm_fleet::{FleetScenario, FleetService};
use gpm_harness::report::{fmt, Table};
use std::fmt::Write;
use std::time::Instant;

/// `fleet_scaling`: runs the canonical mixed fleet scenario (8 shards
/// fast / 16 full, staggered arrivals, faulty and healthy shards) at
/// worker counts 1, 2, and auto; verifies every serialized artifact is
/// byte-identical; reports simulated fleet throughput and host-side
/// scaling. One untimed run first warms the shared baseline cache, so
/// every timed run is warm and `auto_speedup_over_1` measures scaling,
/// not cache fill; it appears only when auto ran on more workers than
/// the 1-worker run. How many workers auto resolved to is the host's
/// core count, so it is reported in the text, not as a metric: the
/// metrics repeat on any host, their timings aside.
pub fn fleet_scaling(env: &XpEnv) -> ExperimentOutput {
    let (shards, jobs_per_shard) = if env.is_fast() { (8, 2) } else { (16, 4) };
    let scenario = FleetScenario::mixed(0xF1EE7, shards, jobs_per_shard);
    eprintln!(
        "  fleet_scaling: {} shards x {} jobs at workers 1/2/auto...",
        shards, jobs_per_shard
    );

    FleetService::new(env.ctx().clone()).run(&scenario);

    let mut table = Table::new(vec!["workers", "wall s", "jobs/s (host)"]);
    let mut artifacts: Vec<String> = Vec::new();
    let mut last = None;
    let mut one = (1, 0.0);
    let mut auto = (1, 0.0);
    for &workers in &[1usize, 2, 0] {
        let svc = FleetService::new(env.ctx().clone()).with_workers(workers);
        let effective = svc.effective_workers(scenario.shards.len());
        let start = Instant::now();
        let report = svc.run(&scenario);
        let wall = start.elapsed().as_secs_f64();
        if workers == 1 {
            one = (effective, wall);
        } else if workers == 0 {
            auto = (effective, wall);
        }
        table.row(vec![
            format!("{effective}"),
            fmt(wall, 3),
            fmt(scenario.total_jobs() as f64 / wall, 1),
        ]);
        artifacts.push(report.to_artifact_json());
        last = Some(report);
    }
    let report = last.expect("three runs completed");
    let deterministic = artifacts.iter().all(|a| *a == artifacts[0]);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fleet scaling — {} ({} shards, {} jobs, seed {:#x})",
        scenario.name, report.rollup.shards, report.rollup.jobs, scenario.seed
    );
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "simulated: makespan {} s, throughput {} GI/s, energy {} J",
        fmt(report.rollup.makespan_s, 3),
        fmt(report.rollup.throughput_gips, 2),
        fmt(report.rollup.energy_j, 1),
    );
    let _ = writeln!(
        out,
        "auto: {} workers on this host (its available parallelism, at most one per shard)",
        auto.0
    );
    let _ = writeln!(
        out,
        "determinism: artifacts at 1/2/auto workers {}",
        if deterministic {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );

    let mut metrics = vec![
        metric("deterministic", if deterministic { 1.0 } else { 0.0 }),
        metric("shards", report.rollup.shards as f64),
        metric("jobs", report.rollup.jobs as f64),
        metric("fleet_throughput_gips", report.rollup.throughput_gips),
        metric("fleet_energy_j", report.rollup.energy_j),
        metric("fail_safe_entries", report.rollup.fail_safe_entries as f64),
        metric("fault_injections", report.rollup.fault_injections as f64),
    ];
    if let Some(speedup) = scaling_ratio(one, auto) {
        metrics.push(metric("auto_speedup_over_1", speedup));
    }
    ExperimentOutput::new(out, metrics)
}

/// Wall-time speedup of the `auto` run over the `one`-worker run, each
/// given as (effective workers, wall seconds), or `None` when both ran
/// on the same number of workers: their ratio then measures cache
/// warmth, not scaling.
fn scaling_ratio(one: (usize, f64), auto: (usize, f64)) -> Option<f64> {
    (auto.0 != one.0).then(|| one.1 / auto.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_ratio_needs_different_worker_counts() {
        // A faster second 1-worker run is warm caches, not scaling.
        assert_eq!(scaling_ratio((1, 0.0054), (1, 0.0036)), None);
        assert_eq!(scaling_ratio((1, 0.006), (2, 0.004)), Some(1.5));
    }
}
