//! Fleet scaling + determinism gate.
//!
//! Runs the canonical mixed fleet scenario through [`gpm_fleet`] at 1, 2,
//! and auto worker threads, measuring host wall-clock throughput at each
//! setting, and:
//!
//! * asserts the serialized fleet artifacts are **byte-identical** across
//!   all three worker counts (the gpm-fleet determinism contract);
//! * gates auto-worker speedup over 1 worker at
//!   `GPM_FLEET_MIN_SCALING` (default 1.05×). When "auto" resolves to
//!   one worker no scaling was measured: the ratio is reported as `null`
//!   and the gate is skipped.
//!
//! `--soak <seconds>` instead replays seeded scenarios (rotating seeds)
//! for at least that long, diffing every artifact against the first for
//! its seed — the CI fleet-soak job runs 60 s of this. Every run (soak
//! and sweep) executes under a live fleet [`gpm_telemetry`] registry
//! plus per-shard registries, and soak mode prints a periodic one-line
//! status derived from the same values a Prometheus scrape would see:
//! jobs/s, p99 simulated decision latency, and the fail-safe rate.
//!
//! `--telemetry-out PATH` writes the final Prometheus text exposition
//! (fleet counters merged with the per-shard rollup);
//! `--telemetry-port PORT` additionally serves it live on
//! `127.0.0.1:PORT/metrics` for the duration of the run, so a soak can
//! be watched from a real Prometheus scraper.
//!
//! Emits `results/BENCH_fleet.json` either way. `--fast` selects the
//! fast training context (CI default). Build with
//! `--release`; debug numbers are meaningless.

use gpm_fleet::{FleetReport, FleetScenario, FleetService};
use gpm_telemetry::{Telemetry, TelemetrySnapshot};
use gpm_xp::emit_artifact;
use gpm_xp::suite::bench_context;
use serde::Serialize;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::Instant;

#[derive(Serialize)]
struct WorkerPoint {
    workers: usize,
    wall_s: f64,
    jobs_per_s: f64,
}

#[derive(Serialize)]
struct FleetBenchReport {
    scenario: String,
    seed: u64,
    shards: usize,
    jobs: usize,
    simulated_makespan_s: f64,
    simulated_throughput_gips: f64,
    fleet_energy_j: f64,
    fail_safe_entries: u64,
    fault_injections: u64,
    deterministic: bool,
    scaling: Vec<WorkerPoint>,
    /// `None` when "auto" ran on as many workers as the 1-worker run.
    auto_speedup_over_1: Option<f64>,
    min_scaling_gate: f64,
    soak_seconds: f64,
    soak_iterations: usize,
}

/// Wall-time speedup of the `auto` run over the `one`-worker run, or
/// `None` when both ran on the same number of workers: their ratio then
/// measures cache warmth, not scaling.
fn scaling_ratio(one: &WorkerPoint, auto: &WorkerPoint) -> Option<f64> {
    (auto.workers != one.workers).then(|| one.wall_s / auto.wall_s)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One timed scenario run; returns (report, artifact bytes, wall).
fn timed_run(svc: &FleetService, scenario: &FleetScenario) -> (FleetReport, String, f64) {
    let start = Instant::now();
    let report = svc.run(scenario);
    let wall = start.elapsed().as_secs_f64();
    let json = report.to_artifact_json();
    (report, json, wall)
}

/// One soak status line, derived from exactly the values a Prometheus
/// scrape of the fleet registry (and the per-shard rollup) would see.
fn status_line(
    elapsed_s: f64,
    fleet: &TelemetrySnapshot,
    rollup: Option<&TelemetrySnapshot>,
) -> String {
    let jobs = fleet.counter("gpm_fleet_jobs_total").unwrap_or(0);
    let fail_safe = fleet.counter("gpm_fleet_fail_safe_total").unwrap_or(0);
    let shards = fleet.counter("gpm_fleet_shards_total").unwrap_or(0);
    let p99 = rollup
        .and_then(|r| r.quantile("gpm_decision_seconds", 0.99))
        .map_or("n/a".to_string(), |s| format!("{:.1} us", s * 1e6));
    format!(
        "soak {elapsed_s:>5.1} s | {:.1} jobs/s | p99 decision {} | fail-safe {:.2}/job | {} shards",
        jobs as f64 / elapsed_s.max(1e-9),
        p99,
        fail_safe as f64 / (jobs.max(1)) as f64,
        shards
    )
}

/// Serves the registry's Prometheus text exposition on
/// `127.0.0.1:port` from a detached thread (dies with the process).
fn serve_prometheus(port: u16, telemetry: Telemetry) {
    let listener = TcpListener::bind(("127.0.0.1", port))
        .unwrap_or_else(|e| panic!("bind telemetry port {port}: {e}"));
    println!("serving Prometheus metrics on http://127.0.0.1:{port}/metrics");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            // Drain whatever request line arrives; every path gets the
            // same exposition.
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            let body = telemetry.snapshot().to_prometheus();
            let _ = write!(
                stream,
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                body.len(),
                body
            );
        }
    });
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let fast = argv.iter().any(|a| a == "--fast");
    let soak_secs: Option<f64> = argv
        .iter()
        .position(|a| a == "--soak")
        .map(|i| argv.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(60.0));
    let telemetry_out: Option<String> = argv.iter().position(|a| a == "--telemetry-out").map(|i| {
        argv.get(i + 1)
            .expect("--telemetry-out needs a path")
            .clone()
    });
    let telemetry_port: Option<u16> = argv.iter().position(|a| a == "--telemetry-port").map(|i| {
        argv.get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--telemetry-port needs a port number")
    });

    let ctx = bench_context(fast);
    let seed = 0xF1EE7u64;
    let (shards, jobs_per_shard) = if fast { (8, 2) } else { (12, 4) };
    let scenario = FleetScenario::mixed(seed, shards, jobs_per_shard);

    // One fleet-level registry spans the whole process (soak + sweep);
    // shard-level registries are created per shard by the service and
    // surface merged through each report's rollup.
    let telemetry = Telemetry::new();
    if let Some(port) = telemetry_port {
        serve_prometheus(port, telemetry.clone());
    }
    let mut last_rollup_snap: Option<TelemetrySnapshot> = None;

    let mut soak_elapsed = 0.0;
    let mut soak_iters = 0usize;
    if let Some(budget) = soak_secs {
        // Soak mode: rotate seeds, two replays per seed, diff against the
        // first artifact for that seed.
        let svc = FleetService::new(ctx.clone()).with_telemetry(telemetry.clone());
        let start = Instant::now();
        let mut last_status = Instant::now();
        let mut round = 0u64;
        while start.elapsed().as_secs_f64() < budget {
            let s = FleetScenario::mixed(seed ^ round.wrapping_mul(0x9e37_79b9), shards, 2);
            let (_, first, _) = timed_run(&svc, &s);
            let (report, again, _) = timed_run(&svc, &s);
            assert_eq!(first, again, "soak artifact drifted on round {round}");
            last_rollup_snap = report.rollup.telemetry.clone();
            round += 1;
            soak_iters += 2;
            if last_status.elapsed().as_secs_f64() >= 5.0 {
                println!(
                    "  {}",
                    status_line(
                        start.elapsed().as_secs_f64(),
                        &telemetry.snapshot(),
                        last_rollup_snap.as_ref(),
                    )
                );
                last_status = Instant::now();
            }
        }
        soak_elapsed = start.elapsed().as_secs_f64();
        println!(
            "  {}",
            status_line(
                soak_elapsed,
                &telemetry.snapshot(),
                last_rollup_snap.as_ref()
            )
        );
        println!("soak: {soak_iters} runs over {soak_elapsed:.1} s, no drift");
    }

    // Scaling sweep: 1, 2, auto workers over the same scenario.
    let auto_workers = FleetService::new(ctx.clone()).effective_workers(scenario.shards.len());
    let mut scaling = Vec::new();
    let mut artifacts: Vec<String> = Vec::new();
    let mut last_report_json = String::new();
    for &workers in &[1usize, 2, 0] {
        let svc = FleetService::new(ctx.clone())
            .with_workers(workers)
            .with_telemetry(telemetry.clone());
        let (full_report, json, wall) = timed_run(&svc, &scenario);
        last_rollup_snap = full_report.rollup.telemetry.clone();
        let effective = svc.effective_workers(scenario.shards.len());
        scaling.push(WorkerPoint {
            workers: effective,
            wall_s: wall,
            jobs_per_s: scenario.total_jobs() as f64 / wall,
        });
        println!(
            "  {effective:>2} workers: {wall:.3} s wall ({:.1} jobs/s)",
            scenario.total_jobs() as f64 / wall
        );
        artifacts.push(json.clone());
        last_report_json = json;
    }

    let deterministic = artifacts.iter().all(|a| *a == artifacts[0]);
    let auto_speedup = scaling_ratio(&scaling[0], &scaling[2]);
    let gate = env_f64("GPM_FLEET_MIN_SCALING", 1.05);

    let report: gpm_fleet::FleetReport =
        serde_json::from_str(&last_report_json).expect("fleet artifact parses");
    let bench = FleetBenchReport {
        scenario: scenario.name.clone(),
        seed,
        shards: report.rollup.shards,
        jobs: report.rollup.jobs,
        simulated_makespan_s: report.rollup.makespan_s,
        simulated_throughput_gips: report.rollup.throughput_gips,
        fleet_energy_j: report.rollup.energy_j,
        fail_safe_entries: report.rollup.fail_safe_entries,
        fault_injections: report.rollup.fault_injections,
        deterministic,
        scaling,
        auto_speedup_over_1: auto_speedup,
        min_scaling_gate: gate,
        soak_seconds: soak_elapsed,
        soak_iterations: soak_iters,
    };
    emit_artifact("results/BENCH_fleet.json", &bench);

    if let Some(path) = &telemetry_out {
        // Fleet counters plus the per-shard rollup (dispatch counters,
        // decision-latency histogram, span profile), one exposition.
        let mut snap = telemetry.snapshot();
        if let Some(rollup) = &last_rollup_snap {
            snap.merge(rollup);
        }
        if let Some(parent) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(parent).expect("create telemetry output directory");
        }
        std::fs::write(path, snap.to_prometheus()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }

    if !deterministic {
        eprintln!("FAIL: fleet artifacts differ across worker counts");
        std::process::exit(1);
    }
    let Some(auto_speedup) = auto_speedup else {
        println!(
            "PASS: byte-identical at 1/2/auto workers; auto resolved to {auto_workers} \
             worker, so no scaling was measured"
        );
        return;
    };
    if auto_speedup < gate {
        eprintln!("FAIL: auto-worker speedup {auto_speedup:.2}x below the {gate:.2}x scaling gate");
        std::process::exit(1);
    }
    println!(
        "PASS: byte-identical at 1/2/auto workers; auto speedup {auto_speedup:.2}x \
         (gate {gate:.2}x, {auto_workers} workers)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(workers: usize, wall_s: f64) -> WorkerPoint {
        WorkerPoint {
            workers,
            wall_s,
            jobs_per_s: 16.0 / wall_s,
        }
    }

    #[test]
    fn scaling_ratio_needs_different_worker_counts() {
        // A faster second 1-worker run is warm caches, not scaling.
        assert_eq!(scaling_ratio(&point(1, 0.0054), &point(1, 0.0036)), None);
        assert_eq!(scaling_ratio(&point(1, 0.006), &point(2, 0.004)), Some(1.5));
    }
}
