//! `fleet_mixed`: `FleetService` with two workers runs a sequence of
//! `FleetScenario::mixed` scenarios derived from the workload seed, on one
//! shared context.
//!
//! A reference scenario with a fixed seed runs first, untimed: it warms
//! the suite workloads' baselines, and the simulated metrics come from it
//! so they repeat exactly for every workload seed. The timed scenarios
//! stay cold where the service is cold in use: one job in four is a
//! generated application no earlier scenario has seen. Every third shard
//! runs a 5% fault plan, and every shard aggregates decision traces.

use crate::report::{self, median, quantile, ratio, Report, Totals};
use crate::Run;
use gpm_fleet::{FleetReport, FleetScenario, FleetService};
use gpm_harness::{geo_mean, EvalContext, EvalOptions};
use gpm_telemetry::{MetricData, Telemetry, TelemetrySnapshot};
use serde::Deserialize;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const SHARDS: usize = 8;
const JOBS_PER_SHARD: usize = 6;
const REFERENCE_SEED: u64 = 0x5eed_f1ee7;

/// The seed of the `i`-th timed scenario.
fn scenario(seed: u64, i: u64) -> FleetScenario {
    FleetScenario::mixed(report::mix(seed ^ report::mix(i)), SHARDS, JOBS_PER_SHARD)
}

/// Checks that a report holds exactly the scenario's jobs, in order.
fn check_jobs(scenario: &FleetScenario, fleet: &FleetReport, report: &mut Report) {
    report.check(fleet.rollup.jobs == scenario.total_jobs(), || {
        format!(
            "{}: {} of {} jobs reported",
            scenario.name,
            fleet.rollup.jobs,
            scenario.total_jobs()
        )
    });
    for (plan, shard) in scenario.shards.iter().zip(&fleet.shards) {
        for (spec, job) in plan.jobs.iter().zip(&shard.jobs) {
            let ok = job.workload == spec.workload.materialize().name()
                && job.scheme == spec.scheme.label()
                && job.energy_j.is_finite()
                && job.energy_j > 0.0;
            report.check(ok, || {
                format!(
                    "{} shard {}: job {} mismatch",
                    scenario.name, shard.shard_id, job.workload
                )
            });
        }
    }
}

/// The simulated metrics of a fleet report, in a fixed order.
fn simulated(fleet: &FleetReport) -> Vec<(&'static str, f64)> {
    let adaptive: Vec<_> = fleet
        .shards
        .iter()
        .flat_map(|s| &s.jobs)
        .filter(|j| j.scheme == "MPC(RF,adaptive)")
        .collect();
    let savings = adaptive.iter().map(|j| j.energy_savings_pct).sum::<f64>();
    let speedups: Vec<f64> = adaptive.iter().map(|j| j.speedup).collect();
    let trace = &fleet.rollup.trace;
    vec![
        (
            "mpc_energy_savings_pct",
            ratio(savings, adaptive.len() as f64),
        ),
        ("mpc_perf_loss_pct", (1.0 - geo_mean(&speedups)) * 100.0),
        (
            "fail_safe_pct",
            100.0
                * ratio(
                    fleet.rollup.fail_safe_entries as f64,
                    trace.decisions as f64,
                ),
        ),
        ("mpc.mean_horizon", trace.mean_horizon),
    ]
}

/// One complete span from the fleet registry's chrome-trace export.
#[derive(Debug, Deserialize)]
#[allow(dead_code)]
struct SpanEvent {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    dur: f64,
    pid: u64,
    tid: u64,
}

/// Per-layer totals of a traced phase.
#[derive(Default)]
struct Layers {
    worker_busy_ms: [f64; WORKERS],
    imbalance: Vec<f64>,
    shard_ms: Vec<f64>,
    baseline_resolutions: u64,
    fault_injections: u64,
    fail_safe_entries: u64,
    shard_spans: TelemetrySnapshot,
}

impl Layers {
    /// Adds one traced scenario: the fleet registry's worker and shard
    /// spans, and the rollup's counters and per-shard span tables.
    fn add(&mut self, fleet_spans: &str, fleet: &FleetReport) -> Result<(), String> {
        let events: Vec<SpanEvent> =
            serde_json::from_str(fleet_spans).map_err(|e| format!("chrome trace: {e:?}"))?;
        let mut workers: Vec<&SpanEvent> =
            events.iter().filter(|e| e.name == "fleet.worker").collect();
        if workers.len() != WORKERS {
            return Err(format!(
                "fleet ran on {} workers, not the {WORKERS} it names",
                workers.len()
            ));
        }
        workers.sort_by_key(|e| e.tid);
        let busy: Vec<f64> = workers.iter().map(|e| e.dur / 1e3).collect();
        for (total, b) in self.worker_busy_ms.iter_mut().zip(&busy) {
            *total += b;
        }
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        self.imbalance
            .push(ratio(busy.iter().copied().fold(0.0, f64::max), mean));
        self.shard_ms.extend(
            events
                .iter()
                .filter(|e| e.name == "fleet.shard")
                .map(|e| e.dur / 1e3),
        );
        let rollup = &fleet.rollup;
        self.baseline_resolutions += fleet
            .shards
            .iter()
            .map(|s| s.baseline_resolutions)
            .sum::<u64>();
        self.fault_injections += rollup.fault_injections;
        self.fail_safe_entries += rollup.fail_safe_entries;
        if let Some(snapshot) = &rollup.telemetry {
            self.shard_spans.merge(snapshot);
        }
        Ok(())
    }
}

/// What one measured phase saw.
#[derive(Default)]
struct Phase {
    /// Host seconds and decisions of each scenario.
    scenarios: Vec<(f64, f64)>,
    jobs: u64,
    decisions: u64,
    evaluations: u64,
    layers: Layers,
}

/// Runs scenarios `next..` until `budget` is spent; traced, each runs
/// under its own fleet registry with a span-event ring.
fn phase(
    ctx: &EvalContext,
    seed: u64,
    next: &mut u64,
    budget: Duration,
    traced: bool,
    report: &mut Report,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let start = Instant::now();
    while phase.scenarios.is_empty() || start.elapsed() < budget {
        let scenario = scenario(seed, *next);
        *next += 1;
        let telemetry = traced.then(|| Telemetry::with_events(64));
        let mut service = FleetService::new(ctx.clone()).with_workers(WORKERS);
        if let Some(t) = &telemetry {
            service = service.with_telemetry(t.clone());
        }
        let t = Instant::now();
        let fleet = service.run(&scenario);
        let seconds = t.elapsed().as_secs_f64();
        phase
            .scenarios
            .push((seconds, fleet.rollup.trace.decisions as f64));
        check_jobs(&scenario, &fleet, report);
        phase.jobs += fleet.rollup.jobs as u64;
        phase.decisions += fleet.rollup.trace.decisions;
        phase.evaluations += fleet.rollup.trace.total_evaluations;
        if let Some(t) = &telemetry {
            phase.layers.add(&t.chrome_trace(), &fleet)?;
        }
    }
    Ok(phase)
}

/// The labelled `gpm_baseline_resolutions_total{cache="miss"}` counter.
fn baseline_misses(snapshot: &TelemetrySnapshot) -> u64 {
    snapshot
        .metrics
        .iter()
        .filter(|m| {
            m.name == "gpm_baseline_resolutions_total"
                && m.labels.iter().any(|(k, v)| k == "cache" && v == "miss")
        })
        .map(|m| match m.data {
            MetricData::Counter { value } => value,
            _ => 0,
        })
        .sum()
}

pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let ctx = crate::setup(&EvalOptions::default(), run.traced, &mut report);
    crate::report_accuracy(&ctx, true, &mut report);
    let service = FleetService::new(ctx.clone()).with_workers(WORKERS);
    let workers = service.effective_workers(SHARDS);
    if workers != WORKERS {
        return Err(format!(
            "fleet would run on {workers} workers, not {WORKERS}"
        ));
    }
    println!(
        "workload fleet_mixed: mixed scenarios of {SHARDS} shards x {JOBS_PER_SHARD} jobs, \
         workers={workers}, seed={}",
        run.seed
    );

    let reference_scenario = FleetScenario::mixed(REFERENCE_SEED, SHARDS, JOBS_PER_SHARD);
    let reference = service.run(&reference_scenario);
    check_jobs(&reference_scenario, &reference, &mut report);
    let sim = simulated(&reference);

    let mut next = 0;
    let plain = phase(
        &ctx,
        run.seed,
        &mut next,
        run.phase_budget(),
        false,
        &mut report,
    )?;
    let candidates = ratio(plain.evaluations as f64, plain.decisions as f64);
    if candidates <= 1.0 {
        return Err(format!(
            "fleet decisions priced {candidates} candidates on average; the search is not running"
        ));
    }
    // The first timed scenario, again on one worker: the artifact must be
    // byte-identical for any worker count.
    let first = scenario(run.seed, 0);
    let two = service.run(&first).to_artifact_json();
    let one = FleetService::new(ctx.clone())
        .with_workers(1)
        .run(&first)
        .to_artifact_json();
    report.check(one == two, || {
        format!(
            "{}: 1-worker and {WORKERS}-worker artifacts differ",
            first.name
        )
    });

    println!(
        "measured {} scenarios, {} jobs, {} decisions ({candidates:.2} candidates each)",
        plain.scenarios.len(),
        plain.jobs,
        plain.decisions
    );
    let totals = Totals::of(&plain.scenarios);
    report.set("wall_s", totals.unit_s);
    report.set("decisions_per_s", totals.rate);
    report::info(
        "jobs_per_s",
        (SHARDS * JOBS_PER_SHARD) as f64 / totals.unit_s,
        "1/s",
    );
    for &(name, value) in &sim {
        report.set(name, value);
    }
    if !run.traced {
        return Ok(report);
    }

    let traced = phase(
        &ctx,
        run.seed,
        &mut next,
        run.phase_budget(),
        true,
        &mut report,
    )?;
    let traced_reference = FleetService::new(ctx.clone())
        .with_workers(WORKERS)
        .with_telemetry(Telemetry::new())
        .run(&reference_scenario);
    report.check(
        traced_reference.to_artifact_json() == reference.to_artifact_json(),
        || "reference scenario artifact differs under telemetry".to_string(),
    );
    for (&(name, a), &(_, b)) in sim.iter().zip(&simulated(&traced_reference)) {
        report.check_same(name, a, b);
    }
    let traced_totals = Totals::of(&traced.scenarios);
    report::overhead("decisions_per_s", totals.rate, traced_totals.rate, "1/s");
    report::overhead("wall_s", totals.unit_s, traced_totals.unit_s, "s");

    let l = &traced.layers;
    let spans = &l.shard_spans;
    let span = |name: &str| {
        spans
            .span(name)
            .map_or((0, 0.0), |s| (s.count, s.total_ns as f64 / 1e6))
    };
    let (dispatches, dispatch_ms) = span("env.dispatch");
    let (baselines, baseline_ms) = span("baseline.resolve");
    report.set("fleet.worker_busy_ms.w0", l.worker_busy_ms[0]);
    report.set("fleet.worker_busy_ms.w1", l.worker_busy_ms[1]);
    report.set("fleet.imbalance", median(&l.imbalance));
    report.set("fleet.shard_ms_p50", quantile(&l.shard_ms, 0.5));
    report.set("fleet.shard_ms_max", quantile(&l.shard_ms, 1.0));
    report.set("fleet.baseline_resolutions", l.baseline_resolutions as f64);
    report.set("fleet.fault_injections", l.fault_injections as f64);
    report.set("fleet.fail_safe_entries", l.fail_safe_entries as f64);
    report.set("fleet.trace_decisions", traced.decisions as f64);
    report.set("governors.select.calls", dispatches as f64);
    report.set(
        "governors.candidates_per_decision",
        ratio(traced.evaluations as f64, traced.decisions as f64),
    );
    report.set("governors.hill_climb_ms", span("search.hill_climb").1);
    report.set("harness.dispatch_ms", dispatch_ms);
    report.set("harness.baseline.calls", baselines as f64);
    report.set("harness.baseline.misses", baseline_misses(spans) as f64);
    report.set("harness.baseline.ms", baseline_ms);
    report::coverage(
        &mut report,
        "fleet_mixed (env.dispatch + baseline.resolve over workers x scenario time)",
        (dispatch_ms + baseline_ms) * 1e6,
        WORKERS as f64 * traced_totals.seconds * 1e9,
    );
    Ok(report)
}
