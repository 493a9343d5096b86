//! `reproduce_fast`: `gpm_xp::run_suite` in `Mode::Fast` runs all 30
//! experiments with two jobs, again and again. The registry fixes its own
//! seeds, so the workload seed is unused.
//!
//! Artifacts, the aggregate report and the figures experiments write to
//! `results/` go to a scratch directory under the working directory,
//! which is removed afterwards; a run never rewrites the committed
//! `results/`, and checks that it did not.

use crate::report::{self, median, ratio, Report, Totals, EXPERIMENTS};
use crate::Run;
use gpm_xp::runner::ExperimentRecord;
use gpm_xp::{run_suite, Mode, PhaseRow, RunConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

const JOBS: usize = 2;
const SCRATCH: &str = ".perfbench_tmp";

/// Gates on host wall-clock ratios rather than on outputs: the telemetry
/// A/B overhead ceiling fails whenever another tenant, or the suite's own
/// second job, disturbs one side of the comparison. A failure is printed
/// but not counted.
const HOST_TIMING_GATES: &[(&str, &str)] = &[("telemetry_overhead", "overhead_ok")];

/// The working directory for `run_suite`: created on entry, left and
/// removed on drop, so relative `results/...` writes land inside it.
struct Scratch {
    home: PathBuf,
    dir: PathBuf,
}

impl Scratch {
    fn enter() -> Result<Scratch, String> {
        let home = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
        let dir = home.join(SCRATCH).join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        std::env::set_current_dir(&dir).map_err(|e| format!("enter {}: {e}", dir.display()))?;
        Ok(Scratch { home, dir })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::env::set_current_dir(&self.home);
        let _ = std::fs::remove_dir_all(&self.dir);
        // Removed only when no concurrent run still uses it.
        let _ = std::fs::remove_dir(self.home.join(SCRATCH));
    }
}

/// Size and modification time of every file under `dir`.
fn listing(dir: &Path) -> BTreeMap<PathBuf, (u64, Option<SystemTime>)> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(path),
                Ok(m) => {
                    files.insert(path, (m.len(), m.modified().ok()));
                }
                Err(_) => {}
            }
        }
    }
    files
}

fn span_sum(records: &[ExperimentRecord], phase: &str, f: fn(&PhaseRow) -> f64) -> f64 {
    records
        .iter()
        .flat_map(|r| &r.phases)
        .filter(|p| p.phase == phase)
        .map(f)
        .sum()
}

/// Host time of one experiment: its `xp.experiment` span, or the
/// record's whole-millisecond duration when the span is missing.
fn experiment_ms(record: &ExperimentRecord) -> f64 {
    record
        .phases
        .iter()
        .find(|p| p.phase == "xp.experiment")
        .map_or(record.duration_ms as f64, |p| p.total_ms)
}

/// Everything one `run_suite` call reports, as named values.
fn rep_metrics(records: &[ExperimentRecord], wall_s: f64) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let total = |f: fn(&PhaseRow) -> f64, phase| span_sum(records, phase, f);
    let experiment_total: f64 = records.iter().map(experiment_ms).sum();
    let decisions: u64 = records.iter().map(|r| r.trace.decisions).sum();
    let horizon_decisions: u64 = records.iter().map(|r| r.trace.horizon_decisions).sum();
    let horizon_sum: f64 = records
        .iter()
        .map(|r| r.trace.mean_horizon * r.trace.horizon_decisions as f64)
        .sum();
    for r in records {
        m.insert(format!("xp.{}.ms", r.name), experiment_ms(r));
    }
    m.insert(
        "xp.critical_path_ms".into(),
        records.iter().map(experiment_ms).fold(0.0, f64::max),
    );
    m.insert(
        "xp.parallel_efficiency".into(),
        ratio(experiment_total, JOBS as f64 * wall_s * 1e3),
    );
    m.insert("xp.rf_fit_ms".into(), total(|p| p.total_ms, "rf.fit"));
    m.insert(
        "xp.rf_fit_count".into(),
        total(|p| p.count as f64, "rf.fit"),
    );
    m.insert(
        "xp.unattributed_ms".into(),
        total(|p| p.self_ms, "xp.experiment"),
    );
    m.insert(
        "harness.dispatch_ms".into(),
        total(|p| p.total_ms, "env.dispatch"),
    );
    m.insert(
        "governors.hill_climb_ms".into(),
        total(|p| p.total_ms, "search.hill_climb"),
    );
    m.insert(
        "harness.baseline.calls".into(),
        total(|p| p.count as f64, "baseline.resolve"),
    );
    m.insert(
        "harness.baseline.ms".into(),
        total(|p| p.total_ms, "baseline.resolve"),
    );
    m.insert("governors.select.calls".into(), decisions as f64);
    m.insert(
        "governors.candidates_per_decision".into(),
        ratio(
            records
                .iter()
                .map(|r| r.trace.total_evaluations)
                .sum::<u64>() as f64,
            decisions as f64,
        ),
    );
    m.insert(
        "mpc.mean_horizon".into(),
        ratio(horizon_sum, horizon_decisions as f64),
    );
    let attributed = experiment_total - total(|p| p.self_ms, "xp.experiment");
    m.insert(
        "coverage_pct".into(),
        100.0 * ratio(attributed, JOBS as f64 * wall_s * 1e3),
    );
    m
}

/// The simulated metrics of one suite run, in a fixed order.
fn simulated(records: &[ExperimentRecord]) -> Vec<(&'static str, f64)> {
    let fig8 = |name: &str| {
        records
            .iter()
            .find(|r| r.name == "fig8")
            .and_then(|r| r.metrics.iter().find(|m| m.name == name))
            .map_or(f64::NAN, |m| m.value)
    };
    let decisions: u64 = records.iter().map(|r| r.trace.decisions).sum();
    let fail_safe: u64 = records.iter().map(|r| r.trace.fail_safe_events).sum();
    vec![
        ("mpc_energy_savings_pct", fig8("mpc_energy_savings_pct")),
        ("mpc_perf_loss_pct", fig8("mpc_perf_loss_pct")),
        (
            "fail_safe_pct",
            100.0 * ratio(fail_safe as f64, decisions as f64),
        ),
    ]
}

/// What one measured phase saw.
struct Phase {
    /// Host seconds and decisions of each suite run.
    suites: Vec<(f64, f64)>,
    per_rep: Vec<BTreeMap<String, f64>>,
    sim: Vec<(&'static str, f64)>,
}

/// Runs the whole suite until `budget` is spent, checking that every
/// experiment finishes inside its gates and that the simulated metrics
/// repeat exactly.
fn phase(cfg: &RunConfig, budget: Duration, report: &mut Report) -> Phase {
    let mut phase = Phase {
        suites: Vec::new(),
        per_rep: Vec::new(),
        sim: Vec::new(),
    };
    let start = Instant::now();
    while phase.suites.is_empty() || start.elapsed() < budget {
        let t = Instant::now();
        let suite = run_suite(cfg);
        let wall_s = t.elapsed().as_secs_f64();
        report.check(suite.records.len() == EXPERIMENTS.len(), || {
            format!(
                "{} experiments ran, not {}",
                suite.records.len(),
                EXPERIMENTS.len()
            )
        });
        for r in &suite.records {
            let (timing, output): (Vec<_>, Vec<_>) = r
                .gates
                .iter()
                .partition(|g| HOST_TIMING_GATES.contains(&(r.name.as_str(), g.metric.as_str())));
            for g in timing.iter().filter(|g| !g.pass) {
                println!(
                    "note: host-timing gate {}/{} failed (not counted)",
                    r.name, g.metric
                );
            }
            report.check(!r.crashed && output.iter().all(|g| g.pass), || {
                let why = if r.crashed {
                    "crashed"
                } else {
                    "left a gate band"
                };
                format!("experiment {} {why}", r.name)
            });
        }
        let sim = simulated(&suite.records);
        if phase.sim.is_empty() {
            phase.sim = sim;
        } else {
            for (&(name, a), &(_, b)) in phase.sim.iter().zip(&sim) {
                report.check(a.to_bits() == b.to_bits(), || {
                    format!("simulated {name} changed between suite runs: {a} then {b}")
                });
            }
        }
        let decisions: u64 = suite.records.iter().map(|r| r.trace.decisions).sum();
        phase.per_rep.push(rep_metrics(&suite.records, wall_s));
        phase.suites.push((wall_s, decisions as f64));
    }
    phase
}

pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let ctx = crate::setup(&Mode::Fast.options(), run.traced, &mut report);
    crate::report_accuracy(&ctx, false, &mut report);
    drop(ctx);
    println!(
        "workload reproduce_fast: run_suite(Mode::Fast) over {} experiments, jobs={JOBS} (seed unused)",
        EXPERIMENTS.len()
    );

    let committed = Path::new("results");
    let before = listing(committed);
    let (plain, traced) = {
        let scratch = Scratch::enter()?;
        let cfg = RunConfig {
            mode: Mode::Fast,
            filter: Vec::new(),
            jobs: JOBS,
            out_dir: scratch.dir.join("xp"),
            resume: false,
            aggregate_path: Some(scratch.dir.join("REPRO_fast.json")),
        };
        let plain = phase(&cfg, run.phase_budget(), &mut report);
        let traced = run
            .traced
            .then(|| phase(&cfg, run.phase_budget(), &mut report));
        (plain, traced)
    };
    report.check(listing(committed) == before, || {
        "run_suite modified the committed results/ directory".to_string()
    });

    println!(
        "measured {} suite runs of {} decisions",
        plain.suites.len(),
        plain.suites[0].1
    );
    let totals = Totals::of(&plain.suites);
    report.set("wall_s", totals.unit_s);
    report.set("decisions_per_s", totals.rate);
    for &(name, value) in &plain.sim {
        report.set(name, value);
    }
    let Some(traced) = traced else {
        return Ok(report);
    };

    for (&(name, a), &(_, b)) in plain.sim.iter().zip(&traced.sim) {
        report.check_same(name, a, b);
    }
    let traced_totals = Totals::of(&traced.suites);
    report::overhead("decisions_per_s", totals.rate, traced_totals.rate, "1/s");
    report::overhead("wall_s", totals.unit_s, traced_totals.unit_s, "s");
    let names: Vec<&String> = traced.per_rep[0].keys().collect();
    for name in names {
        let values: Vec<f64> = traced
            .per_rep
            .iter()
            .filter_map(|m| m.get(name).copied())
            .collect();
        if name == "coverage_pct" {
            report::coverage(
                &mut report,
                "reproduce_fast (child spans of xp.experiment over jobs x wall time)",
                median(&values),
                100.0,
            );
        } else {
            report.set(name, median(&values));
        }
    }
    Ok(report)
}
