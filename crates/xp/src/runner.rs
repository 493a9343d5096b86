//! The reproduction runner: schedules registered experiments
//! work-stealing-parallel over one shared [`EvalContext`], writes
//! schema-versioned per-experiment artifacts (which double as resume
//! checkpoints), and aggregates gate results into the suite report.

use crate::artifact::{emit_artifact, ARTIFACT_SCHEMA_VERSION};
use crate::experiment::{check_gates, fingerprint, Experiment, GateResult, Metric, Mode, XpEnv};
use crate::registry::registry;
use gpm_harness::{EvalContext, ForestCache};
use gpm_trace::TraceSummary;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// How one [`run_suite`] invocation is configured.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Evaluation depth.
    pub mode: Mode,
    /// Case-sensitive substring filters on experiment names; empty
    /// selects the whole registry.
    pub filter: Vec<String>,
    /// Worker threads; 0 = available parallelism.
    pub jobs: usize,
    /// Directory for per-experiment artifacts (the checkpoint store).
    pub out_dir: PathBuf,
    /// Reuse matching checkpointed artifacts instead of re-running.
    pub resume: bool,
    /// Where to write the aggregate report; `None` skips it.
    pub aggregate_path: Option<PathBuf>,
}

impl RunConfig {
    /// The default configuration for `mode`: full registry, auto
    /// parallelism, records under the mode's [`Mode::record_dir`]
    /// (`results/xp` or `results/fast/xp`), aggregate under
    /// `results/REPRO_<mode>.json`.
    pub fn for_mode(mode: Mode) -> RunConfig {
        RunConfig {
            mode,
            filter: Vec::new(),
            jobs: 0,
            out_dir: PathBuf::from(mode.record_dir()),
            resume: false,
            aggregate_path: Some(PathBuf::from(format!(
                "results/REPRO_{}.json",
                mode.as_str()
            ))),
        }
    }

    /// Where experiments write their text artifacts (figures, the
    /// campaign CSV, telemetry dumps): the parent of `out_dir`, so they
    /// sit beside the records of the same run.
    pub fn artifact_dir(&self) -> &Path {
        self.out_dir.parent().unwrap_or(&self.out_dir)
    }
}

/// The artifact one experiment run produces — also the resume
/// checkpoint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Registry name.
    pub name: String,
    /// Paper exhibit reproduced.
    pub paper_ref: String,
    /// One-line description.
    pub title: String,
    /// Mode the record was produced under.
    pub mode: String,
    /// Identity hash of (name, mode, eval options, schema version) —
    /// resume only reuses records whose fingerprint still matches.
    pub fingerprint: u64,
    /// Whether every gate passed.
    pub passed: bool,
    /// Whether the run function panicked (metrics/gates then empty).
    pub crashed: bool,
    /// Gated metrics.
    pub metrics: Vec<Metric>,
    /// Gate outcomes.
    pub gates: Vec<GateResult>,
    /// Decision-level trace aggregate for the experiment's evaluations.
    pub trace: TraceSummary,
    /// Per-phase span profile of the run (aggregated by leaf span name,
    /// sorted by total time descending). Wall-clock derived —
    /// informational, never gated, and absent in pre-telemetry
    /// artifacts.
    #[serde(default)]
    pub phases: Vec<PhaseRow>,
    /// Wall-clock runtime, milliseconds (informational; never gated).
    pub duration_ms: u64,
    /// The rendered report text.
    pub text: String,
    /// Structured per-row details.
    pub details: Value,
}

/// One line of an experiment's phase-time table: all spans with a given
/// leaf name (e.g. `search.hill_climb`), summed across call paths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseRow {
    /// Leaf span name.
    pub phase: String,
    /// Completed spans.
    pub count: u64,
    /// Wall time inside the phase, milliseconds.
    pub total_ms: f64,
    /// `total_ms` minus time attributed to child spans.
    pub self_ms: f64,
}

/// Collapses a telemetry snapshot into the phase-time table: one row
/// per leaf span name, sorted by total time descending (name as
/// tiebreak).
pub fn phase_table(snapshot: &gpm_telemetry::TelemetrySnapshot) -> Vec<PhaseRow> {
    let mut names: Vec<&str> = snapshot.spans.iter().map(|s| s.name()).collect();
    names.sort_unstable();
    names.dedup();
    let mut rows: Vec<PhaseRow> = names
        .into_iter()
        .filter_map(|name| {
            let row = snapshot.span(name)?;
            Some(PhaseRow {
                phase: name.to_string(),
                count: row.count,
                total_ms: row.total_ns as f64 / 1e6,
                self_ms: row.self_ns as f64 / 1e6,
            })
        })
        .collect();
    rows.sort_by(|a, b| {
        b.total_ms
            .partial_cmp(&a.total_ms)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.phase.cmp(&b.phase))
    });
    rows
}

/// What [`run_suite`] returns.
#[derive(Debug)]
pub struct SuiteReport {
    /// One record per selected experiment, in registry order.
    pub records: Vec<ExperimentRecord>,
    /// How many records were reused from checkpoints.
    pub resumed: usize,
    /// Whether every experiment passed its gates.
    pub all_passed: bool,
}

/// The identity of one (experiment, mode, protocol) combination.
///
/// Includes the workspace crate version so a checkpoint written by a
/// previous build can never satisfy the current build's gates via
/// `--resume` — bumping the version invalidates every stale checkpoint.
fn run_fingerprint(name: &str, mode: Mode) -> u64 {
    let options = serde_json::to_string(&mode.options()).expect("options serialize");
    fingerprint(&[
        name,
        mode.as_str(),
        &options,
        &ARTIFACT_SCHEMA_VERSION.to_string(),
        env!("CARGO_PKG_VERSION"),
    ])
}

/// Selects registry experiments matching any of `filter` (all when
/// empty), preserving registry order.
pub fn select(filter: &[String]) -> Vec<Experiment> {
    registry()
        .into_iter()
        .filter(|e| filter.is_empty() || filter.iter().any(|f| e.name.contains(f.as_str())))
        .collect()
}

/// The record of experiment `name` in `out_dir`.
pub(crate) fn record_path(out_dir: &Path, name: &str) -> PathBuf {
    out_dir.join(format!("{name}.json"))
}

/// Attempts to reuse a checkpointed record: the artifact must parse,
/// carry the current schema version, and match the run fingerprint.
/// Gates are re-checked against the *current* expectations so registry
/// updates take effect on resume.
fn load_checkpoint(exp: &Experiment, cfg: &RunConfig) -> Option<ExperimentRecord> {
    let path = record_path(&cfg.out_dir, exp.name);
    let text = std::fs::read_to_string(&path).ok()?;
    let root: Value = serde_json::from_str(&text).ok()?;
    let version = match &root {
        Value::Map(entries) => entries.iter().find_map(|(k, v)| {
            (matches!(k, Value::Str(s) if s == "schema_version")).then(|| v.as_u64())?
        })?,
        _ => return None,
    };
    if version != ARTIFACT_SCHEMA_VERSION {
        return None;
    }
    let mut record: ExperimentRecord = serde_json::from_str(&text).ok()?;
    if record.fingerprint != run_fingerprint(exp.name, cfg.mode) || record.crashed {
        return None;
    }
    record.gates = check_gates(&exp.expectations, &record.metrics, cfg.mode);
    record.passed = record.gates.iter().all(|g| g.pass);
    Some(record)
}

/// Runs one experiment to a record (catching panics so one crash does
/// not take down the suite).
fn run_one(
    exp: &Experiment,
    cfg: &RunConfig,
    ctx: Option<&EvalContext>,
    forests: &ForestCache,
) -> ExperimentRecord {
    let mode = cfg.mode;
    let started = std::time::Instant::now();
    let env = XpEnv::new(mode, ctx, forests, cfg.artifact_dir());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // Scope the whole run under the experiment's registry so any
        // span fired on this thread (model fits, searches, dispatches)
        // lands in its phase table, rooted at `xp.experiment`.
        let _enter = env.telemetry().enter();
        let _span = gpm_telemetry::span("xp.experiment");
        (exp.run)(&env)
    }));
    let trace = env.trace_summary();
    let phases = phase_table(&env.telemetry_snapshot());
    let duration_ms = started.elapsed().as_millis() as u64;
    match outcome {
        Ok(out) => {
            let gates = check_gates(&exp.expectations, &out.metrics, mode);
            let passed = gates.iter().all(|g| g.pass);
            ExperimentRecord {
                name: exp.name.to_string(),
                paper_ref: exp.paper_ref.to_string(),
                title: exp.title.to_string(),
                mode: mode.as_str().to_string(),
                fingerprint: run_fingerprint(exp.name, mode),
                passed,
                crashed: false,
                metrics: out.metrics,
                gates,
                trace,
                phases,
                duration_ms,
                text: out.text,
                details: out.details,
            }
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic");
            ExperimentRecord {
                name: exp.name.to_string(),
                paper_ref: exp.paper_ref.to_string(),
                title: exp.title.to_string(),
                mode: mode.as_str().to_string(),
                fingerprint: run_fingerprint(exp.name, mode),
                passed: false,
                crashed: true,
                metrics: Vec::new(),
                gates: Vec::new(),
                trace,
                phases,
                duration_ms,
                text: format!("PANIC: {msg}"),
                details: Value::Null,
            }
        }
    }
}

/// One line of the aggregate report per experiment.
#[derive(Debug, Serialize)]
struct AggregateRow {
    name: String,
    paper_ref: String,
    passed: bool,
    crashed: bool,
    resumed: bool,
    duration_ms: u64,
    gates_total: usize,
    gates_failed: usize,
}

#[derive(Debug, Serialize)]
struct AggregateReport {
    mode: String,
    experiments: usize,
    passed: usize,
    failed: usize,
    resumed: usize,
    baseline_simulations: u64,
    baseline_cache_hits: u64,
    rows: Vec<AggregateRow>,
    failures: Vec<String>,
}

/// Runs the selected experiments under `cfg`.
///
/// Scheduling is a work-stealing queue: workers atomically claim the
/// next unclaimed experiment, so long experiments (fig11, stability)
/// overlap with cheap ones regardless of registry order. All
/// context-sharing experiments read one [`EvalContext`], so Turbo Core
/// baselines computed by the first experiment are cache hits for every
/// later one. Experiments that build contexts of their own share the
/// run's [`ForestCache`], so each distinct forest is fitted once per run.
pub fn run_suite(cfg: &RunConfig) -> SuiteReport {
    let selected = select(&cfg.filter);
    assert!(
        !selected.is_empty(),
        "no experiments match filter {:?}",
        cfg.filter
    );

    // Resume pass: collect reusable checkpoints up front.
    let mut slots: Vec<Option<ExperimentRecord>> = selected
        .iter()
        .map(|e| {
            if cfg.resume {
                load_checkpoint(e, cfg)
            } else {
                None
            }
        })
        .collect();
    let from_checkpoint: Vec<bool> = slots.iter().map(Option::is_some).collect();
    let resumed = from_checkpoint.iter().filter(|&&r| r).count();

    // One forest cache per run: the shared context seeds it, and every
    // experiment context with the same training input reuses that fit.
    let forests = ForestCache::new();
    // Build the shared context only if a pending experiment needs it.
    let needs_ctx = selected
        .iter()
        .zip(&slots)
        .any(|(e, s)| e.needs_ctx && s.is_none());
    let ctx = needs_ctx.then(|| {
        eprintln!(
            "building shared evaluation context ({} mode; campaign + RF training, {} split search)...",
            cfg.mode,
            gpm_model::fit_simd_tier()
        );
        EvalContext::build_cached(cfg.mode.options(), &forests)
    });

    let pending: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_none().then_some(i))
        .collect();
    let jobs = if cfg.jobs == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        cfg.jobs
    }
    .min(pending.len().max(1));

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, ExperimentRecord)>> = Mutex::new(Vec::new());
    crossbeam::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|_| loop {
                let at = next.fetch_add(1, Ordering::Relaxed);
                let Some(&idx) = pending.get(at) else {
                    break;
                };
                let exp = &selected[idx];
                eprintln!("[{}] running {} ({})", cfg.mode, exp.name, exp.paper_ref);
                let record = run_one(exp, cfg, ctx.as_ref(), &forests);
                eprintln!(
                    "[{}] {} {} in {} ms",
                    cfg.mode,
                    exp.name,
                    if record.passed { "passed" } else { "FAILED" },
                    record.duration_ms
                );
                results.lock().push((idx, record));
            });
        }
    })
    .expect("runner worker panicked outside catch_unwind");

    for (idx, record) in results.into_inner() {
        emit_artifact(record_path(&cfg.out_dir, &record.name), &record);
        slots[idx] = Some(record);
    }

    let records: Vec<ExperimentRecord> = slots
        .into_iter()
        .map(|s| s.expect("every selected experiment produced a record"))
        .collect();
    let all_passed = records.iter().all(|r| r.passed);

    if let Some(path) = &cfg.aggregate_path {
        let (bs, bh) = ctx
            .as_ref()
            .map(|c| {
                let stats = c.baseline_stats();
                (stats.computed, stats.hits)
            })
            .unwrap_or((0, 0));
        let mut failures = Vec::new();
        for r in &records {
            for g in r.gates.iter().filter(|g| !g.pass) {
                failures.push(format!(
                    "{}: {} expected {} ± {} ({}), got {:?}",
                    r.name,
                    g.metric,
                    g.expected,
                    g.tol,
                    g.source.as_str(),
                    g.actual
                ));
            }
            if r.crashed {
                failures.push(format!("{}: crashed — {}", r.name, r.text));
            }
        }
        let report = AggregateReport {
            mode: cfg.mode.as_str().to_string(),
            experiments: records.len(),
            passed: records.iter().filter(|r| r.passed).count(),
            failed: records.iter().filter(|r| !r.passed).count(),
            resumed,
            baseline_simulations: bs,
            baseline_cache_hits: bh,
            rows: records
                .iter()
                .zip(&from_checkpoint)
                .map(|(r, &resumed)| AggregateRow {
                    name: r.name.clone(),
                    paper_ref: r.paper_ref.clone(),
                    passed: r.passed,
                    crashed: r.crashed,
                    resumed,
                    duration_ms: r.duration_ms,
                    gates_total: r.gates.len(),
                    gates_failed: r.gates.iter().filter(|g| !g.pass).count(),
                })
                .collect(),
            failures,
        };
        emit_artifact(path, &report);
    }

    SuiteReport {
        records,
        resumed,
        all_passed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_filters_by_substring() {
        let all = select(&[]);
        assert!(all.len() >= 27);
        let figs = select(&["fig1".to_string()]);
        let names: Vec<_> = figs.iter().map(|e| e.name).collect();
        assert!(names.contains(&"fig10") && names.contains(&"fig15"));
        assert!(!names.contains(&"fig2"));
        let multi = select(&["table1".to_string(), "table2".to_string()]);
        assert_eq!(multi.len(), 2);
        // `--filter <name>` runs exactly the named experiment.
        for e in &all {
            let only: Vec<_> = select(&[e.name.to_string()])
                .iter()
                .map(|s| s.name)
                .collect();
            assert_eq!(only, [e.name]);
        }
    }

    #[test]
    fn fingerprints_depend_on_mode() {
        assert_ne!(
            run_fingerprint("fig8", Mode::Fast),
            run_fingerprint("fig8", Mode::Full)
        );
        assert_eq!(
            run_fingerprint("fig8", Mode::Fast),
            run_fingerprint("fig8", Mode::Fast)
        );
    }

    #[test]
    fn fingerprints_include_the_crate_version() {
        // Pin the exact composition: name, mode, serialized options,
        // artifact schema version, and the workspace crate version. A
        // checkpoint from a build with any other version hashes
        // differently and is never resumed.
        let options = serde_json::to_string(&Mode::Fast.options()).unwrap();
        assert_eq!(
            run_fingerprint("fig8", Mode::Fast),
            fingerprint(&[
                "fig8",
                "fast",
                &options,
                &ARTIFACT_SCHEMA_VERSION.to_string(),
                env!("CARGO_PKG_VERSION"),
            ])
        );
        // And dropping the version component changes the hash.
        assert_ne!(
            run_fingerprint("fig8", Mode::Fast),
            fingerprint(&[
                "fig8",
                "fast",
                &options,
                &ARTIFACT_SCHEMA_VERSION.to_string(),
            ])
        );
    }

    #[test]
    fn static_suite_runs_parallel_and_checkpoints_resume() {
        let dir = std::env::temp_dir().join("gpm_xp_runner_test");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = RunConfig {
            mode: Mode::Fast,
            filter: vec!["table".to_string()],
            jobs: 2,
            out_dir: dir.clone(),
            resume: false,
            aggregate_path: Some(dir.join("REPRO_test.json")),
        };
        let report = run_suite(&cfg);
        assert_eq!(report.records.len(), 3);
        assert!(report.all_passed);
        assert_eq!(report.resumed, 0);
        // Order is registry order regardless of completion order.
        let names: Vec<_> = report.records.iter().map(|r| r.name.clone()).collect();
        assert_eq!(names, vec!["table1", "table2", "table4"]);
        assert!(dir.join("table1.json").exists());
        assert!(dir.join("REPRO_test.json").exists());

        // Resume reuses all three checkpoints byte-for-byte.
        let resumed_cfg = RunConfig {
            resume: true,
            ..cfg
        };
        let resumed = run_suite(&resumed_cfg);
        assert_eq!(resumed.resumed, 3);
        assert!(resumed.all_passed);
        for (a, b) in report.records.iter().zip(resumed.records.iter()) {
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.text, b.text);
        }
        // The aggregate marks every reused row.
        let aggregate = std::fs::read_to_string(dir.join("REPRO_test.json")).unwrap();
        let aggregate: Value = serde_json::from_str(&aggregate).unwrap();
        let rows = aggregate["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 3);
        assert!(
            rows.iter().all(|r| r["resumed"] == Value::Bool(true)),
            "{rows:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn text_artifacts_land_beside_the_records() {
        let dir = std::env::temp_dir().join("gpm_xp_runner_artifact_test");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = RunConfig {
            mode: Mode::Fast,
            filter: vec!["fig3".to_string()],
            jobs: 1,
            out_dir: dir.join("xp"),
            resume: false,
            aggregate_path: None,
        };
        assert!(run_suite(&cfg).all_passed);
        assert!(dir.join("xp/fig3.json").exists());
        assert!(dir.join("fig3.svg").exists());
        assert!(!Path::new("results/fig3.svg").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_run_fits_each_distinct_forest_once() {
        let dir = std::env::temp_dir().join("gpm_xp_runner_fit_test");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = RunConfig {
            mode: Mode::Fast,
            filter: [
                "transition_cost",
                "stability",
                "robustness",
                "model_accuracy",
            ]
            .map(String::from)
            .to_vec(),
            jobs: 2,
            out_dir: dir.clone(),
            resume: false,
            aggregate_path: None,
        };
        let report = run_suite(&cfg);
        assert!(report.all_passed);
        let fits = |name: &str| {
            let record = report.records.iter().find(|r| r.name == name).unwrap();
            record
                .phases
                .iter()
                .find(|p| p.phase == "rf.fit")
                .map_or(0, |p| p.count)
        };
        // Each fit trains two forests (time and power), one span each.
        // The shared context's fit happens before any experiment runs:
        // all three transition scales, the default noise seed, the
        // robustness sweep and the random split reuse it. What is left is
        // two non-default noise seeds, two leave-one-kernel-out probes
        // and the permutation-importance split.
        assert_eq!(fits("transition_cost"), 0);
        assert_eq!(fits("robustness"), 0);
        assert_eq!(fits("stability"), 4);
        assert_eq!(fits("model_accuracy"), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_fingerprints_are_not_resumed() {
        let dir = std::env::temp_dir().join("gpm_xp_runner_stale_test");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = RunConfig {
            mode: Mode::Fast,
            filter: vec!["table1".to_string()],
            jobs: 1,
            out_dir: dir.clone(),
            resume: false,
            aggregate_path: None,
        };
        run_suite(&cfg);
        // A full-mode run must not reuse the fast-mode checkpoint.
        let full_cfg = RunConfig {
            mode: Mode::Full,
            resume: true,
            ..cfg
        };
        let report = run_suite(&full_cfg);
        assert_eq!(report.resumed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
