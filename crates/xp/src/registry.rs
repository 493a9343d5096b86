//! The experiment registry: every figure, table, ablation, and
//! extension study, with its paper expectations and the golden values
//! its committed records hold.

use crate::experiment::{Expectation, Experiment, Metric, Mode, Source, XpEnv};
use crate::experiments::{ablations, extensions, figures, fleet, robustness, tables, telemetry};
use crate::runner::record_path;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// An expectation that binds in both modes with tolerance 0 — used for
/// exact structural facts (state counts, invocation counts).
fn exact(metric: &'static str, expected: f64) -> Expectation {
    Expectation {
        metric,
        expected,
        tol: 0.0,
        source: Source::Paper,
        mode: None,
    }
}

/// Experiments whose metrics time the host: their records set no golden.
const HOST_TIMED: [&str; 2] = ["fleet_scaling", "telemetry_overhead"];

/// The golden tolerance of a recorded value: exact (0) for integral
/// values, else the wider of 2% relative and 0.02 absolute — tight
/// enough to flag behaviour changes, loose enough to survive
/// cross-platform libm variance.
pub fn default_tolerance(value: f64) -> f64 {
    if value.fract() == 0.0 && value.abs() < 1e9 {
        0.0
    } else {
        (value.abs() * 0.02).max(0.02)
    }
}

/// The part of an experiment record the golden ledger reads.
#[derive(Deserialize)]
struct Recorded {
    metrics: Vec<Metric>,
}

/// The metrics of every experiment record in `dir`, by experiment name,
/// host-timed experiments left out.
///
/// # Panics
///
/// Panics, naming the file, when a record cannot be read or parsed, or
/// holds a metric that is not a finite number (the vendored JSON reader
/// turns `null` into NaN).
fn read_records(dir: &Path) -> BTreeMap<String, Vec<Metric>> {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("golden records {}: {e}", dir.display()));
    let mut records = BTreeMap::new();
    for entry in entries {
        let path = entry
            .unwrap_or_else(|e| panic!("golden records {}: {e}", dir.display()))
            .path();
        let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        if path.extension().is_none_or(|ext| ext != "json") || HOST_TIMED.contains(&name) {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("golden record {}: {e}", path.display()));
        let record: Recorded = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("golden record {}: {e}", path.display()));
        for m in &record.metrics {
            assert!(
                m.value.is_finite(),
                "golden record {}: metric {} is not a finite number",
                path.display(),
                m.name
            );
        }
        // Name order: an experiment that reorders its metrics keeps its
        // gates in place.
        let mut metrics = record.metrics;
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        records.insert(name.to_string(), metrics);
    }
    records
}

/// The committed record directory of `mode`, in the checkout this crate
/// was built from: a benchmark may run the suite from anywhere.
fn committed_dir(mode: Mode) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("the crate sits at crates/xp")
        .join(mode.record_dir())
}

/// Golden expectations for one experiment under one mode: every metric
/// of its committed record, at [`default_tolerance`]. Both modes' records
/// are read once per process, on the first call — before a run writes
/// any record, so every gate of a run compares against the committed
/// values.
///
/// # Panics
///
/// Panics, naming the file, when a non-host-timed experiment has no
/// committed record, or when a committed record cannot be parsed or
/// holds a metric that is not a finite number.
pub fn golden_for(name: &str, mode: Mode) -> Vec<Expectation> {
    static LEDGER: OnceLock<[BTreeMap<String, Vec<Metric>>; 2]> = OnceLock::new();
    if HOST_TIMED.contains(&name) {
        return Vec::new();
    }
    let ledger =
        LEDGER.get_or_init(|| [Mode::Fast, Mode::Full].map(|m| read_records(&committed_dir(m))));
    let metrics = ledger[mode as usize].get(name).unwrap_or_else(|| {
        panic!(
            "no committed record {}",
            record_path(&committed_dir(mode), name).display()
        )
    });
    metrics
        .iter()
        .map(|m| Expectation {
            metric: &m.name,
            expected: m.value,
            tol: default_tolerance(m.value),
            source: Source::Golden,
            mode: Some(mode),
        })
        .collect()
}

fn entry(
    name: &'static str,
    paper_ref: &'static str,
    title: &'static str,
    needs_ctx: bool,
    run: fn(&XpEnv) -> crate::experiment::ExperimentOutput,
    paper: Vec<Expectation>,
) -> Experiment {
    let mut expectations = paper;
    for mode in [Mode::Fast, Mode::Full] {
        expectations.extend(golden_for(name, mode));
    }
    Experiment {
        name,
        paper_ref,
        title,
        needs_ctx,
        run,
        expectations,
    }
}

/// Builds the full registry, in stable order. Paper tolerance bands are
/// wide — the substrate is an analytical simulator, not the authors'
/// A10-7850K — while golden bands (from the committed records) are
/// tight regression gates on this implementation.
pub fn registry() -> Vec<Experiment> {
    vec![
        entry(
            "fig2",
            "Figure 2",
            "Scaling classes of four kernel archetypes across NB states x CU counts",
            false,
            figures::fig2,
            vec![],
        ),
        entry(
            "fig3",
            "Figure 3",
            "Per-invocation normalized kernel throughput (Spmv, kmeans, hybridsort)",
            false,
            figures::fig3,
            vec![],
        ),
        entry(
            "fig4",
            "Figure 4",
            "Limit study: PPK vs Theoretically Optimal with perfect knowledge",
            true,
            figures::fig4,
            vec![],
        ),
        entry(
            "fig8",
            "Figure 8",
            "Headline: PPK and MPC vs AMD Turbo Core, RF prediction, overheads charged",
            true,
            figures::fig8,
            vec![
                Expectation::paper("mpc_energy_savings_pct", 24.8, 8.0),
                Expectation::paper("mpc_perf_loss_pct", 1.8, 4.0),
            ],
        ),
        entry(
            "fig9",
            "Figure 9",
            "MPC relative to PPK (savings and speedup)",
            true,
            figures::fig9,
            vec![Expectation::paper("rel_energy_savings_pct", 6.6, 8.0)],
        ),
        entry(
            "fig10",
            "Figure 10",
            "GPU-domain energy savings and CPU/GPU savings attribution",
            true,
            figures::fig10,
            vec![Expectation::paper("cpu_share_pct", 75.0, 20.0)],
        ),
        entry(
            "fig11",
            "Figure 11",
            "Amortization of the initial profiling run under re-execution",
            true,
            figures::fig11,
            vec![Expectation::paper("steady_minus_at_10", 0.0, 5.0)],
        ),
        entry(
            "fig12",
            "Figure 12",
            "MPC (perfect prediction, no overhead) vs the theoretical limit",
            true,
            figures::fig12,
            vec![
                Expectation::paper("energy_capture_pct", 92.0, 15.0),
                Expectation::paper("perf_capture_pct", 93.0, 15.0),
            ],
        ),
        entry(
            "fig13",
            "Figure 13",
            "Sensitivity to prediction accuracy (RF vs half-normal error models)",
            true,
            figures::fig13,
            vec![Expectation::paper("err0_minus_rf_pts", 2.5, 4.5)],
        ),
        entry(
            "fig14",
            "Figure 14",
            "MPC's own energy and performance overheads (worst case)",
            true,
            figures::fig14,
            vec![
                Expectation::paper("avg_energy_overhead_pct", 0.15, 0.5),
                Expectation::paper("avg_perf_overhead_pct", 0.3, 1.0),
            ],
        ),
        entry(
            "fig15",
            "Figure 15",
            "Average adaptive-horizon length as a fraction of kernel count",
            true,
            figures::fig15,
            vec![],
        ),
        entry(
            "table1",
            "Table I",
            "DVFS states of the AMD A10-7850K",
            false,
            tables::table1,
            vec![
                exact("cpu_states", 7.0),
                exact("nb_states", 4.0),
                exact("gpu_states", 5.0),
            ],
        ),
        entry(
            "table2",
            "Table II",
            "Execution patterns of the three highlighted irregular benchmarks",
            false,
            tables::table2,
            vec![],
        ),
        entry(
            "table4",
            "Table IV",
            "Benchmark inventory with execution patterns",
            false,
            tables::table4,
            vec![exact("benchmark_count", 15.0)],
        ),
        entry(
            "model_accuracy",
            "Section VI-D",
            "Random-Forest held-out accuracy, leave-one-kernel-out, feature importance",
            false,
            ablations::model_accuracy,
            vec![
                Expectation::paper("time_mape_pct", 25.0, 20.0),
                Expectation::paper("power_mape_pct", 12.0, 10.0),
            ],
        ),
        entry(
            "horizon_ablation",
            "Section VI-E",
            "Adaptive vs full horizon, with and without overheads",
            true,
            ablations::horizon_ablation,
            vec![
                Expectation::paper("ideal_minus_adaptive_pts", 2.6, 4.0),
                Expectation::paper("short_full_perf_loss_pct", 12.8, 11.0),
            ],
        ),
        entry(
            "search_cost",
            "Section IV-A1a",
            "Search cost: hill climb vs exhaustive, MPC vs exhaustive window search",
            true,
            ablations::search_cost,
            // The paper reports ~19x; our hill climb converges in fewer
            // probes than theirs, so the reduction lands higher. Gate
            // only that a large reduction exists, not its exact size.
            vec![Expectation::paper("perkernel_reduction", 25.0, 20.0)],
        ),
        entry(
            "search_order_ablation",
            "Section IV-A1a",
            "Profiling-derived search order vs plain execution order",
            false,
            ablations::search_order_ablation,
            vec![],
        ),
        entry(
            "window_solver_ablation",
            "Section IV-A1a",
            "Greedy window heuristic vs exact Eq. 3 DP",
            false,
            ablations::window_solver_ablation,
            vec![],
        ),
        entry(
            "alpha_sweep",
            "extension",
            "Adaptive-horizon overhead budget sweep around the paper's alpha = 0.05",
            true,
            ablations::alpha_sweep,
            vec![],
        ),
        entry(
            "baselines",
            "extension",
            "All policies side by side: Equalizer, PPK, MPC, TO",
            true,
            extensions::baselines,
            vec![],
        ),
        entry(
            "extended_suite",
            "extension",
            "Ten additional benchmarks with the RF trained on the figure suite only",
            true,
            extensions::extended_tier,
            vec![],
        ),
        entry(
            "generalization",
            "extension",
            "MPC on generated applications with unseen kernels",
            true,
            extensions::generalization,
            vec![],
        ),
        entry(
            "overhead_hiding",
            "extension",
            "Hiding MPC overheads inside host CPU phases",
            true,
            extensions::overhead_hiding,
            vec![],
        ),
        entry(
            "transition_cost",
            "extension",
            "Sensitivity to DVFS transition latency (0x / 1x / 10x)",
            false,
            extensions::transition_cost,
            vec![],
        ),
        entry(
            "stability",
            "extension",
            "Headline stability across measurement-noise seeds",
            false,
            extensions::stability,
            vec![],
        ),
        entry(
            "export_campaign",
            "Section V",
            "Replayable measurement-campaign export (JSON + CSV)",
            false,
            extensions::export_campaign,
            vec![],
        ),
        entry(
            "robustness",
            "extension",
            "Fault-injection degradation curve with the graceful-degradation gate",
            true,
            robustness::robustness,
            vec![Expectation {
                metric: "gate_failures",
                expected: 0.0,
                tol: 0.0,
                source: Source::Paper,
                mode: None,
            }],
        ),
        entry(
            "fleet_scaling",
            "extension",
            "Sharded fleet service: worker-count determinism and scaling",
            true,
            fleet::fleet_scaling,
            vec![exact("deterministic", 1.0)],
        ),
        entry(
            "telemetry_overhead",
            "extension",
            "Telemetry hot-path overhead, decision byte-identity, Prometheus validity",
            true,
            telemetry::telemetry_overhead,
            vec![
                exact("overhead_ok", 1.0),
                exact("byte_identical", 1.0),
                exact("prometheus_valid", 1.0),
                exact("spans_match_dispatches", 1.0),
            ],
        ),
    ]
}

/// Stable registry order of experiment names.
pub fn registry_names() -> Vec<&'static str> {
    registry().iter().map(|e| e.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::check_gates;
    use serde_json::Value;

    #[test]
    fn names_are_unique_and_nonempty() {
        let names = registry_names();
        assert!(names.len() >= 27, "expected full registry, got {names:?}");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate registry names");
    }

    #[test]
    fn expectations_reference_plausible_metrics() {
        for e in registry() {
            for exp in &e.expectations {
                assert!(!exp.metric.is_empty());
                assert!(exp.tol >= 0.0, "{}: negative tolerance", e.name);
                assert!(exp.expected.is_finite(), "{}: non-finite expected", e.name);
            }
        }
    }

    #[test]
    fn tolerance_rule_distinguishes_counts_from_measurements() {
        assert_eq!(default_tolerance(30.0), 0.0);
        assert_eq!(default_tolerance(0.0), 0.0);
        assert!((default_tolerance(24.8) - 0.496).abs() < 1e-9);
        assert_eq!(default_tolerance(0.001), 0.02);
    }

    #[test]
    fn every_experiment_but_the_host_timed_has_a_record_in_each_mode() {
        for mode in [Mode::Fast, Mode::Full] {
            let records = read_records(&committed_dir(mode));
            for name in registry_names() {
                assert!(
                    record_path(&committed_dir(mode), name).exists(),
                    "{mode}: no record of {name}"
                );
                let goldens = golden_for(name, mode);
                if HOST_TIMED.contains(&name) {
                    assert!(goldens.is_empty(), "{name} times the host");
                    continue;
                }
                assert!(!goldens.is_empty(), "{mode}: {name} records no metric");
                assert_eq!(goldens.len(), records[name].len());
                let gates = check_gates(&goldens, &records[name], mode);
                assert!(gates.iter().all(|g| g.pass), "{mode}: {name} {gates:?}");
            }
        }
    }

    /// A scratch directory holding `record`'s committed fast-mode record,
    /// its metrics passed through `edit`.
    fn edited_copy(test: &str, record: &str, edit: impl Fn(&mut Vec<Value>)) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gpm_xp_{test}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let committed = record_path(&committed_dir(Mode::Fast), record);
        let mut value: Value =
            serde_json::from_str(&std::fs::read_to_string(committed).unwrap()).unwrap();
        let Value::Seq(metrics) = &mut value["metrics"] else {
            panic!("a record's metrics are an array")
        };
        edit(metrics);
        std::fs::write(
            record_path(&dir, record),
            serde_json::to_string(&value).unwrap(),
        )
        .unwrap();
        dir
    }

    /// The message of the panic `f` raises.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let panic = std::panic::catch_unwind(f).expect_err("expected a panic");
        panic.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn moving_one_metric_past_its_tolerance_fails_that_gate() {
        let goldens = golden_for("fig8", Mode::Fast);
        let moved = goldens
            .iter()
            .position(|g| g.tol > 0.0)
            .expect("fig8 has a measured metric");
        let golden = &goldens[moved];
        for (shift, passes) in [(0.5, true), (1.5, false)] {
            let dir = edited_copy("moved_metric", "fig8", |metrics| {
                let m = metrics
                    .iter_mut()
                    .find(|m| m["name"].as_str() == Some(golden.metric))
                    .unwrap();
                m["value"] = Value::F64(golden.expected + shift * golden.tol);
            });
            let gates = check_gates(&goldens, &read_records(&dir)["fig8"], Mode::Fast);
            for (i, g) in gates.iter().enumerate() {
                assert_eq!(g.pass, passes || i != moved, "shift {shift}: {g:?}");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_missing_record_fails_loudly_naming_the_file() {
        let message = panic_message(|| {
            golden_for("definitely-not-registered", Mode::Fast);
        });
        assert!(
            message.contains("results/fast/xp/definitely-not-registered.json"),
            "{message}"
        );
    }

    #[test]
    fn a_null_metric_fails_loudly_naming_the_file_and_metric() {
        let dir = edited_copy("null_metric", "fig9", |metrics| {
            metrics[0]["value"] = Value::Null;
        });
        let path = record_path(&dir, "fig9");
        let message = panic_message(|| {
            read_records(&dir);
        });
        assert!(message.contains(&path.display().to_string()), "{message}");
        assert!(
            message.contains("metric rel_energy_savings_pct is not a finite number"),
            "{message}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn static_experiments_run_and_pass_their_gates() {
        for name in ["table1", "table2", "table4"] {
            let e = registry().into_iter().find(|e| e.name == name).unwrap();
            assert!(!e.needs_ctx);
            let forests = gpm_harness::ForestCache::new();
            let env = XpEnv::new(Mode::Fast, None, &forests, Path::new("results/fast"));
            let out = (e.run)(&env);
            let gates = check_gates(&e.expectations, &out.metrics, Mode::Fast);
            for g in &gates {
                assert!(g.pass, "{name}: gate {} failed: {g:?}", g.metric);
            }
        }
    }
}
