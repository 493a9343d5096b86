//! The experiment registry: every figure, table, ablation, and
//! extension study, with its paper expectations and recorded golden
//! values.

use crate::experiment::{Expectation, Experiment, Mode, Source, XpEnv};
use crate::experiments::{ablations, extensions, figures, fleet, robustness, tables, telemetry};
use crate::golden::golden_for;

/// A golden expectation that binds in both modes with tolerance 0 —
/// used for exact structural facts (state counts, invocation counts).
fn exact(metric: &'static str, expected: f64) -> Expectation {
    Expectation {
        metric,
        expected,
        tol: 0.0,
        source: Source::Paper,
        mode: None,
    }
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
/// A10-7850K — while golden bands (merged from [`crate::golden`]) are
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
    fn static_experiments_run_and_pass_their_gates() {
        use crate::experiment::{check_gates, Mode, XpEnv};
        for name in ["table1", "table2", "table4"] {
            let e = registry().into_iter().find(|e| e.name == name).unwrap();
            assert!(!e.needs_ctx);
            let forests = gpm_harness::ForestCache::new();
            let env = XpEnv::new(Mode::Fast, None, &forests);
            let out = (e.run)(&env);
            let gates = check_gates(&e.expectations, &out.metrics, Mode::Fast);
            for g in &gates {
                assert!(g.pass, "{name}: gate {} failed: {g:?}", g.metric);
            }
        }
    }
}
