//! Section IV/VI design-study ablations as registry run functions.

use crate::experiment::{metric, ExperimentOutput, XpEnv};
use crate::suite::evaluate_suite_with;
use gpm_governors::search::{exhaustive_best, hill_climb, EnergyEvaluator};
use gpm_governors::OverheadModel;
use gpm_harness::metrics::{summarize, Comparison};
use gpm_harness::report::{fmt, Table};
use gpm_harness::{context, parallel_campaign_auto, turbo_core_baseline, Scheme};
use gpm_hw::{ConfigSpace, HwConfig};
use gpm_model::{permutation_importance, RandomForestPredictor, FEATURE_NAMES};
use gpm_mpc::{HorizonMode, MpcConfig, MpcGovernor, WindowSolver};
use gpm_sim::predictor::KernelSnapshot;
use gpm_sim::{ApuSimulator, OraclePredictor, SimParams};
use gpm_workloads::{suite, Workload};
use std::fmt::Write;

/// The suite, thinned to every third benchmark in fast mode — used by
/// the context-free full-horizon ablations whose cost the shared fast
/// campaign cannot reduce.
fn ablation_suite(env: &XpEnv) -> Vec<Workload> {
    suite()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !env.is_fast() || i % 3 == 0)
        .map(|(_, w)| w)
        .collect()
}

/// Extension: sweeping the adaptive horizon's overhead budget α (the
/// paper fixes α = 0.05 without a sensitivity study).
pub fn alpha_sweep(env: &XpEnv) -> ExperimentOutput {
    let exec = env.exec();
    let alphas: &[f64] = if env.is_fast() {
        &[0.01, 0.05, 0.25]
    } else {
        &[0.01, 0.02, 0.05, 0.10, 0.25]
    };

    let mut table = Table::new(vec![
        "alpha",
        "avg energy savings (%)",
        "avg speedup",
        "avg horizon (% of N)",
        "avg perf overhead (%)",
    ]);
    let mut at_005 = (0.0, 1.0);
    for &alpha in alphas {
        eprintln!("  alpha = {alpha} ...");
        let mut cs = Vec::new();
        let mut horizon_frac_sum = 0.0;
        let mut overhead_sum = 0.0;
        let workloads = suite();
        for w in &workloads {
            let out = exec.evaluate(
                env.ctx(),
                w,
                Scheme::MpcRf {
                    horizon: HorizonMode::Adaptive { alpha },
                },
            );
            cs.push(Comparison::between(&out.baseline, &out.measured));
            let stats = out.mpc_stats.expect("MPC stats");
            horizon_frac_sum += stats.average_horizon_fraction(w.len());
            overhead_sum += out.measured.overhead_time_s / out.baseline.wall_time_s();
        }
        let a = summarize(&cs);
        let n = workloads.len() as f64;
        if (alpha - 0.05).abs() < 1e-12 {
            at_005 = (a.energy_savings_pct, a.speedup);
        }
        table.row(vec![
            fmt(alpha, 2),
            fmt(a.energy_savings_pct, 1),
            fmt(a.speedup, 3),
            fmt(horizon_frac_sum / n * 100.0, 1),
            fmt(overhead_sum / n * 100.0, 3),
        ]);
    }
    let out = format!(
        "Adaptive-horizon budget sweep (the paper fixes alpha = 0.05)\n{}",
        table.render()
    );
    ExperimentOutput::new(
        out,
        vec![
            metric("savings_alpha_005", at_005.0),
            metric("speedup_alpha_005", at_005.1),
        ],
    )
}

/// Section VI-E ablation: adaptive horizon vs full horizon, with and
/// without overheads, plus the short-kernel regime.
pub fn horizon_ablation(env: &XpEnv) -> ExperimentOutput {
    let exec = env.exec();
    let ctx = env.ctx();
    let adaptive = evaluate_suite_with(
        &exec,
        ctx,
        Scheme::MpcRf {
            horizon: HorizonMode::default(),
        },
    );
    let full = evaluate_suite_with(
        &exec,
        ctx,
        Scheme::MpcRf {
            horizon: HorizonMode::Full,
        },
    );
    let ideal = evaluate_suite_with(&exec, ctx, Scheme::MpcRfIdealized);

    let mut table = Table::new(vec![
        "benchmark",
        "adaptive savings (%)",
        "full-horizon savings (%)",
        "no-overhead savings (%)",
        "adaptive speedup",
        "full-horizon speedup",
    ]);
    for ((a, f), i) in adaptive.iter().zip(full.iter()).zip(ideal.iter()) {
        table.row(vec![
            a.workload.name().to_string(),
            fmt(a.vs_baseline.energy_savings_pct, 1),
            fmt(f.vs_baseline.energy_savings_pct, 1),
            fmt(i.vs_baseline.energy_savings_pct, 1),
            fmt(a.vs_baseline.speedup, 3),
            fmt(f.vs_baseline.speedup, 3),
        ]);
    }
    let aa = crate::suite::suite_average(&adaptive);
    let fa = crate::suite::suite_average(&full);
    let ia = crate::suite::suite_average(&ideal);
    table.row(vec![
        "AVERAGE".to_string(),
        fmt(aa.energy_savings_pct, 1),
        fmt(fa.energy_savings_pct, 1),
        fmt(ia.energy_savings_pct, 1),
        fmt(aa.speedup, 3),
        fmt(fa.speedup, 3),
    ]);

    let mut out = format!(
        "Section VI-E ablation: adaptive vs full horizon\n{}",
        table.render()
    );
    writeln!(
        out,
        "adaptive: {:.1}% savings / {:.1}% perf loss; full horizon w/ overheads: {:.1}% / {:.1}% (paper: 24.8/1.8 vs 15.4/12.8)",
        aa.energy_savings_pct,
        (1.0 - aa.speedup) * 100.0,
        fa.energy_savings_pct,
        (1.0 - fa.speedup) * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "no-overhead full horizon saves {:.1}% more energy than adaptive (paper: 2.6%)",
        ia.energy_savings_pct - aa.energy_savings_pct
    )
    .unwrap();

    // Short-kernel regime: the paper's benchmarks have millisecond-scale
    // kernels, so optimizer time is ~10× larger *relative to kernel time*
    // than in our simulator. Scale the overhead model up accordingly to
    // reproduce the full-horizon collapse of Section VI-E.
    let short = OverheadModel {
        per_eval_s: 200e-6,
        base_s: 300e-6,
    };
    let adaptive_short = evaluate_suite_with(
        &exec,
        ctx,
        Scheme::MpcRfOverhead {
            horizon: HorizonMode::default(),
            overhead: short,
        },
    );
    let full_short = evaluate_suite_with(
        &exec,
        ctx,
        Scheme::MpcRfOverhead {
            horizon: HorizonMode::Full,
            overhead: short,
        },
    );
    let asr = crate::suite::suite_average(&adaptive_short);
    let fsr = crate::suite::suite_average(&full_short);
    writeln!(
        out,
        "\nshort-kernel regime (optimizer cost x10 relative to kernels):"
    )
    .unwrap();
    writeln!(
        out,
        "  adaptive: {:.1}% savings / {:.1}% perf loss; full horizon: {:.1}% / {:.1}%",
        asr.energy_savings_pct,
        (1.0 - asr.speedup) * 100.0,
        fsr.energy_savings_pct,
        (1.0 - fsr.speedup) * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "  (paper: adaptive 24.8%/1.8% vs full-horizon 15.4%/12.8%)"
    )
    .unwrap();

    ExperimentOutput::new(
        out,
        vec![
            metric("adaptive_savings_pct", aa.energy_savings_pct),
            metric("full_savings_pct", fa.energy_savings_pct),
            metric(
                "ideal_minus_adaptive_pts",
                ia.energy_savings_pct - aa.energy_savings_pct,
            ),
            metric("short_adaptive_savings_pct", asr.energy_savings_pct),
            metric("short_full_perf_loss_pct", (1.0 - fsr.speedup) * 100.0),
        ],
    )
}

/// Section VI-D: Random-Forest prediction accuracy — random split,
/// leave-one-kernel-out, and permutation feature importance.
pub fn model_accuracy(env: &XpEnv) -> ExperimentOutput {
    let options = env.options();
    let sim = ApuSimulator::new(options.sim_params.clone());
    let kernels = context::training_kernels();
    let space = context::training_space(options.train_config_stride);
    eprintln!(
        "campaign: {} kernels x {} configurations = {} samples",
        kernels.len(),
        space.len(),
        kernels.len() * space.len()
    );
    // The same campaign and random split as the shared context, so the
    // run's forest cache already holds this fit.
    let (dataset, report) = {
        let _span = gpm_telemetry::span("xp.context_build");
        let dataset = parallel_campaign_auto(&sim, &kernels, &space, HwConfig::FAIL_SAFE);
        let (_, report) = env.forests().fit(
            dataset.clone(),
            &options.forest,
            options.test_fraction,
            options.seed,
        );
        (dataset, report)
    };
    let mut out = format!(
        "Random split: time MAPE {:.1}%  power MAPE {:.1}%  time R2 {:.3}  power R2 {:.3}\n\
         (paper reports 25% performance MAPE and 12% power MAPE)\n\n",
        report.time_mape * 100.0,
        report.power_mape * 100.0,
        report.time_r2,
        report.power_r2
    );

    let mut table = Table::new(vec!["held-out kernel", "time MAPE (%)", "power MAPE (%)"]);
    let probes: &[&str] = if env.is_fast() {
        &["mandelbulb", "spmv_ellpackr"]
    } else {
        &[
            "mandelbulb",
            "lbm_collide_stream",
            "spmv_ellpackr",
            "kmeans_swap",
            "mergeSortPass_F5",
        ]
    };
    let mut sums = (0.0, 0.0);
    {
        let _span = gpm_telemetry::span("xp.model_accuracy.loko");
        for probe in probes {
            let (train, test) = dataset.split_leave_kernel_out(probe);
            let rf = RandomForestPredictor::train(&train, &options.forest, options.seed);
            let r = rf.evaluate(&test, train.len());
            sums.0 += r.time_mape;
            sums.1 += r.power_mape;
            table.row(vec![
                probe.to_string(),
                fmt(r.time_mape * 100.0, 1),
                fmt(r.power_mape * 100.0, 1),
            ]);
        }
    }
    let loko_time = sums.0 / probes.len() as f64 * 100.0;
    table.row(vec![
        "AVERAGE".to_string(),
        fmt(loko_time, 1),
        fmt(sums.1 / probes.len() as f64 * 100.0, 1),
    ]);
    writeln!(out, "Leave-one-kernel-out accuracy:\n{}", table.render()).unwrap();

    let (time_imp, power_imp) = {
        let _span = gpm_telemetry::span("model.permutation_importance");
        let (train, test) = dataset.split(0.2, options.seed);
        let rf = RandomForestPredictor::train(&train, &options.forest, options.seed);
        (
            permutation_importance(rf.time_forest(), &test, &test.ys_log_time(), 7),
            permutation_importance(rf.power_forest(), &test, test.gpu_power_w(), 7),
        )
    };
    let mut imp_table = Table::new(vec!["feature", "time importance", "power importance"]);
    for (i, name) in FEATURE_NAMES.iter().enumerate() {
        imp_table.row(vec![
            name.to_string(),
            fmt(time_imp[i].score(), 3),
            fmt(power_imp[i].score(), 3),
        ]);
    }
    writeln!(
        out,
        "Permutation feature importance (relative RMSE increase):\n{}",
        imp_table.render()
    )
    .unwrap();

    ExperimentOutput::new(
        out,
        vec![
            metric("time_mape_pct", report.time_mape * 100.0),
            metric("power_mape_pct", report.power_mape * 100.0),
            metric("loko_time_mape_pct", loko_time),
        ],
    )
}

/// Section IV-A1a ablation: search cost of the greedy hill climb vs
/// exhaustive per-kernel search, and of heuristic MPC vs an exhaustive
/// window search.
pub fn search_cost(env: &XpEnv) -> ExperimentOutput {
    let sim = ApuSimulator::noiseless();
    let eval = EnergyEvaluator::new(OraclePredictor::new(&sim), SimParams::noiseless());
    let space = ConfigSpace::paper_campaign();

    let mut table = Table::new(vec![
        "kernel",
        "exhaustive evals",
        "hill-climb evals",
        "reduction",
        "energy gap (%)",
    ]);
    let mut kernels = Vec::new();
    for w in suite() {
        if let Some(k) = w.kernels().first() {
            kernels.push(k.clone());
        }
    }
    let (mut red_sum, mut n) = (0.0, 0);
    for k in &kernels {
        let out = sim.evaluate_exact(k, HwConfig::FAIL_SAFE);
        let snap = KernelSnapshot::with_truth(out.counters, HwConfig::FAIL_SAFE, k.clone());
        let cap = out.time_s * 1.1;
        let (ex, ex_evals) = exhaustive_best(&eval, &snap, &space, cap);
        let (hc, stats) = hill_climb(&eval, &snap, HwConfig::FAIL_SAFE, cap);
        let hc_evals = stats.evaluations;
        let (Some(ex), Some(hc)) = (ex, hc) else {
            continue;
        };
        let reduction = ex_evals as f64 / hc_evals as f64;
        red_sum += reduction;
        n += 1;
        table.row(vec![
            k.name().to_string(),
            ex_evals.to_string(),
            hc_evals.to_string(),
            format!("{reduction:.1}x"),
            fmt((hc.energy_j / ex.energy_j - 1.0) * 100.0, 2),
        ]);
    }
    let perkernel = red_sum / n as f64;
    let mut out = format!(
        "Search-cost ablation (per-kernel): hill climb vs exhaustive\n{}",
        table.render()
    );
    writeln!(out, "average reduction: {perkernel:.1}x (paper: ~19x)\n").unwrap();

    // System level: measured MPC evaluations vs the exhaustive window
    // bound, on the shared context.
    let exec = env.exec();
    let mpc = evaluate_suite_with(
        &exec,
        env.ctx(),
        Scheme::MpcRf {
            horizon: HorizonMode::default(),
        },
    );
    let mut table2 = Table::new(vec![
        "benchmark",
        "MPC evals (measured)",
        "exhaustive-MPC evals (N*M*avgH)",
        "reduction",
    ]);
    let mut total_ratio = 0.0;
    for row in &mpc {
        let stats = row.outcome.mpc_stats.as_ref().unwrap();
        let measured = stats.total_evaluations().max(1);
        let n_k = row.workload.len() as f64;
        let avg_h = stats.average_horizon().max(1.0);
        // Exhaustive (non-backtracking) MPC would price every config for
        // every window kernel; backtracking is exponentially worse still.
        let exhaustive = n_k * 336.0 * avg_h;
        let ratio = exhaustive / measured as f64;
        total_ratio += ratio;
        table2.row(vec![
            row.workload.name().to_string(),
            measured.to_string(),
            fmt(exhaustive, 0),
            format!("{ratio:.0}x"),
        ]);
    }
    let system = total_ratio / mpc.len() as f64;
    writeln!(
        out,
        "Search-cost ablation (system): measured MPC vs exhaustive window search\n{}",
        table2.render()
    )
    .unwrap();
    writeln!(
        out,
        "average reduction: {system:.0}x (paper: ~65x vs backtracking MPC)"
    )
    .unwrap();

    ExperimentOutput::new(
        out,
        vec![
            metric("perkernel_reduction", perkernel),
            metric("system_reduction", system),
        ],
    )
}

/// Section IV-A1a ablation: profiling-derived search order vs plain
/// execution order in the greedy window optimizer.
pub fn search_order_ablation(env: &XpEnv) -> ExperimentOutput {
    let sim = ApuSimulator::default();
    let exec = env.exec();
    let mut table = Table::new(vec![
        "benchmark",
        "ordered savings (%)",
        "exec-order savings (%)",
        "ordered speedup",
        "exec-order speedup",
    ]);

    let mut ordered_cs = Vec::new();
    let mut plain_cs = Vec::new();
    for w in ablation_suite(env) {
        eprintln!("  search-order ablation on {} ...", w.name());
        let (baseline, target) = turbo_core_baseline(&sim, &w);
        let mut row = vec![w.name().to_string()];
        let mut comparisons = Vec::new();
        for use_search_order in [true, false] {
            let cfg = MpcConfig {
                horizon_mode: HorizonMode::Full,
                overhead: OverheadModel::free(),
                store_truth: true,
                use_search_order,
                ..MpcConfig::default()
            };
            let mut gov = MpcGovernor::new(OraclePredictor::new(&sim), sim.params().clone(), cfg);
            exec.run(&sim, &w, &mut gov, target, 0, true);
            let measured = exec.run(&sim, &w, &mut gov, target, 1, true);
            comparisons.push(Comparison::between(&baseline, &measured));
        }
        row.push(fmt(comparisons[0].energy_savings_pct, 1));
        row.push(fmt(comparisons[1].energy_savings_pct, 1));
        row.push(fmt(comparisons[0].speedup, 3));
        row.push(fmt(comparisons[1].speedup, 3));
        table.row(row);
        ordered_cs.push(comparisons[0]);
        plain_cs.push(comparisons[1]);
    }
    let oa = summarize(&ordered_cs);
    let pa = summarize(&plain_cs);
    table.row(vec![
        "AVERAGE".into(),
        fmt(oa.energy_savings_pct, 1),
        fmt(pa.energy_savings_pct, 1),
        fmt(oa.speedup, 3),
        fmt(pa.speedup, 3),
    ]);

    let mut out = format!(
        "Search-order ablation: Section IV-A1a ordering vs plain execution order\n{}",
        table.render()
    );
    writeln!(
        out,
        "search order buys {:+.1} pts of savings and {:+.1}% performance on average",
        oa.energy_savings_pct - pa.energy_savings_pct,
        (oa.speedup / pa.speedup - 1.0) * 100.0
    )
    .unwrap();
    ExperimentOutput::new(
        out,
        vec![
            metric("ordered_savings_pct", oa.energy_savings_pct),
            metric("plain_savings_pct", pa.energy_savings_pct),
            metric(
                "order_gain_pts",
                oa.energy_savings_pct - pa.energy_savings_pct,
            ),
        ],
    )
}

/// Section IV-A1a ablation: the greedy window heuristic vs the exact
/// Eq. 3 DP window optimization.
pub fn window_solver_ablation(env: &XpEnv) -> ExperimentOutput {
    let sim = ApuSimulator::default();
    let exec = env.exec();
    let mut table = Table::new(vec![
        "benchmark",
        "greedy savings (%)",
        "exact savings (%)",
        "greedy speedup",
        "exact speedup",
        "greedy evals",
        "exact evals",
        "cost ratio",
    ]);

    let mut ratios = Vec::new();
    let mut greedy_cs = Vec::new();
    let mut exact_cs = Vec::new();
    for w in ablation_suite(env) {
        eprintln!("  window-solver ablation on {} ...", w.name());
        let (baseline, target) = turbo_core_baseline(&sim, &w);
        let mut row: Vec<String> = vec![w.name().to_string()];
        let mut evals = [0u64; 2];
        let mut comparisons = Vec::new();
        for (i, solver) in [WindowSolver::Greedy, WindowSolver::ExactDp]
            .iter()
            .enumerate()
        {
            let cfg = MpcConfig {
                horizon_mode: HorizonMode::Full,
                overhead: OverheadModel::free(),
                store_truth: true,
                solver: *solver,
                ..MpcConfig::default()
            };
            let mut gov = MpcGovernor::new(OraclePredictor::new(&sim), sim.params().clone(), cfg);
            exec.run(&sim, &w, &mut gov, target, 0, true);
            let measured = exec.run(&sim, &w, &mut gov, target, 1, true);
            let c = Comparison::between(&baseline, &measured);
            comparisons.push(c);
            row.push(fmt(c.energy_savings_pct, 1));
            row.push(fmt(c.speedup, 3));
            evals[i] = gov.stats().total_evaluations();
        }
        // Reorder: savings pair, speedup pair, eval columns.
        let (g_sav, g_spd, e_sav, e_spd) = (
            row[1].clone(),
            row[2].clone(),
            row[3].clone(),
            row[4].clone(),
        );
        let ratio = evals[1] as f64 / evals[0].max(1) as f64;
        ratios.push(ratio);
        greedy_cs.push(comparisons[0]);
        exact_cs.push(comparisons[1]);
        table.row(vec![
            row[0].clone(),
            g_sav,
            e_sav,
            g_spd,
            e_spd,
            evals[0].to_string(),
            evals[1].to_string(),
            format!("{ratio:.0}x"),
        ]);
    }

    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let ga = summarize(&greedy_cs);
    let ea = summarize(&exact_cs);
    let mut out = format!(
        "Window-solver ablation: greedy heuristic vs exact Eq. 3 DP (oracle, full horizon)\n{}",
        table.render()
    );
    writeln!(
        out,
        "average search-cost ratio: {avg:.0}x (paper: ~65x vs exhaustive backtracking MPC)"
    )
    .unwrap();
    ExperimentOutput::new(
        out,
        vec![
            metric("greedy_savings_pct", ga.energy_savings_pct),
            metric("exact_savings_pct", ea.energy_savings_pct),
            metric("avg_cost_ratio", avg),
        ],
    )
}
