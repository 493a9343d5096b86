//! Paper figures 2–15 as registry run functions.

use super::mpc_headline;
use crate::artifact::emit_text;
use crate::experiment::{metric, ExperimentOutput, XpEnv};
use crate::suite::{evaluate_suite_with, relative_rows, rows_details, suite_average, BenchRow};
use gpm_harness::amortize::amortization;
use gpm_harness::metrics::geo_mean;
use gpm_harness::report::{fmt, Table};
use gpm_harness::svg::{bar_chart, line_chart, BarSeries};
use gpm_harness::traces::{fig2_sweep, fig3_trace};
use gpm_harness::Scheme;
use gpm_model::ErrorSpec;
use gpm_sim::{ApuSimulator, KernelCharacteristics};
use gpm_workloads::{
    astar, max_flops, read_global_memory_coalesced, suite, workload_by_name, write_candidates,
};
use std::fmt::Write;

fn fig2_panel(
    out: &mut String,
    sim: &ApuSimulator,
    title: &str,
    kernel: &KernelCharacteristics,
) -> f64 {
    let points = fig2_sweep(sim, kernel);
    writeln!(
        out,
        "({title}) — speedup vs [NB3, 2 CUs]; '*' marks the energy-optimal point"
    )
    .unwrap();
    write!(out, "{:>6}", "CUs").unwrap();
    for cu in [2u32, 4, 6, 8] {
        write!(out, "{cu:>10}").unwrap();
    }
    writeln!(out).unwrap();
    for nb in gpm_hw::NbState::ALL {
        write!(out, "{:>6}", nb.to_string()).unwrap();
        for cu in [2u32, 4, 6, 8] {
            let p = points.iter().find(|p| p.nb == nb && p.cu == cu).unwrap();
            let mark = if p.energy_optimal { "*" } else { " " };
            write!(out, "{:>9.2}{mark}", p.speedup).unwrap();
        }
        writeln!(out).unwrap();
    }
    writeln!(out).unwrap();
    points.iter().map(|p| p.speedup).fold(0.0, f64::max)
}

/// Figure 2: scaling classes of the four kernel archetypes across NB
/// states × CU counts (no evaluation context needed).
pub fn fig2(_env: &XpEnv) -> ExperimentOutput {
    let sim = ApuSimulator::default();
    let mut out = String::from("Figure 2: GPGPU kernel scaling classes\n\n");
    let compute = fig2_panel(&mut out, &sim, "a: compute-bound — MaxFlops", &max_flops());
    let mem = fig2_panel(
        &mut out,
        &sim,
        "b: memory-bound — readGlobalMemoryCoalesced",
        &read_global_memory_coalesced(),
    );
    let peak = fig2_panel(
        &mut out,
        &sim,
        "c: peak — writeCandidates",
        &write_candidates(),
    );
    let unscalable = fig2_panel(&mut out, &sim, "d: unscalable — astar", &astar());
    ExperimentOutput::new(
        out,
        vec![
            metric("compute_max_speedup", compute),
            metric("memory_max_speedup", mem),
            metric("peak_max_speedup", peak),
            metric("unscalable_max_speedup", unscalable),
        ],
    )
}

/// Figure 3: per-invocation normalized kernel throughput for the three
/// highlighted irregular benchmarks, plus the SVG rendition.
pub fn fig3(env: &XpEnv) -> ExperimentOutput {
    let sim = ApuSimulator::default();
    let mut out = String::from("Figure 3: normalized kernel throughput by execution order\n\n");
    let mut metrics = Vec::new();
    let mut svg_series = Vec::new();
    for name in ["Spmv", "kmeans", "hybridsort"] {
        let w = workload_by_name(name).unwrap();
        let trace = fig3_trace(&sim, &w);
        writeln!(out, "{name} ({} invocations):", trace.len()).unwrap();
        for (i, v) in trace.iter().enumerate() {
            let bar = "#".repeat((v * 12.0).round().clamp(0.0, 60.0) as usize);
            writeln!(out, "  {:>3}  {v:>6.2}  {bar}", i + 1).unwrap();
        }
        writeln!(out).unwrap();
        let key = name.to_lowercase();
        metrics.push(metric(format!("{key}_invocations"), trace.len() as f64));
        metrics.push(metric(
            format!("{key}_mean_throughput"),
            trace.iter().sum::<f64>() / trace.len() as f64,
        ));
        svg_series.push(BarSeries {
            name: name.to_string(),
            values: trace,
        });
    }
    let svg = line_chart(
        "Figure 3: kernel throughput (normalized to overall)",
        &svg_series,
        "normalized throughput",
    );
    emit_text(env.artifact("fig3.svg"), &svg);
    ExperimentOutput::new(out, metrics)
}

/// Renders the shared two-scheme suite table (per-benchmark savings and
/// speedups, AVERAGE row) and returns the suite averages.
fn two_scheme_table(
    a_name: &str,
    a: &[BenchRow],
    b_name: &str,
    b: &[BenchRow],
) -> (
    String,
    gpm_harness::metrics::Comparison,
    gpm_harness::metrics::Comparison,
) {
    let mut table = Table::new(vec![
        "benchmark".to_string(),
        format!("{a_name} energy savings (%)"),
        format!("{b_name} energy savings (%)"),
        format!("{a_name} speedup"),
        format!("{b_name} speedup"),
    ]);
    for (ra, rb) in a.iter().zip(b.iter()) {
        table.row(vec![
            ra.workload.name().to_string(),
            fmt(ra.vs_baseline.energy_savings_pct, 1),
            fmt(rb.vs_baseline.energy_savings_pct, 1),
            fmt(ra.vs_baseline.speedup, 3),
            fmt(rb.vs_baseline.speedup, 3),
        ]);
    }
    let aa = suite_average(a);
    let ba = suite_average(b);
    table.row(vec![
        "AVERAGE".to_string(),
        fmt(aa.energy_savings_pct, 1),
        fmt(ba.energy_savings_pct, 1),
        fmt(aa.speedup, 3),
        fmt(ba.speedup, 3),
    ]);
    (table.render(), aa, ba)
}

/// Figure 4: the limit study — PPK vs Theoretically Optimal, both with
/// perfect knowledge and zero overheads.
pub fn fig4(env: &XpEnv) -> ExperimentOutput {
    let exec = env.exec();
    let ppk = evaluate_suite_with(&exec, env.ctx(), Scheme::PpkOracle);
    let to = evaluate_suite_with(&exec, env.ctx(), Scheme::TheoreticallyOptimal);
    let (tbl, pa, ta) = two_scheme_table("PPK", &ppk, "TO", &to);
    let out = format!(
        "Figure 4: Predict Previous Kernel vs Theoretically Optimal (perfect knowledge)\n{tbl}"
    );
    ExperimentOutput::new(
        out,
        vec![
            metric("ppk_energy_savings_pct", pa.energy_savings_pct),
            metric("to_energy_savings_pct", ta.energy_savings_pct),
            metric("ppk_speedup", pa.speedup),
            metric("to_speedup", ta.speedup),
        ],
    )
    .with_details(rows_details(&to))
}

/// Figure 8: PPK and MPC vs AMD Turbo Core, RF prediction, overheads
/// charged — the paper's headline exhibit (24.8% savings, 1.8% loss).
pub fn fig8(env: &XpEnv) -> ExperimentOutput {
    let exec = env.exec();
    let ppk = evaluate_suite_with(&exec, env.ctx(), Scheme::PpkRf);
    let mpc = evaluate_suite_with(&exec, env.ctx(), mpc_headline());
    let (tbl, pa, ma) = two_scheme_table("PPK", &ppk, "MPC", &mpc);
    let mut out = format!(
        "Figure 8: PPK and MPC vs AMD Turbo Core (RF prediction, overheads included)\n{tbl}"
    );
    writeln!(
        out,
        "MPC headline: {:.1}% energy savings, {:.1}% performance loss (paper: 24.8% / 1.8%)",
        ma.energy_savings_pct,
        (1.0 - ma.speedup) * 100.0
    )
    .unwrap();

    let cats: Vec<String> = ppk.iter().map(|r| r.workload.name().to_string()).collect();
    let savings = bar_chart(
        "Figure 8(a): energy savings over AMD Turbo Core",
        &cats,
        &[
            BarSeries {
                name: "PPK".into(),
                values: ppk
                    .iter()
                    .map(|r| r.vs_baseline.energy_savings_pct)
                    .collect(),
            },
            BarSeries {
                name: "MPC".into(),
                values: mpc
                    .iter()
                    .map(|r| r.vs_baseline.energy_savings_pct)
                    .collect(),
            },
        ],
        "energy savings (%)",
        Some(0.0),
    );
    let speedup = bar_chart(
        "Figure 8(b): speedup over AMD Turbo Core",
        &cats,
        &[
            BarSeries {
                name: "PPK".into(),
                values: ppk.iter().map(|r| r.vs_baseline.speedup).collect(),
            },
            BarSeries {
                name: "MPC".into(),
                values: mpc.iter().map(|r| r.vs_baseline.speedup).collect(),
            },
        ],
        "speedup",
        Some(1.0),
    );
    emit_text(env.artifact("fig8a.svg"), &savings);
    emit_text(env.artifact("fig8b.svg"), &speedup);

    ExperimentOutput::new(
        out,
        vec![
            metric("mpc_energy_savings_pct", ma.energy_savings_pct),
            metric("mpc_perf_loss_pct", (1.0 - ma.speedup) * 100.0),
            metric("mpc_speedup", ma.speedup),
            metric("ppk_energy_savings_pct", pa.energy_savings_pct),
            metric("ppk_speedup", pa.speedup),
        ],
    )
    .with_details(rows_details(&mpc))
}

/// Figure 9: MPC relative to PPK (both RF-driven, overheads charged).
pub fn fig9(env: &XpEnv) -> ExperimentOutput {
    let exec = env.exec();
    let ppk = evaluate_suite_with(&exec, env.ctx(), Scheme::PpkRf);
    let mpc = evaluate_suite_with(&exec, env.ctx(), mpc_headline());
    let rel = relative_rows(&mpc, &ppk);

    let mut table = Table::new(vec![
        "benchmark",
        "MPC energy savings over PPK (%)",
        "MPC speedup over PPK",
    ]);
    for (name, c) in &rel {
        table.row(vec![
            name.clone(),
            fmt(c.energy_savings_pct, 1),
            fmt(c.speedup, 3),
        ]);
    }
    let avg = gpm_harness::metrics::summarize(&rel.iter().map(|(_, c)| *c).collect::<Vec<_>>());
    let speedups: Vec<f64> = rel.iter().map(|(_, c)| c.speedup).collect();
    let rel_speedup = geo_mean(&speedups);
    table.row(vec![
        "AVERAGE".to_string(),
        fmt(avg.energy_savings_pct, 1),
        fmt(rel_speedup, 3),
    ]);

    let mut out = format!(
        "Figure 9: MPC vs PPK (RF prediction, overheads included)\n{}",
        table.render()
    );
    writeln!(
        out,
        "headline: {:.1}% energy savings, {:+.1}% performance (paper: 6.6% / +9.6%)",
        avg.energy_savings_pct,
        (rel_speedup - 1.0) * 100.0
    )
    .unwrap();
    ExperimentOutput::new(
        out,
        vec![
            metric("rel_energy_savings_pct", avg.energy_savings_pct),
            metric("rel_speedup", rel_speedup),
        ],
    )
}

/// Figure 10: GPU-domain energy savings, plus Section VI-A's CPU/GPU
/// attribution of the chip-wide savings (paper: 75% / 25%).
pub fn fig10(env: &XpEnv) -> ExperimentOutput {
    let exec = env.exec();
    let ppk = evaluate_suite_with(&exec, env.ctx(), Scheme::PpkRf);
    let mpc = evaluate_suite_with(&exec, env.ctx(), mpc_headline());

    let mut table = Table::new(vec![
        "benchmark",
        "PPK GPU energy savings (%)",
        "MPC GPU energy savings (%)",
        "MPC chip-wide savings (%)",
    ]);
    let mut gpu_sum = 0.0;
    for (p, m) in ppk.iter().zip(mpc.iter()) {
        gpu_sum += m.vs_baseline.gpu_energy_savings_pct;
        table.row(vec![
            p.workload.name().to_string(),
            fmt(p.vs_baseline.gpu_energy_savings_pct, 1),
            fmt(m.vs_baseline.gpu_energy_savings_pct, 1),
            fmt(m.vs_baseline.energy_savings_pct, 1),
        ]);
    }
    let (mut cpu_saved, mut gpu_saved) = (0.0, 0.0);
    for m in &mpc {
        cpu_saved += m.outcome.baseline.cpu_energy_j() - m.outcome.measured.cpu_energy_j();
        gpu_saved += m.outcome.baseline.gpu_energy_j() - m.outcome.measured.gpu_energy_j();
    }
    let total = cpu_saved + gpu_saved;
    let avg_gpu = gpu_sum / mpc.len() as f64;
    let cpu_share = cpu_saved / total * 100.0;
    let mut out = format!(
        "Figure 10: GPU energy savings over AMD Turbo Core\n{}",
        table.render()
    );
    writeln!(
        out,
        "average MPC GPU savings: {avg_gpu:.1}% | savings attribution: CPU {cpu_share:.0}%, GPU {:.0}% (paper: 75%/25%)",
        100.0 - cpu_share
    )
    .unwrap();
    ExperimentOutput::new(
        out,
        vec![
            metric("avg_gpu_savings_pct", avg_gpu),
            metric("cpu_share_pct", cpu_share),
        ],
    )
}

/// Figure 11: amortization of the initial profiling run — MPC vs PPK
/// under re-execution. Fast mode drops the 100-repeat column.
pub fn fig11(env: &XpEnv) -> ExperimentOutput {
    let repeats: &[usize] = if env.is_fast() {
        &[1, 10]
    } else {
        &[1, 10, 100]
    };
    let mut headers = vec!["benchmark".to_string()];
    for r in repeats {
        headers.push(format!("savings @{r} (%)"));
    }
    headers.push("savings steady (%)".to_string());
    for r in repeats {
        headers.push(format!("speedup @{r}"));
    }
    headers.push("speedup steady".to_string());
    let mut table = Table::new(headers);

    let cols = 2 * (repeats.len() + 1);
    let mut sums = vec![0.0f64; cols];
    let workloads = suite();
    for w in &workloads {
        eprintln!("  amortization on {} ...", w.name());
        let pts = amortization(env.ctx(), w, repeats);
        let mut vals = Vec::with_capacity(cols);
        for p in &pts {
            vals.push(p.energy_savings_pct);
        }
        for p in &pts {
            vals.push(p.speedup);
        }
        for (s, v) in sums.iter_mut().zip(vals.iter()) {
            *s += v;
        }
        let mut row = vec![w.name().to_string()];
        for (i, v) in vals.iter().enumerate() {
            row.push(fmt(*v, if i <= repeats.len() { 1 } else { 3 }));
        }
        table.row(row);
    }
    let n = workloads.len() as f64;
    let mut avg_row = vec!["AVERAGE".to_string()];
    for (i, s) in sums.iter().enumerate() {
        avg_row.push(fmt(s / n, if i <= repeats.len() { 1 } else { 3 }));
    }
    table.row(avg_row);

    let savings_at_1 = sums[0] / n;
    let savings_at_10 = sums[1] / n;
    let savings_steady = sums[repeats.len()] / n;
    let speedup_steady = sums[cols - 1] / n;
    let out = format!(
        "Figure 11: MPC vs PPK with re-execution (cumulative, incl. initial run)\n{}",
        table.render()
    );
    ExperimentOutput::new(
        out,
        vec![
            metric("savings_at_1", savings_at_1),
            metric("savings_at_10", savings_at_10),
            metric("savings_steady", savings_steady),
            metric("speedup_steady", speedup_steady),
            metric("steady_minus_at_10", savings_steady - savings_at_10),
        ],
    )
}

/// Figure 12: MPC with perfect prediction, full horizon, and no overhead
/// vs the Theoretically Optimal exhaustive solution.
pub fn fig12(env: &XpEnv) -> ExperimentOutput {
    let exec = env.exec();
    let mpc = evaluate_suite_with(&exec, env.ctx(), Scheme::MpcOracle);
    let to = evaluate_suite_with(&exec, env.ctx(), Scheme::TheoreticallyOptimal);
    let (tbl, ma, ta) = two_scheme_table("MPC", &mpc, "TO", &to);
    let energy_capture = ma.energy_savings_pct / ta.energy_savings_pct * 100.0;
    let perf_capture = ma.speedup / ta.speedup * 100.0;
    let mut out =
        format!("Figure 12: MPC (perfect prediction, full horizon, no overhead) vs TO\n{tbl}");
    writeln!(
        out,
        "MPC captures {energy_capture:.0}% of TO's energy savings (paper: 92%) and {perf_capture:.0}% of its speedup-vs-baseline (paper: 93%)"
    )
    .unwrap();
    ExperimentOutput::new(
        out,
        vec![
            metric("energy_capture_pct", energy_capture),
            metric("perf_capture_pct", perf_capture),
            metric("mpc_energy_savings_pct", ma.energy_savings_pct),
            metric("to_energy_savings_pct", ta.energy_savings_pct),
        ],
    )
}

/// Figure 13: sensitivity to prediction accuracy — RF vs half-normal
/// error predictors, all at full horizon with no overhead.
pub fn fig13(env: &XpEnv) -> ExperimentOutput {
    let exec = env.exec();
    let schemes: Vec<(&str, Scheme)> = vec![
        ("RF", Scheme::MpcRfIdealized),
        (
            "Err_15%_10%",
            Scheme::MpcError {
                spec: ErrorSpec::ERR_15_10,
            },
        ),
        (
            "Err_5%",
            Scheme::MpcError {
                spec: ErrorSpec::ERR_5,
            },
        ),
        (
            "Err_0%",
            Scheme::MpcError {
                spec: ErrorSpec::ERR_0,
            },
        ),
    ];
    let results: Vec<(&str, Vec<BenchRow>)> = schemes
        .iter()
        .map(|(name, s)| (*name, evaluate_suite_with(&exec, env.ctx(), *s)))
        .collect();

    let mut headers = vec!["benchmark".to_string()];
    for (name, _) in &results {
        headers.push(format!("{name} savings (%)"));
        headers.push(format!("{name} speedup"));
    }
    let mut table = Table::new(headers);
    let n = results[0].1.len();
    for i in 0..n {
        let mut row = vec![results[0].1[i].workload.name().to_string()];
        for (_, rows) in &results {
            row.push(fmt(rows[i].vs_baseline.energy_savings_pct, 1));
            row.push(fmt(rows[i].vs_baseline.speedup, 3));
        }
        table.row(row);
    }
    let mut avg_row = vec!["AVERAGE".to_string()];
    let mut avgs = Vec::new();
    for (_, rows) in &results {
        let a = suite_average(rows);
        avg_row.push(fmt(a.energy_savings_pct, 1));
        avg_row.push(fmt(a.speedup, 3));
        avgs.push(a);
    }
    table.row(avg_row);

    let out = format!(
        "Figure 13: MPC sensitivity to prediction accuracy (full horizon, no overhead)\n{}",
        table.render()
    );
    ExperimentOutput::new(
        out,
        vec![
            metric("rf_savings_pct", avgs[0].energy_savings_pct),
            metric("err0_savings_pct", avgs[3].energy_savings_pct),
            metric(
                "err0_minus_rf_pts",
                avgs[3].energy_savings_pct - avgs[0].energy_savings_pct,
            ),
        ],
    )
}

/// Figure 14: MPC's own energy and performance overheads under the
/// worst-case back-to-back kernel assumption.
pub fn fig14(env: &XpEnv) -> ExperimentOutput {
    let exec = env.exec();
    let mpc = evaluate_suite_with(&exec, env.ctx(), mpc_headline());

    let mut table = Table::new(vec![
        "benchmark",
        "MPC energy overhead (%)",
        "MPC performance overhead (%)",
        "optimizer time (ms)",
        "evaluations",
    ]);
    let (mut e_sum, mut p_sum, mut p_max) = (0.0, 0.0, 0.0f64);
    for row in &mpc {
        let m = &row.outcome.measured;
        let b = &row.outcome.baseline;
        let e_overhead = m.overhead_energy.total_j() / b.total_energy_j() * 100.0;
        let p_overhead = m.overhead_time_s / b.wall_time_s() * 100.0;
        e_sum += e_overhead;
        p_sum += p_overhead;
        p_max = p_max.max(p_overhead);
        let evals = row
            .outcome
            .mpc_stats
            .as_ref()
            .map(|s| s.total_evaluations())
            .unwrap_or(0);
        table.row(vec![
            row.workload.name().to_string(),
            fmt(e_overhead, 3),
            fmt(p_overhead, 3),
            fmt(m.overhead_time_s * 1e3, 3),
            evals.to_string(),
        ]);
    }
    let n = mpc.len() as f64;
    let mut out = format!(
        "Figure 14: MPC energy and performance overheads vs Turbo Core (α = 5%)\n{}",
        table.render()
    );
    writeln!(
        out,
        "averages: energy overhead {:.3}% (paper 0.15%), performance overhead {:.3}% (paper 0.3%)",
        e_sum / n,
        p_sum / n
    )
    .unwrap();
    ExperimentOutput::new(
        out,
        vec![
            metric("avg_energy_overhead_pct", e_sum / n),
            metric("avg_perf_overhead_pct", p_sum / n),
            metric("max_perf_overhead_pct", p_max),
        ],
    )
}

/// Figure 15: average MPC horizon length as a fraction of each
/// application's kernel count, under the adaptive generator.
pub fn fig15(env: &XpEnv) -> ExperimentOutput {
    let exec = env.exec();
    let mpc = evaluate_suite_with(&exec, env.ctx(), mpc_headline());

    let mut table = Table::new(vec![
        "benchmark",
        "N kernels",
        "avg horizon",
        "avg horizon (% of N)",
        "zero-horizon decisions",
        "pattern mispredict (%)",
    ]);
    let (mut frac_sum, mut zero_total, mut mis_sum) = (0.0, 0u64, 0.0);
    for row in &mpc {
        let n = row.workload.len();
        let stats = row.outcome.mpc_stats.as_ref().expect("MPC stats");
        let zero = stats.horizons.iter().filter(|&&h| h == 0).count();
        frac_sum += stats.average_horizon_fraction(n) * 100.0;
        zero_total += zero as u64;
        mis_sum += stats.misprediction_rate() * 100.0;
        table.row(vec![
            row.workload.name().to_string(),
            n.to_string(),
            fmt(stats.average_horizon(), 2),
            fmt(stats.average_horizon_fraction(n) * 100.0, 1),
            zero.to_string(),
            fmt(stats.misprediction_rate() * 100.0, 1),
        ]);
    }
    let n = mpc.len() as f64;
    let out = format!(
        "Figure 15: average MPC horizon as a percentage of kernel count\n{}",
        table.render()
    );
    ExperimentOutput::new(
        out,
        vec![
            metric("avg_horizon_frac_pct", frac_sum / n),
            metric("zero_horizon_total", zero_total as f64),
            metric("avg_mispredict_pct", mis_sum / n),
        ],
    )
}
