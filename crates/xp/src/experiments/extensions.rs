//! Beyond-the-paper extension studies as registry run functions.

use super::mpc_headline;
use crate::artifact::emit_text;
use crate::experiment::{metric, ExperimentOutput, XpEnv};
use crate::suite::{evaluate_suite_with, suite_average};
use gpm_governors::EqualizerMode;
use gpm_harness::metrics::{summarize, Comparison};
use gpm_harness::report::{fmt, Table};
use gpm_harness::{context, EvalOptions, Scheme};
use gpm_hw::ConfigSpace;
use gpm_sim::platform::Platform;
use gpm_sim::{ApuSimulator, ReplayPlatform, SimParams};
use gpm_workloads::{extended_suite, generate_population, suite, GeneratorParams};
use std::fmt::Write;

/// Extended baseline comparison: every implemented policy on the full
/// suite — Turbo Core, Equalizer (both modes), PPK, MPC, and TO.
pub fn baselines(env: &XpEnv) -> ExperimentOutput {
    let exec = env.exec();
    let schemes: Vec<(&str, Scheme)> = vec![
        (
            "Equalizer(perf)",
            Scheme::Equalizer {
                mode: EqualizerMode::Performance,
            },
        ),
        (
            "Equalizer(eff)",
            Scheme::Equalizer {
                mode: EqualizerMode::Efficiency,
            },
        ),
        ("PPK(RF)", Scheme::PpkRf),
        ("MPC(RF)", mpc_headline()),
        ("TO", Scheme::TheoreticallyOptimal),
    ];

    let mut headers = vec!["benchmark".to_string()];
    for (name, _) in &schemes {
        headers.push(format!("{name} sav%"));
        headers.push(format!("{name} spd"));
    }
    let mut table = Table::new(headers);

    let results: Vec<_> = schemes
        .iter()
        .map(|(n, s)| (*n, evaluate_suite_with(&exec, env.ctx(), *s)))
        .collect();
    let n = results[0].1.len();
    for i in 0..n {
        let mut row = vec![results[0].1[i].workload.name().to_string()];
        for (_, rows) in &results {
            row.push(fmt(rows[i].vs_baseline.energy_savings_pct, 1));
            row.push(fmt(rows[i].vs_baseline.speedup, 3));
        }
        table.row(row);
    }
    let mut avg = vec!["AVERAGE".to_string()];
    let mut avgs = Vec::new();
    for (_, rows) in &results {
        let a = suite_average(rows);
        avg.push(fmt(a.energy_savings_pct, 1));
        avg.push(fmt(a.speedup, 3));
        avgs.push(a);
    }
    table.row(avg);

    let out = format!(
        "Extended baselines vs AMD Turbo Core (energy savings %, speedup)\n{}\
         note: Equalizer reacts without a performance target, so it trades\n\
         performance freely; PPK/MPC are constrained to Turbo Core throughput.\n",
        table.render()
    );
    ExperimentOutput::new(
        out,
        vec![
            metric("eq_perf_savings_pct", avgs[0].energy_savings_pct),
            metric("ppk_savings_pct", avgs[2].energy_savings_pct),
            metric("mpc_savings_pct", avgs[3].energy_savings_pct),
            metric("to_savings_pct", avgs[4].energy_savings_pct),
        ],
    )
}

/// The extended tier: the paper's schemes on ten additional modelled
/// benchmarks (the RF still trains only on the figure suite).
pub fn extended_tier(env: &XpEnv) -> ExperimentOutput {
    let exec = env.exec();
    let mut table = Table::new(vec![
        "benchmark",
        "category",
        "PPK savings (%)",
        "MPC savings (%)",
        "PPK speedup",
        "MPC speedup",
    ]);
    let mut ppk_cs = Vec::new();
    let mut mpc_cs = Vec::new();
    for w in extended_suite() {
        eprintln!("  extended suite: {} ...", w.name());
        let ppk = exec.evaluate(env.ctx(), &w, Scheme::PpkRf);
        let mpc = exec.evaluate(env.ctx(), &w, mpc_headline());
        let pc = Comparison::between(&ppk.baseline, &ppk.measured);
        let mc = Comparison::between(&mpc.baseline, &mpc.measured);
        table.row(vec![
            w.name().to_string(),
            w.category().to_string(),
            fmt(pc.energy_savings_pct, 1),
            fmt(mc.energy_savings_pct, 1),
            fmt(pc.speedup, 3),
            fmt(mc.speedup, 3),
        ]);
        ppk_cs.push(pc);
        mpc_cs.push(mc);
    }
    let pa = summarize(&ppk_cs);
    let ma = summarize(&mpc_cs);
    table.row(vec![
        "AVERAGE".into(),
        String::new(),
        fmt(pa.energy_savings_pct, 1),
        fmt(ma.energy_savings_pct, 1),
        fmt(pa.speedup, 3),
        fmt(ma.speedup, 3),
    ]);
    let out = format!(
        "Extended tier: 10 additional benchmarks (model trained on the figure suite only)\n{}",
        table.render()
    );
    ExperimentOutput::new(
        out,
        vec![
            metric("ppk_savings_pct", pa.energy_savings_pct),
            metric("mpc_savings_pct", ma.energy_savings_pct),
            metric("mpc_speedup", ma.speedup),
        ],
    )
}

/// Generalization: the RF trains only on the 15-benchmark suite; MPC
/// then governs generated applications with unseen kernels.
pub fn generalization(env: &XpEnv) -> ExperimentOutput {
    let exec = env.exec();
    let count = if env.is_fast() { 8 } else { 25 };
    let population = generate_population(&GeneratorParams::default(), 0xBEEF, count);

    let mut table = Table::new(vec![
        "generated app",
        "category",
        "N",
        "MPC energy savings (%)",
        "MPC speedup",
        "PPK speedup",
    ]);
    let mut mpc_cs: Vec<Comparison> = Vec::new();
    let mut ppk_cs: Vec<Comparison> = Vec::new();
    for w in &population {
        eprintln!("  generalization on {} ...", w.name());
        let mpc = exec.evaluate(env.ctx(), w, mpc_headline());
        let ppk = exec.evaluate(env.ctx(), w, Scheme::PpkRf);
        let mc = Comparison::between(&mpc.baseline, &mpc.measured);
        let pc = Comparison::between(&ppk.baseline, &ppk.measured);
        table.row(vec![
            w.name().to_string(),
            w.category().to_string(),
            w.len().to_string(),
            fmt(mc.energy_savings_pct, 1),
            fmt(mc.speedup, 3),
            fmt(pc.speedup, 3),
        ]);
        mpc_cs.push(mc);
        ppk_cs.push(pc);
    }
    let ma = summarize(&mpc_cs);
    let pa = summarize(&ppk_cs);
    table.row(vec![
        "AVERAGE".into(),
        String::new(),
        String::new(),
        fmt(ma.energy_savings_pct, 1),
        fmt(ma.speedup, 3),
        fmt(pa.speedup, 3),
    ]);

    let mut out = format!(
        "Generalization: MPC on {count} generated applications with unseen kernels\n{}",
        table.render()
    );
    writeln!(
        out,
        "out-of-distribution MPC: {:.1}% savings, speedup {:.3} (suite numbers: ~29% / ~1.0);",
        ma.energy_savings_pct, ma.speedup
    )
    .unwrap();
    writeln!(
        out,
        "PPK speedup {:.3} — the future-aware gap persists on unseen applications.",
        pa.speedup
    )
    .unwrap();
    ExperimentOutput::new(
        out,
        vec![
            metric("mpc_savings_pct", ma.energy_savings_pct),
            metric("mpc_speedup", ma.speedup),
            metric("ppk_speedup", pa.speedup),
        ],
    )
}

/// Section VI-E extension: hiding MPC overheads inside host CPU phases
/// (phases = 10% of each kernel's baseline time).
pub fn overhead_hiding(env: &XpEnv) -> ExperimentOutput {
    let exec = env.exec();
    let scheme = mpc_headline();

    let mut table = Table::new(vec![
        "benchmark",
        "worst-case overhead (ms)",
        "with CPU phases (ms)",
        "hidden (%)",
    ]);
    let (mut worst_sum, mut hidden_sum) = (0.0f64, 0.0f64);
    for w in suite() {
        eprintln!("  {} ...", w.name());
        let worst = exec.evaluate(env.ctx(), &w, scheme);
        let phases: Vec<f64> = worst
            .baseline
            .per_kernel
            .iter()
            .map(|k| k.time_s * 0.10)
            .collect();
        let with_phases_workload = w.clone().with_cpu_phases(phases);
        let hidden = exec.evaluate(env.ctx(), &with_phases_workload, scheme);

        let w_ms = worst.measured.overhead_time_s * 1e3;
        let h_ms = hidden.measured.overhead_time_s * 1e3;
        worst_sum += w_ms;
        hidden_sum += h_ms;
        let pct = if w_ms > 0.0 {
            (1.0 - h_ms / w_ms) * 100.0
        } else {
            0.0
        };
        table.row(vec![
            w.name().to_string(),
            fmt(w_ms, 3),
            fmt(h_ms, 3),
            fmt(pct, 1),
        ]);
    }
    let hidden_pct = (1.0 - hidden_sum / worst_sum.max(1e-12)) * 100.0;
    let mut out = format!(
        "Overhead hiding in CPU phases (phases = 10% of baseline kernel time)\n{}",
        table.render()
    );
    writeln!(
        out,
        "suite total: {worst_sum:.2} ms worst-case -> {hidden_sum:.2} ms with phases ({hidden_pct:.0}% hidden)"
    )
    .unwrap();
    ExperimentOutput::new(
        out,
        vec![
            metric("hidden_pct", hidden_pct),
            metric("worst_total_ms", worst_sum),
        ],
    )
}

/// Extension: sensitivity to DVFS transition latency (0×, 1×, 10× the
/// nominal transition model). Builds a context per scale; the campaign
/// never reads the transition scale, so all three reuse the run's
/// shared forest fit.
pub fn transition_cost(env: &XpEnv) -> ExperimentOutput {
    let scales = [0.0, 1.0, 10.0];
    let mut headers = vec!["benchmark".to_string()];
    for s in scales {
        headers.push(format!("MPC sav% @{s}x"));
        headers.push(format!("MPC spd @{s}x"));
    }
    headers.push("transitions (ms) @1x".into());
    let mut table = Table::new(headers);

    let exec = env.exec();
    let mut per_scale: Vec<Vec<(String, f64, f64, f64)>> = Vec::new();
    for &scale in &scales {
        eprintln!("building context at transition scale {scale}x ...");
        let opts = EvalOptions {
            sim_params: SimParams {
                dvfs_transition_scale: scale,
                ..env.options().sim_params
            },
            ..env.options()
        };
        let ctx = env.context(opts);
        let rows: Vec<(String, f64, f64, f64)> = suite()
            .iter()
            .map(|w| {
                eprintln!("  {} @{}x ...", w.name(), scale);
                let out = exec.evaluate(&ctx, w, mpc_headline());
                let c = Comparison::between(&out.baseline, &out.measured);
                (
                    w.name().to_string(),
                    c.energy_savings_pct,
                    c.speedup,
                    out.measured.transition_time_s * 1e3,
                )
            })
            .collect();
        per_scale.push(rows);
    }

    let n = per_scale[0].len();
    for i in 0..n {
        let mut row = vec![per_scale[0][i].0.clone()];
        for rows in &per_scale {
            row.push(fmt(rows[i].1, 1));
            row.push(fmt(rows[i].2, 3));
        }
        row.push(fmt(per_scale[1][i].3, 3));
        table.row(row);
    }
    let mut out = format!(
        "DVFS transition-cost sensitivity (MPC, adaptive horizon)\n{}",
        table.render()
    );
    let mut avgs = Vec::new();
    for (rows, s) in per_scale.iter().zip(scales) {
        let sav: f64 = rows.iter().map(|r| r.1).sum::<f64>() / n as f64;
        let spd: f64 = rows.iter().map(|r| r.2).sum::<f64>() / n as f64;
        writeln!(
            out,
            "scale {s:>4}x: avg savings {sav:.1}%, avg speedup {spd:.3}"
        )
        .unwrap();
        avgs.push(sav);
    }
    ExperimentOutput::new(
        out,
        vec![
            metric("savings_at_0x", avgs[0]),
            metric("savings_at_1x", avgs[1]),
            metric("savings_at_10x", avgs[2]),
            metric("savings_drop_0_to_10_pts", avgs[0] - avgs[2]),
        ],
    )
}

/// Robustness of the headline result to measurement-noise realizations:
/// fresh campaign + training + runtime noise per seed (the first seed is
/// the default one, whose fit the run already holds).
pub fn stability(env: &XpEnv) -> ExperimentOutput {
    let seeds: &[u64] = if env.is_fast() {
        &[0x9e3779b97f4a7c15, 0x1234_5678, 0xDEAD_BEEF]
    } else {
        &[
            0x9e3779b97f4a7c15,
            0x1234_5678,
            0xDEAD_BEEF,
            0x0F0F_F0F0,
            0xABCD_EF01,
        ]
    };
    let exec = env.exec();
    let mut table = Table::new(vec![
        "noise seed",
        "RF time MAPE (%)",
        "MPC energy savings (%)",
        "MPC speedup",
        "PPK speedup",
    ]);
    let mut savings = Vec::new();
    let mut speedups = Vec::new();
    for &seed in seeds {
        eprintln!("seed {seed:#x}: building context ...");
        let options = EvalOptions {
            sim_params: SimParams {
                noise_seed: seed,
                ..env.options().sim_params
            },
            ..env.options()
        };
        let ctx = env.context(options);
        let mpc = evaluate_suite_with(&exec, &ctx, mpc_headline());
        let ppk = evaluate_suite_with(&exec, &ctx, Scheme::PpkRf);
        let ma = suite_average(&mpc);
        let pa = suite_average(&ppk);
        savings.push(ma.energy_savings_pct);
        speedups.push(ma.speedup);
        table.row(vec![
            format!("{seed:#x}"),
            fmt(ctx.rf_report.time_mape * 100.0, 1),
            fmt(ma.energy_savings_pct, 1),
            fmt(ma.speedup, 3),
            fmt(pa.speedup, 3),
        ]);
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let spread = |v: &[f64]| {
        let m = mean(v);
        (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
    };
    let mut out = format!(
        "Headline stability across measurement-noise seeds\n{}",
        table.render()
    );
    writeln!(
        out,
        "MPC energy savings {:.1} ± {:.2} pts; speedup {:.3} ± {:.3}",
        mean(&savings),
        spread(&savings),
        mean(&speedups),
        spread(&speedups)
    )
    .unwrap();
    ExperimentOutput::new(
        out,
        vec![
            metric("mean_savings_pct", mean(&savings)),
            metric("spread_savings_pts", spread(&savings)),
            metric("mean_speedup", mean(&speedups)),
        ],
    )
}

/// Exports the measurement campaign as a flat CSV (with
/// `schema_version` stamped). Fast mode exports the strided training
/// space instead of the full 336-point campaign.
pub fn export_campaign(env: &XpEnv) -> ExperimentOutput {
    let options = env.options();
    let sim = ApuSimulator::new(options.sim_params.clone());
    let kernels = context::training_kernels();
    let space = if env.is_fast() {
        context::training_space(options.train_config_stride)
    } else {
        ConfigSpace::paper_campaign()
    };
    eprintln!(
        "recording campaign: {} kernels x {} configurations ...",
        kernels.len(),
        space.len()
    );
    let replay = {
        let _span = gpm_telemetry::span("campaign");
        ReplayPlatform::record(&sim, &kernels, &space)
    };

    // The CSV lists the recorded measurements; the replay returns exactly
    // what the simulator measured, so nothing is evaluated twice.
    let mut csv = String::from("# schema_version: 1\n");
    csv.push_str("kernel,cpu,nb,gpu,cu,time_s,gpu_power_w,chip_power_w,energy_j,ginstructions\n");
    let mut rows = 0u64;
    for kernel in &kernels {
        for cfg in &space {
            let out = replay.evaluate(kernel, cfg);
            rows += 1;
            writeln!(
                csv,
                "{},{},{},{},{},{:.9},{:.4},{:.4},{:.6},{:.6}",
                kernel.name(),
                cfg.cpu,
                cfg.nb,
                cfg.gpu,
                cfg.cu.get(),
                out.time_s,
                out.power.gpu_domain_w(),
                out.power.total_w(),
                out.energy.total_j(),
                out.ginstructions
            )
            .expect("writing to a String cannot fail");
        }
    }
    let path = env.artifact("campaign.csv");
    emit_text(&path, &csv);

    let out = format!(
        "exported {} measurements: {} ({} KiB)\n",
        replay.len(),
        path.display(),
        std::fs::metadata(&path)
            .map(|m| m.len() / 1024)
            .unwrap_or(0),
    );
    ExperimentOutput::new(
        out,
        vec![
            metric("measurements", replay.len() as f64),
            metric("csv_rows", rows as f64),
        ],
    )
}
