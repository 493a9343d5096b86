//! `gpm` — command-line front end to the reproduction.
//!
//! ```text
//! gpm list                               # the 15-benchmark suite
//! gpm schemes                            # available power-management schemes
//! gpm run --workload kmeans --scheme mpc [--fast] [--json]
//! gpm trace --workload Spmv              # Figure 3 throughput trace
//! ```
//!
//! The paper's exhibits (the Figure 2 sweeps, the predictor's accuracy,
//! ...) are registered experiments: `reproduce --filter <name>` in
//! `gpm-bench` runs one and prints its report.
//!
//! Argument parsing is deliberately dependency-free; outputs are aligned
//! tables or (`--json`) machine-readable JSON.

use gpm::governors::EqualizerMode;
use gpm::harness::metrics::Comparison;
use gpm::harness::report::Table;
use gpm::harness::traces::fig3_trace;
use gpm::harness::{EvalContext, EvalOptions, ExecEnv, Scheme};
use gpm::model::ErrorSpec;
use gpm::mpc::HorizonMode;
use gpm::sim::ApuSimulator;
use gpm::workloads::{suite, workload_by_name};
use serde::Serialize;
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
gpm — Dynamic GPGPU Power Management Using Adaptive MPC (HPCA'17 reproduction)

USAGE:
  gpm list                                     list the benchmark suite
  gpm schemes                                  list available schemes
  gpm run --workload <NAME> --scheme <SCHEME>  evaluate a scheme vs Turbo Core
          [--fast] [--json] [--cache <FILE>]
  gpm trace --workload <NAME>                  normalized throughput trace
  gpm help                                     this text
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        print!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = parse_flags(&args[1..]);
    match command {
        "list" => cmd_list(),
        "schemes" => cmd_schemes(),
        "run" => return cmd_run(&flags),
        "trace" => return cmd_trace(&flags),
        "help" | "--help" | "-h" => print!("{USAGE}"),
        other => {
            eprintln!("unknown command `{other}`\n");
            print!("{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `--key value` and bare `--flag` arguments.
fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let value = args
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| "true".to_string());
            if value != "true" {
                i += 1;
            }
            flags.insert(key.to_string(), value);
        }
        i += 1;
    }
    flags
}

/// Every scheme `gpm run --scheme` accepts, as (name, description,
/// scheme); `gpm schemes` prints it.
fn schemes() -> [(&'static str, &'static str, Scheme); 10] {
    [
        (
            "turbo-core",
            "AMD Turbo Core (the baseline)",
            Scheme::TurboCore,
        ),
        (
            "ppk",
            "Predict Previous Kernel, Random-Forest prediction",
            Scheme::PpkRf,
        ),
        (
            "ppk-oracle",
            "PPK with perfect prediction (limit study)",
            Scheme::PpkOracle,
        ),
        (
            "mpc",
            "adaptive-horizon MPC, Random Forest (the paper's system)",
            Scheme::MpcRf {
                horizon: HorizonMode::default(),
            },
        ),
        (
            "mpc-full",
            "MPC with the full horizon",
            Scheme::MpcRf {
                horizon: HorizonMode::Full,
            },
        ),
        (
            "mpc-oracle",
            "MPC with perfect prediction, full horizon, no overhead",
            Scheme::MpcOracle,
        ),
        (
            "mpc-err15",
            "MPC with 15%/10% half-normal prediction error",
            Scheme::MpcError {
                spec: ErrorSpec::ERR_15_10,
            },
        ),
        (
            "to",
            "Theoretically Optimal offline solution",
            Scheme::TheoreticallyOptimal,
        ),
        (
            "equalizer-perf",
            "reactive Equalizer, performance mode",
            Scheme::Equalizer {
                mode: EqualizerMode::Performance,
            },
        ),
        (
            "equalizer-eff",
            "reactive Equalizer, efficiency mode",
            Scheme::Equalizer {
                mode: EqualizerMode::Efficiency,
            },
        ),
    ]
}

/// A listed scheme name, or one of the unlisted aliases `turbocore`
/// and `optimal`.
fn parse_scheme(name: &str) -> Option<Scheme> {
    let name = match name {
        "turbocore" => "turbo-core",
        "optimal" => "to",
        other => other,
    };
    schemes()
        .into_iter()
        .find(|(listed, ..)| *listed == name)
        .map(|(.., scheme)| scheme)
}

fn cmd_list() {
    let mut table = Table::new(vec!["benchmark", "category", "pattern", "kernels"]);
    for w in suite() {
        table.row(vec![
            w.name().to_string(),
            w.category().to_string(),
            w.pattern().to_string(),
            w.len().to_string(),
        ]);
    }
    println!("{}", table.render());
}

fn cmd_schemes() {
    for (name, description, _) in schemes() {
        println!("{name:<14} {description}");
    }
}

#[derive(Serialize)]
struct RunReport {
    workload: String,
    scheme: String,
    baseline_energy_j: f64,
    baseline_wall_s: f64,
    scheme_energy_j: f64,
    scheme_wall_s: f64,
    energy_savings_pct: f64,
    gpu_energy_savings_pct: f64,
    speedup: f64,
    average_horizon: Option<f64>,
    predictor_evaluations: Option<u64>,
}

fn cmd_run(flags: &HashMap<String, String>) -> ExitCode {
    let Some(workload_name) = flags.get("workload") else {
        eprintln!("run requires --workload <NAME> (see `gpm list`)");
        return ExitCode::FAILURE;
    };
    let Some(scheme_name) = flags.get("scheme") else {
        eprintln!("run requires --scheme <SCHEME> (see `gpm schemes`)");
        return ExitCode::FAILURE;
    };
    let Some(workload) = workload_by_name(workload_name) else {
        eprintln!("unknown workload `{workload_name}` (see `gpm list`)");
        return ExitCode::FAILURE;
    };
    let Some(scheme) = parse_scheme(scheme_name) else {
        eprintln!("unknown scheme `{scheme_name}` (see `gpm schemes`)");
        return ExitCode::FAILURE;
    };

    // `--cache FILE`: reuse a previously trained predictor when present,
    // train and persist it otherwise.
    let ctx = match flags.get("cache") {
        Some(path) if std::path::Path::new(path).exists() => {
            eprintln!("loading trained predictor from {path} ...");
            match EvalContext::load(path) {
                Ok(ctx) => ctx,
                Err(e) => {
                    eprintln!("cannot load {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        cache => {
            let options = if flags.contains_key("fast") {
                EvalOptions::fast()
            } else {
                EvalOptions::default()
            };
            eprintln!(
                "training predictor ({} mode) ...",
                if flags.contains_key("fast") {
                    "fast"
                } else {
                    "full"
                }
            );
            let ctx = EvalContext::build(options);
            if let Some(path) = cache {
                if let Err(e) = ctx.save(path) {
                    eprintln!("warning: cannot save cache {path}: {e}");
                } else {
                    eprintln!("saved trained predictor to {path}");
                }
            }
            ctx
        }
    };
    let out = ExecEnv::new().evaluate(&ctx, &workload, scheme);
    let c = Comparison::between(&out.baseline, &out.measured);

    let report = RunReport {
        workload: workload.name().to_string(),
        scheme: out.label.to_string(),
        baseline_energy_j: out.baseline.total_energy_j(),
        baseline_wall_s: out.baseline.wall_time_s(),
        scheme_energy_j: out.measured.total_energy_j(),
        scheme_wall_s: out.measured.wall_time_s(),
        energy_savings_pct: c.energy_savings_pct,
        gpu_energy_savings_pct: c.gpu_energy_savings_pct,
        speedup: c.speedup,
        average_horizon: out.mpc_stats.as_ref().map(|s| s.average_horizon()),
        predictor_evaluations: out.mpc_stats.as_ref().map(|s| s.total_evaluations()),
    };

    if flags.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serializes")
        );
    } else {
        println!("{} on {}", report.scheme, report.workload);
        println!(
            "  baseline : {:>8.2} J  {:>8.1} ms",
            report.baseline_energy_j,
            report.baseline_wall_s * 1e3
        );
        println!(
            "  scheme   : {:>8.2} J  {:>8.1} ms",
            report.scheme_energy_j,
            report.scheme_wall_s * 1e3
        );
        println!(
            "  energy savings {:+.1}% (GPU {:+.1}%), speedup {:.3}",
            report.energy_savings_pct, report.gpu_energy_savings_pct, report.speedup
        );
        if let Some(h) = report.average_horizon {
            println!(
                "  average horizon {:.1}, {} predictor evaluations",
                h,
                report.predictor_evaluations.unwrap_or(0)
            );
        }
    }
    ExitCode::SUCCESS
}

fn cmd_trace(flags: &HashMap<String, String>) -> ExitCode {
    let Some(name) = flags.get("workload") else {
        eprintln!("trace requires --workload <NAME>");
        return ExitCode::FAILURE;
    };
    let Some(w) = workload_by_name(name) else {
        eprintln!("unknown workload `{name}`");
        return ExitCode::FAILURE;
    };
    let sim = ApuSimulator::default();
    for (i, v) in fig3_trace(&sim, &w).iter().enumerate() {
        let bar = "#".repeat((v * 12.0).round().clamp(0.0, 60.0) as usize);
        println!("{:>3}  {:>6.2}  {}", i + 1, v, bar);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_scheme_parses_and_no_name_repeats() {
        let table = schemes();
        for (i, (name, _, scheme)) in table.iter().enumerate() {
            assert_eq!(parse_scheme(name), Some(*scheme), "{name}");
            assert!(
                table[..i].iter().all(|(other, ..)| other != name),
                "{name} listed twice"
            );
        }
        assert_eq!(parse_scheme("turbocore"), Some(Scheme::TurboCore));
        assert_eq!(parse_scheme("optimal"), Some(Scheme::TheoreticallyOptimal));
        assert_eq!(parse_scheme("mpc-bogus"), None);
    }
}
