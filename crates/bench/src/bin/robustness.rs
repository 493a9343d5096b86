//! Robustness sweep CLI: degrades the full MPC scheme under increasing
//! deterministic fault intensity and records the degradation curve.
//! The sweep itself is shared with the registry's `robustness`
//! experiment ([`gpm_xp::experiments::robustness`]); this binary adds
//! the CI-facing knobs.
//!
//! Usage:
//!
//! ```text
//! robustness [--workload NAME] [--rates CSV] [--seed N]
//!            [--max-slowdown X] [--json PATH] [--fast]
//! ```
//!
//! `--rates` is a comma-separated list of per-channel fault rates (all
//! five channels fire at the same rate, nominal intensity). `--fast`
//! uses the reduced measurement campaign.
//!
//! Graceful-degradation gate (exit status): every swept point must
//! complete without panics and with finite accounting, and every point
//! with rate ≤ 0.10 must keep its wall-time slowdown under
//! `--max-slowdown` (default 1.5×). The whole sweep shares one
//! evaluation context, so the Turbo Core baseline must be simulated
//! exactly once — every later rate resolves it from the baseline cache
//! (also gated). The degradation curve is written to `--json` for CI
//! artifact upload.

use gpm_harness::Scheme;
use gpm_mpc::HorizonMode;
use gpm_workloads::workload_by_name;
use gpm_xp::emit_artifact;
use gpm_xp::experiments::robustness::{
    degradation_curve, degradation_gate_failures, render_curve, RobustnessReport,
};
use gpm_xp::suite::bench_context;
use std::process::ExitCode;

struct Args {
    workload: String,
    rates: Vec<f64>,
    seed: u64,
    max_slowdown: f64,
    json: Option<String>,
    fast: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: "kmeans".to_string(),
        rates: vec![0.0, 0.02, 0.05, 0.10, 0.20],
        seed: 0xFA_15AFE,
        max_slowdown: 1.5,
        json: None,
        fast: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = it.next().expect("--workload needs a name"),
            "--rates" => {
                let csv = it.next().expect("--rates needs a CSV list");
                args.rates = csv
                    .split(',')
                    .map(|r| r.trim().parse().expect("--rates entries must be numbers"))
                    .collect();
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("--seed must be an integer");
            }
            "--max-slowdown" => {
                args.max_slowdown = it
                    .next()
                    .expect("--max-slowdown needs a value")
                    .parse()
                    .expect("--max-slowdown must be a number");
            }
            "--json" => args.json = Some(it.next().expect("--json needs a path")),
            "--fast" => args.fast = true,
            other => panic!("unknown flag {other}; see module docs for usage"),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let workload = workload_by_name(&args.workload)
        .unwrap_or_else(|| panic!("unknown workload {:?}", args.workload));

    let ctx = bench_context(args.fast);
    let scheme = Scheme::MpcRf {
        horizon: HorizonMode::default(),
    };

    let curve = degradation_curve(&ctx, &workload, scheme, args.seed, &args.rates);
    print!("{}", render_curve(workload.name(), &curve));
    let mut failures = degradation_gate_failures(&curve, args.max_slowdown);

    // The whole sweep shares one context, so the baseline must have been
    // simulated exactly once, with every later rate a cache hit.
    let cache = ctx.baseline_stats();
    println!(
        "baseline cache: {} simulated, {} served from cache",
        cache.computed, cache.hits
    );
    if cache.computed != 1 || cache.hits != args.rates.len() as u64 - 1 {
        failures.push(format!(
            "baseline cache expected 1 compute / {} hits, got {} / {}",
            args.rates.len() - 1,
            cache.computed,
            cache.hits
        ));
    }

    if let Some(path) = &args.json {
        let report = RobustnessReport {
            workload: workload.name().to_string(),
            scheme: scheme.label().to_string(),
            seed: args.seed,
            max_slowdown: args.max_slowdown,
            baseline_simulations: cache.computed,
            baseline_cache_hits: cache.hits,
            curve,
        };
        emit_artifact(path, &report);
    }

    if failures.is_empty() {
        eprintln!("robustness gate passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("GATE: {f}");
        }
        ExitCode::FAILURE
    }
}
