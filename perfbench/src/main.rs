//! The repository benchmark: one command, three workloads, every metric
//! printed by name with its unit, outputs checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite_replay --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the program's entry
//! points with no timers inside them; `--trace 1` runs the workload untraced
//! for half the budget and traced for the other half, prints the tracing
//! overhead and the share of wall time the per-layer timers cover, and
//! reports the per-layer metrics. The last line of standard output is
//! the JSON result. See `perfbench/README.md`.

mod fleet_mixed;
mod layers;
mod report;
mod reproduce_fast;
mod suite_replay;

use gpm_harness::{parallel_campaign_auto, training_kernels, training_space};
use gpm_harness::{EvalContext, EvalOptions};
use gpm_hw::HwConfig;
use gpm_model::RandomForestPredictor;
use gpm_sim::ApuSimulator;
use report::{median, Report};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <suite_replay|fleet_mixed|reproduce_fast> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// Context builds per untraced run; `setup_s` is their median.
const SETUP_BUILDS: usize = 3;

/// One invocation's settings.
pub struct Run {
    pub seed: u64,
    /// Measurement budget; a traced run splits it between an untraced and
    /// a traced phase.
    pub budget: Duration,
    pub traced: bool,
}

impl Run {
    /// Budget of each measured phase.
    pub fn phase_budget(&self) -> Duration {
        if self.traced {
            self.budget / 2
        } else {
            self.budget
        }
    }
}

fn parse_args() -> Result<(String, Run), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let run = Run {
        seed: seed.ok_or("--seed is required")?,
        budget: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        traced: trace.ok_or("--trace is required")?,
    };
    Ok((workload.ok_or("--workload is required")?, run))
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        std::process::exit(2);
    }
    let (workload, run) = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    println!(
        "env workload={workload} seed={} seconds={} trace={} profile=release available_parallelism={}",
        run.seed,
        run.budget.as_secs_f64(),
        u8::from(run.traced),
        report::available_parallelism()
    );
    let outcome = match workload.as_str() {
        "suite_replay" => suite_replay::run(&run),
        "fleet_mixed" => fleet_mixed::run(&run),
        "reproduce_fast" => reproduce_fast::run(&run),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    match outcome {
        Ok(report) => {
            // Not in the result line: under `reproduce_fast` the peak
            // depends on which experiments the two jobs overlap, and
            // spread 140-271 MB across ten runs on one host.
            report::info("peak_rss_mb", report::peak_rss_mb(), "MB");
            report.print(run.traced);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Builds the evaluation context a workload runs on and measures set-up.
///
/// Untraced, it builds [`SETUP_BUILDS`] contexts and reports their median
/// build time as `setup_s`. Traced, it builds one and then repeats the
/// build's two steps separately — the measurement campaign and the forest
/// fit — for `sim.campaign_ms` and `model.fit_ms`, checking that the
/// separately trained forests score exactly as the context's do.
pub fn setup(options: &EvalOptions, traced: bool, report: &mut Report) -> EvalContext {
    let builds = if traced { 1 } else { SETUP_BUILDS };
    let mut times = Vec::with_capacity(builds);
    let mut ctx = None;
    for _ in 0..builds {
        let start = Instant::now();
        ctx = Some(EvalContext::build(options.clone()));
        times.push(start.elapsed().as_secs_f64());
    }
    let ctx = ctx.expect("at least one context build");
    println!(
        "setup builds_s={times:?} (threads={})",
        report::available_parallelism()
    );
    if !traced {
        report.set("setup_s", median(&times));
        return ctx;
    }

    let sim = ApuSimulator::new(options.sim_params.clone());
    let start = Instant::now();
    let dataset = parallel_campaign_auto(
        &sim,
        &training_kernels(),
        &training_space(options.train_config_stride),
        HwConfig::FAIL_SAFE,
    );
    let campaign_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let (_, fit_report) = RandomForestPredictor::train_and_evaluate(
        &dataset,
        &options.forest,
        options.test_fraction,
        options.seed,
    );
    let fit_ms = start.elapsed().as_secs_f64() * 1e3;
    report.check(fit_report == ctx.rf_report, || {
        "separately trained forests score differently from the context's".to_string()
    });
    report.set("sim.campaign_ms", campaign_ms);
    report.set("model.fit_ms", fit_ms);
    println!(
        "coverage setup: campaign + fit = {:.1}% of one context build",
        100.0 * (campaign_ms + fit_ms) / (times[0] * 1e3)
    );
    ctx
}

/// Reports the held-out accuracy of a context's forests and checks it
/// against the §VI-D bands when `gated`.
pub fn report_accuracy(ctx: &EvalContext, gated: bool, report: &mut Report) {
    let time_pct = ctx.rf_report.time_mape * 100.0;
    let power_pct = ctx.rf_report.power_mape * 100.0;
    if gated {
        report.check(time_pct <= report::TIME_MAPE_BAND_PCT, || {
            format!("RF time MAPE {time_pct:.2}% exceeds the 25% band")
        });
        report.check(power_pct <= report::POWER_MAPE_BAND_PCT, || {
            format!("RF power MAPE {power_pct:.2}% exceeds the 12% band")
        });
    }
    report.set("rf_time_mape_pct", time_pct);
    report.set("rf_power_mape_pct", power_pct);
}
