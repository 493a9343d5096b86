//! Fault-injection robustness: the degradation-curve sweep and its
//! graceful-degradation gate, run by the registry experiment and by the
//! `robustness_matrix` tests.

use crate::experiment::{metric, ExperimentOutput, XpEnv};
use gpm_faults::FaultPlan;
use gpm_harness::env::ExecEnv;
use gpm_harness::metrics::Comparison;
use gpm_harness::{EvalContext, Scheme};
use gpm_mpc::HorizonMode;
use gpm_trace::{AggregateSink, TraceSink};
use gpm_workloads::{workload_by_name, Workload};
use std::fmt::Write;
use std::sync::Arc;

/// Fault-plan seed of every sweep.
pub const FAULT_SEED: u64 = 0xFA_15AFE;

/// The gate's ceiling on wall-time slowdown at rates ≤ 0.10.
pub const MAX_SLOWDOWN: f64 = 1.5;

/// Per-channel fault rates of a full-mode sweep.
pub const FULL_RATES: [f64; 5] = [0.0, 0.02, 0.05, 0.10, 0.20];

/// One point of the degradation curve.
#[derive(Debug, Clone)]
pub struct DegradationPoint {
    /// Per-channel fault rate swept at this point.
    pub rate: f64,
    /// Energy savings vs the clean Turbo Core baseline, percent.
    pub energy_savings_pct: f64,
    /// Baseline wall time over degraded wall time (< 1 = slowdown).
    pub speedup: f64,
    /// Throughput-constraint violation, percent of baseline wall time
    /// (0 when the degraded run is at least as fast as the baseline).
    pub violation_pct: f64,
    /// Faults that fired across both scheme invocations.
    pub fault_injections: u64,
    /// Detected-and-recovered events (sanitization, retries, discards).
    pub recoveries: u64,
    /// Fail-safe decisions taken by the governor.
    pub fail_safe_events: u64,
    /// Turbo Core baselines resolved at this point (simulated or served
    /// from the context's cache; the split is `EvalContext::baseline_stats`).
    pub baseline_resolutions: u64,
}

/// Sweeps `workload` under `scheme` across `rates`, one fresh
/// deterministic [`FaultPlan`] per point, and records the degradation
/// curve.
pub fn degradation_curve(
    ctx: &EvalContext,
    workload: &Workload,
    scheme: Scheme,
    seed: u64,
    rates: &[f64],
) -> Vec<DegradationPoint> {
    rates
        .iter()
        .map(|&rate| {
            let plan = FaultPlan::uniform(seed, rate);
            let agg = Arc::new(AggregateSink::new());
            let sink: Arc<dyn TraceSink> = agg.clone();
            let env = ExecEnv::new().with_trace(sink).with_fault_plan(plan);
            let out = env.evaluate(ctx, workload, scheme);
            let summary = agg.summary();
            let c = Comparison::between(&out.baseline, &out.measured);
            DegradationPoint {
                rate,
                energy_savings_pct: c.energy_savings_pct,
                speedup: c.speedup,
                violation_pct: (1.0 / c.speedup - 1.0).max(0.0) * 100.0,
                fault_injections: summary.fault_injections,
                recoveries: summary.recoveries,
                fail_safe_events: summary.fail_safe_events,
                baseline_resolutions: summary.baseline_resolutions,
            }
        })
        .collect()
}

/// Graceful-degradation gate: every point must have finite accounting,
/// points at rate ≤ 0.10 must keep the slowdown under `max_slowdown`,
/// and every nonzero rate must actually fire faults. Returns the list
/// of violations (empty = pass).
pub fn degradation_gate_failures(curve: &[DegradationPoint], max_slowdown: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for p in curve {
        if !p.speedup.is_finite() || !p.energy_savings_pct.is_finite() || p.speedup <= 0.0 {
            failures.push(format!("non-finite accounting at rate {}", p.rate));
        }
        if p.rate <= 0.10 && 1.0 / p.speedup > max_slowdown {
            failures.push(format!(
                "slowdown {:.3} exceeds {max_slowdown} at rate {}",
                1.0 / p.speedup,
                p.rate
            ));
        }
        if p.rate > 0.0 && p.fault_injections == 0 {
            failures.push(format!("no faults fired at rate {}", p.rate));
        }
    }
    failures
}

/// Renders the curve as a sweep table.
pub fn render_curve(workload: &str, curve: &[DegradationPoint]) -> String {
    let mut out = format!("Robustness sweep: MPC(RF) on {workload}\n");
    writeln!(
        out,
        "{:>6}  {:>9}  {:>7}  {:>9}  {:>7}  {:>9}",
        "rate", "savings%", "speedup", "violat.%", "faults", "recovered"
    )
    .unwrap();
    for p in curve {
        writeln!(
            out,
            "{:>6.3}  {:>9.2}  {:>7.3}  {:>9.2}  {:>7}  {:>9}",
            p.rate,
            p.energy_savings_pct,
            p.speedup,
            p.violation_pct,
            p.fault_injections,
            p.recoveries
        )
        .unwrap();
    }
    out
}

/// The registry experiment: the default kmeans sweep with the standard
/// rates and the graceful-degradation gate folded into metrics. Runs on
/// the shared context with a baseline cache of its own, so the
/// baseline-cache single-compute assertion stays valid (the shared cache
/// is warmed by other experiments).
pub fn robustness(env: &XpEnv) -> ExperimentOutput {
    let rates: &[f64] = if env.is_fast() {
        &[0.0, 0.05, 0.20]
    } else {
        &FULL_RATES
    };
    let workload = workload_by_name("kmeans").expect("suite workload");
    let ctx = env.ctx().with_fresh_baselines();
    let scheme = Scheme::MpcRf {
        horizon: HorizonMode::default(),
    };

    let curve = degradation_curve(&ctx, &workload, scheme, FAULT_SEED, rates);
    let mut failures = degradation_gate_failures(&curve, MAX_SLOWDOWN);

    // The whole sweep shares one context, so the baseline must have been
    // simulated exactly once, with every later rate a cache hit.
    let cache = ctx.baseline_stats();
    if cache.computed != 1 || cache.hits != rates.len() as u64 - 1 {
        failures.push(format!(
            "baseline cache expected 1 compute / {} hits, got {} / {}",
            rates.len() - 1,
            cache.computed,
            cache.hits
        ));
    }

    let mut out = render_curve(workload.name(), &curve);
    writeln!(
        out,
        "baseline cache: {} simulated, {} served from cache",
        cache.computed, cache.hits
    )
    .unwrap();
    for f in &failures {
        writeln!(out, "GATE: {f}").unwrap();
    }
    let clean = &curve[0];
    let worst = curve.last().unwrap();
    ExperimentOutput::new(
        out,
        vec![
            metric("clean_savings_pct", clean.energy_savings_pct),
            metric("worst_rate_speedup", worst.speedup),
            metric("worst_rate_faults", worst.fault_injections as f64),
            metric("gate_failures", failures.len() as f64),
        ],
    )
}
