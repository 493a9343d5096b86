//! Decision-trace report: replays one workload under the full MPC scheme
//! with the observability layer attached, prints the aggregated trace
//! summary, and cross-checks it against the governor's own `MpcStats`
//! (mean horizon, overhead per decision, predictor evaluations — the
//! Figure 14/15 source numbers must be derivable from the event stream
//! alone).
//!
//! The traced evaluation also runs under a live [`gpm_telemetry`]
//! registry, and the report reconciles the *third* accounting layer
//! against the first two: the `env.dispatch` span count and
//! `gpm_dispatches_total` counter must agree exactly with the trace
//! summary's dispatch count — metrics, traces, and governor stats are
//! three views of the same decisions and may never drift.
//!
//! Usage:
//!
//! ```text
//! trace_report [--workload NAME] [--json PATH] [--jsonl PATH]
//!              [--telemetry-out PATH] [--fast]
//! ```
//!
//! `--json` exports the summary (plus energy/performance comparison) as a
//! JSON report; `--jsonl` streams every raw event to a JSON Lines file;
//! `--telemetry-out` writes the registry's Prometheus text exposition.
//! `--fast` uses the reduced measurement campaign, for CI smoke runs.
//!
//! Exits non-zero when the trace-derived statistics disagree with
//! `MpcStats`, when the telemetry layer disagrees with the trace layer,
//! or when the context's baseline cache fails to collapse the repeated
//! Turbo Core baseline resolutions into a single simulation.

use gpm_harness::env::ExecEnv;
use gpm_harness::metrics::Comparison;
use gpm_harness::report::trace_summary_table;
use gpm_harness::Scheme;
use gpm_mpc::HorizonMode;
use gpm_telemetry::Telemetry;
use gpm_trace::{AggregateSink, FanoutSink, JsonlSink, TraceSink, TraceSummary};
use gpm_workloads::workload_by_name;
use gpm_xp::emit_artifact;
use gpm_xp::suite::bench_context;
use serde::Serialize;
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Debug, Serialize)]
struct TraceReport {
    workload: String,
    scheme: String,
    energy_savings_pct: f64,
    speedup: f64,
    baseline_simulations: u64,
    baseline_cache_hits: u64,
    telemetry_dispatch_spans: u64,
    telemetry_dispatches_total: u64,
    summary: TraceSummary,
}

struct Args {
    workload: String,
    json: Option<String>,
    jsonl: Option<String>,
    telemetry_out: Option<String>,
    fast: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: "kmeans".to_string(),
        json: None,
        jsonl: None,
        telemetry_out: None,
        fast: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = it.next().expect("--workload needs a name"),
            "--json" => args.json = Some(it.next().expect("--json needs a path")),
            "--jsonl" => args.jsonl = Some(it.next().expect("--jsonl needs a path")),
            "--telemetry-out" => {
                args.telemetry_out = Some(it.next().expect("--telemetry-out needs a path"));
            }
            "--fast" => args.fast = true,
            other => panic!("unknown flag {other}; see module docs for usage"),
        }
    }
    args
}

/// Cross-checks one trace-derived value against its `MpcStats` twin.
fn check(label: &str, from_trace: f64, from_stats: f64) -> bool {
    let ok = (from_trace - from_stats).abs() <= 1e-9 * from_stats.abs().max(1.0);
    if !ok {
        eprintln!("MISMATCH {label}: trace {from_trace} vs stats {from_stats}");
    }
    ok
}

fn main() -> ExitCode {
    let args = parse_args();
    let workload = workload_by_name(&args.workload)
        .unwrap_or_else(|| panic!("unknown workload {:?}", args.workload));

    let ctx = bench_context(args.fast);

    let agg = Arc::new(AggregateSink::new());
    let mut sinks: Vec<Arc<dyn TraceSink>> = vec![agg.clone()];
    if let Some(path) = &args.jsonl {
        let jsonl = JsonlSink::create(path).expect("create --jsonl file");
        sinks.push(Arc::new(jsonl));
    }
    let sink: Arc<dyn TraceSink> = Arc::new(FanoutSink::new(sinks));
    let telemetry = Telemetry::new();
    let env = ExecEnv::new()
        .with_trace(sink)
        .with_telemetry(telemetry.clone());

    let scheme = Scheme::MpcRf {
        horizon: HorizonMode::default(),
    };
    // Evaluate twice through the same context: the second pass must hit the
    // shared baseline cache instead of re-simulating Turbo Core. The warm
    // pass gets its own sink so the reported trace covers exactly one
    // evaluation and stays comparable with that evaluation's MpcStats.
    let warm_agg = Arc::new(AggregateSink::new());
    let _warm = ExecEnv::new()
        .with_trace(warm_agg.clone())
        .evaluate(&ctx, &workload, scheme);
    let warm_summary = warm_agg.summary();
    let out = env.evaluate(&ctx, &workload, scheme);
    let summary = agg.summary();
    let snapshot = telemetry.snapshot();
    let dispatch_spans = snapshot.span("env.dispatch").map_or(0, |s| s.count);
    let dispatches_total = snapshot.counter("gpm_dispatches_total").unwrap_or(0);
    let stats = out.mpc_stats.as_ref().expect("MPC scheme returns stats");
    let cache = ctx.baseline_stats();
    let vs_baseline = Comparison::between(&out.baseline, &out.measured);

    println!("Decision trace: {} on {}", out.label, workload.name());
    println!("{}", trace_summary_table(&summary).render());
    println!(
        "vs Turbo Core: energy savings {:+.2}%, speedup {:.3}",
        vs_baseline.energy_savings_pct, vs_baseline.speedup
    );
    println!(
        "baseline cache: {} simulated, {} served from cache",
        cache.computed, cache.hits
    );
    println!(
        "telemetry: {} dispatch spans, {} dispatch counter increments",
        dispatch_spans, dispatches_total
    );

    if let Some(path) = &args.telemetry_out {
        if let Some(parent) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(parent).expect("create telemetry output directory");
        }
        std::fs::write(path, snapshot.to_prometheus())
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }

    if let Some(path) = &args.json {
        let report = TraceReport {
            workload: workload.name().to_string(),
            scheme: out.label.to_string(),
            energy_savings_pct: vs_baseline.energy_savings_pct,
            speedup: vs_baseline.speedup,
            baseline_simulations: cache.computed,
            baseline_cache_hits: cache.hits,
            telemetry_dispatch_spans: dispatch_spans,
            telemetry_dispatches_total: dispatches_total,
            summary: summary.clone(),
        };
        emit_artifact(path, &report);
    }

    // The acceptance cross-checks: the event stream must reproduce the
    // governor's internal accounting exactly, and the baseline must have
    // been simulated once — every later resolution a cache hit.
    let mut ok = true;
    ok &= check(
        "mean horizon",
        summary.mean_horizon,
        stats.average_horizon(),
    );
    ok &= check(
        "overhead per decision (s)",
        summary.overhead_per_decision_s,
        stats.total_overhead_s() / stats.horizons.len().max(1) as f64,
    );
    ok &= check(
        "horizon-decision evaluations",
        summary.horizon_evaluations as f64,
        stats.total_evaluations() as f64,
    );
    ok &= check(
        "warm-pass baseline simulations",
        warm_summary.baseline_simulations as f64,
        1.0,
    );
    ok &= check(
        "traced-pass baseline simulations",
        summary.baseline_simulations as f64,
        0.0,
    );
    ok &= check(
        "traced-pass baseline cache hits",
        summary.baseline_cache_hits as f64,
        1.0,
    );
    ok &= check("context baseline computes", cache.computed as f64, 1.0);
    ok &= check("context baseline cache hits", cache.hits as f64, 1.0);
    // Telemetry-vs-trace reconciliation: the span profiler and the
    // metrics registry each count dispatches independently of the event
    // stream; all three must agree decision-for-decision.
    ok &= check(
        "telemetry dispatch spans vs trace dispatches",
        dispatch_spans as f64,
        summary.dispatches as f64,
    );
    ok &= check(
        "telemetry dispatch counter vs trace dispatches",
        dispatches_total as f64,
        summary.dispatches as f64,
    );
    ok &= check(
        "telemetry run counter",
        snapshot.counter("gpm_runs_total").unwrap_or(0) as f64,
        summary.runs as f64,
    );
    if ok {
        eprintln!("trace/stats/telemetry cross-check passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
