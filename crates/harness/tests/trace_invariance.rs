//! The tentpole observability guarantee: attaching any trace sink must
//! never change a governor's decisions, and the aggregating sink must
//! reproduce the statistics the MPC governor already keeps.

use gpm_harness::{EvalContext, EvalOptions, ExecEnv, Scheme, SchemeOutcome};
use gpm_mpc::HorizonMode;
use gpm_telemetry::Telemetry;
use gpm_trace::{AggregateSink, FanoutSink, RingSink, TraceSink};
use gpm_workloads::workload_by_name;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn ctx() -> &'static EvalContext {
    static CTX: OnceLock<EvalContext> = OnceLock::new();
    CTX.get_or_init(|| EvalContext::build(EvalOptions::fast()))
}

const WORKLOADS: [&str; 3] = ["kmeans", "Spmv", "EigenValue"];

fn scheme_for(index: usize) -> Scheme {
    match index {
        0 => Scheme::MpcRf {
            horizon: HorizonMode::default(),
        },
        1 => Scheme::PpkRf,
        2 => Scheme::TurboCore,
        _ => Scheme::MpcRf {
            horizon: HorizonMode::Full,
        },
    }
}

/// The decision trajectory, byte for byte: per-kernel configs, times,
/// energies, overheads and horizons of both invocations.
fn trajectory(out: &SchemeOutcome) -> String {
    let profiling = out
        .profiling
        .as_ref()
        .map(|p| serde_json::to_string(&p.per_kernel).unwrap())
        .unwrap_or_default();
    let measured = serde_json::to_string(&out.measured.per_kernel).unwrap();
    format!("{profiling}\n{measured}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property (ISSUE acceptance criterion): replaying with a live sink
    /// installed produces byte-identical decisions to the Noop path.
    #[test]
    fn any_sink_never_changes_decisions(w_idx in 0usize..WORKLOADS.len(), s_idx in 0usize..4) {
        let workload = workload_by_name(WORKLOADS[w_idx]).unwrap();
        let scheme = scheme_for(s_idx);

        let plain = ExecEnv::new().evaluate(ctx(), &workload, scheme);

        let ring = Arc::new(RingSink::new(256));
        let agg = Arc::new(AggregateSink::new());
        let sink: Arc<dyn TraceSink> =
            Arc::new(FanoutSink::new(vec![ring.clone(), agg.clone()]));
        let traced = ExecEnv::new().with_trace(sink).evaluate(ctx(), &workload, scheme);

        prop_assert_eq!(trajectory(&plain), trajectory(&traced));
        // And the sink really observed the replay.
        prop_assert!(ring.total_recorded() > 0);
        prop_assert!(agg.summary().dispatches as usize >= workload.len());
    }
}

/// The aggregate summary derived purely from trace events must agree with
/// the `MpcStats` the governor accumulates internally (the Figure 14/15
/// source): mean horizon, overhead per decision, and evaluation counts.
/// The telemetry registry times one `env.dispatch` span per traced
/// dispatch, and the baseline cache serves a second pass without
/// simulating again.
#[test]
fn aggregate_summary_reproduces_mpc_stats() {
    let workload = workload_by_name("kmeans").unwrap();
    let scheme = Scheme::MpcRf {
        horizon: HorizonMode::default(),
    };
    // A baseline cache of its own: the counts below see only this test.
    let ctx = ctx().with_fresh_baselines();
    // The warm pass simulates the Turbo Core baseline. It has a sink of
    // its own, so the traced pass covers exactly one evaluation.
    let warm = Arc::new(AggregateSink::new());
    let warm_sink: Arc<dyn TraceSink> = warm.clone();
    ExecEnv::new()
        .with_trace(warm_sink)
        .evaluate(&ctx, &workload, scheme);
    assert_eq!(warm.summary().baseline_resolutions, 1);

    let agg = Arc::new(AggregateSink::new());
    let sink: Arc<dyn TraceSink> = agg.clone();
    let telemetry = Telemetry::new();
    let out = ExecEnv::new()
        .with_trace(sink)
        .with_telemetry(telemetry.clone())
        .evaluate(&ctx, &workload, scheme);
    let stats = out.mpc_stats.expect("MPC scheme returns stats");
    let summary = agg.summary();

    assert_eq!(summary.horizon_decisions as usize, stats.horizons.len());
    assert!(
        (summary.mean_horizon - stats.average_horizon()).abs() < 1e-9,
        "trace mean horizon {} vs stats {}",
        summary.mean_horizon,
        stats.average_horizon()
    );
    let stats_overhead_per_decision = stats.total_overhead_s() / stats.horizons.len() as f64;
    assert!(
        (summary.overhead_per_decision_s - stats_overhead_per_decision).abs() < 1e-12,
        "trace overhead/decision {} vs stats {}",
        summary.overhead_per_decision_s,
        stats_overhead_per_decision
    );
    assert_eq!(summary.horizon_evaluations, stats.total_evaluations());
    // One run per invocation: the profiling run and the measured one.
    assert_eq!(summary.runs, 1 + u64::from(out.profiling.is_some()));

    assert_eq!(summary.baseline_resolutions, 1);
    let cache = ctx.baseline_stats();
    assert_eq!((cache.computed, cache.hits), (1, 1));

    let snapshot = telemetry.snapshot();
    assert_eq!(
        snapshot.span("env.dispatch").map(|s| s.count),
        Some(summary.dispatches)
    );
}

/// A trace describes the evaluation, not the state of the baseline
/// cache it ran against: one evaluation summarizes identically whether
/// it simulated the Turbo Core baseline (cold cache) or found it stored
/// (warm cache). This is what keeps per-experiment trace counts
/// independent of which experiment reached a shared baseline first.
#[test]
fn one_evaluation_traces_alike_on_a_cold_and_a_warm_baseline_cache() {
    let workload = workload_by_name("Spmv").unwrap();
    let scheme = Scheme::PpkRf;
    let ctx = ctx().with_fresh_baselines();
    let traced = || {
        let agg = Arc::new(AggregateSink::new());
        ExecEnv::new()
            .with_trace(agg.clone() as Arc<dyn TraceSink>)
            .evaluate(&ctx, &workload, scheme);
        agg.summary()
    };
    let cold = traced();
    let warm = traced();
    let cache = ctx.baseline_stats();
    assert_eq!((cache.computed, cache.hits), (1, 1));
    assert_eq!(cold, warm);
}

/// Events streamed through the JSONL sink round-trip the golden schema.
#[test]
fn traced_run_events_roundtrip_jsonl() {
    let workload = workload_by_name("Spmv").unwrap();
    let jsonl = Arc::new(gpm_trace::JsonlSink::new(Vec::new()));
    let sink: Arc<dyn TraceSink> = jsonl.clone();
    let env = ExecEnv::new().with_trace(Arc::clone(&sink));
    let _ = env.evaluate(
        ctx(),
        &workload,
        Scheme::MpcRf {
            horizon: HorizonMode::default(),
        },
    );
    drop(env);
    drop(sink);
    let bytes = Arc::try_unwrap(jsonl).expect("sole owner").into_inner();
    let text = String::from_utf8(bytes).unwrap();
    let mut kinds = std::collections::BTreeSet::new();
    let mut count = 0usize;
    for line in text.lines() {
        let event: gpm_trace::TraceEvent = serde_json::from_str(line).unwrap();
        assert_eq!(serde_json::to_string(&event).unwrap(), line);
        kinds.insert(event.kind());
        count += 1;
    }
    assert!(count > 2 * workload.len(), "only {count} events");
    for expected in [
        "RunStart", "Dispatch", "Search", "Decision", "Outcome", "Headroom", "RunEnd",
    ] {
        assert!(kinds.contains(expected), "missing {expected} in {kinds:?}");
    }
}
