//! Host-timed performance gates: the forest predictor's memoized and
//! fresh sweeps and its fresh single estimate against the nested
//! traversal, the flat walk's bit-identity to it, the simulator's
//! memoized measurements against the noiseless model, the MPC search's
//! candidate count, forest-fit determinism and span coverage, and fleet
//! scaling.
//!
//! Debug-build timings are meaningless and a parallel test runner skews
//! them, so every gate is `#[ignore]`d and runs on its own:
//!
//! ```text
//! cargo test --release -p gpm-bench --test perf_gates -- --ignored --test-threads=1 --nocapture
//! ```

use gpm_harness::{context, EvalContext, EvalOptions, ExecEnv, ForestCache, Scheme};
use gpm_hw::{ConfigSpace, HwConfig};
use gpm_model::{encode_features, Dataset, RandomForest, RegressionTree};
use gpm_mpc::HorizonMode;
use gpm_sim::predictor::{KernelSnapshot, PowerPerfPredictor};
use gpm_sim::{ApuSimulator, CounterSet, PowerPerfEstimate, NUM_COUNTERS};
use gpm_workloads::workload_by_name;
use gpm_xp::experiments::fleet::fleet_scaling;
use gpm_xp::{Mode, XpEnv};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Steady-state pricing of one snapshot's sweep, served by the value
/// memo, must beat the nested traversal by this factor.
const MIN_SPEEDUP: f64 = 5.0;
/// Pricing a never-seen snapshot's sweep, one flat walk per candidate,
/// must beat the nested traversal by this factor.
const MIN_FRESH_SPEEDUP: f64 = 1.5;
/// One scalar `predict` on a never-seen snapshot must beat the nested
/// traversal of the same inputs by this factor.
const MIN_FRESH_SCALAR_SPEEDUP: f64 = 1.5;
/// Never-seen snapshots the scalar path is checked against the nested
/// forests on, each over the full sweep.
const SCALAR_ORACLE_SNAPSHOTS: usize = 64;
/// Repeated `ApuSimulator::evaluate` calls over one kernel's sweep,
/// served by the measurement memo, must beat measuring the same sweep on
/// a fresh simulator by this factor.
const MIN_MEASUREMENT_MEMO_SPEEDUP: f64 = 4.0;
/// Fleet wall-time speedup of the auto worker count over one worker:
/// the median over `FLEET_ROUNDS` calls of the `fleet_scaling` experiment.
const MIN_FLEET_SCALING: f64 = 1.05;
/// Calls of `fleet_scaling` the fleet gate takes the median over.
const FLEET_ROUNDS: usize = 7;

/// Minimum wall time of each timed loop.
const BUDGET: Duration = Duration::from_millis(400);

/// The deployed evaluation context: every inference gate prices the
/// forests the governors actually run.
fn deployed() -> &'static EvalContext {
    static CTX: OnceLock<EvalContext> = OnceLock::new();
    CTX.get_or_init(|| EvalContext::build(EvalOptions::default()))
}

/// Runs `f` until `BUDGET` has passed (at least once) after one warm-up
/// call, returning the calls per second.
fn calls_per_s(mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed();
        if elapsed >= BUDGET {
            return iters as f64 / elapsed.as_secs_f64();
        }
    }
}

/// The paper's 336-point campaign sweep.
fn sweep() -> Vec<HwConfig> {
    ConfigSpace::paper_campaign().iter().collect()
}

/// Fail-safe counters of the first `n` training kernels.
fn counter_bases(ctx: &EvalContext, n: usize) -> Vec<[f64; NUM_COUNTERS]> {
    context::training_kernels()
        .iter()
        .take(n)
        .map(|k| *ctx.sim.evaluate(k, HwConfig::FAIL_SAFE).counters.values())
        .collect()
}

/// A snapshot no earlier call has priced: perturbing a counter by `i`
/// defeats the forest's value memo.
fn never_seen(bases: &[[f64; NUM_COUNTERS]], i: usize) -> KernelSnapshot {
    let mut counters = bases[i % bases.len()];
    counters[0] *= 1.0 + i as f64 * 1e-9;
    KernelSnapshot::counters_only(CounterSet::from_values(counters), HwConfig::FAIL_SAFE, 1.0)
}

#[test]
#[ignore = "release-only gate; run with --ignored --test-threads=1"]
fn batched_inference_clears_its_speedup_floors() {
    let ctx = deployed();
    let rf = &ctx.rf;
    let cfgs = sweep();
    assert_eq!(cfgs.len(), 336);
    let kernel = &context::training_kernels()[0];
    let out = ctx.sim.evaluate(kernel, HwConfig::FAIL_SAFE);
    let snap = KernelSnapshot::counters_only(out.counters, HwConfig::FAIL_SAFE, 1.0);
    let nested = nested();

    // The scalar path: the nested traversal per candidate.
    let scalar = calls_per_s(|| {
        for &cfg in &cfgs {
            black_box(nested_estimate(nested, &snap, cfg));
        }
    });

    // The governor's steady state: repeated sweeps over one snapshot,
    // served by the value memo after the first call.
    let mut batch_out = Vec::new();
    let steady = calls_per_s(|| {
        rf.predict_batch(&snap, &cfgs, &mut batch_out);
        black_box(&batch_out);
    });

    // The raw engine: a never-seen snapshot per sweep misses the value
    // memo, so every candidate walks both flat forests.
    let bases = counter_bases(ctx, 8);
    let mut i = 0usize;
    let fresh = calls_per_s(|| {
        rf.predict_batch(&never_seen(&bases, i), &cfgs, &mut batch_out);
        i += 1;
        black_box(&batch_out);
    });

    let (speedup, fresh_speedup) = (steady / scalar, fresh / scalar);
    let rate = |sweeps: f64| sweeps * cfgs.len() as f64;
    println!(
        "scalar {:.0}, batched steady {:.0} ({speedup:.2}x), batched fresh {:.0} \
         ({fresh_speedup:.2}x) candidates/s",
        rate(scalar),
        rate(steady),
        rate(fresh)
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "batched speedup {speedup:.2}x below the {MIN_SPEEDUP}x floor"
    );
    assert!(
        fresh_speedup >= MIN_FRESH_SPEEDUP,
        "fresh-snapshot speedup {fresh_speedup:.2}x below the {MIN_FRESH_SPEEDUP}x floor"
    );
}

#[test]
#[ignore = "release-only gate; run with --ignored --test-threads=1"]
fn warm_measurements_are_served_from_the_memo() {
    let params = EvalOptions::default().sim_params;
    let kernel = &context::training_kernels()[0];
    let cfgs = sweep();
    // What every call cost before the memo: a fresh simulator measures
    // each configuration of the sweep, noise and all.
    let cold = calls_per_s(|| {
        let fresh = ApuSimulator::new(params.clone());
        for &cfg in &cfgs {
            black_box(fresh.evaluate(black_box(kernel), cfg));
        }
    });
    // The first sweep (the warm-up call) measures; every later one is
    // served from the memo.
    let sim = ApuSimulator::new(params);
    let warm = calls_per_s(|| {
        for &cfg in &cfgs {
            black_box(sim.evaluate(black_box(kernel), cfg));
        }
    });
    // The noiseless model, for scale: the noise draws cost most of a
    // measurement.
    let exact = calls_per_s(|| {
        for &cfg in &cfgs {
            black_box(sim.evaluate_exact(black_box(kernel), cfg));
        }
    });
    let speedup = warm / cold;
    let rate = |sweeps: f64| sweeps * cfgs.len() as f64;
    println!(
        "cold evaluate {:.0}, warm evaluate {:.0} ({speedup:.2}x), evaluate_exact {:.0} \
         calls/s on {}",
        rate(cold),
        rate(warm),
        rate(exact),
        kernel.name()
    );
    assert!(
        speedup >= MIN_MEASUREMENT_MEMO_SPEEDUP,
        "warm evaluate is {speedup:.2}x a cold one, below the \
         {MIN_MEASUREMENT_MEMO_SPEEDUP}x floor"
    );
}

/// The deployed forests unpacked into nested enum-node trees, once and
/// outside every timed loop: the walk the packed forests replaced.
fn nested() -> &'static [Vec<RegressionTree>; 2] {
    static NESTED: OnceLock<[Vec<RegressionTree>; 2]> = OnceLock::new();
    NESTED.get_or_init(|| {
        let rf = &deployed().rf;
        [rf.time_forest().to_trees(), rf.power_forest().to_trees()]
    })
}

/// The estimate the nested forests give: a fresh feature vector and a
/// nested-tree traversal per candidate, no caching of any kind.
fn nested_estimate(
    [time, power]: &[Vec<RegressionTree>; 2],
    snap: &KernelSnapshot,
    cfg: HwConfig,
) -> PowerPerfEstimate {
    let features = encode_features(&snap.counters, cfg);
    let walk = |trees: &[RegressionTree]| {
        trees.iter().map(|t| t.predict(&features)).sum::<f64>() / trees.len() as f64
    };
    PowerPerfEstimate {
        time_s: walk(time).exp().max(1e-9),
        gpu_power_w: walk(power).max(0.1),
    }
}

#[test]
#[ignore = "release-only gate; run with --ignored --test-threads=1"]
fn scalar_predict_matches_the_nested_walk() {
    let ctx = deployed();
    let rf = &ctx.rf;
    let bases = counter_bases(ctx, 8);
    let cfgs = sweep();
    let trees = nested();
    for s in 0..SCALAR_ORACLE_SNAPSHOTS {
        let snap = never_seen(&bases, (1 << 30) + s);
        for &cfg in &cfgs {
            let (est, nested) = (rf.predict(&snap, cfg), nested_estimate(trees, &snap, cfg));
            assert_eq!(
                (est.time_s.to_bits(), est.gpu_power_w.to_bits()),
                (nested.time_s.to_bits(), nested.gpu_power_w.to_bits()),
                "snapshot {s}: predict diverged from the nested walk at {cfg:?}"
            );
        }
    }
}

#[test]
#[ignore = "release-only gate; run with --ignored --test-threads=1"]
fn fresh_scalar_predict_beats_the_nested_walk() {
    // One scalar estimate per never-seen snapshot: the value memo claims
    // a slot and misses every time, so each call pays a full walk of
    // both forests, as a hill climb's first estimate on a new kernel does.
    let ctx = deployed();
    let rf = &ctx.rf;
    let bases = counter_bases(ctx, 8);
    let cfgs = sweep();
    let input = |i: usize| (never_seen(&bases, (1 << 20) + i), cfgs[i % cfgs.len()]);
    let trees = nested();
    let mut i = 0usize;
    let nested = calls_per_s(|| {
        let (snap, cfg) = input(i);
        black_box(nested_estimate(trees, &snap, cfg));
        i += 1;
    });
    let mut i = 0usize;
    let fresh = calls_per_s(|| {
        let (snap, cfg) = input(i);
        black_box(rf.predict(&snap, cfg));
        i += 1;
    });
    let speedup = fresh / nested;
    println!(
        "fresh scalar predict: {:.2} us against {:.2} us nested ({speedup:.2}x)",
        1e6 / fresh,
        1e6 / nested
    );
    assert!(
        speedup >= MIN_FRESH_SCALAR_SPEEDUP,
        "fresh scalar speedup {speedup:.2}x below the {MIN_FRESH_SCALAR_SPEEDUP}x floor"
    );
}

#[test]
#[ignore = "release-only gate; run with --ignored --test-threads=1"]
fn mpc_decisions_price_more_than_one_candidate() {
    // Spmv is irregular, with hill climbs on about half of its decisions:
    // a search that stops after one estimate shows here.
    let workload = workload_by_name("Spmv").expect("suite workload");
    let scheme = Scheme::MpcRf {
        horizon: HorizonMode::default(),
    };
    let out = ExecEnv::new().evaluate(deployed(), &workload, scheme);
    let stats = out.mpc_stats.expect("MPC scheme reports MpcStats");
    let decisions = stats.evaluations.len();
    let candidates: u64 = stats.evaluations.iter().sum();
    let per_decision = candidates as f64 / decisions.max(1) as f64;
    println!(
        "MPC(RF,adaptive) on Spmv: {decisions} decisions pricing {per_decision:.1} candidates each"
    );
    assert!(
        per_decision > 1.0,
        "MPC decisions priced {per_decision:.2} candidates on average; the search is not running"
    );
}

#[test]
#[ignore = "release-only gate; run with --ignored --test-threads=1"]
fn forest_fit_is_thread_invariant_and_fully_profiled() {
    let ctx = deployed();
    let params = &ctx.options.forest;
    let kernels = context::training_kernels();
    let ds = Dataset::from_campaign(
        &ctx.sim,
        &kernels,
        &context::training_space(2),
        HwConfig::FAIL_SAFE,
        1,
    );
    let (xs, ys) = (ds.xs(), ds.ys_log_time());

    let telemetry = gpm_telemetry::Telemetry::new();
    let (seq, par, fit_wall) = {
        let _enter = telemetry.enter();
        let start = Instant::now();
        let seq = RandomForest::fit_with_threads(&xs, &ys, params, 7, 1);
        let par = RandomForest::fit_with_threads(&xs, &ys, params, 7, 0);
        (seq, par, start.elapsed())
    };
    assert_eq!(seq, par, "the auto-thread fit must be bit-identical");

    let threads = RandomForest::resolved_fit_threads(0, params.num_trees);
    let span = telemetry
        .snapshot()
        .span("rf.fit")
        .expect("rf.fit span recorded");
    let wall_ms = fit_wall.as_secs_f64() * 1e3;
    let span_ms = span.total_ns as f64 / 1e6;
    // The span opens inside the fit, after the once-per-dataset rank
    // encoding, and the timer wraps both calls, so span time is a subset
    // of wall time; under 90% the profiler is dropping attributable work.
    let coverage = span_ms / wall_ms.max(1e-9);
    println!(
        "fit: {wall_ms:.0} ms for 1 + {threads} thread(s), {} split search; \
         {} rf.fit spans cover {:.0}%",
        gpm_model::fit_simd_tier(),
        span.count,
        coverage * 100.0
    );
    assert_eq!(span.count, 2, "expected one rf.fit span per fit");
    assert!(
        (0.9..=1.01).contains(&coverage),
        "rf.fit spans cover {:.0}% of the {wall_ms:.1} ms fit wall time (expected 90-101%)",
        coverage * 100.0
    );
}

#[test]
#[ignore = "release-only gate; run with --ignored --test-threads=1"]
fn fleet_auto_workers_scale() {
    // The `fleet_scaling` experiment times one warm run at each worker
    // count; a single millisecond-scale ratio is noisy, so the gate takes
    // the median over several calls on one fast context.
    let forests = ForestCache::new();
    let ctx = EvalContext::build_cached(Mode::Fast.options(), &forests);
    let artifacts = std::env::temp_dir();
    let env = XpEnv::new(Mode::Fast, Some(&ctx), &forests, &artifacts);
    // What auto resolves to: the host's available parallelism.
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut speedups = Vec::with_capacity(FLEET_ROUNDS);
    for _ in 0..FLEET_ROUNDS {
        let out = fleet_scaling(&env);
        let metric = |name: &str| out.metrics.iter().find(|m| m.name == name).map(|m| m.value);
        let Some(speedup) = metric("auto_speedup_over_1") else {
            println!("auto resolved to 1 worker: no scaling to gate");
            return;
        };
        speedups.push(speedup);
        println!("fleet: auto on {host_threads} host threads, {speedup:.2}x over 1 worker");
    }
    speedups.sort_by(f64::total_cmp);
    let median = speedups[FLEET_ROUNDS / 2];
    assert!(
        median >= MIN_FLEET_SCALING,
        "median auto-worker speedup {median:.2}x below the {MIN_FLEET_SCALING}x floor"
    );
}
