//! Performance smoke gate for the batched flat-forest inference engine.
//!
//! Measures, on the deployed evaluation context's forests:
//!
//! * the seed's scalar path (per-call feature allocation + nested tree
//!   traversal) vs the batched flat path, in candidates priced per
//!   second — once in the governor's steady state (repeated sweeps over
//!   one snapshot, where the value memo carries the load) and once with
//!   a never-seen snapshot per sweep (re-specialize and walk everything,
//!   the raw engine number);
//! * scalar `RandomForestPredictor::predict` with one candidate per
//!   never-seen snapshot — the value memo's worst case: every call
//!   claims a fresh memo slot and then walks both forests — against the
//!   same flat walk with no memo in front of it;
//! * the MPC(RF,adaptive) decisions of a real `ExecEnv::evaluate` on
//!   one suite workload: host ns per priced candidate (the whole
//!   evaluation's wall time over the candidates its `MpcStats` count)
//!   and the share of candidates the forest's value memo served. Each
//!   timed evaluation runs on a fresh thread, so its memo starts empty
//!   and every hit is a repeat inside that one evaluation;
//! * `RandomForest` fit wall-time, single-threaded vs auto-parallel,
//!   with the host's `available_parallelism`, whether the auto fit
//!   really ran on more than one thread (`fit_parallel_measured`), and
//!   the instruction-set tier the split search ran on (`fit_simd_tier`).
//!
//! The forest fits run under a live [`gpm_telemetry`] registry, and the
//! `rf.fit` span totals are cross-checked against the bench's own
//! wall-clock timers — the profiler must count every fit and attribute
//! (nearly) all of its wall time, or the phase tables the `reproduce`
//! pipeline emits are lying.
//!
//! Emits `results/BENCH_perf.json` and exits non-zero when the
//! steady-state batched path fails to clear `GPM_PERF_MIN_SPEEDUP`
//! (default 5×) over the scalar path, the fresh-snapshot path falls
//! under `GPM_PERF_MIN_FRESH_SPEEDUP` (default 1.5×), the MPC decisions
//! price ≤ 1 candidate on average (the search is not running), or the
//! span profile disagrees with the wall clock, so CI catches throughput
//! regressions on the MPC hot path. Build with `--release`; debug
//! numbers are meaningless.

use gpm_harness::{context, EvalContext, EvalOptions, ExecEnv, Scheme};
use gpm_hw::{ConfigSpace, HwConfig};
use gpm_model::{
    encode_features, Dataset, FeatureBuffer, FlatForest, RandomForest, RandomForestPredictor,
};
use gpm_mpc::HorizonMode;
use gpm_sim::predictor::{KernelSnapshot, PowerPerfPredictor};
use gpm_sim::PowerPerfEstimate;
use gpm_workloads::workload_by_name;
use gpm_xp::emit_artifact;
use serde::Serialize;
use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct PerfReport {
    forest_num_trees: usize,
    candidates: usize,
    scalar_candidates_per_s: f64,
    batched_candidates_per_s: f64,
    batched_speedup: f64,
    fresh_snapshot_candidates_per_s: f64,
    fresh_snapshot_speedup: f64,
    scalar_fresh_walk_ns_per_candidate: f64,
    scalar_fresh_predict_ns_per_candidate: f64,
    scalar_fresh_predict_vs_walk: f64,
    min_speedup_gate: f64,
    min_fresh_speedup_gate: f64,
    mpc_workload: &'static str,
    mpc_evaluations_timed: u64,
    mpc_evaluate_ms: f64,
    mpc_decisions: usize,
    mpc_candidates: u64,
    mpc_candidates_per_decision: f64,
    mpc_ns_per_candidate: f64,
    mpc_memo_hit_share: f64,
    fit_wall_ms_single_thread: f64,
    fit_wall_ms_auto: f64,
    available_parallelism: usize,
    fit_threads_auto: usize,
    fit_parallel_measured: bool,
    fit_simd_tier: &'static str,
    fit_span_count: u64,
    fit_span_total_ms: f64,
    fit_span_coverage: f64,
}

/// Runs `f` until `min_elapsed` has passed (at least once), returning
/// (iterations, elapsed).
fn measure(min_elapsed: Duration, mut f: impl FnMut()) -> (u64, Duration) {
    // Warm-up: populate thread-local scratch and caches.
    f();
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed();
        if elapsed >= min_elapsed {
            return (iters, elapsed);
        }
    }
}

/// The suite workload whose MPC decisions are timed: irregular, with
/// hill climbs on about half of its 30 decisions.
const MPC_WORKLOAD: &str = "Spmv";

fn main() {
    let budget = Duration::from_millis(400);
    // The deployed evaluation context: both inference paths and the MPC
    // decisions price the forests the governors actually run.
    let options = EvalOptions::default();
    let params = options.forest.clone();
    let ctx = EvalContext::build(options);
    let (sim, rf) = (&ctx.sim, &ctx.rf);
    let kernels = context::training_kernels();

    let out = sim.evaluate(&kernels[0], HwConfig::FAIL_SAFE);
    let snap = KernelSnapshot::counters_only(out.counters, HwConfig::FAIL_SAFE, 1.0);
    let cfgs: Vec<HwConfig> = ConfigSpace::paper_campaign().iter().collect();

    // Seed scalar path: fresh feature vector + nested traversal per call.
    let (time_forest, power_forest) = (rf.time_forest(), rf.power_forest());
    let (scalar_iters, scalar_elapsed) = measure(budget, || {
        for &cfg in &cfgs {
            let features = encode_features(&snap.counters, cfg);
            black_box(PowerPerfEstimate {
                time_s: time_forest.predict(&features).exp().max(1e-9),
                gpu_power_w: power_forest.predict(&features).max(0.1),
            });
        }
    });

    // Batched flat path, governor steady state: repeated sweeps over one
    // snapshot, served by the value memo after the first call.
    let mut batch_out = Vec::new();
    let (batched_iters, batched_elapsed) = measure(budget, || {
        rf.predict_batch(&snap, &cfgs, &mut batch_out);
        black_box(&batch_out);
    });

    // Batched flat path, a never-seen snapshot per sweep: perturbing a
    // counter by the sweep index defeats the value memo, so every call
    // pays specialization plus the full interleaved walks — the raw
    // engine throughput. The seed's scalar path has no snapshot caching,
    // so the one scalar baseline serves both comparisons.
    let fresh_base: Vec<[f64; gpm_sim::NUM_COUNTERS]> = kernels
        .iter()
        .take(8)
        .map(|k| *sim.evaluate(k, HwConfig::FAIL_SAFE).counters.values())
        .collect();
    let mut fresh_idx = 0usize;
    let (fresh_iters, fresh_elapsed) = measure(budget, || {
        let mut counters = fresh_base[fresh_idx % fresh_base.len()];
        counters[0] *= 1.0 + fresh_idx as f64 * 1e-9;
        let snap = KernelSnapshot::counters_only(
            gpm_sim::CounterSet::from_values(counters),
            HwConfig::FAIL_SAFE,
            1.0,
        );
        rf.predict_batch(&snap, &cfgs, &mut batch_out);
        fresh_idx += 1;
        black_box(&batch_out);
    });

    // Scalar pricing, one candidate per never-seen snapshot: `predict`
    // (memo lookup, a fresh memo slot, then the flat walks) against the
    // bare flat walks it falls back to.
    let time_flat = FlatForest::from_forest(time_forest);
    let power_flat = FlatForest::from_forest(power_forest);
    let mut buf = FeatureBuffer::new();
    let fresh_snapshot = |i: usize| {
        let mut counters = fresh_base[i % fresh_base.len()];
        counters[0] *= 1.0 + (fresh_idx + i) as f64 * 1e-9;
        KernelSnapshot::counters_only(
            gpm_sim::CounterSet::from_values(counters),
            HwConfig::FAIL_SAFE,
            1.0,
        )
    };
    let mut walk = |snap: &KernelSnapshot, cfg: HwConfig| {
        buf.begin_snapshot(&snap.counters);
        buf.push_config(cfg);
        let row = buf.matrix().row(0);
        PowerPerfEstimate {
            time_s: time_flat.predict(row).exp().max(1e-9),
            gpu_power_w: power_flat.predict(row).max(0.1),
        }
    };
    let probe = fresh_snapshot(usize::MAX / 2);
    assert_eq!(
        rf.predict(&probe, cfgs[0]),
        walk(&probe, cfgs[0]),
        "predict must match the bare flat walk"
    );
    let mut scalar_idx = 0usize;
    let (walk_iters, walk_elapsed) = measure(budget, || {
        let snap = fresh_snapshot(scalar_idx);
        black_box(walk(&snap, cfgs[scalar_idx % cfgs.len()]));
        scalar_idx += 1;
    });
    let (predict_iters, predict_elapsed) = measure(budget, || {
        let snap = fresh_snapshot(scalar_idx);
        black_box(rf.predict(&snap, cfgs[scalar_idx % cfgs.len()]));
        scalar_idx += 1;
    });
    let walk_ns = walk_elapsed.as_secs_f64() * 1e9 / walk_iters as f64;
    let predict_ns = predict_elapsed.as_secs_f64() * 1e9 / predict_iters as f64;

    let rows = cfgs.len() as f64;
    let scalar_rate = scalar_iters as f64 * rows / scalar_elapsed.as_secs_f64();
    let batched_rate = batched_iters as f64 * rows / batched_elapsed.as_secs_f64();
    let fresh_rate = fresh_iters as f64 * rows / fresh_elapsed.as_secs_f64();
    let speedup = batched_rate / scalar_rate;
    let fresh_speedup = fresh_rate / scalar_rate;

    // MPC(RF,adaptive) decisions of a real ExecEnv::evaluate. The
    // baseline is resolved once, untimed; each timed evaluation runs on
    // a fresh thread, whose empty value memo keeps warm state from
    // earlier evaluations out of the measurement.
    let workload = workload_by_name(MPC_WORKLOAD).expect("suite workload");
    let env = ExecEnv::new();
    let scheme = Scheme::MpcRf {
        horizon: HorizonMode::default(),
    };
    env.baseline(&ctx, &workload);
    let evaluate_cold = || {
        std::thread::scope(|s| {
            s.spawn(|| {
                let t = Instant::now();
                let outcome = env.evaluate(&ctx, &workload, scheme);
                let elapsed = t.elapsed();
                (elapsed, outcome, RandomForestPredictor::thread_memo_stats())
            })
            .join()
            .expect("evaluation thread panicked")
        })
    };
    // The evaluation is deterministic, so one probe gives the exact
    // decision and candidate counts; the timed loop then only measures.
    let (_, probe, memo) = evaluate_cold();
    let mpc_stats = probe.mpc_stats.expect("MPC scheme reports MpcStats");
    let mpc_decisions = mpc_stats.evaluations.len();
    let mpc_candidates: u64 = mpc_stats.evaluations.iter().sum();
    let candidates_per_decision = mpc_candidates as f64 / mpc_decisions.max(1) as f64;
    let (mut evaluations, mut evaluate_time) = (0u64, Duration::ZERO);
    while evaluations == 0 || evaluate_time < budget {
        evaluate_time += evaluate_cold().0;
        evaluations += 1;
    }
    let evaluate_ms = evaluate_time.as_secs_f64() * 1e3 / evaluations as f64;
    let mpc_ns_per_candidate = evaluate_ms * 1e6 / mpc_candidates.max(1) as f64;

    // Fit wall-time: sequential vs auto-parallel (bit-identical
    // results), profiled: both fits run under a telemetry registry so
    // the `rf.fit` span totals can be reconciled against these timers.
    // The fits train on the whole campaign: the suite-wide kernel corpus
    // over the strided campaign space.
    let ds = Dataset::from_campaign(
        sim,
        &kernels,
        &context::training_space(2),
        HwConfig::FAIL_SAFE,
    );
    let telemetry = gpm_telemetry::Telemetry::new();
    let xs = ds.xs();
    let ys = ds.ys_log_time();
    let (fit_seq, fit_auto) = {
        let _enter = telemetry.enter();
        let t0 = Instant::now();
        let seq = RandomForest::fit_with_threads(&xs, &ys, &params, 7, 1);
        let fit_seq = t0.elapsed();
        let t1 = Instant::now();
        let par = RandomForest::fit_with_threads(&xs, &ys, &params, 7, 0);
        let fit_auto = t1.elapsed();
        assert_eq!(seq, par, "parallel fit must be bit-identical");
        (fit_seq, fit_auto)
    };
    // What the auto fit actually ran on. On a 1-core host both fits are
    // sequential, so the artifact says the parallel fit went unmeasured.
    let available_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let threads_auto = RandomForest::resolved_fit_threads(0, params.num_trees);
    let fit_parallel_measured = threads_auto > 1;
    let fit_span = telemetry
        .snapshot()
        .span("rf.fit")
        .expect("rf.fit span recorded");
    let fit_wall_ms = (fit_seq + fit_auto).as_secs_f64() * 1e3;
    let fit_span_ms = fit_span.total_ns as f64 / 1e6;
    // The span opens inside the fit, after the once-per-dataset rank
    // encoding, and the timer wraps the call, so span time is a subset
    // of wall time; anything under 90% coverage means the profiler is
    // dropping attributable work.
    let fit_coverage = fit_span_ms / fit_wall_ms.max(1e-9);

    let gate = std::env::var("GPM_PERF_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(5.0);
    let fresh_gate = std::env::var("GPM_PERF_MIN_FRESH_SPEEDUP")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.5);

    let report = PerfReport {
        forest_num_trees: params.num_trees,
        candidates: cfgs.len(),
        scalar_candidates_per_s: scalar_rate,
        batched_candidates_per_s: batched_rate,
        batched_speedup: speedup,
        fresh_snapshot_candidates_per_s: fresh_rate,
        fresh_snapshot_speedup: fresh_speedup,
        scalar_fresh_walk_ns_per_candidate: walk_ns,
        scalar_fresh_predict_ns_per_candidate: predict_ns,
        scalar_fresh_predict_vs_walk: predict_ns / walk_ns,
        min_speedup_gate: gate,
        min_fresh_speedup_gate: fresh_gate,
        mpc_workload: MPC_WORKLOAD,
        mpc_evaluations_timed: evaluations,
        mpc_evaluate_ms: evaluate_ms,
        mpc_decisions,
        mpc_candidates,
        mpc_candidates_per_decision: candidates_per_decision,
        mpc_ns_per_candidate,
        mpc_memo_hit_share: memo.hit_share(),
        fit_wall_ms_single_thread: fit_seq.as_secs_f64() * 1e3,
        fit_wall_ms_auto: fit_auto.as_secs_f64() * 1e3,
        available_parallelism,
        fit_threads_auto: threads_auto,
        fit_parallel_measured,
        fit_simd_tier: gpm_model::fit_simd_tier(),
        fit_span_count: fit_span.count,
        fit_span_total_ms: fit_span_ms,
        fit_span_coverage: fit_coverage,
    };

    println!(
        "perf smoke ({} trees, {} candidates):",
        params.num_trees,
        cfgs.len()
    );
    println!("  scalar        : {:>12.0} candidates/s", scalar_rate);
    println!(
        "  batched steady: {:>12.0} candidates/s ({speedup:.1}x)",
        batched_rate
    );
    println!(
        "  batched fresh : {:>12.0} candidates/s ({fresh_speedup:.1}x)",
        fresh_rate
    );
    println!(
        "  scalar fresh  : {predict_ns:>12.0} ns/candidate via predict, \
         {walk_ns:.0} ns via the bare flat walk ({:.2}x)",
        predict_ns / walk_ns
    );
    println!(
        "  MPC(RF,adaptive) on {MPC_WORKLOAD}: {evaluate_ms:.2} ms per evaluation, \
         {mpc_decisions} decisions pricing {candidates_per_decision:.1} candidates each, \
         {mpc_ns_per_candidate:.0} ns/candidate, value-memo hit share {:.1}%",
        memo.hit_share() * 100.0
    );
    println!(
        "  fit: {:.0} ms single-thread, {:.0} ms on {} threads ({} available), {} split search",
        report.fit_wall_ms_single_thread,
        report.fit_wall_ms_auto,
        threads_auto,
        available_parallelism,
        report.fit_simd_tier
    );
    if !fit_parallel_measured {
        println!("  fit: auto resolved to 1 thread; the parallel fit was not measured");
    }
    println!(
        "  rf.fit spans: {} covering {:.0} ms ({:.0}% of fit wall time)",
        fit_span.count,
        fit_span_ms,
        fit_coverage * 100.0
    );
    emit_artifact("results/BENCH_perf.json", &report);

    if candidates_per_decision <= 1.0 {
        eprintln!(
            "FAIL: MPC decisions priced {candidates_per_decision:.2} candidates on average; \
             the search is not running"
        );
        std::process::exit(1);
    }
    if speedup < gate {
        eprintln!("FAIL: batched speedup {speedup:.2}x below the {gate:.1}x gate");
        std::process::exit(1);
    }
    if fresh_speedup < fresh_gate {
        eprintln!(
            "FAIL: fresh-snapshot speedup {fresh_speedup:.2}x below the {fresh_gate:.1}x gate"
        );
        std::process::exit(1);
    }
    if fit_span.count != 2 {
        eprintln!(
            "FAIL: expected 2 rf.fit spans (sequential + parallel fit), saw {}",
            fit_span.count
        );
        std::process::exit(1);
    }
    if !(0.9..=1.01).contains(&fit_coverage) {
        eprintln!(
            "FAIL: rf.fit span total {fit_span_ms:.1} ms covers {:.0}% of the \
             {fit_wall_ms:.1} ms fit wall time (expected 90-101%)",
            fit_coverage * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "PASS: batched speedup {speedup:.2}x (fresh {fresh_speedup:.2}x) clears the {gate:.1}x gate"
    );
}
