//! The dispatch path's golden guarantees: an [`ExecEnv`] holds no hidden
//! per-run state — a reused environment is byte-identical to a fresh one
//! built per call (the behavior of the retired `run_once*` /
//! `evaluate_scheme*` free functions, reconstructed inline here) — and
//! the context's shared baseline cache returns bit-identical Turbo Core
//! targets while simulating the baseline exactly once per workload per
//! context, even under concurrent resolution.
//!
//! It also pins the flat-forest inference engine to the seed's scalar
//! path: MPC and PPK decisions under the flat walk, its value memo and
//! the memoized search must be byte-identical to nested per-call
//! traversal, clean, traced, and faulted alike.

use gpm_faults::{FaultPlan, FaultyPredictor};
use gpm_governors::{EqualizerMode, FixedGovernor, OverheadModel, PerfTarget, PpkGovernor};
use gpm_harness::{turbo_core_baseline, EvalContext, EvalOptions, ExecEnv, Scheme, SchemeOutcome};
use gpm_hw::{ConfigSpace, HwConfig};
use gpm_model::{encode_features, ErrorSpec, RandomForestPredictor};
use gpm_mpc::{HorizonMode, MpcConfig, MpcGovernor};
use gpm_sim::{KernelSnapshot, PowerPerfEstimate, PowerPerfPredictor};
use gpm_trace::{AggregateSink, RingSink, TraceSink};
use gpm_workloads::{suite, workload_by_name};
use std::sync::{Arc, OnceLock};

fn ctx() -> &'static EvalContext {
    static CTX: OnceLock<EvalContext> = OnceLock::new();
    CTX.get_or_init(|| EvalContext::build(EvalOptions::fast()))
}

/// Every scheme constructor, parameterized variants included.
fn all_schemes() -> Vec<Scheme> {
    vec![
        Scheme::TurboCore,
        Scheme::PpkOracle,
        Scheme::PpkRf,
        Scheme::MpcRf {
            horizon: HorizonMode::default(),
        },
        Scheme::MpcRf {
            horizon: HorizonMode::Full,
        },
        Scheme::MpcRf {
            horizon: HorizonMode::Fixed(3),
        },
        Scheme::MpcRfOverhead {
            horizon: HorizonMode::default(),
            overhead: OverheadModel::default(),
        },
        Scheme::MpcRfIdealized,
        Scheme::MpcOracle,
        Scheme::MpcError {
            spec: ErrorSpec::ERR_15_10,
        },
        Scheme::TheoreticallyOptimal,
        Scheme::Equalizer {
            mode: EqualizerMode::Efficiency,
        },
    ]
}

/// Full outcome fingerprint: label, both trajectories, baseline, target.
fn fingerprint(out: &SchemeOutcome) -> String {
    let profiling = out
        .profiling
        .as_ref()
        .map(|p| serde_json::to_string(&p.per_kernel).unwrap())
        .unwrap_or_default();
    format!(
        "{}\n{}\n{}\n{}\n{:x}/{:x}",
        out.label,
        profiling,
        serde_json::to_string(&out.measured.per_kernel).unwrap(),
        serde_json::to_string(&out.baseline.per_kernel).unwrap(),
        out.target.total_ginstructions().to_bits(),
        out.target.total_time_s().to_bits(),
    )
}

#[test]
fn reused_execenv_matches_fresh_env_per_call_for_all_schemes() {
    // The retired `evaluate_scheme` shim built a fresh `ExecEnv::new()`
    // per call; a long-lived environment must be indistinguishable from
    // that — no state may leak between evaluations.
    let w = workload_by_name("kmeans").unwrap();
    let env = ExecEnv::new();
    for scheme in all_schemes() {
        let fresh = ExecEnv::new().evaluate(ctx(), &w, scheme);
        let reused = env.evaluate(ctx(), &w, scheme);
        assert_eq!(
            fingerprint(&fresh),
            fingerprint(&reused),
            "{} diverged between a fresh and a reused ExecEnv",
            scheme.label()
        );
    }
}

#[test]
fn traced_evaluation_is_environment_reuse_invariant() {
    let w = workload_by_name("Spmv").unwrap();
    let scheme = Scheme::MpcRf {
        horizon: HorizonMode::default(),
    };
    // Fresh environment per call (the retired `evaluate_scheme_traced`
    // construction) ...
    let fresh_agg = Arc::new(AggregateSink::new());
    let fresh = ExecEnv::new()
        .with_trace(fresh_agg.clone() as Arc<dyn TraceSink>)
        .evaluate(ctx(), &w, scheme);

    // ... versus one long-lived environment evaluating twice: the second
    // pass must stream the identical decision sequence.
    let agg = Arc::new(AggregateSink::new());
    let env = ExecEnv::new().with_trace(agg.clone());
    let _warmup = env.evaluate(ctx(), &w, scheme);
    let agg2 = Arc::new(AggregateSink::new());
    let env2 = ExecEnv::new().with_trace(agg2.clone());
    let reused = env2.evaluate(ctx(), &w, scheme);

    assert_eq!(fingerprint(&fresh), fingerprint(&reused));
    // Same decision stream → same aggregate counters.
    let (fs, us) = (fresh_agg.summary(), agg2.summary());
    assert_eq!(fs.dispatches, us.dispatches);
    assert_eq!(fs.decisions, us.decisions);
    assert_eq!(fs.horizon_evaluations, us.horizon_evaluations);
    assert_eq!(us.baseline_resolutions, 1);
}

#[test]
fn faulted_evaluation_is_environment_reuse_invariant() {
    let w = workload_by_name("EigenValue").unwrap();
    let scheme = Scheme::MpcRf {
        horizon: HorizonMode::default(),
    };
    let plan = FaultPlan::uniform(0xFEED_BEEF, 0.15);

    // Fresh environment (the retired `evaluate_scheme_faulted`
    // construction): trace + fault plan built per call.
    let fresh_agg = Arc::new(AggregateSink::new());
    let fresh = ExecEnv::new()
        .with_trace(fresh_agg.clone() as Arc<dyn TraceSink>)
        .with_fault_plan(plan.clone())
        .evaluate(ctx(), &w, scheme);

    // Reused environment: a second evaluation must replay the identical
    // fault schedule — the plan is stateless, so reuse cannot drift it.
    let agg = Arc::new(AggregateSink::new());
    let env = ExecEnv::new().with_trace(agg.clone()).with_fault_plan(plan);
    let _warmup = env.evaluate(ctx(), &w, scheme);
    let reused = env.evaluate(ctx(), &w, scheme);

    assert_eq!(fingerprint(&fresh), fingerprint(&reused));
    assert!(
        fresh_agg.summary().fault_injections > 0,
        "the 15% plan never fired"
    );
    // Two identical evaluations on the reused env inject exactly twice
    // the fresh env's single-evaluation count.
    assert_eq!(
        agg.summary().fault_injections,
        2 * fresh_agg.summary().fault_injections
    );
}

#[test]
fn telemetry_env_is_byte_identical_to_clean_env_for_all_schemes() {
    // Telemetry is strictly read-only observability: installing a live
    // registry (metrics + spans firing on every dispatch, search, and
    // baseline resolution) must not perturb a single decision byte.
    let w = workload_by_name("kmeans").unwrap();
    for scheme in all_schemes() {
        let clean = ExecEnv::new().evaluate(ctx(), &w, scheme);
        let tel = gpm_telemetry::Telemetry::new();
        let instrumented = ExecEnv::new()
            .with_telemetry(tel.clone())
            .evaluate(ctx(), &w, scheme);
        assert_eq!(
            fingerprint(&clean),
            fingerprint(&instrumented),
            "{} diverged between clean and telemetry-instrumented ExecEnv",
            scheme.label()
        );
        // The registry actually observed the run — this is not a
        // vacuous comparison against a disabled handle.
        let dispatch_spans = tel.snapshot().span("env.dispatch").map_or(0, |s| s.count);
        assert!(dispatch_spans > 0);
    }
}

#[test]
fn telemetry_env_byte_identity_holds_traced_and_faulted() {
    let w = workload_by_name("EigenValue").unwrap();
    let scheme = Scheme::MpcRf {
        horizon: HorizonMode::default(),
    };
    let plan = FaultPlan::uniform(0xFEED_BEEF, 0.15);
    let run = |telemetry: Option<gpm_telemetry::Telemetry>| {
        let agg = Arc::new(AggregateSink::new());
        let mut env = ExecEnv::new()
            .with_trace(agg.clone() as Arc<dyn TraceSink>)
            .with_fault_plan(plan.clone());
        if let Some(t) = telemetry {
            env = env.with_telemetry(t);
        }
        (env.evaluate(ctx(), &w, scheme), agg.summary())
    };
    let (clean, clean_sum) = run(None);
    let tel = gpm_telemetry::Telemetry::new();
    let (instrumented, instr_sum) = run(Some(tel.clone()));
    assert_eq!(fingerprint(&clean), fingerprint(&instrumented));
    assert_eq!(clean_sum, instr_sum, "trace summaries diverged");
    // Telemetry times one dispatch span per dispatch the trace counts.
    assert_eq!(
        tel.snapshot().span("env.dispatch").map(|s| s.count),
        Some(instr_sum.dispatches)
    );
}

#[test]
fn execenv_run_is_reuse_invariant_for_plain_replays() {
    let w = workload_by_name("NBody").unwrap();
    let target = PerfTarget::new(1.0, 1.0);
    let fresh = {
        let mut gov = FixedGovernor::new(HwConfig::FAIL_SAFE);
        ExecEnv::new().run(&ctx().sim, &w, &mut gov, target, 0, false)
    };
    let env = ExecEnv::default();
    let _warmup = {
        let mut gov = FixedGovernor::new(HwConfig::FAIL_SAFE);
        env.run(&ctx().sim, &w, &mut gov, target, 0, false)
    };
    let reused = {
        let mut gov = FixedGovernor::new(HwConfig::FAIL_SAFE);
        env.run(&ctx().sim, &w, &mut gov, target, 0, false)
    };
    assert_eq!(
        serde_json::to_string(&fresh.per_kernel).unwrap(),
        serde_json::to_string(&reused.per_kernel).unwrap()
    );
    assert_eq!(
        fresh.total_energy_j().to_bits(),
        reused.total_energy_j().to_bits()
    );
    assert_eq!(
        fresh.wall_time_s().to_bits(),
        reused.wall_time_s().to_bits()
    );
}

#[test]
fn cached_baselines_are_bit_identical_to_uncached_recomputation() {
    let env = ExecEnv::new();
    // A fresh context so this test owns the cache-hit accounting.
    let local = EvalContext::build(EvalOptions::fast());
    for w in suite() {
        let (cached_run, cached_target) = env.baseline(&local, &w);
        let (raw_run, raw_target) = turbo_core_baseline(&local.sim, &w);
        assert_eq!(
            cached_target.total_ginstructions().to_bits(),
            raw_target.total_ginstructions().to_bits(),
            "{}: cached target instructions differ",
            w.name()
        );
        assert_eq!(
            cached_target.total_time_s().to_bits(),
            raw_target.total_time_s().to_bits(),
            "{}: cached target time differs",
            w.name()
        );
        assert_eq!(
            cached_run.total_energy_j().to_bits(),
            raw_run.total_energy_j().to_bits(),
            "{}: cached baseline energy differs",
            w.name()
        );
    }
    // Second resolution round: all hits, no recomputation.
    let after_first = local.baseline_stats();
    for w in suite() {
        let _ = env.baseline(&local, &w);
    }
    let after_second = local.baseline_stats();
    assert_eq!(after_first.computed, suite().len() as u64);
    assert_eq!(after_second.computed, after_first.computed);
    assert_eq!(after_second.hits, after_first.hits + suite().len() as u64);
}

#[test]
fn concurrent_resolution_simulates_each_baseline_once() {
    let local = EvalContext::build(EvalOptions::fast());
    let names = ["kmeans", "Spmv", "EigenValue", "NBody"];
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let env = ExecEnv::new();
                for name in names {
                    let w = workload_by_name(name).unwrap();
                    let (_, target) = env.baseline(&local, &w);
                    assert!(target.total_time_s() > 0.0);
                }
            });
        }
    });
    let stats = local.baseline_stats();
    assert_eq!(
        stats.computed,
        names.len() as u64,
        "each workload's baseline must be simulated exactly once"
    );
    assert_eq!(stats.hits, (names.len() * 3) as u64);
}

// ---------------------------------------------------------------------------
// Golden guarantee for the flat-forest inference engine: the flat walk
// and its value memo plus the dense search memo must leave every
// governor decision — and every evaluation count feeding the overhead
// model — byte-identical to the seed's scalar nested traversal.
// ---------------------------------------------------------------------------

/// The seed's scalar RF inference path, reconstructed: one freshly
/// allocated feature vector per call, nested tree traversal, and the
/// trait's default looped `predict_batch`.
#[derive(Debug, Clone)]
struct NestedRfPredictor(RandomForestPredictor);

impl PowerPerfPredictor for NestedRfPredictor {
    fn predict(&self, snapshot: &KernelSnapshot, cfg: HwConfig) -> PowerPerfEstimate {
        let features = encode_features(&snapshot.counters, cfg);
        PowerPerfEstimate {
            time_s: self.0.time_forest().predict(&features).exp().max(1e-9),
            gpu_power_w: self.0.power_forest().predict(&features).max(0.1),
        }
    }

    fn name(&self) -> &str {
        "random-forest"
    }
}

fn mpc_cfg() -> MpcConfig {
    MpcConfig {
        horizon_mode: HorizonMode::default(),
        overhead: OverheadModel::default(),
        store_truth: false,
        ..MpcConfig::default()
    }
}

#[test]
fn batched_mpc_decisions_are_byte_identical_to_seed_scalar_path() {
    let env = ExecEnv::new();
    for name in ["kmeans", "Spmv"] {
        let w = workload_by_name(name).unwrap();
        let (_, target) = env.baseline(ctx(), &w);
        let mut batched = MpcGovernor::new(ctx().rf.clone(), ctx().sim.params().clone(), mpc_cfg());
        let mut nested = MpcGovernor::new(
            NestedRfPredictor(ctx().rf.clone()),
            ctx().sim.params().clone(),
            mpc_cfg(),
        );
        let b = env.run(&ctx().sim, &w, &mut batched, target, 0, false);
        let n = env.run(&ctx().sim, &w, &mut nested, target, 0, false);
        assert_eq!(
            serde_json::to_string(&b).unwrap(),
            serde_json::to_string(&n).unwrap(),
            "{name}: MPC trajectory diverged between batched and seed scalar inference"
        );
        assert_eq!(
            serde_json::to_string(batched.stats()).unwrap(),
            serde_json::to_string(nested.stats()).unwrap(),
            "{name}: MPC stats (horizons / evaluation counts) diverged"
        );
    }
}

#[test]
fn batched_ppk_decisions_are_byte_identical_to_seed_scalar_path() {
    let env = ExecEnv::new();
    let w = workload_by_name("NBody").unwrap();
    let (_, target) = env.baseline(ctx(), &w);
    let mut batched = PpkGovernor::new(
        ctx().rf.clone(),
        ctx().sim.params().clone(),
        ConfigSpace::paper_campaign(),
        OverheadModel::default(),
    );
    let mut nested = PpkGovernor::new(
        NestedRfPredictor(ctx().rf.clone()),
        ctx().sim.params().clone(),
        ConfigSpace::paper_campaign(),
        OverheadModel::default(),
    );
    let b = env.run(&ctx().sim, &w, &mut batched, target, 0, false);
    let n = env.run(&ctx().sim, &w, &mut nested, target, 0, false);
    assert_eq!(
        serde_json::to_string(&b).unwrap(),
        serde_json::to_string(&n).unwrap(),
        "PPK trajectory diverged between batched and seed scalar inference"
    );
}

#[test]
fn batched_path_is_decision_identical_traced_and_faulted() {
    let w = workload_by_name("EigenValue").unwrap();
    for faulted in [false, true] {
        // The zero plan is a value-identical passthrough, so the first
        // iteration exercises the clean traced path through identical code.
        let plan = if faulted {
            FaultPlan::uniform(0xFEED_BEEF, 0.15)
        } else {
            FaultPlan::zero(1)
        };
        let (batched_run, batched_sum, nested_run, nested_sum) = {
            let run_variant = |nested: bool| {
                let agg = Arc::new(AggregateSink::new());
                let env = ExecEnv::new()
                    .with_trace(agg.clone())
                    .with_fault_plan(plan.clone());
                let (_, target) = env.baseline(ctx(), &w);
                let result = if nested {
                    let mut gov = MpcGovernor::new(
                        FaultyPredictor::new(NestedRfPredictor(ctx().rf.clone()), &plan),
                        ctx().sim.params().clone(),
                        mpc_cfg(),
                    );
                    env.run(&ctx().sim, &w, &mut gov, target, 0, false)
                } else {
                    let mut gov = MpcGovernor::new(
                        FaultyPredictor::new(ctx().rf.clone(), &plan),
                        ctx().sim.params().clone(),
                        mpc_cfg(),
                    );
                    env.run(&ctx().sim, &w, &mut gov, target, 0, false)
                };
                (result, agg.summary())
            };
            let (b, bs) = run_variant(false);
            let (n, ns) = run_variant(true);
            (b, bs, n, ns)
        };
        assert_eq!(
            serde_json::to_string(&batched_run).unwrap(),
            serde_json::to_string(&nested_run).unwrap(),
            "faulted={faulted}: trajectory diverged between batched and seed scalar paths"
        );
        assert_eq!(
            batched_sum.decisions, nested_sum.decisions,
            "faulted={faulted}: decision counts diverged"
        );
        assert_eq!(
            batched_sum.dispatches, nested_sum.dispatches,
            "faulted={faulted}: dispatch counts diverged"
        );
        assert_eq!(
            batched_sum.horizon_evaluations, nested_sum.horizon_evaluations,
            "faulted={faulted}: horizon evaluation counts diverged"
        );
    }
}

#[test]
fn baseline_resolutions_are_traced_with_cache_state() {
    let local = EvalContext::build(EvalOptions::fast());
    let ring = Arc::new(RingSink::new(64));
    let env = ExecEnv::new().with_trace(ring.clone());
    let w = workload_by_name("kmeans").unwrap();
    let _ = env.baseline(&local, &w);
    let _ = env.baseline(&local, &w);
    let cached_flags: Vec<bool> = ring
        .snapshot()
        .iter()
        .filter_map(|e| match e {
            gpm_trace::TraceEvent::BaselineResolved { cached, .. } => Some(*cached),
            _ => None,
        })
        .collect();
    assert_eq!(cached_flags, vec![false, true]);
}
