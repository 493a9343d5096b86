//! `suite_replay`: one thread replays the paper's 15-benchmark suite under
//! MPC(RF,adaptive), MPC(RF,full), PPK(RF) and Turbo Core, pass after
//! pass, on one warm context.
//!
//! The measured passes call `ExecEnv::evaluate` for every (workload,
//! scheme) pair, so the timed figures are the program's own. The traced
//! half of a `--trace 1` run instead builds each pair the way
//! `ExecEnv::evaluate` does — same predictor stack, same two-invocation
//! protocol — with the layer wrappers of `layers` around the governor,
//! predictor and platform. The first pass is untimed: it fills the
//! baseline cache and checks that construction against
//! `ExecEnv::evaluate` itself. Every later pass is checked against that
//! reference. The workload seed fixes the order of the 60 pairs within a
//! pass.

use crate::layers::{self, take_tally, timed, Tally, TimedGovernor, TimedPlatform, TimedPredictor};
use crate::report::{self, quantile, ratio, Report, Totals};
use crate::Run;
use gpm_faults::FaultyPredictor;
use gpm_governors::{Governor, OverheadModel, PpkGovernor, TurboCore};
use gpm_harness::metrics::summarize;
use gpm_harness::{
    Comparison, EvalContext, EvalOptions, ExecEnv, RunResult, Scheme, SchemeOutcome,
};
use gpm_model::RandomForestPredictor;
use gpm_mpc::{HorizonMode, MpcConfig, MpcGovernor, MpcStats};
use gpm_sim::{Platform, PowerPerfPredictor};
use gpm_telemetry::Telemetry;
use gpm_workloads::{suite, Workload};
use std::time::Instant;

/// The replayed schemes; the first three are RF-driven.
fn schemes() -> [Scheme; 4] {
    [
        Scheme::MpcRf {
            horizon: HorizonMode::default(),
        },
        Scheme::MpcRf {
            horizon: HorizonMode::Full,
        },
        Scheme::PpkRf,
        Scheme::TurboCore,
    ]
}

/// The outputs of one (workload, scheme) evaluation that the check
/// compares.
#[derive(Debug, Clone, PartialEq)]
struct PairResult {
    baseline: RunResult,
    profiling: Option<RunResult>,
    measured: RunResult,
    mpc_stats: Option<MpcStats>,
}

impl From<SchemeOutcome> for PairResult {
    fn from(out: SchemeOutcome) -> PairResult {
        PairResult {
            baseline: out.baseline,
            profiling: out.profiling,
            measured: out.measured,
            mpc_stats: out.mpc_stats,
        }
    }
}

impl PairResult {
    /// Governor decisions the pair made: one per kernel of each governed
    /// invocation (the Turbo Core baseline is a cached lookup, not replayed).
    fn decisions(&self) -> usize {
        self.measured.per_kernel.len() + self.profiling.as_ref().map_or(0, |p| p.per_kernel.len())
    }
}

type RfStack = FaultyPredictor<RandomForestPredictor>;

/// What one measured phase saw.
struct Phase {
    /// Host seconds and decisions of each pass.
    passes: Vec<(f64, f64)>,
    tally: Tally,
    /// Baseline-cache misses during the phase.
    baseline_misses: u64,
    /// Results of the phase's last pass.
    last: Vec<PairResult>,
}

/// The simulated metrics of one pass, in a fixed order. Pairs are summed
/// in suite order, not replay order, so floating-point sums repeat
/// exactly for every seed.
fn simulated(results: &[PairResult], order: &[(usize, usize)]) -> Vec<(&'static str, f64)> {
    let mut pairs: Vec<_> = order.iter().zip(results).collect();
    pairs.sort_by_key(|&(&pair, _)| pair);
    let mut adaptive = Vec::new();
    let (mut horizon_sum, mut mpc_decisions, mut fail_safe, mut decisions) = (0, 0, 0, 0);
    for (&(_, s), r) in pairs {
        if s == 0 {
            adaptive.push(Comparison::between(&r.baseline, &r.measured));
        }
        decisions += r.decisions();
        if let Some(stats) = &r.mpc_stats {
            horizon_sum += stats.horizons.iter().sum::<usize>();
            mpc_decisions += stats.horizons.len();
            fail_safe += stats.fail_safe_decisions;
        }
    }
    let mpc = summarize(&adaptive);
    vec![
        ("mpc_energy_savings_pct", mpc.energy_savings_pct),
        ("mpc_perf_loss_pct", mpc.perf_loss_pct()),
        (
            "fail_safe_pct",
            100.0 * ratio(fail_safe as f64, decisions as f64),
        ),
        (
            "mpc.mean_horizon",
            ratio(horizon_sum as f64, mpc_decisions as f64),
        ),
    ]
}

struct Replay<'a> {
    ctx: &'a EvalContext,
    workloads: Vec<Workload>,
    /// (workload, scheme) indices in replay order.
    order: Vec<(usize, usize)>,
    /// `ExecEnv::evaluate`'s result for each pair of `order`.
    reference: Vec<PairResult>,
}

impl Replay<'_> {
    /// Evaluates one pair exactly as `ExecEnv::evaluate` does, with `wrap`
    /// around the scheme's predictor and `sim` as the platform.
    fn pair<P: PowerPerfPredictor>(
        &self,
        env: &ExecEnv,
        sim: &dyn Platform,
        (w, s): (usize, usize),
        wrap: fn(RfStack) -> P,
    ) -> PairResult {
        let (ctx, workload, scheme) = (self.ctx, &self.workloads[w], schemes()[s]);
        let (baseline, target) = timed(|t| &mut t.baseline_ns, || env.baseline(ctx, workload));
        layers::with_tally(|t| t.baseline_calls += 1);
        // Governor construction, forest and campaign-space clones included,
        // is timed as `construct_ns`: ExecEnv::evaluate pays it per pair.
        let (space, params) = timed(
            |t| &mut t.construct_ns,
            || (ctx.campaign_space().clone(), ctx.sim.params().clone()),
        );
        let predictor = || wrap(FaultyPredictor::new(ctx.rf.clone(), env.fault_plan()));
        let run = |gov: &mut dyn Governor, index: usize| {
            timed(
                |t| &mut t.run_ns,
                || env.run(sim, workload, gov, target, index, false),
            )
        };
        let profile_and_measure = |gov: &mut dyn Governor| {
            env.install(gov);
            let profiling = run(gov, 0);
            (Some(profiling), run(gov, 1))
        };
        let (profiling, measured, mpc_stats) = match scheme {
            Scheme::TurboCore => {
                let mut gov = TimedGovernor::new(TurboCore::new(params.tdp_w), false);
                env.install(&mut gov);
                (None, run(&mut gov, 0), None)
            }
            Scheme::PpkRf => {
                let ppk = timed(
                    |t| &mut t.construct_ns,
                    || PpkGovernor::new(predictor(), params, space, OverheadModel::default()),
                );
                let mut gov = TimedGovernor::new(ppk, true);
                let (profiling, measured) = profile_and_measure(&mut gov);
                (profiling, measured, None)
            }
            Scheme::MpcRf { horizon } => {
                let cfg = MpcConfig {
                    horizon_mode: horizon,
                    overhead: OverheadModel::default(),
                    store_truth: false,
                    ..MpcConfig::default()
                };
                let mpc = timed(
                    |t| &mut t.construct_ns,
                    || MpcGovernor::new(predictor(), params, cfg),
                );
                let mut gov = TimedGovernor::new(mpc, true);
                let (profiling, measured) = profile_and_measure(&mut gov);
                (profiling, measured, Some(gov.inner.stats().clone()))
            }
            other => unreachable!("suite_replay does not replay {}", other.label()),
        };
        PairResult {
            baseline,
            profiling,
            measured,
            mpc_stats,
        }
    }

    /// Replays whole passes, each pair through `replay_pair`, until
    /// `budget` is spent, checking every pair against the reference.
    fn phase(
        &self,
        budget: std::time::Duration,
        report: &mut Report,
        mut replay_pair: impl FnMut((usize, usize)) -> PairResult,
    ) -> Phase {
        take_tally();
        let misses_before = self.ctx.baseline_stats().computed;
        let start = Instant::now();
        let mut passes = Vec::new();
        let mut last: Vec<PairResult> = Vec::new();
        while passes.is_empty() || start.elapsed() < budget {
            let t = Instant::now();
            last = self.order.iter().map(|&pair| replay_pair(pair)).collect();
            let seconds = t.elapsed().as_secs_f64();
            let decisions: usize = last.iter().map(PairResult::decisions).sum();
            passes.push((seconds, decisions as f64));
            for (i, r) in last.iter().enumerate() {
                report.check(*r == self.reference[i], || {
                    let (w, s) = self.order[i];
                    format!(
                        "{} under {} differs from ExecEnv::evaluate",
                        self.workloads[w].name(),
                        schemes()[s].label()
                    )
                });
            }
        }
        Phase {
            passes,
            tally: take_tally(),
            baseline_misses: self.ctx.baseline_stats().computed - misses_before,
            last,
        }
    }
}

/// The seed-shuffled order of (workload, scheme) pairs.
fn pair_order(workloads: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut order: Vec<(usize, usize)> = (0..workloads)
        .flat_map(|w| (0..schemes().len()).map(move |s| (w, s)))
        .collect();
    for i in (1..order.len()).rev() {
        let j = (report::mix(seed ^ i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let ctx = crate::setup(&EvalOptions::default(), run.traced, &mut report);
    crate::report_accuracy(&ctx, true, &mut report);
    let workloads = suite();
    let order = pair_order(workloads.len(), run.seed);
    println!(
        "workload suite_replay: {} pairs per pass, threads=1, seed={}",
        order.len(),
        run.seed
    );

    // Untimed first pass: warm the baseline cache and the predictor's
    // per-thread state, and check the benchmark's own construction of
    // every pair against ExecEnv::evaluate.
    let mut replay = Replay {
        ctx: &ctx,
        workloads,
        order,
        reference: Vec::new(),
    };
    let clean = ExecEnv::new();
    take_tally();
    for i in 0..replay.order.len() {
        let (w, s) = replay.order[i];
        let ours = replay.pair(&clean, &ctx.sim, (w, s), |p| p);
        let theirs = PairResult::from(clean.evaluate(&ctx, &replay.workloads[w], schemes()[s]));
        report.check(ours == theirs, || {
            format!(
                "{} under {}: benchmark replay differs from ExecEnv::evaluate",
                replay.workloads[w].name(),
                schemes()[s].label()
            )
        });
        replay.reference.push(theirs);
    }
    let warmup = take_tally();
    let pass_decisions: usize = replay.reference.iter().map(PairResult::decisions).sum();
    report.check(warmup.select_calls == pass_decisions as u64, || {
        format!(
            "a pass made {} select calls but its results hold {pass_decisions} decisions",
            warmup.select_calls
        )
    });
    let candidates = ratio(
        warmup.rf_evaluations as f64,
        warmup.rf_select_ns.len() as f64,
    );
    if candidates <= 1.0 {
        return Err(format!(
            "RF-driven decisions priced {candidates} candidates on average; the search is not running"
        ));
    }

    let plain = replay.phase(run.phase_budget(), &mut report, |(w, s)| {
        clean
            .evaluate(&ctx, &replay.workloads[w], schemes()[s])
            .into()
    });
    let sim_plain = simulated(&plain.last, &replay.order);
    let totals = Totals::of(&plain.passes);
    println!(
        "measured {} passes of {pass_decisions} decisions through ExecEnv::evaluate \
         ({candidates:.2} candidates per RF-driven decision)",
        plain.passes.len()
    );
    report.set("wall_s", totals.unit_s);
    report.set("decisions_per_s", totals.rate);
    report::info(
        "jobs_per_s",
        replay.order.len() as f64 / totals.unit_s,
        "1/s",
    );
    report::info("baseline_misses", plain.baseline_misses as f64, "count");
    for &(name, value) in &sim_plain {
        report.set(name, value);
    }
    if !run.traced {
        return Ok(report);
    }

    let telemetry = Telemetry::new();
    let traced_env = ExecEnv::new().with_telemetry(telemetry.clone());
    let platform = TimedPlatform(&ctx.sim);
    let traced = replay.phase(run.phase_budget(), &mut report, |pair| {
        replay.pair(&traced_env, &platform, pair, TimedPredictor)
    });
    let sim_traced = simulated(&traced.last, &replay.order);
    for (&(name, a), &(_, b)) in sim_plain.iter().zip(&sim_traced) {
        report.check_same(name, a, b);
    }
    let traced_totals = Totals::of(&traced.passes);
    report::overhead("decisions_per_s", totals.rate, traced_totals.rate, "1/s");
    report::overhead("wall_s", totals.unit_s, traced_totals.unit_s, "s");
    // Select latencies come from the traced half, the only one that times
    // individual calls; its predictor timer adds a little to each.
    let latencies_us: Vec<f64> = traced
        .tally
        .rf_select_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    report::info("decision_p50_us", quantile(&latencies_us, 0.5), "us");
    report::info("decision_p99_us", quantile(&latencies_us, 0.99), "us");
    report::info("decision_samples", latencies_us.len() as f64, "count");

    let t = &traced.tally;
    let ms = |ns: u64| ns as f64 / 1e6;
    let spans = telemetry.snapshot();
    let span_ms = |name: &str| spans.span(name).map_or(0.0, |s| s.total_ns as f64 / 1e6);
    report.set("model.predict_batch.calls", t.batch_calls as f64);
    report.set("model.candidates", t.candidates as f64);
    report.set(
        "model.ns_per_candidate",
        ratio(t.predict_ns as f64, t.candidates as f64),
    );
    report.set("model.predict_ms", ms(t.predict_ns));
    report.set("governors.select.calls", t.select_calls as f64);
    report.set(
        "governors.select.self_ms",
        ms(t.select_ns - t.select_predict_ns),
    );
    report.set("governors.observe_ms", ms(t.observe_ns));
    report.set(
        "governors.candidates_per_decision",
        ratio(t.rf_evaluations as f64, t.rf_select_ns.len() as f64),
    );
    report.set("governors.hill_climb_ms", span_ms("search.hill_climb"));
    report.set("sim.evaluate.calls", t.sim_evaluate_calls as f64);
    report.set(
        "sim.evaluate.ns_per_call",
        ratio(t.sim_evaluate_ns as f64, t.sim_evaluate_calls as f64),
    );
    let inner_ns = t.select_ns + t.observe_ns + t.sim_evaluate_ns + t.sim_energy_ns;
    report.set("harness.construct_ms", ms(t.construct_ns));
    report.set("harness.run.self_ms", ms(t.run_ns.saturating_sub(inner_ns)));
    report.set("harness.dispatch_ms", span_ms("env.dispatch"));
    report.set("harness.baseline.calls", t.baseline_calls as f64);
    report.set("harness.baseline.misses", traced.baseline_misses as f64);
    report.set("harness.baseline.ms", ms(t.baseline_ns));
    report::coverage(
        &mut report,
        "suite_replay (governor construction, ExecEnv::run and ExecEnv::baseline over pass time)",
        (t.construct_ns + t.run_ns + t.baseline_ns) as f64,
        traced_totals.seconds * 1e9,
    );
    Ok(report)
}
