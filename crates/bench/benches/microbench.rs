//! Criterion micro-benchmarks of the building blocks on the runtime's
//! critical path: one simulator evaluation, one Random-Forest prediction
//! (memoized and on a never-seen snapshot), signature computation,
//! hill-climb and exhaustive search, the TO DP solve, and a
//! pattern-extractor update.
//!
//! These quantify the constants behind the paper's overhead model
//! (Section IV-A1a's 19× / 65× search-cost arguments).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gpm_governors::search::{exhaustive_best, hill_climb, EnergyEvaluator};
use gpm_governors::to::ToSolver;
use gpm_harness::{context, EvalOptions};
use gpm_hw::{ConfigSpace, HwConfig};
use gpm_model::{Dataset, ForestParams, RandomForestPredictor};
use gpm_pattern::{KernelSignature, PatternExtractor};
use gpm_sim::predictor::{KernelSnapshot, PowerPerfPredictor};
use gpm_sim::{ApuSimulator, CounterSet, KernelCharacteristics, OraclePredictor, SimParams};
use std::hint::black_box;

fn bench_simulator(c: &mut Criterion) {
    let sim = ApuSimulator::default();
    let k = KernelCharacteristics::peak("bench", 12.0);
    c.bench_function("sim/evaluate_kernel", |b| {
        b.iter(|| black_box(sim.evaluate(black_box(&k), black_box(HwConfig::FAIL_SAFE))))
    });
}

fn bench_rf_predict(c: &mut Criterion) {
    let sim = ApuSimulator::default();
    let kernels = vec![
        KernelCharacteristics::compute_bound("a", 15.0),
        KernelCharacteristics::memory_bound("b", 1.5),
    ];
    let space = context::training_space(4);
    let ds = Dataset::from_campaign(&sim, &kernels, &space, HwConfig::FAIL_SAFE, 1);
    let rf = RandomForestPredictor::train(&ds, &ForestParams::default(), 7);
    let out = sim.evaluate(&kernels[0], HwConfig::FAIL_SAFE);
    let snap = KernelSnapshot::counters_only(out.counters, HwConfig::FAIL_SAFE, 1.0);
    c.bench_function("model/rf_predict", |b| {
        b.iter(|| black_box(rf.predict(black_box(&snap), black_box(HwConfig::MAX_PERF))))
    });
    // A never-seen snapshot per call: the value memo misses every time,
    // so each estimate walks both forests.
    let mut counters = *out.counters.values();
    c.bench_function("model/rf_predict_fresh", |b| {
        b.iter(|| {
            counters[0] = counters[0].next_up();
            let fresh = KernelSnapshot::counters_only(
                CounterSet::from_values(counters),
                HwConfig::FAIL_SAFE,
                1.0,
            );
            black_box(rf.predict(black_box(&fresh), black_box(HwConfig::MAX_PERF)))
        })
    });
    // One decision's worth of candidates.
    let cfgs: Vec<HwConfig> = ConfigSpace::paper_campaign().iter().collect();
    c.bench_function("model/rf_predict_scalar_336", |b| {
        b.iter(|| {
            for &cfg in &cfgs {
                black_box(rf.predict(black_box(&snap), cfg));
            }
        })
    });
}

/// The training split of `options`' campaign: what `EvalContext::build`
/// fits its forests to.
fn training_split(options: &EvalOptions) -> Dataset {
    let ds = Dataset::from_campaign(
        &ApuSimulator::new(options.sim_params.clone()),
        &context::training_kernels(),
        &context::training_space(options.train_config_stride),
        HwConfig::FAIL_SAFE,
        1,
    );
    ds.split(options.test_fraction, options.seed).0
}

fn bench_rf_train(c: &mut Criterion) {
    // The fits `EvalContext::build` runs, with each context's forest
    // parameters and seed: the default context's, and the fast one that
    // `reproduce --fast` trains.
    let mut group = c.benchmark_group("model");
    group.sample_size(10);
    for (name, options) in [
        ("rf_train_small", EvalOptions::default()),
        ("rf_train_fast", EvalOptions::fast()),
    ] {
        let train = training_split(&options);
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(RandomForestPredictor::train(
                    black_box(&train),
                    &options.forest,
                    options.seed,
                ))
            })
        });
    }
    group.finish();
}

fn bench_searches(c: &mut Criterion) {
    let sim = ApuSimulator::noiseless();
    let k = KernelCharacteristics::peak("bench", 12.0);
    let out = sim.evaluate(&k, HwConfig::FAIL_SAFE);
    let snap = KernelSnapshot::with_truth(out.counters, HwConfig::FAIL_SAFE, k);
    let eval = EnergyEvaluator::new(OraclePredictor::new(&sim), SimParams::noiseless());
    let cap = out.time_s * 1.1;
    let space = ConfigSpace::paper_campaign();
    c.bench_function("search/hill_climb", |b| {
        b.iter(|| {
            black_box(hill_climb(
                &eval,
                black_box(&snap),
                HwConfig::FAIL_SAFE,
                cap,
            ))
        })
    });
    c.bench_function("search/exhaustive_336", |b| {
        b.iter(|| black_box(exhaustive_best(&eval, black_box(&snap), &space, cap)))
    });

    // The governor's real per-decision search: hill climb priced by the
    // Random-Forest predictor through its value memo and packed forests.
    let kernels = vec![
        KernelCharacteristics::compute_bound("a", 15.0),
        KernelCharacteristics::memory_bound("b", 1.5),
    ];
    let campaign = context::training_space(4);
    let ds = Dataset::from_campaign(&sim, &kernels, &campaign, HwConfig::FAIL_SAFE, 1);
    let rf = RandomForestPredictor::train(&ds, &ForestParams::default(), 7);
    let rf_eval = EnergyEvaluator::new(rf, SimParams::noiseless());
    c.bench_function("search/hill_climb_rf", |b| {
        b.iter(|| {
            black_box(hill_climb(
                &rf_eval,
                black_box(&snap),
                HwConfig::FAIL_SAFE,
                cap,
            ))
        })
    });
    c.bench_function("search/exhaustive_rf_336", |b| {
        b.iter(|| black_box(exhaustive_best(&rf_eval, black_box(&snap), &space, cap)))
    });
}

fn bench_to_solver(c: &mut Criterion) {
    // A Spmv-sized instance: 30 kernels × 336 options.
    let sim = ApuSimulator::noiseless();
    let w = gpm_workloads::workload_by_name("Spmv").unwrap();
    let configs: Vec<HwConfig> = ConfigSpace::paper_campaign().iter().collect();
    let options: Vec<Vec<(f64, f64)>> = w
        .kernels()
        .iter()
        .map(|k| {
            configs
                .iter()
                .map(|&cfg| {
                    let out = sim.evaluate_exact(k, cfg);
                    (out.time_s, out.energy.total_j())
                })
                .collect()
        })
        .collect();
    // The fail-safe plan's time with 5% slack: feasible, so the bench
    // times a full solve and trace-back rather than an early exit.
    let budget: f64 = 1.05
        * w.kernels()
            .iter()
            .map(|k| sim.evaluate_exact(k, HwConfig::FAIL_SAFE).time_s)
            .sum::<f64>();
    assert!(
        ToSolver::default().solve(&options, budget).is_some(),
        "the TO bench budget must be feasible"
    );
    let mut group = c.benchmark_group("to");
    group.sample_size(10);
    group.bench_function("dp_solve_spmv", |b| {
        b.iter(|| black_box(ToSolver::default().solve(black_box(&options), budget)))
    });
    group.finish();
}

fn bench_pattern(c: &mut Criterion) {
    let sim = ApuSimulator::default();
    let k = KernelCharacteristics::compute_bound("bench", 10.0);
    let out = sim.evaluate(&k, HwConfig::FAIL_SAFE);
    c.bench_function("pattern/signature", |b| {
        b.iter(|| black_box(KernelSignature::from_counters(black_box(&out.counters))))
    });
    c.bench_function("pattern/observe", |b| {
        b.iter_batched(
            PatternExtractor::new,
            |mut px| {
                px.observe(black_box(&out), HwConfig::FAIL_SAFE, None);
                black_box(px)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_governor_steps(c: &mut Criterion) {
    use gpm_governors::{Equalizer, EqualizerMode, Governor, KernelContext, PerfTarget};
    let sim = ApuSimulator::default();
    let k = KernelCharacteristics::memory_bound("bench", 1.0);
    let out = sim.evaluate(&k, HwConfig::FAIL_SAFE);
    let ctx = KernelContext {
        position: 0,
        run_index: 0,
        elapsed_kernel_s: 0.0,
        elapsed_gi: 0.0,
        target: PerfTarget::new(1.0, 1.0),
        total_kernels: None,
    };
    c.bench_function("governor/equalizer_step", |b| {
        b.iter_batched(
            || Equalizer::new(EqualizerMode::Efficiency),
            |mut gov| {
                let d = gov.select(&ctx);
                gov.observe(&ctx, d.config, black_box(&out), None);
                black_box(gov)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_transition_cost(c: &mut Criterion) {
    let params = SimParams {
        dvfs_transition_scale: 1.0,
        ..SimParams::default()
    };
    c.bench_function("sim/transition_cost", |b| {
        b.iter(|| {
            black_box(gpm_sim::transition::transition_cost_s(
                &params,
                black_box(HwConfig::MAX_PERF),
                black_box(HwConfig::FAIL_SAFE),
            ))
        })
    });
}

fn bench_workload_generation(c: &mut Criterion) {
    let params = gpm_workloads::GeneratorParams::default();
    let mut seed = 0u64;
    c.bench_function("workloads/generate", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(gpm_workloads::generate_workload(&params, seed))
        })
    });
}

criterion_group!(
    benches,
    bench_simulator,
    bench_rf_predict,
    bench_rf_train,
    bench_searches,
    bench_to_solver,
    bench_pattern,
    bench_governor_steps,
    bench_transition_cost,
    bench_workload_generation
);
criterion_main!(benches);
