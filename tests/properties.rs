//! Property-based tests over cross-crate invariants.

use gpm::governors::search::{exhaustive_best, hill_climb, EnergyEvaluator};
use gpm::governors::to::{solve_brute, ToSolver};
use gpm::governors::PerfTarget;
use gpm::hw::{ConfigSpace, CpuPState, CuCount, GpuDpm, HwConfig, NbState};
use gpm::mpc::{average_full_horizon, search_order, HorizonGenerator, HorizonMode, ProfiledKernel};
use gpm::pattern::{detect_period, KernelSignature, PatternExtractor};
use gpm::sim::predictor::KernelSnapshot;
use gpm::sim::{ApuSimulator, CounterSet, KernelCharacteristics, OraclePredictor, SimParams};
use proptest::prelude::*;

/// Strategy: an arbitrary (valid) hardware configuration.
fn any_config() -> impl Strategy<Value = HwConfig> {
    (0usize..7, 0usize..4, 0usize..5, 0usize..4).prop_map(|(c, n, g, u)| {
        HwConfig::new(
            CpuPState::from_index(c).unwrap(),
            NbState::from_index(n).unwrap(),
            GpuDpm::from_index(g).unwrap(),
            CuCount::from_index(u).unwrap(),
        )
    })
}

/// Strategy: an arbitrary plausible kernel.
fn any_kernel() -> impl Strategy<Value = KernelCharacteristics> {
    (
        1.0f64..60.0, // compute gops
        0.0f64..3.0,  // memory gb
        0.0f64..1.0,  // cache hit
        0.0f64..0.12, // interference
        0.3f64..1.0,  // parallel fraction
        0.05f64..1.0, // occupancy
        0.0f64..0.05, // fixed time
    )
        .prop_map(|(gops, gb, hit, intf, pf, occ, fixed)| {
            KernelCharacteristics::builder("prop", gops)
                .memory_gb(gb)
                .cache_hit(hit)
                .cache_interference(intf)
                .parallel_fraction(pf)
                .occupancy(occ)
                .fixed_time(fixed)
                .build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sim_outputs_are_finite_and_positive(k in any_kernel(), cfg in any_config()) {
        let sim = ApuSimulator::default();
        let out = sim.evaluate(&k, cfg);
        prop_assert!(out.time_s.is_finite() && out.time_s > 0.0);
        prop_assert!(out.power.total_w().is_finite() && out.power.total_w() > 0.0);
        prop_assert!(out.energy.total_j() > 0.0);
        prop_assert!((out.energy.total_j() - out.power.total_w() * out.time_s).abs() < 1e-6);
    }

    #[test]
    fn faster_gpu_clock_never_slows_a_kernel(k in any_kernel(), cfg in any_config()) {
        let sim = ApuSimulator::noiseless();
        if let Some(faster) = cfg.gpu.faster() {
            let mut up = cfg;
            up.gpu = faster;
            let t_base = sim.evaluate(&k, cfg).time_s;
            let t_up = sim.evaluate(&k, up).time_s;
            prop_assert!(t_up <= t_base * 1.0001, "t_up {} vs {}", t_up, t_base);
        }
    }

    #[test]
    fn higher_voltage_rail_draws_more_gpu_dynamic_power(k in any_kernel()) {
        let sim = ApuSimulator::noiseless();
        // Same clocks, CUs; only the GPU voltage request changes via DPM is
        // coupled to frequency, so compare rails via NB state instead.
        let lo = HwConfig::new(CpuPState::P7, NbState::Nb3, GpuDpm::Dpm0, CuCount::MAX);
        let hi = HwConfig::new(CpuPState::P7, NbState::Nb0, GpuDpm::Dpm0, CuCount::MAX);
        prop_assert!(hi.rail_voltage() > lo.rail_voltage());
        let p_lo = sim.evaluate(&k, lo).power.gpu_dyn_w;
        let p_hi = sim.evaluate(&k, hi).power.gpu_dyn_w;
        prop_assert!(p_hi > p_lo * 0.999);
    }

    #[test]
    fn hill_climb_never_beats_exhaustive_but_is_feasible(
        k in any_kernel(),
        slack in 1.0f64..2.0,
    ) {
        let sim = ApuSimulator::noiseless();
        let out = sim.evaluate(&k, HwConfig::FAIL_SAFE);
        let snap = KernelSnapshot::with_truth(out.counters, HwConfig::FAIL_SAFE, k);
        let eval = EnergyEvaluator::new(OraclePredictor::new(&sim), SimParams::noiseless());
        let cap = out.time_s * slack;
        // Hill climbing steps through the full 560-point lattice, so the
        // exhaustive reference must cover the same space.
        let space = ConfigSpace::full();
        let (ex, _) = exhaustive_best(&eval, &snap, &space, cap);
        let (hc, stats) = hill_climb(&eval, &snap, HwConfig::FAIL_SAFE, cap);
        let ex = ex.expect("fail-safe is feasible so exhaustive must find something");
        let hc = hc.expect("hill climb starts feasible");
        prop_assert!(hc.time_s <= cap);
        prop_assert!(hc.energy_j >= ex.energy_j - 1e-9);
        prop_assert!(stats.evaluations <= 60);
    }

    #[test]
    fn to_dp_is_optimal_vs_brute_force(
        times in prop::collection::vec(prop::collection::vec(1u32..8, 3), 1..5),
        budget_units in 4u32..24,
    ) {
        // Integer-valued toy instances so the DP grid is exact.
        let options: Vec<Vec<(f64, f64)>> = times
            .iter()
            .map(|ts| {
                ts.iter()
                    .enumerate()
                    .map(|(i, &t)| (t as f64, 10.0 / (t as f64) + i as f64))
                    .collect()
            })
            .collect();
        let budget = budget_units as f64;
        // A grid whose cell divides the integer option times exactly, and
        // above the solver's minimum grid of 8, so ceil-rounding is lossless.
        let solver = ToSolver { grid: (budget_units * 4) as usize };
        let dp = solver.solve(&options, budget);
        let brute = solve_brute(&options, budget);
        match (dp, brute) {
            (Some(d), Some((_, be))) => {
                let (t, e) = d.iter().enumerate().fold((0.0, 0.0), |(t, e), (k, &j)| {
                    (t + options[k][j].0, e + options[k][j].1)
                });
                prop_assert!(t <= budget + 1e-9);
                prop_assert!((e - be).abs() < 1e-6, "dp {} brute {}", e, be);
            }
            (None, None) => {}
            (d, b) => prop_assert!(false, "dp {:?} brute {:?}", d, b),
        }
    }

    #[test]
    fn search_order_is_always_a_permutation(
        gis in prop::collection::vec(0.1f64..50.0, 1..40),
        times in prop::collection::vec(0.001f64..0.5, 1..40),
        target in 0.5f64..100.0,
    ) {
        let n = gis.len().min(times.len());
        let profile: Vec<ProfiledKernel> = (0..n)
            .map(|i| ProfiledKernel { position: i, gi: gis[i], time_s: times[i] })
            .collect();
        let mut order = search_order(&profile, target);
        order.sort_unstable();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn horizon_is_always_bounded(
        n in 1usize..64,
        t_ppk in 0.0f64..1.0,
        alpha in 0.0f64..0.5,
        records in prop::collection::vec((0.001f64..0.2, 0.0f64..0.01), 0..20),
    ) {
        let mut gen = HorizonGenerator::new(
            HorizonMode::Adaptive { alpha },
            n,
            average_full_horizon(n),
            t_ppk,
            1.0,
        );
        for (i, (t, oh)) in records.iter().enumerate() {
            let h = gen.horizon_for(i);
            prop_assert!(h <= n);
            gen.record(*t, *oh);
        }
    }

    #[test]
    fn periodic_sequences_are_detected(period in 1usize..6, reps in 2usize..6) {
        let base: Vec<usize> = (0..period).collect();
        let mut seq = Vec::new();
        for _ in 0..reps {
            seq.extend(&base);
        }
        let detected = detect_period(&seq).expect("two full periods present");
        prop_assert!(detected <= period);
        // The detected period must actually explain the sequence.
        for i in detected..seq.len() {
            prop_assert_eq!(seq[i], seq[i - detected]);
        }
    }

    #[test]
    fn signatures_are_scale_stable_within_bins(values in prop::collection::vec(1.0f64..1e6, 8)) {
        let arr: [f64; 8] = values.clone().try_into().unwrap();
        let c1 = CounterSet::from_values(arr);
        let sig1 = KernelSignature::from_counters(&c1);
        // A sub-1% perturbation rarely crosses a log2 bin boundary; the
        // property we need is determinism + closeness, not exact equality.
        let jittered: Vec<f64> = values.iter().map(|v| v * 1.001).collect();
        let arr2: [f64; 8] = jittered.try_into().unwrap();
        let sig2 = KernelSignature::from_counters(&CounterSet::from_values(arr2));
        prop_assert!(sig1.distance(&sig2) <= 8);
        prop_assert_eq!(sig1, KernelSignature::from_counters(&c1));
    }

    #[test]
    fn perf_target_cap_is_consistent(
        total_gi in 1.0f64..100.0,
        total_t in 0.1f64..10.0,
        elapsed_frac in 0.0f64..1.0,
        ahead in 0.5f64..2.0,
    ) {
        let target = PerfTarget::new(total_gi, total_t);
        let elapsed_gi = total_gi * elapsed_frac;
        let elapsed_s = total_t * elapsed_frac * ahead;
        let expected = total_gi * 0.05;
        let cap = target.time_cap(elapsed_gi, elapsed_s, expected);
        // Running the next kernel exactly at the cap lands cumulative
        // throughput exactly on target.
        if cap > 0.0 {
            let thr = (elapsed_gi + expected) / (elapsed_s + cap);
            prop_assert!((thr / target.throughput() - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn extractor_reference_predicts_any_recorded_sequence() {
    // Deterministic sequence-replay property over several shapes.
    let sim = ApuSimulator::default();
    let kernels = [
        KernelCharacteristics::compute_bound("a", 10.0),
        KernelCharacteristics::memory_bound("b", 1.0),
        KernelCharacteristics::peak("c", 8.0),
    ];
    for pattern in [
        vec![0usize, 1, 2, 1, 0],
        vec![0, 0, 1],
        vec![2, 1, 0, 0, 1, 2],
    ] {
        let mut px = PatternExtractor::new();
        let ids: Vec<_> = pattern
            .iter()
            .map(|&i| {
                let out = sim.evaluate(&kernels[i], HwConfig::FAIL_SAFE);
                px.observe(&out, HwConfig::FAIL_SAFE, None)
            })
            .collect();
        px.end_run();
        for (pos, &id) in ids.iter().enumerate() {
            assert_eq!(px.expected(pos), Some(id));
        }
        assert_eq!(px.lookahead(0, 100), ids);
    }
}
