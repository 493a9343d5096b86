//! The MPC window optimizer (Section IV-A1a).
//!
//! For the kernel at position `i` with horizon `Hᵢ`, the optimizer
//! considers the window of positions `{i, …, i+Hᵢ−1}`, visits them in the
//! profiling-derived search order, and greedily hill-climbs each one's
//! hardware knobs under the running throughput constraint. Performance
//! headroom accumulates along the walk: energy saved (time spent) by an
//! already-optimized window kernel tightens or loosens the cap for the
//! next. The configuration chosen for position `i` is applied; the rest of
//! the window is provisional and will be re-optimized when the horizon
//! slides.

use gpm_governors::search::{hill_climb, ConfigEstimate, EnergyEvaluator, EvalMemo, SearchStats};
use gpm_governors::to::ToSolver;
use gpm_governors::PerfTarget;
use gpm_hw::{ConfigSpace, HwConfig};
use gpm_sim::predictor::{KernelSnapshot, PowerPerfPredictor};
use std::collections::BTreeMap;

/// Result of optimizing one window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowPlan {
    /// The configuration to apply to the current kernel.
    pub config: HwConfig,
    /// Provisional assignments for every window position (including the
    /// current kernel), in the order they were optimized.
    pub window: Vec<(usize, HwConfig)>,
    /// Predictor evaluations spent.
    pub evaluations: u64,
    /// Whether the current kernel had to fall back to the fail-safe
    /// configuration (cap unsatisfiable or already violated).
    pub fail_safe: bool,
    /// Aggregated search telemetry across every window position. Its
    /// `evaluations` equals the plan-level count above (including the
    /// budget-reservation and fallback estimates).
    pub search: SearchStats,
    /// The search's estimate of the configuration applied to the current
    /// kernel, for prediction-error tracing.
    pub chosen: Option<ConfigEstimate>,
}

/// Optimizes the window starting at `current` over `horizon` positions.
///
/// `snapshots` maps positions to the *expected* kernels there (from the
/// pattern extractor); positions missing from the map (past the
/// application's end) are skipped. `elapsed_gi`/`elapsed_s` are the
/// retired-kernel sums feeding the Eq. 4 performance tracker.
///
/// Returns `None` when `current` itself has no snapshot — the caller has
/// no expectation to optimize against and should fall back to a
/// history-based decision.
#[allow(clippy::too_many_arguments)]
pub fn optimize_window<P: PowerPerfPredictor>(
    eval: &EnergyEvaluator<P>,
    snapshots: &BTreeMap<usize, KernelSnapshot>,
    search_order: &[usize],
    current: usize,
    horizon: usize,
    elapsed_gi: f64,
    elapsed_s: f64,
    target: &PerfTarget,
) -> Option<WindowPlan> {
    optimize_window_with(
        eval,
        snapshots,
        search_order,
        current,
        horizon,
        elapsed_gi,
        elapsed_s,
        target,
        &mut EvalMemo::new(),
    )
}

/// [`optimize_window`] against a caller-provided [`EvalMemo`], the form
/// the MPC governor's hot path uses so every hill climb across all
/// horizon steps of a decision (and across decisions) reuses one memo
/// allocation. Each climb re-scopes the memo, so plans and evaluation
/// counts are identical to [`optimize_window`].
#[allow(clippy::too_many_arguments)]
pub fn optimize_window_with<P: PowerPerfPredictor>(
    eval: &EnergyEvaluator<P>,
    snapshots: &BTreeMap<usize, KernelSnapshot>,
    search_order: &[usize],
    current: usize,
    horizon: usize,
    elapsed_gi: f64,
    elapsed_s: f64,
    target: &PerfTarget,
    memo: &mut EvalMemo,
) -> Option<WindowPlan> {
    snapshots.get(&current)?;
    // One span per *decision* (covering every per-position climb in the
    // window), not per climb — the guard is ~100 ns and would otherwise
    // run several times per dispatch.
    let _span = gpm_telemetry::span("search.hill_climb");
    let end = current + horizon.max(1);

    // Window positions in search order; anything the search order misses
    // (e.g. the application grew) is appended in execution order.
    let mut order: Vec<usize> = search_order
        .iter()
        .copied()
        .filter(|p| *p >= current && *p < end && snapshots.contains_key(p))
        .collect();
    for p in snapshots.keys().copied() {
        if p >= current && p < end && !order.contains(&p) {
            order.push(p);
        }
    }

    let mut evaluations = 0u64;

    // The guard behind the search-order heuristic (Section IV-A1a): the
    // whole window shares one Eq. 3 budget — the time that keeps
    // cumulative throughput on target at the window's end. When pricing a
    // kernel, reserve the *fastest recovery* (fail-safe) time of every
    // kernel not yet priced, so that slowing an early-priced kernel can
    // never make the upcoming low-throughput phase unable to "make up"
    // the difference.
    let window_gi: f64 = order.iter().map(|&p| snapshots[&p].ginstructions).sum();
    let window_budget_end = target.time_cap(elapsed_gi, elapsed_s, window_gi);
    let fs_time: std::collections::BTreeMap<usize, f64> = order
        .iter()
        .map(|&p| {
            evaluations += 1;
            (p, eval.estimate(&snapshots[&p], HwConfig::FAIL_SAFE).time_s)
        })
        .collect();
    let mut fs_remaining: f64 = fs_time.values().sum();

    let mut fail_safe = false;
    let mut virtual_s = elapsed_s;
    let mut window = Vec::with_capacity(order.len());
    let mut chosen_current = HwConfig::FAIL_SAFE;
    let mut chosen_est = None;
    let mut search = SearchStats::default();

    for p in order {
        let snap = &snapshots[&p];
        // The others' fail-safe reservation; this kernel competes for the
        // rest of the budget.
        fs_remaining -= fs_time[&p];
        let committed = virtual_s - elapsed_s;
        let cap_shared = window_budget_end - committed - fs_remaining;
        // Never looser than the kernel's own prefix cap would allow if it
        // were the last one standing; never negative protection needed —
        // hill_climb handles infeasible caps by returning None.
        let cap = cap_shared;
        let (best, stats) = hill_climb(eval, snap, HwConfig::FAIL_SAFE, cap, memo);
        evaluations += stats.evaluations;
        search.merge(&stats);
        let est = match best {
            Some(best) => best,
            None => {
                // Even fail-safe misses the cap: run fail-safe anyway (the
                // paper's fallback) and absorb the debt.
                if p == current {
                    fail_safe = true;
                }
                evaluations += 1;
                eval.estimate(snap, HwConfig::FAIL_SAFE)
            }
        };
        if p == current {
            chosen_current = est.config;
            chosen_est = Some(est);
        }
        window.push((p, est.config));
        virtual_s += est.time_s;
    }

    search.evaluations = evaluations;
    Some(WindowPlan {
        config: chosen_current,
        window,
        evaluations,
        fail_safe,
        search,
        chosen: chosen_est,
    })
}

/// The *exact* window optimizer: solves Eq. 3 directly as a
/// multiple-choice knapsack over every configuration in `space` for every
/// window kernel (minimum window energy subject to the window-wide time
/// budget), via the same DP used by the Theoretically Optimal scheme.
///
/// This is the reference the paper's greedy heuristic approximates — the
/// "exhaustive MPC search" of the 65× search-cost claim. It costs
/// `|window| × |space|` predictor evaluations per decision (plus the DP),
/// against the heuristic's `|window| × Σ|knob|`, and is provided for
/// ablations and tests, not for runtime use.
///
/// Returns `None` when `current` has no snapshot. Kernels fall back to the
/// fail-safe configuration when even the all-fail-safe assignment misses
/// the budget.
#[allow(clippy::too_many_arguments)]
pub fn optimize_window_exact<P: PowerPerfPredictor>(
    eval: &EnergyEvaluator<P>,
    snapshots: &BTreeMap<usize, KernelSnapshot>,
    space: &ConfigSpace,
    current: usize,
    horizon: usize,
    elapsed_gi: f64,
    elapsed_s: f64,
    target: &PerfTarget,
) -> Option<WindowPlan> {
    snapshots.get(&current)?;
    let end = current + horizon.max(1);
    let positions: Vec<usize> = snapshots
        .keys()
        .copied()
        .filter(|&p| p >= current && p < end)
        .collect();

    let window_gi: f64 = positions.iter().map(|p| snapshots[p].ginstructions).sum();
    let budget = target.time_cap(elapsed_gi, elapsed_s, 0.0) + window_gi / target.throughput();

    let configs: Vec<HwConfig> = space.iter().collect();
    let mut evaluations = 0u64;
    // The candidate set per position is the whole space, so each position
    // is priced in one batched call; per-candidate estimates (and the
    // evaluation count) are identical to the former scalar loop.
    let mut estimates = Vec::new();
    let options: Vec<Vec<(f64, f64)>> = positions
        .iter()
        .map(|p| {
            eval.estimate_batch(&snapshots[p], &configs, &mut estimates);
            evaluations += estimates.len() as u64;
            estimates
                .iter()
                .map(|est| (est.time_s, est.energy_j))
                .collect()
        })
        .collect();

    let solution = if budget > 0.0 {
        ToSolver { grid: 1000 }.solve(&options, budget)
    } else {
        None
    };
    let (assignment, fail_safe) = match solution {
        Some(picks) => {
            let cfgs: Vec<HwConfig> = picks.iter().map(|&j| configs[j]).collect();
            (cfgs, false)
        }
        None => (vec![HwConfig::FAIL_SAFE; positions.len()], true),
    };

    let window: Vec<(usize, HwConfig)> = positions
        .iter()
        .copied()
        .zip(assignment.iter().copied())
        .collect();
    let config = window
        .iter()
        .find(|(p, _)| *p == current)
        .map(|(_, c)| *c)
        .unwrap_or(HwConfig::FAIL_SAFE);
    // The exact solver prices the whole space up front, so the chosen
    // configuration's estimate is a lookup, not an extra evaluation.
    let chosen = Some(eval.estimate(&snapshots[&current], config));
    Some(WindowPlan {
        config,
        window,
        evaluations,
        fail_safe,
        search: SearchStats {
            evaluations,
            ..SearchStats::default()
        },
        chosen,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_governors::search::{hill_climb, EvalMemo};
    use gpm_hw::{ConfigSpace, HwConfig};
    use gpm_sim::predictor::KernelSnapshot;
    use gpm_sim::{ApuSimulator, KernelCharacteristics, OraclePredictor, SimParams};

    struct Fixture {
        sim: ApuSimulator,
        eval: EnergyEvaluator<OraclePredictor>,
        kernels: Vec<KernelCharacteristics>,
        snapshots: BTreeMap<usize, KernelSnapshot>,
    }

    /// Builds positions 0..n cycling through the given kernels.
    fn fixture(kernels: Vec<KernelCharacteristics>, n: usize) -> Fixture {
        let sim = ApuSimulator::noiseless();
        let eval = EnergyEvaluator::new(OraclePredictor::new(&sim), SimParams::noiseless());
        let snapshots: BTreeMap<usize, KernelSnapshot> = (0..n)
            .map(|p| {
                let k = kernels[p % kernels.len()].clone();
                let out = sim.evaluate_exact(&k, HwConfig::FAIL_SAFE);
                (
                    p,
                    KernelSnapshot::with_truth(out.counters, HwConfig::FAIL_SAFE, k),
                )
            })
            .collect();
        Fixture {
            sim,
            eval,
            kernels,
            snapshots,
        }
    }

    /// A target equal to fail-safe throughput scaled by `slack`.
    fn target_for(fx: &Fixture, n: usize, slack: f64) -> PerfTarget {
        let mut gi = 0.0;
        let mut t = 0.0;
        for p in 0..n {
            let k = &fx.kernels[p % fx.kernels.len()];
            let out = fx.sim.evaluate_exact(k, HwConfig::FAIL_SAFE);
            gi += out.ginstructions;
            t += out.time_s;
        }
        PerfTarget::new(gi, t * slack)
    }

    #[test]
    fn missing_current_snapshot_returns_none() {
        let fx = fixture(vec![KernelCharacteristics::compute_bound("cb", 10.0)], 3);
        let target = target_for(&fx, 3, 1.0);
        let plan = optimize_window(&fx.eval, &fx.snapshots, &[0, 1, 2], 5, 2, 0.0, 0.0, &target);
        assert!(plan.is_none());
    }

    #[test]
    fn single_kernel_window_matches_hill_climb() {
        let fx = fixture(vec![KernelCharacteristics::unscalable("us", 0.02)], 1);
        let target = target_for(&fx, 1, 1.5);
        let plan = optimize_window(&fx.eval, &fx.snapshots, &[0], 0, 1, 0.0, 0.0, &target).unwrap();
        let cap = target.time_cap(0.0, 0.0, fx.snapshots[&0].ginstructions);
        let (direct, _) = hill_climb(
            &fx.eval,
            &fx.snapshots[&0],
            HwConfig::FAIL_SAFE,
            cap,
            &mut EvalMemo::new(),
        );
        assert_eq!(plan.config, direct.unwrap().config);
        assert!(!plan.fail_safe);
        assert_eq!(plan.window.len(), 1);
    }

    #[test]
    fn window_truncates_at_application_end() {
        let fx = fixture(vec![KernelCharacteristics::compute_bound("cb", 10.0)], 4);
        let target = target_for(&fx, 4, 1.2);
        let order: Vec<usize> = (0..4).collect();
        let plan =
            optimize_window(&fx.eval, &fx.snapshots, &order, 2, 100, 0.0, 0.0, &target).unwrap();
        // Only positions 2 and 3 exist.
        assert_eq!(plan.window.len(), 2);
        assert!(plan.window.iter().all(|(p, _)| *p >= 2 && *p < 4));
    }

    #[test]
    fn respects_search_order_within_window() {
        let fx = fixture(
            vec![
                KernelCharacteristics::compute_bound("cb", 20.0),
                KernelCharacteristics::unscalable("us", 0.02),
            ],
            4,
        );
        let target = target_for(&fx, 4, 1.3);
        // Search order visits position 3 first, then 1, 0, 2.
        let plan = optimize_window(
            &fx.eval,
            &fx.snapshots,
            &[3, 1, 0, 2],
            0,
            4,
            0.0,
            0.0,
            &target,
        )
        .unwrap();
        let visited: Vec<usize> = plan.window.iter().map(|(p, _)| *p).collect();
        assert_eq!(visited, vec![3, 1, 0, 2]);
    }

    #[test]
    fn impossible_target_falls_back_to_fail_safe() {
        let fx = fixture(vec![KernelCharacteristics::compute_bound("cb", 20.0)], 2);
        // Target throughput 100× anything achievable.
        let gi = fx.snapshots[&0].ginstructions;
        let target = PerfTarget::new(
            gi * 100.0,
            fx.sim
                .evaluate_exact(&fx.kernels[0], HwConfig::MAX_PERF)
                .time_s,
        );
        let plan =
            optimize_window(&fx.eval, &fx.snapshots, &[0, 1], 0, 2, 0.0, 0.0, &target).unwrap();
        assert!(plan.fail_safe);
        assert_eq!(plan.config, HwConfig::FAIL_SAFE);
    }

    #[test]
    fn slack_lets_optimizer_save_energy() {
        let fx = fixture(vec![KernelCharacteristics::unscalable("us", 0.02)], 3);
        let target = target_for(&fx, 3, 2.0); // loose target
        let plan =
            optimize_window(&fx.eval, &fx.snapshots, &[0, 1, 2], 0, 3, 0.0, 0.0, &target).unwrap();
        assert!(!plan.fail_safe);
        let fs = fx.eval.estimate(&fx.snapshots[&0], HwConfig::FAIL_SAFE);
        let chosen = fx.eval.estimate(&fx.snapshots[&0], plan.config);
        assert!(chosen.energy_j < fs.energy_j);
    }

    #[test]
    fn exact_window_is_at_least_as_good_as_greedy() {
        // On the *predicted* objective, the DP solution of Eq. 3 must
        // lower-bound the heuristic's window energy whenever both are
        // feasible.
        let fx = fixture(
            vec![
                KernelCharacteristics::compute_bound("cb", 20.0),
                KernelCharacteristics::memory_bound("mb", 1.0),
                KernelCharacteristics::unscalable("us", 0.02),
            ],
            6,
        );
        let target = target_for(&fx, 6, 1.15);
        let order: Vec<usize> = (0..6).collect();
        let greedy =
            optimize_window(&fx.eval, &fx.snapshots, &order, 0, 6, 0.0, 0.0, &target).unwrap();
        let exact = optimize_window_exact(
            &fx.eval,
            &fx.snapshots,
            &ConfigSpace::paper_campaign(),
            0,
            6,
            0.0,
            0.0,
            &target,
        )
        .unwrap();
        assert!(!greedy.fail_safe && !exact.fail_safe);
        let window_energy = |plan: &WindowPlan| -> f64 {
            plan.window
                .iter()
                .map(|(p, cfg)| fx.eval.estimate(&fx.snapshots[p], *cfg).energy_j)
                .sum()
        };
        let ge = window_energy(&greedy);
        let ee = window_energy(&exact);
        assert!(
            ee <= ge * 1.001,
            "exact window energy {ee} should not exceed greedy {ge}"
        );
        // And the heuristic should not be far off (the paper's premise).
        assert!(ge <= ee * 1.5, "greedy {ge} vs exact {ee}");
    }

    #[test]
    fn exact_window_is_far_more_expensive() {
        let fx = fixture(vec![KernelCharacteristics::compute_bound("cb", 20.0)], 5);
        let target = target_for(&fx, 5, 1.2);
        let order: Vec<usize> = (0..5).collect();
        let greedy =
            optimize_window(&fx.eval, &fx.snapshots, &order, 0, 5, 0.0, 0.0, &target).unwrap();
        let exact = optimize_window_exact(
            &fx.eval,
            &fx.snapshots,
            &ConfigSpace::paper_campaign(),
            0,
            5,
            0.0,
            0.0,
            &target,
        )
        .unwrap();
        let ratio = exact.evaluations as f64 / greedy.evaluations as f64;
        assert!(ratio > 10.0, "exact/greedy evaluation ratio only {ratio}");
    }

    #[test]
    fn exact_window_falls_back_when_infeasible() {
        let fx = fixture(vec![KernelCharacteristics::compute_bound("cb", 20.0)], 2);
        let gi = fx.snapshots[&0].ginstructions;
        let t_best = fx
            .sim
            .evaluate_exact(&fx.kernels[0], HwConfig::MAX_PERF)
            .time_s;
        let target = PerfTarget::new(gi * 100.0, t_best);
        let exact = optimize_window_exact(
            &fx.eval,
            &fx.snapshots,
            &ConfigSpace::paper_campaign(),
            0,
            2,
            0.0,
            0.0,
            &target,
        )
        .unwrap();
        assert!(exact.fail_safe);
        assert_eq!(exact.config, HwConfig::FAIL_SAFE);
    }

    #[test]
    fn future_low_throughput_kernels_guard_current_choice() {
        // The Section IV "kernel 1" scenario: a fast kernel followed by
        // slow ones. With the future in view, the optimizer must keep the
        // fast kernel fast enough that the slow tail cannot sink the
        // average; a 1-kernel window would slow it down more aggressively.
        let fast = KernelCharacteristics::compute_bound("fast", 40.0);
        let slow = KernelCharacteristics::unscalable("slow", 0.08);
        let sim = ApuSimulator::noiseless();
        let eval = EnergyEvaluator::new(OraclePredictor::new(&sim), SimParams::noiseless());
        let mut snapshots = BTreeMap::new();
        for (p, k) in [fast.clone(), slow.clone(), slow.clone()]
            .into_iter()
            .enumerate()
        {
            let out = sim.evaluate_exact(&k, HwConfig::FAIL_SAFE);
            snapshots.insert(
                p,
                KernelSnapshot::with_truth(out.counters, HwConfig::FAIL_SAFE, k),
            );
        }
        let gi: f64 = snapshots.values().map(|s| s.ginstructions).sum();
        let t: f64 = [&fast, &slow, &slow]
            .iter()
            .map(|k| sim.evaluate_exact(k, HwConfig::FAIL_SAFE).time_s)
            .sum();
        let target = PerfTarget::new(gi, t * 1.02);
        // Search order: slow kernels (below target) last ⇒ (1, 2) after 0?
        // Per the heuristic the fast kernel is above target: order (0, 2, 1).
        let with_future =
            optimize_window(&eval, &snapshots, &[0, 2, 1], 0, 3, 0.0, 0.0, &target).unwrap();
        let myopic =
            optimize_window(&eval, &snapshots, &[0, 2, 1], 0, 1, 0.0, 0.0, &target).unwrap();
        let t_future = eval.estimate(&snapshots[&0], with_future.config).time_s;
        let t_myopic = eval.estimate(&snapshots[&0], myopic.config).time_s;
        assert!(
            t_future <= t_myopic + 1e-12,
            "future-aware {t_future} should keep kernel 0 at least as fast as myopic {t_myopic}"
        );
    }
}
