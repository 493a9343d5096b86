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

use gpm_governors::search::{hill_climb, ConfigEstimate, EnergyEvaluator, SearchStats};
use gpm_governors::to::ToSolver;
use gpm_governors::PerfTarget;
use gpm_hw::{ConfigSpace, HwConfig};
use gpm_sim::predictor::{KernelSnapshot, PowerPerfPredictor};
use std::cell::RefCell;

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

/// The pairs of `window` at positions `current..current + horizon` (at
/// least `current` itself), or `None` when `current` has no snapshot.
///
/// `window` must be in strictly ascending position order.
fn in_window(
    window: &[(usize, KernelSnapshot)],
    current: usize,
    horizon: usize,
) -> Option<&[(usize, KernelSnapshot)]> {
    debug_assert!(
        window.windows(2).all(|w| w[0].0 < w[1].0),
        "window positions must ascend"
    );
    let end = current + horizon.max(1);
    let lo = window.partition_point(|(p, _)| *p < current);
    let hi = window.partition_point(|(p, _)| *p < end);
    let win = &window[lo..hi];
    (win.first()?.0 == current).then_some(win)
}

/// Reused buffers of [`optimize_window`], one set per thread.
#[derive(Default)]
struct WindowScratch {
    /// Index into the window of each position, by offset from its head.
    index_of: Vec<usize>,
    /// Whether the search order lists each window index.
    listed: Vec<bool>,
    /// Window indices in visit order.
    order: Vec<usize>,
    /// Fail-safe time estimate of each window index.
    fs_time: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<WindowScratch> = RefCell::new(WindowScratch::default());
}

/// Optimizes the window starting at `current` over `horizon` positions.
///
/// `window` pairs positions with the *expected* kernels there (from the
/// pattern extractor), in strictly ascending position order; a position
/// without a snapshot (past the application's end, or discarded as
/// stale) is left out, and pairs outside `current..current + horizon`
/// are ignored. `search_order` lists positions in the order to visit
/// them; window positions it misses are visited after it in execution
/// order, so an empty order visits the window in execution order.
/// `elapsed_gi`/`elapsed_s` are the retired-kernel sums feeding the Eq. 4
/// performance tracker.
///
/// Returns `None` when `current` itself has no snapshot — the caller has
/// no expectation to optimize against and should fall back to a
/// history-based decision.
#[allow(clippy::too_many_arguments)]
pub fn optimize_window<P: PowerPerfPredictor>(
    eval: &EnergyEvaluator<P>,
    window: &[(usize, KernelSnapshot)],
    search_order: &[usize],
    current: usize,
    horizon: usize,
    elapsed_gi: f64,
    elapsed_s: f64,
    target: &PerfTarget,
) -> Option<WindowPlan> {
    let win = in_window(window, current, horizon)?;
    // One span per *decision* (covering every per-position climb in the
    // window), not per climb — the guard is ~100 ns and would otherwise
    // run several times per dispatch.
    let _span = gpm_telemetry::span("search.hill_climb");

    // The buffers are taken out of the thread-local for the walk and
    // put back after it, so they keep their capacity across decisions.
    let mut scratch = SCRATCH.take();
    let WindowScratch {
        index_of,
        listed,
        order,
        fs_time,
    } = &mut scratch;
    const ABSENT: usize = usize::MAX;
    index_of.clear();
    index_of.resize(win[win.len() - 1].0 - current + 1, ABSENT);
    for (i, (p, _)) in win.iter().enumerate() {
        index_of[p - current] = i;
    }
    // Window indices in search order; anything the search order misses
    // (e.g. the application grew) is appended in execution order.
    order.clear();
    listed.clear();
    listed.resize(win.len(), false);
    for &p in search_order {
        let i = p
            .checked_sub(current)
            .and_then(|offset| index_of.get(offset).copied())
            .unwrap_or(ABSENT);
        if i != ABSENT {
            order.push(i);
            listed[i] = true;
        }
    }
    order.extend((0..win.len()).filter(|&i| !listed[i]));

    let mut evaluations = 0u64;

    // The guard behind the search-order heuristic (Section IV-A1a): the
    // whole window shares one Eq. 3 budget — the time that keeps
    // cumulative throughput on target at the window's end. When pricing a
    // kernel, reserve the *fastest recovery* (fail-safe) time of every
    // kernel not yet priced, so that slowing an early-priced kernel can
    // never make the upcoming low-throughput phase unable to "make up"
    // the difference.
    let window_gi: f64 = order.iter().map(|&i| win[i].1.ginstructions).sum();
    let window_budget_end = target.time_cap(elapsed_gi, elapsed_s, window_gi);
    fs_time.clear();
    fs_time.resize(win.len(), 0.0);
    for &i in order.iter() {
        evaluations += 1;
        fs_time[i] = eval.estimate(&win[i].1, HwConfig::FAIL_SAFE).time_s;
    }
    // Summed in execution order, whatever the visit order.
    let mut fs_remaining: f64 = fs_time.iter().sum();

    let mut fail_safe = false;
    let mut virtual_s = elapsed_s;
    let mut plan_window = Vec::with_capacity(order.len());
    let mut chosen_current = HwConfig::FAIL_SAFE;
    let mut chosen_est = None;
    let mut search = SearchStats::default();

    for &i in order.iter() {
        let (p, snap) = &win[i];
        // The others' fail-safe reservation; this kernel competes for the
        // rest of the budget.
        fs_remaining -= fs_time[i];
        let committed = virtual_s - elapsed_s;
        let cap_shared = window_budget_end - committed - fs_remaining;
        // Never looser than the kernel's own prefix cap would allow if it
        // were the last one standing; never negative protection needed —
        // hill_climb handles infeasible caps by returning None.
        let cap = cap_shared;
        let (best, stats) = hill_climb(eval, snap, HwConfig::FAIL_SAFE, cap);
        evaluations += stats.evaluations;
        search.merge(&stats);
        let est = match best {
            Some(best) => best,
            None => {
                // Even fail-safe misses the cap: run fail-safe anyway (the
                // paper's fallback) and absorb the debt.
                if *p == current {
                    fail_safe = true;
                }
                evaluations += 1;
                eval.estimate(snap, HwConfig::FAIL_SAFE)
            }
        };
        if *p == current {
            chosen_current = est.config;
            chosen_est = Some(est);
        }
        plan_window.push((*p, est.config));
        virtual_s += est.time_s;
    }

    SCRATCH.set(scratch);
    search.evaluations = evaluations;
    Some(WindowPlan {
        config: chosen_current,
        window: plan_window,
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
/// `window` is read as by [`optimize_window`]. Returns `None` when
/// `current` has no snapshot. Kernels fall back to the fail-safe
/// configuration when even the all-fail-safe assignment misses the
/// budget.
#[allow(clippy::too_many_arguments)]
pub fn optimize_window_exact<P: PowerPerfPredictor>(
    eval: &EnergyEvaluator<P>,
    window: &[(usize, KernelSnapshot)],
    space: &ConfigSpace,
    current: usize,
    horizon: usize,
    elapsed_gi: f64,
    elapsed_s: f64,
    target: &PerfTarget,
) -> Option<WindowPlan> {
    let win = in_window(window, current, horizon)?;
    let window_gi: f64 = win.iter().map(|(_, snap)| snap.ginstructions).sum();
    let budget = target.time_cap(elapsed_gi, elapsed_s, 0.0) + window_gi / target.throughput();

    let configs: Vec<HwConfig> = space.iter().collect();
    let mut evaluations = 0u64;
    // The candidate set per position is the whole space, so each position
    // is priced in one batched call; per-candidate estimates (and the
    // evaluation count) are identical to the former scalar loop.
    let mut estimates = Vec::new();
    let options: Vec<Vec<(f64, f64)>> = win
        .iter()
        .map(|(_, snap)| {
            eval.estimate_batch(snap, &configs, &mut estimates);
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
        None => (vec![HwConfig::FAIL_SAFE; win.len()], true),
    };

    let plan_window: Vec<(usize, HwConfig)> = win
        .iter()
        .map(|(p, _)| *p)
        .zip(assignment.iter().copied())
        .collect();
    // `win` starts at the current kernel.
    let config = plan_window[0].1;
    // The exact solver prices the whole space up front, so the chosen
    // configuration's estimate is a lookup, not an extra evaluation.
    let chosen = Some(eval.estimate(&win[0].1, config));
    Some(WindowPlan {
        config,
        window: plan_window,
        evaluations,
        fail_safe,
        search: SearchStats {
            evaluations,
            ..SearchStats::default()
        },
        chosen,
    })
}

/// The window optimizers as they stood when the window was a
/// `BTreeMap` from position to snapshot: the reference the slice-based
/// optimizers must match plan for plan, bit for bit.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::collections::BTreeMap;

    #[allow(clippy::too_many_arguments)]
    pub(super) fn optimize_window<P: PowerPerfPredictor>(
        eval: &EnergyEvaluator<P>,
        snapshots: &BTreeMap<usize, KernelSnapshot>,
        search_order: &[usize],
        current: usize,
        horizon: usize,
        elapsed_gi: f64,
        elapsed_s: f64,
        target: &PerfTarget,
    ) -> Option<WindowPlan> {
        snapshots.get(&current)?;
        let end = current + horizon.max(1);
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
        let window_gi: f64 = order.iter().map(|&p| snapshots[&p].ginstructions).sum();
        let window_budget_end = target.time_cap(elapsed_gi, elapsed_s, window_gi);
        let fs_time: BTreeMap<usize, f64> = order
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
            fs_remaining -= fs_time[&p];
            let committed = virtual_s - elapsed_s;
            let cap = window_budget_end - committed - fs_remaining;
            let (best, stats) = hill_climb(eval, snap, HwConfig::FAIL_SAFE, cap);
            evaluations += stats.evaluations;
            search.merge(&stats);
            let est = match best {
                Some(best) => best,
                None => {
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

    #[allow(clippy::too_many_arguments)]
    pub(super) fn optimize_window_exact<P: PowerPerfPredictor>(
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
            Some(picks) => (picks.iter().map(|&j| configs[j]).collect(), false),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_hw::{ConfigSpace, HwConfig};
    use gpm_sim::predictor::KernelSnapshot;
    use gpm_sim::{ApuSimulator, KernelCharacteristics, OraclePredictor, SimParams};

    struct Fixture {
        sim: ApuSimulator,
        eval: EnergyEvaluator<OraclePredictor>,
        kernels: Vec<KernelCharacteristics>,
        snapshots: Vec<(usize, KernelSnapshot)>,
    }

    /// Builds positions 0..n cycling through the given kernels.
    fn fixture(kernels: Vec<KernelCharacteristics>, n: usize) -> Fixture {
        let sim = ApuSimulator::noiseless();
        let eval = EnergyEvaluator::new(OraclePredictor::new(&sim), SimParams::noiseless());
        let snapshots: Vec<(usize, KernelSnapshot)> = (0..n)
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
        let cap = target.time_cap(0.0, 0.0, fx.snapshots[0].1.ginstructions);
        let (direct, _) = hill_climb(&fx.eval, &fx.snapshots[0].1, HwConfig::FAIL_SAFE, cap);
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
        let gi = fx.snapshots[0].1.ginstructions;
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
        let fs = fx.eval.estimate(&fx.snapshots[0].1, HwConfig::FAIL_SAFE);
        let chosen = fx.eval.estimate(&fx.snapshots[0].1, plan.config);
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
                .map(|&(p, cfg)| fx.eval.estimate(&fx.snapshots[p].1, cfg).energy_j)
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
        let gi = fx.snapshots[0].1.ginstructions;
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
        let snapshots: Vec<(usize, KernelSnapshot)> = [fast.clone(), slow.clone(), slow.clone()]
            .into_iter()
            .enumerate()
            .map(|(p, k)| {
                let out = sim.evaluate_exact(&k, HwConfig::FAIL_SAFE);
                (
                    p,
                    KernelSnapshot::with_truth(out.counters, HwConfig::FAIL_SAFE, k),
                )
            })
            .collect();
        let gi: f64 = snapshots.iter().map(|(_, s)| s.ginstructions).sum();
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
        let t_future = eval.estimate(&snapshots[0].1, with_future.config).time_s;
        let t_myopic = eval.estimate(&snapshots[0].1, myopic.config).time_s;
        assert!(
            t_future <= t_myopic + 1e-12,
            "future-aware {t_future} should keep kernel 0 at least as fast as myopic {t_myopic}"
        );
    }

    /// Debug text of a plan: `f64`'s `Debug` prints the shortest text
    /// that parses back to the same bits, so equal text is bit-equality.
    fn bits(plan: &Option<WindowPlan>) -> String {
        format!("{plan:?}")
    }

    #[test]
    fn slice_optimizers_match_the_map_oracle_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        let sim = ApuSimulator::noiseless();
        let eval = EnergyEvaluator::new(OraclePredictor::new(&sim), SimParams::noiseless());
        let pool = [
            KernelCharacteristics::compute_bound("cb", 20.0),
            KernelCharacteristics::memory_bound("mb", 1.0),
            KernelCharacteristics::unscalable("us", 0.02),
            KernelCharacteristics::peak("pk", 8.0),
            KernelCharacteristics::compute_bound("cb2", 3.0),
        ];
        let space = ConfigSpace::paper_campaign();
        let (mut fail_safe, mut missed, mut repeated, mut past_end, mut gaps) = (0, 0, 0, 0, 0);
        for case in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let app_len = rng.gen_range(1..12usize);
            // Positions with a snapshot: most of the app, with gaps.
            let mut snapshots = BTreeMap::new();
            for p in 0..app_len {
                if rng.gen_bool(0.8) {
                    let k = pool[rng.gen_range(0..pool.len())].clone();
                    let out = sim.evaluate_exact(&k, HwConfig::FAIL_SAFE);
                    let snap = KernelSnapshot::with_truth(out.counters, HwConfig::FAIL_SAFE, k);
                    snapshots.insert(p, snap);
                }
            }
            let window: Vec<(usize, KernelSnapshot)> =
                snapshots.iter().map(|(&p, s)| (p, s.clone())).collect();
            let current = rng.gen_range(0..app_len + 1);
            let horizon = rng.gen_range(0..app_len + 3);
            let end = current + horizon.max(1);
            gaps += usize::from((current..end.min(app_len)).any(|p| !snapshots.contains_key(&p)));
            // Search orders that miss, repeat, or overrun positions; or
            // none at all, which is what `use_search_order = false` runs.
            let execution_order: Vec<usize> = snapshots.keys().copied().collect();
            let (search_order, oracle_order) = match rng.gen_range(0..4) {
                0 => (Vec::new(), execution_order),
                1 => {
                    let mut order: Vec<usize> = (0..app_len).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.gen_range(0..i + 1));
                    }
                    (order.clone(), order)
                }
                _ => {
                    let order: Vec<usize> = (0..rng.gen_range(0..2 * app_len + 2))
                        .map(|_| rng.gen_range(0..app_len + 4))
                        .collect();
                    (order.clone(), order)
                }
            };
            let in_window = |p: &&usize| (current..end).contains(*p);
            let listed: Vec<usize> = search_order.iter().filter(in_window).copied().collect();
            missed += usize::from(
                snapshots
                    .keys()
                    .filter(in_window)
                    .any(|p| !search_order.contains(p)),
            );
            repeated += usize::from((1..listed.len()).any(|i| listed[..i].contains(&listed[i])));
            past_end += usize::from(search_order.iter().any(|&p| p >= app_len));
            let elapsed_gi = rng.gen_range(0.0..50.0);
            let elapsed_s = rng.gen_range(0.0..0.2);
            let target = if rng.gen_bool(0.2) {
                PerfTarget::new(1e6, 1e-3)
            } else {
                PerfTarget::new(rng.gen_range(50.0..400.0), rng.gen_range(0.2..2.0))
            };
            let greedy = optimize_window(
                &eval,
                &window,
                &search_order,
                current,
                horizon,
                elapsed_gi,
                elapsed_s,
                &target,
            );
            let reference = oracle::optimize_window(
                &eval,
                &snapshots,
                &oracle_order,
                current,
                horizon,
                elapsed_gi,
                elapsed_s,
                &target,
            );
            assert_eq!(bits(&greedy), bits(&reference), "greedy, case {case}");
            fail_safe += usize::from(greedy.as_ref().is_some_and(|plan| plan.fail_safe));
            if case % 8 == 0 {
                let exact = optimize_window_exact(
                    &eval, &window, &space, current, horizon, elapsed_gi, elapsed_s, &target,
                );
                let reference = oracle::optimize_window_exact(
                    &eval, &snapshots, &space, current, horizon, elapsed_gi, elapsed_s, &target,
                );
                assert_eq!(bits(&exact), bits(&reference), "exact, case {case}");
            }
        }
        // Every kind of input the optimizers must agree on was drawn.
        for (what, n) in [
            ("fail-safe plans", fail_safe),
            ("orders missing a window position", missed),
            ("orders repeating a position", repeated),
            ("orders past the app's end", past_end),
            ("windows with gaps", gaps),
        ] {
            assert!(n >= 10, "only {n} cases with {what}");
        }
    }
}
