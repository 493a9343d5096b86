//! The Theoretically Optimal (TO) scheme (Sections II-E, V-B).
//!
//! TO has perfect knowledge of every kernel's behaviour at every
//! configuration and picks, offline, the per-kernel configurations that
//! minimize total energy while meeting the end-to-end throughput target
//! (Eq. 1). With all kernels included, the throughput constraint reduces
//! to a *time budget*: minimize `ΣEᵢ(sᵢ)` subject to `ΣTᵢ(sᵢ) ≤ T_total` —
//! a multiple-choice knapsack.
//!
//! The paper brute-forces this at `O(Mᴺ)`; we solve it exactly on a
//! discretized time grid with dynamic programming. Each kernel's step
//! visits only its Pareto frontier of `F` options and the `R` grid cells
//! the previous step reached, so a solve costs `O(N·F·R)` against the
//! plain DP's `O(N·M·G)` (`F ≪ M`, `R ≤ G`), with the same plan. Tests
//! cross-check it against brute force and against the plain DP.

use crate::governor::{Governor, GovernorDecision, KernelContext};
use gpm_hw::{ConfigSpace, HwConfig};
use gpm_sim::{ApuSimulator, KernelCharacteristics, KernelOutcome};
use serde::{Deserialize, Serialize};

/// One candidate option for one kernel: (time, energy).
pub type Option2 = (f64, f64);

/// A solved TO assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ToPlan {
    /// Chosen configuration per kernel, in execution order.
    pub configs: Vec<HwConfig>,
    /// Total predicted kernel energy of the plan, joules.
    pub energy_j: f64,
    /// Total predicted kernel time of the plan, seconds.
    pub time_s: f64,
    /// Whether the DP found a plan that fits the budget on its grid. When
    /// it did not, every kernel runs at [`HwConfig::FAIL_SAFE`].
    pub feasible: bool,
}

/// Exact-on-a-grid multiple-choice knapsack solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToSolver {
    /// Time-grid resolution. Larger grids approach the continuous optimum;
    /// item times are rounded *up* to grid cells, so solutions are always
    /// feasible in continuous time.
    pub grid: usize,
}

impl Default for ToSolver {
    fn default() -> ToSolver {
        ToSolver { grid: 4000 }
    }
}

impl ToSolver {
    /// Minimizes total energy subject to `Σ time ≤ budget_s`.
    ///
    /// `options[k]` lists kernel `k`'s `(time_s, energy_j)` alternatives.
    /// Returns the chosen option index per kernel, or `None` when no
    /// assignment fits the budget (on the conservative grid).
    ///
    /// Each kernel's DP step visits only the kernel's Pareto frontier (the
    /// options no lighter, or equally heavy and earlier, option matches in
    /// energy) and only the cells the previous step reached, so a step
    /// costs `O(F·R)` for frontier size `F` and reachable cell range
    /// `R ≤ G`. Neither cut changes the returned plan (the argument is on
    /// the private `pareto_frontier`).
    ///
    /// # Panics
    ///
    /// Panics if any kernel has no options or the budget is non-positive.
    pub fn solve(&self, options: &[Vec<Option2>], budget_s: f64) -> Option<Vec<usize>> {
        assert!(budget_s > 0.0, "time budget must be positive");
        assert!(
            options.iter().all(|o| !o.is_empty()),
            "every kernel needs at least one option"
        );
        if options.is_empty() {
            return Some(Vec::new());
        }
        let g = self.grid.max(8);
        let delta = budget_s / g as f64;
        let weight = |t: f64| -> usize { (t / delta).ceil() as usize };

        const INF: f64 = f64::INFINITY;
        let mut dp = vec![INF; g + 1];
        dp[0] = 0.0;
        // Every finite cell of `dp` lies in `lo..=hi`.
        let (mut lo, mut hi) = (0, 0);
        // choice[k][cell] = option picked for kernel k when total weight
        // after kernel k is `cell`.
        let mut choice: Vec<Vec<u32>> = Vec::with_capacity(options.len());

        for opts in options {
            let frontier = pareto_frontier(opts, weight, g);
            let mut next = vec![INF; g + 1];
            let mut pick = vec![u32::MAX; g + 1];
            for &(j, w) in &frontier {
                let e = opts[j].1;
                for cell in lo + w..=(hi + w).min(g) {
                    let base = dp[cell - w];
                    if base.is_finite() {
                        let cand = base + e;
                        if cand < next[cell] {
                            next[cell] = cand;
                            pick[cell] = j as u32;
                        }
                    }
                }
            }
            // Weights are non-negative, so nothing below `lo` is reached.
            lo += next[lo..].iter().position(|e| e.is_finite())?;
            hi = next
                .iter()
                .rposition(|e| e.is_finite())
                .expect("cell `lo` is finite");
            dp = next;
            choice.push(pick);
        }

        // Best terminal cell: the first minimum.
        let (best_cell, _) = dp[lo..=hi]
            .iter()
            .enumerate()
            .filter(|(_, &e)| e.is_finite())
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())?;

        // Walk back through the choice tables.
        let mut cell = lo + best_cell;
        let mut picks = vec![0usize; options.len()];
        for k in (0..options.len()).rev() {
            let j = choice[k][cell];
            debug_assert_ne!(j, u32::MAX);
            picks[k] = j as usize;
            let w = weight(options[k][j as usize].0);
            cell -= w;
        }
        Some(picks)
    }
}

/// The options of one kernel that can lie on [`ToSolver::solve`]'s traced
/// plan, as `(index, weight)` in ascending index order; options heavier
/// than the grid `g` are dropped.
///
/// Option `j` is kept only if `e_j < e_i` for every lighter option `i`
/// (`w_i < w_j`) and for every same-weight option listed before it
/// (`w_i == w_j`, `i < j`): a strict running minimum of energy over the
/// options sorted by `(weight, index)`.
///
/// Why the cut is exact: suppose a dropped option `j` sat on the traced
/// plan. Swapping in its dominator `i` gives a plan whose energy, summed
/// in the same order, is no larger, because rounded addition is monotone.
/// If `i` is lighter, that plan ends in a lower cell, so the first minimum
/// over the terminal cells would not be where the trace starts. If `i` has
/// the same weight, the strict `<` update keeps the earlier `i` at that
/// cell. Either way `j` cannot be on the traced plan, and the DP over the
/// kept options finds the same cells, values and first-index picks along
/// it. A later same-weight option with a lower energy does *not* dominate:
/// `b + e_i` and `b + e_j` can round to the same sum, and the unpruned DP
/// then keeps the earlier option.
fn pareto_frontier(
    opts: &[Option2],
    weight: impl Fn(f64) -> usize,
    g: usize,
) -> Vec<(usize, usize)> {
    let mut by_weight: Vec<(usize, usize)> = opts
        .iter()
        .enumerate()
        .filter_map(|(j, &(t, _))| {
            let w = weight(t);
            (w <= g).then_some((w, j))
        })
        .collect();
    by_weight.sort_unstable();
    let mut frontier = Vec::new();
    let mut best = f64::INFINITY;
    for (w, j) in by_weight {
        let e = opts[j].1;
        if e < best {
            best = e;
            frontier.push((j, w));
        }
    }
    frontier.sort_unstable();
    frontier
}

/// Plans the TO assignment for a kernel sequence using the noiseless
/// simulator as the perfect model.
///
/// `budget_s` is the baseline's total kernel time (`T_total` of Eq. 1).
/// Falls back to the fail-safe configuration for every kernel, and clears
/// [`ToPlan::feasible`], if even the grid-conservative DP finds no feasible
/// assignment.
pub fn plan_optimal(
    sim: &ApuSimulator,
    kernels: &[KernelCharacteristics],
    space: &ConfigSpace,
    budget_s: f64,
) -> ToPlan {
    let configs: Vec<HwConfig> = space.iter().collect();
    let options: Vec<Vec<Option2>> = kernels
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

    let solution = ToSolver::default().solve(&options, budget_s);
    let feasible = solution.is_some();
    let picks = solution.unwrap_or_else(|| {
        vec![
            configs
                .iter()
                .position(|&c| c == HwConfig::FAIL_SAFE)
                .unwrap_or(0);
            kernels.len()
        ]
    });

    let chosen: Vec<HwConfig> = picks.iter().map(|&j| configs[j]).collect();
    let (time_s, energy_j) = picks
        .iter()
        .enumerate()
        .fold((0.0, 0.0), |(t, e), (k, &j)| {
            (t + options[k][j].0, e + options[k][j].1)
        });
    ToPlan {
        configs: chosen,
        energy_j,
        time_s,
        feasible,
    }
}

/// TO as a replayable governor (zero overhead, perfect knowledge).
pub fn to_governor(plan: &ToPlan) -> impl Governor {
    ToGovernor {
        plan: plan.configs.clone(),
    }
}

#[derive(Debug, Clone)]
struct ToGovernor {
    plan: Vec<HwConfig>,
}

impl Governor for ToGovernor {
    fn name(&self) -> &str {
        "theoretically-optimal"
    }

    fn select(&mut self, ctx: &KernelContext) -> GovernorDecision {
        let cfg = self
            .plan
            .get(ctx.position)
            .copied()
            .unwrap_or(HwConfig::FAIL_SAFE);
        GovernorDecision::instant(cfg)
    }

    fn observe(
        &mut self,
        _ctx: &KernelContext,
        _executed_at: HwConfig,
        _outcome: &KernelOutcome,
        _truth: Option<&KernelCharacteristics>,
    ) {
    }
}

/// Brute-force reference solver for tests: `O(Mᴺ)`.
pub fn solve_brute(options: &[Vec<Option2>], budget_s: f64) -> Option<(Vec<usize>, f64)> {
    fn rec(
        options: &[Vec<Option2>],
        k: usize,
        time: f64,
        energy: f64,
        budget: f64,
        picks: &mut Vec<usize>,
        best: &mut Option<(Vec<usize>, f64)>,
    ) {
        if time > budget {
            return;
        }
        if k == options.len() {
            if best.as_ref().is_none_or(|(_, be)| energy < *be) {
                *best = Some((picks.clone(), energy));
            }
            return;
        }
        for (j, &(t, e)) in options[k].iter().enumerate() {
            picks.push(j);
            rec(options, k + 1, time + t, energy + e, budget, picks, best);
            picks.pop();
        }
    }
    let mut best = None;
    rec(options, 0, 0.0, 0.0, budget_s, &mut Vec::new(), &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl ToSolver {
        /// The plain DP over every option and every cell: the reference
        /// [`ToSolver::solve`] must agree with exactly.
        fn solve_reference(&self, options: &[Vec<Option2>], budget_s: f64) -> Option<Vec<usize>> {
            assert!(budget_s > 0.0, "time budget must be positive");
            assert!(
                options.iter().all(|o| !o.is_empty()),
                "every kernel needs at least one option"
            );
            if options.is_empty() {
                return Some(Vec::new());
            }
            let g = self.grid.max(8);
            let delta = budget_s / g as f64;
            let weight = |t: f64| -> usize { (t / delta).ceil() as usize };

            const INF: f64 = f64::INFINITY;
            let mut dp = vec![INF; g + 1];
            dp[0] = 0.0;
            let mut choice: Vec<Vec<u32>> = Vec::with_capacity(options.len());

            for opts in options {
                let mut next = vec![INF; g + 1];
                let mut pick = vec![u32::MAX; g + 1];
                for (j, &(t, e)) in opts.iter().enumerate() {
                    let w = weight(t);
                    if w > g {
                        continue;
                    }
                    for cell in w..=g {
                        let base = dp[cell - w];
                        if base.is_finite() {
                            let cand = base + e;
                            if cand < next[cell] {
                                next[cell] = cand;
                                pick[cell] = j as u32;
                            }
                        }
                    }
                }
                dp = next;
                choice.push(pick);
            }

            let (best_cell, _) = dp
                .iter()
                .enumerate()
                .filter(|(_, &e)| e.is_finite())
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())?;

            let mut cell = best_cell;
            let mut picks = vec![0usize; options.len()];
            for k in (0..options.len()).rev() {
                let j = choice[k][cell];
                picks[k] = j as usize;
                cell -= weight(options[k][j as usize].0);
            }
            Some(picks)
        }
    }

    /// One seeded random instance: `(grid, options, budget)`.
    ///
    /// Four option shapes: small integer times and energies (many exact
    /// ties); energies near 1e16 that differ by a few units, so sums of
    /// different options round to the same value; continuous times and
    /// energies; and one continuous option set shared by every kernel. The
    /// budget is either a random plan's exact total time or 0.5–3× the
    /// fastest plan's time, so some instances are infeasible.
    fn random_instance(
        rng: &mut StdRng,
        max_kernels: usize,
        max_options: usize,
    ) -> (usize, Vec<Vec<Option2>>, f64) {
        let grid = [8, 37, 100, 4000][rng.gen_range(0..4usize)];
        let kernels = rng.gen_range(1..=max_kernels);
        let shape = rng.gen_range(0..4);
        let option = |rng: &mut StdRng| -> Option2 {
            match shape {
                0 => (rng.gen_range(1..6) as f64, rng.gen_range(1..6) as f64),
                1 => (
                    rng.gen_range(1..6) as f64 * 0.25,
                    1e16 + rng.gen_range(0..8) as f64,
                ),
                _ => (rng.gen_range(0.05..3.0), rng.gen_range(0.1..10.0)),
            }
        };
        let shared: Vec<Option2> = (0..rng.gen_range(1..=max_options))
            .map(|_| option(rng))
            .collect();
        let options: Vec<Vec<Option2>> = (0..kernels)
            .map(|_| {
                if shape == 3 {
                    shared.clone()
                } else {
                    (0..rng.gen_range(1..=max_options))
                        .map(|_| option(rng))
                        .collect()
                }
            })
            .collect();
        let fastest: f64 = options
            .iter()
            .map(|o| o.iter().map(|x| x.0).fold(f64::INFINITY, f64::min))
            .sum();
        let budget = match rng.gen_range(0..4) {
            0 => options.iter().map(|o| o[rng.gen_range(0..o.len())].0).sum(),
            1 => fastest * rng.gen_range(0.5..1.0),
            _ => fastest * rng.gen_range(1.0..3.0),
        };
        (grid, options, budget)
    }

    fn assert_matches_reference(
        seed: u64,
        instances: usize,
        max_kernels: usize,
        max_options: usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut feasible = 0;
        for case in 0..instances {
            let (grid, options, budget) = random_instance(&mut rng, max_kernels, max_options);
            let solver = ToSolver { grid };
            let got = solver.solve(&options, budget);
            let want = solver.solve_reference(&options, budget);
            assert_eq!(
                got, want,
                "case {case}: grid {grid}, budget {budget}, options {options:?}"
            );
            feasible += usize::from(want.is_some());
        }
        // Both outcomes must be well represented for the check to mean anything.
        assert!(
            feasible > instances / 4 && feasible < instances * 9 / 10,
            "{feasible} of {instances} feasible"
        );
    }

    #[test]
    fn solve_matches_the_plain_dp_on_random_instances() {
        assert_matches_reference(0x70_5eed, 1500, 6, 10);
    }

    /// The same check on many more and larger instances. Seconds in
    /// release: `cargo test --release -p gpm-governors -- --ignored`.
    #[test]
    #[ignore = "needs a release build; CI runs it with --ignored"]
    fn solve_matches_the_plain_dp_on_many_random_instances() {
        assert_matches_reference(0x70_0a11, 20_000, 12, 40);
    }

    /// Any superset of the frontier gives the same plans, so the oracle
    /// above cannot see a frontier that keeps too much; this pins the
    /// kept set itself, which is what makes the DP fast.
    #[test]
    fn frontier_keeps_only_undominated_options() {
        // (time, energy); the weight function below is the time itself.
        let opts = [
            (2.0, 5.0), // 0: kept
            (1.0, 7.0), // 1: kept, the lightest
            (2.0, 4.0), // 2: kept, beats the earlier same-weight option 0
            (2.0, 5.0), // 3: dropped, ties option 0 listed before it
            (3.0, 4.0), // 4: dropped, ties the lighter option 2
            (9.0, 1.0), // 5: dropped, heavier than the grid
            (4.0, 3.0), // 6: kept
            (1.0, 7.0), // 7: dropped, ties option 1 listed before it
        ];
        let frontier = pareto_frontier(&opts, |t| t as usize, 8);
        assert_eq!(frontier, vec![(0, 2), (1, 1), (2, 2), (6, 4)]);
    }

    fn toy_options() -> Vec<Vec<Option2>> {
        // Three kernels, three options each: (fast, expensive) → (slow, cheap).
        vec![
            vec![(1.0, 10.0), (2.0, 6.0), (4.0, 5.0)],
            vec![(1.0, 20.0), (3.0, 9.0), (5.0, 8.0)],
            vec![(2.0, 12.0), (4.0, 7.0), (6.0, 6.5)],
        ]
    }

    fn total(options: &[Vec<Option2>], picks: &[usize]) -> (f64, f64) {
        picks
            .iter()
            .enumerate()
            .fold((0.0, 0.0), |(t, e), (k, &j)| {
                (t + options[k][j].0, e + options[k][j].1)
            })
    }

    #[test]
    fn dp_matches_brute_force() {
        let options = toy_options();
        for budget in [4.0, 6.0, 8.0, 10.0, 15.0] {
            // A grid whose cell size divides the (integer) option times
            // exactly, so the conservative ceil-rounding is lossless and
            // the DP must match brute force bit-for-bit.
            let dp = ToSolver {
                grid: (budget * 10.0) as usize,
            }
            .solve(&options, budget);
            let brute = solve_brute(&options, budget);
            match (dp, brute) {
                (Some(d), Some((_, be))) => {
                    let (t, e) = total(&options, &d);
                    assert!(t <= budget + 1e-9);
                    assert!(
                        (e - be).abs() < 1e-6,
                        "budget {budget}: dp energy {e} vs brute {be}"
                    );
                }
                (None, None) => {}
                (d, b) => panic!("budget {budget}: dp {d:?} brute {b:?}"),
            }
        }
    }

    #[test]
    fn infeasible_budget_returns_none() {
        let options = toy_options();
        assert_eq!(ToSolver::default().solve(&options, 1.0), None);
        assert_eq!(solve_brute(&options, 1.0), None);
    }

    #[test]
    fn generous_budget_takes_cheapest_options() {
        let options = toy_options();
        let picks = ToSolver::default().solve(&options, 100.0).unwrap();
        assert_eq!(picks, vec![2, 2, 2]);
    }

    #[test]
    fn empty_problem_is_trivially_solved() {
        assert_eq!(ToSolver::default().solve(&[], 1.0), Some(Vec::new()));
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn nonpositive_budget_panics() {
        let _ = ToSolver::default().solve(&toy_options(), 0.0);
    }

    #[test]
    fn plan_optimal_meets_budget_and_beats_fail_safe() {
        let sim = ApuSimulator::noiseless();
        let kernels = vec![
            KernelCharacteristics::compute_bound("a", 15.0),
            KernelCharacteristics::memory_bound("b", 1.0),
            KernelCharacteristics::unscalable("c", 0.02),
            KernelCharacteristics::peak("d", 8.0),
        ];
        let space = ConfigSpace::paper_campaign();
        // Budget: fail-safe total time with 5% slack.
        let fs_time: f64 = kernels
            .iter()
            .map(|k| sim.evaluate_exact(k, HwConfig::FAIL_SAFE).time_s)
            .sum();
        let fs_energy: f64 = kernels
            .iter()
            .map(|k| sim.evaluate_exact(k, HwConfig::FAIL_SAFE).energy.total_j())
            .sum();
        let plan = plan_optimal(&sim, &kernels, &space, fs_time * 1.05);
        assert!(plan.feasible);
        assert_eq!(plan.configs.len(), kernels.len());
        assert!(plan.time_s <= fs_time * 1.05 + 1e-9);
        assert!(
            plan.energy_j < fs_energy,
            "TO {} vs fail-safe {}",
            plan.energy_j,
            fs_energy
        );
    }

    #[test]
    fn to_governor_replays_plan() {
        use crate::governor::PerfTarget;
        let plan = ToPlan {
            configs: vec![HwConfig::MAX_PERF, HwConfig::FAIL_SAFE],
            energy_j: 1.0,
            time_s: 1.0,
            feasible: true,
        };
        let mut gov = to_governor(&plan);
        let mk = |position| KernelContext {
            position,
            run_index: 0,
            elapsed_kernel_s: 0.0,
            elapsed_gi: 0.0,
            target: PerfTarget::new(1.0, 1.0),
            total_kernels: Some(2),
        };
        assert_eq!(gov.select(&mk(0)).config, HwConfig::MAX_PERF);
        assert_eq!(gov.select(&mk(1)).config, HwConfig::FAIL_SAFE);
        assert_eq!(gov.select(&mk(5)).config, HwConfig::FAIL_SAFE);
        assert_eq!(gov.name(), "theoretically-optimal");
    }
}
