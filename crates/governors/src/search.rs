//! Configuration-search primitives shared by PPK and MPC.
//!
//! Both policies repeatedly answer the same sub-question: *given a kernel
//! snapshot and a time cap, which configuration minimizes predicted chip
//! energy?* [`EnergyEvaluator`] turns predictor output into a chip-energy
//! estimate (predicted GPU power, plus the `V²f` CPU busy-wait model and
//! constant background power, integrated over predicted time);
//! [`exhaustive_best`] and [`hill_climb`] are the two search strategies —
//! the latter is the paper's greedy knob-by-knob optimizer with its
//! `Σ|knob|` (≈19× cheaper) evaluation budget.

use crate::governor::KernelContext;
use gpm_hw::{ConfigSpace, HwConfig, Knob, KnobDirection};
use gpm_sim::predictor::{KernelSnapshot, PowerPerfPredictor};
use gpm_sim::SimParams;
use gpm_trace::{FailSafeReason, KnobVisits, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};

/// Telemetry of one search invocation: how many candidates were priced,
/// where the greedy walk spent them, and how many were rejected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Predictor evaluations performed (cache misses only).
    pub evaluations: u64,
    /// Candidate configurations visited per knob.
    pub visits: KnobVisits,
    /// Candidates evaluated and rejected — an energy increase or a time-cap
    /// violation ended the sweep there (the pruned branches of the climb).
    pub pruned: u64,
    /// Estimates rejected as anomalous (non-finite or outside the
    /// plausibility envelope) — a corrupted predictor or stale input.
    pub anomalies: u64,
}

impl SearchStats {
    /// Adds another invocation's counters into this one.
    pub fn merge(&mut self, other: &SearchStats) {
        self.evaluations += other.evaluations;
        self.visits.merge(&other.visits);
        self.pruned += other.pruned;
        self.anomalies += other.anomalies;
    }
}

/// Records one decision's search on `trace`: a [`TraceEvent::Search`]
/// with `horizon`, `stats` and the charged `overhead_s`, then a
/// [`TraceEvent::FailSafe`] when the decision fell back to the fail-safe
/// configuration for `fail_safe`. The one place either event is built
/// for a governor decision.
pub fn record_search(
    trace: &dyn TraceSink,
    ctx: &KernelContext,
    horizon: Option<usize>,
    stats: &SearchStats,
    overhead_s: f64,
    fail_safe: Option<FailSafeReason>,
) {
    if !trace.enabled() {
        return;
    }
    trace.record(&TraceEvent::Search {
        run_index: ctx.run_index,
        position: ctx.position,
        horizon,
        evaluations: stats.evaluations,
        visits: stats.visits,
        pruned: stats.pruned,
        overhead_s,
    });
    if let Some(reason) = fail_safe {
        trace.record(&TraceEvent::FailSafe {
            run_index: ctx.run_index,
            position: ctx.position,
            reason,
        });
    }
}

/// Any predicted kernel time above this is treated as a prediction
/// anomaly: the suite's kernels run in microseconds to seconds, so hours
/// can only come from a corrupted estimate.
pub const PLAUSIBLE_MAX_TIME_S: f64 = 1e4;

/// Any predicted chip power above this is treated as a prediction
/// anomaly — two orders of magnitude above the part's TDP.
pub const PLAUSIBLE_MAX_POWER_W: f64 = 1e3;

/// A fully evaluated candidate configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfigEstimate {
    /// The candidate configuration.
    pub config: HwConfig,
    /// Predicted kernel execution time, seconds.
    pub time_s: f64,
    /// Predicted chip power (GPU domain + CPU busy-wait + background),
    /// watts.
    pub chip_power_w: f64,
    /// Predicted chip energy over the kernel, joules.
    pub energy_j: f64,
}

impl ConfigEstimate {
    /// Anomaly detection: whether the estimate is finite and inside the
    /// physically plausible envelope. Searches reject candidates failing
    /// this check instead of letting a corrupted predictor steer the
    /// governor toward a nonsense configuration.
    pub fn is_plausible(&self) -> bool {
        self.time_s.is_finite()
            && self.time_s > 0.0
            && self.time_s <= PLAUSIBLE_MAX_TIME_S
            && self.chip_power_w.is_finite()
            && self.chip_power_w >= 0.0
            && self.chip_power_w <= PLAUSIBLE_MAX_POWER_W
            && self.energy_j.is_finite()
    }
}

/// Turns predictor output into chip-energy estimates.
///
/// # Examples
///
/// ```
/// use gpm_governors::search::EnergyEvaluator;
/// use gpm_hw::HwConfig;
/// use gpm_sim::{ApuSimulator, KernelCharacteristics, OraclePredictor, SimParams};
/// use gpm_sim::predictor::KernelSnapshot;
///
/// let sim = ApuSimulator::noiseless();
/// let k = KernelCharacteristics::compute_bound("k", 10.0);
/// let out = sim.evaluate(&k, HwConfig::FAIL_SAFE);
/// let snap = KernelSnapshot::with_truth(out.counters, HwConfig::FAIL_SAFE, k);
///
/// let oracle = OraclePredictor::new(&sim);
/// let eval = EnergyEvaluator::new(&oracle, SimParams::noiseless());
/// let est = eval.estimate(&snap, HwConfig::FAIL_SAFE);
/// assert!(est.energy_j > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyEvaluator<P> {
    predictor: P,
    params: SimParams,
}

impl<P: PowerPerfPredictor> EnergyEvaluator<P> {
    /// Couples a predictor with the CPU/background power model parameters.
    pub fn new(predictor: P, params: SimParams) -> EnergyEvaluator<P> {
        EnergyEvaluator { predictor, params }
    }

    /// The wrapped predictor.
    pub fn predictor(&self) -> &P {
        &self.predictor
    }

    /// Constant non-CPU, non-GPU power charged per second of kernel time.
    pub fn background_w(&self) -> f64 {
        self.params.soc_other_w + self.params.dram_static_w
    }

    /// Predicts time, power, and energy of `snapshot`'s kernel at `cfg`.
    pub fn estimate(&self, snapshot: &KernelSnapshot, cfg: HwConfig) -> ConfigEstimate {
        let est = self.predictor.predict(snapshot, cfg);
        let cpu_w = gpm_sim::power::cpu_busywait_power(&self.params, cfg.cpu);
        let chip_power_w = est.gpu_power_w + cpu_w + self.background_w();
        ConfigEstimate {
            config: cfg,
            time_s: est.time_s,
            chip_power_w,
            energy_j: chip_power_w * est.time_s,
        }
    }

    /// Prices a whole candidate sweep in one predictor call, writing the
    /// estimates into `out` (cleared and refilled, index-aligned with
    /// `cfgs`).
    ///
    /// Each element is bit-identical to
    /// [`estimate`](EnergyEvaluator::estimate) on the same configuration:
    /// the batch goes through
    /// [`PowerPerfPredictor::predict_batch`], whose contract requires
    /// value-identity with the scalar path.
    pub fn estimate_batch(
        &self,
        snapshot: &KernelSnapshot,
        cfgs: &[HwConfig],
        out: &mut Vec<ConfigEstimate>,
    ) {
        PREDICT_SCRATCH.with(|scratch| {
            let raw = &mut *scratch.borrow_mut();
            self.predictor.predict_batch(snapshot, cfgs, raw);
            out.clear();
            out.extend(raw.iter().zip(cfgs).map(|(est, &cfg)| {
                let cpu_w = gpm_sim::power::cpu_busywait_power(&self.params, cfg.cpu);
                let chip_power_w = est.gpu_power_w + cpu_w + self.background_w();
                ConfigEstimate {
                    config: cfg,
                    time_s: est.time_s,
                    chip_power_w,
                    energy_j: chip_power_w * est.time_s,
                }
            }));
        });
    }
}

thread_local! {
    /// Reused raw-prediction buffer behind [`EnergyEvaluator::estimate_batch`].
    static PREDICT_SCRATCH: std::cell::RefCell<Vec<gpm_sim::PowerPerfEstimate>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// Reused (candidates, estimates) buffers behind [`exhaustive_best`].
    static EXHAUSTIVE_SCRATCH: std::cell::RefCell<(Vec<HwConfig>, Vec<ConfigEstimate>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
    /// The per-thread [`hill_climb`] memo, allocated at a thread's first
    /// climb and re-scoped by every climb after it.
    static EVAL_MEMO: std::cell::RefCell<EvalMemo> = std::cell::RefCell::new(EvalMemo::new());
}

/// Exhaustively searches `space` for the minimum-energy configuration whose
/// predicted time fits `time_cap_s`. Returns the winner (if any
/// configuration is feasible) and the number of predictor evaluations.
pub fn exhaustive_best<P: PowerPerfPredictor>(
    eval: &EnergyEvaluator<P>,
    snapshot: &KernelSnapshot,
    space: &ConfigSpace,
    time_cap_s: f64,
) -> (Option<ConfigEstimate>, u64) {
    let _span = gpm_telemetry::span("search.exhaustive");
    // The candidate set is fixed up front, so the whole space is priced in
    // one batched predictor call; the feasibility scan then walks the
    // estimates in the same order (and with the same comparisons) as the
    // seed per-candidate loop, so the winner is unchanged.
    EXHAUSTIVE_SCRATCH.with(|scratch| {
        let (cfgs, estimates) = &mut *scratch.borrow_mut();
        cfgs.clear();
        cfgs.extend(space.iter());
        eval.estimate_batch(snapshot, cfgs, estimates);
        let mut best: Option<ConfigEstimate> = None;
        for est in estimates.iter() {
            if est.is_plausible()
                && est.time_s <= time_cap_s
                && best.is_none_or(|b| est.energy_j < b.energy_j)
            {
                best = Some(*est);
            }
        }
        (best, cfgs.len() as u64)
    })
}

/// Dense per-candidate memo backing [`hill_climb`]: one slot per point
/// of the full [`HwConfig::DENSE_COUNT`] lattice, stamped with an epoch
/// so a new search invalidates every entry in O(1) without releasing the
/// allocation.
///
/// Semantically the memo is scoped to **one search invocation**: each
/// entry's epoch stamp keeps it from surviving into the next search, so
/// the one memo per thread ([`EVAL_MEMO`]) changes nothing but allocation
/// traffic.
struct EvalMemo {
    epoch: u32,
    slots: Vec<(u32, ConfigEstimate)>,
}

impl EvalMemo {
    /// A memo with every slot vacant.
    fn new() -> EvalMemo {
        let placeholder = ConfigEstimate {
            config: HwConfig::FAIL_SAFE,
            time_s: 0.0,
            chip_power_w: 0.0,
            energy_j: 0.0,
        };
        EvalMemo {
            epoch: 0,
            slots: vec![(0, placeholder); HwConfig::DENSE_COUNT],
        }
    }

    /// Starts a new search scope: every slot becomes vacant, the
    /// allocation stays.
    fn begin(&mut self) {
        if self.epoch == u32::MAX {
            self.epoch = 0;
            for slot in &mut self.slots {
                slot.0 = 0;
            }
        }
        self.epoch += 1;
    }
}

/// The paper's greedy hill-climbing optimizer (Section IV-A1a).
///
/// Starting from `start` (normally the fail-safe configuration), the
/// algorithm first estimates each knob's *energy sensitivity* — the
/// predicted energy change for a one-step move toward lower power — and
/// orders knobs by decreasing sensitivity. It then sweeps each knob in
/// turn, stepping down while predicted energy keeps decreasing and the
/// time cap stays satisfied, stopping at the first energy increase.
///
/// Returns the best feasible estimate found (`None` when even `start`
/// violates the cap) and the search's [`SearchStats`]: predictor
/// evaluations — bounded by roughly `Σ|knob|` per the paper's
/// 19×-cheaper-than-exhaustive claim — and where the walk spent them.
///
/// Each candidate is priced at most once per climb, through a per-thread
/// memo that every climb re-scopes on entry, so results and evaluation
/// counts never depend on earlier climbs — `SearchStats::evaluations`
/// counts exactly the cache misses of *this* invocation (the count the
/// overhead model charges). A climb allocates nothing past its thread's
/// first.
pub fn hill_climb<P: PowerPerfPredictor>(
    eval: &EnergyEvaluator<P>,
    snapshot: &KernelSnapshot,
    start: HwConfig,
    time_cap_s: f64,
) -> (Option<ConfigEstimate>, SearchStats) {
    // Deliberately span-free: callers climb once per *window position*,
    // several times per decision, and a guard here would dominate the
    // climb itself. The `search.hill_climb` phase span lives at the
    // per-decision call sites (window optimization, PPK selection).
    EVAL_MEMO.with(|memo| climb(eval, snapshot, start, time_cap_s, &mut memo.borrow_mut()))
}

fn climb<P: PowerPerfPredictor>(
    eval: &EnergyEvaluator<P>,
    snapshot: &KernelSnapshot,
    start: HwConfig,
    time_cap_s: f64,
    memo: &mut EvalMemo,
) -> (Option<ConfigEstimate>, SearchStats) {
    let mut evals = 0u64;
    let mut visits = KnobVisits::default();
    let mut pruned = 0u64;
    let mut anomalies = 0u64;
    memo.begin();
    let epoch = memo.epoch;
    let slots = &mut memo.slots;
    let mut estimate = |cfg: HwConfig| {
        let slot = &mut slots[cfg.dense_index()];
        if slot.0 != epoch {
            evals += 1;
            *slot = (epoch, eval.estimate(snapshot, cfg));
        }
        slot.1
    };

    let current = estimate(start);
    if !current.is_plausible() || current.time_s > time_cap_s {
        if !current.is_plausible() {
            anomalies += 1;
        }
        let stats = SearchStats {
            evaluations: evals,
            visits,
            pruned,
            anomalies,
        };
        return (None, stats);
    }
    let mut current = current;

    // Energy sensitivity per knob: the larger of the energy deltas of a
    // one-step move in either direction.
    let mut sensitivities: [(Knob, f64); 4] = Knob::ALL.map(|knob| {
        let delta = [KnobDirection::Down, KnobDirection::Up]
            .iter()
            .filter_map(|&dir| knob.step(current.config, dir))
            .map(|cfg| {
                visits.bump(knob);
                let est = estimate(cfg);
                if !est.is_plausible() {
                    // An anomalous probe makes the knob look maximally
                    // unattractive rather than steering the ordering.
                    anomalies += 1;
                    return f64::NEG_INFINITY;
                }
                current.energy_j - est.energy_j
            })
            .fold(f64::NEG_INFINITY, f64::max);
        (knob, delta)
    });
    sensitivities.sort_by(|a, b| b.1.total_cmp(&a.1));

    for (knob, _) in sensitivities {
        // Pick the direction whose first feasible step decreases energy,
        // then keep climbing in that direction while it pays off.
        for dir in [KnobDirection::Down, KnobDirection::Up] {
            let Some(first_cfg) = knob.step(current.config, dir) else {
                continue;
            };
            visits.bump(knob);
            let first = estimate(first_cfg);
            if !first.is_plausible() {
                anomalies += 1;
                pruned += 1;
                continue;
            }
            if !(first.energy_j < current.energy_j && first.time_s <= time_cap_s) {
                pruned += 1;
                continue;
            }
            current = first;
            while let Some(next_cfg) = knob.step(current.config, dir) {
                visits.bump(knob);
                let next = estimate(next_cfg);
                if !next.is_plausible() {
                    anomalies += 1;
                    pruned += 1;
                    break;
                }
                if next.energy_j < current.energy_j && next.time_s <= time_cap_s {
                    current = next;
                } else {
                    pruned += 1;
                    break;
                }
            }
            break;
        }
    }
    let stats = SearchStats {
        evaluations: evals,
        visits,
        pruned,
        anomalies,
    };
    (Some(current), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_sim::{ApuSimulator, KernelCharacteristics, OraclePredictor};

    fn setup(kernel: KernelCharacteristics) -> (EnergyEvaluator<OraclePredictor>, KernelSnapshot) {
        let sim = ApuSimulator::noiseless();
        let out = sim.evaluate(&kernel, HwConfig::FAIL_SAFE);
        let snap = KernelSnapshot::with_truth(out.counters, HwConfig::FAIL_SAFE, kernel);
        let eval = EnergyEvaluator::new(OraclePredictor::new(&sim), SimParams::noiseless());
        (eval, snap)
    }

    #[test]
    fn exhaustive_respects_time_cap() {
        let (eval, snap) = setup(KernelCharacteristics::compute_bound("cb", 20.0));
        let space = ConfigSpace::paper_campaign();
        let fastest = space
            .iter()
            .map(|c| eval.estimate(&snap, c).time_s)
            .fold(f64::INFINITY, f64::min);
        let (best, evals) = exhaustive_best(&eval, &snap, &space, fastest * 1.2);
        assert_eq!(evals, 336);
        let best = best.unwrap();
        assert!(best.time_s <= fastest * 1.2);
    }

    #[test]
    fn exhaustive_finds_global_minimum() {
        let (eval, snap) = setup(KernelCharacteristics::memory_bound("mb", 1.0));
        let space = ConfigSpace::paper_campaign();
        let (best, _) = exhaustive_best(&eval, &snap, &space, f64::INFINITY);
        let best = best.unwrap();
        for cfg in &space {
            assert!(eval.estimate(&snap, cfg).energy_j >= best.energy_j - 1e-12);
        }
    }

    #[test]
    fn exhaustive_infeasible_returns_none() {
        let (eval, snap) = setup(KernelCharacteristics::compute_bound("cb", 20.0));
        let space = ConfigSpace::paper_campaign();
        let (best, _) = exhaustive_best(&eval, &snap, &space, 1e-12);
        assert!(best.is_none());
    }

    #[test]
    fn hill_climb_improves_on_start_and_stays_feasible() {
        let (eval, snap) = setup(KernelCharacteristics::unscalable("us", 0.02));
        let start = HwConfig::FAIL_SAFE;
        let start_est = eval.estimate(&snap, start);
        let cap = start_est.time_s * 1.3;
        let (best, stats) = hill_climb(&eval, &snap, start, cap);
        let best = best.unwrap();
        assert!(best.energy_j <= start_est.energy_j);
        assert!(best.time_s <= cap);
        // The 19× claim: far fewer evaluations than the 336-point space.
        assert!(
            stats.evaluations <= 40,
            "hill climb used {} evaluations",
            stats.evaluations
        );
        // Every knob's sensitivity probe visits at least one candidate.
        assert!(stats.visits.cpu_pstate > 0);
        assert!(stats.visits.nb_state > 0);
        assert!(stats.visits.gpu_dpm > 0);
        assert!(stats.visits.cu_count > 0);
        // Visits may revisit cached candidates, so they bound evaluations.
        assert!(stats.visits.total() + 1 >= stats.evaluations);
        // A repeat climb on the used memo reports the same search.
        assert_eq!(hill_climb(&eval, &snap, start, cap), (Some(best), stats));
    }

    #[test]
    fn hill_climb_with_infinite_cap_approaches_exhaustive() {
        // For an unscalable kernel the energy landscape is monotone along
        // each knob, so greedy descent should land at or near the global
        // optimum.
        let (eval, snap) = setup(KernelCharacteristics::unscalable("us", 0.02));
        let space = ConfigSpace::full();
        let (exh, _) = exhaustive_best(&eval, &snap, &space, f64::INFINITY);
        let (hc, _) = hill_climb(&eval, &snap, HwConfig::FAIL_SAFE, f64::INFINITY);
        let ratio = hc.unwrap().energy_j / exh.unwrap().energy_j;
        assert!(ratio < 1.25, "hill climb {ratio}× worse than exhaustive");
    }

    #[test]
    fn hill_climb_infeasible_start_returns_none() {
        let (eval, snap) = setup(KernelCharacteristics::compute_bound("cb", 20.0));
        let (best, stats) = hill_climb(&eval, &snap, HwConfig::FAIL_SAFE, 1e-12);
        assert!(best.is_none());
        assert_eq!(stats.evaluations, 1);
        assert_eq!(stats.visits.total(), 0);
        assert_eq!(stats.pruned, 0);
    }

    #[test]
    fn estimate_batch_matches_scalar_estimates() {
        let (eval, snap) = setup(KernelCharacteristics::memory_bound("mb", 1.0));
        let cfgs: Vec<HwConfig> = ConfigSpace::paper_campaign().iter().collect();
        let mut batch = Vec::new();
        eval.estimate_batch(&snap, &cfgs, &mut batch);
        assert_eq!(batch.len(), cfgs.len());
        for (est, &cfg) in batch.iter().zip(&cfgs) {
            assert_eq!(*est, eval.estimate(&snap, cfg), "{cfg}");
        }
    }

    #[test]
    fn memo_reuse_is_invisible_to_results_and_counts() {
        // The thread's one memo, reused across climbs with different
        // snapshots, caps, and starts, must reproduce the results and
        // evaluation counts of a climb on a fresh thread's fresh memo
        // exactly — stale entries never leak across searches.
        for kernel in [
            KernelCharacteristics::unscalable("us", 0.02),
            KernelCharacteristics::memory_bound("mb", 1.0),
            KernelCharacteristics::compute_bound("cb", 20.0),
        ] {
            let (eval, snap) = setup(kernel);
            for cap_scale in [1.1, 1.5, f64::INFINITY] {
                let cap = eval.estimate(&snap, HwConfig::FAIL_SAFE).time_s * cap_scale;
                let climb = || hill_climb(&eval, &snap, HwConfig::FAIL_SAFE, cap);
                let fresh = std::thread::scope(|s| s.spawn(climb).join().unwrap());
                assert_eq!(climb(), fresh);
            }
        }
    }

    #[test]
    fn memo_epoch_overflow_resets_cleanly() {
        let (eval, snap) = setup(KernelCharacteristics::unscalable("us", 0.02));
        let cap = f64::INFINITY;
        let first = hill_climb(&eval, &snap, HwConfig::FAIL_SAFE, cap);
        EVAL_MEMO.with(|memo| memo.borrow_mut().epoch = u32::MAX - 1);
        let a = hill_climb(&eval, &snap, HwConfig::FAIL_SAFE, cap);
        let b = hill_climb(&eval, &snap, HwConfig::FAIL_SAFE, cap);
        let c = hill_climb(&eval, &snap, HwConfig::FAIL_SAFE, cap);
        assert_eq!(EVAL_MEMO.with(|memo| memo.borrow().epoch), 2);
        assert_eq!(a, first);
        assert_eq!(b, first);
        assert_eq!(c, first);
    }

    /// Oracle that returns a corrupted estimate at one configuration.
    #[derive(Debug)]
    struct PoisonedPredictor {
        inner: OraclePredictor,
        poison: HwConfig,
    }

    impl PowerPerfPredictor for PoisonedPredictor {
        fn predict(&self, snapshot: &KernelSnapshot, cfg: HwConfig) -> gpm_sim::PowerPerfEstimate {
            if cfg == self.poison {
                return gpm_sim::PowerPerfEstimate {
                    time_s: f64::NAN,
                    gpu_power_w: 1e9,
                };
            }
            self.inner.predict(snapshot, cfg)
        }
    }

    fn poisoned_setup(poison: HwConfig) -> (EnergyEvaluator<PoisonedPredictor>, KernelSnapshot) {
        let sim = ApuSimulator::noiseless();
        let kernel = KernelCharacteristics::unscalable("us", 0.02);
        let out = sim.evaluate(&kernel, HwConfig::FAIL_SAFE);
        let snap = KernelSnapshot::with_truth(out.counters, HwConfig::FAIL_SAFE, kernel);
        let predictor = PoisonedPredictor {
            inner: OraclePredictor::new(&sim),
            poison,
        };
        (
            EnergyEvaluator::new(predictor, SimParams::noiseless()),
            snap,
        )
    }

    #[test]
    fn anomalous_start_estimate_fails_safe() {
        let (eval, snap) = poisoned_setup(HwConfig::FAIL_SAFE);
        let (best, stats) = hill_climb(&eval, &snap, HwConfig::FAIL_SAFE, f64::INFINITY);
        assert!(best.is_none());
        assert_eq!(stats.anomalies, 1);
    }

    #[test]
    fn anomalous_candidates_are_rejected_mid_climb() {
        // Poison a non-start configuration: the climb must complete with a
        // plausible result and count the anomaly instead of absorbing NaN.
        let mut poison = HwConfig::FAIL_SAFE;
        poison.nb = gpm_hw::NbState::Nb3;
        let (eval, snap) = poisoned_setup(poison);
        let (best, stats) = hill_climb(&eval, &snap, HwConfig::FAIL_SAFE, f64::INFINITY);
        let best = best.expect("climb survives a poisoned candidate");
        assert!(best.is_plausible());
        assert_ne!(best.config, poison);
        assert!(stats.anomalies >= 1);
    }

    #[test]
    fn exhaustive_skips_anomalous_estimates() {
        let poison = HwConfig::MAX_PERF;
        let (eval, snap) = poisoned_setup(poison);
        let space = ConfigSpace::paper_campaign();
        let (best, _) = exhaustive_best(&eval, &snap, &space, f64::INFINITY);
        let best = best.expect("335 clean candidates remain");
        assert!(best.is_plausible());
        assert_ne!(best.config, poison);
    }

    #[test]
    fn plausibility_rejects_corrupt_estimates() {
        let good = ConfigEstimate {
            config: HwConfig::FAIL_SAFE,
            time_s: 0.01,
            chip_power_w: 40.0,
            energy_j: 0.4,
        };
        assert!(good.is_plausible());
        for bad in [
            ConfigEstimate {
                time_s: f64::NAN,
                ..good
            },
            ConfigEstimate {
                time_s: -1.0,
                ..good
            },
            ConfigEstimate {
                time_s: PLAUSIBLE_MAX_TIME_S * 10.0,
                ..good
            },
            ConfigEstimate {
                chip_power_w: f64::INFINITY,
                ..good
            },
            ConfigEstimate {
                chip_power_w: PLAUSIBLE_MAX_POWER_W * 10.0,
                ..good
            },
            ConfigEstimate {
                energy_j: f64::NAN,
                ..good
            },
        ] {
            assert!(!bad.is_plausible(), "{bad:?}");
        }
    }

    #[test]
    fn estimate_includes_cpu_and_background_power() {
        let (eval, snap) = setup(KernelCharacteristics::compute_bound("cb", 20.0));
        let est = eval.estimate(&snap, HwConfig::FAIL_SAFE);
        let bare = eval.predictor().predict(&snap, HwConfig::FAIL_SAFE);
        assert!(est.chip_power_w > bare.gpu_power_w + eval.background_w());
        assert!((est.energy_j - est.chip_power_w * est.time_s).abs() < 1e-12);
    }

    #[test]
    fn lower_cpu_state_lowers_estimated_energy_for_gpu_kernel() {
        let (eval, snap) = setup(KernelCharacteristics::compute_bound("cb", 20.0));
        let hi = eval.estimate(&snap, HwConfig::MAX_PERF);
        let mut cfg = HwConfig::MAX_PERF;
        cfg.cpu = gpm_hw::CpuPState::P7;
        let lo = eval.estimate(&snap, cfg);
        assert!(lo.energy_j < hi.energy_j);
        // CPU state only stretches the host-side launch overhead, which is
        // tiny for a GPU-dominated kernel.
        assert!(
            (lo.time_s / hi.time_s - 1.0).abs() < 0.01,
            "CPU state moved kernel time"
        );
    }
}
