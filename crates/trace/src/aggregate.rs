//! In-flight aggregation: counters and fixed-bucket histograms reduced to
//! a serializable [`TraceSummary`].

use crate::event::{KnobVisits, TraceEvent};
use crate::sink::TraceSink;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// A fixed-bucket histogram: `bounds` split the real line into
/// `bounds.len() + 1` buckets; `counts[i]` holds samples in
/// `[bounds[i-1], bounds[i])` (unbounded at the ends).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Strictly increasing bucket boundaries.
    pub bounds: Vec<f64>,
    /// Per-bucket sample counts, `bounds.len() + 1` entries.
    pub counts: Vec<u64>,
    /// Sum of recorded samples.
    pub sum: f64,
    /// Number of recorded samples.
    pub n: u64,
    /// Non-finite samples (NaN, ±∞) dropped instead of recorded. Absent
    /// in artifacts written before this field existed, hence defaulted.
    #[serde(default)]
    pub rejected: u64,
}

impl Histogram {
    /// An empty histogram over the given boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly increasing.
    pub fn new(bounds: Vec<f64>) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let counts = vec![0; bounds.len() + 1];
        Histogram {
            bounds,
            counts,
            sum: 0.0,
            n: 0,
            rejected: 0,
        }
    }

    /// Records one sample. Non-finite values (NaN, ±∞) would poison
    /// `sum` or land in a boundary bucket by accident of comparison
    /// order, so they are silently dropped and tallied in
    /// [`Histogram::rejected`] instead. Finite values beyond the last
    /// bound saturate into the open-ended top bucket; values below the
    /// first bound land in the open-ended bottom bucket.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            self.rejected += 1;
            return;
        }
        let idx = self.bounds.partition_point(|&b| b <= value);
        self.counts[idx] += 1;
        self.sum += value;
        self.n += 1;
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Folds another histogram over the same boundaries into this one.
    ///
    /// # Panics
    ///
    /// Panics if the boundary vectors differ — merging histograms with
    /// different bucketing has no meaningful result.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket boundaries"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum += other.sum;
        self.n += other.n;
        self.rejected += other.rejected;
    }
}

/// Everything the [`AggregateSink`] distills from an event stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// `RunStart` events seen.
    pub runs: u64,
    /// `BaselineResolved` events seen: Turbo Core baselines resolved,
    /// whether simulated or served from the evaluation context's shared
    /// cache. Which of the two happened depends on what ran before on
    /// the same context (and, on several threads, on scheduling), so the
    /// split lives only in `EvalContext::baseline_stats`.
    pub baseline_resolutions: u64,
    /// `Dispatch` events seen.
    pub dispatches: u64,
    /// All `Decision` events seen.
    pub decisions: u64,
    /// `Decision` events carrying a horizon — these correspond 1:1 with
    /// `MpcStats::record_decision`, so the fields below reproduce the
    /// governor's own statistics from the trace alone.
    pub horizon_decisions: u64,
    /// Mean horizon over horizon-carrying decisions (Figure 15's input).
    pub mean_horizon: f64,
    /// Total optimizer overhead across horizon-carrying decisions, seconds.
    pub horizon_overhead_s: f64,
    /// Mean optimizer overhead per horizon-carrying decision, seconds.
    pub overhead_per_decision_s: f64,
    /// Predictor evaluations across horizon-carrying decisions.
    pub horizon_evaluations: u64,
    /// Predictor evaluations across all decisions.
    pub total_evaluations: u64,
    /// `Search` events seen.
    pub searches: u64,
    /// Candidate configurations visited per knob across all searches.
    pub knob_visits: KnobVisits,
    /// Candidates evaluated and rejected across all searches.
    pub pruned_candidates: u64,
    /// `FailSafe` events seen.
    pub fail_safe_events: u64,
    /// `PatternMiss` events seen.
    pub pattern_misses: u64,
    /// `FaultInjected` events seen.
    pub fault_injections: u64,
    /// `Recovered` events seen.
    pub recoveries: u64,
    /// `Outcome` events seen.
    pub outcomes: u64,
    /// Mean |signed time error| over outcomes carrying predictions, s.
    pub mean_abs_time_error_s: f64,
    /// Outcomes that carried a time prediction — the weight behind
    /// `mean_abs_time_error_s` (needed to merge summaries exactly).
    pub time_error_samples: u64,
    /// Mean signed energy error over outcomes carrying predictions, J.
    pub mean_signed_energy_error_j: f64,
    /// Outcomes that carried an energy prediction — the weight behind
    /// `mean_signed_energy_error_j`.
    pub energy_error_samples: u64,
    /// Smallest observed headroom slack, seconds (0 when none seen).
    pub min_headroom_s: f64,
    /// Mean observed headroom slack, seconds.
    pub mean_headroom_s: f64,
    /// `Headroom` events seen — the weight behind `mean_headroom_s`.
    pub headroom_samples: u64,
    /// Decision latency (`Decision.overhead_s`) distribution, seconds.
    pub decision_latency: Histogram,
    /// Relative signed energy prediction error distribution
    /// (`(predicted − observed) / observed`).
    pub energy_error_rel: Histogram,
}

/// Decision-latency bucket boundaries, seconds (1 µs … 10 ms decades).
fn latency_bounds() -> Vec<f64> {
    vec![1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
}

/// Relative prediction-error bucket boundaries (symmetric around 0).
fn error_bounds() -> Vec<f64> {
    vec![
        -0.5, -0.2, -0.1, -0.05, -0.02, 0.0, 0.02, 0.05, 0.1, 0.2, 0.5,
    ]
}

impl Default for TraceSummary {
    fn default() -> TraceSummary {
        TraceSummary {
            runs: 0,
            baseline_resolutions: 0,
            dispatches: 0,
            decisions: 0,
            horizon_decisions: 0,
            mean_horizon: 0.0,
            horizon_overhead_s: 0.0,
            overhead_per_decision_s: 0.0,
            horizon_evaluations: 0,
            total_evaluations: 0,
            searches: 0,
            knob_visits: KnobVisits::default(),
            pruned_candidates: 0,
            fail_safe_events: 0,
            pattern_misses: 0,
            fault_injections: 0,
            recoveries: 0,
            outcomes: 0,
            mean_abs_time_error_s: 0.0,
            time_error_samples: 0,
            mean_signed_energy_error_j: 0.0,
            energy_error_samples: 0,
            min_headroom_s: 0.0,
            mean_headroom_s: 0.0,
            headroom_samples: 0,
            decision_latency: Histogram::new(latency_bounds()),
            energy_error_rel: Histogram::new(error_bounds()),
        }
    }
}

impl TraceSummary {
    /// Folds `other` into this summary as if both event streams had been
    /// recorded by one sink: counters and histograms add, means combine
    /// weighted by their sample counts, and the minimum headroom is the
    /// smaller of the two observed minima.
    ///
    /// This is the fleet-rollup primitive: per-shard summaries merged in
    /// shard order produce one fleet-level summary that is independent of
    /// which worker thread ran which shard.
    pub fn merge(&mut self, other: &TraceSummary) {
        fn weighted(a: f64, an: u64, b: f64, bn: u64) -> f64 {
            let n = an + bn;
            if n == 0 {
                0.0
            } else {
                (a * an as f64 + b * bn as f64) / n as f64
            }
        }
        self.mean_horizon = weighted(
            self.mean_horizon,
            self.horizon_decisions,
            other.mean_horizon,
            other.horizon_decisions,
        );
        self.mean_abs_time_error_s = weighted(
            self.mean_abs_time_error_s,
            self.time_error_samples,
            other.mean_abs_time_error_s,
            other.time_error_samples,
        );
        self.mean_signed_energy_error_j = weighted(
            self.mean_signed_energy_error_j,
            self.energy_error_samples,
            other.mean_signed_energy_error_j,
            other.energy_error_samples,
        );
        self.mean_headroom_s = weighted(
            self.mean_headroom_s,
            self.headroom_samples,
            other.mean_headroom_s,
            other.headroom_samples,
        );
        self.min_headroom_s = if self.headroom_samples == 0 {
            other.min_headroom_s
        } else if other.headroom_samples == 0 {
            self.min_headroom_s
        } else {
            self.min_headroom_s.min(other.min_headroom_s)
        };

        self.runs += other.runs;
        self.baseline_resolutions += other.baseline_resolutions;
        self.dispatches += other.dispatches;
        self.decisions += other.decisions;
        self.horizon_decisions += other.horizon_decisions;
        self.horizon_overhead_s += other.horizon_overhead_s;
        self.horizon_evaluations += other.horizon_evaluations;
        self.total_evaluations += other.total_evaluations;
        self.searches += other.searches;
        self.knob_visits.merge(&other.knob_visits);
        self.pruned_candidates += other.pruned_candidates;
        self.fail_safe_events += other.fail_safe_events;
        self.pattern_misses += other.pattern_misses;
        self.fault_injections += other.fault_injections;
        self.recoveries += other.recoveries;
        self.outcomes += other.outcomes;
        self.time_error_samples += other.time_error_samples;
        self.energy_error_samples += other.energy_error_samples;
        self.headroom_samples += other.headroom_samples;
        self.overhead_per_decision_s = if self.horizon_decisions > 0 {
            self.horizon_overhead_s / self.horizon_decisions as f64
        } else {
            0.0
        };
        self.decision_latency.merge(&other.decision_latency);
        self.energy_error_rel.merge(&other.energy_error_rel);
    }
}

#[derive(Debug, Default)]
struct Accum {
    summary: TraceSummary,
    horizon_sum: u64,
    abs_time_err_sum: f64,
    time_err_n: u64,
    energy_err_sum: f64,
    energy_err_n: u64,
    headroom_sum: f64,
    headroom_n: u64,
    headroom_min: Option<f64>,
}

/// Reduces the event stream to counters and histograms on the fly; the
/// result is available at any time via [`AggregateSink::summary`].
#[derive(Debug, Default)]
pub struct AggregateSink {
    state: Mutex<Accum>,
}

impl AggregateSink {
    /// A fresh, empty aggregator.
    pub fn new() -> AggregateSink {
        AggregateSink::default()
    }

    /// The summary of everything recorded so far.
    pub fn summary(&self) -> TraceSummary {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let mut s = st.summary.clone();
        if s.horizon_decisions > 0 {
            s.mean_horizon = st.horizon_sum as f64 / s.horizon_decisions as f64;
            s.overhead_per_decision_s = s.horizon_overhead_s / s.horizon_decisions as f64;
        }
        if st.time_err_n > 0 {
            s.mean_abs_time_error_s = st.abs_time_err_sum / st.time_err_n as f64;
        }
        if st.energy_err_n > 0 {
            s.mean_signed_energy_error_j = st.energy_err_sum / st.energy_err_n as f64;
        }
        if st.headroom_n > 0 {
            s.mean_headroom_s = st.headroom_sum / st.headroom_n as f64;
            s.min_headroom_s = st.headroom_min.unwrap_or(0.0);
        }
        s.time_error_samples = st.time_err_n;
        s.energy_error_samples = st.energy_err_n;
        s.headroom_samples = st.headroom_n;
        s
    }
}

impl TraceSink for AggregateSink {
    fn record(&self, event: &TraceEvent) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        match event {
            TraceEvent::RunStart { .. } => st.summary.runs += 1,
            TraceEvent::BaselineResolved { .. } => st.summary.baseline_resolutions += 1,
            TraceEvent::Dispatch { .. } => st.summary.dispatches += 1,
            TraceEvent::Search { visits, pruned, .. } => {
                st.summary.searches += 1;
                st.summary.knob_visits.merge(visits);
                st.summary.pruned_candidates += pruned;
            }
            TraceEvent::Decision {
                horizon,
                evaluations,
                overhead_s,
                ..
            } => {
                st.summary.decisions += 1;
                st.summary.total_evaluations += evaluations;
                st.summary.decision_latency.record(*overhead_s);
                if let Some(h) = horizon {
                    st.summary.horizon_decisions += 1;
                    // A non-finite overhead would poison the running
                    // total (and every mean derived from it) for the
                    // rest of the stream; drop it like the latency
                    // histogram does.
                    if overhead_s.is_finite() {
                        st.summary.horizon_overhead_s += overhead_s;
                    }
                    st.summary.horizon_evaluations += evaluations;
                    st.horizon_sum += *h as u64;
                }
            }
            TraceEvent::FailSafe { .. } => st.summary.fail_safe_events += 1,
            TraceEvent::PatternMiss { .. } => st.summary.pattern_misses += 1,
            TraceEvent::FaultInjected { .. } => st.summary.fault_injections += 1,
            TraceEvent::Recovered { .. } => st.summary.recoveries += 1,
            TraceEvent::Outcome {
                energy_j,
                time_error_s,
                energy_error_j,
                ..
            } => {
                st.summary.outcomes += 1;
                if let Some(te) = time_error_s.filter(|te| te.is_finite()) {
                    st.abs_time_err_sum += te.abs();
                    st.time_err_n += 1;
                }
                if let Some(ee) = energy_error_j.filter(|ee| ee.is_finite()) {
                    st.energy_err_sum += ee;
                    st.energy_err_n += 1;
                    if *energy_j > 0.0 {
                        st.summary.energy_error_rel.record(ee / energy_j);
                    }
                }
            }
            TraceEvent::Headroom { slack_s, .. } => {
                if slack_s.is_finite() {
                    st.headroom_sum += slack_s;
                    st.headroom_n += 1;
                    let min = st.headroom_min.get_or_insert(*slack_s);
                    if slack_s < min {
                        *min = *slack_s;
                    }
                }
            }
            TraceEvent::RunEnd { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_hw::HwConfig;

    #[test]
    fn histogram_buckets_cover_the_line() {
        let mut h = Histogram::new(vec![0.0, 1.0, 2.0]);
        for v in [-5.0, 0.0, 0.5, 1.5, 2.0, 99.0] {
            h.record(v);
        }
        h.record(f64::NAN); // dropped
        assert_eq!(h.counts, vec![1, 2, 1, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.rejected, 1);
        assert!((h.mean() - (-5.0f64 + 0.0 + 0.5 + 1.5 + 2.0 + 99.0) / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_rejects_all_non_finite_samples() {
        let mut h = Histogram::new(vec![0.0, 1.0]);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.counts, vec![0, 0, 0]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.rejected, 3);
        assert_eq!(h.sum, 0.0);
        assert_eq!(h.mean(), 0.0);
        // Rejection counts survive a merge.
        let mut other = Histogram::new(vec![0.0, 1.0]);
        other.record(f64::NAN);
        other.record(0.5);
        h.merge(&other);
        assert_eq!(h.rejected, 4);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn histogram_saturates_finite_values_beyond_the_last_bound() {
        let mut h = Histogram::new(vec![1e-6, 1e-3]);
        // Far beyond the last bound — including f64::MAX — lands in the
        // open-ended top bucket, not in `rejected`.
        for v in [2e-3, 1e6, f64::MAX] {
            h.record(v);
        }
        assert_eq!(h.counts, vec![0, 0, 3]);
        assert_eq!(h.count(), 3);
        assert_eq!(h.rejected, 0);
        // And far below the first bound lands in the bottom bucket.
        h.record(f64::MIN);
        assert_eq!(h.counts, vec![1, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(vec![1.0, 1.0]);
    }

    #[test]
    fn summary_reproduces_decision_statistics() {
        let agg = AggregateSink::new();
        // Two horizon decisions (h = 4, 2) and one profiling decision.
        for (h, evals, oh) in [
            (Some(4usize), 80u64, 1e-4),
            (Some(2), 40, 5e-5),
            (None, 18, 2e-5),
        ] {
            agg.record(&TraceEvent::Decision {
                run_index: 1,
                position: 0,
                config: HwConfig::FAIL_SAFE,
                horizon: h,
                evaluations: evals,
                overhead_s: oh,
                predicted_time_s: None,
                predicted_power_w: None,
                predicted_energy_j: None,
            });
        }
        let s = agg.summary();
        assert_eq!(s.decisions, 3);
        assert_eq!(s.horizon_decisions, 2);
        assert_eq!(s.mean_horizon, 3.0);
        assert_eq!(s.horizon_evaluations, 120);
        assert_eq!(s.total_evaluations, 138);
        assert!((s.horizon_overhead_s - 1.5e-4).abs() < 1e-15);
        assert!((s.overhead_per_decision_s - 7.5e-5).abs() < 1e-15);
        assert_eq!(s.decision_latency.count(), 3);
    }

    #[test]
    fn summary_tracks_errors_and_headroom() {
        let agg = AggregateSink::new();
        agg.record(&TraceEvent::Outcome {
            run_index: 1,
            position: 0,
            config: HwConfig::FAIL_SAFE,
            time_s: 0.1,
            energy_j: 2.0,
            gi: 1.0,
            time_error_s: Some(-0.01),
            power_error_w: Some(0.5),
            energy_error_j: Some(0.2),
        });
        agg.record(&TraceEvent::Outcome {
            run_index: 1,
            position: 1,
            config: HwConfig::FAIL_SAFE,
            time_s: 0.1,
            energy_j: 2.0,
            gi: 1.0,
            time_error_s: None,
            power_error_w: None,
            energy_error_j: None,
        });
        agg.record(&TraceEvent::Headroom {
            run_index: 1,
            position: 0,
            slack_s: 0.3,
        });
        agg.record(&TraceEvent::Headroom {
            run_index: 1,
            position: 1,
            slack_s: -0.1,
        });
        let s = agg.summary();
        assert_eq!(s.outcomes, 2);
        assert!((s.mean_abs_time_error_s - 0.01).abs() < 1e-15);
        assert!((s.mean_signed_energy_error_j - 0.2).abs() < 1e-15);
        // 0.2 / 2.0 = 10% relative error landed in a positive bucket.
        assert_eq!(s.energy_error_rel.count(), 1);
        assert_eq!(s.min_headroom_s, -0.1);
        assert!((s.mean_headroom_s - 0.1).abs() < 1e-15);
    }

    #[test]
    fn summary_counts_baseline_resolutions_whatever_the_cache_state() {
        let agg = AggregateSink::new();
        for cached in [false, true, true, true] {
            agg.record(&TraceEvent::BaselineResolved {
                run_index: 0,
                workload: "w".into(),
                cached,
            });
        }
        assert_eq!(agg.summary().baseline_resolutions, 4);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let agg = AggregateSink::new();
        agg.record(&TraceEvent::Headroom {
            run_index: 0,
            position: 0,
            slack_s: 0.25,
        });
        agg.record(&TraceEvent::Dispatch {
            run_index: 0,
            position: 0,
            kernel: "k".into(),
        });
        let s = agg.summary();
        let mut merged = s.clone();
        merged.merge(&TraceSummary::default());
        assert_eq!(merged, s);
        let mut from_empty = TraceSummary::default();
        from_empty.merge(&s);
        assert_eq!(from_empty, s);
    }

    #[test]
    fn merge_combines_counters_means_and_minima() {
        let make = |slacks: &[f64], errs: &[f64]| {
            let agg = AggregateSink::new();
            for (i, &slack_s) in slacks.iter().enumerate() {
                agg.record(&TraceEvent::Headroom {
                    run_index: 0,
                    position: i,
                    slack_s,
                });
            }
            for (i, &te) in errs.iter().enumerate() {
                agg.record(&TraceEvent::Outcome {
                    run_index: 0,
                    position: i,
                    config: HwConfig::FAIL_SAFE,
                    time_s: 0.1,
                    energy_j: 2.0,
                    gi: 1.0,
                    time_error_s: Some(te),
                    power_error_w: None,
                    energy_error_j: Some(te),
                });
            }
            agg.summary()
        };
        let a = make(&[0.2, 0.4], &[0.1]);
        let b = make(&[-0.3], &[0.3, 0.5]);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.outcomes, 3);
        assert_eq!(merged.headroom_samples, 3);
        assert_eq!(merged.time_error_samples, 3);
        assert_eq!(merged.min_headroom_s, -0.3);
        assert!((merged.mean_headroom_s - (0.2 + 0.4 - 0.3) / 3.0).abs() < 1e-12);
        assert!((merged.mean_abs_time_error_s - (0.1 + 0.3 + 0.5) / 3.0).abs() < 1e-12);
        // Merging in the opposite order reaches the same aggregate.
        let mut other_way = b.clone();
        other_way.merge(&a);
        assert_eq!(other_way.outcomes, merged.outcomes);
        assert_eq!(other_way.min_headroom_s, merged.min_headroom_s);
        assert!((other_way.mean_headroom_s - merged.mean_headroom_s).abs() < 1e-12);
        // A merged summary equals one sink that saw both streams.
        let combined = make(&[0.2, 0.4, -0.3], &[0.1, 0.3, 0.5]);
        assert_eq!(
            merged.energy_error_rel.count(),
            combined.energy_error_rel.count()
        );
        assert!((merged.mean_headroom_s - combined.mean_headroom_s).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different bucket boundaries")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(vec![0.0, 1.0]);
        let b = Histogram::new(vec![0.0, 2.0]);
        a.merge(&b);
    }

    #[test]
    fn serialized_summary_roundtrips() {
        let agg = AggregateSink::new();
        agg.record(&TraceEvent::RunStart {
            workload: "w".into(),
            governor: "g".into(),
            run_index: 0,
            total_kernels: 3,
        });
        let s = agg.summary();
        let json = serde_json::to_string(&s).unwrap();
        let back: TraceSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
