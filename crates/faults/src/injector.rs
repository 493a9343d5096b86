//! The injection trait threaded through the dispatch loop and governors,
//! and its two implementations: [`NoFaults`] (the identity) and
//! [`FaultPlan`] (the deterministic schedule).

use crate::plan::FaultPlan;
use crate::rng::{fold, mix64, signed_unit_f64, unit_f64};
use gpm_hw::HwConfig;
use gpm_sim::predictor::KernelSnapshot;
use gpm_sim::{KernelOutcome, NUM_COUNTERS};
use gpm_trace::FaultChannelKind;
use std::fmt::Debug;
use std::sync::Arc;

/// Channel tags keeping the per-channel hash streams independent.
pub(crate) const TAG_COUNTER: u64 = 0xC0;
pub(crate) const TAG_SPIKE: u64 = 0x5B;
pub(crate) const TAG_STALE: u64 = 0x57;
pub(crate) const TAG_TRANSITION: u64 = 0x7A;
pub(crate) const TAG_TDP: u64 = 0xDB;

/// Knob-transition retry bound: after this many failed attempts the
/// dispatch gives up and runs the kernel at `HwConfig::FAIL_SAFE`.
pub const MAX_TRANSITION_ATTEMPTS: u32 = 3;

/// Latency charged per failed transition attempt at nominal intensity,
/// seconds — the same order as a real DVFS transition stall.
pub const TRANSITION_RETRY_PENALTY_S: f64 = 250e-6;

/// Identifies one injection site: which invocation and kernel position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultKey {
    /// 0-based application invocation index.
    pub run_index: usize,
    /// 0-based kernel position within the run.
    pub position: usize,
}

impl FaultKey {
    fn words(&self) -> [u64; 2] {
        [self.run_index as u64, self.position as u64]
    }
}

/// What an injector did at a site, for trace emission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectedFault {
    /// Which channel fired.
    pub channel: FaultChannelKind,
    /// Channel-specific severity (see the [`FaultPlan`] channel docs).
    pub magnitude: f64,
}

/// Resolution of a knob-transition request routed through an injector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionOutcome {
    /// Configuration actually reached.
    pub config: HwConfig,
    /// Latency penalty accumulated over failed attempts, seconds.
    pub penalty_s: f64,
    /// Attempts that failed before the transition resolved.
    pub failed_attempts: u32,
    /// Whether every retry failed and the dispatch fell back to
    /// `HwConfig::FAIL_SAFE`.
    pub fell_back: bool,
}

/// Deterministic fault injection, as seen by the dispatch loop and the
/// governors. All methods are pure functions of `(self, arguments)`; the
/// default implementation injects nothing.
pub trait FaultInjector: Send + Sync + Debug {
    /// Whether any channel can fire. Producers skip injection calls (and
    /// the cloning they imply) entirely when this is `false`, keeping
    /// clean runs byte-identical to pre-fault-layer behaviour.
    fn enabled(&self) -> bool {
        false
    }

    /// Corrupts the observation handed to the governor (counters,
    /// measured time, instruction count). The physical outcome used for
    /// energy accounting is unaffected.
    fn corrupt_observation(
        &self,
        _key: FaultKey,
        _outcome: &mut KernelOutcome,
    ) -> Option<InjectedFault> {
        None
    }

    /// A transient TDP-throttle event: stretches the physical outcome's
    /// time while reducing power proportionally (energy-neutral).
    fn throttle(&self, _key: FaultKey, _outcome: &mut KernelOutcome) -> Option<InjectedFault> {
        None
    }

    /// Routes a knob-transition request from `from` to `requested`.
    /// `None` means the transition succeeded immediately.
    fn transition(
        &self,
        _key: FaultKey,
        _from: HwConfig,
        _requested: HwConfig,
    ) -> Option<TransitionOutcome> {
        None
    }

    /// Corrupts a pattern-store snapshot as the governor reads it.
    fn corrupt_snapshot(
        &self,
        _key: FaultKey,
        _snapshot: &mut KernelSnapshot,
    ) -> Option<InjectedFault> {
        None
    }
}

/// The identity injector: nothing ever fires.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {}

/// A shared identity injector, the default for governors.
pub fn no_faults() -> Arc<dyn FaultInjector> {
    Arc::new(NoFaults)
}

impl FaultPlan {
    /// Draws the channel's firing decision at a site; `Some(substream)`
    /// when it fires, where `substream` seeds the magnitude draws.
    fn fire(&self, tag: u64, rate: f64, words: &[u64]) -> Option<u64> {
        if rate <= 0.0 {
            return None;
        }
        // `hash_words(seed, &[tag, words..])`, folded in place.
        let h = words
            .iter()
            .fold(fold(mix64(self.seed), tag), |h, &w| fold(h, w));
        (unit_f64(h) < rate).then(|| mix64(h))
    }
}

impl FaultInjector for FaultPlan {
    fn enabled(&self) -> bool {
        !self.is_zero()
    }

    fn corrupt_observation(
        &self,
        key: FaultKey,
        outcome: &mut KernelOutcome,
    ) -> Option<InjectedFault> {
        let ch = self.counter_noise;
        let sub = self.fire(TAG_COUNTER, ch.rate, &key.words())?;
        let mut magnitude = 0.0f64;
        for (i, v) in outcome.counters.values_mut().iter_mut().enumerate() {
            let r = signed_unit_f64(mix64(sub ^ (i as u64 + 1)));
            let f = 1.0 + ch.intensity * r;
            *v *= f;
            magnitude = magnitude.max((f - 1.0).abs());
        }
        // Timing jitter on the measured duration and instruction count is
        // half the counter amplitude and bounded away from zero, so
        // downstream throughput arithmetic stays finite.
        let tj = 0.5 * ch.intensity * signed_unit_f64(mix64(sub ^ 0x71));
        outcome.time_s *= (1.0 + tj).max(0.05);
        let gj = 0.5 * ch.intensity * signed_unit_f64(mix64(sub ^ 0x72));
        outcome.ginstructions *= (1.0 + gj).max(0.0);
        // A slice of firings is wild: one counter turns non-finite,
        // exercising the governors' sanitization path.
        let wild = mix64(sub ^ 0x77);
        if unit_f64(wild) < 0.2 {
            let idx = (wild % NUM_COUNTERS as u64) as usize;
            outcome.counters.values_mut()[idx] = f64::NAN;
            magnitude = magnitude.max(ch.intensity);
        }
        Some(InjectedFault {
            channel: FaultChannelKind::CounterNoise,
            magnitude,
        })
    }

    fn throttle(&self, key: FaultKey, outcome: &mut KernelOutcome) -> Option<InjectedFault> {
        let ch = self.tdp_throttle;
        let sub = self.fire(TAG_TDP, ch.rate, &key.words())?;
        let factor = 1.0 + ch.intensity * unit_f64(mix64(sub ^ 1));
        outcome.time_s *= factor;
        let inv = 1.0 / factor;
        let p = &mut outcome.power;
        p.cpu_dyn_w *= inv;
        p.gpu_dyn_w *= inv;
        p.nb_dyn_w *= inv;
        p.dram_w *= inv;
        p.cpu_leak_w *= inv;
        p.gpu_leak_w *= inv;
        p.other_w *= inv;
        // Power × time is conserved, so the integrated energy breakdown
        // stays consistent without recomputation.
        Some(InjectedFault {
            channel: FaultChannelKind::TdpThrottle,
            magnitude: factor,
        })
    }

    fn transition(
        &self,
        key: FaultKey,
        from: HwConfig,
        requested: HwConfig,
    ) -> Option<TransitionOutcome> {
        let ch = self.transition_fail;
        if ch.is_off() || from == requested {
            return None;
        }
        let mut failed = 0u32;
        while failed < MAX_TRANSITION_ATTEMPTS {
            let words = [key.run_index as u64, key.position as u64, failed as u64];
            if self.fire(TAG_TRANSITION, ch.rate, &words).is_none() {
                break;
            }
            failed += 1;
        }
        if failed == 0 {
            return None;
        }
        let penalty_s = failed as f64 * ch.intensity * TRANSITION_RETRY_PENALTY_S;
        let fell_back = failed >= MAX_TRANSITION_ATTEMPTS;
        Some(TransitionOutcome {
            config: if fell_back {
                HwConfig::FAIL_SAFE
            } else {
                requested
            },
            penalty_s,
            failed_attempts: failed,
            fell_back,
        })
    }

    fn corrupt_snapshot(
        &self,
        key: FaultKey,
        snapshot: &mut KernelSnapshot,
    ) -> Option<InjectedFault> {
        let ch = self.stale_pattern;
        let sub = self.fire(TAG_STALE, ch.rate, &key.words())?;
        if unit_f64(mix64(sub ^ 0x5E)) < 0.5 {
            // Unambiguously corrupt: hardened governors detect the
            // malformed record and discard it (StalePattern fail-safe).
            snapshot.ginstructions = f64::NAN;
            Some(InjectedFault {
                channel: FaultChannelKind::StalePattern,
                magnitude: ch.intensity.max(1.0),
            })
        } else {
            // Silently stale: finite but badly scaled counters — the
            // search proceeds on wrong data, exercising downstream
            // prediction-anomaly detection instead.
            let factor = 1.0 + ch.intensity * (1.0 + 3.0 * unit_f64(mix64(sub ^ 0xA1)));
            for v in snapshot.counters.values_mut() {
                *v *= factor;
            }
            snapshot.ginstructions *= factor;
            Some(InjectedFault {
                channel: FaultChannelKind::StalePattern,
                magnitude: factor,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::hash_words;
    use gpm_sim::{ApuSimulator, KernelCharacteristics};

    fn outcome() -> KernelOutcome {
        ApuSimulator::noiseless().evaluate(
            &KernelCharacteristics::compute_bound("cb", 20.0),
            HwConfig::MAX_PERF,
        )
    }

    fn key(run: usize, pos: usize) -> FaultKey {
        FaultKey {
            run_index: run,
            position: pos,
        }
    }

    #[test]
    fn zero_plan_is_the_identity() {
        let plan = FaultPlan::zero(99);
        assert!(!plan.enabled());
        let clean = outcome();
        let mut out = clean.clone();
        assert!(plan.corrupt_observation(key(1, 0), &mut out).is_none());
        assert!(plan.throttle(key(1, 0), &mut out).is_none());
        assert!(plan
            .transition(key(1, 0), HwConfig::FAIL_SAFE, HwConfig::MAX_PERF)
            .is_none());
        assert_eq!(out, clean);
    }

    #[test]
    fn schedules_replay_bit_identically() {
        let plan = FaultPlan::uniform(0xFEED, 0.5);
        for pos in 0..32 {
            let mut a = outcome();
            let mut b = outcome();
            let fa = plan.corrupt_observation(key(1, pos), &mut a);
            let fb = plan.corrupt_observation(key(1, pos), &mut b);
            assert_eq!(fa, fb);
            // NaN-corrupted counters break PartialEq; compare bit patterns.
            assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
            for (x, y) in a.counters.values().iter().zip(b.counters.values()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn fire_hashes_the_tag_and_key_like_hash_words() {
        // `fire` folds the tag and key in place; it must draw exactly what
        // hashing the concatenated word list draws, or every fault
        // schedule moves.
        let mut state = 0x5EED_F1EEu64;
        let mut next = || {
            state = mix64(state);
            state
        };
        for case in 0..2000 {
            let plan = FaultPlan::zero(next());
            let tag = if case % 2 == 0 {
                [TAG_COUNTER, TAG_SPIKE, TAG_STALE, TAG_TRANSITION, TAG_TDP][case % 5]
            } else {
                next()
            };
            let words = [next(), next() % 64, next() % 4];
            let key = &words[..2 + case % 2];
            let mut all = vec![tag];
            all.extend_from_slice(key);
            let h = hash_words(plan.seed, &all);
            // A rate of 1 always fires and hands out `mix64(h)`; `mix64`
            // is a bijection, so equal substreams mean equal hashes.
            assert_eq!(plan.fire(tag, 1.0, key), Some(mix64(h)), "case {case}");
            assert_eq!(
                plan.fire(tag, 0.5, key).is_some(),
                unit_f64(h) < 0.5,
                "case {case}"
            );
        }
    }

    #[test]
    fn firing_frequency_tracks_the_rate() {
        let plan = FaultPlan::uniform(0x0DD5, 0.3);
        let mut fired = 0;
        let n = 2000;
        for pos in 0..n {
            let mut out = outcome();
            if plan.throttle(key(2, pos), &mut out).is_some() {
                fired += 1;
            }
        }
        let freq = fired as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.05, "firing frequency {freq}");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::uniform(1, 0.5);
        let b = FaultPlan::uniform(2, 0.5);
        let mut differs = false;
        for pos in 0..64 {
            let mut oa = outcome();
            let mut ob = outcome();
            let fa = a.throttle(key(0, pos), &mut oa).is_some();
            let fb = b.throttle(key(0, pos), &mut ob).is_some();
            differs |= fa != fb;
        }
        assert!(differs);
    }

    #[test]
    fn throttle_conserves_energy() {
        let plan = FaultPlan::uniform(7, 1.0);
        let clean = outcome();
        let mut out = clean.clone();
        let fault = plan.throttle(key(0, 0), &mut out).expect("rate 1 fires");
        assert_eq!(fault.channel, FaultChannelKind::TdpThrottle);
        assert!(fault.magnitude > 1.0 && fault.magnitude <= 2.0);
        assert!(out.time_s > clean.time_s);
        assert!(out.power.total_w() < clean.power.total_w());
        let before = clean.power.total_w() * clean.time_s;
        let after = out.power.total_w() * out.time_s;
        assert!((before - after).abs() < 1e-9 * before);
    }

    #[test]
    fn transitions_retry_then_fall_back() {
        // Rate 1.0: every attempt fails, so every transition falls back.
        let always = FaultPlan::uniform(3, 1.0);
        let t = always
            .transition(key(0, 1), HwConfig::MAX_PERF, HwConfig::MPC_HOST)
            .expect("must fail");
        assert!(t.fell_back);
        assert_eq!(t.config, HwConfig::FAIL_SAFE);
        assert_eq!(t.failed_attempts, MAX_TRANSITION_ATTEMPTS);
        assert!(t.penalty_s > 0.0);
        // No-op transitions are never eligible.
        assert!(always
            .transition(key(0, 1), HwConfig::MAX_PERF, HwConfig::MAX_PERF)
            .is_none());
        // At a moderate rate, some firings succeed on retry.
        let sometimes = FaultPlan::uniform(3, 0.5);
        let mut recovered = false;
        for pos in 0..256 {
            if let Some(t) =
                sometimes.transition(key(0, pos), HwConfig::MAX_PERF, HwConfig::MPC_HOST)
            {
                if !t.fell_back {
                    assert_eq!(t.config, HwConfig::MPC_HOST);
                    assert!(t.failed_attempts < MAX_TRANSITION_ATTEMPTS);
                    recovered = true;
                }
            }
        }
        assert!(recovered, "no transition ever succeeded on retry");
    }

    #[test]
    fn stale_snapshots_are_either_malformed_or_scaled() {
        let plan = FaultPlan::uniform(11, 1.0);
        let base = outcome();
        let mut wild = 0;
        let mut scaled = 0;
        for pos in 0..64 {
            let mut snap = KernelSnapshot::counters_only(
                base.counters,
                HwConfig::MAX_PERF,
                base.ginstructions,
            );
            let fault = plan.corrupt_snapshot(key(1, pos), &mut snap).unwrap();
            assert_eq!(fault.channel, FaultChannelKind::StalePattern);
            if snap.is_well_formed() {
                scaled += 1;
                assert!(snap.ginstructions > base.ginstructions);
            } else {
                wild += 1;
            }
        }
        assert!(wild > 0 && scaled > 0, "wild {wild} scaled {scaled}");
    }
}
