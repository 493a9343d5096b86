//! A predictor wrapper injecting deterministic outlier spikes.

use crate::injector::TAG_SPIKE;
use crate::plan::FaultPlan;
use crate::rng::{hash_words, mix64, unit_f64};
use gpm_hw::HwConfig;
use gpm_sim::predictor::KernelSnapshot;
use gpm_sim::{PowerPerfEstimate, PowerPerfPredictor, NUM_COUNTERS};

/// Wraps any [`PowerPerfPredictor`], replacing a deterministic slice of
/// its estimates with outliers (per the plan's `predictor_spike`
/// channel).
///
/// The spike decision is keyed on the *prediction inputs* — snapshot
/// counter bits, measured-at configuration, and candidate configuration —
/// never on call order. Optimizers re-evaluate the same (snapshot,
/// config) pair repeatedly while hill climbing and rely on consistent
/// answers; a call-order key would silently break that contract.
///
/// With the channel off the wrapper is value-identical to the inner
/// predictor.
#[derive(Debug, Clone)]
pub struct FaultyPredictor<P> {
    inner: P,
    plan: FaultPlan,
}

impl<P> FaultyPredictor<P> {
    /// Wraps `inner` under `plan`'s `predictor_spike` channel.
    pub fn new(inner: P, plan: &FaultPlan) -> FaultyPredictor<P> {
        FaultyPredictor {
            inner,
            plan: plan.clone(),
        }
    }

    /// The wrapped predictor.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Applies the plan's spike, if any, to the inner estimate `est` of
    /// (`snapshot`, `cfg`).
    fn spike(
        &self,
        snapshot: &KernelSnapshot,
        cfg: HwConfig,
        mut est: PowerPerfEstimate,
    ) -> PowerPerfEstimate {
        let ch = self.plan.predictor_spike;
        let mut words = [0u64; NUM_COUNTERS + 4];
        words[0] = TAG_SPIKE;
        for (w, v) in words[1..=NUM_COUNTERS]
            .iter_mut()
            .zip(snapshot.counters.values())
        {
            *w = v.to_bits();
        }
        words[NUM_COUNTERS + 1] = snapshot.ginstructions.to_bits();
        words[NUM_COUNTERS + 2] = snapshot.measured_at.dense_index() as u64;
        words[NUM_COUNTERS + 3] = cfg.dense_index() as u64;
        let h = hash_words(self.plan.seed, &words);
        if unit_f64(h) >= ch.rate {
            return est;
        }
        let sub = mix64(h);
        if unit_f64(mix64(sub ^ 1)) < 0.15 {
            // Non-finite outlier: anomaly detection must reject it.
            est.time_s = f64::NAN;
        } else {
            est.time_s *= 1.0 + ch.intensity * (1.0 + 7.0 * unit_f64(mix64(sub ^ 2)));
            est.gpu_power_w *= 1.0 + ch.intensity * unit_f64(mix64(sub ^ 3));
        }
        est
    }
}

impl<P: PowerPerfPredictor> PowerPerfPredictor for FaultyPredictor<P> {
    fn predict(&self, snapshot: &KernelSnapshot, cfg: HwConfig) -> PowerPerfEstimate {
        let est = self.inner.predict(snapshot, cfg);
        if self.plan.predictor_spike.is_off() {
            return est;
        }
        self.spike(snapshot, cfg, est)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_sim::{ApuSimulator, KernelCharacteristics, OraclePredictor};

    fn snapshot() -> KernelSnapshot {
        let sim = ApuSimulator::noiseless();
        let k = KernelCharacteristics::memory_bound("mb", 2.0);
        let out = sim.evaluate_exact(&k, HwConfig::FAIL_SAFE);
        KernelSnapshot::with_truth(out.counters, HwConfig::FAIL_SAFE, k)
    }

    fn oracle() -> OraclePredictor {
        OraclePredictor::new(&ApuSimulator::noiseless())
    }

    #[test]
    fn zero_plan_is_value_identical() {
        let inner = oracle();
        let wrapped = FaultyPredictor::new(oracle(), &FaultPlan::zero(5));
        let snap = snapshot();
        for cfg in [HwConfig::FAIL_SAFE, HwConfig::MAX_PERF, HwConfig::MPC_HOST] {
            assert_eq!(wrapped.predict(&snap, cfg), inner.predict(&snap, cfg));
        }
        assert_eq!(wrapped.name(), "oracle");
    }

    #[test]
    fn spikes_are_deterministic_across_calls() {
        let wrapped = FaultyPredictor::new(oracle(), &FaultPlan::uniform(9, 0.5));
        let snap = snapshot();
        for cfg in [HwConfig::FAIL_SAFE, HwConfig::MAX_PERF] {
            let a = wrapped.predict(&snap, cfg);
            let b = wrapped.predict(&snap, cfg);
            assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
            assert_eq!(a.gpu_power_w.to_bits(), b.gpu_power_w.to_bits());
        }
    }

    #[test]
    fn batch_is_bit_identical_to_the_scalar_loop() {
        let snap = snapshot();
        let cfgs: Vec<HwConfig> = gpm_hw::ConfigSpace::paper_campaign().iter().collect();
        for plan in [FaultPlan::zero(5), FaultPlan::uniform(9, 0.5)] {
            let wrapped = FaultyPredictor::new(oracle(), &plan);
            let mut batch = Vec::new();
            wrapped.predict_batch(&snap, &cfgs, &mut batch);
            assert_eq!(batch.len(), cfgs.len());
            let mut nan = 0;
            for (est, &cfg) in batch.iter().zip(&cfgs) {
                let scalar = wrapped.predict(&snap, cfg);
                assert_eq!(est.time_s.to_bits(), scalar.time_s.to_bits(), "{cfg}");
                assert_eq!(
                    est.gpu_power_w.to_bits(),
                    scalar.gpu_power_w.to_bits(),
                    "{cfg}"
                );
                nan += usize::from(est.time_s.is_nan());
            }
            // The half-rate plan must exercise the non-finite spike.
            assert_eq!(
                nan > 0,
                !plan.predictor_spike.is_off(),
                "NaN spikes under {plan:?}"
            );
        }
    }

    #[test]
    fn full_rate_spikes_every_estimate() {
        let inner = oracle();
        let wrapped = FaultyPredictor::new(oracle(), &FaultPlan::uniform(13, 1.0));
        let snap = snapshot();
        let mut spiked = 0;
        let mut non_finite = 0;
        for cfg in gpm_hw::ConfigSpace::paper_campaign().iter().take(64) {
            let clean = inner.predict(&snap, cfg);
            let noisy = wrapped.predict(&snap, cfg);
            if !noisy.time_s.is_finite() {
                non_finite += 1;
            } else if noisy.time_s > clean.time_s {
                spiked += 1;
            }
        }
        assert_eq!(spiked + non_finite, 64);
        assert!(non_finite > 0, "no non-finite outliers in 64 draws");
        assert!(spiked > 0, "no finite spikes in 64 draws");
    }
}
