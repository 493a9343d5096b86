//! Parallel measurement campaign.
//!
//! The paper's campaign measured every benchmark kernel at 336 hardware
//! configurations. On the simulator this is embarrassingly parallel:
//! [`Dataset::from_campaign`] partitions the kernels across scoped worker
//! threads, each measuring its share into its own block of the dataset,
//! so the parallel campaign is bit-identical to the sequential one.

use gpm_hw::{ConfigSpace, HwConfig};
use gpm_model::Dataset;
use gpm_sim::{ApuSimulator, KernelCharacteristics};

/// Runs the measurement campaign for `kernels` over `space` using
/// `threads` workers, profiling counters at `profile_cfg`, under one
/// `campaign` telemetry span.
///
/// Produces exactly the same dataset for every `threads` value
/// (kernel-major, configuration-minor order), verified by tests.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn parallel_campaign(
    sim: &ApuSimulator,
    kernels: &[KernelCharacteristics],
    space: &ConfigSpace,
    profile_cfg: HwConfig,
    threads: usize,
) -> Dataset {
    let _span = gpm_telemetry::span("campaign");
    Dataset::from_campaign(sim, kernels, space, profile_cfg, threads)
}

/// [`parallel_campaign`] sized to the host: worker count defaults to
/// [`std::thread::available_parallelism`] (1 if it cannot be queried).
/// The result is still bit-identical to the sequential campaign.
pub fn parallel_campaign_auto(
    sim: &ApuSimulator,
    kernels: &[KernelCharacteristics],
    space: &ConfigSpace,
    profile_cfg: HwConfig,
) -> Dataset {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    parallel_campaign(sim, kernels, space, profile_cfg, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_hw::{CpuPState, GpuDpm};

    fn kernels() -> Vec<KernelCharacteristics> {
        vec![
            KernelCharacteristics::compute_bound("a", 10.0),
            KernelCharacteristics::memory_bound("b", 1.0),
            KernelCharacteristics::peak("c", 8.0),
            KernelCharacteristics::unscalable("d", 0.01),
            KernelCharacteristics::compute_bound("e", 20.0),
        ]
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let sim = ApuSimulator::default();
        let ks = kernels();
        let space = ConfigSpace::nb_cu_sweep(CpuPState::P5, GpuDpm::Dpm4);
        let seq = Dataset::from_campaign(&sim, &ks, &space, HwConfig::FAIL_SAFE, 1);
        for threads in [1, 2, 3, 8] {
            let par = parallel_campaign(&sim, &ks, &space, HwConfig::FAIL_SAFE, threads);
            assert_eq!(par.len(), seq.len(), "threads = {threads}");
            assert!(par.same_bits(&seq), "threads = {threads}");
        }
    }

    #[test]
    fn more_threads_than_kernels_is_fine() {
        let sim = ApuSimulator::default();
        let ks = kernels();
        let space = ConfigSpace::nb_cu_sweep(CpuPState::P5, GpuDpm::Dpm4);
        let par = parallel_campaign(&sim, &ks, &space, HwConfig::FAIL_SAFE, 64);
        assert_eq!(par.len(), ks.len() * space.len());
    }

    #[test]
    fn auto_worker_count_matches_sequential() {
        let sim = ApuSimulator::default();
        let ks = kernels();
        let space = ConfigSpace::nb_cu_sweep(CpuPState::P5, GpuDpm::Dpm4);
        let seq = Dataset::from_campaign(&sim, &ks, &space, HwConfig::FAIL_SAFE, 1);
        let auto = parallel_campaign_auto(&sim, &ks, &space, HwConfig::FAIL_SAFE);
        assert!(auto.same_bits(&seq));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let sim = ApuSimulator::default();
        let space = ConfigSpace::nb_cu_sweep(CpuPState::P5, GpuDpm::Dpm4);
        let _ = parallel_campaign(&sim, &kernels(), &space, HwConfig::FAIL_SAFE, 0);
    }
}
