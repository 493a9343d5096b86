//! The measurement noise stream, pinned to literals.
//!
//! The simulator draws its noise from `std`'s `DefaultHasher`, whose
//! algorithm `std` does not promise to keep across releases. Every golden
//! record, ledger figure and byte-identity check downstream rests on that
//! stream, so a toolchain that changes the hasher would move all of them
//! at once. This test names the cause in one place.

use gpm_hw::{CpuPState, CuCount, GpuDpm, HwConfig, NbState};
use gpm_sim::{ApuSimulator, KernelCharacteristics};

/// Three (kernel, configuration) pairs, each with the bits of the time
/// and of the sampled `VFetchInsts` counter (`values()[3]`) it measured
/// when pinned.
#[test]
fn the_noise_stream_is_pinned() {
    let sim = ApuSimulator::default();
    let pinned = [
        (
            KernelCharacteristics::compute_bound("maxflops", 40.0),
            HwConfig::MAX_PERF,
            (0x3fc0_31e3_5e53_68a5_u64, 0x3ff2_f567_cfd7_c54b_u64),
        ),
        (
            KernelCharacteristics::memory_bound("stream", 1.0),
            HwConfig::FAIL_SAFE,
            (0x3fb1_6d3e_b901_cd0b, 0x402e_19ff_6b71_2499),
        ),
        (
            KernelCharacteristics::peak("writeCandidates", 10.0),
            HwConfig::new(CpuPState::P4, NbState::Nb1, GpuDpm::Dpm2, CuCount::MIN),
            (0x3fc8_c7da_5cae_6bbd, 0x4036_29b9_2ef6_24e6),
        ),
    ];
    for (kernel, cfg, want) in &pinned {
        let out = sim.evaluate(kernel, *cfg);
        let got = (out.time_s.to_bits(), out.counters.values()[3].to_bits());
        assert_eq!(
            got,
            *want,
            "{} at {cfg}: the measurement noise stream changed. The noise is \
             hashed with std's DefaultHasher, which std does not keep stable \
             across releases; a new toolchain moves every noisy measurement, \
             and with them every golden record and ledger figure",
            kernel.name()
        );
    }
}
