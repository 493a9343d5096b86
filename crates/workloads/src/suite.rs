//! The 15-benchmark evaluation suite (Table IV).
//!
//! Each function rebuilds one benchmark's kernel-invocation sequence with
//! the execution pattern the paper reports and kernel characteristics that
//! reproduce its documented behaviour: Spmv's high→low throughput
//! transitions, kmeans' low→high transition, lbm's peak kernels (the 51%
//! GPU-energy-savings outlier of Figure 10), hybridsort's input-varying
//! `mergeSortPass` iterations, and so on.

use crate::workload::{Category, Workload};
use gpm_sim::{KernelCharacteristics, KernelClass};

fn repeat(k: &KernelCharacteristics, n: usize) -> Vec<KernelCharacteristics> {
    (0..n).map(|_| k.clone()).collect()
}

/// `mandelbulbGPU` (Phoronix): regular, `A20`, one compute-bound kernel.
pub fn mandelbulb_gpu() -> Workload {
    let a = KernelCharacteristics::compute_bound("mandelbulb", 22.0);
    Workload::new("mandelbulbGPU", Category::Regular, "A20", repeat(&a, 20)).with_suite("Phoronix")
}

/// `NBody` (AMD APP SDK): regular, `A10`, compute-bound.
pub fn nbody() -> Workload {
    let a = KernelCharacteristics::compute_bound("nbody_step", 36.0);
    Workload::new("NBody", Category::Regular, "A10", repeat(&a, 10)).with_suite("AMD APP SDK")
}

/// `lbm` (Parboil): regular, `A10`, a *peak* kernel — its best performance
/// and energy sit below the maximum CU count, which is why it shows the
/// largest GPU energy savings (51%) in Figure 10.
pub fn lbm() -> Workload {
    let a = KernelCharacteristics::builder("lbm_collide_stream", 16.0)
        .class(KernelClass::Peak)
        .memory_gb(2.4)
        .cache_hit(0.97)
        .cache_interference(0.105)
        .parallel_fraction(0.985)
        .occupancy(0.78)
        .global_work_size((1u32 << 21) as f64)
        .build();
    Workload::new("lbm", Category::Regular, "A10", repeat(&a, 10)).with_suite("Parboil")
}

/// `EigenValue` (AMD APP SDK): irregular with repeating pattern `(AB)5`.
pub fn eigenvalue() -> Workload {
    let a = KernelCharacteristics::compute_bound("calNumEigenInterval", 24.0);
    let b = KernelCharacteristics::memory_bound("recalculateEigenIntervals", 1.4);
    let mut seq = Vec::new();
    for _ in 0..5 {
        seq.push(a.clone());
        seq.push(b.clone());
    }
    Workload::new("EigenValue", Category::IrregularRepeating, "(AB)5", seq)
        .with_suite("AMD APP SDK")
}

/// `XSBench` (Exascale proxy): irregular with repeating pattern `(ABC)2`,
/// long kernels (they let MPC afford the full horizon, Figure 15).
pub fn xsbench() -> Workload {
    let a = KernelCharacteristics::builder("xs_lookup", 48.0)
        .class(KernelClass::Balanced)
        .memory_gb(2.0)
        .cache_hit(0.45)
        .parallel_fraction(0.98)
        .occupancy(0.6)
        .build();
    let b = KernelCharacteristics::memory_bound("grid_search", 3.2);
    let c = KernelCharacteristics::compute_bound("xs_accumulate", 40.0);
    let mut seq = Vec::new();
    for _ in 0..2 {
        seq.extend([a.clone(), b.clone(), c.clone()]);
    }
    Workload::new("XSBench", Category::IrregularRepeating, "(ABC)2", seq).with_suite("Exascale")
}

/// `Spmv` (modified SHOC): irregular non-repeating `A10 B10 C10` — three
/// sparse matrix-vector algorithms, transitioning from high- to
/// low-throughput phases (Figure 3).
pub fn spmv() -> Workload {
    let a = KernelCharacteristics::builder("spmv_csr_vector", 26.0)
        .class(KernelClass::ComputeBound)
        .memory_gb(0.35)
        .cache_hit(0.85)
        .parallel_fraction(0.99)
        .occupancy(0.85)
        .build();
    let b = KernelCharacteristics::builder("spmv_csr_scalar", 12.0)
        .class(KernelClass::Balanced)
        .memory_gb(0.9)
        .cache_hit(0.5)
        .parallel_fraction(0.97)
        .occupancy(0.55)
        .build();
    let c = KernelCharacteristics::builder("spmv_ellpackr", 3.5)
        .class(KernelClass::MemoryBound)
        .memory_gb(1.6)
        .cache_hit(0.2)
        .parallel_fraction(0.96)
        .occupancy(0.4)
        .build();
    let mut seq = repeat(&a, 10);
    seq.extend(repeat(&b, 10));
    seq.extend(repeat(&c, 10));
    Workload::new("Spmv", Category::IrregularNonRepeating, "A10B10C10", seq).with_suite("SHOC")
}

/// `kmeans` (Rodinia): irregular non-repeating `A B20` — a long
/// low-throughput `swap` kernel followed by 20 high-throughput `kmeans`
/// iterations (the low→high transition of Figure 3).
pub fn kmeans() -> Workload {
    let swap = KernelCharacteristics::builder("kmeans_swap", 0.8)
        .class(KernelClass::Unscalable)
        .memory_gb(0.5)
        .cache_hit(0.3)
        .parallel_fraction(0.45)
        .occupancy(0.2)
        .fixed_time(0.10)
        .build();
    let km = KernelCharacteristics::compute_bound("kmeans_kernel_c", 20.0);
    let mut seq = vec![swap];
    seq.extend(repeat(&km, 20));
    Workload::new("kmeans", Category::IrregularNonRepeating, "AB20", seq).with_suite("Rodinia")
}

/// `swat` (OpenDwarfs): Smith-Waterman; the same alignment kernel invoked
/// repeatedly with growing/shrinking anti-diagonals (input-varying).
pub fn swat() -> Workload {
    let base = KernelCharacteristics::builder("swat_align", 14.0)
        .class(KernelClass::Balanced)
        .memory_gb(0.8)
        .cache_hit(0.55)
        .parallel_fraction(0.96)
        .occupancy(0.5)
        .build();
    let scales = [0.4, 0.8, 1.3, 1.9, 2.3, 2.6, 2.3, 1.9, 1.3, 0.8, 0.5, 0.3];
    let seq = scales
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            base.with_input_scale(s)
                .renamed(format!("swat_align_{}", i + 1))
        })
        .collect();
    Workload::new(
        "swat",
        Category::IrregularInputVarying,
        "A1..A12 (varying)",
        seq,
    )
    .with_suite("OpenDwarfs")
}

/// `color` (Pannotia): graph coloring; per-iteration work shrinks as the
/// remaining uncolored frontier decays (input-varying).
pub fn color() -> Workload {
    let base = KernelCharacteristics::builder("color_kernel", 9.0)
        .class(KernelClass::MemoryBound)
        .memory_gb(1.1)
        .cache_hit(0.25)
        .parallel_fraction(0.95)
        .occupancy(0.4)
        .build();
    let seq = (0..14)
        .map(|i| {
            let scale = 2.2 * (0.78f64).powi(i);
            base.with_input_scale(scale.max(0.1))
                .renamed(format!("color_it{}", i + 1))
        })
        .collect();
    Workload::new(
        "color",
        Category::IrregularInputVarying,
        "A1..A14 (decaying)",
        seq,
    )
    .with_suite("Pannotia")
}

/// `pb-bfs` (Parboil): breadth-first search; frontier grows from a few
/// nodes to most of the graph — a low→high throughput shape like kmeans.
pub fn pb_bfs() -> Workload {
    let base = KernelCharacteristics::builder("bfs_level", 6.0)
        .class(KernelClass::MemoryBound)
        .memory_gb(0.8)
        .cache_hit(0.3)
        .parallel_fraction(0.9)
        .occupancy(0.35)
        .fixed_time(0.004)
        .build();
    let scales = [0.1, 0.2, 0.5, 1.2, 2.4, 3.2, 2.8, 1.6, 0.7, 0.3];
    let seq = scales
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            base.with_input_scale(s)
                .renamed(format!("bfs_level_{}", i + 1))
        })
        .collect();
    Workload::new(
        "pb-bfs",
        Category::IrregularInputVarying,
        "A1..A10 (frontier)",
        seq,
    )
    .with_suite("Parboil")
}

/// `mis` (Pannotia): maximal independent set; work decays as nodes drop
/// out each round (input-varying).
pub fn mis() -> Workload {
    let base = KernelCharacteristics::builder("mis_kernel", 11.0)
        .class(KernelClass::Balanced)
        .memory_gb(0.9)
        .cache_hit(0.4)
        .parallel_fraction(0.94)
        .occupancy(0.45)
        .build();
    let seq = (0..12)
        .map(|i| {
            let scale = 1.9 * (0.72f64).powi(i);
            base.with_input_scale(scale.max(0.08))
                .renamed(format!("mis_it{}", i + 1))
        })
        .collect();
    Workload::new(
        "mis",
        Category::IrregularInputVarying,
        "A1..A12 (decaying)",
        seq,
    )
    .with_suite("Pannotia")
}

/// `srad` (Rodinia): speckle-reducing anisotropic diffusion; two kernels
/// alternating, with input statistics drifting across iterations — the
/// paper's worst case for MPC under misprediction.
pub fn srad() -> Workload {
    let k1 = KernelCharacteristics::builder("srad_cuda_1", 15.0)
        .class(KernelClass::ComputeBound)
        .memory_gb(0.5)
        .cache_hit(0.8)
        .parallel_fraction(0.985)
        .occupancy(0.75)
        .build();
    let k2 = KernelCharacteristics::builder("srad_cuda_2", 7.0)
        .class(KernelClass::MemoryBound)
        .memory_gb(1.1)
        .cache_hit(0.35)
        .parallel_fraction(0.97)
        .occupancy(0.5)
        .build();
    let mut seq = Vec::new();
    for i in 0..8 {
        // Mild drift, with a sharp change in the final phases that the
        // binned-signature predictor struggles with.
        let scale = if i < 6 { 1.0 + 0.06 * i as f64 } else { 0.35 };
        seq.push(
            k1.with_input_scale(scale)
                .renamed(format!("srad_cuda_1_{}", i + 1)),
        );
        seq.push(
            k2.with_input_scale(scale)
                .renamed(format!("srad_cuda_2_{}", i + 1)),
        );
    }
    Workload::new(
        "srad",
        Category::IrregularInputVarying,
        "(AB)8 (drifting)",
        seq,
    )
    .with_suite("Rodinia")
}

/// `lulesh` (Exascale proxy): shock hydrodynamics; several kernels per
/// timestep with element counts varying across regions.
pub fn lulesh() -> Workload {
    let force = KernelCharacteristics::compute_bound("CalcForce", 28.0);
    let constraint = KernelCharacteristics::builder("CalcConstraints", 9.0)
        .class(KernelClass::Balanced)
        .memory_gb(0.7)
        .cache_hit(0.5)
        .parallel_fraction(0.96)
        .occupancy(0.55)
        .build();
    let update = KernelCharacteristics::memory_bound("UpdateVolumes", 1.5);
    let mut seq = Vec::new();
    for i in 0..5 {
        let scale = [1.0, 1.3, 0.8, 1.6, 0.6][i];
        seq.push(
            force
                .with_input_scale(scale)
                .renamed(format!("CalcForce_{}", i + 1)),
        );
        seq.push(
            constraint
                .with_input_scale(scale)
                .renamed(format!("CalcConstraints_{}", i + 1)),
        );
        seq.push(
            update
                .with_input_scale(scale)
                .renamed(format!("UpdateVolumes_{}", i + 1)),
        );
    }
    Workload::new(
        "lulesh",
        Category::IrregularInputVarying,
        "(ABC)5 (varying)",
        seq,
    )
    .with_suite("Exascale")
}

/// `lud` (Rodinia): LU decomposition; per-step work shrinks as the active
/// submatrix contracts — a high→low throughput transition like Spmv.
pub fn lud() -> Workload {
    let base = KernelCharacteristics::builder("lud_internal", 20.0)
        .class(KernelClass::ComputeBound)
        .memory_gb(0.4)
        .cache_hit(0.75)
        .parallel_fraction(0.98)
        .occupancy(0.7)
        .build();
    let seq = (0..14)
        .map(|i| {
            let scale = 2.0 * (0.76f64).powi(i);
            base.with_input_scale(scale.max(0.05))
                .renamed(format!("lud_step{}", i + 1))
        })
        .collect();
    Workload::new(
        "lud",
        Category::IrregularInputVarying,
        "A1..A14 (shrinking)",
        seq,
    )
    .with_suite("Rodinia")
}

/// `hybridsort` (Rodinia): `A B C D E F1..F9 G` — six distinct kernels
/// with `mergeSortPass` iterating nine times on different inputs
/// (Table II). Every invocation differs in throughput, defeating
/// one-kernel-lookback prediction.
pub fn hybridsort() -> Workload {
    let bucket_count = KernelCharacteristics::memory_bound("bucketcount", 1.2);
    let bucket_prefix = KernelCharacteristics::builder("bucketprefix", 4.0)
        .class(KernelClass::Balanced)
        .memory_gb(0.3)
        .cache_hit(0.6)
        .parallel_fraction(0.9)
        .occupancy(0.4)
        .build();
    let bucket_sort = KernelCharacteristics::memory_bound("bucketsort", 1.8);
    let histogram = KernelCharacteristics::compute_bound("histogram1024", 8.0);
    let prefix_sum = KernelCharacteristics::builder("prefixsum", 1.0)
        .class(KernelClass::Unscalable)
        .memory_gb(0.05)
        .cache_hit(0.7)
        .parallel_fraction(0.5)
        .occupancy(0.2)
        .fixed_time(0.012)
        .build();
    let merge = KernelCharacteristics::builder("mergeSortPass", 10.0)
        .class(KernelClass::Balanced)
        .memory_gb(0.9)
        .cache_hit(0.55)
        .parallel_fraction(0.95)
        .occupancy(0.5)
        .build();
    let merge_pack = KernelCharacteristics::memory_bound("mergepack", 0.9);

    let mut seq = vec![
        bucket_count,
        bucket_prefix,
        bucket_sort,
        histogram,
        prefix_sum,
    ];
    // Non-monotonic input sizes, as in Figure 3's hybridsort trace where
    // successive mergeSortPass invocations jump between throughput levels.
    let merge_scales = [2.6, 0.35, 1.9, 0.28, 1.3, 0.5, 0.9, 0.2, 0.14];
    for (i, &s) in merge_scales.iter().enumerate() {
        seq.push(
            merge
                .with_input_scale(s)
                .renamed(format!("mergeSortPass_F{}", i + 1)),
        );
    }
    seq.push(merge_pack);
    Workload::new(
        "hybridsort",
        Category::IrregularInputVarying,
        "ABCDEF1..F9G",
        seq,
    )
    .with_suite("Rodinia")
}

/// Builds one benchmark of [`SUITE`].
pub type Constructor = fn() -> Workload;

/// Table IV: each benchmark's name and constructor, in the order of the
/// paper's figures. A lookup builds only the workload it names.
pub const SUITE: [(&str, Constructor); 15] = [
    ("mandelbulbGPU", mandelbulb_gpu),
    ("NBody", nbody),
    ("lbm", lbm),
    ("EigenValue", eigenvalue),
    ("XSBench", xsbench),
    ("Spmv", spmv),
    ("kmeans", kmeans),
    ("swat", swat),
    ("color", color),
    ("pb-bfs", pb_bfs),
    ("mis", mis),
    ("srad", srad),
    ("lulesh", lulesh),
    ("lud", lud),
    ("hybridsort", hybridsort),
];

/// The full 15-benchmark suite, in the order of the paper's figures.
pub fn suite() -> Vec<Workload> {
    SUITE.iter().map(|(_, build)| build()).collect()
}

/// Looks a workload up by its Table IV name (case-sensitive).
pub fn workload_by_name(name: &str) -> Option<Workload> {
    SUITE
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_hw::HwConfig;
    use gpm_sim::ApuSimulator;

    #[test]
    fn suite_has_fifteen_benchmarks() {
        let s = suite();
        assert_eq!(s.len(), 15);
        let mut names: Vec<&str> = s.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15, "benchmark names must be unique");
    }

    #[test]
    fn categories_match_table_iv() {
        let expect = [
            ("mandelbulbGPU", Category::Regular),
            ("NBody", Category::Regular),
            ("lbm", Category::Regular),
            ("EigenValue", Category::IrregularRepeating),
            ("XSBench", Category::IrregularRepeating),
            ("Spmv", Category::IrregularNonRepeating),
            ("kmeans", Category::IrregularNonRepeating),
            ("swat", Category::IrregularInputVarying),
            ("color", Category::IrregularInputVarying),
            ("pb-bfs", Category::IrregularInputVarying),
            ("mis", Category::IrregularInputVarying),
            ("srad", Category::IrregularInputVarying),
            ("lulesh", Category::IrregularInputVarying),
            ("lud", Category::IrregularInputVarying),
            ("hybridsort", Category::IrregularInputVarying),
        ];
        for (name, cat) in expect {
            assert_eq!(workload_by_name(name).unwrap().category(), cat, "{name}");
        }
    }

    #[test]
    fn execution_patterns_match_table_ii() {
        assert_eq!(workload_by_name("Spmv").unwrap().len(), 30);
        assert_eq!(workload_by_name("kmeans").unwrap().len(), 21);
        let hs = workload_by_name("hybridsort").unwrap();
        assert_eq!(hs.len(), 15); // A..E + F1..F9 + G
        assert_eq!(hs.distinct_kernels(), 15);
        assert_eq!(
            workload_by_name("mandelbulbGPU")
                .unwrap()
                .distinct_kernels(),
            1
        );
    }

    fn throughputs(w: &Workload) -> Vec<f64> {
        let sim = ApuSimulator::noiseless();
        w.kernels()
            .iter()
            .map(|k| {
                let out = sim.evaluate(k, HwConfig::MAX_PERF);
                out.throughput()
            })
            .collect()
    }

    #[test]
    fn spmv_transitions_high_to_low() {
        // Figure 3: Spmv moves from high- to low-throughput phases.
        let t = throughputs(&spmv());
        let first = t[..10].iter().sum::<f64>() / 10.0;
        let last = t[20..].iter().sum::<f64>() / 10.0;
        assert!(first > 2.0 * last, "first {first}, last {last}");
    }

    #[test]
    fn kmeans_transitions_low_to_high() {
        let t = throughputs(&kmeans());
        assert!(t[0] < 0.5 * t[1], "swap {} vs kmeans {}", t[0], t[1]);
    }

    #[test]
    fn hybridsort_throughput_is_diverse() {
        let t = throughputs(&hybridsort());
        let max = t.iter().cloned().fold(f64::MIN, f64::max);
        let min = t.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 4.0, "hybridsort spread {max}/{min}");
    }

    #[test]
    fn regular_benchmarks_have_constant_throughput() {
        for name in ["mandelbulbGPU", "NBody", "lbm"] {
            let t = throughputs(&workload_by_name(name).unwrap());
            let mean = t.iter().sum::<f64>() / t.len() as f64;
            for v in &t {
                assert!((v / mean - 1.0).abs() < 0.05, "{name} throughput varies");
            }
        }
    }

    #[test]
    fn kernel_times_are_in_governable_range() {
        // Times far outside [1 ms, 1 s] would make overhead modelling
        // meaningless.
        let sim = ApuSimulator::noiseless();
        for w in suite() {
            for k in w.kernels() {
                let t = sim.evaluate(k, HwConfig::MAX_PERF).time_s;
                assert!(t > 5e-4, "{} kernel {} too short: {t}", w.name(), k.name());
                assert!(t < 2.0, "{} kernel {} too long: {t}", w.name(), k.name());
            }
        }
    }

    #[test]
    fn unknown_name_is_none() {
        for name in ["nope", "", "spmv", "SPMV", "Kmeans", "pb_bfs", "Spmv "] {
            assert!(workload_by_name(name).is_none(), "{name:?}");
        }
    }

    #[test]
    fn every_table_name_resolves_to_its_suite_member() {
        let all = suite();
        for ((name, _), member) in SUITE.iter().zip(&all) {
            assert_eq!(member.name(), *name, "table key and built name differ");
            assert_eq!(workload_by_name(name).as_ref(), Some(member), "{name}");
        }
    }

    #[test]
    fn suite_order_is_pinned() {
        let all = suite();
        let names: Vec<&str> = all.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            [
                "mandelbulbGPU",
                "NBody",
                "lbm",
                "EigenValue",
                "XSBench",
                "Spmv",
                "kmeans",
                "swat",
                "color",
                "pb-bfs",
                "mis",
                "srad",
                "lulesh",
                "lud",
                "hybridsort",
            ]
        );
    }
}
