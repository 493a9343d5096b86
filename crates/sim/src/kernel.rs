//! Intrinsic kernel characteristics, independent of hardware configuration.
//!
//! A [`KernelCharacteristics`] value describes *what the kernel is* — how
//! much arithmetic it performs, how much data it touches, how well it caches
//! and parallelizes. The simulator combines these with an
//! [`HwConfig`](gpm_hw::HwConfig) to produce time, power, and counters.
//!
//! Constructors are provided for the four scaling classes the paper
//! characterizes in Figure 2 (compute-bound, memory-bound, peak,
//! unscalable), plus a builder for fully custom kernels.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The four GPGPU kernel scaling classes of Figure 2.
///
/// The class is a *descriptive label*; the simulator only consumes the
/// numeric fields of [`KernelCharacteristics`]. Classifying helps tests and
/// workload definitions state intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelClass {
    /// Scales with CU count and GPU frequency; insensitive to NB state.
    /// Energy-optimal at many CUs and a low NB state (Fig. 2(a)).
    ComputeBound,
    /// Scales with memory bandwidth; saturates from NB2 onward because
    /// NB2–NB0 share the 800 MHz DRAM clock (Fig. 2(b)).
    MemoryBound,
    /// Performance *peaks* below the maximum CU count due to destructive
    /// shared-cache interference (Fig. 2(c)).
    Peak,
    /// Performance insensitive to hardware configuration; energy-optimal at
    /// the lowest GPU configuration (Fig. 2(d)).
    Unscalable,
    /// Mixed compute/memory behaviour.
    Balanced,
}

impl fmt::Display for KernelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KernelClass::ComputeBound => "compute-bound",
            KernelClass::MemoryBound => "memory-bound",
            KernelClass::Peak => "peak",
            KernelClass::Unscalable => "unscalable",
            KernelClass::Balanced => "balanced",
        };
        f.write_str(s)
    }
}

/// Hardware-independent description of a GPU kernel invocation.
///
/// All totals are per *invocation*; a kernel invoked with a different input
/// is represented by a different `KernelCharacteristics` value (as in
/// hybridsort's `mergeSortPass` F1–F9).
///
/// # Examples
///
/// ```
/// use gpm_sim::KernelCharacteristics;
///
/// let k = KernelCharacteristics::builder("spmv_csr", 4.0)
///     .memory_gb(1.2)
///     .cache_hit(0.35)
///     .parallel_fraction(0.95)
///     .build();
/// assert_eq!(k.name(), "spmv_csr");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelCharacteristics {
    /// Shared, so clones of the kernel (one per dispatch position of a
    /// workload) and trace events name it without copying the string.
    name: Arc<str>,
    class: KernelClass,
    /// Total vector-ALU work, in giga-operations per invocation.
    compute_gops: f64,
    /// Total data touched by the memory hierarchy, in GB per invocation.
    memory_gb: f64,
    /// Cache hit rate at the 2-CU baseline, in [0, 1].
    cache_hit_base: f64,
    /// Cache hit-rate loss per additional active CU beyond 2 (destructive
    /// interference; > 0 only for "peak" kernels).
    cache_interference: f64,
    /// Amdahl parallel fraction across CUs, in [0, 1].
    parallel_fraction: f64,
    /// Fraction of peak per-CU issue rate the kernel sustains, in (0, 1].
    occupancy: f64,
    /// Hardware-independent serial latency per invocation (driver,
    /// dependent launches, host synchronization), in seconds.
    fixed_time_s: f64,
    /// Kernel launch overhead, in seconds.
    launch_overhead_s: f64,
    /// Work-items in the global NDRange (the `GlobalWorkSize` counter).
    global_work_size: f64,
    /// Fraction of LDS accesses that bank-conflict, in [0, 1].
    lds_conflict: f64,
    /// Scratch registers used per work-item.
    scratch_regs: f64,
    /// Instructions counted toward the throughput metric of Eq. 1
    /// (thread-count × instructions per thread), in giga-instructions.
    ginstructions: f64,
}

impl KernelCharacteristics {
    /// Starts building a kernel with the given name and total ALU work in
    /// giga-operations. All other fields start from balanced defaults.
    pub fn builder(name: impl Into<String>, compute_gops: f64) -> KernelBuilder {
        KernelBuilder {
            inner: KernelCharacteristics {
                name: Arc::from(name.into()),
                class: KernelClass::Balanced,
                compute_gops: compute_gops.max(1e-9),
                memory_gb: 0.1,
                cache_hit_base: 0.6,
                cache_interference: 0.0,
                parallel_fraction: 0.95,
                occupancy: 0.7,
                fixed_time_s: 0.0,
                launch_overhead_s: 30e-6,
                global_work_size: (1u32 << 20) as f64,
                lds_conflict: 0.05,
                scratch_regs: 8.0,
                ginstructions: 0.0,
            },
        }
    }

    /// A compute-bound kernel in the style of SHOC's `MaxFlops`
    /// (Fig. 2(a)): almost perfectly parallel, tiny memory footprint.
    pub fn compute_bound(name: impl Into<String>, compute_gops: f64) -> KernelCharacteristics {
        KernelCharacteristics::builder(name, compute_gops)
            .class(KernelClass::ComputeBound)
            .memory_gb(compute_gops * 0.002)
            .cache_hit(0.92)
            .parallel_fraction(0.99)
            .occupancy(0.9)
            .build()
    }

    /// A memory-bound kernel in the style of
    /// `readGlobalMemoryCoalesced` (Fig. 2(b)): streams far more bytes than
    /// it computes.
    pub fn memory_bound(name: impl Into<String>, memory_gb: f64) -> KernelCharacteristics {
        KernelCharacteristics::builder(name, memory_gb * 2.0)
            .class(KernelClass::MemoryBound)
            .memory_gb(memory_gb)
            .cache_hit(0.15)
            .parallel_fraction(0.97)
            .occupancy(0.5)
            .build()
    }

    /// A "peak" kernel in the style of `writeCandidates` (Fig. 2(c)):
    /// performance and energy optima below the maximum CU count because
    /// additional CUs destroy shared-cache locality.
    pub fn peak(name: impl Into<String>, compute_gops: f64) -> KernelCharacteristics {
        KernelCharacteristics::builder(name, compute_gops)
            .class(KernelClass::Peak)
            .memory_gb(compute_gops * 0.15)
            .cache_hit(0.95)
            .cache_interference(0.09)
            .parallel_fraction(0.985)
            .occupancy(0.8)
            .build()
    }

    /// An unscalable kernel in the style of `astar` (Fig. 2(d)):
    /// serial-latency dominated, insensitive to hardware configuration.
    pub fn unscalable(name: impl Into<String>, fixed_time_s: f64) -> KernelCharacteristics {
        KernelCharacteristics::builder(name, 0.05)
            .class(KernelClass::Unscalable)
            .memory_gb(0.01)
            .cache_hit(0.7)
            .parallel_fraction(0.3)
            .occupancy(0.15)
            .fixed_time(fixed_time_s)
            .build()
    }

    /// Kernel name (stable identifier within a workload).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kernel name as a shared string: cloning it copies no bytes.
    pub fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// Descriptive scaling class.
    pub fn class(&self) -> KernelClass {
        self.class
    }

    /// Total ALU work in giga-operations.
    pub fn compute_gops(&self) -> f64 {
        self.compute_gops
    }

    /// Total memory traffic presented to the cache hierarchy, in GB.
    pub fn memory_gb(&self) -> f64 {
        self.memory_gb
    }

    /// Cache hit rate at the 2-CU baseline.
    pub fn cache_hit_base(&self) -> f64 {
        self.cache_hit_base
    }

    /// Cache hit-rate loss per additional CU beyond 2.
    pub fn cache_interference(&self) -> f64 {
        self.cache_interference
    }

    /// Amdahl parallel fraction.
    pub fn parallel_fraction(&self) -> f64 {
        self.parallel_fraction
    }

    /// Sustained fraction of peak per-CU issue rate.
    pub fn occupancy(&self) -> f64 {
        self.occupancy
    }

    /// Hardware-independent serial latency per invocation, seconds.
    pub fn fixed_time_s(&self) -> f64 {
        self.fixed_time_s
    }

    /// Launch overhead, seconds.
    pub fn launch_overhead_s(&self) -> f64 {
        self.launch_overhead_s
    }

    /// Work-items in the global NDRange.
    pub fn global_work_size(&self) -> f64 {
        self.global_work_size
    }

    /// LDS bank-conflict fraction.
    pub fn lds_conflict(&self) -> f64 {
        self.lds_conflict
    }

    /// Scratch registers per work-item.
    pub fn scratch_regs(&self) -> f64 {
        self.scratch_regs
    }

    /// Instructions counted toward the Eq. 1 throughput metric, in
    /// giga-instructions. Defaults to `compute_gops` when not set
    /// explicitly.
    pub fn ginstructions(&self) -> f64 {
        if self.ginstructions > 0.0 {
            self.ginstructions
        } else {
            self.compute_gops
        }
    }

    /// Effective cache hit rate with `cu` active compute units.
    ///
    /// Decreases linearly with CU count for kernels with positive
    /// [`cache_interference`](Self::cache_interference), clamped to [0, 1].
    pub fn cache_hit_at(&self, cu: u32) -> f64 {
        (self.cache_hit_base - self.cache_interference * f64::from(cu.saturating_sub(2)))
            .clamp(0.0, 1.0)
    }

    /// Returns a copy scaled to represent the same kernel run on an input
    /// `factor`× larger.
    ///
    /// Totals (work, traffic, NDRange, instructions) scale linearly.
    /// Execution *character* shifts too, as it does on real hardware:
    /// larger inputs overflow caches (`cache_hit ∝ factor^-0.15`) while
    /// smaller inputs under-occupy the machine (`occupancy ∝ factor^0.2`,
    /// capped at the original). This is what makes input-varying kernels
    /// (Table IV's fourth category) genuinely mispredictable for schemes
    /// that assume the previous invocation repeats.
    pub fn with_input_scale(&self, factor: f64) -> KernelCharacteristics {
        let factor = factor.max(1e-6);
        let mut k = self.clone();
        k.compute_gops *= factor;
        k.memory_gb *= factor;
        k.global_work_size *= factor;
        if k.ginstructions > 0.0 {
            k.ginstructions *= factor;
        }
        k.cache_hit_base = (k.cache_hit_base * factor.powf(-0.15)).clamp(0.0, 1.0);
        k.occupancy = (k.occupancy * factor.powf(0.2)).clamp(0.01, self.occupancy.max(0.01));
        k
    }

    /// Returns a renamed copy (used when one source kernel appears under
    /// several invocation identities, e.g. `F1`–`F9` in hybridsort).
    pub fn renamed(&self, name: impl Into<String>) -> KernelCharacteristics {
        let mut k = self.clone();
        k.name = Arc::from(name.into());
        k
    }

    /// Every field of the kernel: its name, its class and the bits of
    /// each numeric field. Two kernels with equal keys measure alike at
    /// every configuration. Destructured without `..`, so a field added
    /// to the struct does not compile until it is keyed here.
    pub(crate) fn key(&self) -> (&Arc<str>, KernelClass, [u64; 12]) {
        let KernelCharacteristics {
            name,
            class,
            compute_gops,
            memory_gb,
            cache_hit_base,
            cache_interference,
            parallel_fraction,
            occupancy,
            fixed_time_s,
            launch_overhead_s,
            global_work_size,
            lds_conflict,
            scratch_regs,
            ginstructions,
        } = self;
        let fields = [
            compute_gops,
            memory_gb,
            cache_hit_base,
            cache_interference,
            parallel_fraction,
            occupancy,
            fixed_time_s,
            launch_overhead_s,
            global_work_size,
            lds_conflict,
            scratch_regs,
            ginstructions,
        ];
        (name, *class, fields.map(|v| v.to_bits()))
    }
}

impl fmt::Display for KernelCharacteristics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {:.2} Gop, {:.3} GB)",
            self.name, self.class, self.compute_gops, self.memory_gb
        )
    }
}

/// Builder for [`KernelCharacteristics`].
///
/// Created with [`KernelCharacteristics::builder`]. Out-of-range inputs are
/// clamped to their documented domains at [`build`](KernelBuilder::build)
/// time.
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    inner: KernelCharacteristics,
}

impl KernelBuilder {
    /// Sets the descriptive scaling class.
    pub fn class(mut self, class: KernelClass) -> KernelBuilder {
        self.inner.class = class;
        self
    }

    /// Sets total memory traffic in GB.
    pub fn memory_gb(mut self, gb: f64) -> KernelBuilder {
        self.inner.memory_gb = gb;
        self
    }

    /// Sets the baseline cache hit rate in [0, 1].
    pub fn cache_hit(mut self, hit: f64) -> KernelBuilder {
        self.inner.cache_hit_base = hit;
        self
    }

    /// Sets cache hit-rate loss per additional CU.
    pub fn cache_interference(mut self, per_cu: f64) -> KernelBuilder {
        self.inner.cache_interference = per_cu;
        self
    }

    /// Sets the Amdahl parallel fraction in [0, 1].
    pub fn parallel_fraction(mut self, p: f64) -> KernelBuilder {
        self.inner.parallel_fraction = p;
        self
    }

    /// Sets sustained occupancy in (0, 1].
    pub fn occupancy(mut self, occ: f64) -> KernelBuilder {
        self.inner.occupancy = occ;
        self
    }

    /// Sets hardware-independent serial latency in seconds.
    pub fn fixed_time(mut self, s: f64) -> KernelBuilder {
        self.inner.fixed_time_s = s;
        self
    }

    /// Sets launch overhead in seconds.
    pub fn launch_overhead(mut self, s: f64) -> KernelBuilder {
        self.inner.launch_overhead_s = s;
        self
    }

    /// Sets the global NDRange size.
    pub fn global_work_size(mut self, items: f64) -> KernelBuilder {
        self.inner.global_work_size = items;
        self
    }

    /// Sets the LDS bank-conflict fraction in [0, 1].
    pub fn lds_conflict(mut self, frac: f64) -> KernelBuilder {
        self.inner.lds_conflict = frac;
        self
    }

    /// Sets scratch registers per work-item.
    pub fn scratch_regs(mut self, regs: f64) -> KernelBuilder {
        self.inner.scratch_regs = regs;
        self
    }

    /// Sets the instruction count for the throughput metric, in
    /// giga-instructions.
    pub fn ginstructions(mut self, gi: f64) -> KernelBuilder {
        self.inner.ginstructions = gi;
        self
    }

    /// Finishes the builder, clamping every field to its documented domain.
    pub fn build(self) -> KernelCharacteristics {
        let mut k = self.inner;
        k.compute_gops = k.compute_gops.max(1e-9);
        k.memory_gb = k.memory_gb.max(0.0);
        k.cache_hit_base = k.cache_hit_base.clamp(0.0, 1.0);
        k.cache_interference = k.cache_interference.max(0.0);
        k.parallel_fraction = k.parallel_fraction.clamp(0.0, 1.0);
        k.occupancy = k.occupancy.clamp(0.01, 1.0);
        k.fixed_time_s = k.fixed_time_s.max(0.0);
        k.launch_overhead_s = k.launch_overhead_s.max(0.0);
        k.global_work_size = k.global_work_size.max(1.0);
        k.lds_conflict = k.lds_conflict.clamp(0.0, 1.0);
        k.scratch_regs = k.scratch_regs.max(0.0);
        k.ginstructions = k.ginstructions.max(0.0);
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_sane() {
        let k = KernelCharacteristics::builder("k", 10.0).build();
        assert_eq!(k.name(), "k");
        assert_eq!(k.class(), KernelClass::Balanced);
        assert!(k.parallel_fraction() > 0.0 && k.parallel_fraction() <= 1.0);
        assert!(k.occupancy() > 0.0);
    }

    #[test]
    fn builder_clamps_out_of_range() {
        let k = KernelCharacteristics::builder("k", -5.0)
            .cache_hit(1.5)
            .parallel_fraction(-0.2)
            .occupancy(0.0)
            .memory_gb(-1.0)
            .lds_conflict(2.0)
            .build();
        assert!(k.compute_gops() > 0.0);
        assert_eq!(k.cache_hit_base(), 1.0);
        assert_eq!(k.parallel_fraction(), 0.0);
        assert!(k.occupancy() > 0.0);
        assert_eq!(k.memory_gb(), 0.0);
        assert_eq!(k.lds_conflict(), 1.0);
    }

    #[test]
    fn class_constructors_set_class() {
        assert_eq!(
            KernelCharacteristics::compute_bound("a", 1.0).class(),
            KernelClass::ComputeBound
        );
        assert_eq!(
            KernelCharacteristics::memory_bound("b", 1.0).class(),
            KernelClass::MemoryBound
        );
        assert_eq!(
            KernelCharacteristics::peak("c", 1.0).class(),
            KernelClass::Peak
        );
        assert_eq!(
            KernelCharacteristics::unscalable("d", 0.01).class(),
            KernelClass::Unscalable
        );
    }

    #[test]
    fn cache_hit_degrades_with_cus_only_for_peak() {
        let peak = KernelCharacteristics::peak("p", 10.0);
        assert!(peak.cache_hit_at(8) < peak.cache_hit_at(2));
        let cb = KernelCharacteristics::compute_bound("c", 10.0);
        assert_eq!(cb.cache_hit_at(8), cb.cache_hit_at(2));
    }

    #[test]
    fn cache_hit_clamped_at_zero() {
        let k = KernelCharacteristics::builder("k", 1.0)
            .cache_hit(0.1)
            .cache_interference(0.5)
            .build();
        assert_eq!(k.cache_hit_at(8), 0.0);
    }

    #[test]
    fn input_scale_scales_totals_linearly() {
        let k = KernelCharacteristics::memory_bound("m", 2.0);
        let big = k.with_input_scale(3.0);
        assert!((big.memory_gb() - 6.0).abs() < 1e-12);
        assert!((big.compute_gops() - k.compute_gops() * 3.0).abs() < 1e-12);
        assert!((big.global_work_size() - k.global_work_size() * 3.0).abs() < 1e-6);
    }

    #[test]
    fn input_scale_shifts_execution_character() {
        let k = KernelCharacteristics::peak("p", 10.0);
        // Bigger input: worse caching, same (capped) occupancy.
        let big = k.with_input_scale(4.0);
        assert!(big.cache_hit_base() < k.cache_hit_base());
        assert_eq!(big.occupancy(), k.occupancy());
        // Smaller input: better caching, lower occupancy.
        let small = k.with_input_scale(0.25);
        assert!(small.cache_hit_base() >= k.cache_hit_base());
        assert!(small.occupancy() < k.occupancy());
        // Identity at factor 1.
        let same = k.with_input_scale(1.0);
        assert!((same.cache_hit_base() - k.cache_hit_base()).abs() < 1e-12);
        assert!((same.occupancy() - k.occupancy()).abs() < 1e-12);
    }

    #[test]
    fn ginstructions_defaults_to_compute() {
        let k = KernelCharacteristics::builder("k", 7.0).build();
        assert_eq!(k.ginstructions(), 7.0);
        let k = KernelCharacteristics::builder("k", 7.0)
            .ginstructions(3.0)
            .build();
        assert_eq!(k.ginstructions(), 3.0);
    }

    #[test]
    fn renamed_only_changes_name() {
        let k = KernelCharacteristics::peak("orig", 5.0);
        let r = k.renamed("copy");
        assert_eq!(r.name(), "copy");
        assert_eq!(r.compute_gops(), k.compute_gops());
        assert_eq!(r.class(), k.class());
    }

    #[test]
    fn display_contains_name_and_class() {
        let k = KernelCharacteristics::unscalable("astar", 0.02);
        let s = k.to_string();
        assert!(s.contains("astar") && s.contains("unscalable"));
    }
}
