//! Synthetic re-creations of the paper's GPGPU workloads (Tables II & IV).
//!
//! The paper evaluates 15 benchmarks sampled from 9 suites, categorized by
//! kernel execution pattern: regular (one kernel iterating), irregular with
//! a repeating pattern, irregular with a non-repeating pattern, and
//! irregular with kernels that vary with input. This crate rebuilds each
//! benchmark as a sequence of [`KernelCharacteristics`] whose scaling
//! classes and inter-kernel throughput phases reproduce the behaviours the
//! paper's evaluation hinges on (Figures 3–4): Spmv's high→low throughput
//! transitions, kmeans' low→high transition, hybridsort's input-varying
//! `mergeSortPass`, and so on.
//!
//! [`microkernels`] additionally provides the four Figure 2
//! characterization kernels (`MaxFlops`, `readGlobalMemoryCoalesced`,
//! `writeCandidates`, `astar`), and [`generator`] synthesizes arbitrarily
//! many further applications with the paper's population statistics for
//! generalization studies and governor fuzzing.
//!
//! # Examples
//!
//! ```
//! use gpm_workloads::{suite, Category};
//!
//! let all = suite();
//! assert_eq!(all.len(), 15);
//! let spmv = all.iter().find(|w| w.name() == "Spmv").unwrap();
//! assert_eq!(spmv.category(), Category::IrregularNonRepeating);
//! assert_eq!(spmv.len(), 30); // A10 B10 C10
//! ```

pub mod extended;
pub mod generator;
pub mod microkernels;
pub mod suite;
pub mod workload;

pub use extended::extended_suite;
pub use generator::{generate_population, generate_workload, GeneratorParams};
pub use microkernels::{astar, max_flops, read_global_memory_coalesced, write_candidates};
pub use suite::{suite, workload_by_name, SUITE};
pub use workload::{Category, Workload};

/// Re-export: the kernel description type workloads are built from.
pub use gpm_sim::KernelCharacteristics;
