//! Experiment harness: replays workloads under governors and produces the
//! paper's comparisons.
//!
//! The harness mirrors the paper's methodology (Section V): a workload's
//! kernel sequence is replayed on the simulated APU under a governor; the
//! governor's per-decision overheads are charged as CPU time/energy between
//! kernels (worst case: kernels back-to-back, no idle CPU to hide them);
//! energy, kernel time, and wall time are accumulated; and schemes are
//! compared against the AMD Turbo Core baseline run that also defines the
//! performance target of Eq. 1.
//!
//! Layers:
//!
//! * [`mod@env`] — the unified execution environment
//!   ([`env::ExecEnv`]): *the* dispatch path. One replay engine with
//!   layered middleware — a decision-level trace sink and a
//!   deterministic fault injector, both disabled no-ops by default —
//!   plus the cached Turbo Core baseline resolution and end-to-end
//!   scheme evaluation ([`env::ExecEnv::evaluate`]).
//! * [`run`] — the replay result types ([`run::RunResult`]).
//! * [`campaign`] — the measurement campaign, parallelized across worker
//!   threads (bit-identical to the sequential path).
//! * [`context`] — one-time setup shared by experiments: the simulator,
//!   the offline-trained Random Forest, the hoisted campaign space, and
//!   the per-workload baseline cache ([`context::EvalContext`]).
//! * [`forest_cache`] — forests memoized on their exact training inputs,
//!   so a run fits each distinct forest once
//!   ([`forest_cache::ForestCache`]).
//! * [`schemes`] — named scheme constructors (PPK/MPC × oracle/RF/error
//!   models, TO) evaluated through [`env::ExecEnv::evaluate`].
//! * [`metrics`] — energy-savings / speedup arithmetic and geometric means.
//! * [`amortize`] — Figure 11's re-execution amortization study.
//! * [`traces`] — Figure 2 sweeps and Figure 3 throughput traces.
//! * [`report`] — plain-text table and CSV rendering for the `fig*`
//!   binaries; [`svg`] — standalone SVG bar/line charts for the same.

pub mod amortize;
pub mod campaign;
pub mod context;
pub mod env;
pub mod forest_cache;
pub mod metrics;
pub mod report;
pub mod run;
pub mod schemes;
pub mod svg;
pub mod traces;

pub use campaign::{parallel_campaign, parallel_campaign_auto};
pub use context::{training_kernels, training_space, BaselineCacheStats, EvalContext, EvalOptions};
pub use env::ExecEnv;
pub use forest_cache::ForestCache;
pub use metrics::{energy_savings_pct, geo_mean, speedup, Comparison};
pub use run::{KernelRun, RunResult};
pub use schemes::{turbo_core_baseline, Scheme, SchemeOutcome};
