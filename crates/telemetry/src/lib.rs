//! Fleet-wide production telemetry: labelled counters plus a
//! hierarchical span profiler, with Prometheus / chrome-trace /
//! flamegraph exporters.
//!
//! Where `gpm-trace` answers *what did the governor decide* (a typed
//! per-decision event stream, reduced to `TraceSummary` with its
//! decision-latency and error histograms), this crate answers *where
//! does the time go*: phase attribution through spans, plus the few
//! counters that have no trace event behind them. Each fact lives in
//! one ledger — dispatches, runs and decision latencies are the
//! trace's, never repeated here. The two layers share merge semantics:
//! per-shard snapshots fold into fleet rollups exactly like
//! `TraceSummary::merge`.
//!
//! # Layers
//!
//! * [`registry`] — the [`Telemetry`] handle: interned, optionally
//!   labelled counters striped across [`STRIPES`] atomic cells so
//!   concurrent writers never contend on one cache line;
//!   [`TelemetrySnapshot`] freezes the registry into a serializable,
//!   mergeable value.
//! * [`mod@span`] — RAII span guards ([`Telemetry::span`] or the free
//!   [`span()`] routed through the thread's *current* handle) recording
//!   count, total, and **self** time (total minus child spans) into
//!   per-thread span trees — the hot path takes no lock and allocates
//!   nothing once a span path has been seen.
//! * [`export`] — three renderers over a snapshot: Prometheus text
//!   exposition (plus [`export::validate_prometheus`]), chrome://tracing
//!   JSON (loadable in Perfetto), and folded stacks for flamegraphs.
//!
//! # Wiring
//!
//! The harness's `ExecEnv::with_telemetry` installs a handle as replay
//! middleware; deeper layers (context build, forest fit, the governors'
//! searches) emit spans through the thread-current handle, so
//! instrumented library code needs no plumbing:
//!
//! ```
//! use gpm_telemetry::{span, Telemetry};
//!
//! let t = Telemetry::new();
//! {
//!     let _enter = t.enter();              // make `t` current on this thread
//!     let _outer = span("xp.context_build");
//!     let _inner = span("rf.fit");         // child of xp.context_build
//! }
//! t.counter("gpm_jobs_total").add(3);
//! let snap = t.snapshot();
//! assert_eq!(snap.counter("gpm_jobs_total"), Some(3));
//! assert_eq!(snap.span("xp.context_build").unwrap().count, 1);
//! assert!(snap.to_prometheus().contains("gpm_jobs_total 3"));
//! ```
//!
//! Telemetry is strictly read-only observability: installing or removing
//! a handle never changes a governor decision (pinned by the
//! `execenv_equivalence` and `fleet_determinism` suites), and measured
//! overhead on the steady-state MPC hot path is gated below 5% by the
//! registered `telemetry_overhead` experiment (`reproduce --filter
//! telemetry_overhead`).

#![warn(missing_docs)]

pub mod export;
pub mod registry;
pub mod span;

pub use export::{validate_prometheus, PromStats};
pub use registry::{
    Counter, MetricData, MetricValue, SpanRow, Telemetry, TelemetrySnapshot, STRIPES,
};
pub use span::{span, EnterGuard, SpanGuard};
