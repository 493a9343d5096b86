//! Fleet-wide production telemetry: a low-overhead metrics registry plus
//! a hierarchical span profiler, with Prometheus / chrome-trace /
//! flamegraph exporters.
//!
//! Where `gpm-trace` answers *what did the governor decide* (a typed
//! per-decision event stream), this crate answers *where
//! does the time go and how is the service behaving* — the
//! machine-scrapable counters, latency distributions, and phase
//! attribution a long-running fleet needs. The two layers are
//! complementary and share merge semantics: per-shard snapshots fold into
//! fleet rollups exactly like `TraceSummary::merge`.
//!
//! # Layers
//!
//! * [`registry`] — the [`Telemetry`] handle: interned
//!   ([`MetricId`]-keyed) counters, gauges, fixed-bucket histograms, and
//!   log2-HDR histograms, all striped across [`STRIPES`] atomic cells so
//!   concurrent writers on the hot path never contend on one cache line;
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
//! middleware; deeper layers (forest fit, flat-forest specialization, the
//! governors' searches) emit spans through the thread-current handle, so
//! instrumented library code needs no plumbing:
//!
//! ```
//! use gpm_telemetry::{span, Telemetry};
//!
//! let t = Telemetry::new();
//! {
//!     let _enter = t.enter();              // make `t` current on this thread
//!     let _outer = span("search.hill_climb");
//!     let _inner = span("flat.specialize"); // child of hill_climb
//! }
//! t.counter("gpm_decisions_total").add(3);
//! let snap = t.snapshot();
//! assert_eq!(snap.counter("gpm_decisions_total"), Some(3));
//! assert_eq!(snap.span("search.hill_climb").unwrap().count, 1);
//! assert!(snap.to_prometheus().contains("gpm_decisions_total 3"));
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
    Counter, Gauge, Histo, Log2Histo, MetricData, MetricId, MetricValue, SpanRow, Telemetry,
    TelemetrySnapshot, STRIPES,
};
pub use span::{span, EnterGuard, SpanGuard};
