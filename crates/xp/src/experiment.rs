//! The experiment abstraction: a registered, machine-checkable unit of
//! the paper reproduction.
//!
//! Every figure, table, and ablation is an [`Experiment`]: a name, the
//! paper exhibit it reproduces, a run function producing a rendered
//! report plus named scalar [`Metric`]s, and a set of [`Expectation`]s —
//! recorded paper values and implementation golden values with tolerance
//! bands. The `reproduce` binary schedules experiments over a shared
//! [`EvalContext`] and fails when any metric drifts outside its band.

use gpm_harness::env::ExecEnv;
use gpm_harness::{EvalContext, EvalOptions, ForestCache};
use gpm_telemetry::{Telemetry, TelemetrySnapshot};
use gpm_trace::{AggregateSink, TraceSink, TraceSummary};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Evaluation depth: `Fast` uses the reduced measurement campaign and
/// shrunk sweeps (CI smoke), `Full` the paper-fidelity protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Reduced campaign + shrunk sweeps; seconds per experiment.
    Fast,
    /// Paper-fidelity protocol; the numbers recorded in `EXPERIMENTS.md`.
    Full,
}

impl Mode {
    /// Stable lowercase name used in artifacts and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Fast => "fast",
            Mode::Full => "full",
        }
    }

    /// Where this mode's experiment records live, relative to the
    /// repository root: `reproduce`'s default output and the golden
    /// ledger the registry reads.
    pub fn record_dir(self) -> &'static str {
        match self {
            Mode::Fast => "results/fast/xp",
            Mode::Full => "results/xp",
        }
    }

    /// The [`EvalOptions`] matching this mode.
    pub fn options(self) -> EvalOptions {
        match self {
            Mode::Fast => EvalOptions::fast(),
            Mode::Full => EvalOptions::default(),
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One named scalar an experiment reports — the machine-checkable
/// counterpart of a table cell or figure bar.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Stable metric name, e.g. `mpc_energy_savings_pct`.
    pub name: String,
    /// Measured value.
    pub value: f64,
}

/// Shorthand [`Metric`] constructor.
pub fn metric(name: impl Into<String>, value: f64) -> Metric {
    Metric {
        name: name.into(),
        value,
    }
}

/// Where an expected value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Source {
    /// The published number (generous tolerance: the substrate is an
    /// analytical simulator, not the authors' A10-7850K).
    Paper,
    /// A recorded value of this implementation (tight tolerance: the
    /// pipeline is deterministic, so drift means a behaviour change).
    Golden,
}

impl Source {
    /// Stable lowercase name used in artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Paper => "paper",
            Source::Golden => "golden",
        }
    }
}

/// A tolerance band on one metric: the regression gate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Expectation {
    /// Metric this expectation constrains.
    pub metric: &'static str,
    /// Expected value.
    pub expected: f64,
    /// Absolute tolerance: the gate fails when
    /// `|actual - expected| > tol`.
    pub tol: f64,
    /// Paper or golden provenance.
    pub source: Source,
    /// Mode the expectation applies to; `None` = both modes.
    pub mode: Option<Mode>,
}

impl Expectation {
    /// Whether this expectation is checked under `mode`.
    pub fn applies(&self, mode: Mode) -> bool {
        self.mode.is_none() || self.mode == Some(mode)
    }

    /// A paper-value expectation checked only in full mode (fast mode
    /// shrinks campaigns and sweeps, so paper bands only bind at paper
    /// fidelity).
    pub fn paper(metric: &'static str, expected: f64, tol: f64) -> Expectation {
        Expectation {
            metric,
            expected,
            tol,
            source: Source::Paper,
            mode: Some(Mode::Full),
        }
    }
}

/// The outcome of checking one [`Expectation`] against a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateResult {
    /// Metric checked.
    pub metric: String,
    /// Provenance of the expected value.
    pub source: Source,
    /// Expected value.
    pub expected: f64,
    /// Absolute tolerance band.
    pub tol: f64,
    /// Measured value (`None` when the experiment did not report the
    /// metric — itself a failure).
    pub actual: Option<f64>,
    /// Whether the metric landed inside the band.
    pub pass: bool,
}

/// Checks `expectations` applicable under `mode` against `metrics`.
pub fn check_gates(
    expectations: &[Expectation],
    metrics: &[Metric],
    mode: Mode,
) -> Vec<GateResult> {
    expectations
        .iter()
        .filter(|e| e.applies(mode))
        .map(|e| {
            let actual = metrics.iter().find(|m| m.name == e.metric).map(|m| m.value);
            let pass = actual.is_some_and(|a| (a - e.expected).abs() <= e.tol && a.is_finite());
            GateResult {
                metric: e.metric.to_string(),
                source: e.source,
                expected: e.expected,
                tol: e.tol,
                actual,
                pass,
            }
        })
        .collect()
}

/// What one experiment run produces: the human-readable report (the old
/// binary's stdout), the gated metrics, and structured detail rows for
/// the JSON artifact.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Rendered report text.
    pub text: String,
    /// Named scalars the registry's expectations gate on.
    pub metrics: Vec<Metric>,
    /// Structured per-row detail included in the artifact (a JSON
    /// object; `Value::Null` when the text report says it all).
    pub details: Value,
}

impl ExperimentOutput {
    /// An output with text and metrics but no structured details.
    pub fn new(text: String, metrics: Vec<Metric>) -> ExperimentOutput {
        ExperimentOutput {
            text,
            metrics,
            details: Value::Null,
        }
    }

    /// Attaches structured details.
    #[must_use]
    pub fn with_details(mut self, details: Value) -> ExperimentOutput {
        self.details = details;
        self
    }
}

/// The per-run environment handed to an experiment: the shared
/// [`EvalContext`] (when the experiment declares it needs one), the
/// run's [`ForestCache`], the evaluation [`Mode`], the directory for its
/// text artifacts, and a per-experiment trace aggregate every scheme
/// evaluation feeds.
pub struct XpEnv<'a> {
    mode: Mode,
    ctx: Option<&'a EvalContext>,
    forests: &'a ForestCache,
    artifact_dir: &'a Path,
    sink: Arc<AggregateSink>,
    telemetry: Telemetry,
}

impl<'a> XpEnv<'a> {
    /// Builds an environment for one experiment run; `forests` is the
    /// run's cache of trained forests, `artifact_dir` where its text
    /// artifacts go.
    pub fn new(
        mode: Mode,
        ctx: Option<&'a EvalContext>,
        forests: &'a ForestCache,
        artifact_dir: &'a Path,
    ) -> XpEnv<'a> {
        XpEnv {
            mode,
            ctx,
            forests,
            artifact_dir,
            sink: Arc::new(AggregateSink::new()),
            telemetry: Telemetry::new(),
        }
    }

    /// The path of the text artifact `file` (a figure, a CSV, a
    /// telemetry dump) of this run.
    pub fn artifact(&self, file: &str) -> PathBuf {
        self.artifact_dir.join(file)
    }

    /// The evaluation mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Whether the reduced protocol was requested.
    pub fn is_fast(&self) -> bool {
        self.mode == Mode::Fast
    }

    /// [`EvalOptions`] matching the mode — for experiments that build
    /// their own specialized contexts (noise-seed sweeps, transition-cost
    /// sensitivity).
    pub fn options(&self) -> EvalOptions {
        self.mode.options()
    }

    /// Builds a context for `options`: the campaign runs, and the forest
    /// fit comes from the run's [`ForestCache`] when an identical
    /// training input was fitted before in this run.
    pub fn context(&self, options: EvalOptions) -> EvalContext {
        let _span = gpm_telemetry::span("xp.context_build");
        EvalContext::build_cached(options, self.forests)
    }

    /// The run's cache of trained forests.
    pub fn forests(&self) -> &'a ForestCache {
        self.forests
    }

    /// The shared evaluation context.
    ///
    /// # Panics
    ///
    /// Panics when the experiment was registered with
    /// `needs_ctx: false` — static-table experiments have no context.
    pub fn ctx(&self) -> &'a EvalContext {
        self.ctx
            .expect("experiment was registered without a shared context")
    }

    /// An [`ExecEnv`] wired to this experiment's trace aggregate and
    /// telemetry registry. Neither changes decisions (property- and
    /// byte-identity-tested), so routing every evaluation through them
    /// is free observability.
    pub fn exec(&self) -> ExecEnv {
        ExecEnv::new()
            .with_trace(self.sink.clone() as Arc<dyn TraceSink>)
            .with_telemetry(self.telemetry.clone())
    }

    /// The per-experiment trace summary accumulated so far.
    pub fn trace_summary(&self) -> TraceSummary {
        self.sink.summary()
    }

    /// The per-experiment telemetry registry (metrics + span profiles
    /// for every evaluation routed through [`XpEnv::exec`]; the runner
    /// also scopes the whole run under an `xp.experiment` span).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Snapshot of the per-experiment registry accumulated so far.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }
}

/// A registered experiment.
pub struct Experiment {
    /// Stable registry name (also the artifact stem), e.g. `fig8`.
    pub name: &'static str,
    /// Paper exhibit reproduced, e.g. `Figure 8` — or `extension` for
    /// studies beyond the paper.
    pub paper_ref: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Whether the runner must provide the shared [`EvalContext`].
    pub needs_ctx: bool,
    /// The run function.
    pub run: fn(&XpEnv) -> ExperimentOutput,
    /// Tolerance bands gating this experiment.
    pub expectations: Vec<Expectation>,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("name", &self.name)
            .field("paper_ref", &self.paper_ref)
            .field("needs_ctx", &self.needs_ctx)
            .field("expectations", &self.expectations.len())
            .finish()
    }
}

/// FNV-1a hash of the strings that define a run's identity — used to
/// match checkpointed artifacts on resume.
pub fn fingerprint(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so ["ab","c"] != ["a","bc"].
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_check_band_membership_and_missing_metrics() {
        let exps = vec![
            Expectation {
                metric: "a",
                expected: 10.0,
                tol: 1.0,
                source: Source::Golden,
                mode: None,
            },
            Expectation {
                metric: "missing",
                expected: 1.0,
                tol: 1.0,
                source: Source::Golden,
                mode: None,
            },
            Expectation::paper("a", 50.0, 1.0),
        ];
        let metrics = vec![metric("a", 10.5)];
        let fast = check_gates(&exps, &metrics, Mode::Fast);
        // The paper expectation only binds in full mode.
        assert_eq!(fast.len(), 2);
        assert!(fast[0].pass);
        assert!(!fast[1].pass && fast[1].actual.is_none());
        let full = check_gates(&exps, &metrics, Mode::Full);
        assert_eq!(full.len(), 3);
        assert!(!full[2].pass, "paper band at 50 must fail for actual 10.5");
    }

    #[test]
    fn non_finite_actuals_fail_even_inside_band() {
        let exps = vec![Expectation {
            metric: "a",
            expected: f64::NAN,
            tol: f64::INFINITY,
            source: Source::Golden,
            mode: None,
        }];
        let gates = check_gates(&exps, &[metric("a", f64::NAN)], Mode::Fast);
        assert!(!gates[0].pass);
    }

    #[test]
    fn fingerprint_separates_boundaries() {
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
        assert_eq!(fingerprint(&["x", "y"]), fingerprint(&["x", "y"]));
    }

    #[test]
    fn mode_options_match_depth() {
        assert_eq!(
            Mode::Fast.options().train_config_stride,
            EvalOptions::fast().train_config_stride
        );
        assert_eq!(
            Mode::Full.options().train_config_stride,
            EvalOptions::default().train_config_stride
        );
    }
}
