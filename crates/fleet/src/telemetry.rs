//! Fleet telemetry: per-job and per-shard reports plus the fleet-level
//! rollup.
//!
//! Reports are plain serializable values assembled in shard order, so the
//! serialized [`FleetReport`] is the byte-identity artifact the
//! determinism suite diffs across worker counts.

use gpm_harness::{Comparison, SchemeOutcome};
use gpm_telemetry::TelemetrySnapshot;
use gpm_trace::TraceSummary;
use serde::{Deserialize, Serialize};

/// One evaluated (workload, scheme) pair on one shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobReport {
    /// Workload name.
    pub workload: String,
    /// Scheme display label.
    pub scheme: String,
    /// Scheme wall-clock time, seconds (kernels + overheads).
    pub wall_time_s: f64,
    /// Scheme chip-wide energy, joules.
    pub energy_j: f64,
    /// Work done, giga-instructions.
    pub ginstructions: f64,
    /// Chip-wide energy savings vs the shard's Turbo Core baseline, %.
    pub energy_savings_pct: f64,
    /// Wall-clock speedup vs the baseline.
    pub speedup: f64,
}

impl JobReport {
    /// Builds the report from an evaluated outcome.
    pub fn from_outcome(out: &SchemeOutcome) -> JobReport {
        let cmp = Comparison::between(&out.baseline, &out.measured);
        JobReport {
            workload: out.measured.workload.clone(),
            scheme: out.label.to_string(),
            wall_time_s: out.measured.wall_time_s(),
            energy_j: out.measured.total_energy_j(),
            ginstructions: out.measured.ginstructions,
            energy_savings_pct: cmp.energy_savings_pct,
            speedup: cmp.speedup,
        }
    }
}

/// Everything one shard produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Stable shard index.
    pub shard_id: usize,
    /// Device label from the plan.
    pub device: String,
    /// Arrival offset from the plan, seconds.
    pub arrival_offset_s: f64,
    /// Per-job results, in admission order.
    pub jobs: Vec<JobReport>,
    /// Simulated busy time: sum of job wall-clock times, seconds.
    pub busy_time_s: f64,
    /// Shard chip-wide energy, joules.
    pub energy_j: f64,
    /// Shard work done, giga-instructions.
    pub ginstructions: f64,
    /// Turbo Core baselines this shard resolved, computed or served from
    /// the shared cache alike (`trace.baseline_resolutions`; which of
    /// the two depends only on worker scheduling).
    pub baseline_resolutions: u64,
    /// The shard's merged decision-level trace counters.
    pub trace: TraceSummary,
    /// Snapshot of the shard's private telemetry registry, populated when
    /// the service ran with [`crate::FleetService::with_telemetry`]. Span
    /// rows carry wall-clock timings, which are not deterministic, so
    /// this field is excluded from the serialized artifact to keep
    /// [`FleetReport::to_artifact_json`] byte-identical across worker
    /// counts and with/without registries live.
    #[serde(skip)]
    pub telemetry: Option<TelemetrySnapshot>,
}

impl ShardReport {
    /// Simulated completion time of the shard's last job (arrival offset
    /// plus busy time), seconds.
    pub fn completion_s(&self) -> f64 {
        self.arrival_offset_s + self.busy_time_s
    }
}

/// Fleet-level rollup across every shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetRollup {
    /// Shards executed.
    pub shards: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Total chip-wide energy, joules.
    pub energy_j: f64,
    /// Total work done, giga-instructions.
    pub ginstructions: f64,
    /// Simulated makespan: latest shard completion, seconds.
    pub makespan_s: f64,
    /// Fleet throughput: total giga-instructions / makespan.
    pub throughput_gips: f64,
    /// Fail-safe fallbacks observed fleet-wide.
    pub fail_safe_entries: u64,
    /// Faults injected fleet-wide.
    pub fault_injections: u64,
    /// All shard trace summaries merged in shard order.
    pub trace: TraceSummary,
    /// All per-shard telemetry snapshots merged in shard order (present
    /// when the service ran with a registry installed). Excluded from
    /// the serialized artifact for the same reason as
    /// [`ShardReport::telemetry`].
    #[serde(skip)]
    pub telemetry: Option<TelemetrySnapshot>,
}

impl FleetRollup {
    /// Rolls up shard reports (assumed sorted by `shard_id`).
    pub fn from_shards(shards: &[ShardReport]) -> FleetRollup {
        let mut trace = TraceSummary::default();
        let mut telemetry: Option<TelemetrySnapshot> = None;
        let mut energy_j = 0.0;
        let mut ginstructions = 0.0;
        let mut makespan_s = 0.0f64;
        let mut jobs = 0;
        for s in shards {
            trace.merge(&s.trace);
            if let Some(snap) = &s.telemetry {
                telemetry
                    .get_or_insert_with(TelemetrySnapshot::default)
                    .merge(snap);
            }
            energy_j += s.energy_j;
            ginstructions += s.ginstructions;
            makespan_s = makespan_s.max(s.completion_s());
            jobs += s.jobs.len();
        }
        FleetRollup {
            shards: shards.len(),
            jobs,
            energy_j,
            ginstructions,
            makespan_s,
            throughput_gips: if makespan_s > 0.0 {
                ginstructions / makespan_s
            } else {
                0.0
            },
            fail_safe_entries: trace.fail_safe_events,
            fault_injections: trace.fault_injections,
            trace,
            telemetry,
        }
    }
}

/// The full fleet artifact: scenario identity, per-shard reports, and
/// the rollup. Serialized bytes of this value are the determinism
/// contract — identical for any worker count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario seed.
    pub seed: u64,
    /// Per-shard reports, sorted by `shard_id`.
    pub shards: Vec<ShardReport>,
    /// Fleet-level rollup.
    pub rollup: FleetRollup,
}

impl FleetReport {
    /// The canonical serialized artifact (pretty JSON, stable field
    /// order) used for byte-identity diffs and `results/` emission.
    pub fn to_artifact_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(id: usize, offset: f64, busy: f64, energy: f64, gi: f64) -> ShardReport {
        ShardReport {
            shard_id: id,
            device: format!("apu-{id:02}"),
            arrival_offset_s: offset,
            jobs: vec![JobReport {
                workload: "w".into(),
                scheme: "s".into(),
                wall_time_s: busy,
                energy_j: energy,
                ginstructions: gi,
                energy_savings_pct: 0.0,
                speedup: 1.0,
            }],
            busy_time_s: busy,
            energy_j: energy,
            ginstructions: gi,
            baseline_resolutions: 1,
            trace: TraceSummary::default(),
            telemetry: None,
        }
    }

    #[test]
    fn rollup_totals_energy_work_and_makespan() {
        let shards = vec![shard(0, 0.0, 2.0, 10.0, 4.0), shard(1, 0.5, 1.0, 6.0, 2.0)];
        let r = FleetRollup::from_shards(&shards);
        assert_eq!(r.shards, 2);
        assert_eq!(r.jobs, 2);
        assert!((r.energy_j - 16.0).abs() < 1e-12);
        assert!((r.ginstructions - 6.0).abs() < 1e-12);
        // Shard 0 completes at 2.0 s, shard 1 at 1.5 s.
        assert!((r.makespan_s - 2.0).abs() < 1e-12);
        assert!((r.throughput_gips - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rollup_of_empty_fleet_is_zero() {
        let r = FleetRollup::from_shards(&[]);
        assert_eq!(r.shards, 0);
        assert_eq!(r.jobs, 0);
        assert_eq!(r.throughput_gips, 0.0);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let shards = vec![shard(0, 0.0, 1.0, 5.0, 3.0)];
        let report = FleetReport {
            scenario: "t".into(),
            seed: 1,
            rollup: FleetRollup::from_shards(&shards),
            shards,
        };
        let json = report.to_artifact_json();
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
