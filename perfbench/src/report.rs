//! The metric catalogue (it must match `BENCHMARK.json`), the result a
//! workload hands back, and the small statistics the workloads share.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports each of them with tracing
/// off (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("decisions_per_s", "1/s"),
    ("mpc_energy_savings_pct", "%"),
    ("mpc_perf_loss_pct", "%"),
    ("fail_safe_pct", "%"),
    ("rf_time_mape_pct", "%"),
    ("rf_power_mape_pct", "%"),
];

/// Registry names of the reproduction's experiments, one
/// `xp.<name>.ms` per-layer metric each.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "table4",
    "fig2",
    "fig3",
    "fig4",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "model_accuracy",
    "search_cost",
    "horizon_ablation",
    "search_order_ablation",
    "window_solver_ablation",
    "alpha_sweep",
    "overhead_hiding",
    "transition_cost",
    "generalization",
    "extended_suite",
    "stability",
    "robustness",
    "baselines",
    "export_campaign",
    "fleet_scaling",
    "telemetry_overhead",
];

/// Per-layer metrics reported by the traced run (`--trace 1`), other than
/// the `xp.<experiment>.ms` family.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("model.predict_batch.calls", "count"),
    ("model.candidates", "count"),
    ("model.ns_per_candidate", "ns"),
    ("model.predict_ms", "ms"),
    ("model.fit_ms", "ms"),
    ("sim.campaign_ms", "ms"),
    ("governors.select.calls", "count"),
    ("governors.select.self_ms", "ms"),
    ("governors.observe_ms", "ms"),
    ("governors.candidates_per_decision", "count"),
    ("governors.hill_climb_ms", "ms"),
    ("mpc.mean_horizon", "count"),
    ("sim.evaluate.calls", "count"),
    ("sim.evaluate.ns_per_call", "ns"),
    ("harness.construct_ms", "ms"),
    ("harness.run.self_ms", "ms"),
    ("harness.dispatch_ms", "ms"),
    ("harness.baseline.calls", "count"),
    ("harness.baseline.misses", "count"),
    ("harness.baseline.ms", "ms"),
    ("fleet.worker_busy_ms.w0", "ms"),
    ("fleet.worker_busy_ms.w1", "ms"),
    ("fleet.imbalance", "ratio"),
    ("fleet.shard_ms_p50", "ms"),
    ("fleet.shard_ms_max", "ms"),
    ("fleet.baseline_resolutions", "count"),
    ("fleet.fault_injections", "count"),
    ("fleet.fail_safe_entries", "count"),
    ("fleet.trace_decisions", "count"),
    ("xp.critical_path_ms", "ms"),
    ("xp.parallel_efficiency", "ratio"),
    ("xp.rf_fit_ms", "ms"),
    ("xp.rf_fit_count", "count"),
    ("xp.unattributed_ms", "ms"),
    ("coverage_pct", "%"),
];

/// The §VI-D accuracy bands the context's forests are held to.
pub const TIME_MAPE_BAND_PCT: f64 = 25.0;
pub const POWER_MAPE_BAND_PCT: f64 = 12.0;

/// Coverage below this share of wall time is flagged.
pub const COVERAGE_FLOOR_PCT: f64 = 90.0;

/// What one benchmark run found.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Records one operation and whether it produced the expected output.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("FAILED: {}", what());
        }
    }

    /// Sets a metric of the catalogue.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue: a typo would otherwise
    /// silently report 0 for the intended metric.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            catalogue(true)
                .chain(catalogue(false))
                .any(|(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name.to_string(), value);
    }

    /// Checks that a simulated metric repeats exactly between the
    /// untraced and traced phases of a run.
    pub fn check_same(&mut self, name: &str, untraced: f64, traced: f64) {
        self.check(untraced.to_bits() == traced.to_bits(), || {
            format!("simulated {name} differs: untraced {untraced}, traced {traced}")
        });
    }

    /// Prints one line per metric, then the result line: a JSON object
    /// holding the end-to-end metrics (`traced == false`) or the
    /// per-layer ones. A per-layer metric this workload does not exercise
    /// reads 0 and is marked `n/a`.
    pub fn print(&self, traced: bool) {
        let mut fields = Vec::new();
        for (name, unit) in catalogue(traced) {
            let (value, note) = match self.values.get(&name) {
                Some(&v) => (v, ""),
                None if traced => (0.0, "  (n/a: not exercised by this workload)"),
                None => panic!("end-to-end metric {name} was not measured"),
            };
            println!("metric {name} = {value} {unit}{note}");
            assert!(value.is_finite(), "metric {name} = {value} is not a number");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

/// The metric names and units of one result line.
fn catalogue(traced: bool) -> Box<dyn Iterator<Item = (String, &'static str)>> {
    if traced {
        Box::new(
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .chain(EXPERIMENTS.iter().map(|e| (format!("xp.{e}.ms"), "ms"))),
        )
    } else {
        Box::new(END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)))
    }
}

/// Prints a metric that is not in the result line: one that only this
/// workload defines, or a comparison between phases.
pub fn info(name: &str, value: f64, unit: &str) {
    println!("info {name} = {value} {unit}");
}

/// Prints the tracing overhead of a run: a metric of the untraced phase
/// next to the same metric of the traced phase.
pub fn overhead(name: &str, untraced: f64, traced: f64, unit: &str) {
    println!(
        "overhead {name}: untraced {untraced} {unit}, traced {traced} {unit} ({:+.2}%)",
        100.0 * ratio(traced - untraced, untraced)
    );
}

/// Prints the share of a phase's wall time the per-layer timers cover,
/// flagging it below [`COVERAGE_FLOOR_PCT`].
pub fn coverage(report: &mut Report, what: &str, covered_ns: f64, wall_ns: f64) {
    let pct = 100.0 * ratio(covered_ns, wall_ns);
    let flag = if pct < COVERAGE_FLOOR_PCT {
        "  LOW: below the 90% floor"
    } else {
        ""
    };
    println!("coverage {what}: {pct:.1}% of wall time{flag}");
    report.set("coverage_pct", pct);
}

/// Totals of a measured phase over all its units of work (a suite pass, a
/// fleet scenario, a `run_suite` call).
#[derive(Debug, Clone, Copy)]
pub struct Totals {
    /// Host seconds of all units.
    pub seconds: f64,
    /// Mean host time of one unit, seconds.
    pub unit_s: f64,
    /// Work (decisions) per host second.
    pub rate: f64,
}

impl Totals {
    /// The totals of `units`, each `(host seconds, work done)`.
    pub fn of(units: &[(f64, f64)]) -> Totals {
        assert!(!units.is_empty(), "a measured phase has at least one unit");
        let seconds: f64 = units.iter().map(|u| u.0).sum();
        let work: f64 = units.iter().map(|u| u.1).sum();
        Totals {
            seconds,
            unit_s: seconds / units.len() as f64,
            rate: work / seconds,
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile `q` in [0, 1] of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Available parallelism of the host, as the program's thread pools see it.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Splitmix64: the benchmark's only source of randomness, so inputs are a
/// pure function of the workload seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
