//! Suite-wide scheme evaluation shared by the experiment
//! implementations (previously copy-pasted across the report binaries).

use gpm_harness::env::ExecEnv;
use gpm_harness::metrics::{summarize, Comparison};
use gpm_harness::{EvalContext, Scheme, SchemeOutcome};
use gpm_workloads::{suite, Workload};

/// One evaluated benchmark: outcome plus baseline comparison.
pub struct BenchRow {
    /// The workload evaluated.
    pub workload: Workload,
    /// Full outcome (baseline, profiling, measured, stats).
    pub outcome: SchemeOutcome,
    /// Scheme vs. Turbo Core baseline.
    pub vs_baseline: Comparison,
}

/// Evaluates `scheme` across the full suite under `env` — the traced /
/// faulted report paths layer their middleware here.
pub fn evaluate_suite_with(env: &ExecEnv, ctx: &EvalContext, scheme: Scheme) -> Vec<BenchRow> {
    suite()
        .into_iter()
        .map(|workload| {
            eprintln!("  {} on {} ...", scheme.label(), workload.name());
            let outcome = env.evaluate(ctx, &workload, scheme);
            let vs_baseline = Comparison::between(&outcome.baseline, &outcome.measured);
            BenchRow {
                workload,
                outcome,
                vs_baseline,
            }
        })
        .collect()
}

/// Suite-wide averages: arithmetic-mean savings, geometric-mean speedup.
pub fn suite_average(rows: &[BenchRow]) -> Comparison {
    let cs: Vec<Comparison> = rows.iter().map(|r| r.vs_baseline).collect();
    summarize(&cs)
}

/// Comparison of two scheme evaluations of the *same* suite, per
/// benchmark: `a` relative to `b` (energy savings of a over b, speedup of
/// a over b). Used by Figure 9 (MPC vs PPK).
pub fn relative_rows(a: &[BenchRow], b: &[BenchRow]) -> Vec<(String, Comparison)> {
    a.iter()
        .zip(b.iter())
        .map(|(ra, rb)| {
            assert_eq!(
                ra.workload.name(),
                rb.workload.name(),
                "suite order mismatch"
            );
            let c = Comparison::between(&rb.outcome.measured, &ra.outcome.measured);
            (ra.workload.name().to_string(), c)
        })
        .collect()
}

/// Serializable per-benchmark comparison rows for experiment artifacts.
pub fn rows_details(rows: &[BenchRow]) -> serde_json::Value {
    use serde_json::Value;
    Value::Seq(
        rows.iter()
            .map(|r| {
                Value::Map(vec![
                    (
                        Value::Str("benchmark".into()),
                        Value::Str(r.workload.name().to_string()),
                    ),
                    (
                        Value::Str("energy_savings_pct".into()),
                        Value::F64(r.vs_baseline.energy_savings_pct),
                    ),
                    (
                        Value::Str("gpu_energy_savings_pct".into()),
                        Value::F64(r.vs_baseline.gpu_energy_savings_pct),
                    ),
                    (
                        Value::Str("speedup".into()),
                        Value::F64(r.vs_baseline.speedup),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_harness::EvalOptions;
    use gpm_workloads::workload_by_name;

    #[test]
    fn evaluate_one_workload_end_to_end() {
        let ctx = EvalContext::build(EvalOptions::fast());
        let w = workload_by_name("NBody").unwrap();
        let outcome = ExecEnv::new().evaluate(&ctx, &w, Scheme::TheoreticallyOptimal);
        let c = Comparison::between(&outcome.baseline, &outcome.measured);
        assert!(c.energy_savings_pct > 0.0);
    }

    #[test]
    fn relative_rows_requires_same_order() {
        let ctx = EvalContext::build(EvalOptions::fast());
        let w = workload_by_name("NBody").unwrap();
        let a = vec![BenchRow {
            workload: w.clone(),
            outcome: ExecEnv::new().evaluate(&ctx, &w, Scheme::TurboCore),
            vs_baseline: Comparison {
                energy_savings_pct: 0.0,
                gpu_energy_savings_pct: 0.0,
                cpu_energy_savings_pct: 0.0,
                speedup: 1.0,
            },
        }];
        let rel = relative_rows(&a, &a);
        assert_eq!(rel.len(), 1);
        assert!((rel[0].1.speedup - 1.0).abs() < 1e-9);
    }
}
