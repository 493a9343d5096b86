//! The scenario DSL: a declarative, fully seeded description of what a
//! fleet run executes.
//!
//! A [`FleetScenario`] is a list of [`ShardPlan`]s — one per simulated
//! device — each carrying a staggered arrival offset, an ordered job
//! queue of (workload, scheme) pairs, and its own deterministic
//! [`FaultPlan`]. Everything is a pure function of the scenario seed, so
//! a scenario value *is* the reproduction recipe: replaying it anywhere
//! yields byte-identical fleet results.

use gpm_faults::FaultPlan;
use gpm_harness::Scheme;
use gpm_mpc::HorizonMode;
use gpm_workloads::{generate_workload, GeneratorParams, Workload, SUITE};
use serde::{Deserialize, Serialize};

/// Serializable scheme selector — the subset of [`Scheme`] that makes
/// sense as a per-device fleet policy (parameter-free constructors so
/// scenarios stay declarative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchemeSpec {
    /// The shipping Turbo Core policy.
    TurboCore,
    /// PPK with the trained Random Forest.
    PpkRf,
    /// MPC with the Random Forest and the adaptive horizon (the paper's
    /// full system — the fleet default).
    MpcAdaptive,
    /// MPC with the Random Forest over the full remaining horizon.
    MpcFull,
}

impl SchemeSpec {
    /// The concrete [`Scheme`] this spec evaluates.
    pub fn to_scheme(self) -> Scheme {
        match self {
            SchemeSpec::TurboCore => Scheme::TurboCore,
            SchemeSpec::PpkRf => Scheme::PpkRf,
            SchemeSpec::MpcAdaptive => Scheme::MpcRf {
                horizon: HorizonMode::default(),
            },
            SchemeSpec::MpcFull => Scheme::MpcRf {
                horizon: HorizonMode::Full,
            },
        }
    }

    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            SchemeSpec::TurboCore => "TurboCore",
            SchemeSpec::PpkRf => "PPK(RF)",
            SchemeSpec::MpcAdaptive => "MPC(RF,adaptive)",
            SchemeSpec::MpcFull => "MPC(RF,full)",
        }
    }
}

/// Serializable workload selector: a named suite benchmark or a seeded
/// generated application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// One of the paper's benchmarks, by suite name.
    Named(String),
    /// A generated application with the paper's population statistics.
    Generated {
        /// Generator seed (deterministic per seed).
        seed: u64,
    },
}

impl WorkloadSpec {
    /// Materializes the workload.
    ///
    /// # Panics
    ///
    /// Panics when a named workload is not in the suite — scenarios are
    /// authored against the fixed benchmark set, so an unknown name is a
    /// scenario bug, not a runtime condition.
    pub fn materialize(&self) -> Workload {
        match self {
            WorkloadSpec::Named(name) => gpm_workloads::workload_by_name(name)
                .unwrap_or_else(|| panic!("unknown suite workload {name:?} in scenario")),
            WorkloadSpec::Generated { seed } => {
                generate_workload(&GeneratorParams::default(), *seed)
            }
        }
    }
}

/// One admission-queue entry: evaluate `scheme` on `workload`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// What to run.
    pub workload: WorkloadSpec,
    /// Which policy governs the device while running it.
    pub scheme: SchemeSpec,
}

/// Everything one simulated device executes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardPlan {
    /// Stable shard index (also the determinism sort key).
    pub shard_id: usize,
    /// Display label, e.g. `apu-03`.
    pub device: String,
    /// Simulated arrival offset before the shard's first job, seconds —
    /// models staggered job arrival across the fleet.
    pub arrival_offset_s: f64,
    /// Ordered job queue.
    pub jobs: Vec<JobSpec>,
    /// Deterministic fault schedule for this shard (zero = healthy).
    pub faults: FaultPlan,
}

/// A complete fleet scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetScenario {
    /// Scenario name (artifact stem).
    pub name: String,
    /// Root seed every derived quantity hashes from.
    pub seed: u64,
    /// Per-device plans, in shard order.
    pub shards: Vec<ShardPlan>,
}

/// Splitmix64 — the scenario builder's only randomness source, so shard
/// composition is a pure function of `(seed, shard, job)`.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FleetScenario {
    /// An empty scenario to extend with [`FleetScenario::shard`].
    pub fn new(name: impl Into<String>, seed: u64) -> FleetScenario {
        FleetScenario {
            name: name.into(),
            seed,
            shards: Vec::new(),
        }
    }

    /// Appends one shard plan (builder style).
    #[must_use]
    pub fn shard(mut self, plan: ShardPlan) -> FleetScenario {
        self.shards.push(plan);
        self
    }

    /// The canonical mixed soak scenario: `shards` devices with
    /// `jobs_per_shard` jobs each, drawing workloads round-robin from the
    /// suite interleaved with seeded generated applications, schemes
    /// rotating over every [`SchemeSpec`], arrivals staggered 10 ms per
    /// shard, and every third shard running under a mild uniform fault
    /// plan (rate 5%) while the rest stay healthy.
    ///
    /// Deterministic per `(seed, shards, jobs_per_shard)`.
    pub fn mixed(seed: u64, shards: usize, jobs_per_shard: usize) -> FleetScenario {
        let schemes = [
            SchemeSpec::MpcAdaptive,
            SchemeSpec::PpkRf,
            SchemeSpec::TurboCore,
            SchemeSpec::MpcFull,
        ];
        let mut scenario = FleetScenario::new(format!("mixed-{shards}x{jobs_per_shard}"), seed);
        for shard_id in 0..shards {
            let mut jobs = Vec::with_capacity(jobs_per_shard);
            for j in 0..jobs_per_shard {
                let draw = mix(seed ^ mix(shard_id as u64) ^ (j as u64));
                // One job in four is an out-of-suite generated app; the
                // rest cycle through the paper benchmarks.
                let workload = if draw % 4 == 3 {
                    WorkloadSpec::Generated { seed: draw >> 2 }
                } else {
                    WorkloadSpec::Named(SUITE[(draw as usize >> 2) % SUITE.len()].0.to_string())
                };
                let scheme = schemes[(draw as usize >> 32) % schemes.len()];
                jobs.push(JobSpec { workload, scheme });
            }
            let faults = if shard_id % 3 == 2 {
                FaultPlan::uniform(seed ^ (shard_id as u64).wrapping_mul(0x9e37), 0.05)
            } else {
                FaultPlan::zero(seed ^ shard_id as u64)
            };
            scenario.shards.push(ShardPlan {
                shard_id,
                device: format!("apu-{shard_id:02}"),
                arrival_offset_s: shard_id as f64 * 0.010,
                jobs,
                faults,
            });
        }
        scenario
    }

    /// Total jobs across all shards.
    pub fn total_jobs(&self) -> usize {
        self.shards.iter().map(|s| s.jobs.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_scenario_is_deterministic() {
        let a = FleetScenario::mixed(42, 8, 3);
        let b = FleetScenario::mixed(42, 8, 3);
        assert_eq!(a, b);
        assert_ne!(a, FleetScenario::mixed(43, 8, 3));
    }

    #[test]
    fn mixed_scenario_has_requested_shape() {
        let s = FleetScenario::mixed(7, 9, 4);
        assert_eq!(s.shards.len(), 9);
        assert_eq!(s.total_jobs(), 36);
        for (i, shard) in s.shards.iter().enumerate() {
            assert_eq!(shard.shard_id, i);
            assert!((shard.arrival_offset_s - i as f64 * 0.010).abs() < 1e-12);
        }
        // Every third shard is faulty, the rest healthy.
        assert!(!s.shards[2].faults.is_zero());
        assert!(s.shards[0].faults.is_zero());
        assert!(s.shards[1].faults.is_zero());
    }

    #[test]
    fn mixed_scenario_mixes_workloads_and_schemes() {
        let s = FleetScenario::mixed(1, 12, 6);
        let mut named = 0usize;
        let mut generated = 0usize;
        let mut schemes = std::collections::BTreeSet::new();
        for shard in &s.shards {
            for job in &shard.jobs {
                match &job.workload {
                    WorkloadSpec::Named(_) => named += 1,
                    WorkloadSpec::Generated { .. } => generated += 1,
                }
                schemes.insert(format!("{:?}", job.scheme));
            }
        }
        assert!(
            named > 0 && generated > 0,
            "named {named} generated {generated}"
        );
        assert!(schemes.len() >= 3, "schemes {schemes:?}");
    }

    #[test]
    fn workload_specs_materialize() {
        assert_eq!(
            WorkloadSpec::Named("Spmv".into()).materialize().name(),
            "Spmv"
        );
        let g = WorkloadSpec::Generated { seed: 99 }.materialize();
        assert!(!g.kernels().is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown suite workload")]
    fn unknown_named_workload_panics() {
        let _ = WorkloadSpec::Named("NotABenchmark".into()).materialize();
    }

    #[test]
    fn scheme_specs_map_to_schemes() {
        assert_eq!(SchemeSpec::TurboCore.to_scheme(), Scheme::TurboCore);
        assert_eq!(SchemeSpec::PpkRf.to_scheme(), Scheme::PpkRf);
        assert!(matches!(
            SchemeSpec::MpcAdaptive.to_scheme(),
            Scheme::MpcRf {
                horizon: HorizonMode::Adaptive { .. }
            }
        ));
        assert!(matches!(
            SchemeSpec::MpcFull.to_scheme(),
            Scheme::MpcRf {
                horizon: HorizonMode::Full
            }
        ));
    }

    #[test]
    fn scenario_roundtrips_through_json() {
        let s = FleetScenario::mixed(5, 4, 2);
        let json = serde_json::to_string(&s).unwrap();
        let back: FleetScenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
