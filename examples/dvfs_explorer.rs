//! Explore the DVFS configuration space of a single kernel: full sweep,
//! energy/performance Pareto frontier, and what each search strategy finds.
//!
//! ```text
//! cargo run --release --example dvfs_explorer [kernel]
//! ```
//!
//! `kernel` is one of `compute`, `memory`, `peak`, `unscalable`
//! (default: `peak`).

use gpm::governors::search::{exhaustive_best, hill_climb, EnergyEvaluator};
use gpm::harness::report::{fmt, Table};
use gpm::hw::{ConfigSpace, HwConfig};
use gpm::sim::predictor::KernelSnapshot;
use gpm::sim::{ApuSimulator, KernelCharacteristics, OraclePredictor, SimParams};
use gpm::workloads::{astar, max_flops, read_global_memory_coalesced, write_candidates};

fn pick_kernel(arg: Option<String>) -> KernelCharacteristics {
    match arg.as_deref() {
        Some("compute") => max_flops(),
        Some("memory") => read_global_memory_coalesced(),
        Some("unscalable") => astar(),
        _ => write_candidates(),
    }
}

fn main() {
    let kernel = pick_kernel(std::env::args().nth(1));
    println!("kernel: {kernel}\n");

    let sim = ApuSimulator::noiseless();
    let space = ConfigSpace::paper_campaign();

    // Full sweep: collect (time, energy) for every configuration.
    let mut points: Vec<(HwConfig, f64, f64)> = space
        .iter()
        .map(|cfg| {
            let out = sim.evaluate(&kernel, cfg);
            (cfg, out.time_s, out.energy.total_j())
        })
        .collect();

    // Pareto frontier: no other point is both faster and cheaper.
    points.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let mut frontier: Vec<&(HwConfig, f64, f64)> = Vec::new();
    let mut best_energy = f64::INFINITY;
    for p in &points {
        if p.2 < best_energy {
            best_energy = p.2;
            frontier.push(p);
        }
    }

    let mut table = Table::new(vec!["config", "time (ms)", "energy (J)"]);
    for (cfg, t, e) in frontier.iter().take(12) {
        table.row(vec![cfg.to_string(), fmt(t * 1e3, 2), fmt(*e, 3)]);
    }
    println!(
        "energy/performance Pareto frontier ({} of {} configurations):",
        frontier.len(),
        points.len()
    );
    println!("{}", table.render());

    // What do the two search strategies find under a 10%-slack time cap?
    let out = sim.evaluate(&kernel, HwConfig::FAIL_SAFE);
    let snap = KernelSnapshot::with_truth(out.counters, HwConfig::FAIL_SAFE, kernel.clone());
    let eval = EnergyEvaluator::new(OraclePredictor::new(&sim), SimParams::noiseless());
    let cap = out.time_s * 1.10;

    let (ex, ex_evals) = exhaustive_best(&eval, &snap, &space, cap);
    let (hc, hc_stats) = hill_climb(&eval, &snap, HwConfig::FAIL_SAFE, cap);
    let hc_evals = hc_stats.evaluations;
    if let (Some(ex), Some(hc)) = (ex, hc) {
        println!("under a 10% time cap (vs fail-safe):");
        println!(
            "  exhaustive : {} — {:.3} J in {} evaluations",
            ex.config, ex.energy_j, ex_evals
        );
        println!(
            "  hill climb : {} — {:.3} J in {} evaluations ({:.1}x fewer, {:.1}% extra energy)",
            hc.config,
            hc.energy_j,
            hc_evals,
            ex_evals as f64 / hc_evals as f64,
            (hc.energy_j / ex.energy_j - 1.0) * 100.0
        );
    }
}
