//! The `reproduce` command line: `reproduce_main` backs the `reproduce`
//! binary, the one way to run registered experiments.

use crate::experiment::Mode;
use crate::registry::registry;
use crate::runner::{run_suite, ExperimentRecord, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn print_gate_summary(record: &ExperimentRecord) {
    if record.gates.is_empty() {
        return;
    }
    eprintln!("gates ({}):", record.name);
    for g in &record.gates {
        eprintln!(
            "  [{}] {} {}: expected {} ± {}, got {}",
            if g.pass { "ok" } else { "FAIL" },
            g.source.as_str(),
            g.metric,
            g.expected,
            g.tol,
            g.actual
                .map(|a| format!("{a}"))
                .unwrap_or_else(|| "<missing>".to_string()),
        );
    }
}

struct ReproduceArgs {
    cfg: RunConfig,
    list: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: reproduce [--fast | --full] [--filter SUBSTR]... [--jobs N]\n\
         \x20                [--resume] [--out DIR] [--aggregate PATH]\n\
         \x20                [--list]\n\
         \n\
         Runs the registered paper-reproduction experiments in parallel over a\n\
         shared evaluation context, writes one schema-versioned JSON record\n\
         per experiment (default results/xp, or results/fast/xp with --fast)\n\
         plus an aggregate report, and exits nonzero when any metric leaves\n\
         its tolerance band. Golden bands come from the committed records of\n\
         the mode, read before the run writes any; figures and other text\n\
         artifacts go to the parent of the record directory. Each selected\n\
         experiment's report goes to stdout in registry order. A --filter run\n\
         writes no aggregate unless --aggregate names one. --resume reuses\n\
         records from a previous partial run when their fingerprints still\n\
         match."
    );
    std::process::exit(2);
}

fn parse_args<I: Iterator<Item = String>>(mut it: I) -> ReproduceArgs {
    let mut mode = Mode::Full;
    let mut filter = Vec::new();
    let mut jobs = 0usize;
    let mut resume = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut aggregate: Option<PathBuf> = None;
    let mut list = false;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--fast" => mode = Mode::Fast,
            "--full" => mode = Mode::Full,
            "--filter" => filter.push(it.next().unwrap_or_else(|| usage())),
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--resume" => resume = true,
            "--out" => out_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--aggregate" => aggregate = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--list" => list = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    let mut cfg = RunConfig::for_mode(mode);
    // A filtered run is not the suite: it must not replace the committed
    // `results/REPRO_<mode>.json` with a partial aggregate.
    if aggregate.is_some() || !filter.is_empty() {
        cfg.aggregate_path = aggregate;
    }
    cfg.filter = filter;
    cfg.jobs = jobs;
    cfg.resume = resume;
    if let Some(dir) = out_dir {
        cfg.out_dir = dir;
    }
    ReproduceArgs { cfg, list }
}

/// The `reproduce` binary: one command for the whole registry.
pub fn reproduce_main() -> ExitCode {
    let args = parse_args(std::env::args().skip(1));
    if args.list {
        println!("{:<24} {:<14} ctx  title", "name", "paper ref");
        for e in registry() {
            println!(
                "{:<24} {:<14} {}  {}",
                e.name,
                e.paper_ref,
                if e.needs_ctx { "yes" } else { " no" },
                e.title
            );
        }
        return ExitCode::SUCCESS;
    }

    let report = run_suite(&args.cfg);
    for r in &report.records {
        print!("{}", r.text);
    }

    let passed = report.records.iter().filter(|r| r.passed).count();
    eprintln!(
        "reproduce: {}/{} experiments passed ({} resumed, mode {})",
        passed,
        report.records.len(),
        report.resumed,
        args.cfg.mode
    );
    for r in report.records.iter().filter(|r| !r.passed) {
        eprintln!("FAILED: {}", r.name);
        print_gate_summary(r);
    }
    if report.all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_covers_all_flags() {
        let args = parse_args(
            [
                "--fast",
                "--filter",
                "fig8",
                "--filter",
                "table",
                "--jobs",
                "3",
                "--resume",
                "--out",
                "tmp/xp",
                "--aggregate",
                "tmp/REPRO.json",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(args.cfg.mode, Mode::Fast);
        assert_eq!(args.cfg.filter, vec!["fig8", "table"]);
        assert_eq!(args.cfg.jobs, 3);
        assert!(args.cfg.resume);
        assert_eq!(args.cfg.out_dir, PathBuf::from("tmp/xp"));
        assert_eq!(
            args.cfg.aggregate_path,
            Some(PathBuf::from("tmp/REPRO.json"))
        );
        assert!(!args.list);
    }

    #[test]
    fn filtered_run_writes_an_aggregate_only_when_asked() {
        let parse = |flags: &[&str]| parse_args(flags.iter().map(|s| s.to_string())).cfg;
        assert_eq!(
            parse(&["--fast", "--filter", "fig8"]).aggregate_path,
            None,
            "a filtered run must not overwrite results/REPRO_fast.json"
        );
        assert_eq!(
            parse(&[
                "--fast",
                "--filter",
                "fig8",
                "--aggregate",
                "tmp/REPRO.json"
            ])
            .aggregate_path,
            Some(PathBuf::from("tmp/REPRO.json"))
        );
        assert_eq!(
            parse(&["--fast"]).aggregate_path,
            Some(PathBuf::from("results/REPRO_fast.json"))
        );
    }

    #[test]
    fn each_mode_records_into_a_directory_of_its_own() {
        let parse = |flags: &[&str]| parse_args(flags.iter().map(|s| s.to_string())).cfg;
        let fast = parse(&["--fast"]);
        assert_eq!(fast.out_dir, PathBuf::from("results/fast/xp"));
        assert_eq!(fast.artifact_dir(), PathBuf::from("results/fast"));
        let full = parse(&["--full"]);
        assert_eq!(full.out_dir, PathBuf::from("results/xp"));
        assert_eq!(full.artifact_dir(), PathBuf::from("results"));
        // `--out` moves the text artifacts with the records.
        let moved = parse(&["--fast", "--out", "/tmp/run/xp"]);
        assert_eq!(moved.artifact_dir(), PathBuf::from("/tmp/run"));
    }
}
