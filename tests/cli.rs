//! Integration tests of the `gpm` command-line tool.

use std::process::Command;

fn gpm(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_gpm"))
        .args(args)
        .output()
        .expect("spawn gpm binary");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn list_prints_the_suite() {
    let (stdout, _, ok) = gpm(&["list"]);
    assert!(ok);
    for name in ["mandelbulbGPU", "Spmv", "kmeans", "hybridsort"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn schemes_lists_every_policy() {
    let (stdout, _, ok) = gpm(&["schemes"]);
    assert!(ok);
    for s in ["turbo-core", "ppk", "mpc", "to", "equalizer-perf"] {
        assert!(stdout.contains(s), "missing {s}");
    }
}

#[test]
fn run_produces_valid_json() {
    let (stdout, stderr, ok) = gpm(&[
        "run",
        "--workload",
        "NBody",
        "--scheme",
        "to",
        "--fast",
        "--json",
    ]);
    assert!(ok, "stderr: {stderr}");
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(v["workload"], "NBody");
    assert_eq!(v["scheme"], "TO");
    assert!(v["energy_savings_pct"].as_f64().unwrap() > 0.0);
    assert!(v["speedup"].as_f64().unwrap() > 0.5);
}

#[test]
fn trace_prints_one_row_per_invocation() {
    let (stdout, _, ok) = gpm(&["trace", "--workload", "Spmv"]);
    assert!(ok);
    assert_eq!(stdout.lines().count(), 30);
}

#[test]
fn unknown_command_fails_with_usage() {
    let (stdout, _, ok) = gpm(&["frobnicate"]);
    assert!(!ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn run_rejects_unknown_workload_and_scheme() {
    let (_, stderr, ok) = gpm(&["run", "--workload", "nope", "--scheme", "mpc"]);
    assert!(!ok);
    assert!(stderr.contains("unknown workload"));
    let (_, stderr, ok) = gpm(&["run", "--workload", "NBody", "--scheme", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("unknown scheme"));
}

#[test]
fn run_with_cache_trains_then_loads_the_same_predictor() {
    let cache = std::env::temp_dir().join(format!("gpm_cli_cache_{}.json", std::process::id()));
    std::fs::remove_file(&cache).ok();
    let cache_arg = cache.to_str().expect("a UTF-8 temp path");
    let args = [
        "run",
        "--workload",
        "kmeans",
        "--scheme",
        "mpc",
        "--fast",
        "--json",
        "--cache",
        cache_arg,
    ];
    let (trained, stderr, ok) = gpm(&args);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("saved trained predictor"), "{stderr}");
    let (loaded, stderr, ok) = gpm(&args);
    std::fs::remove_file(&cache).ok();
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("loading trained predictor"), "{stderr}");
    assert_eq!(loaded, trained, "the loaded predictor decided differently");
    let v: serde_json::Value = serde_json::from_str(&loaded).expect("valid JSON");
    assert_eq!(v["workload"], "kmeans");
}
