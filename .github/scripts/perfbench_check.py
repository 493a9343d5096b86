#!/usr/bin/env python3
"""Check a perfbench run's simulated metrics against the committed ledger.

Usage (from the repository root):

    python3 .github/scripts/perfbench_check.py <workload> <perfbench output>

The output must come from an untraced run (`--trace 0`): its last line is
perfbench's JSON verdict with the end-to-end metrics. The check fails unless
that line reports correct outputs and each simulated metric lies within its
`bound` (BENCHMARK.json, relative) of the `pr_median` the ledger
(results/BENCH_perfbench.json) records for the workload. The simulated
metrics are the same on every host and for every seed and run length, yet
only drift beyond that bound, in either direction, fails: a change that
moves a few governor decisions, and a metric by a few percent, passes. A
change that means to move a metric regenerates the ledger with it.
"""

import json
import sys

SIMULATED = [
    "mpc_energy_savings_pct",
    "mpc_perf_loss_pct",
    "fail_safe_pct",
    "rf_time_mape_pct",
    "rf_power_mape_pct",
]


def main(workload, output):
    with open(output) as f:
        verdict = json.loads(f.read().strip().splitlines()[-1])
    with open("results/BENCH_perfbench.json") as f:
        ledger = json.load(f)["workloads"][workload]["metrics"]
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    failures = []
    if verdict.get("correct") is not True or verdict.get("failed") != 0:
        failures.append("the run did not report correct outputs with 0 failed operations")
    for name in SIMULATED:
        expected = ledger[name]["pr_median"]
        value = verdict["metrics"][name]["value"]
        drift = abs(value - expected) / abs(expected) if expected else abs(value)
        ok = drift <= bounds[name]
        print(
            f"{'ok  ' if ok else 'FAIL'} {workload} {name} = {value!r}: "
            f"ledger {expected!r}, drift {drift:.2%}, bound {bounds[name]:.0%}"
        )
        if not ok:
            failures.append(name)
    if failures:
        print(f"perfbench {workload} differs from the ledger: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
