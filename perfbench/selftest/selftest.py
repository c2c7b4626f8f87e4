#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/selftest/selftest.py

Runs every workload of BENCHMARK.json at a tiny scale, untraced and traced,
through perfbench/run.py and checks that:

  * every metric BENCHMARK.json names is printed, with its unit and a finite
    value, and no other metric is;
  * the accounting identities hold: served + failed responses = attempted,
    no pass mismatched its reference, and the traced spans' self times add
    up exactly to their root spans;
  * the traced run writes a span table with parent ids;
  * a deliberately wrong reference makes the output check fire (exit 1,
    "correct": false, failed > 0);
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    fails fast without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = ["python3", os.path.join("perfbench", "run.py")]
SCALE = "0.05"
SECONDS = "1"

failures = []


def check(condition, what):
    if not condition:
        failures.append(what)
        print(f"FAIL {what}")


def run(workload, trace, *extra, cwd=ROOT):
    command = RUN + ["--workload", workload, "--seed", "7", "--seconds", SECONDS,
                     "--trace", str(trace), "--scale", SCALE, *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=900,
                          check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    info = json.loads(lines[-2])["info"] if len(lines) >= 2 else None
    return done.returncode, result, info, done.stderr


def check_metrics(label, result, specs):
    names = {spec["name"]: spec["unit"] for spec in specs}
    printed = result.get("metrics", {})
    check(set(printed) == set(names), f"{label}: metric names match BENCHMARK.json")
    for name, unit in names.items():
        metric = printed.get(name)
        if metric is None:
            continue
        check(metric.get("unit") == unit, f"{label}: {name} has unit {unit}")
        value = metric.get("value")
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{label}: {name} is a finite number")


def check_run(workload, trace, bench):
    label = f"{workload} trace={trace}"
    code, result, info, stderr = run(workload, trace)
    check(code == 0, f"{label}: exit status 0 (got {code}; {stderr.strip()[-300:]})")
    if result is None or info is None:
        check(False, f"{label}: printed an info line and a result")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result has exactly correct/attempted/failed/metrics")
    check(result["correct"] is True and result["failed"] == 0, f"{label}: outputs correct")
    check(result["attempted"] == info["attempted"] >= 1, f"{label}: attempted recorded")
    check(info["served"] + info["failed_responses"] == info["attempted"],
          f"{label}: served + failed = attempted")
    check(info["mismatched"] == 0, f"{label}: no pass mismatched its reference")
    for key in ("seed", "hardware_threads", "build_type", "compiler"):
        check(key in info, f"{label}: info records {key}")
    check(info["seed"] == 7, f"{label}: the seed argument is used")
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    check_metrics(label, result, specs)
    if not trace:
        return
    check(info["span_root_ns"] > 0 and info["span_self_sum_ns"] == info["span_root_ns"],
          f"{label}: span self times add up to the root spans")
    spans = os.path.join(ROOT, ".bench_build", "perfbench", "spans", f"{workload}-seed7.tsv")
    check(os.path.isfile(spans), f"{label}: span table written")
    if os.path.isfile(spans):
        with open(spans, encoding="utf-8") as table:
            header = table.readline().rstrip("\n").split("\t")
            rows = [line.rstrip("\n").split("\t") for line in table]
        check(header[:5] == ["id", "parent", "name", "start_ns", "end_ns"],
              f"{label}: span table header")
        check(any(row[1] != "0" for row in rows), f"{label}: spans carry parent ids")


def check_wrong_reference(workload):
    label = f"{workload} --wrong-reference"
    code, result, _, _ = run(workload, 0, "--wrong-reference")
    check(code == 1, f"{label}: exit status 1 (got {code})")
    check(result is not None and result["correct"] is False and result["failed"] > 0,
          f"{label}: result reports the mismatch")


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(RUN + ["--workload", "topology_faults_bl", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180, check=False)
    check(done.returncode != 0 and done.stdout.strip() == "",
          "bare directory: non-zero exit without a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        bench = json.load(spec)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, bench)
        check_wrong_reference(workload)
    check_bare_directory()
    print("selftest: " + ("PASS" if not failures else f"{len(failures)} check(s) failed"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
