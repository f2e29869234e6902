"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke.py

Each workload of workloads.py, listed in BENCHMARK.json or not, runs at its
shortest length (--seconds 1: one pass in each worker), untraced and
traced.  The test fails unless the last line has exactly the keys
correct/attempted/failed/metrics, every metric BENCHMARK.json lists is
printed with its unit and no other, and no op failed (fail_rate 0).  It
also checks that run.py refuses, with a non-zero exit and no result, to
run in a directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def _run(workload, trace, cwd="."):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600)


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expected[trace]))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} ops failed")
            print(f"{where}: {result['attempted']} ops, fail_rate "
                  f"{result['failed'] / max(1, result['attempted'])}")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = _run(bench["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py did not refuse a directory without the package")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
