"""Alternating parent/change benchmark pairs, summarized into one JSON file.

Run from the repository root:

    python3 scripts/bench_pairs.py --parent <rev> --out BENCH_<n>.json

The parent revision and the change, HEAD, are each exported with ``git
archive`` into a fresh temporary directory outside the repository, so
both sides run committed files from the same kind of place and nothing
left in the working tree (edits, caches, earlier outputs) takes part.
For every workload listed in BENCHMARK.json, pair i runs

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

with S the run_seconds of BENCHMARK.json, once in each tree, the parent
first in odd pairs and the change first in even ones, so that a drift in
host speed does not favour one side.  Ten pairs are the default, the
fewest that back a claimed gain.  The
output holds every run's end-to-end metrics and fail rate, and per side
the median and quartiles of each metric, the largest fail rate, and the
number of pairs in which the change was better by the metric's declared
direction.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", required=True, help="JSON file to write")
    return p.parse_args()


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def _export(rev: str, dest: str) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its last two stdout lines are context and result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, text=True, capture_output=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench failed in {tree} ({workload}, seed "
                           f"{seed}):\n{proc.stderr[-2000:]}")
    context, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "fail_rate": context["fail_rate"],
            "loadavg": context["loadavg_start"]}


def _spread(values) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _summary(runs, metrics) -> dict:
    out = {}
    for side in ("parent", "change"):
        mine = [r for r in runs if r["side"] == side]
        out[side] = {name: _spread([r["metrics"][name] for r in mine])
                     for name in metrics}
        out[side]["fail_rate"] = max(r["fail_rate"] for r in mine)
    wins = {}
    for name, better in metrics.items():
        count = 0
        for pair in sorted({r["pair"] for r in runs}):
            a, b = (next(r["metrics"][name] for r in runs
                         if r["pair"] == pair and r["side"] == side)
                    for side in ("parent", "change"))
            count += (b < a) if better == "lower" else (b > a)
        wins[name] = count
    out["change_better_pairs"] = wins
    return out


def main() -> int:
    args = _args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    revs = {"parent": _git("rev-parse", args.parent),
            "change": _git("rev-parse", "HEAD")}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {}
        for side, rev in revs.items():
            trees[side] = os.path.join(tmp, side)
            os.mkdir(trees[side])
            _export(rev, trees[side])
        report = {
            **revs,
            "pairs": args.pairs,
            "seconds": seconds,
            "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
            "workloads": {},
        }
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for pair in range(1, args.pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    run = _run(trees[side], workload, pair, seconds)
                    runs.append({"pair": pair, "side": side, **run})
                    print(f"{workload} pair {pair} {side}: "
                          f"ops_per_s {run['metrics']['ops_per_s']:.3f}",
                          file=sys.stderr, flush=True)
            report["workloads"][workload] = {"summary": _summary(runs, metrics),
                                             "runs": runs}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
