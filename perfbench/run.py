"""voatwist benchmark: closed-loop workloads, one command.

Run from the repository root:

    python3 perfbench/run.py --workload {conjugation,cli-run,tables} \\
        --seed N --seconds S --trace {0,1}

Every measurement runs in a fresh interpreter (perfbench/worker.py) with
PYTHONPATH=src, single process, single thread.  --seed only permutes the op
order within a pass; inputs are fixed.

A run is a fixed number of passes, set by --seconds and the workload's
nominal pass length (PASS_S), never by how fast the program is; they are
split over two measuring workers with the set-up spawns between them.
Every pass repeats the same seeded op order from the same state.  A shared
host changes speed, by up to a factor of two, several times a minute, so
the workers time a fixed reference kernel every 50 ms (calibrate.py), also
in the middle of an op, and each op's time is scaled to the reference host
speed (CAL_REF_S) by the kernel's mean time while it ran.  An op's latency
is then its fastest scaled repetition in the run.  The measured, unscaled
figures are in the context line.

--trace 0 prints the end-to-end metrics of an untraced run:
  setup_s      median over several spawns of interpreter start + import +
               the workload's set-up, measured (not scaled)
  ops_per_s    ops in a pass / the sum of their latencies: the rate of a
               pass in which every op ran at its fastest repetition (the
               context line also gives ops per second of pass time)
  op_p50_ms    median op latency
  op_p90_ms    90th percentile op latency
  peak_rss_mb  largest ru_maxrss of the two measuring workers
--trace 1 runs an untraced worker and then a traced one, with the two
workers' shares of the passes, and prints per-layer metrics: calls and self time of each
wrapped public function, total time of the verify/cli entry points, self
time per layer and module cache sizes, all measured (unscaled), and the
tracing overhead from the scaled untraced and traced ops_per_s.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it holds the run's context (machine, revision, load, samples,
fail_rate).  A full record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import ENTRY_LAYERS, LAYER_FUNCTIONS, OP_SPAN, layer_functions  # noqa: E402
from workloads import OUT_DIR, WORKLOADS  # noqa: E402

# Spawns whose set-up time is sampled; the median is reported.  tables
# builds a rank-3 chain (seconds each), the others only import.
SETUP_SAMPLES = {"conjugation": 11, "cli-run": 11, "tables": 3}
# Seconds one pass takes on the host the run lengths were chosen on
# (2 cores, Python 3.11); they turn --seconds into a number of passes that
# does not depend on how fast the program under test is.
PASS_S = {"conjugation": 9.0, "cli-run": 10.0, "tables": 8.0}
LIMIT_MARGIN_S = 90.0
# Time of calibrate.py's kernel on the reference host.  A reported op time is
# the measured time * CAL_REF_S / the kernel's time measured while it ran,
# so that a shared host's slow spells move it less; on the reference host
# it is the measured time.
CAL_REF_S = 0.0009


def _args():
    p = argparse.ArgumentParser(description="voatwist benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args()


def _check_layout():
    for path in ("src/voatwist/__init__.py", "configs"):
        if not os.path.exists(path):
            sys.exit(f"perfbench: {path} not found; run from the repository root")


class Spawner:
    """Starts workers with PYTHONPATH=src under one time limit for the run.

    A worker starts no further pass after 2 * --seconds (it then reports
    fewer repetitions, see "passes" in the context line), and is killed
    if it is still running LIMIT_MARGIN_S seconds after that.
    """

    def __init__(self, args):
        self.args = args
        start = time.monotonic()
        self.stop_at = start + 2 * args.seconds
        self.limit = self.stop_at + LIMIT_MARGIN_S
        self.env = dict(os.environ)
        src = os.path.abspath("src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        # the same string hashes, and so the same set orders, in every worker
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, passes=1, trace=0, setup_only=False, spans=None):
        a = self.args
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--passes", str(passes), "--stop-at", repr(self.stop_at),
               "--trace", str(trace), "--t0", repr(t0)]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", spans]
        try:
            # subprocess.run kills and reaps the worker if it overruns
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=max(1.0, self.limit - t0))
        except subprocess.TimeoutExpired:
            sys.exit(f"perfbench: a worker was still running {LIMIT_MARGIN_S:.0f} s "
                     f"after the run's {2 * a.seconds:g} s cap; one pass of "
                     f"{a.workload} takes too long for --seconds {a.seconds:g}")
        if proc.returncode != 0:
            sys.exit(f"perfbench: worker exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_revision():
    """HEAD of the checkout's own .git, or "unknown" (no git process, no
    search above the working directory)."""
    try:
        with open(".git/HEAD", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(f".git/{ref}"):
            with open(f".git/{ref}", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(".git/packed-refs", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _best(latencies):
    """Each op's fastest repetition over the given passes."""
    return [min(reps) for reps in zip(*latencies)]


def _p90(values):
    # inclusive: interpolate inside the data; cli-run has only 6 ops a pass
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _passes(args):
    """Passes of the two measuring workers: --seconds / PASS_S in all, at
    least one each."""
    total = max(2, round(args.seconds / PASS_S[args.workload]))
    return (total + 1) // 2, total // 2


def _scaled(run):
    """The run's latencies in reference-host seconds: each repetition is
    scaled by the mean kernel time of the samples taken while it ran and
    of the one sample just before and just after it."""
    kernel = run["kernel_s"]
    return [[x * CAL_REF_S / statistics.fmean(kernel[a - 1:b + 1])
              for x, (a, b) in zip(lat, window)]
             for lat, window in zip(run["latencies"], run["windows"])]


def end_to_end(spawner, workload):
    passes = _passes(spawner.args)
    first = spawner.run(passes=passes[0])
    setup_runs = [spawner.run(setup_only=True)
                  for _ in range(SETUP_SAMPLES[workload] - 2)]
    second = spawner.run(passes=passes[1])
    spawns = [first, *setup_runs, second]
    # Set-up is not scaled: a slow spell that doubles the kernel's time
    # makes interpreter start and import only about 1.3 times slower.
    setups = [r["setup_s"] for r in spawns]
    lat = _best(_scaled(first) + _scaled(second))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (_p90(lat) * 1e3, "ms"),
        "peak_rss_mb": (max(first["peak_rss_mb"], second["peak_rss_mb"]), "MB"),
    }
    reps = first["latencies"] + second["latencies"]
    walls = first["pass_wall_s"] + second["pass_wall_s"]
    best = _best(reps)
    measured = {
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_p90_ms": _p90(best) * 1e3,
        # ops completed per second of pass time, every repetition counted
        "wall_ops_per_s": len(best) * len(walls) / sum(walls),
    }
    samples = {"setup": len(setups), "ops": len(lat), "repetitions": len(reps),
               "beyond_p90": sum(1 for x in lat if x * 1e3 > metrics["op_p90_ms"][0]),
               "kernel_samples": len(first["kernel_s"]) + len(second["kernel_s"]),
               "measured": measured,
               "raw": {"setup_s": [r["setup_s"] for r in spawns], "latencies": reps,
                       "windows": first["windows"] + second["windows"],
                       "kernel_s": [first["kernel_s"], second["kernel_s"]]}}
    return metrics, [first, second], samples


def per_layer(spawner, workload):
    passes = _passes(spawner.args)
    plain = spawner.run(passes=passes[0])
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{spawner.args.seed}.jsonl")
    traced = spawner.run(passes=passes[1], trace=1, spans=spans)
    stats = traced["stats"]

    def stat(name, i):
        return stats.get(name, (0, 0.0, 0.0))[i]

    metrics = {}
    layer_self = dict.fromkeys(LAYER_FUNCTIONS, 0.0)
    for layer, qual in layer_functions():
        name = f"{layer}.{qual}"
        layer_self[layer] += stat(name, 1)
        if layer in ENTRY_LAYERS:
            metrics[f"{name}.total_s"] = (stat(name, 2), "s")
        else:
            metrics[f"{name}.calls"] = (stat(name, 0), "count")
        metrics[f"{name}.self_s"] = (stat(name, 1), "s")
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = (value, "s")
    op_total = stat(OP_SPAN, 2)
    metrics["op.self_s"] = (stat(OP_SPAN, 1), "s")
    metrics["traced_op_s"] = (op_total, "s")
    metrics["attributed_pct"] = (100 * sum(layer_self.values()) / op_total, "%")
    metrics["act_cache_entries"] = (statistics.median(c[0] for c in traced["caches"]), "count")
    metrics["vs_cache_entries"] = (statistics.median(c[1] for c in traced["caches"]), "count")
    plain_lat, traced_lat = _best(_scaled(plain)), _best(_scaled(traced))
    plain_rate = len(plain_lat) / sum(plain_lat)
    traced_rate = len(traced_lat) / sum(traced_lat)
    metrics["untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace_overhead_pct"] = (100 * (plain_rate / traced_rate - 1), "%")
    samples = {"untraced_passes": plain["passes"], "traced_passes": traced["passes"],
               "spans_kept": traced["spans_kept"],
               "spans_dropped": traced["spans_dropped"],
               "spans_file": os.path.relpath(spans)}
    return metrics, [plain, traced], samples


def main():
    args = _args()
    _check_layout()
    spawner = Spawner(args)
    load_start = os.getloadavg()
    measure = per_layer if args.trace else end_to_end
    metrics, runs, samples = measure(spawner, args.workload)
    raw = samples.pop("raw", None)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_revision": _git_revision(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "ops_per_pass": runs[-1]["ops_per_pass"],
        "passes": [r["passes"] for r in runs], "samples": samples,
        "fail_rate": failed / attempted,
        "first_error": next((r["first_error"] for r in runs if r["first_error"]), None),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                   f"-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"context": context, "result": result, "raw": raw,
                   "stats": runs[-1].get("stats")}, fh, indent=1)
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
