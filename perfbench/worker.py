"""One run of one workload in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It
imports the package, does the workload's set-up, then runs ``--passes``
whole passes of ops in a closed loop (one client, the next op starts when
the previous one returns).  A pass starts only before ``--stop-at``, a cap
that is reached only when the program is much slower than the run length
assumes; the first pass always runs.  Every op's output is hashed and
compared with golden.json.

The seed fixes one op order that every pass of the run repeats, and each
pass starts from the same state (a fresh module or chain where the
workload builds one), so the i-th op of every pass does the same work.
run.py can then take each op's fastest repetition.

While the passes run, a Sampler (calibrate.py) times a fixed reference
computation every SAMPLE_EVERY_S seconds, also in the middle of an op, so
that run.py can scale each op's time by the host's speed while it ran.
The sampler's own time is taken out of each op's latency.

The last line of stdout is one JSON object with the raw measurements;
run.py turns them into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import sys
import time
import traceback

from calibrate import Sampler
from tracing import OP_SPAN, Tracer, installed_wrappers
from workloads import HERE, WORKLOADS

SAMPLE_EVERY_S = 0.05


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--stop-at", type=float, default=float("inf"),
                   help="time.monotonic() after which no further pass starts")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() in the parent just before the spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="write the traced run's spans here (JSON lines)")
    return p.parse_args(argv)


def main(argv=None):
    args = _args(argv)
    wl = WORKLOADS[args.workload]()
    wl.setup()
    # CLOCK_MONOTONIC is shared by all processes, so this spans the
    # interpreter start, the import and the workload's set-up.
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)[wl.name]
    if not args.trace:
        stray = installed_wrappers()
        if stray:
            raise SystemExit(f"untraced run found tracing wrappers: {stray}")

    order = None
    latencies, pass_wall, caches = [], [], []   # latencies[pass][i]: i-th op of the order
    windows = []   # windows[pass][i]: sampler.times[a:b] were taken while that op ran
    attempted = failed = 0
    first_error = None
    tracer = Tracer() if args.trace else None
    with contextlib.ExitStack() as stack:
        stack.callback(wl.cleanup)
        if tracer is not None:
            tracer.install()
            stack.callback(tracer.uninstall)
            stack.enter_context(wl.watch())
        sampler = stack.enter_context(Sampler(SAMPLE_EVERY_S))
        while len(latencies) < args.passes and (
                not latencies or time.monotonic() < args.stop_at):
            ops = wl.new_pass()
            if order is None:
                if sorted(key for key, _ in ops) != sorted(golden):
                    raise SystemExit("the workload's ops differ from golden.json")
                order = list(range(len(ops)))
                random.Random(args.seed).shuffle(order)
            lat, window = [], []
            busy = 0.0
            for key, thunk in (ops[i] for i in order):
                if tracer is not None:
                    tracer.op_id = attempted
                    tracer.enter(OP_SPAN)
                first, spent = len(sampler.times), sampler.spent
                t = time.perf_counter()
                try:
                    result = thunk()
                    error = None
                except Exception:  # an op that raises counts as failed
                    result, error = None, traceback.format_exc()
                finally:
                    lat.append(time.perf_counter() - t - (sampler.spent - spent))
                    window.append((first, len(sampler.times)))
                    if tracer is not None:
                        tracer.leave()
                attempted += 1
                if error is None:
                    try:
                        if wl.digest(result) != golden[key]:
                            error = f"{key}: output differs from golden.json"
                    except Exception:  # output of an unexpected shape
                        error = traceback.format_exc()
                if error is not None:
                    failed += 1
                    first_error = first_error or error
                busy += time.perf_counter() - t
            latencies.append(lat)
            windows.append(window)
            pass_wall.append(busy)
            caches.append(wl.cache_entries())
    stray = installed_wrappers()
    if stray:
        raise SystemExit(f"tracing wrappers left installed: {stray}")

    out = {
        "setup_s": setup_s,
        "kernel_s": sampler.times,
        "windows": windows,
        "latencies": latencies,
        "pass_wall_s": pass_wall,
        "attempted": attempted,
        "failed": failed,
        "first_error": first_error,
        "passes": len(latencies),
        "ops_per_pass": len(order),
        "caches": caches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["stats"] = tracer.stats
        out["spans_kept"] = len(tracer.spans)
        out["spans_dropped"] = tracer.dropped
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
