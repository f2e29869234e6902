"""Deterministic work counts of one warm pass of a benchmark workload.

Run from anywhere:

    python3 scripts/count_work.py --workload cli-run

It imports perfbench/workloads.py (read-only) with src/ on the path, does
the workload's set-up and one warm-up pass, then prints one JSON line:

  opcodes_per_pass    sys.settrace opcode events over one warm pass
  fractions_per_pass  calls of Fraction.__new__ over a separate warm pass,
                      counted by a wrapper that is not installed while
                      opcodes are counted (from Python 3.12 on, Fraction
                      arithmetic builds its results without __new__, so
                      compare counts taken on one Python version)
  digest_mismatches   ops, over every pass run here, whose output differs
                      from perfbench/golden.json

The counts do not depend on the host's speed or load, so a change can be
compared with its parent on one run each; a counted pass takes a few
seconds.  Ops run in the workload's own order, unpermuted, so every run
counts the same pass (perfbench/run.py's --seed permutes the order, which
can move memoized work from one op to another).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def count_opcodes(fn):
    """(fn(), the opcode events traced while it ran)."""
    count = 0

    def trace(frame, event, _arg):
        nonlocal count
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            count += 1
        return trace

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        result = fn()
    finally:
        sys.settrace(old)
    return result, count


def count_fractions(fn):
    """(fn(), the Fraction objects built while it ran)."""
    count = 0
    original = Fraction.__dict__["__new__"]
    new = original.__func__

    def counting(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new(cls, *args, **kwargs)

    Fraction.__new__ = counting
    try:
        result = fn()
    finally:
        Fraction.__new__ = original
    return result, count


def _args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    return p.parse_args()


def main() -> int:
    args = _args()
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]
    from workloads import WORKLOADS

    with open(os.path.join(PERFBENCH, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)[args.workload]
    wl = WORKLOADS[args.workload]()
    wl.setup()
    mismatches = 0

    def counted(count):
        """Count one pass's ops, started untimed as perfbench starts them,
        and check their outputs outside the count."""
        nonlocal mismatches
        ops = wl.new_pass()
        results, n = count(lambda: [thunk() for _key, thunk in ops])
        mismatches += sum(wl.digest(result) != golden[key]
                          for (key, _thunk), result in zip(ops, results))
        return n

    try:
        counted(lambda fn: (fn(), 0))  # warm-up
        opcodes = counted(count_opcodes)
        fractions = counted(count_fractions)
    finally:
        wl.cleanup()
    print(json.dumps({"workload": args.workload, "opcodes_per_pass": opcodes,
                      "fractions_per_pass": fractions,
                      "digest_mismatches": mismatches}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
