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
  heap_peak_bytes_per_pass
                      the tracemalloc peak over one more warm pass, above
                      the traced heap at its start: the most memory the
                      pass's own allocations held at once; a full
                      collection runs first, so garbage left by earlier
                      code is neither counted nor freed inside the pass
  digest_mismatches   ops, over every pass run here, whose output differs
                      from perfbench/golden.json; the script exits 1 when
                      any does, and 0 otherwise (the counts have no bound)
  compile_peak_bytes  the largest tracemalloc peak of compile() over the
                      counted tree's src/voatwist/*.py, each file compiled
                      in a fresh interpreter: a run that starts without
                      bytecode (PYTHONDONTWRITEBYTECODE, or a tree with no
                      __pycache__) compiles every module it imports

The counts do not depend on the host's speed or load, so a change can be
compared with its parent on one run each; a counted pass takes a few
seconds.  Every count runs under PYTHONHASHSEED=0, as perfbench/run.py's
workers do (the command re-executes itself under it, and each counted
tree's interpreter gets it): monomials and generator names are str, whose
salted hashes order sets and dicts, and so move the traced heap.  The
address layout moves it too, so cli-run's heap still reads up to about
1.3 kB apart between runs of one tree.  Opcodes count the interpreter's
own steps only: the work of a C-level call (hashing a dict key, comparing
two keys, a str or tuple operation) is one opcode whatever it costs, so a
change that moves time into or out of that work shows in wall time and
not here.  Ops run in the workload's own order, unpermuted, so every run
counts the same pass (perfbench/run.py's --seed permutes the order, which
can move memoized work from one op to another).

With ``--parent REV`` the script exports REV's committed files with ``git
archive`` into a temporary directory, as bench_pairs.py does, counts that
tree and then the working tree, each in its own interpreter and both with
this copy of the script, and prints one JSON line holding both sides'
counts; it exits 1 when either side has a digest mismatch:

    python3 scripts/count_work.py --workload cli-run --parent HEAD~1

With ``--config PATH`` in place of ``--workload`` the script counts one
in-process ``voatwist run PATH --format json`` instead, after one warm-up
run of the same config, and prints ``opcodes_per_run``,
``fractions_per_run``, ``heap_peak_bytes_per_run``, ``compile_peak_bytes``
and ``golden_mismatches``: the counted runs whose
exit code or stdout differs from the config's recording under
tests/golden/ (``<stem>.run.json`` and its entry in cli_exit_codes.json),
exiting 1 when any does.  A config with no recording is refused.
``--parent`` works the same way; the parent tree reads its own copy of a
config that lies inside the repository:

    python3 scripts/count_work.py --config configs/not_fixed.json --parent HEAD~1
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
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


def count_heap(fn):
    """(fn(), the tracemalloc peak while it ran above the traced heap at
    its start).  A full collection runs first: cyclic garbage left before
    the call would otherwise sit in the start and, freed by a collection
    inside the call, lower the peak by whatever it held.  Tracing is
    started for the call only if it was off."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak - start


# one compile() of the file sys.argv[1], its tracemalloc peak printed
_COMPILE_PEAK = """
import sys, tracemalloc
with open(sys.argv[1], encoding="utf-8") as fh:
    source = fh.read()
tracemalloc.start()
compile(source, sys.argv[1], "exec")
print(tracemalloc.get_traced_memory()[1])
"""


def compile_peak(paths) -> int:
    """The largest tracemalloc peak of compile() over the source files
    paths, each compiled in a fresh isolated interpreter: within one
    process the peak depends on what ran before it (a rebuild of the
    interned-string table added 16% to verify.py's second compile)."""
    return max((int(subprocess.run([sys.executable, "-I", "-S", "-c", _COMPILE_PEAK, path],
                                   check=True, capture_output=True, text=True).stdout)
                for path in paths), default=0)


def _package_compile_peak() -> int:
    return compile_peak(sorted(glob.glob(os.path.join(ROOT, "src", "voatwist", "*.py"))))


def _args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload")
    target.add_argument("--config", help="a config with a recording under tests/golden/")
    p.add_argument("--parent", help="git revision to count beside the working tree")
    return p.parse_args()


def _export(rev: str, dest: str) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def _seeded_env() -> dict:
    """This environment with the str hash seed pinned to 0."""
    return {**os.environ, "PYTHONHASHSEED": "0"}


def count_tree(tree: str, target: str, kind: str = "workload") -> dict:
    """The counts of the tree's own script run in a fresh interpreter,
    under PYTHONHASHSEED=0, on a workload (kind "workload") or a config
    path (kind "config")."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "scripts", "count_work.py"),
         f"--{kind}", target], text=True, capture_output=True, env=_seeded_env())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"counting failed in {tree} ({target}):\n"
                           f"{proc.stderr[-2000:]}")
    counts = json.loads(lines[-1])
    del counts[kind]
    return counts


def compare(rev: str, target: str, kind: str = "workload") -> int:
    """Count rev and the working tree; 1 if either has a mismatch."""
    with tempfile.TemporaryDirectory(prefix="count-work-") as tmp:
        _export(rev, tmp)
        # both sides are counted the same way, whatever rev's script does
        os.makedirs(os.path.join(tmp, "scripts"), exist_ok=True)
        shutil.copy(os.path.abspath(__file__), os.path.join(tmp, "scripts", "count_work.py"))
        parent_target, extra = target, ()
        if kind == "config":
            extra = (kind,)
            rel = os.path.relpath(target, ROOT)
            if not rel.startswith(os.pardir):
                parent_target = os.path.join(tmp, rel)
        sides = {"parent": {"rev": rev, **count_tree(tmp, parent_target, *extra)},
                 "change": count_tree(ROOT, target, *extra)}
    print(json.dumps({kind: target if kind == "workload" else os.path.relpath(target),
                      **sides}))
    return 1 if any(value for side in sides.values() for key, value in side.items()
                    if key.endswith("_mismatches")) else 0


def count_config(path: str) -> int:
    """Count one warm in-process ``voatwist run PATH --format json`` and
    compare every run with the config's recording."""
    golden = os.path.join(ROOT, "tests", "golden")
    name = os.path.splitext(os.path.basename(path))[0] + ".run.json"
    with open(os.path.join(golden, "cli_exit_codes.json"), encoding="utf-8") as fh:
        codes = json.load(fh)
    if name not in codes:
        sys.exit(f"count_work.py: no recording tests/golden/{name} for {path}")
    with open(os.path.join(golden, name), "rb") as fh:
        want = (codes[name], fh.read())
    sys.path[:0] = [os.path.join(ROOT, "src")]
    from voatwist.cli import main as cli_main

    argv = ["run", path, "--format", "json"]
    mismatches = 0

    def counted(count):
        """Count one run, and compare its exit code and stdout outside the count."""
        nonlocal mismatches
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code, n = count(lambda: cli_main(argv))
        mismatches += (code, out.getvalue().encode("utf-8")) != want
        return n

    counted(lambda fn: (fn(), 0))  # warm-up
    opcodes = counted(count_opcodes)
    fractions = counted(count_fractions)
    heap = counted(count_heap)
    print(json.dumps({"config": os.path.relpath(path), "opcodes_per_run": opcodes,
                      "fractions_per_run": fractions, "heap_peak_bytes_per_run": heap,
                      "compile_peak_bytes": _package_compile_peak(),
                      "golden_mismatches": mismatches}))
    return 1 if mismatches else 0


def main() -> int:
    args = _args()
    if args.config is not None:
        path = os.path.abspath(args.config)
        if args.parent is not None:
            return compare(args.parent, path, "config")
        return count_config(path)
    if args.parent is not None:
        return compare(args.parent, args.workload)
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
        heap = counted(count_heap)
    finally:
        wl.cleanup()
    print(json.dumps({"workload": args.workload, "opcodes_per_pass": opcodes,
                      "fractions_per_pass": fractions, "heap_peak_bytes_per_pass": heap,
                      "compile_peak_bytes": _package_compile_peak(),
                      "digest_mismatches": mismatches}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, sys.orig_argv, _seeded_env())
    sys.exit(main())
