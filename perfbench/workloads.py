"""The three benchmark workloads: fixed inputs, ops, and output digests.

Each workload is a class with

- ``setup()``: the one-time work before any op (counted in ``setup_s``);
- ``new_pass()``: the untimed start of one pass, returning the pass's ops
  as ``[(key, thunk)]`` in a fixed order (the seed permutes it later);
- ``digest(result)``: a short hash of the op's canonical output,
  compared with ``golden.json``;
- ``cache_entries()``: ``(act, vs)`` cache sizes of the modules the pass
  built, read from outside after the pass;
- ``watch()``: a context held around the traced passes only, for what
  ``cache_entries`` needs to see (a no-op unless overridden);
- ``cleanup()``: removes what the passes left on disk.

Inputs never depend on the seed; only the op order within a pass does.
Every public call is looked up on its module at call time, so a tracer
installed after import still sees it.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


def short_hash(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def _rational(c) -> str:
    return str(F(c))


class Workload:
    def watch(self):
        return contextlib.nullcontext()

    def cleanup(self):
        pass


class Conjugation(Workload):
    """check_shift_conjugation on single (v, w) pairs, sl2 level 2 cutoff 9.

    v and w range over basis_states(mod, 2) (13 states), once for the
    semisimple current h1=1/2 and once for the nilpotent current e1, so a
    pass is 2 * 13 * 13 = 338 ops.  Each pass builds a fresh module, so the
    module's _act/_vs caches fill inside the timed ops, as in every CLI run.
    """

    name = "conjugation"
    CURRENTS = (("h1=1/2", {"h1": F(1, 2)}), ("e1", {"e1": F(1)}))

    def setup(self):
        from voatwist import fock, lie, verify
        self.fock, self.lie, self.verify = fock, lie, verify
        mod = self._module()
        self.states = [vec for vec, _label in verify.basis_states(mod, 2)]
        self.module = None

    def _module(self):
        alg = self.lie.build_simple_lie("A", 1)
        return self.fock.build_module(alg, F(2), 9)

    def new_pass(self):
        mod = self.module = self._module()
        verify = self.verify
        ops = []
        for label, coeffs in self.CURRENTS:
            u = mod.current(mod.algebra.element(coeffs))
            for i, v in enumerate(self.states):
                for j, w in enumerate(self.states):
                    def op(u=u, v=v, w=w):
                        return verify.check_shift_conjugation(mod, u, [(v, "v")],
                                                              [(w, "w")])
                    ops.append((f"{label}|{i}|{j}", op))
        return ops

    @staticmethod
    def digest(report):
        return short_hash([report.status, report.details.get("pairsChecked")])

    def cache_entries(self):
        return len(self.module._act_cache), len(self.module._vs_cache)


class CliRun(Workload):
    """One in-process ``voatwist.cli.main(["run", config, "--output", tmp])``.

    The configs are every file in configs/ (two passing, three documented
    error exits 10, 11, 12) plus perfbench/configs/sl2_branch3.json, which
    puts Cyc order-3 arithmetic and branch_shift on the path.  The digest
    covers the exit code, the report file and whatever reached stdout.
    """

    name = "cli-run"

    def setup(self):
        from voatwist import cli
        self.cli = cli
        self.configs = sorted(glob.glob(os.path.join("configs", "*.json")))
        self.configs.append(os.path.relpath(
            os.path.join(HERE, "configs", "sl2_branch3.json")))
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = os.path.join(OUT_DIR, f"cli-report-{os.getpid()}.json")
        self.modules = []

    def new_pass(self):
        self.modules = []
        return [(os.path.basename(path), lambda path=path: self._run(path))
                for path in self.configs]

    def _run(self, path):
        if os.path.exists(self.tmp):
            os.remove(self.tmp)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(["run", path, "--output", self.tmp])
        report = b""
        if os.path.exists(self.tmp):
            with open(self.tmp, "rb") as fh:
                report = fh.read()
        return code, stdout.getvalue().encode("utf-8"), report

    @staticmethod
    def digest(result):
        code, stdout, report = result
        return short_hash([code, hashlib.sha256(stdout).hexdigest(),
                           hashlib.sha256(report).hexdigest()])

    @contextlib.contextmanager
    def watch(self):
        """Record every module cli.main builds, through the name it calls."""
        inner = self.cli.build_module

        def recording(*args, **kwargs):
            module = inner(*args, **kwargs)
            self.modules.append(module)
            return module

        self.cli.build_module = recording
        try:
            yield
        finally:
            self.cli.build_module = inner

    def cache_entries(self):
        return (sum(len(m._act_cache) for m in self.modules),
                sum(len(m._vs_cache) for m in self.modules))

    def cleanup(self):
        if os.path.exists(self.tmp):
            os.remove(self.tmp)


class Tables(Workload):
    """mode_table_entry over an A3 chain at level 2, cutoff 4.

    The chain is innerSemisimple {h1: 1/2} then innerNilpotent {e3: 1}.
    Set-up builds it once (that time is in setup_s) to list the entries;
    every pass then builds a fresh one, untimed, so that each pass starts
    with the algebra's and the module's caches empty.  Ops cover every
    generator, every mode on the 1/2-lattice in [-2, 2] and every log
    power up to chain_log_bound: 15 * 9 * 3 = 405 entries.
    """

    name = "tables"
    SPAN = 2

    def setup(self):
        from voatwist import fock, lie, twist, verify
        self.fock, self.lie, self.twist = fock, lie, twist
        tw = self._chain()
        order = tw.branch_order()
        log_max = verify.chain_log_bound(tw)
        self.entries = [(g, F(t, order), l)
                        for g in tw.algebra.names
                        for t in range(-self.SPAN * order, self.SPAN * order + 1)
                        for l in range(log_max + 1)]

    def _chain(self):
        alg = self.lie.build_simple_lie("A", 3)
        mod = self.fock.build_module(alg, F(2), 4)
        tw = self.twist.make_twisted(mod, mod.current(alg.element({"h1": F(1, 2)})))
        return self.twist.make_twisted(tw, mod.current(alg.element({"e3": F(1)})))

    def new_pass(self):
        twist, tw = self.twist, self._chain()
        self.tw = tw
        return [(f"{g}|{m}|{l}",
                 lambda g=g, m=m, l=l: twist.mode_table_entry(tw, g, m, l))
                for g, m, l in self.entries]

    @staticmethod
    def digest(entry):
        ops, scalar = entry
        return short_hash([[[gi, _rational(mode), _rational(c)]
                            for (gi, mode), c in sorted(ops.items())],
                           _rational(scalar)])

    def cache_entries(self):
        base = self.tw.base
        return len(base._act_cache), len(base._vs_cache)


WORKLOADS = {w.name: w for w in (Conjugation, CliRun, Tables)}
