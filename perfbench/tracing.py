"""Span tracing of the package's public functions, installed from outside.

The tracer wraps each listed function or method so that every call records
a span (name, start, end, parent span, op id).  Nothing under ``src/`` is
edited: module-level functions are replaced in every ``voatwist`` namespace
that holds them, because ``from .x import f`` copies the reference into the
importing module, and methods are replaced on their class.  ``uninstall``
puts every original back.

Spans are kept in memory, up to SPAN_CAP of them, and written once the
run ends.  Calls, self time and (outermost) total time are aggregated for
every call whether or not its span was kept.
"""

from __future__ import annotations

import json
import sys
import time

# Layer -> public functions whose calls are traced.  "Class.method" names a
# method patched on its class; a bare name is a module-level function.
LAYER_FUNCTIONS = {
    "scalars": ["Cyc.__mul__", "Cyc.__add__"],
    "linalg": ["mat_mul", "mat_vec"],
    "lie": ["LieAlgebra.bracket", "LieAlgebra.form", "EigenData.decompose",
            "EigenData.eigenvalue_of", "LieAlgebra.jordan_chevalley",
            "LieAlgebra.ad_eigendata"],
    "fock": ["InducedModule.apply_mode", "InducedModule.apply_mode_dict",
             "InducedModule.vertex_series", "InducedModule.basis", "build_module"],
    "series": ["LogSeries.add_term", "series_combine", "branch_shift", "series_eq"],
    "delta": ["make_delta", "delta_apply", "delta_apply_series"],
    "twist": ["TwistedModule.chain_transform", "TwistedModule.vertex_series",
              "make_twisted", "mode_table_entry", "apply_table_entry",
              "TwistedModule.weight_of", "TwistedModule.class_of"],
    # every check_* that a workload reaches
    "verify": ["check_shift_conjugation", "check_shift_finiteness",
               "check_weight_bracket", "check_translation_bracket",
               "check_group_laws", "check_twisted_axioms", "check_mode_tables",
               "check_twisted_commutators", "check_conformal_shift",
               "check_regraded_weights", "check_grading_restriction",
               "check_equivariance", "check_functor_transport",
               "check_zero_mode_nilpotency"],
    "cli": ["parse_config", "build_chain", "run_checks", "build_report",
            "render_json"],
}
# Layers whose functions are entry points: their total (inclusive) time is
# a per-check or per-stage wall time, reported beside self time.
ENTRY_LAYERS = ("verify", "cli")
OP_SPAN = "op"
SPAN_CAP = 100_000

_MARK = "__perfbench_original__"


def layer_functions():
    """[(layer, qualified name)] for every traced function."""
    return [(layer, name) for layer, names in LAYER_FUNCTIONS.items()
            for name in names]


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "voatwist" or name.startswith("voatwist."))]


def installed_wrappers():
    """Names of every package attribute that is currently a tracing wrapper."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found.extend(f"{mod.__name__}.{attr}.{a}"
                             for a, v in vars(value).items() if hasattr(v, _MARK))
    return found


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id]
        self.dropped = 0
        self.stats = {}        # name -> [calls, self_s, total_s]
        self._stack = []       # [name, start, child time, span index]
        self._depth = {}       # name -> active frames, for outermost total_s
        self._patches = []     # (owner, attribute, original)
        self.op_id = None

    # -- spans ---------------------------------------------------------------

    def enter(self, name):
        start = time.perf_counter()
        parent = self._stack[-1][3] if self._stack else -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append([name, start, None, parent, self.op_id])
        else:
            index = -1
            self.dropped += 1
        self._stack.append([name, start, 0.0, index])
        self._depth[name] = self._depth.get(name, 0) + 1

    def leave(self):
        end = time.perf_counter()
        name, start, child, index = self._stack.pop()
        if index >= 0:
            self.spans[index][2] = end
        dur = end - start
        depth = self._depth[name] - 1
        self._depth[name] = depth
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur - child
        if depth == 0:
            st[2] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def _wrap(self, name, fn):
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        setattr(traced, _MARK, fn)
        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        import importlib
        # import every layer before patching, so that no module copies a
        # wrapper by value while being imported
        homes = {layer: importlib.import_module(f"voatwist.{layer}")
                 for layer in LAYER_FUNCTIONS}
        modules = _package_modules()
        for layer, qual in layer_functions():
            home = homes[layer]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                owners = [(cls, a) for a, v in vars(cls).items() if v is original]
            else:
                original = getattr(home, qual)
                owners = [(m, a) for m in modules
                          for a, v in vars(m).items() if v is original]
            wrapped = self._wrap(f"{layer}.{qual}", original)
            for owner, attr in owners:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
