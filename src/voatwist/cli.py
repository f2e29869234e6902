"""Batch command line front end.

A run is described by one self-contained JSON config file.  The report is
a single JSON or CSV document with a fixed field order, so two runs of
the same config produce byte-identical output.  Timing goes to stderr
and never into the report.

Subcommands:

    voatwist run <config>      build the chain, run the configured checks
    voatwist tables <config>   emit grading and mode tables, no checks

Exit status: 0 all checks passed, 2 at least one check failed, 3 no
failures but at least one check was uncertifiable in its inspected
window.  Library errors map to dedicated codes (see EXIT_CODES); bad
configs, bad command lines and report paths that cannot be written exit 64.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
from collections import namedtuple
from fractions import Fraction as F

from .errors import (
    ConfigError,
    CriticalLevel,
    DomainError,
    InvalidSymmetry,
    NeedsFieldExtension,
    NotFixed,
    NotIntertwining,
    NotQuasiPrimary,
    NotSemisimple,
    NotUnipotent,
    Unsupported,
    UnsupportedAlgebra,
    VoatwistError,
)
from .fock import build_module
from .lie import diagram_automorphism, build_simple_lie
from .scalars import fmt_rational, parse_rational
from .series import MAX_WEIGHT, factor_code
from .twist import (
    TwistedModule,
    make_twisted,
    mode_candidates,
    mode_table_rows,
    transport_tau,
    untwisted_as_twisted,
)
from . import verify
from .verify import basis_states, current_states

__all__ = ["main", "load_config", "build_chain", "run_config", "EXIT_CODES"]

EXIT_CODES = {
    CriticalLevel: 10,
    NotFixed: 11,
    NeedsFieldExtension: 12,
    Unsupported: 13,
    UnsupportedAlgebra: 14,
    NotSemisimple: 15,
    InvalidSymmetry: 16,
    NotUnipotent: 17,
    NotQuasiPrimary: 18,
    DomainError: 19,
    NotIntertwining: 19,
    ConfigError: 64,
}

_STEP_KINDS = ("innerSemisimple", "innerNilpotent", "diagramData", "transportTau")

# Larger ranks are refused before anything is built.  With no chain and no
# checks a run takes 0.002 s at rank 4, 0.003 s at rank 5 and 0.007 s at
# rank 6, and with the diagram flip as its chain (cutoff 2, mode span 1)
# 0.010 s, 0.017 s and 0.050 s (best of five in-process runs with the cap
# lifted, 2-core x86 Xeon, Python 3.11), but what inner chains and checks
# cost above rank 4 is unmeasured, and a higher cap would change which
# configs are accepted.
MAX_RANK = 4


# -- config ------------------------------------------------------------------


def _want(mapping, key, kinds, where):
    if key not in mapping:
        raise ConfigError(f"{where} is missing the required key '{key}'")
    val = mapping[key]
    if not isinstance(val, kinds):
        raise ConfigError(f"{where}.{key} has the wrong type")
    return val

def _no_extras(mapping, allowed, where):
    extras = sorted(set(mapping) - set(allowed))
    if extras:
        raise ConfigError(f"unknown keys in {where}: {', '.join(extras)}")

def _rational(value, where):
    """The canonical "p/q" form of a rational config value."""
    try:
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, int):
            return fmt_rational(value)
        if isinstance(value, str):
            return fmt_rational(parse_rational(value))
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigError(f"{where} must be a rational like \"-1/2\" or an integer")

def _nonneg_int(value, where):
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{where} must be a non-negative integer")
    return value

def _string(value, where):
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string")
    return value

def _class_convention(value, where):
    if value not in ("mod-1", "exact"):
        raise ConfigError(f"{where} must be \"mod-1\" or \"exact\"")
    return value

def _coeff_table(value, where):
    """A generator -> rational table in canonical form: sorted names, p/q values."""
    if not isinstance(value, dict) or not value:
        raise ConfigError(f"{where} must map generator names to rationals")
    return {name: _rational(c, f"{where}.{name}") for name, c in sorted(value.items())}


def _canon_step(step, where):
    if not isinstance(step, dict):
        raise ConfigError(f"{where} must be an object")
    kind = _want(step, "kind", str, where)
    if kind not in _STEP_KINDS:
        raise ConfigError(f"{where}.kind must be one of {', '.join(_STEP_KINDS)}")
    data = _want(step, "data", dict, where)
    _no_extras(step, ("kind", "data"), where)
    if kind in ("innerSemisimple", "innerNilpotent"):
        _no_extras(data, ("current",), f"{where}.data")
        canon = {"current": _coeff_table(_want(data, "current", dict, f"{where}.data"),
                                         f"{where}.data.current")}
    else:
        _no_extras(data, ("permutation",), f"{where}.data")
        perm = _want(data, "permutation", list, f"{where}.data")
        if not perm or not all(isinstance(p, int) and not isinstance(p, bool)
                               for p in perm):
            raise ConfigError(f"{where}.data.permutation must be a list of node "
                              "indices (1-based)")
        canon = {"permutation": list(perm)}
    return {"kind": kind, "data": canon}


def _canon_check(entry, where):
    if isinstance(entry, str):
        entry = {"name": entry}
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a check name or an object")
    name = _want(entry, "name", str, where)
    if name not in _CHECKS:
        known = ", ".join(sorted(_CHECKS))
        raise ConfigError(f"{where}.name '{name}' is not a check (known: {known})")
    params = _CHECKS[name].params
    _no_extras(entry, {"name", *params}, where)
    canon = {"name": name}
    for key in sorted(params):
        if key in entry:
            canon[key] = params[key].canon(entry[key], f"{where}.{key}")
    for key, param in params.items():
        if param.default is _REQUIRED and key not in canon:
            raise ConfigError(f"{where} needs '{key}'")
    _check_reach(canon, 0, where)
    return canon


def _check_reach(entry, shift, where):
    """Refuse a canonical check entry whose weight and mode parameters,
    plus the chain's largest eigenvalue shift, add up past MAX_REACH."""
    params = _CHECKS[entry["name"]].params
    keys = [key for key in _REACH if key in params]
    reach = sum(entry.get(key, params[key].default) for key in keys) + shift
    if shift:
        keys.append("the chain's eigenvalue shift")
    if reach > MAX_REACH:
        raise ConfigError(f"{where}: {' + '.join(keys)} is {reach}, past {MAX_REACH}: a "
                          "check builds states of about twice that weight, "
                          f"and a module state has weight at most {MAX_WEIGHT}")


def parse_config(raw) -> dict:
    """Validate a decoded config and return it in canonical form.

    Canonical means: fixed key order, rationals rendered as "p/q",
    string check entries expanded to objects.  Unknown keys anywhere are
    rejected rather than ignored so a typo cannot silently disable a
    check.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _no_extras(raw, ("schemaVersion", "algebra", "level", "module",
                     "twistChain", "checks", "output"), "config")
    if raw.get("schemaVersion") != 1:
        raise ConfigError("config.schemaVersion must be 1")

    alg_raw = _want(raw, "algebra", dict, "config")
    _no_extras(alg_raw, ("type", "rank"), "config.algebra")
    alg_type = _want(alg_raw, "type", str, "config.algebra")
    rank = _nonneg_int(_want(alg_raw, "rank", int, "config.algebra"),
                       "config.algebra.rank")
    if not 0 < rank <= MAX_RANK:
        raise ConfigError(f"config.algebra.rank must be 1 to {MAX_RANK}")

    level = _rational(_want(raw, "level", (str, int), "config"), "config.level")

    mod_raw = _want(raw, "module", dict, "config")
    _no_extras(mod_raw, ("lambda", "cutoff"), "config.module")
    lam = _rational(mod_raw.get("lambda", 0), "config.module.lambda")
    cutoff = _nonneg_int(_want(mod_raw, "cutoff", int, "config.module"),
                         "config.module.cutoff")

    chain_raw = raw.get("twistChain", [])
    if not isinstance(chain_raw, list):
        raise ConfigError("config.twistChain must be a list")
    chain = [_canon_step(s, f"config.twistChain[{i}]")
             for i, s in enumerate(chain_raw)]
    inner_steps = sum(1 for s in chain
                      if s["kind"] in ("innerSemisimple", "innerNilpotent"))

    checks_raw = raw.get("checks", [])
    if not isinstance(checks_raw, list):
        raise ConfigError("config.checks must be a list")
    checks = [_canon_check(c, f"config.checks[{i}]")
              for i, c in enumerate(checks_raw)]
    for c in checks:
        if _CHECKS[c["name"]].inner_step and inner_steps == 0:
            raise ConfigError(f"check '{c['name']}' needs at least one inner "
                              "twist step in config.twistChain")

    out_raw = raw.get("output", {})
    if not isinstance(out_raw, dict):
        raise ConfigError("config.output must be an object")
    _no_extras(out_raw, ("format", "path", "modeSpan", "dimensionWindow",
                         "logMax"), "config.output")
    out = {}
    fmt = out_raw.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError("config.output.format must be \"json\" or \"csv\"")
    out["format"] = fmt
    if "path" in out_raw:
        if not isinstance(out_raw["path"], str) or not out_raw["path"]:
            raise ConfigError("config.output.path must be a non-empty string")
        out["path"] = out_raw["path"]
    for key in ("modeSpan", "dimensionWindow", "logMax"):
        if key in out_raw:
            out[key] = _nonneg_int(out_raw[key], f"config.output.{key}")
    # the declared cutoff bounds the graded-dimension window: a window past
    # it is refused before any work, not enumerated (window 50 lists
    # 3.77e10 monomials)
    if out.get("dimensionWindow", 0) > cutoff:
        raise ConfigError("config.output.dimensionWindow must not exceed "
                          "config.module.cutoff")

    return {
        "schemaVersion": 1,
        "algebra": {"type": alg_type, "rank": rank},
        "level": level,
        "module": {"lambda": lam, "cutoff": cutoff},
        "twistChain": chain,
        "checks": checks,
        "output": out,
    }


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


# -- chain construction ------------------------------------------------------


def _lie_element(alg, table, prefix):
    """The element of a canonical coefficient table; an unknown generator
    is a ConfigError whose message starts with `prefix`."""
    try:
        return alg.element({n: parse_rational(c) for n, c in table.items()})
    except UnsupportedAlgebra as exc:
        raise ConfigError(f"{prefix}: {exc}") from exc


class BuiltRun:
    """Everything a report needs, assembled once from a canonical config."""

    def __init__(self, config):
        self.config = config
        alg = build_simple_lie(config["algebra"]["type"], config["algebra"]["rank"])
        self.algebra = alg
        self.level = parse_rational(config["level"])
        self.module = build_module(alg, self.level,
                                   config["module"]["cutoff"],
                                   parse_rational(config["module"]["lambda"]))
        self.twisted = untwisted_as_twisted(self.module)
        self.currents = []          # inner-step currents, in order
        # (previous, new) twisted modules around the last inner step; None
        # without one, and then parse_config has refused the checks using it
        self.last_inner = None
        self.chain_echo = []
        for step in config["twistChain"]:
            kind, data = step["kind"], step["data"]
            entry = {"kind": kind}
            if kind in ("innerSemisimple", "innerNilpotent"):
                elt = _lie_element(alg, data["current"], "twist step current "
                                   "names an unknown generator")
                s_part, n_part = alg.jordan_chevalley(elt)
                if kind == "innerSemisimple" and not n_part.is_zero():
                    raise NotSemisimple(
                        "the declared semisimple step carries a nilpotent part")
                if kind == "innerNilpotent" and not s_part.is_zero():
                    raise NotUnipotent(
                        "the declared nilpotent step carries a semisimple part")
                u = self.module.current(elt)
                tw = make_twisted(self.twisted, u)
                self.currents.append(u)
                self.last_inner = (self.twisted, tw)
                entry["current"] = dict(data["current"])
                entry["selfPairingScalar"] = fmt_rational(tw.steps[-1].kappa)
            else:
                tau = diagram_automorphism(alg, data["permutation"])
                prev = self.twisted
                if kind == "diagramData":
                    if prev.diagram is not None:
                        raise Unsupported("only one diagram factor per chain")
                    tw = TwistedModule(prev.base, prev.steps, tau, prev.conjugator)
                else:
                    # conjugating by tau leaves the automorphism's order alone
                    tw = transport_tau(prev, tau)
                entry["permutation"] = list(data["permutation"])
            self.chain_echo.append(entry)
            self.twisted = tw

    @property
    def has_diagram_part(self):
        return self.twisted.diagram is not None


def build_chain(config) -> BuiltRun:
    return BuiltRun(config)


# -- checks ------------------------------------------------------------------


def _run_axioms(run, p):
    targets = basis_states(run.module, p["weight"])
    return [verify.check_twisted_axioms(run.twisted,
                                        current_states(run.module),
                                        targets, ceiling=p["ceiling"])]

def _run_delta(run, p):
    module = run.module
    states = basis_states(module, p["weight"])
    args = current_states(module, conformal=True)
    targets = basis_states(module, p["targetWeight"])
    reports = []
    for i, u in enumerate(run.currents, start=1):
        tag = f":step{i}" if len(run.currents) > 1 else ""
        for report in (verify.check_shift_finiteness(module, u, states),
                       verify.check_weight_bracket(module, u, states),
                       verify.check_translation_bracket(module, u, states),
                       verify.check_group_laws(module, u, states),
                       verify.check_shift_conjugation(module, u, args, targets,
                                                      inner_ceiling=p["innerCeiling"])):
            report.name += tag
            reports.append(report)
    return reports

def _run_tables(run, p):
    return [verify.check_mode_tables(run.twisted, mode_span=p["modeSpan"],
                                     weight=p["weight"], log_max=p["logMax"])]

def _run_commutator(run, p):
    return [verify.check_twisted_commutators(run.twisted, mode_span=p["modeSpan"],
                                             weight=p["weight"])]

def _run_conformal(run, p):
    prev, new = run.last_inner
    return [verify.check_conformal_shift(prev, new, weight=p["weight"])]

def _run_weights(run, p):
    gi = run.algebra.names.index(p["generator"])
    want = parse_rational(p["expected"])
    expectations = [(factor_code(gi, -1) * k, want) for k in range(p["count"] + 1)]
    return [verify.check_regraded_weights(run.twisted, expectations)]

def _run_grading(run, p):
    coset = p["classConvention"] == "mod-1"
    return [verify.check_grading_restriction(run.twisted, coset_classes=coset)]

def _run_equivariance(run, p):
    targets = basis_states(run.module, p["weight"])
    return [verify.check_equivariance(run.twisted, target_states=targets,
                                      ceiling=p["ceiling"])]

def _run_functor(run, p):
    return [verify.check_functor_transport(run.module, run.currents[-1],
                                           probe_weight=p["probeWeight"],
                                           ceiling=p["ceiling"])]

def _run_zero_mode(run, p):
    return [verify.check_zero_mode_nilpotency(run.twisted, p["generator"],
                                              weight=p["weight"])]

def _run_group_laws(run, p):
    states = basis_states(run.module, p["weight"])
    return [verify.check_group_laws(run.module, run.currents[-1], states)]

def _run_additivity(run, p):
    states = basis_states(run.module, p["weight"])
    return [verify.check_additivity(run.module, p["semisimpleCurrent"],
                                    p["nilpotentCurrent"], states)]


def _known_generator(name, run, check):
    if name not in run.algebra.names:
        raise ConfigError(f"{check} check: unknown generator '{name}'")
    return name

def _current_vector(table, run, check):
    return run.module.current(_lie_element(run.algebra, table, f"{check} check"))


_REQUIRED = object()    # the default of a parameter every entry must give

# A parameter's `canon(config value, where)` validates it and returns its
# canonical echo; `resolve(canonical value, run, check name)` turns that into
# the runner's argument once the chain is built, before any check runs.
_Param = namedtuple("_Param", "canon default resolve",
                    defaults=(_REQUIRED, lambda value, _run, _check: value))
# A check's `run(run, parameters)` returns its reports; `params` maps each
# config key to a _Param, with required keys in the order they are asked for.
_Check = namedtuple("_Check", "run params inner_step", defaults=(False,))


# The parameters that set how far up a check's states and modes reach.  With
# the chain's largest eigenvalue shift added, a check builds states of up to
# about twice their sum in weight (a vertex operator of a state of the given
# weight, read to the ceiling, on another such state; a mode-span commutator
# on it), and a module state has weight at most MAX_WEIGHT (series.py), so a
# sum past half of it is refused before any check runs.
_REACH = ("weight", "targetWeight", "probeWeight", "ceiling", "innerCeiling",
          "modeSpan")
MAX_REACH = MAX_WEIGHT // 2

def _ints(**defaults):
    return {key: _Param(_nonneg_int, d) for key, d in defaults.items()}

_GENERATOR = _Param(_string, _REQUIRED, _known_generator)
_CURRENT = _Param(_coeff_table, _REQUIRED, _current_vector)

# The one declaration of every check: what a config entry may give, the
# defaults of what it leaves out, and whether it needs an inner twist step.
_CHECKS = {
    "axioms": _Check(_run_axioms, _ints(weight=2, ceiling=2)),
    "delta": _Check(_run_delta, _ints(weight=3, innerCeiling=2, targetWeight=2),
                    inner_step=True),
    "tables": _Check(_run_tables, _ints(modeSpan=2, weight=2, logMax=None)),
    "commutator": _Check(_run_commutator, _ints(modeSpan=2, weight=2)),
    "conformal": _Check(_run_conformal, _ints(weight=3), inner_step=True),
    "weights": _Check(_run_weights, {"generator": _GENERATOR,
                                     "expected": _Param(_rational),
                                     **_ints(count=6)}),
    "grading": _Check(_run_grading,
                      {"classConvention": _Param(_class_convention, "mod-1")}),
    "equivariance": _Check(_run_equivariance, _ints(ceiling=1, weight=2)),
    "functor": _Check(_run_functor, _ints(probeWeight=2, ceiling=2), inner_step=True),
    "zero-mode": _Check(_run_zero_mode, {"generator": _GENERATOR, **_ints(weight=2)}),
    "group-laws": _Check(_run_group_laws, _ints(weight=3), inner_step=True),
    "additivity": _Check(_run_additivity, {"semisimpleCurrent": _CURRENT,
                                           "nilpotentCurrent": _CURRENT,
                                           **_ints(weight=2)}),
}


def _check_params(entry, run):
    """The runner's parameters for one canonical check entry."""
    return {key: param.resolve(entry.get(key, param.default), run, entry["name"])
            for key, param in _CHECKS[entry["name"]].params.items()}


def run_checks(run: BuiltRun, calls):
    """The reports of the resolved (runner, parameters) calls, in order."""
    reports = []
    for runner, params in calls:
        reports.extend(runner(run, params))
    return reports


# -- report assembly ---------------------------------------------------------


def _graded_dimension_rows(run: BuiltRun, window: int):
    """Count the basis up to the window by (weight, class mod 1), in the
    ints of TwistedModule.lattice_grade, divided back only in the rows."""
    module, twisted = run.module, run.twisted
    monos = [""]
    for w in range(1, window + 1):
        monos.extend(module.basis(w))
    scale = twisted.lattice_grading()[0]
    counts = {}
    for mono in monos:
        weight, cls = twisted.lattice_grade(mono)
        key = (weight, cls % scale)
        counts[key] = counts.get(key, 0) + 1
    return [
        {"weight": fmt_rational(F(w, scale)), "class": fmt_rational(F(c, scale)),
         "dimension": n}
        for (w, c), n in sorted(counts.items())
    ]


def build_report(run: BuiltRun, reports) -> dict:
    config = run.config
    out = config["output"]
    notices = []
    alg = run.algebra

    order = run.twisted.branch_order()
    report = {
        "schemaVersion": 1,
        "config": config,
        "algebra": {
            "family": alg.family,
            "rank": alg.rank,
            "dimension": alg.dim,
            "dualCoxeterNumber": fmt_rational(F(alg.dual_coxeter())),
        },
        "level": fmt_rational(run.level),
        "branchOrder": order,
        "chain": run.chain_echo,
    }
    try:
        report["centralCharge"] = fmt_rational(run.module.central_charge())
    except CriticalLevel:
        notices.append("central charge omitted: the level is critical")

    window = out.get("dimensionWindow", min(4, config["module"]["cutoff"]))
    if run.has_diagram_part:
        notices.append("graded dimensions omitted: the diagram-twisted base "
                       "is external data")
        report["gradedDimensions"] = None
    else:
        try:
            rows = _graded_dimension_rows(run, window)
            report["gradedDimensions"] = {"inspectedWindow": window,
                                          "rows": rows}
            notices.append(f"graded dimensions cover weights up to the "
                           f"inspected window {window} only")
        except Unsupported as exc:
            notices.append(f"graded dimensions omitted: {exc}")
            report["gradedDimensions"] = None

    span = out.get("modeSpan", 2)
    log_max = out.get("logMax", verify.chain_log_bound(run.twisted))
    report["modeTables"] = mode_table_rows(
        run.twisted, mode_candidates(span, order), log_max)
    report["modeTableWindow"] = {"modeSpan": span, "logMax": log_max}

    report["checks"] = [r.to_dict() for r in reports]
    statuses = [r.status for r in reports]
    report["summary"] = {
        "pass": statuses.count("pass"),
        "fail": statuses.count("fail"),
        "uncertifiable": statuses.count("uncertifiable"),
    }
    report["truncationNotices"] = notices
    return report


def exit_status(reports) -> int:
    statuses = [r.status for r in reports]
    if "fail" in statuses:
        return 2
    if "uncertifiable" in statuses:
        return 3
    return 0


# -- serialization -----------------------------------------------------------


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def render_csv(report: dict) -> str:
    """Flatten the report into one CSV document.

    Three record kinds share the column layout; nested values (witness,
    details, ops) are embedded as compact JSON so nothing is lost.
    """
    import csv  # only this output format needs it: no import on every run

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["record", "field1", "field2", "field3", "field4", "field5"])
    dims = report.get("gradedDimensions")
    if dims:
        for row in dims["rows"]:
            w.writerow(["dimension", row["weight"], row["class"],
                        row["dimension"], "", ""])
    for row in report.get("modeTables", []):
        ops = ";".join(f"{op['generator']}({op['mode']})={op['coefficient']}"
                       for op in row["ops"])
        w.writerow(["modeRow", row["generator"], row["mode"], row["logPower"],
                    ops, row["scalar"]])
    for chk in report.get("checks", []):
        wit = json.dumps(chk["witness"], sort_keys=True) if chk.get("witness") else ""
        det = json.dumps(chk.get("details", {}), sort_keys=True)
        w.writerow(["check", chk["name"], chk["status"], wit, det, ""])
    for note in report.get("truncationNotices", []):
        w.writerow(["notice", note, "", "", "", ""])
    return buf.getvalue()


def _check_report_path(path):
    """Refuse a report path that cannot be opened before any work is done."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write the report: {path} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write the report: no directory {parent}")


def _emit(text: str, path):
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write the report: {exc}") from exc
    else:
        sys.stdout.write(text)


# -- entry point -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this interface
    # reserves for check failures; route usage problems to ConfigError
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="voatwist",
                     description="build twisted modules and run exact checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, blurb in (("run", "run the configured checks and report"),
                       ("tables", "emit grading and mode tables, no checks")):
        p = sub.add_parser(cmd, help=blurb)
        p.add_argument("config", help="path to a JSON config file")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"),
                       help="override the config's output format")
    return parser


def run_config(config: dict, with_checks: bool) -> tuple[dict, int]:
    """Build, check, and report.  Returns (report, exit status).  Both
    commands resolve the check entries, so `tables` refuses the entries
    that `run` refuses, though it runs no check."""
    run = build_chain(config)
    if with_checks and config["checks"] and run.has_diagram_part:
        raise Unsupported(
            "checks need series arithmetic, which is not defined over a "
            "diagram-twisted base; such bases enter only as exported tables")
    # every entry is resolved before the first check runs, so a bad
    # generator name is reported without spending any check time
    shift = math.ceil(sum(step.eig.values[-1] for step in run.twisted.steps))
    for i, entry in enumerate(config["checks"]):
        _check_reach(entry, shift, f"config.checks[{i}]")
    calls = [(_CHECKS[entry["name"]].run, _check_params(entry, run))
             for entry in config["checks"]]
    reports = run_checks(run, calls) if with_checks else []
    report = build_report(run, reports)
    return report, exit_status(reports)


def main(argv=None) -> int:
    started = time.monotonic()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config)
        if args.format:
            config["output"]["format"] = args.format
        path = args.output or config["output"].get("path")
        if path:
            _check_report_path(path)
        report, status = run_config(config, with_checks=(args.command == "run"))
        fmt = config["output"]["format"]
        text = render_json(report) if fmt == "json" else render_csv(report)
        _emit(text, path)
    except VoatwistError as exc:
        payload = {"schemaVersion": 1,
                   "error": {"code": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(render_json(payload))
        status = EXIT_CODES.get(type(exc), 1)
    print(f"completed in {time.monotonic() - started:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
