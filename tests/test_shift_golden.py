"""Recorded outputs of the shift and chain layer.

The probes run ``delta_apply`` (both sign conventions), ``chain_transform``
and ``automorphism_apply`` over sl2 and A2 currents and chains, on basis
states, mixed-coefficient states (int, Fraction and Cyc coefficients,
``Cyc(1)`` included) and the zero vector.  Each output is written in a
canonical form that keeps every key, value and coefficient type.  The outputs are hashed in groups (one function, one
current or chain, all states) and each digest is compared with the
recorded one, so a refactor of these layers has to reproduce them exactly.
On the same probes, stages 1 and 2 of ``delta_apply`` (integer
recursions over one denominator per term) are compared with their first
forms in Fractions, kept here as the oracles: powers of the positive-mode
sum, and repeated (sign/j) n(0) on each of its terms.

Re-record (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_shift_golden.py --record
"""

import hashlib
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

from voatwist.delta import _exp_current_stage, _log_stage, delta_apply, make_delta
from voatwist.fock import PBWVector, build_module
from voatwist.lie import build_simple_lie, diagram_automorphism
from voatwist.scalars import Cyc, int_if_integral
from voatwist.series import LogSeries, divided, factors, series_sum
from voatwist.twist import make_twisted, transport_tau
from voatwist.verify import basis_states

GOLDEN = Path(__file__).parent / "data" / "shift_chain.json"

SL2_CURRENTS = {
    "h1=1/2": {"h1": F(1, 2)},
    "h1=1/3": {"h1": F(1, 3)},
    "h1=1": {"h1": F(1)},
    "e1": {"e1": F(1)},
    "f1=-2": {"f1": F(-2)},
    "h1=1/2+e1": {"h1": F(1, 2), "e1": F(1)},
    "zero": {},
}
A2_CURRENTS = {
    "h1=1/2": {"h1": F(1, 2)},
    "h1=1/3,h2=2/3": {"h1": F(1, 3), "h2": F(2, 3)},
    "e1": {"e1": F(1)},
    "e1+e2": {"e1": F(1), "e2": F(1)},
    "h1=1/2+e1": {"h1": F(1, 2), "e1": F(1)},
}
SL2_CHAINS = {
    "h1=1/2": [{"h1": F(1, 2)}],
    "e1": [{"e1": F(1)}],
    "h1=1/3": [{"h1": F(1, 3)}],
    "h1=1/2,e1": [{"h1": F(1, 2)}, {"e1": F(1)}],
}


def fmt_coeff(c) -> str:
    if isinstance(c, Cyc):
        return f"Cyc[{c.order}]({c.fmt()})"
    return f"{type(c).__name__}({c})"


def fmt_vector(vec: PBWVector) -> str:
    terms = ",".join(f"{factors(mono)}:{fmt_coeff(c)}" for mono, c in vec.sorted_items())
    return f"[{terms}]"


def staged_series(staged):
    """The LogSeries of a stage's [(e, k, terms, den)] items, terms/den at
    (e, k), each den a positive int."""
    assert all(type(den) is int and den > 0 for *_rest, den in staged)
    return LogSeries({(e, k): PBWVector(divided(terms, den))
                      for e, k, terms, den in staged})


def fmt_series(ser) -> str:
    return ";".join(f"({e!r},{k}){fmt_vector(vec)}"
                    for (e, k), vec in ser.sorted_items())


def probe_states(module, max_weight, seed):
    """(label, vector) pairs: the basis, mixed-coefficient combinations
    and the zero vector."""
    rnd = random.Random(seed)
    basis = [w for w, _label in basis_states(module, max_weight)]
    monos = [mono for w in basis for mono in w.c]
    scalars = [1, -2, 3, F(1, 2), F(-2, 3), Cyc.of(1), Cyc.zeta(3, 1),
               2 * Cyc.zeta(3, 2), Cyc.t_power(1)]
    out = [(f"basis{i}", w) for i, w in enumerate(basis)]
    for i in range(20):
        picks = rnd.sample(monos, rnd.randint(2, 4))
        out.append((f"mixed{i}", PBWVector(
            {mono: rnd.choice(scalars) for mono in picks})))
    out.append(("zero", PBWVector()))
    return out


def _sl2_setup():
    alg = build_simple_lie("A", 1)
    mod = build_module(alg, F(2), cutoff=5)
    chains = {}
    for name, steps in SL2_CHAINS.items():
        tw = mod
        for coords in steps:
            tw = make_twisted(tw, mod.current(alg.element(coords)))
        chains[name] = tw
    return alg, mod, chains


def _a2_setup():
    alg = build_simple_lie("A", 2)
    mod = build_module(alg, F(2), cutoff=3)
    flip = diagram_automorphism(alg, [2, 1])
    h = make_twisted(mod, mod.current(alg.element({"h1": F(1, 2)})))
    n = make_twisted(mod, mod.current(alg.element({"e1": F(1), "e2": F(1)})))
    chains = {
        "h1=1/2 moved by the flip": transport_tau(h, flip),
        "e1+e2 moved by the flip": transport_tau(n, flip),
    }
    return alg, mod, chains


# (tag, setup, currents, probe weight, probe seed)
PROBES = (("sl2", _sl2_setup, SL2_CURRENTS, 4, 1),
          ("a2", _a2_setup, A2_CURRENTS, 3, 2))


def probe_outputs():
    """Yield (group, state label, canonical output) for every probe."""
    for tag, setup, currents, weight, seed in PROBES:
        alg, mod, chains = setup()
        states = probe_states(mod, weight, seed)
        for cname, coords in currents.items():
            u = mod.current(alg.element(coords))
            for legacy in (False, True):
                delta = make_delta(mod, u, legacy)
                for label, v in states:
                    yield (f"{tag}/delta/{cname}/legacy={legacy}", label,
                           fmt_series(delta_apply(delta, v)))
        for chname, tw in chains.items():
            for label, v in states:
                yield (f"{tag}/chain/{chname}", label,
                       fmt_series(tw.chain_transform(v)))
                yield (f"{tag}/aut/{chname}", label,
                       fmt_vector(tw.automorphism_apply(v)))


def digests() -> dict:
    """{group: [probe count, sha256 of its outputs]}."""
    hashes = {}
    counts = {}
    for group, label, text in probe_outputs():
        if group not in hashes:
            hashes[group] = hashlib.sha256()
            counts[group] = 0
        hashes[group].update(f"{label}={text}\n".encode())
        counts[group] += 1
    return {group: [counts[group], h.hexdigest()] for group, h in hashes.items()}


def test_shift_and_chain_outputs_match_recording():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(want), "the probe set changed"
    changed = [group for group in want if got[group] != want[group]]
    assert not changed, f"outputs changed in {changed}"


def powers_of_the_sum(delta, v):
    """Stage 1 of delta_apply as first written, kept as the oracle of its
    recursion: the k-th power of sum_m c_m a(m) x^(-m), over k!, summed
    term by term until a power vanishes."""
    cur = LogSeries({(0, 0): v})
    powers = [(0, 0, v.c)]
    k = 1
    while cur.terms:
        nxt = LogSeries()
        for (e, _k), vec in cur.terms.items():
            for m in range(1, vec.depth() + 1):
                moved = delta.module.apply_mode(delta.a, m, vec)
                if moved.is_zero():
                    continue
                c = F(1, m) if m % 2 == 0 and not delta.legacy else F(-1, m)
                nxt.add_term(e - m, 0, moved.c, int_if_integral(c / k))
        powers.extend((e, 0, vec.c) for (e, _k), vec in nxt.terms.items())
        cur = nxt
        k += 1
    # series_sum adds the terms of every power and stores the sums by the
    # scalar rule
    return series_sum(powers)


def test_stage_one_recursion_matches_the_powers_of_the_sum():
    for _tag, setup, currents, weight, seed in PROBES:
        alg, mod, _chains = setup()
        states = probe_states(mod, weight, seed)
        for cname, coords in currents.items():
            u = mod.current(alg.element(coords))
            for legacy in (False, True):
                delta = make_delta(mod, u, legacy)
                for label, v in states:
                    got = fmt_series(staged_series(_exp_current_stage(delta, v)))
                    want = fmt_series(powers_of_the_sum(delta, v))
                    assert got == want, (cname, legacy, label)


def zero_mode_powers(delta, staged):
    """Stage 2 of delta_apply as first written, kept as the oracle of its
    integer form: on each stage-1 term, cur_j = (sign/j) n(0) cur_(j-1) in
    Fractions, at log power j, until cur_j vanishes."""
    sign = 1 if delta.legacy else -1
    out = LogSeries()
    for (e, _k), cur in staged.terms.items():
        j = 0
        while j == 0 or not cur.is_zero():
            out.add_term(e, j, cur.c)
            j += 1
            cur = F(sign, j) * delta.module.apply_mode(delta.n, 0, cur)
    return out


def test_stage_two_matches_the_zero_mode_powers():
    compared = 0
    for _tag, setup, currents, weight, seed in PROBES:
        alg, mod, _chains = setup()
        states = probe_states(mod, weight, seed)
        for cname, coords in currents.items():
            u = mod.current(alg.element(coords))
            for legacy in (False, True):
                delta = make_delta(mod, u, legacy)
                if delta.is_identity or delta.n.is_zero():
                    continue
                for label, v in states:
                    got = staged_series(_log_stage(delta, _exp_current_stage(delta, v)))
                    want = zero_mode_powers(delta, powers_of_the_sum(delta, v))
                    assert fmt_series(got) == fmt_series(want), (cname, legacy, label)
                    compared += 1
    assert compared


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_shift_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
