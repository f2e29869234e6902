"""The work counters of scripts/count_work.py on small functions."""

import importlib.util
import pathlib
import sys
from fractions import Fraction

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "count_work.py"
spec = importlib.util.spec_from_file_location("count_work", SCRIPT)
count_work = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_work)


def _loop(n):
    total = 0
    for i in range(n):
        total += i
    return total


def test_opcode_count_is_exact_and_grows_with_the_work():
    tracer = sys.gettrace()
    result, ten = count_work.count_opcodes(lambda: _loop(10))
    assert result == 45
    assert count_work.count_opcodes(lambda: _loop(10))[1] == ten
    assert count_work.count_opcodes(lambda: _loop(20))[1] > ten > 0
    assert sys.gettrace() is tracer


def test_fraction_count_is_the_objects_built_and_the_class_is_restored():
    new = Fraction.__dict__["__new__"]
    # constructor calls only: from Python 3.12 on, arithmetic builds its
    # results without Fraction.__new__, so a sum would count on 3.11 alone
    result, built = count_work.count_fractions(
        lambda: [Fraction(1, k) for k in range(1, 6)])
    assert result[1] == Fraction(1, 2)
    assert built == 5
    assert count_work.count_fractions(lambda: 7 * 6)[1] == 0
    assert Fraction.__dict__["__new__"] is new
    assert Fraction(3, 6) == Fraction(1, 2)
