from fractions import Fraction as F

import pytest

from voatwist.errors import DomainError
from voatwist.scalars import Cyc
from voatwist.series import (
    LogSeries,
    branch_shift,
    series_combine,
    series_derivative,
    series_eq,
    series_scale,
)


def test_add_term_accumulates_and_cancels():
    s = LogSeries()
    s.add_term(F(1, 2), 0, F(3))
    s.add_term(F(1, 2), 0, F(-3))
    assert s.is_zero()
    s.add_term(0, 1, F(2))
    s.add_term(0, 1, F(5))
    assert s.terms[(F(0), 1)] == 7


def test_combine_add_intersects_windows():
    a = LogSeries({(F(0), 0): F(1)}, ceiling=F(3))
    b = LogSeries({(F(1), 0): F(1)}, ceiling=F(5))
    out = series_combine(a, b)
    assert out.ceiling == F(3)
    assert series_combine(b, LogSeries()).ceiling == F(5)
    assert out.terms[(F(0), 0)] == 1 and out.terms[(F(1), 0)] == 1


def test_combine_scale_shifts_window():
    a = LogSeries({(F(2), 1): F(3)}, ceiling=F(4))
    out = series_scale(a, scalar=F(2), eshift=F(-1))
    assert out.terms == {(F(1), 1): F(6)}
    assert out.ceiling == F(3)


def test_derivative_of_pure_power():
    s = LogSeries({(F(3), 0): F(1)})
    d = series_derivative(s)
    assert d.terms == {(F(2), 0): F(3)}


def test_derivative_mixes_log_down():
    # d/dx x^e log^2 x = e x^(e-1) log^2 x + 2 x^(e-1) log x
    s = LogSeries({(F(-1, 2), 2): F(1)})
    d = series_derivative(s)
    assert d.terms[(F(-3, 2), 2)] == F(-1, 2)
    assert d.terms[(F(-3, 2), 1)] == 2


def test_branch_shift_scales_fractional_powers():
    s = LogSeries({(F(1, 3), 0): F(1)})
    out = branch_shift(s, 1, 3)
    assert out.terms[(F(1, 3), 0)] == Cyc.zeta(3, 1)
    # three branch steps return to the start
    assert series_eq(branch_shift(s, 3, 3), s) is None


def test_branch_shift_turns_log_into_log_plus_t():
    s = LogSeries({(F(0), 1): F(1)})
    out = branch_shift(s, 1, 1)
    assert out.terms[(F(0), 1)] == Cyc.of(1)
    assert out.terms[(F(0), 0)] == Cyc.t_power(1)


def test_branch_shift_rejects_off_lattice_exponent():
    with pytest.raises(DomainError):
        branch_shift(LogSeries({(F(1, 2), 0): F(1)}), 1, 3)


def test_series_eq_reports_first_mismatch():
    a = LogSeries({(F(0), 0): F(1), (F(1), 0): F(2)})
    b = LogSeries({(F(0), 0): F(1), (F(1), 0): F(3)})
    wit = series_eq(a, b)
    assert wit == (F(1), 0, F(2), F(3))


def test_series_eq_ignores_untrusted_region():
    a = LogSeries({(F(5), 0): F(9)}, ceiling=F(2))
    b = LogSeries({}, ceiling=F(2))
    assert series_eq(a, b) is None
    assert series_eq(a, b, ceiling=F(1)) is None
