import math

import mpmath as mp
import pytest

from qeis.bessel import bessel_k, bessel_k_scaled
from qeis.errors import ValidationError


@pytest.fixture(autouse=True)
def _mp_precision():
    """Every mpmath reference in this module runs at 30 digits, and only here."""
    with mp.workdps(30):
        yield


def k_quadrature(v, x):
    """Oracle: the defining integral K_v(x) = (1/2) int_0^inf t^(v-1) e^(-x(t+1/t)) dt,
    in the substituted form int_0^inf e^(-x cosh s) cosh(v s) ds."""
    x = mp.mpf(x)
    smax = mp.acosh(mp.mpf(200 + 60 * v) / x + 1)
    return mp.quad(lambda s: mp.e ** (-x * mp.cosh(s)) * mp.cosh(v * s), [0, smax])


def test_desk_values_from_quadrature():
    assert abs(bessel_k(1, 2.0) - 0.1398658818165707) < 1e-12
    assert abs(bessel_k(0, 2.0) - 0.1138938727495334) < 1e-12
    # recurrence identity at x = 2: K_2 = K_0 + (2/2) * 2/2 ... i.e. K_2(x) = K_0(x) + (2/x) K_1(x)
    assert abs(bessel_k(2, 2.0) - (bessel_k(0, 2.0) + bessel_k(1, 2.0))) < 1e-12


def test_against_quadrature_oracle():
    for x in (0.05, 0.5, 2.0, 8.0, 25.0):
        for v in (0, 1, 3, 10):
            ref = float(k_quadrature(v, x))
            assert abs(bessel_k(v, x) - ref) <= 1e-12 * ref, (v, x)


def test_scaled_full_window():
    for x in (1e-3, 0.1, 1.9, 2.0, 7.9, 8.0, 100.0, 1000.0):
        for v in (0, 1, 2, 5, 20, 40):
            ref = float(mp.besselk(v, mp.mpf(x)) * mp.e ** mp.mpf(x))
            mine = bessel_k_scaled(v, x)
            assert abs(mine - ref) <= 1e-12 * ref, (v, x)


def test_recurrence_residual_across_range():
    for x in (1e-3, 0.02, 0.5, 2.0, 8512 / 1000, 77.0, 900.0):
        for v in range(1, 12):
            lhs = bessel_k_scaled(v + 1, x)
            rhs = bessel_k_scaled(v - 1, x) + (2 * v / x) * bessel_k_scaled(v, x)
            assert abs(lhs - rhs) <= 1e-11 * abs(lhs), (v, x)


def test_validation():
    with pytest.raises(ValidationError):
        bessel_k(0, 1e-4)
    with pytest.raises(ValidationError):
        bessel_k(0, 2e3)
    with pytest.raises(ValidationError):
        bessel_k(41, 2.0)
    with pytest.raises(ValidationError):
        bessel_k(-1, 2.0)


def test_monotone_decay_in_x():
    xs = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    vals = [bessel_k(0, x) for x in xs]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))
    assert math.isfinite(bessel_k_scaled(40, 1e-3))
