import json
import math
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from qeis.archimedean import (arch_constant, bessel_sum_check,
                              comb_identity_check, f0_closed, f0_double_sum,
                              gamma_integral_check, gamma_integral_closed,
                              rank1_vanishing_check, whittaker_at)
from qeis.bessel import bessel_k
from qeis.errors import NumericError, ValidationError
from qeis.hermitian import FieldE, GlobalVector, QuadInt, global_vector

F3 = FieldE(3)


# ---------------------------------------------------------------------------
# Whittaker data
# ---------------------------------------------------------------------------

def test_whittaker_at_identity_example():
    w = whittaker_at(global_vector(1, 0, 1, 0), 3, F3)
    assert abs(w.beta_abs - 8 * math.pi) < 1e-12
    assert abs(w.phase - 1) < 1e-12
    assert len(w.components) == 7
    # phase 1: components symmetric under v -> -v
    for v in range(1, 4):
        assert abs(w.components[3 + v] - w.components[3 - v]) < 1e-15


def test_whittaker_phase_unit_modulus():
    rng = random.Random(9)
    for _ in range(20):
        T = global_vector(rng.randint(-9, 9), rng.randint(-9, 9),
                          rng.randint(-9, 9), rng.randint(-9, 9))
        a_plus_b = T.a.add(T.b)
        if not a_plus_b:
            continue
        w = whittaker_at(T, 2, F3)
        assert abs(abs(w.phase) - 1) < 1e-12
        assert abs(w.components[2 + 1] - w.phase * bessel_k(1, w.beta_abs)) < 1e-15


def test_whittaker_degenerate_rejected():
    with pytest.raises(ValidationError):
        whittaker_at(GlobalVector(QuadInt(1, 0), QuadInt(-1, 0)), 3, F3)


def test_arch_constant_values():
    c3 = arch_constant(2, 3)
    assert (c3.rational, c3.pi_power) == (Fraction(64, 135), 6)
    c4 = arch_constant(2, 4)
    assert c4.rational == Fraction(2 ** 13, 576 * 5040)
    assert c4.pi_power == 8
    for ell in (3, 4, 5, 7):
        assert arch_constant(2, ell).pi_power == 2 * ell - 2 + 2


# ---------------------------------------------------------------------------
# Identity checkers
# ---------------------------------------------------------------------------

def test_gamma_integral_examples():
    # C = Dv, m = 0, nn = 1: both sides pi / sqrt(Dv)
    assert abs(gamma_integral_closed(2.0, 2.0, 0, 1) - math.pi / math.sqrt(2)) < 1e-12
    assert gamma_integral_check(2.0, 2.0, 0, 1)
    assert gamma_integral_check(1.0, 2.0, 1, 3)
    assert gamma_integral_check(0.5, 1.5, 2, 7)


def test_gamma_integral_validation():
    with pytest.raises(ValidationError):
        gamma_integral_check(1.0, -1.0, 0, 1)
    with pytest.raises(ValidationError):
        gamma_integral_check(1.0, 1.0, 3, 2)


def test_comb_identity_small():
    ok, where = comb_identity_check(0)
    assert ok
    ok, where = comb_identity_check(1)
    assert ok
    # the ell = 1 polynomial is 16 - 24 z; recompute the right side directly
    rhs = [(-1) ** r * 2 ** (2 - 2 * r) * math.factorial(2) * math.factorial(2 + 2 * r)
           // (math.factorial(r) ** 2 * math.factorial(1 + r) * math.factorial(1 - r))
           for r in (0, 1)]
    assert rhs == [16, -24]


def test_comb_identity_sweep():
    for ell in range(0, 13):
        ok, where = comb_identity_check(ell)
        assert ok, (ell, where)


def _comb_identity_check_fraction(ell: int):
    """The checker as it was with Fraction accumulators, kept as the reference."""
    from qeis.archimedean import _cjk

    lhs = [Fraction(0)] * (ell + 1)
    for k in range(ell + 1):
        for j in range(k + 1):
            c = _cjk(ell, j, k)
            for i in range(k - j + 1):
                power = (ell - k) + i
                sign = (-1) ** (ell - k) * (-1) ** i
                lhs[power] += c * sign * math.comb(k - j, i)
    for r in range(ell + 1):
        rhs = (Fraction((-1) ** r * 2 ** (2 * ell - 2 * r))
               * math.factorial(2 * ell) * math.factorial(2 * ell + 2 * r)
               / (math.factorial(r) ** 2 * math.factorial(ell + r)
                  * math.factorial(ell - r)))
        if lhs[r] != rhs:
            return False, r
    for a in range(ell + 1):
        b = ell
        if sum(math.comb(b, i) * math.comb(b - a, b - i) for i in range(a, b + 1)) \
                != math.comb(2 * b - a, b):
            return False, -1
    for r in range(ell + 1):
        lhs2 = sum(Fraction(math.comb(2 * ell, i) * math.comb(ell - r, i),
                            math.comb(4 * ell, 2 * i)) for i in range(ell - r + 1))
        rhs2 = Fraction(2 ** (2 * ell - 2 * r) * math.comb(2 * ell + 2 * r, ell + r),
                        math.comb(4 * ell, 2 * ell))
        if lhs2 != rhs2:
            return False, -2
    return True, None


def test_comb_identity_int_accumulators_match_the_fraction_reference(monkeypatch):
    for ell in range(0, 13):
        assert comb_identity_check(ell) == _comb_identity_check_fraction(ell) == (True, None)
    # a coefficient off by one: both report the same first mismatching power
    from qeis import archimedean

    cjk = archimedean._cjk
    for ell, (j0, k0) in ((3, (0, 0)), (6, (2, 4)), (12, (5, 9))):
        monkeypatch.setattr(archimedean, "_cjk",
                            lambda e, j, k, j0=j0, k0=k0: cjk(e, j, k) + ((j, k) == (j0, k0)))
        got = comb_identity_check(ell)
        assert got == _comb_identity_check_fraction(ell), ell
        assert got == (False, ell - k0), ell


def test_f0_closed_examples():
    ell = 2
    # B = 0: hypergeometric factor is 1
    a_only = f0_closed(1.7, 0.0, ell)
    expect = (2.0 ** (-2 * ell) * math.factorial(2 * ell) * math.pi ** (-2 * ell)
              / (math.factorial(ell) ** 2 * 1.7 ** (ell + 0.5)))
    assert abs(a_only - expect) < 1e-15
    # ell = 1, A = B = 1/2: 2F1(-1, 3/2; 1; 1/2) = 1/4
    val = f0_closed(0.5, 0.5, 1)
    pref = 2.0 ** (-2) * 2 * math.pi ** (-2)
    assert abs(val - pref * 0.25) < 1e-15


def test_f0_dual_forms_agree():
    rng = random.Random(13)
    for _ in range(100):
        ell = rng.randint(0, 8)
        A = rng.uniform(0.05, 4.0)
        B = rng.uniform(0.0, 4.0)
        x, y = f0_closed(A, B, ell), f0_double_sum(A, B, ell)
        assert abs(x - y) <= 1e-12 * max(abs(x), abs(y)), (ell, A, B)


def test_bessel_sum_examples():
    assert bessel_sum_check(0, 1.0)
    # ell = 1, C = 1: K_1(2) - K_2(2) = -K_0(2)
    lhs = bessel_k(1, 2.0) - bessel_k(2, 2.0)
    assert abs(lhs + bessel_k(0, 2.0)) < 1e-12
    assert bessel_sum_check(1, 1.0)


def test_bessel_sum_sweep():
    for ell in range(0, 7):
        for C in (0.5, 1.0, 2.0):
            assert bessel_sum_check(ell, C), (ell, C)


def test_besselk_series_matches_mpmath_to_1e_45():
    """The DLMF 10.31.1 series against mpmath at 50 digits: n = 0..24 at fixed
    x from 0.2 to 20 and at 20 seeded random x in [0.2, 20].

    The reference takes K_0 and K_1 from mpmath.besselk at 90 digits and the
    higher orders from the upward recurrence K_(n+1) = K_(n-1) + (2n/x) K_n,
    which is stable for K, the solution that grows with n.  A recurrence is
    fine for a reference, which only has to be accurate; bessel_sum_check
    must never use one, because its identity is that recurrence summed and
    would pass recurrence values whatever their error.
    """
    import mpmath

    from qeis.archimedean import _besselk_50

    rng = random.Random(31)
    xs = [0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0] + [rng.uniform(0.2, 20.0) for _ in range(20)]
    with mpmath.workdps(90):
        for x in xs:
            mx = mpmath.mpf(x)
            ks = [mpmath.besselk(0, mx), mpmath.besselk(1, mx)]
            for n in range(1, 24):
                ks.append(ks[n - 1] + 2 * n / mx * ks[n])
            for n, want in enumerate(ks):
                got = mpmath.mpf(str(_besselk_50(n, x)))
                assert abs(got - want) <= 1e-45 * abs(want), (n, x)


def test_identity_battery_evaluates_each_bessel_value_once(monkeypatch):
    """The l <= 6, C in {0.5, 1, 2} sweep needs K_0..K_12 at x = 1, 2, 4, each
    summed once from its own series; mpmath.besselk is never called."""
    import mpmath

    from qeis import archimedean
    from qeis.verify import suite_identities

    def refuse(*args, **kwargs):
        raise AssertionError("the identity battery called mpmath.besselk")

    monkeypatch.setattr(mpmath, "besselk", refuse)
    archimedean._besselk_50.cache_clear()
    try:
        rep = suite_identities()
        info = archimedean._besselk_50.cache_info()
    finally:
        archimedean._besselk_50.cache_clear()
    assert rep["ok"] and rep["checks"] == 208
    assert info.misses == 39


def test_bessel_sum_check_reads_the_cached_values(monkeypatch):
    from qeis import archimedean

    cached = archimedean._besselk_50
    monkeypatch.setattr(archimedean, "_besselk_50",
                        lambda v, x: cached(v, x) * Decimal("1.00000001") if v == 3
                        else cached(v, x))
    assert bessel_sum_check(1, 1.0)  # orders 0, 1, 2
    assert not bessel_sum_check(2, 1.0)  # orders 0, 2, 3, 4
    assert not bessel_sum_check(3, 0.5)  # orders 0, 3, ..., 6


def test_euler_gamma_matches_mpmath_at_its_full_length():
    """The module's Euler constant agrees with mpmath.euler to every digit it
    holds, and holds more than the 60 + ceil(40/ln 10) digits K_n(20) is summed at."""
    import mpmath

    from qeis.archimedean import EULER_GAMMA

    digits = len(EULER_GAMMA.as_tuple().digits)
    assert digits > 60 + math.ceil(40 / math.log(10))
    with mpmath.workdps(digits + 20):
        error = abs(mpmath.mpf(str(EULER_GAMMA)) - mpmath.euler)
        assert error <= mpmath.mpf(10) ** -digits / 2, error


def test_identity_battery_runs_without_mpmath():
    """`verify --suite identities` with mpmath unimportable: the runtime does not need it."""
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from qeis.cli import main\n"
        "sys.exit(main(['verify', '--suite', 'identities']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["ok"]
    assert [r["checks"] for r in report["reports"]] == [208]


def _recorded_integrands(monkeypatch, run) -> list:
    """The integrands that `run` hands to the exp-sinh rule, in call order."""
    from qeis import archimedean

    seen = []
    quad = archimedean._quad_halfline

    def record(f):
        seen.append(f)
        return quad(f)

    monkeypatch.setattr(archimedean, "_quad_halfline", record)
    run()
    monkeypatch.setattr(archimedean, "_quad_halfline", quad)
    return seen


def test_quad_halfline_matches_quadpack_on_every_battery_integrand(monkeypatch):
    """The 50 half-line integrals of suite_identities(seed=2024) and the three
    gamma examples above, against scipy.integrate.quad to 1e-12 relative."""
    from scipy import integrate

    from qeis.archimedean import _quad_halfline
    from qeis.verify import suite_identities

    battery = _recorded_integrands(monkeypatch, lambda: suite_identities(seed=2024))
    examples = _recorded_integrands(monkeypatch, lambda: [
        gamma_integral_check(2.0, 2.0, 0, 1), gamma_integral_check(1.0, 2.0, 1, 3),
        gamma_integral_check(0.5, 1.5, 2, 7)])
    assert (len(battery), len(examples)) == (50, 3)
    for f in battery + examples:
        want, _ = integrate.quad(f, 0.0, math.inf, limit=400, epsabs=1e-14, epsrel=1e-12)
        got = _quad_halfline(f)
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)


def test_quad_halfline_refuses_what_it_cannot_integrate():
    from qeis.archimedean import _quad_halfline

    assert abs(_quad_halfline(lambda x: 1.0 / (1.0 + x) ** 2) - 1.0) < 1e-14
    # divergent: the t > 0 tail never becomes negligible
    with pytest.raises(NumericError, match="tail not negligible"):
        _quad_halfline(lambda x: 1.0 / (1.0 + x))
    with pytest.raises(NumericError):
        _quad_halfline(lambda x: math.nan)
    with pytest.raises(NumericError):
        _quad_halfline(lambda x: 1.0 / (1.0 + x) ** 2 if x < 5.0 else math.nan)
    # int x^300 e^-x = 300! is finite, but x ** 300 overflows near the peak
    with pytest.raises(NumericError, match="out of range"):
        _quad_halfline(lambda x: x ** 300 * math.exp(-x))
    with pytest.raises(NumericError, match="division by zero"):
        _quad_halfline(lambda x: 1.0 / (x - 1.0))


def test_cli_import_leaves_scipy_integrate_out():
    """`import qeis.cli` loads scipy.special and numpy only, and a
    `verify --suite all` run does not load scipy.integrate."""
    code = (
        "import contextlib, io, sys, qeis.cli\n"
        "heavy = ('scipy.integrate', 'scipy.optimize', 'scipy.linalg', 'scipy.sparse')\n"
        "print([m for m in heavy if m in sys.modules])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = qeis.cli.main(['verify', '--suite', 'all'])\n"
        "print(code, 'scipy.integrate' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "0 False"]


def test_rank1_vanishing_examples():
    # (ell = 2, j = 1): integral = pi 1! 2! / 4! = pi / 12
    closed = math.pi * math.factorial(1) * math.factorial(2) / math.factorial(4)
    assert abs(closed - math.pi / 12) < 1e-15
    assert rank1_vanishing_check(2, 1)
    for ell in range(1, 11):
        assert rank1_vanishing_check(ell, 0), ell
