import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from qeis.arith import bernoulli, sigma_k
from qeis.errors import ResourceBudgetError, ValidationError
from qeis.fourier import (REGION_SCALE, c_ell, coefficient, constant_term,
                          d_nl, denominator_bound_check, full_expansion, sigma_E)
from qeis.hermitian import (FieldE, GlobalVector, Params, QuadInt,
                            global_vector, norm, quadint)

F3 = FieldE(3)
P3 = Params(n=2, ell=3)


# ---------------------------------------------------------------------------
# sigma_E and rank-1 coefficients
# ---------------------------------------------------------------------------

def test_sigma_E_examples():
    T = GlobalVector(quadint(1), QuadInt(-1, 2))      # (1, sqrt(-3))
    assert sigma_E(T, 3, F3) == 1
    T2 = GlobalVector(quadint(2), QuadInt(-2, 4))     # (2, 2 sqrt(-3))
    assert sigma_E(T2, 3, F3) == 65
    with pytest.raises(ValidationError):
        sigma_E(global_vector(0, 0, 0, 0), 3, F3)


def test_sigma_E_split_prime():
    # content 7 at a split prime contributes (1 + 7^l) twice when both ideals divide
    T = GlobalVector(quadint(7), quadint(7))
    val = sigma_E(T, 2, F3)
    assert val == (1 + 49) ** 2
    # a vector divisible by exactly one ideal above 7: 7 = p1 p2, pick a = 1 + 2w
    a = QuadInt(1, 2)          # N = 1 + 2 + 4 = 7
    T1 = GlobalVector(a, a)
    assert sigma_E(T1, 2, F3) == 1 + 49


def test_rank1_coefficient_examples():
    assert c_ell(3) == Fraction(-32, 9)
    T = GlobalVector(quadint(1), QuadInt(-1, 2))
    c = coefficient(T, P3, F3)
    assert (c.rank, c.rational, c.sigma) == (1, Fraction(-32, 9), 1)
    T2 = GlobalVector(quadint(2), QuadInt(-2, 4))
    assert coefficient(T2, P3, F3).rational == Fraction(-2080, 9)
    with pytest.raises(ValidationError, match="need <T, T> = 0, T != 0"):
        coefficient(global_vector(0, 0, 0, 0), P3, F3)


# ---------------------------------------------------------------------------
# Rank-2 coefficients
# ---------------------------------------------------------------------------

def test_d_nl_value():
    assert d_nl(P3, F3) == 432
    # direct formula: 2^6 * 6 * 27 / (36 * (1/42) * 28)
    assert Fraction(2 ** 6 * 6 * 27) / (Fraction(36) * Fraction(1, 42) * 28) == 432


def test_rank2_forced_value():
    c = coefficient(global_vector(1, 0, 1, 0), P3, F3)
    assert (c.rank, c.rational, c.sigma) == (2, 14256, None)
    assert list(c.local_q[2].d) == [1, 0, 1]
    # unit norm: empty product
    T_unit = global_vector(1, 0, 1, -1)   # norm 2*1 + (-1) = 1
    assert norm(T_unit, F3) == 1
    assert coefficient(T_unit, P3, F3).rational == 432
    assert coefficient(GlobalVector(quadint(1), QuadInt(-1, 2)), P3, F3).rank == 1


def test_rank2_local_product_positive_integer():
    rng = random.Random(3)
    seen = 0
    while seen < 40:
        T = global_vector(rng.randint(-8, 8), rng.randint(-8, 8),
                          rng.randint(-8, 8), rng.randint(-8, 8))
        if norm(T, F3) <= 0:
            continue
        c = coefficient(T, P3, F3)
        prod = c.rational / d_nl(P3, F3)
        assert prod.denominator == 1 and prod > 0, T
        seen += 1


def test_rank2_invariance_under_lattice_isometries():
    """a_T is invariant under unit scalings and the c1 <-> c2 swap."""
    rng = random.Random(7)
    seen = 0
    while seen < 25:
        T = global_vector(rng.randint(-6, 6), rng.randint(-6, 6),
                          rng.randint(-6, 6), rng.randint(-6, 6))
        if norm(T, F3) <= 0:
            continue
        base = coefficient(T, P3, F3).rational
        swap = coefficient(GlobalVector(T.b, T.a), P3, F3).rational
        neg = coefficient(GlobalVector(T.a.neg(), T.b.neg()), P3, F3).rational
        omega = QuadInt(0, 1)   # unit for D = 3: N(omega) = 1
        Tw = GlobalVector(T.a.mul(omega, F3), T.b.mul(omega, F3))
        scaled = coefficient(Tw, P3, F3).rational
        assert base == swap == neg == scaled, T
        seen += 1


# ---------------------------------------------------------------------------
# Constant term
# ---------------------------------------------------------------------------

def test_constant_term_numeric():
    ct = constant_term(P3, F3)
    assert ct.rational == 1
    assert ct.symbolic == "zetaE(l+1)/pi^(2l+1)"
    # zeta(4) = pi^4 / 90; L(4, chi_-3) = 3^-4 (zeta(4, 1/3) - zeta(4, 2/3))
    with mp.workdps(25):
        L = mp.mpf(3) ** -4 * (mp.zeta(4, mp.mpf(1) / 3) - mp.zeta(4, mp.mpf(2) / 3))
        ref = float(mp.zeta(4) * L)
        assert abs(ct.zeta_E - ref) < 1e-12
        assert abs(ct.numeric - ref / math.pi ** 7) < 1e-15
        assert abs(float(mp.zeta(4)) - math.pi ** 4 / 90) < 1e-12


@pytest.mark.parametrize("D", [3, 7, 11, 19, 23, 31, 43])
def test_constant_term_against_mpmath(D):
    """zeta_E(l+1) and zeta_E(l+1)/pi^(2l+1) to 1e-14 relative for l = 3..8.

    Every D here is a prime = 3 mod 4, so chi_{-D}(a) is the Legendre symbol (a/D).
    """
    chi = [0] + [1 if pow(a, (D - 1) // 2, D) == 1 else -1 for a in range(1, D)]
    with mp.workdps(40):
        for ell in range(3, 9):
            s = ell + 1
            zeta_e = mp.zeta(s) * mp.dirichlet(s, chi)
            ct = constant_term(Params(n=2, ell=ell), FieldE(D))
            assert abs(ct.zeta_E - zeta_e) <= 1e-14 * zeta_e, (D, ell)
            numeric = zeta_e / mp.pi ** (2 * ell + 1)
            assert abs(ct.numeric - numeric) <= 1e-14 * numeric, (D, ell)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def test_full_expansion_contents():
    table = full_expansion(P3, F3, 2)
    assert table.region_norm_cap == REGION_SCALE * 3
    by_T = {tuple(map(tuple, e.T.as_list())): e for e in table.entries}
    star = by_T[((1, 0), (1, 0))]
    assert star.rational == 14256 and star.rank == 2
    assert all(norm(e.T, F3) >= 0 for e in table.entries)
    assert all(0 < norm(e.T, F3) <= 2 for e in table.entries if e.rank == 2)
    # deterministic ordering by (norm, coordinates)
    keys = [(norm(e.T, F3), e.T.a.x, e.T.a.y, e.T.b.x, e.T.b.y) for e in table.entries]
    assert keys == sorted(keys)


def test_full_expansion_bound_zero():
    table = full_expansion(P3, F3, 0)
    assert table.entries
    assert all(e.rank == 1 for e in table.entries)


def test_full_expansion_reproducible():
    t1 = full_expansion(P3, F3, 2)
    t2 = full_expansion(P3, F3, 2)
    assert [e.rational for e in t1.entries] == [e.rational for e in t2.entries]
    assert [e.T.as_list() for e in t1.entries] == [e.T.as_list() for e in t2.entries]


def test_denominator_bound_examples():
    # 14256 * 36 * (1/42) * 28 = 14256 * 24
    mult = Fraction(36) * abs(bernoulli(6)) * sigma_k(3, 3)
    assert mult == 24
    assert Fraction(14256) * mult == 14256 * 24
    table = full_expansion(P3, F3, 2)
    ok, witness = denominator_bound_check(table)
    assert ok and witness is None


def test_denominator_bound_sweep():
    for ell in (3, 4, 5):
        P = Params(n=2, ell=ell)
        table = full_expansion(P, F3, 12)
        ok, witness = denominator_bound_check(table)
        assert ok, (ell, witness)


def test_coefficient_dispatch():
    assert coefficient(global_vector(1, 0, 1, 0), P3, F3).rank == 2
    assert coefficient(GlobalVector(quadint(1), QuadInt(-1, 2)), P3, F3).rank == 1
    # negative norm: zero coefficient
    T_neg = global_vector(1, 0, -1, 0)
    assert norm(T_neg, F3) < 0
    assert coefficient(T_neg, P3, F3).rational == 0


def test_coefficient_computes_the_norm_once(monkeypatch):
    """<T, T> is computed once per coefficient and carried on the result."""
    import qeis.fourier as fourier
    import qeis.hermitian as hermitian

    calls = []

    def counted(T, F):
        calls.append(T)
        return norm(T, F)

    monkeypatch.setattr(fourier, "norm", counted)
    monkeypatch.setattr(hermitian, "norm", counted)
    # norm 7 * 2^2 * 3 (split, inert and ramified primes), isotropic, negative
    for T, nrm in ((global_vector(6, 0, 7, 0), 84), (global_vector(3, 0, 0, 0), 0),
                   (global_vector(1, 0, -1, 0), -2)):
        calls.clear()
        c = coefficient(T, P3, F3)
        assert c.norm == nrm and len(calls) == 1, (T, calls)


def test_vectors_in_region_stops_at_the_limit(monkeypatch):
    """A region over the limit raises before it is enumerated to the end."""
    import qeis.fourier as fourier

    calls = []

    def counted(T, F):
        calls.append(T)
        return norm(T, F)

    monkeypatch.setattr(fourier, "norm", counted)
    assert len(fourier.vectors_in_region(F3, 26, 0, 12, limit=2454)) == 2454
    full = len(calls)
    calls.clear()
    with pytest.raises(ResourceBudgetError, match="more than 5 vectors"):
        fourier.vectors_in_region(F3, 26, 0, 12, limit=5)
    assert 10 * len(calls) < full


def test_coefficient_with_whittaker_payload():
    c = coefficient(global_vector(1, 0, 1, 0), P3, F3, with_whittaker=True)
    assert c.whittaker is not None
    assert abs(c.whittaker.beta_abs - 8 * math.pi) < 1e-12
    assert len(c.whittaker.components) == 2 * P3.ell + 1
