import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from qeis.arith import Splitting
from qeis.errors import ValidationError
from qeis.fourier import coefficient, d_nl, local_polynomials
from qeis.hermitian import FieldE, LocalKey, Params, global_vector, norm
from qeis.lift import (EigenformData, delta_eigenvalues, lift_coefficient,
                       _power_sum_polys, lift_coefficient_numeric, lift_local_exact,
                       satake_from_eigenvalue, standard_L_factors)
from qeis.siegel import q_poly, q_poly_of_invariants
from qeis.hermitian import local_quadratic_data

F3 = FieldE(3)


# ---------------------------------------------------------------------------
# Satake parameters and eigenvalue data
# ---------------------------------------------------------------------------

def test_satake_examples():
    s = satake_from_eigenvalue(0, 12, 2)
    assert abs(s.alpha - 1j) < 1e-14 or abs(s.alpha + 1j) < 1e-14
    s = satake_from_eigenvalue(-24, 12, 2)
    assert abs(s.alpha + 1 / s.alpha - (-24) * 2 ** (-11 / 2)) < 1e-13
    rng = random.Random(2)
    for _ in range(20):
        s = satake_from_eigenvalue(rng.randint(-500, 500), 12, rng.choice([2, 3, 5]))
        assert abs(s.alpha * (1 / s.alpha) - 1) < 1e-12


def test_delta_eigenvalues():
    h = delta_eigenvalues(50)
    assert h.weight == 12
    expect = {2: -24, 3: 252, 5: 4830, 7: -16744, 11: 534612, 13: -577738}
    for p, tau in expect.items():
        assert h.ap[p] == tau, p
    # Hecke multiplicativity as a sanity anchor: tau(6) = tau(2) tau(3)
    assert 47 in h.ap


def test_eigenform_json_roundtrip():
    h = EigenformData(weight=12, ap={2: -24, 3: 252})
    h2 = EigenformData.from_json(h.to_json())
    assert h2 == h
    with pytest.raises(ValidationError):
        EigenformData(weight=11, ap={})
    with pytest.raises(ValidationError):
        h.eigenvalue(5)


@pytest.mark.parametrize("ap", [{2: -24.0}, {2: Fraction(-24), 3: 252}, {2: True},
                                {2: np.int64(-24)}])
def test_eigenform_data_takes_only_int_eigenvalues(ap):
    """lift_coefficient multiplies each a_p in as it is, so a float a_p would
    give a rounded product that Fraction(total) then passes off as exact, and
    a numpy int could wrap around: the constructor refuses anything but a
    Python int, as from_json does."""
    with pytest.raises(ValidationError, match="a_2 = .* is not a Python int"):
        EigenformData(weight=12, ap=ap)
    with pytest.raises(ValidationError, match="even integer"):
        EigenformData(weight=12.0, ap={})


@pytest.mark.parametrize("text", ['{"weight": 12.9, "ap": {"2": -24, "3": 252}}',
                                  '{"weight": 12, "ap": {"2": -24.7, "3": 252}}',
                                  '{"weight": 12.0, "ap": {"2": -24, "3": 252}}',
                                  '{"weight": 12, "ap": {"2": true, "3": 252}}',
                                  '{"weight": true, "ap": {"2": -24}}'])
def test_eigenform_json_rejects_floats_and_booleans(text):
    """A JSON float or boolean is not an integer, even when it is integral;
    int() would truncate 12.9 to 12 and -24.7 to -24."""
    with pytest.raises(ValidationError, match="is not an integer"):
        EigenformData.from_json(text)


@pytest.mark.parametrize("text, message", [
    ('{"weight": 12, "ap": {"2": -24, "02": 5, "3": 252}}', "a_p key '02'"),
    ('{"weight": 12, "ap": {"+2": -24, "3": 252}}', "a_p key '+2'"),
    ('{"weight": 12, "ap": {" 2": -24, "3": 252}}', "a_p key ' 2'"),
    ('{"weight": 12, "ap": {"-2": -24, "3": 252}}', "a_p key '-2'"),
    ('{"weight": 12, "ap": {"2": -24, "2": 5, "3": 252}}', "duplicate key '2'"),
    ('{"weight": 12, "weight": 10, "ap": {"2": -24}}', "duplicate key 'weight'"),
])
def test_eigenform_json_rejects_ambiguous_keys(text, message):
    """int() reads "2" and "02" as one prime, and json.loads keeps the last of
    two equal keys: either way a value would be dropped without a word."""
    with pytest.raises(ValidationError, match=re.escape(message)):
        EigenformData.from_json(text)


# ---------------------------------------------------------------------------
# Lift coefficients
# ---------------------------------------------------------------------------

def test_lift_unit_norm_is_one():
    P = Params(n=2, ell=6)
    h = delta_eigenvalues(10)
    T = global_vector(1, 0, 1, -1)   # norm 1
    assert lift_coefficient(T, h, P, F3) == 1


def test_lift_delta_forced_value():
    P = Params(n=2, ell=6)
    h = delta_eigenvalues(10)
    assert lift_coefficient(global_vector(1, 0, 1, 0), h, P, F3) == -24


def test_lift_weight_mismatch_rejected():
    with pytest.raises(ValidationError):
        lift_coefficient(global_vector(1, 0, 1, 0), delta_eigenvalues(10),
                         Params(n=2, ell=3), F3)


def test_qtilde_is_laurent_palindromic():
    rng = random.Random(5)
    P = Params(n=2, ell=6)
    seen = 0
    while seen < 25:
        T = global_vector(rng.randint(-7, 7), rng.randint(-7, 7),
                          rng.randint(-7, 7), rng.randint(-7, 7))
        if norm(T, F3) <= 0:
            continue
        from qeis.arith import prime_factors

        for p in prime_factors(norm(T, F3)):
            q = q_poly(local_quadratic_data(T, F3, p, P), P)
            assert q.d == q.d[::-1]   # X^-k Q(X) invariant under X -> 1/X
        seen += 1


def test_lift_alpha_inversion_invariance():
    P = Params(n=2, ell=6)
    rng = random.Random(11)
    T = global_vector(1, 0, 3, 0)   # norm 6 = 2 * 3
    for _ in range(20):
        ap2 = rng.randint(-2000, 2000)
        ap3 = rng.randint(-2000, 2000)
        a2 = satake_from_eigenvalue(ap2, 12, 2).alpha
        a3 = satake_from_eigenvalue(ap3, 12, 3).alpha
        v1 = lift_coefficient_numeric(T, {2: a2, 3: a3}, P, F3)
        v2 = lift_coefficient_numeric(T, {2: 1 / a2, 3: 1 / a3}, P, F3)
        assert abs(v1 - v2) <= 1e-12 * max(abs(v1), 1.0)


def test_lift_real_for_real_eigenvalues():
    from qeis.arith import prime_factors

    P = Params(n=2, ell=6)
    h = delta_eigenvalues(20)
    rng = random.Random(13)
    seen = 0
    while seen < 10:
        T = global_vector(rng.randint(-5, 5), rng.randint(-5, 5),
                          rng.randint(-5, 5), rng.randint(-5, 5))
        nrm = norm(T, F3)
        if nrm <= 0 or any(p > 20 for p in prime_factors(nrm)):
            continue
        exact = lift_coefficient(T, h, P, F3)
        sat = {p: satake_from_eigenvalue(h.ap[p], 12, p).alpha
               for p in prime_factors(nrm)}
        numeric = lift_coefficient_numeric(T, sat, P, F3)
        assert abs(numeric.imag) <= 1e-9 * max(abs(numeric), 1.0)
        assert abs(numeric.real - float(exact)) <= 1e-9 * max(abs(float(exact)), 1.0)
        seen += 1


def test_lift_exact_specializes_to_eisenstein():
    """alpha_p = p^(l-(n-1)/2) reproduces the rank-2 local product exactly."""
    P = Params(n=2, ell=3)
    w = 2 * P.ell - P.n + 2
    hs = EigenformData(weight=w, ap={p: p ** (w - 1) + 1 for p in (2, 3, 5, 7, 11, 13)})
    rng = random.Random(17)
    seen = 0
    while seen < 20:
        T = global_vector(rng.randint(-6, 6), rng.randint(-6, 6),
                          rng.randint(-6, 6), rng.randint(-6, 6))
        nrm = norm(T, F3)
        if nrm <= 0 or nrm > 150:
            continue
        from qeis.arith import prime_factors

        if any(p > 13 for p in prime_factors(nrm)):
            continue
        lhs = lift_coefficient(T, hs, P, F3)
        rhs = coefficient(T, P, F3).rational / d_nl(P, F3)
        assert lhs == rhs, T
        seen += 1


# ---------------------------------------------------------------------------
# Standard L-factors
# ---------------------------------------------------------------------------

def test_euler_factor_degrees():
    h = delta_eigenvalues(20)
    P = Params(n=2, ell=6)
    assert standard_L_factors(7, h, P, F3).degree == 4 + 2 * 2   # split
    assert standard_L_factors(2, h, P, F3).degree == 4 + 2 * 2   # inert
    assert standard_L_factors(3, h, P, F3).degree == 2 + 2       # ramified


def test_euler_factor_inert_zeta_part_in_x_squared():
    """The inert Dedekind factors are polynomials in p^(-2s)."""
    h = delta_eigenvalues(20)
    P = Params(n=2, ell=6)
    desc = standard_L_factors(2, h, P, F3)
    # root multiset symmetric under negation: odd power sums vanish
    s1 = sum(desc.reciprocal_roots)
    s3 = sum(c ** 3 for c in desc.reciprocal_roots)
    assert abs(s1) < 1e-9 and abs(s3) < 1e-9


def test_euler_factor_alpha_inversion_symmetry():
    """Swapping alpha for 1/alpha leaves the reciprocal-root multiset fixed."""
    P = Params(n=2, ell=6)
    h = EigenformData(weight=12, ap={2: -24, 3: 252, 7: -16744})

    def key(z):
        return (round(z.real, 8), round(z.imag, 8))

    for p in (2, 3, 7):
        desc = standard_L_factors(p, h, P, F3)
        roots = sorted(desc.reciprocal_roots, key=key)
        alpha = satake_from_eigenvalue(h.ap[p], 12, p).alpha
        swapped = [1 / r if abs(r - alpha) < 1e-9 or abs(r + alpha) < 1e-9
                   or abs(r - 1 / alpha) < 1e-9 or abs(r + 1 / alpha) < 1e-9
                   else r for r in desc.reciprocal_roots]
        assert [key(z) for z in roots] == [key(z) for z in sorted(swapped, key=key)]


def test_lift_local_exact_structure():
    P = Params(n=2, ell=6)
    q = q_poly(local_quadratic_data(global_vector(1, 0, 1, 0), F3, 2, P), P)
    coeffs = lift_local_exact(q, 12)
    assert coeffs == [Fraction(0), Fraction(1)]   # value = a_2 exactly


def _lift_local_reference(q, weight):
    """The c_m of lift_local_exact by the Fraction loop: every p-power a
    Fraction, summed term by term."""
    p = q.p
    k = q.degree // 2
    e2 = weight - 1
    out = [Fraction(0)] * (k + 1)
    gs = _power_sum_polys(k)
    for j in range(0, k + 1):
        di = q.d[k + j] if k + j <= q.degree else 0
        if di == 0:
            continue
        gj = gs[j] if j > 0 else [1]
        for m, g in enumerate(gj):
            if g == 0:
                continue
            num = (k - m) * e2 + ((k + j) % 2)
            assert num % 2 == 0
            out[m] += di * g * Fraction(p) ** (num // 2)
    return out


def test_lift_local_exact_matches_the_fraction_loop():
    """The int c_m equal the Fraction loop's on every admissible n = 2 key
    with p in {2, 3, 5, 7, 11, 13} and k <= 8, at weights 4, 12 and 16,
    and lift_coefficient, which sums them in ints, still returns the Fraction
    the Fraction loop gives."""
    checked = 0
    for p, case, k in itertools.product((2, 3, 5, 7, 11, 13), Splitting, range(9)):
        for k1, k2 in itertools.product(range(k + 1), repeat=2):
            key = LocalKey(p, case, 2, k, k1, k2)
            try:
                key.check()
            except ValidationError:
                continue
            q = q_poly_of_invariants(key)
            for weight in (4, 12, 16):
                got = lift_local_exact(q, weight)
                assert all(type(c) is int for c in got), key
                assert got == _lift_local_reference(q, weight), (key, weight)
                checked += 1
    assert checked == 3 * 1365  # 190 split and inert keys per p, 45 ramified per odd p
    P = Params(n=2, ell=6)
    h = delta_eigenvalues(47)
    for T in ((1, 0, 1, 0), (12, 6, 18, 0), (2 ** 9, 0, 3 ** 7 * 5, 5), (7 ** 4, 0, 13 ** 3, 0)):
        T = global_vector(*T)
        got = lift_coefficient(T, h, P, F3)
        expected = Fraction(1)
        for p, q in local_polynomials(T, P, F3, norm(T, F3)).items():
            expected *= sum(c * Fraction(h.ap[p]) ** m
                            for m, c in enumerate(_lift_local_reference(q, 12)))
        assert type(got) is Fraction and got == expected, T


def test_lift_rejects_ranks_without_a_global_model():
    """The key carries n, so n = 6 must not be served from n = 2 valuations."""
    with pytest.raises(ValidationError, match="n = 2"):
        lift_coefficient(global_vector(1, 0, 1, 0), delta_eigenvalues(10), Params(6, 8), F3)
