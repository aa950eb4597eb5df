import math
import random

import pytest
from hypothesis import given, strategies as st

from qeis.arith import Splitting, prime_factors, vp
from qeis.errors import ValidationError
from qeis.hermitian import (FieldE, GlobalVector, LocalKey, Params, QuadInt,
                            global_vector, local_key, local_quadratic_data, norm,
                            omega_root_lift, ramified_unit)

F3 = FieldE(3)
F7 = FieldE(7)
P2 = Params(n=2, ell=3)

qi = st.builds(QuadInt, st.integers(-50, 50), st.integers(-50, 50))


# ---------------------------------------------------------------------------
# Quadratic integer ring
# ---------------------------------------------------------------------------

@given(qi, qi)
def test_conjugation_is_ring_automorphism(a, b):
    lhs = a.mul(b, F3).conj()
    rhs = a.conj().mul(b.conj(), F3)
    assert lhs == rhs
    assert a.conj().conj() == a
    assert a.add(b).conj() == a.conj().add(b.conj())


@given(qi, qi)
def test_norm_is_multiplicative(a, b):
    assert a.mul(b, F7).norm(F7) == a.norm(F7) * b.norm(F7)


@given(qi)
def test_norm_equals_self_times_conjugate(a):
    prod = a.mul(a.conj(), F3)
    assert prod == QuadInt(a.norm(F3), 0)
    assert a.trace() == a.add(a.conj()).x


def test_two_omega_minus_one_squares_to_minus_D():
    w = QuadInt(-1, 2)  # sqrt(-D) = 2 omega - 1
    assert w.mul(w, F3) == QuadInt(-3, 0)
    assert w.mul(w, F7) == QuadInt(-7, 0)
    assert w.trace() == 0


# ---------------------------------------------------------------------------
# Global vectors and norms
# ---------------------------------------------------------------------------

@given(qi, qi, st.sampled_from([3, 7, 11, 19, 23]))
def test_norm_is_trace_of_a_times_conj_b(a, b, D):
    F = FieldE(D)
    assert norm(GlobalVector(a, b), F) == a.mul(b.conj(), F).trace()


def test_norm_examples():
    assert norm(global_vector(1, 0, 1, 0), F3) == 2
    # b = sqrt(-3) = -1 + 2 omega gives an isotropic vector
    assert norm(GlobalVector(QuadInt(1, 0), QuadInt(-1, 2)), F3) == 0
    assert norm(global_vector(0, 0, 0, 0), F3) == 0


def test_field_holds_the_factors_of_D_and_compares_on_D_alone():
    """D's prime factors come from the factoring that validates it; equality
    and hash, which key the per-field caches, read D only."""
    F, G = FieldE(10 ** 18 + 3), FieldE(15)
    assert F.primes == (10 ** 18 + 3,) and G.primes == (3, 5)
    H = FieldE(15)
    object.__setattr__(H, "primes", ())
    assert H == G and hash(H) == hash(G) and repr(H) == "FieldE(D=15)"
    assert FieldE(15) != FieldE(19)


def test_params_validation():
    with pytest.raises(ValidationError):
        Params(n=3, ell=5)
    with pytest.raises(ValidationError):
        Params(n=2, ell=2)
    Params(n=6, ell=7)


# ---------------------------------------------------------------------------
# Prime ideal valuations
# ---------------------------------------------------------------------------

def _full_key(T, F, p):
    """:func:`local_key` with k = v_p(<T, T>), the key Q_{T,p} reads."""
    return local_key(T, F, p, norm(T, F))


def test_local_key_examples():
    T = GlobalVector(QuadInt(1, 0), QuadInt(-1, 2))  # (1, sqrt(-3)), isotropic
    assert _full_key(T, F3, 3) == LocalKey(3, Splitting.RAMIFIED, 2, math.inf, 0, 0)
    T2 = GlobalVector(QuadInt(2, 0), QuadInt(-2, 4))  # (2, 2 sqrt(-3))
    assert _full_key(T2, F3, 2) == LocalKey(2, Splitting.INERT, 2, math.inf, 1, 1)
    assert _full_key(global_vector(1, 0, 1, 0), F3, 5) == LocalKey(5, Splitting.INERT, 2, 0, 0, 0)
    assert str(_full_key(global_vector(1, 0, 3, 1), F3, 7)) == \
        "(p, case, n, k, k1, k2) = (7, split, 2, 1, 0, 0)"


def test_local_key_zero_vector():
    with pytest.raises(ValidationError):
        local_key(global_vector(0, 0, 0, 0), F3, 2, 0)


def test_split_valuations_sum_to_norm_valuation():
    rng = random.Random(5)
    for _ in range(60):
        z = QuadInt(rng.randint(-40, 40), rng.randint(-40, 40))
        if not z:
            continue
        for D, p in ((3, 7), (3, 13), (7, 11), (7, 2)):
            F = FieldE(D)
            if F.splitting(p) is not Splitting.SPLIT:
                continue
            T = GlobalVector(z, QuadInt(1, 0))
            key = _full_key(GlobalVector(z, z), F, p)
            assert key.k1 + key.k2 == vp(z.norm(F), p), (z, D, p)


def test_hensel_root_lift():
    for D, p, prec in ((3, 7, 9), (3, 13, 6), (7, 11, 8), (7, 2, 12)):
        F = FieldE(D)
        r = omega_root_lift(F, p, prec)
        assert (r * r - r + F.omega_norm) % p ** prec == 0


# ---------------------------------------------------------------------------
# Local quadratic data
# ---------------------------------------------------------------------------

def test_local_data_examples():
    T = global_vector(1, 0, 1, 0)
    d7 = local_quadratic_data(T, F3, 7, P2)
    assert (d7.case, d7.k1, d7.k2, d7.k) == (Splitting.SPLIT, 0, 0, 0)
    d2 = local_quadratic_data(T, F3, 2, P2)
    assert (d2.case, d2.k) == (Splitting.INERT, 1)
    d3 = local_quadratic_data(T, F3, 3, P2)
    assert (d3.case, d3.k, d3.k1, d3.k2) == (Splitting.RAMIFIED, 0, 0, 0)


def test_local_data_k_tracks_norm_valuation():
    rng = random.Random(11)
    for _ in range(80):
        T = global_vector(rng.randint(-9, 9), rng.randint(-9, 9),
                          rng.randint(-9, 9), rng.randint(-9, 9))
        if norm(T, F3) == 0:
            continue
        for p in (2, 3, 5, 7):
            d = local_quadratic_data(T, F3, p, P2)
            assert d.k == vp(norm(T, F3), p)
            if d.case is Splitting.RAMIFIED:
                assert d.k2 in (d.k1, d.k1 + 1)
                assert d.k - d.k1 - d.k2 >= 0


def test_split_coords_carry_the_norm():
    rng = random.Random(23)
    for _ in range(40):
        T = global_vector(rng.randint(-9, 9), rng.randint(-9, 9),
                          rng.randint(-9, 9), rng.randint(-9, 9))
        if norm(T, F3) == 0:
            continue
        d = local_quadratic_data(T, F3, 7, P2)
        half = len(d.coords) // 2
        q = sum(d.coords[i] * d.coords[half + i] for i in range(half))
        assert (q - norm(T, F3)) % 7 ** d.prec == 0


def test_inert_coords_carry_the_norm_exactly():
    rng = random.Random(29)
    for _ in range(40):
        T = global_vector(rng.randint(-9, 9), rng.randint(-9, 9),
                          rng.randint(-9, 9), rng.randint(-9, 9))
        if norm(T, F3) == 0:
            continue
        d = local_quadratic_data(T, F3, 2, P2)
        half = len(d.coords) // 2
        q = sum(d.coords[i] * d.coords[half + i] for i in range(half))
        assert q == norm(T, F3)


def test_ramified_normal_form_isometry():
    """Gram comparison of the coordinate map against the normal form."""
    rng = random.Random(31)
    for D, p in ((3, 3), (7, 7), (15, 3), (15, 5)):
        F = FieldE(D)
        u = ramified_unit(F, p)
        # varpi = sqrt(-D): varpi^2 = -D = p u
        assert p * u == -D
        for _ in range(25):
            T = global_vector(rng.randint(-9, 9), rng.randint(-9, 9),
                              rng.randint(-9, 9), rng.randint(-9, 9))
            if norm(T, F) == 0:
                continue
            d = local_quadratic_data(T, F, p, P2)
            X1, X2, Y1, Y2 = d.coords
            assert (X1 * Y1 + p * X2 * Y2 - norm(T, F)) % p ** d.prec == 0


def test_ramified_over_uniformizer_invariants():
    """T/varpi swaps the valuation pattern: (k1', k2', k') = (k2-1, k1, k-1)."""
    from qeis.siegel import ramified_shape

    rng = random.Random(37)
    for _ in range(50):
        T = global_vector(rng.randint(-12, 12), rng.randint(-12, 12),
                          rng.randint(-12, 12), rng.randint(-12, 12))
        if norm(T, F3) == 0:
            continue
        d = local_quadratic_data(T, F3, 3, P2)
        sh = ramified_shape(3, 1)
        k1o, k2o, ko = sh.invariants(d.coords_over_uniformizer)
        assert (k1o, k2o) == (d.k2 - 1, d.k1)
        if ko >= 0:
            assert ko == d.k - 1


def test_local_data_rejects_isotropic():
    with pytest.raises(ValidationError):
        local_quadratic_data(GlobalVector(QuadInt(1, 0), QuadInt(-1, 2)), F3, 3, P2)


def test_local_data_rejects_other_ranks():
    with pytest.raises(ValidationError):
        local_quadratic_data(global_vector(1, 0, 1, 0), F3, 3, Params(n=6, ell=8))


def _key_from_coords(data):
    """The key read off the quadratic coordinates alone."""
    from qeis.siegel import ramified_shape

    p, coords = data.p, [int(c) for c in data.coords]
    if data.case is Splitting.RAMIFIED:
        k1, k2, k = ramified_shape(p, 1).invariants(coords)
        return LocalKey(p, data.case, 2, k, k1, k2)
    k1, k2 = (min(vp(c, p) for c in half) for half in (coords[:2], coords[2:]))
    if data.case is Splitting.INERT:
        k1 = k2 = min(k1, k2)
    k = vp(coords[0] * coords[2] + coords[1] * coords[3], p)
    return LocalKey(p, data.case, 2, k, k1, k2)


def test_local_key_matches_the_coordinates():
    """The key read from T's valuations equals the key its coordinates carry,
    on every (T, p) of a region, split and inert p = 2 and ramified p included."""
    from qeis.arith import prime_factors
    from qeis.fourier import vectors_in_region

    pairs, seen = 0, set()
    for D in (3, 7, 11, 19, 23):
        F = FieldE(D)
        for T in vectors_in_region(F, 26, 1, 24):
            for p in prime_factors(norm(T, F)):
                data = local_quadratic_data(T, F, p, P2)
                assert _full_key(T, F, p) == _key_from_coords(data), (D, T, p)
                pairs += 1
                seen.add((p, data.case))
    assert pairs == 9412
    assert {(2, Splitting.SPLIT), (2, Splitting.INERT), (3, Splitting.RAMIFIED),
            (7, Splitting.RAMIFIED), (11, Splitting.RAMIFIED)} <= seen


def test_local_key_matches_the_coordinates_at_deep_valuations():
    """Keys of seeded T = (p^e1 a0, p^e2 b0) with e1, e2 <= 20, the depth of
    the `deep` benchmark requests: the key read off the valuations equals the
    key of the Hensel-lifted coordinates.  At split p, a0 and b0 are often
    multiplied by a power of omega - r or omega - (1 - r), so their primitive
    parts lie deep in one prime above p."""
    from qeis.hermitian import _omega_root_mod_p

    rng = random.Random(8)
    pairs, deepest, seen = 0, 0, set()
    for D in (3, 7, 11, 19, 23):
        F = FieldE(D)
        for p in (2, 3, 5, 7, 11, 13):
            case = F.splitting(p)
            root = _omega_root_mod_p(F, p) if case is Splitting.SPLIT else None
            for _ in range(24):
                coords = []
                for _ in range(2):
                    z = QuadInt(rng.randint(-9, 9), rng.randint(-9, 9))
                    if root is not None and rng.random() < 0.6:
                        factor = QuadInt(-rng.choice((root, 1 - root)), 1)
                        for _ in range(rng.randint(1, 6)):
                            z = z.mul(factor, F)
                    e = rng.randint(0, 20)
                    coords.append(QuadInt(p ** e * z.x, p ** e * z.y))
                T = GlobalVector(*coords)
                if not T or norm(T, F) == 0:
                    continue
                data = local_quadratic_data(T, F, p, P2)
                assert _full_key(T, F, p) == _key_from_coords(data), (D, T, p)
                pairs += 1
                deepest = max(deepest, data.k)
                seen.add(case)
    assert pairs == 711 and deepest >= 40
    assert seen == set(Splitting)


def _omega_root_scan(F, p):
    """The least root of X^2 - X + (1+D)/4 mod p by trying r = 0..p-1, None if none."""
    c = F.omega_norm
    return next((r for r in range(p) if (r * r - r + c) % p == 0), None)


def test_omega_root_is_the_least_root_the_scan_finds():
    """Tonelli-Shanks gives the scan's root at every split (D, p) with D < 120
    and p < 1000, and at p = 65537 (p - 1 = 2^16); every other p raises."""
    from qeis.hermitian import _omega_root_mod_p

    primes = [p for p in range(2, 1000) if prime_factors(p) == [p]] + [65537]
    split = other = 0
    for D in range(3, 120, 4):
        try:
            F = FieldE(D)  # validate_D: D squarefree
        except ValidationError:
            continue
        for p in primes:
            if F.splitting(p) is Splitting.SPLIT:
                assert _omega_root_mod_p(F, p) == _omega_root_scan(F, p), (D, p)
                split += 1
            else:
                with pytest.raises(ValidationError, match="is not split"):
                    _omega_root_mod_p(F, p)
                other += 1
    assert split > 2000 and other > 2000
