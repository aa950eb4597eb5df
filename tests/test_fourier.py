import math
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest

from qeis.arith import Splitting, bernoulli, prime_factors, sigma_k, sqrtp_eval_halfint, vp
from qeis.errors import InternalConsistencyError, ResourceBudgetError, ValidationError
from qeis.fourier import (REGION_SCALE, c_ell, coefficient, constant_term,
                          d_nl, denominator_bound_check, full_expansion,
                          sigma_E, vectors_in_region)
from qeis.hermitian import (FieldE, GlobalVector, Params, QuadInt,
                            global_vector, local_key, norm)
from qeis.siegel import q_poly_of_invariants

F3 = FieldE(3)
P3 = Params(n=2, ell=3)


# ---------------------------------------------------------------------------
# sigma_E and rank-1 coefficients
# ---------------------------------------------------------------------------

def _sigma(T, ell, F):
    """sigma_E of T from its keys at the primes of its content gcd(N(a), N(b))."""
    content = math.gcd(T.a.norm(F), T.b.norm(F))
    return sigma_E(tuple(local_key(T, F, p, norm(T, F)) for p in prime_factors(content)), ell)


def test_sigma_E_examples():
    T = GlobalVector(QuadInt(1, 0), QuadInt(-1, 2))  # (1, sqrt(-3))
    assert _sigma(T, 3, F3) == 1
    T2 = GlobalVector(QuadInt(2, 0), QuadInt(-2, 4))  # (2, 2 sqrt(-3))
    assert _sigma(T2, 3, F3) == 65
    assert sigma_E((), 3) == 1  # a unit content


def test_sigma_E_split_prime():
    # content 7 at a split prime contributes (1 + 7^l) twice when both ideals divide
    T = GlobalVector(QuadInt(7, 0), QuadInt(7, 0))
    val = _sigma(T, 2, F3)
    assert val == (1 + 49) ** 2
    # a vector divisible by exactly one ideal above 7: 7 = p1 p2, pick a = 1 + 2w
    a = QuadInt(1, 2)          # N = 1 + 2 + 4 = 7
    T1 = GlobalVector(a, a)
    assert _sigma(T1, 2, F3) == 1 + 49


def test_rank1_coefficient_examples():
    assert c_ell(3) == Fraction(-32, 9)
    T = GlobalVector(QuadInt(1, 0), QuadInt(-1, 2))
    c = coefficient(T, P3, F3)
    assert (c.rank, c.rational, c.sigma) == (1, Fraction(-32, 9), 1)
    T2 = GlobalVector(QuadInt(2, 0), QuadInt(-2, 4))
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
    assert coefficient(GlobalVector(QuadInt(1, 0), QuadInt(-1, 2)), P3, F3).rank == 1


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
        neg = coefficient(global_vector(-T.a.x, -T.a.y, -T.b.x, -T.b.y), P3, F3).rational
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


# repr(_zeta_E(s, D)), pinned from the scalar Hurwitz loop the array call replaced
ZETA_E_REPRS = {
    (3, 4): "1.0174116346984432",
    (3, 12): "1.0000019414293073",
    (7, 4): "1.1385976860247942",
    (7, 12): "1.0004884601986237",
    (100003, 4): "1.004247338401702",
    (100003, 12): "1.0000000596088294",
}


@pytest.mark.parametrize("D, s", sorted(ZETA_E_REPRS))
def test_zeta_E_bits_are_pinned(D, s):
    from qeis.fourier import _zeta_E

    assert repr(_zeta_E(s, D)) == ZETA_E_REPRS[D, s]


def test_zeta_E_equals_the_scalar_hurwitz_loop():
    """One array call to scipy's Hurwitz zeta gives the bits of D - 1 scalar calls."""
    from scipy.special import zeta

    from qeis.arith import kronecker_symbol
    from qeis.fourier import _zeta_E

    for D in (3, 7, 11, 19, 23, 1003):
        for s in (4, 6, 12):
            chi_sum = math.fsum(kronecker_symbol(-D, a) * zeta(s, a / D) for a in range(1, D))
            assert _zeta_E(s, D) == float(zeta(s)) * chi_sum / D ** s, (D, s)


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


def test_denominator_bound_check_names_the_first_failing_row(monkeypatch):
    """With a multiplier that clears no denominator, the check returns the
    first rank-2 row as the coefficient :func:`coefficient` gives for its T.
    The multiplier is patched after the build: d_nl divides by it."""
    import qeis.fourier as fourier

    table = full_expansion(P3, F3, 5)
    monkeypatch.setattr(fourier, "_denominator_multiplier",
                        lambda P, F: Fraction(1, 10 ** 9 + 7))
    ok, witness = denominator_bound_check(table)
    first = next(e for e in table.entries if e.rank == 2)
    assert not ok and witness == first == coefficient(first.T, P3, F3)
    assert witness.T.as_list() == [[-3, 1], [0, -1]] and witness.norm == 1


def test_suite_denominators_lists_each_failing_row_with_its_T(monkeypatch):
    """With d_nl patched in verify to a large prime, every nonzero rank-2 row
    fails the positive-integer check, listed with its T and product; the
    table itself, built with fourier's d_nl, still passes its bound, so the
    report holds no denominator_bound failure."""
    import qeis.verify as verify

    big = 10 ** 9 + 7
    monkeypatch.setattr(verify, "d_nl", lambda P, F: Fraction(big))
    report = verify.suite_denominators(D=7, ells=(4,), bound=5)
    table = full_expansion(Params(n=2, ell=4), FieldE(7), 5)
    rank2 = [e for e in table.entries if e.rank == 2]
    expected = [{"check": "local_product_positive_integer", "ell": 4,
                 "T": e.T.as_list(), "product": str(e.rational / big)}
                for e in rank2 if e.rational != 0]
    assert len(expected) > 10 and report["checks"] == len(rank2) + len(expected)
    assert not report["ok"] and report["failures"] == expected[:10]  # the report keeps 10


def test_coefficient_dispatch():
    assert coefficient(global_vector(1, 0, 1, 0), P3, F3).rank == 2
    assert coefficient(GlobalVector(QuadInt(1, 0), QuadInt(-1, 2)), P3, F3).rank == 1
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


def test_vectors_in_region_stops_at_the_limit():
    """A region over the limit raises before it is enumerated to the end.

    The work is counted as the lines of qeis.fourier executed, which grows
    with the candidate pairs the loop visits.
    """
    import qeis.fourier as fourier

    lines = []

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != fourier.__file__:
            return None
        if event == "line":
            lines.append(frame.f_lineno)
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        assert len(fourier.vectors_in_region(F3, 26, 0, 12, limit=2454)) == 2454
        full = len(lines)
        lines.clear()
        with pytest.raises(ResourceBudgetError, match="more than 5 vectors"):
            fourier.vectors_in_region(F3, 26, 0, 12, limit=5)
    finally:
        sys.settrace(previous)
    assert 10 * len(lines) < full


def test_coefficient_with_whittaker_payload():
    c = coefficient(global_vector(1, 0, 1, 0), P3, F3, with_whittaker=True)
    assert c.whittaker is not None
    assert abs(c.whittaker.beta_abs - 8 * math.pi) < 1e-12
    assert len(c.whittaker.components) == 2 * P3.ell + 1


# ---------------------------------------------------------------------------
# The invariant-keyed coefficient and the linear enumeration against the
# per-T build and the double loop they replace
# ---------------------------------------------------------------------------

def _sigma_reference(T, ell, F):
    """sigma_E read off T: local_key at each prime of the content."""
    content = math.gcd(T.a.norm(F) if T.a else 0, T.b.norm(F) if T.b else 0)
    total = 1
    for p in prime_factors(content):
        _, case, _, _, k1, k2 = local_key(T, F, p, 0)
        if case is Splitting.SPLIT:
            total *= sum(p ** (i * ell) for i in range(k1 + 1))
            total *= sum(p ** (i * ell) for i in range(k2 + 1))
        elif case is Splitting.INERT:
            total *= sum(p ** (2 * i * ell) for i in range(k1 + 1))
        else:
            total *= sum(p ** (i * ell) for i in range(k1 + k2 + 1))
    return total


def _coefficient_reference(T, P, F):
    """(rank, rational, sigma, local_q) of T, built for T alone."""
    nrm = norm(T, F)
    if nrm < 0:
        return 2, Fraction(0), None, {}
    if nrm == 0:
        sigma = _sigma_reference(T, P.ell, F)
        return 1, c_ell(P.ell) * sigma, sigma, {}
    local = {}
    for p in prime_factors(nrm):
        local[p] = q_poly_of_invariants(local_key(T, F, p, nrm))
    prod = 1
    for q in local.values():
        prod *= sqrtp_eval_halfint(q, 2 * P.ell - P.n + 1)
    return 2, d_nl(P, F) * prod, None, local


@pytest.mark.parametrize("D", [3, 7, 11, 19])
def test_coefficient_matches_the_per_T_build(D):
    """Every T with N(a), N(b) <= 12, so every <T, T> in [-24, 24], negative ones too."""
    F = FieldE(D)
    vectors = vectors_in_region(F, 12, -24, 24)
    assert min(norm(T, F) for T in vectors) < 0
    for ell in (3, 5):
        P = Params(n=2, ell=ell)
        for T in vectors:
            c = coefficient(T, P, F)
            assert (c.rank, c.rational, c.sigma, c.local_q) == _coefficient_reference(T, P, F), T


def test_coefficient_errors_name_T_and_are_not_cached(monkeypatch):
    """An inert odd valuation is read per T; a failed Q build names T, p and
    the key, every time it is asked for."""
    import qeis.fourier as fourier
    import qeis.siegel as siegel
    from qeis.arith import SqrtPPoly

    fourier.coefficient_of_invariants.cache_clear()
    siegel.q_poly_of_invariants.cache_clear()
    monkeypatch.setattr(siegel, "q_poly_closed_form",
                        lambda data, blocks=None: SqrtPPoly(data.p, [1, 1, 1]))
    for T in (global_vector(1, 0, 3, 1), global_vector(3, 1, 1, 0)):  # norm 7, split
        with pytest.raises(InternalConsistencyError) as err:
            coefficient(T, P3, F3)
        assert f"T = {T.as_list()}, Q paths disagree at (p, case, n, k, k1, k2) = " \
               "(7, split, 2, 1, 0, 0)" in str(err.value)
    assert fourier.coefficient_of_invariants.cache_info().currsize == 0


def _vectors_reference(F, cap, lo, hi):
    """The double loop over QuadInt pairs, each pair's norm by hermitian.norm."""
    xmax = math.isqrt(max(cap * (1 + F.D) // F.D, 0)) + 1
    ymax = math.isqrt(max(4 * cap // F.D, 0)) + 1
    disc = [z for x in range(-xmax, xmax + 1) for y in range(-ymax, ymax + 1)
            if (z := QuadInt(x, y)).norm(F) <= cap]
    found = []
    for a in disc:
        for b in disc:
            T = GlobalVector(a, b)
            if T and lo <= (nrm := norm(T, F)) <= hi:
                found.append((nrm, a.x, a.y, b.x, b.y, T))
    found.sort()
    return [row[5] for row in found]


@pytest.mark.parametrize("D", [3, 7, 11, 19, 23])
def test_vectors_in_region_matches_the_double_loop(D):
    F = FieldE(D)
    for cap in range(31):
        # |<T, T>| <= 2 sqrt(N(a) N(b)) <= 2 cap: one loop serves every window
        every = _vectors_reference(F, cap, -2 * cap, 2 * cap)
        for lo, hi in ((0, 0), (0, 12), (1, 24), (-5, 5), (-30, -1)):
            expected = [T for T in every if lo <= norm(T, F) <= hi]
            assert vectors_in_region(F, cap, lo, hi) == expected, (cap, lo, hi)
            assert vectors_in_region(F, cap, lo, hi, limit=len(expected)) == expected
            if expected:
                with pytest.raises(ResourceBudgetError):
                    vectors_in_region(F, cap, lo, hi, limit=len(expected) - 1)


def test_table_evaluates_each_invariant_once(monkeypatch, capsys):
    """An expand build evaluates Q_{T,p} once per p of each distinct
    (<T, T>, keys); an identical second build evaluates none."""
    import qeis.fourier as fourier
    from qeis.cli import main

    calls = []

    def counted(q, two_e):
        calls.append(q.p)
        return sqrtp_eval_halfint(q, two_e)

    monkeypatch.setattr(fourier, "sqrtp_eval_halfint", counted)
    fourier.coefficient_of_invariants.cache_clear()
    bound = 12
    invariants = set()
    for T in vectors_in_region(F3, REGION_SCALE * (bound + 1), 1, bound):
        nrm = norm(T, F3)
        invariants.add((nrm, tuple(local_key(T, F3, p, nrm) for p in prime_factors(nrm))))
    expected = sum(len(keys) for _, keys in invariants)
    for want in (expected, 0):
        calls.clear()
        assert main(["expand", "--D", "3", "--bound", str(bound)]) == 0
        capsys.readouterr()
        assert len(calls) == want


# ---------------------------------------------------------------------------
# Keys from the content ideal, and one shared value per invariant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("D", [3, 7, 11, 19, 23])
def test_norm_valuations_at_inert_primes_are_even_on_the_table_discs(D):
    """local_key's odd-valuation check no longer runs at inert p that miss the
    content; N(z) of every disc point of the bound-24 tables stays even there."""
    F = FieldE(D)
    cap = REGION_SCALE * (24 + 1)
    points = {(T.a.x, T.a.y) for T in vectors_in_region(F, cap, 0, 0)}
    assert len(points) > 50
    inert = 0
    for x, y in points:
        n = QuadInt(x, y).norm(F)
        for p in prime_factors(n):
            if F.splitting(p) is Splitting.INERT:
                inert += 1
                assert vp(n, p) % 2 == 0, (D, x, y, p)
    assert inert > 0


@pytest.mark.parametrize("D", [3, 7, 11, 19, 23])
def test_local_keys_match_the_per_prime_read_on_whole_tables(D):
    """The content keys at the p dividing g = gcd(N(a), N(b)) and <T, T>, none
    of them a unit key, expanded by the unit keys at the other p of <T, T>,
    give the per-prime read of every T, norm 0 and negative norms included."""
    from qeis.fourier import content_keys, norm_keys

    F = FieldE(D)
    seen = {"norm 0": 0, "content > 1": 0, "ramified p | g": 0, "split p | g": 0,
            "unit key beside a content > 1": 0}
    for T in vectors_in_region(F, 24, -48, 48):
        nrm = norm(T, F)
        g = math.gcd(T.a.norm(F), T.b.norm(F))
        reference = tuple(local_key(T, F, p, nrm) for p in prime_factors(nrm or g))
        content = content_keys(T, F, nrm)
        assert content == tuple(key for key in reference if g % key.p == 0), T
        assert all((key.k1, key.k2) != (0, 0) for key in content), T
        if nrm:
            assert norm_keys(F, nrm, content) == reference, T
        seen["norm 0"] += nrm == 0
        seen["content > 1"] += g > 1
        seen["unit key beside a content > 1"] += g > 1 and nrm != 0 and any(
            g % key.p for key in reference)
        for key in reference:
            if g % key.p == 0 and key.case is not Splitting.INERT:
                seen[f"{key.case.value} p | g"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("D", [3, 7, 11, 19])
@pytest.mark.parametrize("ell", [3, 5])
def test_table_rows_match_coefficient(D, ell):
    """Every row of a table is what :func:`coefficient` gives for its T, and
    holds the same rational and {p: Q_{T,p}} objects; ``entries`` is that
    list of coefficients, in row order."""
    F, P = FieldE(D), Params(n=2, ell=ell)
    for bound in (0, 1, 5, 24):
        table = full_expansion(P, F, bound)
        expected = [coefficient(global_vector(*row[:4]), P, F) for row in table.rows]
        for (*coords, nrm, (rank, rational, sigma, local_q)), e in zip(table.rows, expected):
            T = global_vector(*coords)
            assert (T, nrm, rank, rational, sigma, local_q) == (
                e.T, e.norm, e.rank, e.rational, e.sigma, e.local_q), T
            assert rational is e.rational and local_q is e.local_q, T
        assert list(table.entries) == expected
        assert len(table.rows) == len(vectors_in_region(F, table.region_norm_cap, 0, bound))


def test_entries_of_one_invariant_share_one_read_only_value():
    """Entries with the same (<T, T>, content keys) share their value objects,
    and the cache holds one entry per such invariant, most of them of unit
    content, cached under ()."""
    from qeis.fourier import coefficient_of_invariants, content_keys

    coefficient_of_invariants.cache_clear()
    table = full_expansion(P3, F3, 24)
    by_invariant = {}
    for e in table.entries:
        by_invariant.setdefault((e.norm, content_keys(e.T, F3, e.norm)), []).append(e)
    assert len(by_invariant) < len(table.entries)
    assert coefficient_of_invariants.cache_info().currsize == len(by_invariant)
    unit = sum(len(entries) for (_, content), entries in by_invariant.items() if not content)
    assert unit > len(table.entries) // 2
    for (nrm, content), entries in by_invariant.items():
        value = coefficient_of_invariants(P3, F3, nrm, content)
        for e in entries:
            assert (e.rank, e.rational, e.sigma) == value[:3]
            assert e.rational is value[1] and e.local_q is value[3]
    nrm, content = max(by_invariant, key=lambda inv: len(by_invariant[inv][0].local_q))
    entry = by_invariant[nrm, content][0]
    before = dict(entry.local_q)
    assert before
    with pytest.raises(TypeError):
        entry.local_q[2] = None
    with pytest.raises(TypeError):
        del entry.local_q[max(before)]
    assert dict(coefficient_of_invariants(P3, F3, nrm, content)[3]) == before
    assert coefficient(entry.T, P3, F3).local_q == before


def test_table_reads_each_disc_point_once_per_prime_and_each_invariant_once(monkeypatch):
    """A table build reads a disc point's coordinate reading at most once per
    p, at split, inert and ramified p of the content, and reaches
    coefficient_of_invariants once per (<T, T>, content keys)."""
    import qeis.fourier as fourier
    from qeis.fourier import coefficient_of_invariants, content_keys
    from qeis.hermitian import coordinate_reading

    reads, asked, cases = [], [], set()

    def counted_reading(z, nz, p, case):
        reads.append((z.x, z.y, p))
        cases.add(case)
        return coordinate_reading(z, nz, p, case)

    def counted_value(P, F, nrm, content):
        asked.append((nrm, content))
        return coefficient_of_invariants(P, F, nrm, content)

    monkeypatch.setattr(fourier, "coordinate_reading", counted_reading)
    monkeypatch.setattr(fourier, "coefficient_of_invariants", counted_value)
    for D in (3, 7, 11, 19, 23):
        F = FieldE(D)
        reads.clear()
        asked.clear()
        table = full_expansion(Params(n=2, ell=3), F, 24)
        assert reads and len(set(reads)) == len(reads), D
        invariants = {(row[4], content_keys(global_vector(*row[:4]), F, row[4]))
                      for row in table.rows}
        assert len(asked) == len(set(asked)) == len(invariants) and set(asked) == invariants, D
    assert cases == set(Splitting)


def test_table_derives_content_once_per_norm_and_pair_of_classes(monkeypatch):
    """A table build derives the content keys once per distinct (<T, T>,
    class of a, class of b), a disc point's class being its coordinate
    readings at the primes of its norm (none for the zero point); its rows
    are five ints and a value tuple, and it builds no GlobalVector."""
    import qeis.fourier as fourier
    from qeis.hermitian import coordinate_reading

    derived = []

    def counted(m, ra, rb):
        derived.append((m, *(None if r is None else tuple((p, got) for p, (_, got) in r.items())
                             for r in (ra, rb))))
        return content_of_classes(m, ra, rb)

    built = []

    def counted_init(self, a, b):
        built.append(1)
        init(self, a, b)

    content_of_classes, init = fourier._content_of_classes, GlobalVector.__init__
    monkeypatch.setattr(fourier, "_content_of_classes", counted)
    monkeypatch.setattr(GlobalVector, "__init__", counted_init)
    for D in (3, 7, 11, 19, 23):
        F = FieldE(D)

        def cls(x, y):
            nz = QuadInt(x, y).norm(F)
            return tuple((p, coordinate_reading(QuadInt(x, y), nz, p, F.splitting(p)))
                         for p in prime_factors(nz)) if nz else None

        derived.clear()
        built.clear()
        table = full_expansion(P3, F, 24)
        assert not built, D
        assert all(len(row) == 6 and all(type(x) is int for x in row[:5])
                   and type(row[5]) is tuple and len(row[5]) == 4 for row in table.rows), D
        triples = {(m, cls(ax, ay), cls(bx, by)) for ax, ay, bx, by, m, _ in table.rows}
        assert len(derived) == len(set(derived)) and set(derived) == triples, D
        assert len(triples) < len(table.rows), D
        assert len(table.entries) == len(built) == len(table.rows), D


def test_coordinate_reading_refuses_an_odd_valuation_at_an_inert_prime():
    from qeis.hermitian import coordinate_reading

    with pytest.raises(InternalConsistencyError, match="^odd norm valuation at an inert prime$"):
        coordinate_reading(QuadInt(1, 0), 2, 2, Splitting.INERT)  # N(1) = 1 read as 2
    assert coordinate_reading(QuadInt(2, 0), 4, 2, Splitting.INERT) == 2
