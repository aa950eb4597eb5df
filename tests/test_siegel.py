import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qeis.arith import IntPoly, Splitting, SqrtPPoly, ramanujan_sum_vp, vp
from qeis.errors import (InternalConsistencyError, ResourceBudgetError,
                         ValidationError)
from qeis.hermitian import (FieldE, LocalKey, LocalVectorData, Params, global_vector,
                            local_quadratic_data, norm)
from qeis.lift import lift_local_exact
from qeis.siegel import (R_closed_form, assemble_series, b_series, c_term, c_term_gauss,
                         check_against_oracle, extract_P, extract_R, power_table,
                         q_poly, q_poly_closed_form, q_poly_from_series,
                         q_poly_of_invariants, ramified_shape, series_blocks,
                         split_shape, term_closed, term_oracle)
from qeis.verify import r_arbitration, sample_ramified_vectors

F3 = FieldE(3)
P2 = Params(n=2, ell=3)


def _coeff_tuple(values) -> tuple:
    """A reference series, in Fractions or ints, as a coefficient tuple without
    trailing zeros, to compare with an :class:`IntPoly`'s coeffs."""
    values = list(values)
    while values and values[-1] == 0:
        values.pop()
    return tuple(values)


def _closed_series(eta, shape, k):
    """Sum_r term_r t'^r of eta by the closed form, truncated at r = k + 1."""
    return IntPoly([term_closed(r, eta, shape) for r in range(k + 2)])


def _c_series(k1, k2, k, m, p):
    """The C-series of the ramified invariants (k1, k2, k), truncated at r = k + 1."""
    shape = ramified_shape(p, m)
    return IntPoly(shape.series((k1, k2, k), range(k + 2)))


# ---------------------------------------------------------------------------
# Closed-form terms
# ---------------------------------------------------------------------------

def test_term_unramified_examples():
    sh = split_shape(3, 2)
    assert term_closed(0, (1, 2, 3, 4), sh) == 1
    # frozen from the enumeration oracle: trivial-character count on (Z/3)^4
    assert term_closed(1, (3, 0, 3, 0), sh) == 33
    # isotropic eta, oracle-only regime
    assert term_closed(1, (1, 0, 0, 0), sh) == 6


def test_term_unramified_outside_lattice_vanishes():
    sh = split_shape(3, 2)
    eta = (Fraction(1, 3), 0, 1, 0)
    for r in range(4):
        assert term_closed(r, eta, sh) == 0


def test_term_closed_rejects_a_negative_index():
    for eta, sh in (((1, 0, 1, 0), split_shape(3, 2)),
                    ((Fraction(1, 3), 0, 1, 0), split_shape(3, 2)),
                    ((1, 0, 1, 0), ramified_shape(3, 1))):
        with pytest.raises(ValidationError):
            term_closed(-1, eta, sh)


def test_shape_invariants_per_form():
    sh = split_shape(3, 2)
    assert sh.invariants((3, 0, 9, 0)) == (1, 3)
    assert sh.invariants((0, 0, 0, 0)) == (math.inf, math.inf)
    assert sh.invariants((Fraction(1, 3), 0, 1, 0)) is None
    rsh = ramified_shape(3, 1)
    for eta, inv in (((1, 0, 1, 0), (0, 0, 0)), ((0, Fraction(1, 3), 0, 3), (-1, 0, 1)),
                     ((3, 1, 9, 0), (0, 1, 3))):
        assert rsh.invariants(eta) == inv



@pytest.mark.parametrize("c, inv", [(3, (1, 2)), (True, (0, 1)), (Fraction(4, 2), (0, 1)),
                                    (2.0, (0, 1)), (Fraction(1, 2), None), (2.5, None)])
def test_split_invariants_integrality_test_reads_every_coordinate_type(c, inv):
    """An int coordinate skips the Fraction of the split integrality test; a
    bool, an integral Fraction and an integral float read as their int, and
    a non-integral Fraction or float lies outside the lattice."""
    got = split_shape(3, 2).invariants((3, 3, c, 3))  # q = 3c + 9
    assert got == inv
    assert got is None or all(type(x) is int for x in got)

def _term_unramified_reference(r, eta, shape):
    """B_{r,eta} as first written: Fraction coordinates, v(eta) and q(eta)
    recomputed for every r, and a Ramanujan sum of q(eta)/p^(2j) for every j."""
    if not all(Fraction(c).denominator == 1 for c in eta):
        return 0
    eta = [int(e) for e in eta]
    if r == 0:
        return 1
    p, m = shape.p, shape.m
    v = min(vp(c, p) for c in eta)
    q = shape.quad_form(eta)
    total = 0
    if v >= r:
        total += p ** (2 * m * r)
    j_top = min(r - 1, v)
    j = 0
    while j <= j_top:
        total += p ** (m * (r + j)) * ramanujan_sum_vp(p, r - j, vp(q // p ** (2 * j), p))
        j += 1
    assert total % p ** r == 0
    return total // p ** r


def test_term_unramified_matches_reference_on_every_valuation_pair():
    """The (v, v_p(q)) form of B_{r,eta} against the reference, exhaustively.

    p in {2, 3, 5, 7}, m in {1, 2, 3}, r = 0..9, and for every v <= 6 the
    seven pairs 2v <= k_q <= 2v + 6 plus q = 0, built as x = (p^v, 0, ...),
    y = (p^(k_q - v), 0, ...) (y = 0 for q = 0): 6,720 terms.  Each case
    also puts 1/p first in the x-block, then in the y-block, which is what
    dividing that block by one more power of p than it holds gives, as the
    split eta family does past k1 or k2; both forms must give 0 there:
    13,440 more terms.
    """
    inside = outside = 0
    for p in (2, 3, 5, 7):
        for m in (1, 2, 3):
            sh = split_shape(p, m)
            pad = [0] * (m - 1)
            for v in range(7):
                for kq in list(range(2 * v, 2 * v + 7)) + [None]:
                    y0 = 0 if kq is None else p ** (kq - v)
                    eta = [p ** v] + pad + [y0] + pad
                    off = ([Fraction(1, p)] + pad + [y0] + pad,
                           [p ** v] + pad + [Fraction(1, p)] + pad)
                    for r in range(10):
                        expected = _term_unramified_reference(r, eta, sh)
                        assert term_closed(r, eta, sh) == expected, (p, m, v, kq, r)
                        inside += 1
                        for bad in off:
                            assert _term_unramified_reference(r, bad, sh) == 0
                            assert term_closed(r, bad, sh) == 0, (p, m, v, kq, r, bad)
                            outside += 1
    assert (inside, outside) == (6720, 13440)


def _b_term_reference(r, v, kq, m, p):
    """B_{r,eta} from (v(eta), v_p(q(eta))), summing the Gauss-sum formula
    term by term over j <= min(r - 1, v, kq - r + 1)."""
    if r == 0:
        return 1
    total = p ** (2 * m * r) if v >= r else 0
    for j in range(min(r - 1, v, kq - r + 1) + 1):
        total += p ** (m * (r + j)) * ramanujan_sum_vp(p, r - j, kq - 2 * j)
    quot, rest = divmod(total, p ** r)
    assert not rest
    return quot


def test_b_term_closed_form_matches_the_term_by_term_sum():
    """The one-pass geometric-series form of b_series against the j-sum,
    exhaustively: p in {2, 3, 5, 7, 11}, m in {1, 2, 3, 5}, r = 0..24,
    every v <= 25 with 2v <= k_q <= 51 or k_q = inf, and v = k_q = inf:
    364,500 terms.  A series whose r range starts above 0 is the matching
    slice of the full one, and a one-term series is the shape's term."""
    inf = math.inf
    pairs = [(v, kq) for v in range(26) for kq in [*range(2 * v, 52), inf]] + [(inf, inf)]
    rs = range(25)
    checked = 0
    for p in (2, 3, 5, 7, 11):
        for m in (1, 2, 3, 5):
            for v, kq in pairs:
                got = b_series(v, kq, m, p, rs)
                assert got == tuple(_b_term_reference(r, v, kq, m, p) for r in rs), (p, m, v, kq)
                checked += len(rs)
                start = 1 + v % 24 if v != inf else 12
                assert b_series(v, kq, m, p, range(start, 25)) == got[start:], (p, m, v, kq)
            # the last pair is the zero vector's (inf, inf)
            assert split_shape(p, m).series((inf, inf), range(24, 25))[0] == got[24]
    assert checked == 364_500
    assert b_series(3, 7, 2, 3, range(0)) == ()
    with pytest.raises(ValidationError):
        b_series(3, 7, 2, 3, range(-1, 2))


def test_term_ramified_examples():
    sh = ramified_shape(3, 1)
    eta = (1, 0, 1, 0)  # q = 1, k = 0
    assert term_closed(0, eta, sh) == 1
    for r in range(2, 6):
        assert term_closed(r, eta, sh) == 0
    # k1=0, k2=1, k=1 (frozen against the enumeration oracle below)
    assert c_term(1, 0, 1, 1, 1, 3) == 2 * 27 - 9


def test_term_vanishing_beyond_k_plus_one():
    sh = split_shape(3, 2)
    rng = random.Random(3)
    for _ in range(30):
        eta = tuple(rng.randrange(0, 27) for _ in range(4))
        q = sh.quad_form(eta)
        if q == 0:
            continue
        k = vp(q, 3)
        if k > 3:
            continue
        for r in range(k + 2, k + 5):
            assert term_closed(r, eta, sh) == 0, (eta, r)
    rsh = ramified_shape(3, 1)
    for k1 in range(0, 3):
        for k2 in (k1, k1 + 1):
            for kp in range(0, 3):
                k = k1 + k2 + kp
                for r in range(k + 2, k + 6):
                    assert c_term(r, k1, k2, k, 1, 3) == 0


def test_c_term_four_ranges_match_gauss_route():
    for m in (1, 2):
        for p in (3, 5, 7):
            for k1 in range(0, 4):
                for k2 in (k1, k1 + 1):
                    for kp in range(0, 4):
                        k = k1 + k2 + kp
                        for r in range(0, k + 3):
                            assert c_term(r, k1, k2, k, m, p) == \
                                c_term_gauss(r, k1, k2, k, m, p), (m, p, k1, k2, k, r)


def _c_term_reference(r, k1, k2, k, m, p):
    """C_{r,eta} by the four-range case analysis, summing each band term by term."""
    if k2 < 0:
        return 0
    if k1 == -1:
        return 1 if r == 0 else 0
    if r == 0:
        return 1

    def band(top):  # Sum_{j < top} p^((2r+2j+1)m - j) - p^((2r+2j+1)m - j - 1)
        return sum(p ** ((2 * r + 2 * j + 1) * m - j - 1) * (p - 1) for j in range(top))

    if r <= k2:
        return p ** (r * (4 * m - 1)) + band(r)
    if r <= k - k1:
        return band(k1 + 1)
    if r <= k + 1:
        return band(k - r + 1) - p ** ((2 * k + 3) * m + r - k - 2)
    return 0


def test_c_term_closed_form_matches_the_term_by_term_sum():
    """The geometric-series bands of c_term against the j-sum, exhaustively:
    odd p <= 11, m in {1, 2, 3, 5}, r = 0..24 and every consistent (k1, k2, k)
    with k <= 25: k2 in {k1, k1 + 1} and k >= k1 + k2, for k1 >= -2 (the
    dual k1 = -1 and the vanishing k2 < 0 included)."""
    keys = [(k1, k2, k) for k1 in range(-2, 13) for k2 in (k1, k1 + 1)
            for k in range(k1 + k2, 26)]
    rs = range(25)
    checked = 0
    for p in (3, 5, 7, 11):
        for m in (1, 2, 3, 5):
            for k1, k2, k in keys:
                got = [c_term(r, k1, k2, k, m, p) for r in rs]
                assert got == [_c_term_reference(r, k1, k2, k, m, p) for r in rs], \
                    (p, m, k1, k2, k)
                checked += len(rs)
    assert checked == 16 * 25 * len(keys) == 186_000


def test_c_term_dual_and_zero_cases():
    assert c_term(0, -1, 0, -1, 1, 3) == 1
    assert c_term(1, -1, 0, -1, 1, 3) == 0
    for r in range(4):
        assert c_term(r, -2, -1, 0, 1, 3) == 0


# ---------------------------------------------------------------------------
# Enumeration oracle
# ---------------------------------------------------------------------------

def test_oracle_trivial_cases():
    sh = split_shape(3, 2)
    assert term_oracle(0, (1, 0, 0, 0), sh) == 1
    assert term_oracle(0, (Fraction(1, 3), 0, 0, 0), sh) == 0
    rsh = ramified_shape(3, 1)
    # p-block denominators stay inside the dual lattice
    assert term_oracle(0, (0, Fraction(1, 3), 0, 0), rsh) == 1
    assert term_oracle(0, (Fraction(1, 3), 0, 0, 0), rsh) == 0


def test_oracle_matches_closed_forms_small_grid():
    rng = random.Random(17)
    for p in (2, 3):
        sh = split_shape(p, 2)
        for _ in range(12):
            eta = tuple(rng.randrange(0, p ** 3) for _ in range(4))
            for r in range(0, 3):
                assert term_closed(r, eta, sh) == term_oracle(r, eta, sh)
    rsh = ramified_shape(3, 1)
    for _ in range(12):
        eta = tuple(rng.randrange(0, 27) for _ in range(4))
        if rsh.quad_form(eta) == 0:
            continue
        for r in range(0, 4):
            assert term_closed(r, eta, rsh) == term_oracle(r, eta, rsh)


def test_ramified_closed_form_at_infinite_valuations():
    """An isotropic eta has k = v_p(q(eta)) = +inf, and the zero vector
    k1 = k2 = k = +inf; the closed form still gives the finite counted term,
    also at the ranges that a finite k would cut off."""
    sh = ramified_shape(3, 1)
    pinned = {(1, 0, 0, 0): (0, 0, math.inf, [18, 162, 1458]),
              (0, 0, 0, 0): (math.inf, math.inf, math.inf, [45, 1377, 38637]),
              (3, 0, 0, 0): (1, 1, math.inf, [45, 648, 5832]),
              (0, 1, 0, 0): (0, 1, math.inf, [45, 162, 1458])}
    for eta, (k1, k2, k, terms) in pinned.items():
        assert sh.invariants(eta) == (k1, k2, k)
        assert [term_closed(r, eta, sh) for r in (1, 2, 3)] == terms, eta
        assert [c_term_gauss(r, k1, k2, k, 1, 3) for r in (1, 2, 3)] == terms, eta
        assert [term_oracle(r, eta, sh) for r in (1, 2, 3)] == terms, eta
        assert sh.series((k1, k2, k), range(1, 4)) == tuple(terms)


def test_oracle_matches_closed_form_rank8_ramified():
    """m = 2 ramified lattice (rank 8): the closed form's m-scaling is real."""
    rng = random.Random(53)
    sh = ramified_shape(3, 2)
    seen = 0
    while seen < 8:
        eta = tuple(rng.randrange(0, 9) for _ in range(8))
        if sh.quad_form(eta) == 0:
            continue
        assert term_closed(1, eta, sh) == term_oracle(1, eta, sh), eta
        seen += 1


def _brute_force_terms(r, etas, shape):
    """Reference count: every point of (Z/p^r)^rank, one pairing per eta (r >= 1)."""
    p, rank, mod = shape.p, shape.rank, shape.p ** r
    half = rank // 2
    pts = np.indices((mod,) * rank, dtype=np.int64).reshape(rank, -1)
    q = sum(w * pts[i] * pts[half + i] for i, w in enumerate(shape.pair_weights))
    on_quadric = pts[:, q % mod == 0]
    coeffs = []
    for eta in etas:
        scaled = shape.dual_scaled(eta)
        coeffs.append(scaled[half:] + scaled[:half])
    pairing = np.array(coeffs, dtype=np.int64) % mod @ on_quadric % mod
    full = np.count_nonzero(pairing == 0, axis=1)
    prev = np.count_nonzero(pairing % (mod // p) == 0, axis=1) - full
    return [int(f) - Fraction(int(v), p - 1) for f, v in zip(full, prev)]


def _oracle_etas(shape, r, rng):
    """Every dual residue mod p^r at p = 2; seeded dual vectors otherwise.

    A p-block coordinate of the ramified shape may carry denominator p.
    """
    p, mod = shape.p, shape.p ** r
    weights = shape.pair_weights * 2
    if p == 2:
        return [tuple(s // w if s % w == 0 else Fraction(s, w)
                      for s, w in zip(res, weights))
                for res in itertools.product(range(mod), repeat=shape.rank)]
    return [tuple(Fraction(rng.randrange(p * mod), p) if w > 1 and rng.random() < 0.4
                  else rng.randrange(mod) * p ** rng.randint(0, r) for w in weights)
            for _ in range(12)]


def test_oracle_matches_brute_force_count():
    """The pair-convolution count equals plain enumeration on every small grid."""
    rng = random.Random(29)
    shapes = ([split_shape(p, m) for p in (2, 3, 5, 7) for m in (1, 2, 3)]
              + [ramified_shape(p, m) for p in (2, 3, 5, 7) for m in (1, 2)])
    grids = 0
    for sh in shapes:
        r = 1
        while (sh.p ** r) ** sh.rank <= 3 ** 8:
            etas = _oracle_etas(sh, r, rng)
            got = [term_oracle(r, eta, sh) for eta in etas]
            assert got == _brute_force_terms(r, etas, sh), (sh, r)
            grids += 1
            r += 1
    assert grids == 33
    rsh = ramified_shape(3, 1)
    assert term_oracle(2, (1, 0, 3, 1), rsh) == term_closed(2, (1, 0, 3, 1), rsh)


def test_oracle_refuses_counts_past_int64():
    """3^(4*12) points overflow int64, so no budget lets the count run."""
    with pytest.raises(ResourceBudgetError):
        term_oracle(4, (1,) + (0,) * 11, split_shape(3, 6), budget=10 ** 40)


def test_oracle_budget():
    sh = split_shape(5, 2)
    with pytest.raises(ResourceBudgetError):
        term_oracle(3, (1, 0, 0, 0), sh, budget=10 ** 6)


# (D, p, T): split with k1, k2 > 0 and four distinct blocks, inert, ramified
ORACLE_CHECK_DATA = ((7, 2, (2, 2, 4, 0)), (3, 2, (2, 0, 8, 8)), (3, 3, (3, 0, 3, 0)))


def _check_data(D, p, T):
    return local_quadratic_data(global_vector(*T), FieldE(D), p, P2)


@pytest.mark.parametrize("D, p, T", ORACLE_CHECK_DATA)
def test_oracle_check_names_a_wrong_closed_form_term(D, p, T, monkeypatch):
    """A closed-form term off by one at a single r fails the oracle check,
    and the error names the key, r and eta."""
    import qeis.siegel as siegel

    siegel.q_poly_of_invariants.cache_clear()
    data = _check_data(D, p, T)
    check_against_oracle(data)
    _, blocks = series_blocks(data.key)
    target = blocks[-1]
    r = target.rs[-1]
    assert sum(b.inv == target.inv for b in blocks) == 1
    if data.case is Splitting.RAMIFIED:
        name = "c_term"
        original = siegel.c_term

        def off_by_one(rr, *args):
            return original(rr, *args) + ((rr, *args[:-2]) == (r, *target.inv))
    else:
        name = "b_series"
        original = siegel.b_series

        def off_by_one(v, kq, m, pp, rs):
            terms = list(original(v, kq, m, pp, rs))
            if (v, kq) == target.inv and r in rs:
                terms[r - rs.start] += 1
            return tuple(terms)

    monkeypatch.setattr(siegel, name, off_by_one)
    with pytest.raises(InternalConsistencyError) as err:
        check_against_oracle(data)
    message = str(err.value)
    assert (f"(p, case, n, k, k1, k2) = ({p}, {data.case.value}, 2, {data.k}, {data.k1}, "
            f"{data.k2}), r = {r}," in message)
    assert f"eta = {target.name} = (" in message


@pytest.mark.parametrize("D, p, T", ORACLE_CHECK_DATA)
def test_oracle_check_recounts_exactly_the_assembled_terms(D, p, T, monkeypatch):
    """The oracle check calls term_oracle once per term of the assembled
    series, and those counts, placed as the blocks say, rebuild the series;
    inert data is checked on T's own coordinates only, k + 2 terms."""
    import qeis.siegel as siegel

    siegel.q_poly_of_invariants.cache_clear()
    data = _check_data(D, p, T)
    calls = []

    def recording(r, eta, shape, budget=None):
        value = term_oracle(r, eta, shape, budget=budget)
        calls.append((r, tuple(eta), value))
        return value

    monkeypatch.setattr(siegel, "term_oracle", recording)
    check_against_oracle(data)
    _, blocks = series_blocks(data.key)
    placed = [(b, r) for b in blocks for r in b.rs]
    assert [(r, tuple(b.eta(data))) for b, r in placed] == [c[:2] for c in calls]
    rebuilt = [Fraction(0)] * (2 * data.k + 3)
    for (b, r), (_, _, value) in zip(placed, calls):
        rebuilt[2 * r + b.shift] += value * Fraction(p) ** (r + b.power)
    assert _coeff_tuple(rebuilt) == assemble_series(data.key).coeffs
    if data.case is Splitting.INERT:
        assert data.k == 4 and len(calls) == data.k + 2
        assert all(eta == data.coords for _, eta, _ in calls)


# (data, mirrored): a split key with k1 = k2 = 1, whose blocks (p^-1 T1, T2) and
# (T1, p^-1 T2) share their shift and power, an inert key and a ramified key
EVERY_BLOCK_DATA = (
    (LocalVectorData(LocalKey(2, Splitting.SPLIT, 2, 2, 1, 1), coords=(2, 0, 2, 0), prec=4), True),
    (_check_data(3, 2, (2, 0, 8, 8)), False),
    (_check_data(3, 3, (3, 0, 3, 0)), False))


@pytest.mark.parametrize("data, mirrored", EVERY_BLOCK_DATA, ids=["split", "inert", "ramified"])
def test_oracle_check_recounts_every_block_mirrored_ones_included(data, mirrored, monkeypatch):
    """The oracle check calls term_oracle once per term of every block of
    series_blocks, Sum len(b.rs) times, also for two mirrored blocks that
    add the same terms at the same places."""
    import qeis.siegel as siegel

    assert q_poly(data, P2) is not None  # the declared key is the coordinates' own
    calls = []

    def counting(r, eta, shape, budget=None):
        calls.append(r)
        return term_oracle(r, eta, shape, budget=budget)

    monkeypatch.setattr(siegel, "term_oracle", counting)
    check_against_oracle(data)
    _, blocks = series_blocks(data.key)
    placed = {(b.inv, b.rs, b.shift, b.power) for b in blocks}
    assert (len(placed) < len(blocks)) == mirrored
    assert len(calls) == sum(len(b.rs) for b in blocks)


# ---------------------------------------------------------------------------
# Series assembly and the unit-norm corollaries
# ---------------------------------------------------------------------------

def _series_for(T, p):
    return assemble_series(local_quadratic_data(T, F3, p, P2).key)


def test_unit_norm_corollaries():
    T = global_vector(1, 0, 1, 0)   # norm 2
    # split p = 7 and inert p = 5: 1 - p^n t^2
    for p in (5, 7, 11, 13):
        assert _series_for(T, p) == IntPoly([1, 0, -(p ** 2)]), p
    # ramified p = 3: 1 - p^(n/2) t
    assert _series_for(T, 3) == IntPoly([1, -3])


def test_series_divisibility_by_normalizing_factor():
    rng = random.Random(41)
    for _ in range(40):
        T = global_vector(rng.randint(-8, 8), rng.randint(-8, 8),
                          rng.randint(-8, 8), rng.randint(-8, 8))
        if norm(T, F3) <= 0:
            continue
        for p in (2, 3, 5, 7):
            s = _series_for(T, p)
            if F3.splitting(p) is Splitting.RAMIFIED:
                s.divide_exact(3, 1)
            else:
                s.divide_exact(p ** 2, 2)


def _wedge_sum_enumeration(t1, t2, r1, r2, p, n):
    """Direct enumeration of the split double-sum integrand S_T(r1, r2).

    S_T = int over x in p^-r1 L, y in p^-r2 L of
          psi^-1((x, T2) + (y, T1)) Char(p^max(r1,r2) (x, y) in Z_p),
    discretized at granularity p^(2 r1), p^(2 r2) per block and collapsed
    exactly through the unit-scaling Galois average (modulus p^r2, r1 <= r2).
    """
    import itertools

    m1, m2 = p ** r1, p ** r2
    mod = p ** r2
    count_full = 0
    count_prev = 0
    for xt in itertools.product(range(m1), repeat=n):
        for yt in itertools.product(range(m2), repeat=n):
            # Char(p^r2 (x, y) in Z_p) with x = xt/p^r1, y = yt/p^r2
            if r1 and sum(a * b for a, b in zip(xt, yt)) % (p ** r1) != 0:
                continue
            arg = (p ** (r2 - r1) * sum(a * b for a, b in zip(xt, t2))
                   + sum(a * b for a, b in zip(yt, t1))) % mod
            if arg == 0:
                count_full += 1
            elif arg % (mod // p) == 0:
                count_prev += 1
    val = Fraction(count_full) - Fraction(count_prev, p - 1)
    assert val.denominator == 1
    return val.numerator


def test_split_wedge_collapse_against_enumeration():
    """S_T(r1, r2) = p^(n(r2-r1)) B_{r1, (p^(r1-r2) T1, T2)} by direct count."""
    p, n = 3, 2
    sh = split_shape(p, n)
    cases = [
        ((3, 0), (1, 0), 0, 1),
        ((3, 1), (2, 3), 0, 1),
        ((9, 3), (1, 1), 0, 2),
        ((3, 3), (3, 1), 1, 2),
        ((6, 3), (2, 1), 0, 1),
    ]
    for t1, t2, r1, r2 in cases:
        i = r2 - r1
        eta = tuple(Fraction(c, p ** i) for c in t1) + tuple(Fraction(c) for c in t2)
        expect = p ** (n * i) * term_closed(r1, eta, sh)
        got = _wedge_sum_enumeration(t1, t2, r1, r2, p, n)
        assert got == expect, (t1, t2, r1, r2, got, expect)


def test_ramified_series_against_term_theorem_display():
    """C-series = (1 - p^(2m-1) t) R(p^(2m) t) + explicit sums, exactly."""
    for m in (1, 2):
        p = 3
        for k1 in range(0, 3):
            for k2 in (k1, k1 + 1):
                for kp in range(0, 3):
                    k = k1 + k2 + kp
                    series = _c_series(k1, k2, k, m, p)
                    R = R_closed_form(k1, k2, k, m, p)
                    rhs = [Fraction(0)] * (k + 3)
                    for i, c in enumerate(R.coeffs):
                        rhs[i] += c * Fraction(p) ** (2 * m * i)
                        rhs[i + 1] -= c * Fraction(p) ** (2 * m * i + 2 * m - 1)
                    for r in range(k2 + 1):
                        rhs[r] += Fraction(p) ** (r * (4 * m - 1))
                    for r in range(k1 + 1):
                        rhs[r + 1] -= Fraction(p) ** (3 * m - 1 + r * (4 * m - 1))
                    assert series.coeffs == _coeff_tuple(rhs), (m, k1, k2, k)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def test_extract_P_unit_and_k1():
    sh = split_shape(2, 2)
    # unit q(eta): P = 1
    poly = extract_P(_closed_series((1, 0, 1, 0), sh, 0), 2, 2)
    assert list(poly.coeffs) == [1]
    # k = 1: the only monic palindromic option is Y + 1
    poly = extract_P(_closed_series((1, 0, 2, 0), sh, 1), 2, 2)
    assert list(poly.coeffs) == [1, 1]


def test_extract_P_functional_equation_random():
    rng = random.Random(43)
    sh = split_shape(3, 2)
    seen = 0
    while seen < 25:
        eta = tuple(rng.randrange(0, 27) for _ in range(4))
        q = sh.quad_form(eta)
        if q == 0 or vp(q, 3) > 3:
            continue
        k = vp(q, 3)
        poly = extract_P(_closed_series(eta, sh, k), 2, 3)
        assert poly.degree == k
        assert poly.is_monic()
        assert poly.coeffs == poly.coeffs[::-1]
        seen += 1


def test_int_extraction_keeps_its_exactness_checks(monkeypatch):
    """Corrupted integer series still fail extraction with InternalConsistencyError."""
    import qeis.siegel as siegel

    sh = split_shape(13, 2)
    series = _closed_series((1, 0, 13 ** 3, 0), sh, 3)
    assert all(isinstance(c, int) for c in series.coeffs)
    assert extract_P(series, 2, 13).degree == 3
    for i in range(len(series.coeffs)):
        bumped = list(series.coeffs)
        bumped[i] += 1
        with pytest.raises(InternalConsistencyError, match="not divisible"):
            extract_P(IntPoly(bumped), 2, 13)
    # (1 - 13 t')(1 + t') divides exactly, but 1 is not a multiple of 13^2
    with pytest.raises(InternalConsistencyError, match="non-integer coefficient"):
        extract_P(IntPoly([1, -12, -13]), 2, 13)

    ramified = local_quadratic_data(global_vector(3, 0, 3, 0), F3, 3, P2)  # k = 2
    for data in (local_quadratic_data(global_vector(7, 0, 21, 7), F3, 7, P2),  # split, k = 3
                 local_quadratic_data(global_vector(2, 0, 4, 0), F3, 2, P2),   # inert, k = 4
                 ramified):
        local = assemble_series(data.key)
        assert all(isinstance(c, int) for c in local.coeffs)
        q_poly_from_series(data.key, local)
        for i in range(len(local.coeffs)):
            bumped = list(local.coeffs)
            bumped[i] += 1
            with pytest.raises(InternalConsistencyError, match="not divisible"):
                q_poly_from_series(data.key, IntPoly(bumped))
    # (1 - 7^2 t^2)(1 + t^2) divides exactly, but its t^2 term is not a multiple of 7^3
    split7 = LocalKey(7, Splitting.SPLIT, 2, 2, 0, 2)
    with pytest.raises(InternalConsistencyError, match="sqrt\\(p\\) grading"):
        q_poly_from_series(split7, IntPoly([1, 0, -48, 0, -49]))
    # a ramified C-term that p^(n - r) does not divide
    monkeypatch.setattr(siegel, "c_term", lambda *args: 1)
    with pytest.raises(InternalConsistencyError, match="non-integral term"):
        assemble_series(ramified.key)


def test_b_series_raises_on_a_non_integral_term(monkeypatch):
    """A power of p read wrongly for one term leaves a remainder of the
    division by p^r, and b_series raises rather than truncate it."""
    import qeis.siegel as siegel

    m, p, r = 2, 3, 3
    assert len(b_series(5, 7, m, p, range(5))) == 5
    original = siegel.power_table

    def corrupted(pp, top):
        table = list(original(pp, top))
        table[2 * m * r] += 1  # p^(2mr), read by term r since v >= r
        return tuple(table)

    monkeypatch.setattr(siegel, "power_table", corrupted)
    with pytest.raises(InternalConsistencyError, match="non-integral unramified term"):
        siegel.b_series(5, 7, m, p, range(5))


def test_assemble_series_raises_on_a_non_integral_negative_exponent_term():
    """The odd ramified block reads term r times p^(r - n): a term r < n
    that p^(n - r) does not divide raises from assemble_series."""
    key = local_quadratic_data(global_vector(3, 0, 3, 0), F3, 3, P2).key
    assert key.case is Splitting.RAMIFIED
    _, blocks = series_blocks(key)
    odd = blocks[-1]
    assert odd.rs.start + odd.power < 0
    assemble_series(key, blocks)
    bumped = odd._replace(terms=(odd.terms[0] + 1,) + odd.terms[1:])
    with pytest.raises(InternalConsistencyError,
                       match="assembled local series has non-integral term"):
        assemble_series(key, blocks[:-1] + [bumped])


def _split_series_reference(data, n):
    """The split local series assembled as first written: Fraction etas, term
    by term, as a coefficient tuple."""
    p, k = data.p, data.k
    sh = split_shape(p, n)
    t1, t2 = list(data.coords[:n]), list(data.coords[n:])
    coeffs = [Fraction(0)] * (2 * k + 3)
    for i in range(data.k1 + 1):
        eta = [Fraction(c, p ** i) for c in t1] + t2
        for r in range(k - i + 2):
            coeffs[2 * r + i] += _term_unramified_reference(r, eta, sh) * Fraction(p) ** (r + n * i)
    for j in range(1, data.k2 + 1):
        eta = t1 + [Fraction(c, p ** j) for c in t2]
        for r in range(k - j + 2):
            coeffs[2 * r + j] += _term_unramified_reference(r, eta, sh) * Fraction(p) ** (r + n * j)
    return _coeff_tuple(coeffs)


def test_eta_family_invariants_match_the_rescaled_vectors():
    """The (v, v_p(q)) the split blocks read off T's key equal those of the
    rescaled vectors themselves; each block's own eta is that rescaled
    vector."""
    checked = 0
    for D, p in ((7, 2), (3, 7), (3, 13), (11, 5)):
        F = FieldE(D)
        sh = split_shape(p, 2)
        for T in ((p, 0, p ** 2, 1), (p ** 2, p, 3 * p, p), (1, 1, p ** 3, 0)):
            data = local_quadratic_data(global_vector(*T), F, p, P2)
            assert data.case is Splitting.SPLIT
            t1, t2 = list(data.coords[:2]), list(data.coords[2:])
            etas = [(i, [Fraction(c, p ** i) for c in t1] + t2)
                    for i in range(data.k1 + 1)]
            etas += [(j, t1 + [Fraction(c, p ** j) for c in t2])
                     for j in range(1, data.k2 + 1)]
            expected = [(i, sh.invariants(eta)) for i, eta in etas]
            shape, blocks = series_blocks(data.key)
            assert shape == sh
            assert [(b.shift, b.inv) for b in blocks] == expected, (D, p, T)
            assert [list(b.eta(data)) for b in blocks] == [eta for _, eta in etas]
            checked += len(expected)
    assert checked == 24


def test_deep_split_key_both_routes_agree():
    """A split k = 40 key at p = 13: the int series equals the Fraction-built
    reference, and both routes give the same monic palindromic Q of degree 80."""
    data = LocalVectorData(LocalKey(13, Splitting.SPLIT, 2, 40, 13, 7),
                           coords=(13 ** 13, 0, 13 ** 27, 13 ** 7), prec=42)
    series = assemble_series(data.key)
    assert series.coeffs == _split_series_reference(data, 2)
    closed = q_poly_closed_form(data.key)
    assert closed == q_poly_from_series(data.key, series)
    assert closed.degree == 80 and closed.is_monic() and closed.is_palindromic()
    assert closed == q_poly(data, P2)


# (key, pinned Q): a split key with four blocks, an inert key, and a split
# key with k1 = k2, whose blocks (p^-i T1, T2) and (T1, p^-i T2) pair up
COLD_KEYS = ((LocalKey(3, Splitting.SPLIT, 2, 4, 1, 2), [1, 2, 7, 5, 7, 5, 7, 2, 1]),
             (LocalKey(2, Splitting.INERT, 2, 4, 1, 1), [1, 0, 3, 0, 3, 0, 3, 0, 1]),
             (LocalKey(3, Splitting.SPLIT, 2, 8, 4, 4),
              [1, 2, 10, 14, 55, 50, 136, 104, 217, 104, 136, 50, 55, 14, 10, 2, 1]))


@pytest.mark.parametrize("key, pinned", COLD_KEYS)
def test_cold_key_builds_each_term_list_once(key, pinned, monkeypatch):
    """Both routes of a cold key read one tuple of B-terms per distinct
    (inv, rs): b_series runs once for each, not once per block or per
    route, blocks with equal invariants share the tuple, and P is
    extracted once per tuple."""
    import qeis.siegel as siegel

    calls = {"b_series": [], "extract_P": []}

    def counting(name):
        original = getattr(siegel, name)

        def wrapped(*args):
            calls[name].append(args)
            return original(*args)
        monkeypatch.setattr(siegel, name, wrapped)

    counting("b_series")
    counting("extract_P")
    siegel.q_poly_of_invariants.cache_clear()
    q = q_poly_of_invariants(key)
    siegel.q_poly_of_invariants.cache_clear()
    built = [((v, kq), rs) for v, kq, _, _, rs in calls["b_series"]]
    calls["b_series"].clear()
    _, blocks = series_blocks(key)
    distinct = {(b.inv, b.rs) for b in blocks}
    assert len(built) == len(set(built)) and set(built) == distinct
    assert len(calls["extract_P"]) == len(distinct) == len({id(b.terms) for b in blocks})
    for a, b in itertools.combinations(blocks, 2):
        assert (a.terms is b.terms) == (a.inv == b.inv), (a.name, b.name)
    if key.k1 == key.k2 and key.case is Splitting.SPLIT:
        assert len(distinct) == key.k1 + 1 < len(blocks)
    assert q == SqrtPPoly(key.p, pinned)


def test_R_closed_form_examples():
    assert R_closed_form(0, 0, 0, 1, 3).coeffs == ()
    assert list(R_closed_form(0, 1, 1, 1, 3).coeffs) == [0, 3]
    with pytest.raises(ValidationError):
        R_closed_form(1, 3, 4, 1, 3)


def test_R_extraction_matches_closed_form():
    for m in (1, 2):
        for p in (3, 7):
            for k1 in range(0, 3):
                for k2 in (k1, k1 + 1):
                    for kp in range(0, 3):
                        k = k1 + k2 + kp
                        if k == 0:
                            continue
                        series = _c_series(k1, k2, k, m, p)
                        got = extract_R(series, k1, k2, k, m, p)
                        expect = [Fraction(c) for c in R_closed_form(k1, k2, k, m, p).coeffs]
                        expect += [Fraction(0)] * (len(got) - len(expect))
                        assert got == expect[:len(got)], (m, p, k1, k2, k)


def test_R_extraction_raises_on_a_remainder():
    """A bumped C-series fails extract_R, in the division or in the rescaling
    by p^(2m i); an intact one gives R in ints."""
    for m, p, (k1, k2, k) in ((1, 3, (1, 1, 3)), (2, 7, (1, 2, 4))):
        coeffs = list(_c_series(k1, k2, k, m, p).coeffs)
        coeffs += [0] * (k + 3 - len(coeffs))
        got = extract_R(IntPoly(coeffs), k1, k2, k, m, p)
        assert got == list(R_closed_form(k1, k2, k, m, p).coeffs)
        assert all(type(c) is int for c in got)
        for i in range(k + 2):
            bumped = list(coeffs)
            bumped[i] += 1
            with pytest.raises(InternalConsistencyError, match="not divisible"):
                extract_R(IntPoly(bumped), k1, k2, k, m, p)
        # t^i (1 - p^(2m-1) t) divides exactly, but adds p^(-2m i) to R's X^i coefficient
        for i in range(1, k + 1):
            bumped = list(coeffs)
            bumped[i] += 1
            bumped[i + 1] -= p ** (2 * m - 1)
            with pytest.raises(InternalConsistencyError, match="non-integer coefficient"):
                extract_R(IntPoly(bumped), k1, k2, k, m, p)


def test_R_literal_reading_fails():
    arb = r_arbitration(m_cap=1, k_cap=1, p=3)
    assert arb["adopted_matches_extraction"]
    assert not arb["literal_matches_extraction"]
    assert arb["literal_witness"]["k"] == [0, 1, 1]
    assert any(Fraction(c).denominator != 1 for c in arb["literal_witness"]["literal"])


# ---------------------------------------------------------------------------
# Q polynomials
# ---------------------------------------------------------------------------

def test_q_poly_forced_values():
    T = global_vector(1, 0, 1, 0)
    assert q_poly(local_quadratic_data(T, F3, 7, P2), P2) == SqrtPPoly(7, [1])
    assert q_poly(local_quadratic_data(T, F3, 5, P2), P2) == SqrtPPoly(5, [1])
    assert q_poly(local_quadratic_data(T, F3, 3, P2), P2) == SqrtPPoly(3, [1])
    # inert k = 1 forces X^2 + 1
    assert q_poly(local_quadratic_data(T, F3, 2, P2), P2) == SqrtPPoly(2, [1, 0, 1])
    # split k = 1 with k1 = k2 = 0 forces X^2 + 1 as well
    T7 = global_vector(1, 0, 3, 1)   # norm 7
    assert q_poly(local_quadratic_data(T7, F3, 7, P2), P2) == SqrtPPoly(7, [1, 0, 1])


def test_q_poly_dual_paths_agree_on_sweep():
    rng = random.Random(47)
    count = 0
    while count < 60:
        T = global_vector(rng.randint(-10, 10), rng.randint(-10, 10),
                          rng.randint(-10, 10), rng.randint(-10, 10))
        nrm = norm(T, F3)
        if nrm <= 0:
            continue
        for p in (2, 3, 5, 7):
            if vp(nrm, p) == 0:
                continue
            data = local_quadratic_data(T, F3, p, P2)
            a = q_poly_closed_form(data.key)
            b = q_poly_from_series(data.key, assemble_series(data.key))
            assert a == b, (T, p)
            assert a.is_monic() and a.degree == 2 * data.k and a.is_palindromic()
            count += 1


def test_ramified_q1_q2_closed_forms_match_their_definitions():
    """Q2 = p^-m R_T(X^2) + sum p^(r(2m-1)) X^2r, and the odd analogue for Q1.

    The printed piecewise ranges collide at boundary degrees for some shapes;
    the piecewise values must still reproduce the defining expressions.
    """
    from qeis.siegel import _q1_closed, _q2_closed

    for m in (1, 2):
        for p in (3, 5):
            for k1 in range(0, 3):
                for k2 in (k1, k1 + 1):
                    for kp in range(0, 3):
                        k = k1 + k2 + kp
                        if k > 4:
                            continue
                        pm = p ** m
                        r_t = R_closed_form(k1, k2, k, m, p)
                        q2 = _q2_closed(k1, k2, k, m, p)
                        for r in range(k + 1):
                            define = (r_t.coeffs[r] if r <= r_t.degree else 0) // pm
                            define += p ** (r * (2 * m - 1)) if r <= k1 else 0
                            assert q2[r] == define, ("Q2", m, p, k1, k2, k, r)
                        r_tw = R_closed_form(k2 - 1, k1, k - 1, m, p)
                        q1 = _q1_closed(k1, k2, k, m, p)
                        for r in range(k):
                            define = (r_tw.coeffs[r] if r <= r_tw.degree else 0) // pm
                            define += p ** (r * (2 * m - 1)) if r <= k2 - 1 else 0
                            assert q1[r] == define, ("Q1", m, p, k1, k2, k, r)


def test_q_poly_zero_marker_outside_lattice():
    data = LocalVectorData(LocalKey(5, Splitting.SPLIT, 2, 0, -1, 0),
                           coords=(Fraction(1, 5), 0, 5, 0), prec=3)
    assert q_poly(data, P2) is None


def test_q_poly_hand_supplied_higher_rank():
    """The engine accepts local data for n = 6 (rank-12 split lattice)."""
    P6 = Params(n=6, ell=8)
    eta = (1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0)  # q = 2, unit at p = 3
    sh = split_shape(3, 6)
    assert sh.quad_form(eta) == 2
    data = LocalVectorData(LocalKey(3, Splitting.SPLIT, 6, 0, 0, 0),
                           coords=eta, prec=2)
    assert q_poly(data, P6) == SqrtPPoly(3, [1])
    data5 = LocalVectorData(LocalKey(5, Splitting.SPLIT, 6, 1, 0, 0),
                            coords=(1, 0, 0, 0, 0, 0, 5, 1, 0, 0, 0, 0), prec=3)
    q = q_poly(data5, P6)
    assert q.degree == 2 and q.is_palindromic()


def test_q_poly_rejects_declared_invariants_the_coordinates_lack():
    """A wrong k1 would make the invariant cache serve another key's Q."""
    P6 = Params(n=6, ell=8)
    coords = (1, 0, 0, 0, 0, 0, 5, 1, 0, 0, 0, 0)   # k = 1, k1 = k2 = 0 at p = 5
    data = LocalVectorData(LocalKey(5, Splitting.SPLIT, 6, 1, 1, 0),
                           coords=coords, prec=3)
    with pytest.raises(ValidationError, match="k1"):
        q_poly(data, P6)
    # coordinates of the wrong rank for n
    data = LocalVectorData(LocalKey(5, Splitting.SPLIT, 6, 1, 0, 0),
                           coords=(1, 0, 5, 1), prec=3)
    with pytest.raises(ValidationError):
        q_poly(data, P6)


def test_q_poly_reads_its_outcomes_in_order():
    """n mismatch, then None outside the lattice, then the coordinate count,
    then the key; a float coordinate of integral value reads as its int."""
    key = LocalKey(5, Splitting.SPLIT, 2, 1, 0, 0)
    with pytest.raises(ValidationError, match="P declares n = 2"):
        q_poly(LocalVectorData(key._replace(n=6), coords=(Fraction(1, 5),)), P2)
    assert q_poly(LocalVectorData(key, coords=(Fraction(1, 5),)), P2) is None
    assert q_poly(LocalVectorData(key._replace(k1=-1), coords=(1,)), P2) is None
    with pytest.raises(ValidationError, match="has 1 coordinates"):
        q_poly(LocalVectorData(key, coords=(1,)), P2)
    with pytest.raises(ValidationError, match="carry"):
        q_poly(LocalVectorData(key._replace(k=2), coords=(1, 0, 5, 1)), P2)
    assert q_poly(LocalVectorData(key, coords=(1.0, 0, 5.0, 1.0)), P2) == \
        q_poly(LocalVectorData(key, coords=(1, 0, 5, 1)), P2) == SqrtPPoly(5, [1, 0, 1])


@pytest.mark.parametrize("c, integral", [(3, True), (True, True), (Fraction(4, 2), True),
                                         (2.0, True), (Fraction(1, 2), False), (2.5, False)])
def test_q_poly_integrality_test_reads_every_coordinate_type(c, integral):
    """An int coordinate skips the Fraction of the integrality test; a bool,
    an integral Fraction and an integral float pass it as their int, and a
    non-integral Fraction or float gives the zero marker."""
    key = LocalKey(5, Splitting.SPLIT, 2, 0, 0, 0)  # q = c + 1 is a unit at 5
    got = q_poly(LocalVectorData(key, coords=(1, 1, c, 1)), P2)
    assert got == (SqrtPPoly(5, [1]) if integral else None)


def test_keys_are_read_from_the_key_not_through_local_data_fields(monkeypatch, capsys):
    """q_poly, the oracle check and `qeis local` read data.key, never a
    LocalKey field that LocalVectorData forwards to it."""
    from qeis import cli
    from qeis.verify import suite_functional

    forward = LocalVectorData.__getattr__

    def refuse(self, name):
        if name in LocalKey._fields:
            raise AssertionError(f"LocalVectorData.{name} read through __getattr__")
        return forward(self, name)

    monkeypatch.setattr(LocalVectorData, "__getattr__", refuse)
    assert cli.main(["local", "--D", "3", "--p", "3", "--T=-3,0,3,3", "--oracle"]) == 0
    assert json.loads(capsys.readouterr().out)["oracle"] == {"verdict": "agree"}
    rep = suite_functional(Ds=[3], norm_cap=4, coord_cap=8)
    assert rep["ok"] and rep["checks"] == 396


def test_q_poly_rejects_a_declared_n_that_differs_from_the_data():
    """The rank is data.n; an n = 6 key must not be served as n = 2."""
    data = LocalVectorData(LocalKey(5, Splitting.SPLIT, 6, 2, 1, 0),
                           coords=(5, 0, 5, 1), prec=4)
    with pytest.raises(ValidationError, match="n = 6"):
        q_poly(data, P2)
    split = Splitting.SPLIT
    assert q_poly_of_invariants(LocalKey(5, split, 6, 2, 1, 0)) == SqrtPPoly(5, [1, 25, 1, 25, 1])
    assert q_poly_of_invariants(LocalKey(5, split, 2, 2, 1, 0)) == SqrtPPoly(5, [1, 1, 1, 1, 1])


def test_q_poly_consistency_error_names_the_key_and_is_not_cached(monkeypatch):
    import qeis.siegel as siegel

    siegel.q_poly_of_invariants.cache_clear()
    monkeypatch.setattr(siegel, "q_poly_closed_form",
                        lambda data, blocks=None: SqrtPPoly(data.p, [1, 1, 1]))
    data = local_quadratic_data(global_vector(1, 0, 3, 1), F3, 7, P2)  # norm 7, split
    for _ in range(2):
        with pytest.raises(InternalConsistencyError) as err:
            q_poly(data, P2)
        assert "(p, case, n, k, k1, k2) = (7, split, 2, 1, 0, 0)" in str(err.value)
    assert siegel.q_poly_of_invariants.cache_info().currsize == 0


def test_q_poly_key_is_sufficient():
    """Q from T's own local data equals the Q cached for T's invariant key.

    2,800 (T, p) pairs over 50 keys, including split p = 2 (D = 7), inert
    p = 2 (D = 3) and ramified p = 3, 7, 11.
    """
    from qeis.arith import prime_factors
    from qeis.fourier import vectors_in_region

    seen = set()
    for D in (3, 7, 11, 19):
        F = FieldE(D)
        for T in vectors_in_region(F, 16, 1, 12):
            for p in prime_factors(norm(T, F)):
                data = local_quadratic_data(T, F, p, P2)
                assert q_poly_closed_form(data.key) == q_poly(data, P2), (D, T, p)
                seen.add((p, data.case))
    assert {(2, Splitting.SPLIT), (2, Splitting.INERT), (3, Splitting.RAMIFIED),
            (7, Splitting.RAMIFIED), (11, Splitting.RAMIFIED)} <= seen


def test_q_poly_hand_supplied_higher_rank_ramified():
    """Ramified local data for n = 6 (rank-12 normal form, m = 3)."""
    P6 = Params(n=6, ell=8)
    # unit norm: q = x1 y1 = 1
    coords = (1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0)
    sh = ramified_shape(3, 3)
    assert sh.quad_form(coords) == 1
    data = LocalVectorData(LocalKey(3, Splitting.RAMIFIED, 6, 0, 0, 0),
                           coords=coords, prec=2)
    assert q_poly(data, P6) == SqrtPPoly(3, [1])
    # k = 1 with k1 = k2 = 0
    coords = (1, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0)
    k1, k2, k = sh.invariants(coords)
    assert (k1, k2, k) == (0, 0, 1)
    data = LocalVectorData(LocalKey(3, Splitting.RAMIFIED, 6, 1, 0, 0),
                           coords=coords, prec=3)
    q = q_poly(data, P6)
    assert q.degree == 2 and q.is_monic() and q.is_palindromic()
    # deeper shape, k = 3 with k2 = k1 + 1
    key = LocalKey(3, Splitting.RAMIFIED, 6, 3, 1, 1)
    q = q_poly_closed_form(key)
    assert q.degree == 6 and q.is_monic() and q.is_palindromic()
    assert q == q_poly_from_series(key, assemble_series(key))


def _admissible(p, case, k, k1, k2):
    """The admissible set of keys, restated: split k1 + k2 <= k; inert
    k1 = k2 with 2 k1 <= k; ramified p odd, k2 in {k1, k1 + 1}, k1 + k2 <= k."""
    if case is Splitting.SPLIT:
        return k1 + k2 <= k
    if case is Splitting.INERT:
        return k1 == k2 and 2 * k1 <= k
    return p % 2 == 1 and k2 in (k1, k1 + 1) and k1 + k2 <= k


def _key_text(p, case, n, k, k1, k2):
    return f"(p, case, n, k, k1, k2) = ({p}, {case}, {n}, {k}, {k1}, {k2})"


def test_every_admissible_key_builds_and_every_other_key_is_refused():
    """Every admissible key with p in {2, 3, 5, 7}, n in {2, 6, 10} and
    k <= 6 builds a Q of degree 2k through q_poly_of_invariants, which
    cross-checks both routes and asserts the functional equations of Q and
    of every P (4,224 split and inert blocks) or R_T and R_{T/varpi} (252
    ramified keys); every other (case, k1, k2) with 0 <= k1, k2 <= k
    raises ValidationError naming the key."""
    import qeis.siegel as siegel

    siegel.q_poly_of_invariants.cache_clear()
    built = refused = 0
    for p, n, case, k in itertools.product((2, 3, 5, 7), (2, 6, 10), Splitting, range(7)):
        for k1, k2 in itertools.product(range(k + 1), repeat=2):
            key = LocalKey(p, case, n, k, k1, k2)
            if _admissible(p, case, k, k1, k2):
                q = q_poly_of_invariants(key)
                assert q.p == p and q.degree == 2 * k, key
                built += 1
            else:
                with pytest.raises(ValidationError) as err:
                    q_poly_of_invariants(key)
                assert _key_text(p, case.value, n, k, k1, k2) in str(err.value)
                refused += 1
    assert built == 1452 and built + refused == 4 * 3 * 3 * sum((k + 1) ** 2 for k in range(7))
    # keys no T has: isotropic, a rank not 2 mod 4, a negative valuation, a composite p
    for fields in ((3, Splitting.SPLIT, 2, math.inf, 0, 0), (3, Splitting.SPLIT, 4, 1, 0, 0),
                   (3, Splitting.INERT, 2, 1, -1, -1), (9, Splitting.SPLIT, 2, 1, 0, 0)):
        with pytest.raises(ValidationError) as err:
            q_poly_of_invariants(LocalKey(*fields))
        p, case, *rest = fields
        assert _key_text(p, case.value, *rest) in str(err.value)
    siegel.q_poly_of_invariants.cache_clear()


# SHA-256 of the Q of every admissible key below, as the term-by-term build gave it
ADMISSIBLE_Q_DIGEST = "08fe2ed5c160601ded320c35aa9843d0b01323e2932132bdf930a500017b9239"


def test_q_of_every_admissible_key_matches_its_pinned_digest():
    """The Q of the 1,452 admissible keys of
    test_every_admissible_key_builds_and_every_other_key_is_refused, in
    that test's order, written as [[p, case, n, k, k1, k2, d], ...] with
    json.dumps, hash to the pinned digest."""
    import qeis.siegel as siegel

    siegel.q_poly_of_invariants.cache_clear()
    rows = []
    for p, n, case, k in itertools.product((2, 3, 5, 7), (2, 6, 10), Splitting, range(7)):
        for k1, k2 in itertools.product(range(k + 1), repeat=2):
            if _admissible(p, case, k, k1, k2):
                q = q_poly_of_invariants(LocalKey(p, case, n, k, k1, k2))
                rows.append([p, case.value, n, k, k1, k2, list(q.d)])
    siegel.q_poly_of_invariants.cache_clear()
    assert len(rows) == 1452
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == ADMISSIBLE_Q_DIGEST


# the deep keys: split (p, 2j, j, j) for j <= 20, the split k = 40 key of
# test_deep_split_key_both_routes_agree, inert (p, 2j, j, j) for j <= 10,
# ramified (k1, k2, k) = (j, j, 2j) and (j, j + 1, 2j + 1) for j <= 10, and
# n = 6 split (p, 2j, j, j) for j <= 8
DEEP_KEYS = (
    [LocalKey(p, Splitting.SPLIT, 2, 2 * j, j, j) for p in (2, 3, 5, 7, 11, 13) for j in range(21)]
    + [LocalKey(13, Splitting.SPLIT, 2, 40, 13, 7)]
    + [LocalKey(p, Splitting.INERT, 2, 2 * j, j, j) for p in (2, 3, 5) for j in range(11)]
    + [LocalKey(p, Splitting.RAMIFIED, 2, k, k1, k2) for p in (3, 7, 11) for j in range(11)
       for k1, k2, k in ((j, j, 2 * j), (j, j + 1, 2 * j + 1))]
    + [LocalKey(p, Splitting.SPLIT, 6, 2 * j, j, j) for p in (2, 3) for j in range(9)])
# SHA-256 of the deep keys' Q and lift coefficients, as the per-term p ** e build gave them
DEEP_KEYS_DIGEST = "a5b9ad50b2ebe4ac062a389674c526c53a9269d3da7552005c13d7542ffb2254"


def test_q_and_lift_of_the_deep_keys_match_their_pinned_digest():
    """The 244 deep keys, written as [[str(key), d, c], ...] with json.dumps,
    d the key's Q and c its lift_local_exact at weight 12, hash to the
    pinned digest: the admissible-key pin stops at k = 6."""
    import qeis.siegel as siegel

    assert len(DEEP_KEYS) == 244
    siegel.q_poly_of_invariants.cache_clear()
    rows = []
    for key in DEEP_KEYS:
        q = q_poly_of_invariants(key)
        rows.append([str(key), list(q.d), lift_local_exact(q, 12)])
    siegel.q_poly_of_invariants.cache_clear()
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == DEEP_KEYS_DIGEST


def test_power_table_holds_every_requested_power_of_p():
    """A request is served from the prime's table, grown when it falls
    short: after a smaller and after a larger request, and after a k = 40
    build has grown it, every entry is p ** e."""
    import qeis.siegel as siegel

    p = 10 ** 12 + 39  # a prime no other test builds a table for
    for top in (5, 2, 40, 17):
        table = power_table(p, top)
        assert len(table) > top and all(table[e] == p ** e for e in range(top + 1))
    assert power_table(p, 40) is power_table(p, 3)  # a table that reaches top is not rebuilt
    siegel.q_poly_of_invariants.cache_clear()
    q_poly_of_invariants(LocalKey(13, Splitting.SPLIT, 2, 40, 13, 7))
    siegel.q_poly_of_invariants.cache_clear()
    table = siegel._POWER_TABLES[13]
    assert len(table) > 2 * 2 * 41  # the k = 40 B-series read up to p^(2mR), R = 41
    assert all(c == 13 ** e for e, c in enumerate(table))


def _t_block_series(key, series, m, p):
    return p == key.p and series.coeffs == IntPoly(series_blocks(key)[1][0].terms).coeffs


def _r_t_invariants(key, k1, k2, k, m, p):
    return (p, k1, k2, k) == (key.p, key.k1, key.k2, key.k)


def _r_t_over_varpi_invariants(key, k1, k2, k, m, p):
    return (p, k1, k2, k) == (key.p, key.k2 - 1, key.k1, key.k - 1)


@pytest.mark.parametrize("target, hit, fields, name", [
    ("extract_P", _t_block_series, (5, Splitting.INERT, 2, 2, 1, 1), "P_T"),
    ("R_closed_form", _r_t_invariants, (3, Splitting.RAMIFIED, 2, 3, 1, 2), "R_T"),
    ("R_closed_form", _r_t_over_varpi_invariants, (7, Splitting.RAMIFIED, 2, 1, 0, 1),
     "R_T/varpi"),
], ids=["P_T", "R_T", "R_T_over_varpi"])
def test_a_broken_P_or_R_functional_equation_names_its_key(target, hit, fields, name,
                                                           monkeypatch, capsys):
    """The functional equations of P and R are asserted where Q is built,
    once per key: a P or R made non-palindromic (plus 1) where ``hit`` says
    makes q_poly_of_invariants raise, and ends verify --suite functional
    with exit 3, naming the key and the polynomial.  Each key occurs in
    that suite's sweep, and no other key of the sweep reads the broken
    polynomial."""
    import qeis.siegel as siegel
    from qeis import cli

    key = LocalKey(*fields)
    fn = getattr(siegel, target)

    def broken(*args):
        poly = fn(*args)
        if not hit(key, *args):
            return poly
        coeffs = list(poly.coeffs) or [0]
        coeffs[0] += 1
        return IntPoly(coeffs)

    monkeypatch.setattr(siegel, target, broken)
    siegel.q_poly_of_invariants.cache_clear()
    try:
        message = f"{name} fails its functional equation at degree"
        with pytest.raises(InternalConsistencyError, match=message) as err:
            q_poly_of_invariants(key)
        assert str(key) in str(err.value)
        assert cli.main(["verify", "--suite", "functional"]) == 3
        stderr = capsys.readouterr().err
        assert message in stderr and str(key) in stderr
    finally:
        siegel.q_poly_of_invariants.cache_clear()


def test_ramified_invariants_of_synthetic_vectors():
    sh = ramified_shape(3, 1)
    assert sh.invariants((1, 0, 1, 0)) == (0, 0, 0)
    assert sh.invariants((3, 1, 3, 0)) == (0, 1, 2)
    assert sh.invariants((3, 1, 3, 1)) == (0, 1, 1)
    assert sh.invariants((0, Fraction(1, 3), 1, 0))[0] == -1


def _ramified_invariants_reference(eta, sh):
    """(k1, k2, k) read with every coordinate and q(eta) as a Fraction."""
    def v(x):
        return math.inf if x == 0 else vp(x.numerator, sh.p) - vp(x.denominator, sh.p)

    eta = [Fraction(c) for c in eta]
    m, half = sh.m, sh.rank // 2
    v1 = min(v(c) for c in eta[:m] + eta[half:half + m])
    v2 = min(v(c) for c in eta[m:half] + eta[half + m:])
    return min(v1, v2), min(v1, v2 + 1), v(sh.quad_form(eta))


def test_ramified_invariants_int_path_matches_fraction_path():
    """Int coordinates and Fraction coordinates, dual vectors included, agree."""
    duals = 0
    for p in (3, 5, 7):
        for m in (1, 2):
            sh = ramified_shape(p, m)
            for vec in sample_ramified_vectors(p, m, 40, k_cap=4, seed=p + m):
                expected = _ramified_invariants_reference(vec, sh)
                assert sh.invariants(vec) == expected, vec
                if all(c.denominator == 1 for c in vec):
                    assert sh.invariants([int(c) for c in vec]) == expected, vec
                else:
                    duals += 1
    assert duals > 0
