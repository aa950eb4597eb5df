"""Assembly of the full Fourier expansion at g_f = 1.

Rank-1 coefficients are C_l * sigma_{E,l}(T) with
C_l = (-1)^l 2^(2l+1) / (l!)^2; rank-2 coefficients are
D_{n,l} * prod_{p | <T,T>} Q_{T,p}(p^(l-(n-1)/2)) with

    D_{n,l} = 2^(2n+2) (2l-n+2) D^(l+1-n/2)
              / ((l!)^2 |B_{2l-n+2}| sigma_{l+1-n/2}(D)),

and the constant term is the section value zeta_E(l+1)/pi^(2l+1) itself.
Isotropic vectors form an infinite family, so an expansion table only ever
covers a declared coordinate region; completeness within the region and
determinism of the listing are the contracts.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np
from scipy.special import zeta

from .arith import (Splitting, bernoulli, geometric_sum, kronecker_symbol,
                    prime_factors, sigma_k, sqrtp_eval_halfint, vp)
from .errors import InternalConsistencyError, ResourceBudgetError, ValidationError
from .hermitian import (FieldE, GlobalVector, LocalKey, Params, QuadInt,
                        coordinate_reading, global_vector, key_of_readings, local_key,
                        norm)
from .siegel import q_poly_of_invariants
from .archimedean import WhittakerEval, whittaker_at

REGION_SCALE = 2  # coordinate box: N(a), N(b) <= REGION_SCALE * (bound + 1)
MAX_TABLE_VECTORS = 200000  # a table over more vectors raises ResourceBudgetError
MAX_ZETA_E_D = 10 ** 6  # zeta_E sums D - 1 Hurwitz zeta values; a larger D raises ResourceBudgetError


# ---------------------------------------------------------------------------
# Rank-1: the ideal divisor sum
# ---------------------------------------------------------------------------

def sigma_E(keys: tuple, ell: int) -> int:
    """prod over prime ideals of sum_{i=0}^{v_P(T)} q^(i l), q the residue size.

    ``keys`` holds the :class:`~qeis.hermitian.LocalKey` of T at each p
    dividing the content gcd(N(a), N(b)) of T (:func:`content_keys`), whose
    (k1, k2) give the factor: split Sum_{i<=k1} p^(il) * Sum_{i<=k2} p^(il), inert
    Sum_{i<=k1} p^(2il), ramified Sum_{i<=k1+k2} p^(il).
    """
    total = 1
    for p, case, _, _, k1, k2 in keys:
        if case is Splitting.SPLIT:
            total *= geometric_sum(p ** ell, k1 + 1) * geometric_sum(p ** ell, k2 + 1)
        elif case is Splitting.INERT:
            total *= geometric_sum(p ** (2 * ell), k1 + 1)
        else:
            total *= geometric_sum(p ** ell, k1 + k2 + 1)
    return total


def c_ell(ell: int) -> Fraction:
    return Fraction((-1) ** ell * 2 ** (2 * ell + 1), math.factorial(ell) ** 2)


def _denominator_multiplier(P: Params, F: FieldE) -> Fraction:
    """(l!)^2 |B_{2l-n+2}| sigma_{l+1-n/2}(D), the denominator of D_{n,l};
    sigma reads D's prime factors off the field."""
    return (Fraction(math.factorial(P.ell) ** 2) * abs(bernoulli(2 * P.ell - P.n + 2))
            * sigma_k(F.D, P.ell + 1 - P.n // 2, F.primes))


@lru_cache
def d_nl(P: Params, F: FieldE) -> Fraction:
    """The rank-2 normalizing constant D_{n,l}, computed once per (P, F)."""
    n, ell = P.n, P.ell
    num = Fraction(2 ** (2 * n + 2) * (2 * ell - n + 2) * F.D ** (ell + 1 - n // 2))
    return num / _denominator_multiplier(P, F)


# ---------------------------------------------------------------------------
# Fourier coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierCoefficient:
    T: GlobalVector
    rank: int
    rational: Fraction
    norm: int  # <T, T>
    sigma: int | None = None
    local_q: Mapping = field(default_factory=dict)  # {p: Q_{T,p}}, read-only when built here
    whittaker: WhittakerEval | None = None


def content_keys(T: GlobalVector, F: FieldE, nrm: int) -> tuple:
    """The :class:`~qeis.hermitian.LocalKey` of T at each prime of
    g = gcd(N(a), N(b), nrm), nrm = <T, T>, by :func:`~qeis.hermitian.local_key`:
    at every prime of the content when nrm = 0, and none for most T, whose
    content is 1.  A table reads the same keys from its disc points
    (:func:`full_expansion`).

    These keys and nrm determine T's key at every prime of nrm
    (:func:`norm_keys`), and no key here is a unit key: a T with (k1, k2) =
    (0, 0) at a split p | gcd(N(a), N(b)) has <T, T> prime to p.  So
    (nrm, content keys) is the invariant a coefficient is cached on.
    """
    g = math.gcd(T.a.norm(F), T.b.norm(F), nrm)
    return tuple(local_key(T, F, p, nrm) for p in prime_factors(g)) if g > 1 else ()


def norm_keys(F: FieldE, nrm: int, content: tuple) -> tuple:
    """The key at each prime of nrm != 0 of every T with <T, T> = nrm and
    these :func:`content_keys`.

    At a p of nrm that misses the content, some coordinate of T is a unit at
    every prime above p, so the key there is (p, case, 2, v_p(nrm), 0, 0).
    """
    held = {key.p: key for key in content}
    return tuple(held.get(p) or LocalKey(p, F.splitting(p), 2, vp(nrm, p), 0, 0)
                 for p in prime_factors(nrm))


def local_polynomials(T: GlobalVector, P: Params, F: FieldE, nrm: int) -> dict:
    """{p: Q_{T,p}} over the primes p dividing nrm = <T, T> != 0.

    The keys come from :func:`norm_keys`; no coordinates are built.  The
    global model has n = 2 only, so other n raise ValidationError.  A failed
    consistency check of a Q build, which names the key, and a number past
    the factoring budget, which names the number, are re-raised naming T.
    """
    if P.n != 2:
        raise ValidationError("the built-in global model has n = 2")
    try:
        return {key.p: q_poly_of_invariants(key)
                for key in norm_keys(F, nrm, content_keys(T, F, nrm))}
    except (InternalConsistencyError, ResourceBudgetError) as exc:
        raise type(exc)(f"T = {T.as_list()}, {exc}") from exc


@lru_cache(maxsize=4096)
def coefficient_of_invariants(P: Params, F: FieldE, nrm: int, content: tuple) -> tuple:
    """(rank, rational, sigma, {p: Q_{T,p}}) of every T with <T, T> = nrm and
    these :func:`content_keys`.

    A coefficient reads T only through nrm and its content keys: Q_{T,p}
    depends on the local Jordan type alone, which :func:`norm_keys` reads
    off them, and sigma_E on the content ideal.  So it is built once per
    invariant, and every coefficient of the invariant holds these same
    objects; the {p: Q_{T,p}} mapping is read-only, one per invariant.
    Negative norm: zero.  Norm 0: C_l * sigma_{E,l}(T).  Positive norm:
    D_{n,l} * prod_p Q_{T,p}(p^(l-(n-1)/2)).
    """
    if nrm < 0:
        return 2, Fraction(0), None, MappingProxyType({})
    if nrm == 0:
        sigma = sigma_E(content, P.ell)
        return 1, c_ell(P.ell) * sigma, sigma, MappingProxyType({})
    local = {key.p: q_poly_of_invariants(key) for key in norm_keys(F, nrm, content)}
    prod = 1
    for q in local.values():
        prod *= sqrtp_eval_halfint(q, 2 * P.ell - P.n + 1)
    return 2, d_nl(P, F) * prod, None, MappingProxyType(local)


def coefficient(T: GlobalVector, P: Params, F: FieldE,
                with_whittaker: bool = False) -> FourierCoefficient:
    """The Fourier coefficient of T, by the sign of <T, T>.

    <T, T> is computed once, T's keys are read at the primes of
    gcd(N(a), N(b), <T, T>) (:func:`content_keys`, none when <T, T> is
    negative), and the value comes from :func:`coefficient_of_invariants`, whose
    objects the coefficient shares rather than copies.  The global
    model has n = 2 only, so other n raise ValidationError for every T,
    isotropic and negative-norm ones included.  A failed consistency check of
    a Q build, which names the key, and a number past the factoring budget,
    which names the number, are re-raised naming T.
    """
    if P.n != 2:
        raise ValidationError("the built-in global model has n = 2")
    if not T:
        raise ValidationError("rank-1 coefficients need <T, T> = 0, T != 0")
    nrm = norm(T, F)
    try:
        content = () if nrm < 0 else content_keys(T, F, nrm)
        rank, rational, sigma, local = coefficient_of_invariants(P, F, nrm, content)
    except (InternalConsistencyError, ResourceBudgetError) as exc:
        raise type(exc)(f"T = {T.as_list()}, {exc}") from exc
    w = whittaker_at(T, P.ell, F) if with_whittaker else None
    return FourierCoefficient(T=T, rank=rank, rational=rational, norm=nrm, sigma=sigma,
                              local_q=local, whittaker=w)


# ---------------------------------------------------------------------------
# Constant term
# ---------------------------------------------------------------------------

def _zeta_E(s: int, D: int) -> float:
    """zeta_E(s) = zeta(s) L(s, chi_{-D}), s >= 2, by Hurwitz zeta values.

    L(s, chi_{-D}) = D^-s Sum_{a=1}^{D-1} chi_{-D}(a) zeta(s, a/D); scipy's
    zeta and Hurwitz zeta keep the product within a few ulps (relative error
    below 1e-14 for D < 400 and s <= 15).  D^s past the largest double
    raises ValidationError: the Hurwitz values would overflow with it.  The
    D - 1 Hurwitz values come from one array call, and math.fsum rounds the
    sum exactly, so the order of its terms cannot change a bit; the sum still
    reads D - 1 values and Kronecker symbols, so D > MAX_ZETA_E_D raises
    ResourceBudgetError naming D.
    """
    if D ** s > sys.float_info.max:
        raise ValidationError(f"zeta_E({s}) at D = {D} leaves the binary64 range "
                              f"(D^s > 1.8e308); lower ell")
    if D > MAX_ZETA_E_D:
        raise ResourceBudgetError(f"zeta_E at D = {D} needs D - 1 Hurwitz zeta values, "
                                  f"more than the budget allows (D <= {MAX_ZETA_E_D})")
    hurwitz = zeta(s, np.arange(1, D) / D).tolist()  # zeta(s, a/D), a = 1..D-1
    chi_sum = math.fsum(kronecker_symbol(-D, a) * h for a, h in enumerate(hurwitz, 1))
    return float(zeta(s)) * chi_sum / D ** s


@dataclass(frozen=True)
class ConstantTerm:
    rational: Fraction
    symbolic: str
    zeta_E: float
    numeric: float


def constant_term(P: Params, F: FieldE) -> ConstantTerm:
    """The section value: rational multiplier 1 times zeta_E(l+1)/pi^(2l+1).

    zeta_E(s) = zeta(s) L(s, chi_{-D}) comes from Hurwitz zeta values; the
    competing degenerate orbit contributions vanish identically at s = l+1.
    """
    zeta_e = _zeta_E(P.ell + 1, F.D)
    return ConstantTerm(rational=Fraction(1),
                        symbolic="zetaE(l+1)/pi^(2l+1)",
                        zeta_E=zeta_e,
                        numeric=zeta_e / math.pi ** (2 * P.ell + 1))


# ---------------------------------------------------------------------------
# Expansion tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionTable:
    """A table as rows (ax, ay, bx, by, <T, T>, value): the ints of
    T = (ax + ay omega) c1 + (bx + by omega) c2 and its norm, over shared values.

    ``value`` is the (rank, rational, sigma, {p: Q_{T,p}}) tuple of
    :func:`coefficient_of_invariants`, one object per invariant, which every
    row of the invariant holds; rows are in (norm, coordinates) order.  A row
    holds no :class:`~qeis.hermitian.GlobalVector`: :attr:`entries` builds one
    per row on read.
    """

    F: FieldE
    params: Params
    bound: int
    region_norm_cap: int
    constant: ConstantTerm
    rows: tuple

    @property
    def entries(self) -> tuple:
        """The rows as :class:`FourierCoefficient`s, in row order, built on
        each read: the objects :func:`coefficient` gives for the same T."""
        return tuple(FourierCoefficient(global_vector(ax, ay, bx, by), rank, rational, nrm,
                                        sigma, local_q)
                     for ax, ay, bx, by, nrm, (rank, rational, sigma, local_q) in self.rows)


def _region_rows(F: FieldE, cap: int, lo: int, hi: int, limit: int | None) -> tuple:
    """The body of :func:`vectors_in_region`: its vectors as sorted rows
    (<T, T>, ax, ay, bx, by), and {z: N(z)} over the disc points."""
    over = ResourceBudgetError(f"the region holds more than {limit} vectors, "
                               "which exceed the table budget")
    disc_limit = limit // 2 + 1 if limit is not None and lo <= 0 <= hi else None
    xmax = math.isqrt(max(cap * (1 + F.D) // F.D, 0)) + 1  # N(x + y omega) >= x^2 D/(1+D)
    ymax = math.isqrt(max(4 * cap // F.D, 0)) + 1  # N(x + y omega) >= y^2 D/4
    c = F.omega_norm
    disc = {}  # disc point -> its norm
    for x in range(-xmax, xmax + 1):
        for y in range(-ymax, ymax + 1):
            if (n := x * x + x * y + c * y * y) <= cap:
                disc[x, y] = n
        if disc_limit is not None and len(disc) > disc_limit:
            raise over
    nonzero = [z for z in disc if z != (0, 0)]
    found = []
    for ax, ay in disc:
        # <T, T> = Tr(a conj(b)) is the linear form u b_x + v b_y in b, and
        # u = v = 0 only at a = 0, where b = 0 would give the zero vector
        u, v = 2 * ax + ay, ax + 2 * c * ay
        found.extend((m, ax, ay, bx, by) for bx, by in (disc if u or v else nonzero)
                     if lo <= (m := u * bx + v * by) <= hi)
        if limit is not None and len(found) > limit:
            raise over
    found.sort()
    return found, disc


def vectors_in_region(F: FieldE, cap: int, lo: int, hi: int,
                      limit: int | None = None) -> list:
    """Nonzero T with N(a), N(b) <= cap and lo <= <T, T> <= hi, by (norm, coordinates).

    With ``limit`` given, more than ``limit`` such T raise ResourceBudgetError
    as soon as the count passes it (checked once per a), not after the whole
    region is enumerated.  When lo <= 0 <= hi every disc point z gives the
    norm-0 vectors (z, 0) and (0, z), so a disc of more than limit // 2 + 1
    points raises while it is built (checked once per x).
    """
    found, disc = _region_rows(F, cap, lo, hi, limit)
    points = {z: QuadInt(*z) for z in disc}  # one QuadInt per disc point, shared by its vectors
    return [GlobalVector(points[ax, ay], points[bx, by]) for _, ax, ay, bx, by in found]


def _disc_classes(F: FieldE, disc: dict) -> tuple:
    """({disc point: class}, [readings of each class]) over the disc points
    {z: N(z)} of a table.

    A nonzero z's readings are {p: (p's splitting class, the
    :func:`~qeis.hermitian.coordinate_reading` of z at p)} over the primes of
    N(z), in increasing p; points with equal readings share one class, a
    small int.  The zero point's class is 0, whose readings are None: N(0) = 0
    is divisible by every p.
    """
    classes = {}
    interned = {None: 0}  # the readings' items -> class
    readings = [None]
    for z, nz in disc.items():
        got = items = None
        if nz:
            q = QuadInt(*z)
            got = {}
            for p in prime_factors(nz):
                case = F.splitting(p)
                got[p] = case, coordinate_reading(q, nz, p, case)
            items = tuple(got.items())
        if (cls := interned.get(items)) is None:
            cls = interned[items] = len(readings)
            readings.append(got)
        classes[z] = cls
    return classes, readings


def _content_of_classes(m: int, ra: dict | None, rb: dict | None) -> tuple:
    """The :func:`content_keys` of a T of norm m whose coordinates have the
    readings ra and rb of :func:`_disc_classes`.

    The primes of gcd(N(a), N(b), m) are those of m held by both readings (by
    every p for the zero point), and the key at each is
    :func:`~qeis.hermitian.key_of_readings` of the nonzero coordinates'
    readings there.
    """
    if ra is None:
        ra, rb = rb, ra
    keys = []
    for p, (case, r) in ra.items():
        if m % p == 0:
            if rb is None:
                keys.append(key_of_readings(p, case, m, [r]))
            elif p in rb:
                keys.append(key_of_readings(p, case, m, [r, rb[p][1]]))
    return tuple(keys)


def full_expansion(P: Params, F: FieldE, bound: int) -> ExpansionTable:
    """Expansion table over the coordinate region N(a), N(b) <= 2 (bound+1).

    Keeps every enumerated T with 0 <= <T,T> <= bound; the isotropic family
    is infinite, so the table is complete only within the declared region.
    Rows are sorted by (norm, coordinates) and built serially; a region of
    more than MAX_TABLE_VECTORS vectors raises ResourceBudgetError.  A row
    takes <T, T> from the enumeration and its content keys from the classes
    of its two disc points (:func:`_disc_classes`), each point read once per
    prime of its norm in the build.  The content keys are a function of
    (<T, T>, class of a, class of b), so the build derives them once per such
    triple (:func:`_content_of_classes`), and each (<T, T>, content keys)
    reaches :func:`coefficient_of_invariants` once, its value then held by
    every row of the invariant.  A failed consistency check of a Q build,
    which names the key, is re-raised naming T, as :func:`coefficient` does.
    """
    if P.n != 2:
        raise ValidationError("expansion tables exist only for the n = 2 model")
    if bound < 0:
        raise ValidationError("bound must be >= 0")
    cap = REGION_SCALE * (bound + 1)
    found, disc = _region_rows(F, cap, 0, bound, MAX_TABLE_VECTORS)
    classes, readings = _disc_classes(F, disc)
    by_classes = {}  # (<T, T>, class of a, class of b) -> value
    values = {}  # (<T, T>, content keys) -> coefficient_of_invariants
    rows = []
    for m, ax, ay, bx, by in found:
        ca, cb = classes[ax, ay], classes[bx, by]
        if (value := by_classes.get((m, ca, cb))) is None:
            content = _content_of_classes(m, readings[ca], readings[cb])
            if (value := values.get((m, content))) is None:
                try:
                    value = values[m, content] = coefficient_of_invariants(P, F, m, content)
                except InternalConsistencyError as exc:
                    raise InternalConsistencyError(
                        f"T = {[[ax, ay], [bx, by]]}, {exc}") from exc
            by_classes[m, ca, cb] = value
        rows.append((ax, ay, bx, by, m, value))
    return ExpansionTable(F=F, params=P, bound=bound, region_norm_cap=cap,
                          constant=constant_term(P, F), rows=tuple(rows))


def denominator_bound_check(table: ExpansionTable):
    """Every rank-2 rational times (l!)^2 |B_{2l-n+2}| sigma_{l+1-n/2}(D) is integral.

    Reads the table's rows.  Returns (True, None) or (False, the offending
    row's coefficient).
    """
    mult = _denominator_multiplier(table.params, table.F)
    for ax, ay, bx, by, nrm, (rank, rational, sigma, local_q) in table.rows:
        if rank == 2 and (rational * mult).denominator != 1:
            return False, FourierCoefficient(global_vector(ax, ay, bx, by), rank, rational,
                                             nrm, sigma, local_q)
    return True, None
