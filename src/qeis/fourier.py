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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from scipy.special import zeta

from .arith import (Splitting, bernoulli, kronecker_symbol, prime_factors,
                    sigma_k, sqrtp_eval_halfint, vp)
from .errors import InternalConsistencyError, ResourceBudgetError, ValidationError
from .hermitian import FieldE, GlobalVector, Params, QuadInt, local_key, norm
from .siegel import q_poly_of_invariants
from .archimedean import WhittakerEval, whittaker_at

REGION_SCALE = 2  # coordinate box: N(a), N(b) <= REGION_SCALE * (bound + 1)
MAX_TABLE_VECTORS = 200000  # a table over more vectors raises ResourceBudgetError


# ---------------------------------------------------------------------------
# Rank-1: the ideal divisor sum
# ---------------------------------------------------------------------------

def sigma_E(T: GlobalVector, ell: int, F: FieldE) -> int:
    """prod over prime ideals of sum_{i=0}^{v_P(T)} q^(i l), q the residue size.

    At each p dividing the content, (case, k1, k2) of :func:`local_key` give
    the factor: split Sum_{i<=k1} p^(il) * Sum_{i<=k2} p^(il), inert
    Sum_{i<=k1} p^(2il), ramified Sum_{i<=k1+k2} p^(il).
    """
    if not T:
        raise ValidationError("sigma_E of the zero vector")
    na = T.a.norm(F) if T.a else 0
    nb = T.b.norm(F) if T.b else 0
    content = math.gcd(na, nb)
    total = 1
    for p in prime_factors(content):
        case, k1, k2 = local_key(T, F, p)
        if case is Splitting.SPLIT:
            total *= sum(p ** (i * ell) for i in range(k1 + 1))
            total *= sum(p ** (i * ell) for i in range(k2 + 1))
        elif case is Splitting.INERT:
            total *= sum(p ** (2 * i * ell) for i in range(k1 + 1))
        else:
            total *= sum(p ** (i * ell) for i in range(k1 + k2 + 1))
    return total


def c_ell(ell: int) -> Fraction:
    return Fraction((-1) ** ell * 2 ** (2 * ell + 1), math.factorial(ell) ** 2)


def _denominator_multiplier(P: Params, D: int) -> Fraction:
    """(l!)^2 |B_{2l-n+2}| sigma_{l+1-n/2}(D), the denominator of D_{n,l}."""
    return (Fraction(math.factorial(P.ell) ** 2) * abs(bernoulli(2 * P.ell - P.n + 2))
            * sigma_k(D, P.ell + 1 - P.n // 2))


@lru_cache
def d_nl(P: Params, F: FieldE) -> Fraction:
    """The rank-2 normalizing constant D_{n,l}, computed once per (P, F)."""
    n, ell = P.n, P.ell
    num = Fraction(2 ** (2 * n + 2) * (2 * ell - n + 2) * F.D ** (ell + 1 - n // 2))
    return num / _denominator_multiplier(P, F.D)


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
    local_q: dict = field(default_factory=dict)
    whittaker: WhittakerEval | None = None


def local_polynomials(T: GlobalVector, P: Params, F: FieldE, nrm: int) -> dict:
    """{p: Q_{T,p}} over the primes p dividing nrm = <T, T>.

    Each Q is served by its key (p, case, n, k, k1, k2): k = v_p(nrm), and
    (case, k1, k2) are read from T's valuations by :func:`local_key`; no
    coordinates are built.  The global model has n = 2 only, so other n raise
    ValidationError.  A failed consistency check of a Q build is re-raised
    naming T and p.
    """
    if P.n != 2:
        raise ValidationError("the built-in global model has n = 2")
    local = {}
    for p in prime_factors(nrm):
        case, k1, k2 = local_key(T, F, p)
        try:
            local[p] = q_poly_of_invariants(p, case, P.n, vp(nrm, p), k1, k2)
        except InternalConsistencyError as exc:
            raise InternalConsistencyError(f"T = {T.as_list()}, p = {p}: {exc}") from exc
    return local


def coefficient(T: GlobalVector, P: Params, F: FieldE,
                with_whittaker: bool = False) -> FourierCoefficient:
    """The Fourier coefficient of T, by the sign of <T, T>.

    Negative norm: zero.  Norm 0 (T != 0): C_l * sigma_{E,l}(T).  Positive
    norm: D_{n,l} * prod_{p | <T,T>} Q_{T,p}(p^(l-(n-1)/2)).  <T, T> is
    computed once.  The global model has n = 2 only, so other n raise
    ValidationError for every T, isotropic and negative-norm ones included.
    """
    if P.n != 2:
        raise ValidationError("the built-in global model has n = 2")
    if not T:
        raise ValidationError("rank-1 coefficients need <T, T> = 0, T != 0")
    nrm = norm(T, F)
    if nrm < 0:
        return FourierCoefficient(T=T, rank=2, rational=Fraction(0), norm=nrm)
    sigma, local = None, {}
    if nrm == 0:
        sigma = sigma_E(T, P.ell, F)
        rank, rational = 1, c_ell(P.ell) * sigma
    else:
        local = local_polynomials(T, P, F, nrm)
        prod = 1
        for q in local.values():
            prod *= sqrtp_eval_halfint(q, 2 * P.ell - P.n + 1)
        rank, rational = 2, d_nl(P, F) * prod
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
    raises ValidationError: the Hurwitz values would overflow with it.
    """
    if D ** s > sys.float_info.max:
        raise ValidationError(f"zeta_E({s}) at D = {D} leaves the binary64 range "
                              f"(D^s > 1.8e308); lower ell")
    chi_sum = math.fsum(kronecker_symbol(-D, a) * zeta(s, a / D) for a in range(1, D))
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
    D: int
    params: Params
    bound: int
    region_norm_cap: int
    constant: ConstantTerm
    entries: tuple


def vectors_in_region(F: FieldE, cap: int, lo: int, hi: int,
                      limit: int | None = None) -> list:
    """Nonzero T with N(a), N(b) <= cap and lo <= <T, T> <= hi, by (norm, coordinates).

    With ``limit`` given, more than ``limit`` such T raise ResourceBudgetError
    as soon as the count passes it (checked once per a), not after the whole
    region is enumerated.  When lo <= 0 <= hi every disc point z gives the
    norm-0 vectors (z, 0) and (0, z), so a disc of more than limit // 2 + 1
    points raises while it is built (checked once per x).
    """
    over = ResourceBudgetError(f"the region holds more than {limit} vectors, "
                               "which exceed the table budget")
    disc_limit = limit // 2 + 1 if limit is not None and lo <= 0 <= hi else None
    xmax = math.isqrt(max(cap * (1 + F.D) // F.D, 0)) + 1  # N(x + y omega) >= x^2 D/(1+D)
    ymax = math.isqrt(max(4 * cap // F.D, 0)) + 1  # N(x + y omega) >= y^2 D/4
    disc = []
    for x in range(-xmax, xmax + 1):
        disc.extend(z for y in range(-ymax, ymax + 1) if (z := QuadInt(x, y)).norm(F) <= cap)
        if disc_limit is not None and len(disc) > disc_limit:
            raise over
    found = []
    for a in disc:
        for b in disc:
            T = GlobalVector(a, b)
            if T and lo <= (nrm := norm(T, F)) <= hi:
                found.append((nrm, a.x, a.y, b.x, b.y, T))
        if limit is not None and len(found) > limit:
            raise over
    found.sort()  # (norm, coordinates) are distinct, so T is never compared
    return [row[5] for row in found]


def full_expansion(P: Params, F: FieldE, bound: int) -> ExpansionTable:
    """Expansion table over the coordinate region N(a), N(b) <= 2 (bound+1).

    Keeps every enumerated T with 0 <= <T,T> <= bound; the isotropic family
    is infinite, so the table is complete only within the declared region.
    Entries are sorted by (norm, coordinates) and built serially, one
    coefficient at a time; a region of more than MAX_TABLE_VECTORS vectors
    raises ResourceBudgetError.
    """
    if P.n != 2:
        raise ValidationError("expansion tables exist only for the n = 2 model")
    if bound < 0:
        raise ValidationError("bound must be >= 0")
    cap = REGION_SCALE * (bound + 1)
    vectors = vectors_in_region(F, cap, 0, bound, limit=MAX_TABLE_VECTORS)
    return ExpansionTable(D=F.D, params=P, bound=bound, region_norm_cap=cap,
                          constant=constant_term(P, F),
                          entries=tuple(coefficient(T, P, F) for T in vectors))


def denominator_bound_check(table: ExpansionTable):
    """Every rank-2 rational times (l!)^2 |B_{2l-n+2}| sigma_{l+1-n/2}(D) is integral.

    Returns (True, None) or (False, offending coefficient).
    """
    mult = _denominator_multiplier(table.params, table.D)
    for entry in table.entries:
        if entry.rank != 2:
            continue
        if (entry.rational * mult).denominator != 1:
            return False, entry
    return True, None
