"""Candidate Saito-Kurokawa type lift coefficients.

Given a weight 2l-n+2 elliptic Hecke eigenform through its eigenvalues a_p,
the candidate T-th coefficient is

    A_h(T) = <T,T>^(l-(n-1)/2) * prod_{p | <T,T>} Qtilde_{T,p}(alpha_p),

with Qtilde(X) = X^-k Q_{T,p}(X) the palindromic Laurent normalization and
alpha_p the Satake parameter.  Writing beta_p = alpha_p + alpha_p^-1 =
a_p p^-(w-1)/2 and expanding Qtilde in the basis X^j + X^-j shows the half
powers of p always cancel against the sqrt(p) grading of Q, so the value is
an exact polynomial in the a_p over Q; the exact path exploits this, and a
complex-arithmetic path exists for generic Satake data.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import SqrtPPoly
from .errors import ValidationError
from .fourier import local_polynomials
from .hermitian import FieldE, GlobalVector, Params, norm
from .siegel import power_table


# ---------------------------------------------------------------------------
# Eigenform data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenformData:
    """Weight and Hecke eigenvalues a_p of an elliptic cusp form."""

    weight: int
    ap: dict

    def __post_init__(self):
        if type(self.weight) is not int or self.weight % 2 != 0 or self.weight < 4:
            raise ValidationError("eigenform weight must be an even integer >= 4")
        for p, a in self.ap.items():
            if type(a) is not int:
                raise ValidationError(f"a_{p} = {a!r} is not a Python int")

    def eigenvalue(self, p: int) -> int:
        if p not in self.ap:
            raise ValidationError(f"missing Hecke eigenvalue a_{p}")
        return self.ap[p]

    @classmethod
    def from_json(cls, text: str) -> "EigenformData":
        """Parse {"weight": w, "ap": {"2": a_2, ...}}; ValidationError if malformed.

        A JSON float or boolean value is rejected, not truncated to an int.
        Each prime is written once, in plain decimal: a repeated key, or a key
        with leading zeros, a sign or spaces ("02", "+2", " 2"), would let two
        keys name one prime and the later one silently win.
        """
        def integer(x, what):
            if isinstance(x, (bool, float)):
                raise ValidationError(f"{what} = {json.dumps(x)} is not an integer")
            return int(x)

        def prime(key):
            if not (key.isascii() and key.isdigit() and key == str(int(key))):
                raise ValidationError(f"a_p key {key!r} is not written in plain decimal")
            return int(key)

        def unique_keys(pairs):
            obj = dict(pairs)
            if len(obj) < len(pairs):
                keys = [key for key, _ in pairs]
                raise ValidationError(
                    f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
            return obj

        try:
            obj = json.loads(text, object_pairs_hook=unique_keys)
            return cls(weight=integer(obj["weight"], "weight"),
                       ap={prime(p): integer(a, f"a_{p}") for p, a in obj["ap"].items()})
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from None
        except KeyError as exc:
            raise ValidationError(f"missing key {exc}") from None
        except (AttributeError, TypeError, ValueError):
            raise ValidationError('expected {"weight": w, "ap": {"2": a_2, ...}} '
                                  "with integer values") from None

    def to_json(self) -> str:
        return json.dumps({"weight": self.weight,
                           "ap": {str(p): a for p, a in sorted(self.ap.items())}})


def satake_from_eigenvalue(a_p: int, weight: int, p: int) -> complex:
    """alpha_p, a root of X^2 - (a_p p^(-(w-1)/2)) X + 1; no Ramanujan bound assumed."""
    b = a_p * p ** (-(weight - 1) / 2.0)
    disc = b * b - 4.0
    root = cmath.sqrt(complex(disc))
    alpha = (b + root) / 2.0
    if alpha == 0:
        alpha = (b - root) / 2.0
    return alpha


def delta_eigenvalues(p_max: int = 50) -> EigenformData:
    """tau(p) for p <= p_max from the q-expansion of Delta = q prod (1-q^k)^24.

    A convenience oracle for tests; exact integer power-series arithmetic.
    """
    n_top = p_max + 1
    series = [0] * (n_top + 1)
    series[0] = 1
    for k in range(1, n_top + 1):
        for _ in range(24):
            new = series[:]
            for i in range(k, n_top + 1):
                new[i] -= series[i - k]
            series = new
    # Delta = q * series, so tau(n) = series[n-1]
    ap = {}
    for p in range(2, p_max + 1):
        if all(p % d for d in range(2, p)):
            ap[p] = series[p - 1]
    return EigenformData(weight=12, ap=ap)


# ---------------------------------------------------------------------------
# Chebyshev-basis expansion of Qtilde
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _power_sum_polys(top: int) -> tuple:
    """G_0..G_top with X^j + X^-j = G_j(X + X^-1); integer coefficient
    tuples, built once per degree."""
    polys = [[2], [0, 1]]
    for j in range(2, top + 1):
        prev, prev2 = polys[j - 1], polys[j - 2]
        new = [0] * (j + 1)
        for i, c in enumerate(prev):
            new[i + 1] += c
        for i, c in enumerate(prev2):
            new[i] -= c
        polys.append(new)
    return tuple(map(tuple, polys[: top + 1]))


def lift_local_exact(q: SqrtPPoly, weight: int) -> list:
    """Coefficients c_m with p^(k e) Qtilde(alpha_p) = sum_m c_m a_p^m, e = (w-1)/2.

    Every c_m is an int (a p-power times an integer, the power read from
    the prime's :func:`qeis.siegel.power_table`): the p-exponent
    ((k - m)(w - 1) + ((k + j) mod 2)) / 2 is never negative for w >= 1,
    and the sqrt(p) bookkeeping cancels by the parity grading.
    """
    if weight < 1:
        raise ValidationError(f"weight {weight} is not positive")
    k = q.degree // 2
    e2 = weight - 1  # 2e, always odd
    power = power_table(q.p, (k * e2 + 1) // 2)
    out = [0] * (k + 1)
    gs = _power_sum_polys(k)
    for j in range(0, k + 1):
        di = q.d[k + j] if k + j <= q.degree else 0
        if di == 0:
            continue
        gj = gs[j] if j > 0 else [1]  # j = 0 contributes the middle coefficient once
        for m, g in enumerate(gj):
            if g == 0:
                continue
            # p-exponent: (k - m) e from the norm power, plus the sqrt(p) halves
            num = (k - m) * e2 + ((k + j) % 2)
            if num % 2 != 0:
                raise ValidationError("half powers failed to cancel; wrong weight?")
            out[m] += di * g * power[num // 2]
    return out


def lift_coefficient(T: GlobalVector, h: EigenformData, P: Params, F: FieldE):
    """Exact candidate coefficient <T,T>^(l-(n-1)/2) prod_p Qtilde_{T,p}(alpha_p).

    Requires weight(h) = 2l - n + 2 and <T,T> > 0; returns a Fraction.  Each
    local factor is an int, summed in Horner form over the c_m of
    :func:`lift_local_exact`.
    """
    if h.weight != 2 * P.ell - P.n + 2:
        raise ValidationError(
            f"eigenform weight {h.weight} differs from 2l-n+2 = {2 * P.ell - P.n + 2}")
    nrm = norm(T, F)
    if nrm <= 0:
        raise ValidationError("lift coefficients need <T, T> > 0")
    total = 1
    for p, q in local_polynomials(T, P, F, nrm).items():
        a_p = h.eigenvalue(p)
        value = 0
        for c in reversed(lift_local_exact(q, h.weight)):
            value = value * a_p + c
        total *= value
    return Fraction(total)


def lift_coefficient_numeric(T: GlobalVector, satake: dict, P: Params, F: FieldE) -> complex:
    """Same value with caller-supplied complex Satake parameters alpha_p."""
    nrm = norm(T, F)
    if nrm <= 0:
        raise ValidationError("lift coefficients need <T, T> > 0")
    e = P.ell - (P.n - 1) / 2.0
    total = complex(nrm ** e)
    for p, q in local_polynomials(T, P, F, nrm).items():
        k = q.degree // 2
        val = 0j
        for i, di in enumerate(q.d):
            val += di * p ** ((i % 2) / 2.0) * satake[p] ** (i - k)
        total *= val
    return total


# ---------------------------------------------------------------------------
# Standard L-function Euler factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EulerFactorDescriptor:
    """Local factor of L(s, Pi, St) = L(s, BC(pi_h)) prod_i zeta_E(s + (n-1)/2 - i).

    ``reciprocal_roots`` are the numbers c with the inverse local factor
    equal to prod (1 - c p^-s); ``poly`` is its expansion, lowest degree
    first, as complex coefficients.
    """

    p: int
    splitting: str
    reciprocal_roots: tuple
    poly: tuple

    @property
    def degree(self) -> int:
        return len(self.poly) - 1


def _poly_from_roots(roots) -> tuple:
    poly = [1.0 + 0j]
    for c in roots:
        new = [0j] * (len(poly) + 1)
        for i, a in enumerate(poly):
            new[i] += a
            new[i + 1] -= a * c
        poly = new
    return tuple(poly)


def standard_L_factors(p: int, h: EigenformData, P: Params, F: FieldE) -> EulerFactorDescriptor:
    """Reciprocal roots of the predicted standard-L local factor at p.

    Base-change part: split p gives two copies of the GL2 factor
    {alpha, 1/alpha}; inert p gives {alpha^2, alpha^-2} over q = p^2, i.e.
    reciprocal roots {±alpha, ±1/alpha} in p^-s; ramified p one copy.  Each
    shifted zeta_E(s + (n-1)/2 - i) contributes p^(-(n-1)/2 + i) with the
    case-appropriate multiplicity (doubled for split, sign pair for inert).
    """
    n = P.n
    alpha = satake_from_eigenvalue(h.eigenvalue(p), h.weight, p)
    cls = F.splitting(p)
    roots = []
    shifts = [p ** (-(n - 1) / 2.0 + i) for i in range(n)]
    if cls.value == "split":
        roots += [alpha, 1 / alpha] * 2
        for c in shifts:
            roots += [c, c]
    elif cls.value == "inert":
        roots += [alpha, -alpha, 1 / alpha, -1 / alpha]
        for c in shifts:
            roots += [c, -c]
    else:
        roots += [alpha, 1 / alpha]
        roots += shifts
    roots = tuple(roots)
    return EulerFactorDescriptor(p=p, splitting=cls.value,
                                 reciprocal_roots=roots,
                                 poly=_poly_from_roots(roots))
