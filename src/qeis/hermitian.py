"""Concrete model of E = Q(sqrt(-D)) and the self-dual Hermitian lattice.

The global model is implemented for n = 2 only: the lattice is the
hyperbolic plane o_E c1 + o_E c2 with <c1, c2> = 1, pairing conjugate-linear
in the second slot, so a vector T = a c1 + b c2 has norm <T, T> = Tr(a conj(b)).
For n = 2 mod 4 with n > 2 no integral model is constructed; the Siegel
engine takes a hand-built :class:`LocalKey` for those ranks.

The ring of integers is Z[omega] with omega = (1 + sqrt(-D))/2, minimal
polynomial X^2 - X + (1+D)/4.  At a split prime the valuations of T come
from N(z) and, for a primitive z = x + y omega in a prime above p, the root
-x/y of that polynomial mod p; the two embeddings into Z_p,
which only the quadratic coordinates need, are obtained by Hensel-lifting
the two roots.  At a ramified odd prime the uniformizer is pinned to sqrt(-D) = 2 omega - 1
itself, which has trace 0 and square -D = p * unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, NamedTuple

from .arith import (Splitting, is_prime, splitting_of_valid_D, sqrt_mod_p,
                    validate_D, validate_prime, vp)
from .errors import InternalConsistencyError, ValidationError


# ---------------------------------------------------------------------------
# Field and quadratic integers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldE:
    """The imaginary quadratic field Q(sqrt(-D)), D squarefree, D = 3 mod 4."""

    D: int
    # D's prime factors, from the one factoring that validates D; equality
    # and hash stay on D alone, which keys the caches of per-field values
    primes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # once: splitting() does not validate D again, sigma_k reads primes
        object.__setattr__(self, "primes", validate_D(self.D))

    @property
    def omega_norm(self) -> int:
        """N(omega) = (1 + D) / 4, the constant term of omega's minimal polynomial."""
        return (1 + self.D) // 4

    def splitting(self, p: int) -> Splitting:
        return splitting_of_valid_D(self.D, p)


@dataclass(frozen=True)
class QuadInt:
    """x + y*omega with omega = (1 + sqrt(-D))/2; arithmetic needs the ambient field."""

    x: int
    y: int

    def __bool__(self) -> bool:
        return self.x != 0 or self.y != 0

    def add(self, other: "QuadInt") -> "QuadInt":
        return QuadInt(self.x + other.x, self.y + other.y)

    def conj(self) -> "QuadInt":
        # omega + conj(omega) = 1
        return QuadInt(self.x + self.y, -self.y)

    def mul(self, other: "QuadInt", F: FieldE) -> "QuadInt":
        # omega^2 = omega - (1+D)/4
        c = F.omega_norm
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        return QuadInt(x1 * x2 - c * y1 * y2, x1 * y2 + y1 * x2 + y1 * y2)

    def norm(self, F: FieldE) -> int:
        """N(x + y omega) = x^2 + xy + ((1+D)/4) y^2."""
        return self.x * self.x + self.x * self.y + F.omega_norm * self.y * self.y

    def trace(self) -> int:
        return 2 * self.x + self.y

    def complex_embed(self, F: FieldE) -> complex:
        """Image under the fixed embedding omega -> (1 + i sqrt(D))/2."""
        w = complex(0.5, math.sqrt(F.D) / 2.0)
        return self.x + self.y * w

    def as_list(self) -> list:
        return [self.x, self.y]


# ---------------------------------------------------------------------------
# Eisenstein series parameters and global vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Params:
    """Hermitian-space rank parameter n and weight ell, with n < ell <= ELL_MAX.

    Above ELL_MAX the binary64 fields give out: pi^(2l+1) in the constant
    term overflows from l = 310 on, and at l = 800 the rational of
    T = (1, 1) has more than the 4300 digits Python turns into a string.
    """

    ELL_MAX: ClassVar[int] = 300

    n: int
    ell: int

    def __post_init__(self):
        if self.n <= 0 or self.n % 4 != 2:
            raise ValidationError(f"n = {self.n} must be positive and = 2 mod 4")
        if self.ell <= self.n:
            raise ValidationError(f"ell = {self.ell} must exceed n = {self.n}")
        if self.ell > self.ELL_MAX:
            raise ValidationError(f"ell = {self.ell} exceeds the supported maximum "
                                  f"{self.ELL_MAX}")


@dataclass(frozen=True)
class GlobalVector:
    """T = a c1 + b c2 in the n = 2 hyperbolic model of the self-dual lattice."""

    a: QuadInt
    b: QuadInt

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def as_list(self) -> list:
        return [self.a.as_list(), self.b.as_list()]


def global_vector(ax: int, ay: int, bx: int, by: int) -> GlobalVector:
    return GlobalVector(QuadInt(ax, ay), QuadInt(bx, by))


def norm(T: GlobalVector, F: FieldE) -> int:
    """<T, T> = Tr(a conj(b)), always a rational integer.

    With a = a0 + a1 omega and b = b0 + b1 omega it is 2 a0 b0 + a0 b1 + a1 b0
    + ((1+D)/2) a1 b1, read off in ints: building a conj(b) as QuadInts costs 6x.
    """
    a, b = T.a, T.b
    return 2 * a.x * b.x + a.x * b.y + a.y * b.x + 2 * F.omega_norm * a.y * b.y


# ---------------------------------------------------------------------------
# Hensel lifting for split primes
# ---------------------------------------------------------------------------

def _omega_root_mod_p(F: FieldE, p: int) -> int:
    """The least root of X^2 - X + (1+D)/4 mod p, which exists iff p splits:
    (1 +- s)/2 with s^2 = -D mod p at odd p, 0 and 1 at p = 2 when D = 7 mod 8."""
    if p == 2 and F.D % 8 == 7:
        return 0
    s = sqrt_mod_p(-F.D, p) if p > 2 else None
    if s is None:
        raise ValidationError(f"p = {p} is not split in Q(sqrt(-{F.D}))")
    half = (p + 1) // 2
    return min((1 + s) * half % p, (1 - s) * half % p)


def omega_root_lift(F: FieldE, p: int, prec: int) -> int:
    """Hensel lift of the omega-root mod p to a root mod p^prec.

    The derivative 2r - 1 is a unit mod p for every split p (including 2),
    so Newton doubling applies directly.
    """
    c = F.omega_norm
    r = _omega_root_mod_p(F, p)
    e = 1
    mod = p
    while e < prec:
        e = min(2 * e, prec)
        mod = p ** e
        fr = (r * r - r + c) % mod
        dr = (2 * r - 1) % mod
        r = (r - fr * pow(dr, -1, mod)) % mod
    if (r * r - r + c) % (p ** prec) != 0:
        raise InternalConsistencyError("Hensel lift failed")
    return r


# ---------------------------------------------------------------------------
# The local key
# ---------------------------------------------------------------------------

class LocalKey(NamedTuple):
    """The local Jordan type of T at p at rank n, the one key Q_{T,p} depends
    on: k = v_p(<T, T>) (+inf for isotropic T, whose key only sigma_E reads)
    and (k1, k2) of :func:`local_key`.  Its str() names it in every error."""

    p: int
    case: Splitting
    n: int
    k: int
    k1: int
    k2: int

    def __str__(self) -> str:
        return "(p, case, n, k, k1, k2) = ({}, {}, {}, {}, {}, {})".format(
            self.p, getattr(self.case, "value", self.case), *self[2:])

    def check(self) -> None:
        """ValidationError naming the key unless it is admissible: p prime,
        n > 0 with n = 2 mod 4, 0 <= k1, k2 with k1 + k2 <= k < inf, and
        inert k1 = k2, ramified p odd with k2 in {k1, k1 + 1}."""
        p, case, n, k, k1, k2 = self
        if not (n > 0 and n % 4 == 2 and min(k1, k2) >= 0 and k1 + k2 <= k < math.inf
                and (case is Splitting.SPLIT or case is Splitting.INERT and k1 == k2
                     or case is Splitting.RAMIFIED and p % 2 == 1 and k2 - k1 in (0, 1))
                and is_prime(p)):
            raise ValidationError(f"no local Jordan type has the key {self}")


def coordinate_reading(z: QuadInt, nz: int, p: int, case: Splitting) -> tuple | int:
    """What a coordinate z != 0 of T, with nz = N(z), gives the
    :func:`local_key` of T at p, whose splitting class is ``case``:
    (v_P1(z), v_P2(z)) at a split p, v_p(N(z)) otherwise.  It depends on z
    and p alone, so a caller holding many T over the same coordinates reads
    it once per (z, p).

    Split p: P1 = (p, omega - r) and P2 = (p, omega - (1 - r)), r the least
    root of X^2 - X + (1+D)/4 mod p (the root of :func:`_omega_root_mod_p`).
    Writing z = p^c z' with z' primitive, z' lies in at most one of P1, P2,
    so v_P(z) = v_p(N(z)) - c when z' = 0 mod P and c otherwise; no lift is
    needed.  When p | N(z'), z' = x' + y' omega has y' a unit and
    rho = -x'/y' mod p is a root, with z' in P1 iff rho is the least one.
    An odd v_p(N(z)) at an inert p raises InternalConsistencyError.
    """
    if case is Splitting.SPLIT:
        c = min(vp(z.x, p), vp(z.y, p))
        full = vp(nz, p) - c
        if full == c:
            return c, c
        q = p ** c
        rho = -(z.x // q) * pow(z.y // q, -1, p) % p
        return (full, c) if rho <= (1 - rho) % p else (c, full)
    v = vp(nz, p)
    if case is Splitting.INERT and v % 2:
        raise InternalConsistencyError("odd norm valuation at an inert prime")
    return v


def key_of_readings(p: int, case: Splitting, nrm: int, readings: list) -> LocalKey:
    """The :class:`LocalKey` at p, of splitting class ``case``, of a T with
    nrm = <T, T>, from the :func:`coordinate_reading` of each of its nonzero
    coordinates.

    Split p: (k1, k2) = (v_P1(T), v_P2(T)), the least reading of each
    prime.  Inert p: k1 = k2 = v_p(T), half the least v_p(N(z)).  Ramified
    p: k1 = floor(v_varpi(T)/2) and k2 = ceil(v_varpi(T)/2), with v_varpi(T)
    the least v_p(N(z)).
    """
    if case is Splitting.SPLIT:
        k1, k2 = map(min, zip(*readings))
    else:
        v = min(readings)  # even at an inert p, so k1 = k2 there
        k1, k2 = v // 2, (v + 1) // 2
    return LocalKey(p, case, 2, vp(nrm, p), k1, k2)


def local_key(T: GlobalVector, F: FieldE, p: int, nrm: int) -> LocalKey:
    """The :class:`LocalKey` of T at p in the n = 2 model, with k = v_p(nrm)
    for nrm = <T, T>: the one reader of T's valuations at p, as
    :func:`key_of_readings` of each nonzero coordinate's
    :func:`coordinate_reading`, with p's splitting class read once.
    """
    if not T:
        raise ValidationError("local key of the zero vector")
    case = F.splitting(p)
    return key_of_readings(p, case, nrm, [coordinate_reading(z, z.norm(F), p, case)
                                          for z in (T.a, T.b) if z])


# ---------------------------------------------------------------------------
# Local quadratic-lattice data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalVectorData:
    """A :class:`LocalKey`, whose fields read as the data's own (data.p, ...),
    with the quadratic-lattice coordinates of a T of that key.  The package
    reads the key as ``data.key``; the forwarding ``__getattr__`` stays for
    perfbench/tracer.py and the tests, which read its fields off the data.

    ``coords`` must have 2n entries and is read only by the oracle check and
    by :func:`qeis.siegel.q_poly`'s check of the key, in the split normal form
    Sum x_i y_i (case split/inert, layout x-block then y-block) or the
    ramified normal form Sum_{i<=m} x_i y_i + p Sum_{i>m} x_i y_i (m = n/2).
    For the ramified case ``coords_over_uniformizer`` additionally holds the
    coordinates of T/varpi, which may carry denominator p.  All integer
    entries are exact representatives of the p-adic coordinates modulo
    p^prec with prec >= k + 2.
    """

    key: LocalKey
    coords: tuple
    coords_over_uniformizer: tuple = ()
    prec: int = 0

    def __getattr__(self, name):
        if name in LocalKey._fields:
            return getattr(self.key, name)
        raise AttributeError(name)


def _split_coords(T: GlobalVector, F: FieldE, p: int, k: int) -> tuple:
    na, nb = T.a.norm(F), T.b.norm(F)
    prec = max(vp(na, p) if na else 0, vp(nb, p) if nb else 0, k) + 2
    mod = p ** prec
    r = omega_root_lift(F, p, prec)
    # sigma1 sends omega to the lifted root r, sigma2 to the conjugate root 1 - r;
    # sigma1 on the x-block and swapped sigma2 on the y-block, so that
    # q(coords) = sigma1(a) sigma2(b) + sigma1(b) sigma2(a) = <T, T>
    t1 = ((T.a.x + T.a.y * r) % mod, (T.b.x + T.b.y * r) % mod)
    t2 = ((T.b.x + T.b.y * (1 - r)) % mod, (T.a.x + T.a.y * (1 - r)) % mod)
    q = (t1[0] * t2[0] + t1[1] * t2[1]) % mod
    if k < prec and vp(q, p) != k:
        raise InternalConsistencyError("split local data lost the norm valuation")
    return t1 + t2, (), prec


def _inert_coords(T: GlobalVector, F: FieldE, p: int, k: int) -> tuple:
    # q(a, b) = Tr(a conj(b)) = 2 a0 b0 + a0 b1 + a1 b0 + ((1+D)/2) a1 b1,
    # split over Z_p by the unimodular change of basis M = [[2, 1], [1, (1+D)/2]]
    # on the b-block (det M = D, a unit for p not dividing D).
    x = (T.a.x, T.a.y)
    y = (2 * T.b.x + T.b.y, T.b.x + ((1 + F.D) // 2) * T.b.y)
    if x[0] * y[0] + x[1] * y[1] != norm(T, F):
        raise InternalConsistencyError("inert quadratic coordinates do not carry the norm")
    return x + y, (), k + 2


def ramified_unit(F: FieldE, p: int) -> int:
    """The unit u with varpi^2 = p u for varpi = sqrt(-D), i.e. u = -D/p."""
    if F.D % p != 0 or p == 2:
        raise ValidationError(f"p = {p} is not an odd ramified prime for D = {F.D}")
    return -(F.D // p)


def _ramified_coords(T: GlobalVector, F: FieldE, p: int, k: int) -> tuple:
    u = ramified_unit(F, p)
    prec = k + 4
    mod = p ** prec
    inv2 = pow(2, -1, mod)
    # rewrite a = x1 + x2 varpi, b = y1 + y2 varpi with varpi = 2 omega - 1
    x1 = (T.a.x + T.a.y * inv2) % mod
    x2 = (T.a.y * inv2) % mod
    y1 = (T.b.x + T.b.y * inv2) % mod
    y2 = (T.b.y * inv2) % mod
    # <v, v> = 2 (x1 y1 - p u x2 y2); rescale to q = X1 Y1 + p X2 Y2
    X1, X2 = x1, (-2 * u * x2) % mod
    Y1, Y2 = (2 * y1) % mod, y2
    if (X1 * Y1 + p * X2 * Y2 - norm(T, F)) % mod != 0:
        raise InternalConsistencyError("ramified normal form does not carry the norm")
    # T/varpi = (x2 + (x1/(p u)) varpi) c1 + (y2 + (y1/(p u)) varpi) c2: the unit
    # block and p-block swap, with denominators bounded by p; its normal-form
    # coordinates follow the rescaling of T's above
    uinv = pow(u, -1, mod)
    over = (Fraction(x2), -2 * u * Fraction(x1 * uinv % mod, p),
            2 * Fraction(y2), Fraction(y1 * uinv % mod, p))
    return (X1, X2, Y1, Y2), over, prec


_COORDS = {Splitting.SPLIT: _split_coords, Splitting.INERT: _inert_coords,
           Splitting.RAMIFIED: _ramified_coords}


def local_quadratic_data(T: GlobalVector, F: FieldE, p: int, P: Params) -> LocalVectorData:
    """Quadratic-lattice coordinates of T at p, with its :func:`local_key`.

    The coordinates serve `local`, its oracle check and the functional
    suite; Q_{T,p} itself needs only the key.  Requires n = 2 (the built-in
    global model), a prime p and <T, T> != 0; rank-1 vectors never reach the
    Siegel engine.
    """
    if P.n != 2:
        raise ValidationError("the built-in global model has n = 2; supply LocalVectorData directly")
    validate_prime(p)
    key = local_key(T, F, p, norm(T, F))
    if key.k == math.inf:
        raise ValidationError("local quadratic data requires <T, T> != 0")
    return LocalVectorData(key, *_COORDS[key.case](T, F, p, key.k))
