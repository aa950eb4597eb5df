"""Exact arithmetic substrate.

Everything in this module is pure and exact: big rationals are
``fractions.Fraction``, polynomials are coefficient lists of Python ints,
and no floating point ever enters.  The slightly unusual citizen
is :class:`SqrtPPoly`, a polynomial whose even-degree coefficients are
integers and whose odd-degree coefficients are integer multiples of p^(1/2);
it is stored as the integer vector d with coefficient(X^i) = d[i] * p^((i%2)/2),
so the irrationality never materialises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import InternalConsistencyError, ResourceBudgetError, ValidationError


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number, convention B_1 = -1/2.

    B_{2m} = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)) from the tangent number
    T_m of :func:`_tangent_numbers`, computed in ints with T_1..T_m in place
    (Brent and Harvey, "Fast computation of Bernoulli, tangent and secant
    numbers", 2011, arXiv:1108.0286): O(m^2) multiply-adds by small ints,
    no Fraction sums.
    Only |B_{2m}| is consumed downstream, so the B_1 sign convention is
    inert there.
    """
    if k < 0:
        raise ValidationError("bernoulli index must be >= 0")
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(-1, 2)
    if k % 2 == 1:
        return Fraction(0)
    m = k // 2
    four = 4 ** m
    return Fraction((-1) ** (m - 1) * k * _tangent_numbers(m)[m - 1], four * (four - 1))


def _tangent_numbers(m: int) -> list:
    """[T_1, ..., T_m], the tangent numbers, for m >= 1, in place in ints.

    Pass i of the triangle changes only the entries j >= i, so T_j is final
    once pass j is done and T_1..T_j do not depend on m: a longer list
    extends a shorter one.
    """
    tangent = [0, 1] + [0] * (m - 1)  # tangent[j] starts as (j - 1)!
    for j in range(2, m + 1):
        tangent[j] = (j - 1) * tangent[j - 1]
    for i in range(2, m + 1):
        for j in range(i, m + 1):
            tangent[j] = (j - i) * tangent[j - 1] + (j - i + 2) * tangent[j]
    return tangent[1:]


# ---------------------------------------------------------------------------
# Ramanujan sums
# ---------------------------------------------------------------------------

def vp(x: int, p: int) -> int | float:
    """p-adic valuation of an integer, with vp(0) = +inf."""
    if x == 0:
        return math.inf
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def ramanujan_sum_vp(p: int, s: int, v) -> int:
    """The Ramanujan sum c_{p^s}(t) from v = v_p(t) alone (v = inf for t = 0).

    Evaluated by the closed three-case formula, never by summing roots of
    unity, so the result stays an exact integer:

        p^s - p^(s-1)   if v >= s,
        -p^(s-1)        if v = s - 1,
        0               otherwise.
    """
    if s < 0:
        raise ValidationError("ramanujan_sum_vp needs s >= 0")
    if s == 0:
        return 1
    if v >= s:
        return p ** s - p ** (s - 1)
    if v == s - 1:
        return -(p ** (s - 1))
    return 0


# ---------------------------------------------------------------------------
# Prime splitting in Q(sqrt(-D))
# ---------------------------------------------------------------------------

class Splitting(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


def validate_D(D: int) -> tuple:
    """D must be squarefree and congruent to 3 mod 4 (so 2 is unramified).

    Returns D's prime factors, read off the one :func:`prime_factors` call
    that also decides squarefreeness.
    """
    if D > 0 and D % 4 == 3:
        primes = tuple(prime_factors(D))
        if math.prod(primes) == D:
            return primes
    raise ValidationError(f"D = {D} is not a squarefree positive integer = 3 mod 4")


def splitting_of_valid_D(D: int, p: int) -> Splitting:
    """How the rational prime p decomposes in Q(sqrt(-D)), for a D already
    validated by :func:`validate_D`, as a FieldE's is.

    Ramified iff p | D; otherwise split or inert according to whether -D is
    a square mod p (odd p) or to -D mod 8 (p = 2).  D = 3 mod 4 guarantees
    p = 2 is never ramified.
    """
    if D % p == 0:
        return Splitting.RAMIFIED
    if p == 2:
        return Splitting.SPLIT if (-D) % 8 == 1 else Splitting.INERT
    ls = pow(-D % p, (p - 1) // 2, p)
    return Splitting.SPLIT if ls == 1 else Splitting.INERT


# ---------------------------------------------------------------------------
# Terminating 2F1
# ---------------------------------------------------------------------------

def hyp2f1_terminating(neg_a: int, b: Fraction, c: Fraction, z: Fraction) -> Fraction:
    """Exact value of 2F1(-neg_a, b; c; z), a terminating series.

    Returns sum_{j=0}^{neg_a} ((-neg_a)_j (b)_j / (c)_j) z^j / j! in exact
    rational arithmetic.  Raises if a Pochhammer denominator (c)_j hits zero
    before the series terminates.  The sum is taken by Horner's rule,
    1 + r_1 (1 + r_2 (... (1 + r_N))) with r_j = t_j / t_(j-1) the term ratio,
    on an int numerator and denominator, reduced once at the end.
    """
    if neg_a < 0:
        raise ValidationError("termination index must be >= 0")
    b, c, z = Fraction(b), Fraction(c), Fraction(z)
    bn, bd = b.numerator, b.denominator
    cn, cd = c.numerator, c.denominator
    zn, zd = z.numerator, z.denominator
    for j in range(neg_a):
        if cn + j * cd == 0:
            raise ValidationError(f"2F1 pole: (c)_j vanishes at j = {j + 1}")
    num = den = 1
    for j in range(neg_a, 0, -1):
        # r_j = -(neg_a - j + 1) (b + j - 1) z / ((c + j - 1) j)
        p = -(neg_a - j + 1) * (bn + (j - 1) * bd) * cd * zn
        q = bd * (cn + (j - 1) * cd) * zd * j
        num, den = q * den + p * num, q * den
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Integer polynomials
# ---------------------------------------------------------------------------

def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, index = degree, trailing coefficient nonzero.

    Also the truncated local series in t = p^(-s), divided exactly in ints.
    A coefficient that is not an int raises TypeError naming it.
    """

    coeffs: tuple

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"IntPoly coefficient {c!r} is not an int")
        object.__setattr__(self, "coeffs", tuple(_strip(coeffs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def is_palindromic(self) -> bool:
        """X^deg P(1/X) == P(X)."""
        return self.coeffs == self.coeffs[::-1]

    def divide_exact(self, root: int, shift: int) -> "IntPoly":
        """Exact quotient of the series by (1 - root * t^shift) for an int
        root; a nonzero remainder raises InternalConsistencyError."""
        quot = [0] * max(len(self.coeffs) - shift, 0)
        for i, c in enumerate(self.coeffs):
            prev = quot[i - shift] if i >= shift else 0
            val = c + root * prev
            if i < len(quot):
                quot[i] = val
            elif val != 0:
                raise InternalConsistencyError(
                    f"series not divisible by (1 - {root} t^{shift}); residue at t^{i}"
                )
        return IntPoly(quot)


# ---------------------------------------------------------------------------
# sqrt(p)-graded polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SqrtPPoly:
    """Polynomial in Z[X^2] + p^(1/2) X Z[X^2], stored as the integer vector d.

    The true coefficient of X^i is d[i] * p^((i % 2)/2), so even-degree
    coefficients are integers and odd-degree ones integer multiples of
    sqrt(p).
    """

    p: int
    d: tuple

    def __init__(self, p: int, d):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", tuple(_strip(d)))

    @property
    def degree(self) -> int:
        return len(self.d) - 1 if self.d else -1

    def is_monic(self) -> bool:
        return bool(self.d) and self.d[-1] == 1 and self.degree % 2 == 0

    def is_palindromic(self) -> bool:
        """X^deg Q(1/X) == Q(X), coefficientwise on the d vector."""
        return self.d == self.d[::-1]

    def __eq__(self, other):
        return isinstance(other, SqrtPPoly) and self.p == other.p and self.d == other.d


def sqrtp_eval_halfint(q: SqrtPPoly, two_e: int) -> int:
    """Exact integer value of q at X = p^(two_e/2) for odd two_e > 0.

    Each monomial contributes d_i * p^((i*two_e + (i % 2))/2), an integer
    power of p by the parity grading, so the sum runs in Python ints.
    """
    if two_e <= 0 or two_e % 2 == 0:
        raise ValidationError("two_e must be a positive odd integer")
    p = q.p
    return sum(di * p ** ((i * two_e + i % 2) // 2) for i, di in enumerate(q.d) if di)


# ---------------------------------------------------------------------------
# Misc small number theory helpers
# ---------------------------------------------------------------------------

TRIAL_DIVISION_CAP = 10 ** 6  # prime_factors divides by d <= cap, then asks is_prime
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_EXACT = 3317044064679887385961981  # the least strong pseudoprime to them all


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases up to 41.

    Exact for n < 3.3 * 10^24 (Sorenson and Webster, Math. Comp. 2017); the
    bases up to 37 alone are exact only below 3.2 * 10^23, since
    318665857834031151167461 is a strong pseudoprime to all of them.  Larger
    n raise ValidationError, since no base set is proven there.
    """
    if n < 2:
        return False
    if n >= MILLER_RABIN_EXACT:
        raise ValidationError(f"{n} is too large for the certified primality test "
                              f"(exact below {MILLER_RABIN_EXACT})")
    for b in MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list:
    """Sorted distinct prime factors of |n|.

    Trial division by d <= TRIAL_DIVISION_CAP; a cofactor left past the cap
    is kept if :func:`is_prime` certifies it, and ResourceBudgetError naming
    n is raised otherwise (a composite or an uncertifiable cofactor).
    """
    n0 = n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if d > TRIAL_DIVISION_CAP:
            if n >= MILLER_RABIN_EXACT or not is_prime(n):
                raise ResourceBudgetError(
                    f"cannot factor {n0}: trial division up to {TRIAL_DIVISION_CAP} "
                    f"leaves the cofactor {n}, which is not a certified prime")
            break
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def sqrt_mod_p(a: int, p: int) -> int | None:
    """A square root of a mod an odd prime p by Tonelli-Shanks, None unless a
    is a nonzero square mod p."""
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, e = p - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    x, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    if t == 1:
        return x
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:  # the least non-square
        z += 1
    c = pow(z, q, p)
    while t != 1:  # x^2 = a t, with t of order 2^i < 2^e
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (e - i - 1), p)
        e, c, t, x = i, b * b % p, t * b * b % p, x * b % p
    return x


def validate_prime(p: int) -> None:
    """A p supplied from outside must be a (positive) prime; ValidationError otherwise."""
    if not is_prime(p):
        raise ValidationError(f"p = {p} is not a prime")


def geometric_sum(q: int, a: int) -> int:
    """1 + q + ... + q^(a-1) for an int q: a when q = 1, 0 when a <= 0."""
    if a <= 0:
        return 0
    if q == 1:
        return a
    return (q ** a - 1) // (q - 1)


def sigma_k(n: int, k: int, primes=None) -> int:
    """Divisor power sum sigma_k(n) = sum_{d | n} d^k for n >= 1, k >= 0.

    Multiplicative: the product over p^e || n of 1 + p^k + ... + p^(ek),
    over the prime factors of n: ``primes`` when the caller holds them (a
    FieldE's of D), else :func:`prime_factors`.
    """
    if n < 1:
        raise ValidationError("sigma_k needs n >= 1")
    total = 1
    for p in prime_factors(n) if primes is None else primes:
        total *= geometric_sum(p ** k, vp(n, p) + 1)
    return total


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 1."""
    if n <= 0:
        raise ValidationError("kronecker_symbol implemented for n >= 1 only")
    if n == 1:
        return 1
    result = 1
    # factor out 2s from n
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    if n == 1:
        return result
    # Jacobi symbol for odd n > 1
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
