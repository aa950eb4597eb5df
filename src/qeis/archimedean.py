"""Archimedean component: the generalized Whittaker template and checkers.

The Whittaker function at the identity is a vector of 2l+1 K-Bessel values
with a unit-modulus phase; everything exact lives in :func:`arch_constant`
and the identity checkers, which replay in exact rational arithmetic (or
controlled quadrature) every special-function identity consumed by the
Fourier-coefficient computation.  The 50-digit K-Bessel values of the
identity battery are summed in the standard library's ``decimal``, and its
half-line integrals use the exp-sinh rule of :func:`_quad_halfline`.  mpmath
and ``scipy.integrate`` are the references the tests hold these to; the
package imports neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from .arith import hyp2f1_terminating
from .bessel import bessel_k
from .errors import NumericError, ValidationError
from .hermitian import FieldE, GlobalVector

TWO_PI = 2.0 * math.pi
# Euler's constant to 121 digits, past the 78 that K_n(20) is summed at
EULER_GAMMA = Decimal("0.5772156649015328606065120900824024310421593359399235988057672348848"
                      "677267776646709369470632917467495146314472498070824810")


# ---------------------------------------------------------------------------
# Whittaker evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WhittakerEval:
    """The 2l+1 components of W_T at the identity group element.

    components[v + ell] = phase^v * K_v(beta_abs) for v = -ell..ell.
    """

    ell: int
    beta_abs: float
    phase: complex
    components: tuple


@dataclass(frozen=True)
class PiRational:
    """Exact representation of rational * pi^pi_power."""

    rational: Fraction
    pi_power: int

    def value(self) -> float:
        return float(self.rational) * math.pi ** self.pi_power


def whittaker_at(T: GlobalVector, ell: int, F: FieldE) -> WhittakerEval:
    """W_T(1) component data; beta_T(1) = 4 sqrt(2) pi <u_2, T>.

    In the n = 2 model <u_2, T> = (conj(a) + conj(b))/sqrt(2), so
    |beta| = 4 pi |a + b| and the phase is (a + b)/|a + b|.
    """
    s = T.a.add(T.b).complex_embed(F)
    if s == 0:
        raise ValidationError("degenerate Whittaker datum: <u_2, T> = 0")
    beta_abs = 4.0 * math.pi * abs(s)
    phase = s / abs(s)
    comps = []
    for v in range(-ell, ell + 1):
        comps.append(phase ** v * bessel_k(abs(v), beta_abs))
    return WhittakerEval(ell=ell, beta_abs=beta_abs, phase=phase, components=tuple(comps))


def arch_constant(n: int, ell: int) -> PiRational:
    """T-independent archimedean factor 2^(2l+n+3) / ((l!)^2 (2l-n+1)!) * pi^(2l-n+2)."""
    if ell <= n:
        raise ValidationError("arch_constant needs ell > n")
    rat = Fraction(2 ** (2 * ell + n + 3),
                   math.factorial(ell) ** 2 * math.factorial(2 * ell - n + 1))
    return PiRational(rational=rat, pi_power=2 * ell - n + 2)


# ---------------------------------------------------------------------------
# Identity checkers
# ---------------------------------------------------------------------------

# Exp-sinh nodes run over |t| <= 6, where x = exp(pi/2 sinh t) stays within e^+-317.
_ES_T_MAX = 6
_ES_MAX_LEVEL = 8
# a term below half an ulp of the running sum ends its tail
_ES_NEGLIGIBLE = 2.0 ** -53


@lru_cache(maxsize=None)
def _exp_sinh_nodes(level: int) -> tuple:
    """(x, dx/dt) at the new nodes of one exp-sinh level, for t > 0 and for t < 0.

    x = exp(pi/2 sinh t) and dx/dt = pi/2 cosh(t) x.  Level 0 holds t = 1..6,
    level j > 0 the odd multiples of 2^-j below 6, each side ordered by |t|.
    """
    h = 2.0 ** -level
    ks = range(1, (_ES_T_MAX << level) + 1, 1 if level == 0 else 2)

    def node(t: float) -> tuple:
        x = math.exp(math.pi / 2 * math.sinh(t))
        return x, math.pi / 2 * math.cosh(t) * x

    return tuple(node(k * h) for k in ks), tuple(node(-k * h) for k in ks)


def _quad_halfline(f) -> float:
    """int_0^inf f(x) dx by the exp-sinh rule (Takahasi and Mori, 1974).

    The substitution x = exp(pi/2 sinh t) makes an integrand with algebraic
    decay at 0 and at infinity fall double-exponentially in t; the trapezoid
    rule in t then converges geometrically as the step h halves.  At h = 1
    each tail (t > 0, t < 0) runs to its first term negligible against the
    running sum, and the finer levels fill in the odd multiples of h below
    that cut.  The steps stop once S_h agrees with S_2h to 1e-12 relative, and
    err = |S_h - S_2h| is the error estimate.  A non-finite term, an
    OverflowError or ZeroDivisionError from f before its tail is negligible,
    a tail not negligible by |t| = 6, or err > 1e-9 |val| + 1e-14 raises
    NumericError.
    """
    def term(x: float, w: float) -> float:
        try:
            y = f(x) * w
        except (OverflowError, ZeroDivisionError) as exc:
            raise NumericError(f"quadrature failed: integrand at x = {x!r}: {exc}") from None
        if not math.isfinite(y):
            raise NumericError(f"quadrature failed: integrand term {y} at x = {x!r}")
        return y

    total = term(1.0, math.pi / 2)
    cuts = []
    for side in _exp_sinh_nodes(0):
        for k, (x, w) in enumerate(side, 1):
            y = term(x, w)
            total += y
            if abs(y) <= _ES_NEGLIGIBLE * abs(total):
                cuts.append(k)
                break
        else:
            raise NumericError(f"quadrature failed: tail not negligible by |t| = {_ES_T_MAX}")
    val, err = total, math.inf
    for level in range(1, _ES_MAX_LEVEL + 1):
        for side, cut in zip(_exp_sinh_nodes(level), cuts):
            # the odd multiples of 2^-level below the cut
            for x, w in side[:cut << (level - 1)]:
                total += term(x, w)
        prev, val = val, total * 2.0 ** -level
        err = abs(val - prev)
        if err <= 1e-12 * abs(val):
            break
    if not math.isfinite(val) or err > 1e-9 * max(abs(val), 1e-30) + 1e-14:
        raise NumericError(f"quadrature failed: value {val}, error estimate {err}")
    return val


def gamma_integral_closed(C: float, Dv: float, m: int, nn: int) -> float:
    """Closed form of int_R (x^2+C)^m / (x^2+Dv)^nn dx for m < nn, Dv > 0."""
    total = 0.0
    for k in range(m + 1):
        total += (math.comb(m, k) * (C / Dv) ** (m - k)
                  * math.gamma(k + 0.5) * math.gamma(nn - k - 0.5))
    return Dv ** (m - nn + 0.5) / math.factorial(nn - 1) * total


def gamma_integral_check(C: float, Dv: float, m: int, nn: int) -> bool:
    """Exp-sinh quadrature of the rational integral against its closed form, to 1e-9 relative."""
    if Dv <= 0 or not m < nn:
        raise ValidationError("need Dv > 0 and m < nn")
    closed = gamma_integral_closed(C, Dv, m, nn)
    num = 2.0 * _quad_halfline(lambda x: (x * x + C) ** m / (x * x + Dv) ** nn)
    return abs(num - closed) <= 1e-9 * abs(closed)


def _cjk(ell: int, j: int, k: int) -> int:
    return (math.comb(ell, k) ** 2 * math.comb(k, j)
            * math.factorial(2 * j) * math.factorial(4 * ell - 2 * j)
            // (math.factorial(j) * math.factorial(2 * ell - j)))


def comb_identity_check(ell: int):
    """Exact polynomial identity behind the hypergeometric collapse.

    Expands sum_{k,j} c_{j,k} (-z)^(l-k) (1-z)^(k-j) and compares with
    sum_r (-1)^r 2^(2l-2r) (2l)!(2l+2r)! / ((r!)^2 (l+r)!(l-r)!) z^r
    coefficientwise over Q, plus the two combinatorial lemmas feeding it, all
    in int arithmetic.
    Returns (True, None) or (False, first mismatching power).
    """
    lhs = [0] * (ell + 1)
    for k in range(ell + 1):
        for j in range(k + 1):
            c = _cjk(ell, j, k)
            # (-z)^(l-k) (1-z)^(k-j) accumulated exactly, in ints
            for i in range(k - j + 1):
                power = (ell - k) + i
                sign = (-1) ** (ell - k) * (-1) ** i
                lhs[power] += c * sign * math.comb(k - j, i)
    for r in range(ell + 1):
        # lhs[r] == num / den, compared exactly as lhs[r] * den == num
        num = ((-1) ** r * 2 ** (2 * ell - 2 * r)
               * math.factorial(2 * ell) * math.factorial(2 * ell + 2 * r))
        den = math.factorial(r) ** 2 * math.factorial(ell + r) * math.factorial(ell - r)
        if lhs[r] * den != num:
            return False, r
    # binomial convolution lemma: sum_i C(b,i) C(b-a, b-i) = C(2b-a, b)
    for a in range(ell + 1):
        b = ell
        if sum(math.comb(b, i) * math.comb(b - a, b - i) for i in range(a, b + 1)) \
                != math.comb(2 * b - a, b):
            return False, -1
    # Chu-Vandermonde collapse: 2F1(-(l-r), 1/2; -2l+1/2; 1), both sides
    # times the common denominator lcm_i C(4l, 2i), so the sums stay in ints
    binoms = [math.comb(4 * ell, 2 * i) for i in range(ell + 1)]
    den = math.lcm(*binoms)
    scale = [den // b for b in binoms]  # den / C(4l, 2i)
    for r in range(ell + 1):
        lhs2 = sum(math.comb(2 * ell, i) * math.comb(ell - r, i) * scale[i]
                   for i in range(ell - r + 1))
        rhs2 = 2 ** (2 * ell - 2 * r) * math.comb(2 * ell + 2 * r, ell + r) * scale[ell]
        if lhs2 != rhs2:
            return False, -2
    return True, None


def f0_closed(Av: float, Bv: float, ell: int) -> float:
    """Hypergeometric closed form of the radial profile F_{0,l}.

    2^(-2l) (2l)! pi^(-2l) / ((l!)^2 (A+B)^(l+1/2)) * 2F1(-l, l+1/2; 1; B/(A+B)).
    """
    if Av + Bv <= 0:
        raise ValidationError("need A + B > 0")
    hyp = float(hyp2f1_terminating(ell, Fraction(2 * ell + 1, 2), Fraction(1),
                                   Fraction(Bv) / (Fraction(Av) + Fraction(Bv))))
    pref = (2.0 ** (-2 * ell) * math.factorial(2 * ell) * math.pi ** (-2 * ell)
            / (math.factorial(ell) ** 2 * (Av + Bv) ** (ell + 0.5)))
    return pref * hyp


def f0_double_sum(Av: float, Bv: float, ell: int) -> float:
    """Pre-hypergeometric double-sum form of F_{0,l}, for cross-checking."""
    total = 0.0
    for k in range(ell + 1):
        inner = 0.0
        for j in range(k + 1):
            inner += (math.comb(k, j) * (Av / (Av + Bv)) ** (k - j)
                      * math.factorial(2 * j) * math.factorial(4 * ell - 2 * j)
                      / (2.0 ** (4 * ell) * math.factorial(j) * math.factorial(2 * ell - j)))
        total += ((-Bv) ** (ell - k) * math.comb(ell, k) ** 2
                  * (Av + Bv) ** (k - 2 * ell - 0.5) / math.factorial(2 * ell) * inner)
    return math.pi ** (-2 * ell) * total


@lru_cache(maxsize=None)
def _besselk_50(n: int, x: float) -> Decimal:
    """K_n(x) at 50 digits for an integer order n >= 0, once per (n, x) and process.

    Summed from the integer-order power series (DLMF 10.31.1).  With
    t = x^2/4, H_k the harmonic numbers and gamma Euler's constant, so that
    psi(k+1) + psi(n+k+1) = H_k + H_(n+k) - 2 gamma,

        K_n(x) = 1/2 (x/2)^-n Sum_{k<n} (n-k-1)!/k! (-t)^k
                 + (-1)^(n+1) (ln(x/2) + gamma) I_n(x)
                 + (-1)^n 1/2 (x/2)^n Sum_k (H_k + H_(n+k)) t^k / (k! (n+k)!),

    with I_n(x) = (x/2)^n Sum_k t^k / (k! (n+k)!).  I_n grows like e^x while
    K_n decays like e^-x, so the sum cancels about 2x/ln 10 digits: it runs
    in ``decimal`` at 50 + ceil(2x/ln 10) + 10 digits and is rounded to 50;
    the 121 digits of EULER_GAMMA cover that up to x = 70, past the x <= 20
    of :func:`bessel_sum_check`.  The tests hold it to 1e-45 relative
    against mpmath.besselk for n <= 24, 0.2 <= x <= 20.

    Each order is summed on its own, never obtained from K_(n-1) and K_(n-2)
    by the three-term recurrence: the identity of :func:`bessel_sum_check`
    follows from that recurrence alone, so it would hold for such values
    whatever their error.
    """
    prec = 60 + math.ceil(2 * x / math.log(10))
    with localcontext() as ctx:
        ctx.prec = prec
        eps = Decimal(10) ** -prec
        half = Decimal(x) / 2
        t = half * half
        finite = sum(Decimal(math.factorial(n - k - 1)) / math.factorial(k) * (-t) ** k
                     for k in range(n))
        # u_k = t^k / (k! (n+k)!), summed with weights 1 and H_k + H_(n+k)
        u = 1 / Decimal(math.factorial(n))
        h_k, h_nk = Decimal(0), sum(1 / Decimal(j) for j in range(1, n + 1))
        i_sum = psi_sum = Decimal(0)
        k = 0
        # past k = t the terms fall by t/((k+1)(n+k+1)) < 1/2, so the tail is below u
        while k <= t or u > eps * i_sum:
            i_sum += u
            psi_sum += (h_k + h_nk) * u
            k += 1
            u *= t / (k * (n + k))
            h_k += 1 / Decimal(k)
            h_nk += 1 / Decimal(n + k)
        power = half ** n
        sign = -1 if n % 2 else 1
        value = (finite / (2 * power)
                 - sign * (half.ln() + EULER_GAMMA) * power * i_sum
                 + sign * power * psi_sum / 2)
        ctx.prec = 50
        return +value


def bessel_sum_check(ell: int, C: float) -> bool:
    """Telescoping K-Bessel sum: S_l = (-1)^l C^(2l)/(l!)^2 K_0(2C).

    The alternating sum cancels about 2l log10(1/C) + log10(K_2l/K_0) digits
    (15 at l = 6, C = 0.5), so meeting its 1e-10 relative tolerance needs
    working precision well past binary64; the sum is therefore evaluated in
    ``decimal`` at 50 digits.  Both sides read K_v(2C) from
    :func:`_besselk_50`, which sums each order from the integer-order power
    series (DLMF 10.31.1) with ceil(2x/ln 10) + 10 guard digits, agrees with
    mpmath.besselk to 1e-45 relative in the tests, and evaluates each
    (v, 2C) once per process: a sweep over l <= L at a fixed C costs 2L + 1
    Bessel evaluations (orders 0..2L), not (L + 1)(L + 4)/2.  No order comes
    from the three-term recurrence, since the identity is that recurrence
    summed: at l = 1, C K_1 - C^2 K_2 = -C^2 K_0 is the recurrence at v = 1,
    and recurrence values would pass it whatever their error.
    """
    if not 0.1 <= C <= 10:
        raise ValidationError("C outside the checked window [0.1, 10]")
    with localcontext() as ctx:
        ctx.prec = 50
        Cd = Decimal(C)
        lhs = sum((-1) ** k * Cd ** (ell + k) * _besselk_50(ell + k, 2 * C)
                  / (math.factorial(k) ** 2 * math.factorial(ell - k))
                  for k in range(ell + 1))
        rhs = (-1) ** ell * Cd ** (2 * ell) / math.factorial(ell) ** 2 \
            * _besselk_50(0, 2 * C)
        ok = abs(lhs - rhs) <= Decimal(1e-10) * abs(rhs)
    # anchor the binary64 Bessel to the same identity where it can resolve it
    if ell <= 1:
        lhs64 = sum((-1) ** k * C ** (ell + k) * bessel_k(ell + k, 2 * C)
                    / (math.factorial(k) ** 2 * math.factorial(ell - k))
                    for k in range(ell + 1))
        rhs64 = ((-1) ** ell * C ** (2 * ell) / math.factorial(ell) ** 2
                 * bessel_k(0, 2 * C))
        ok = ok and abs(lhs64 - rhs64) <= 1e-9 * abs(rhs64)
    return ok


def rank1_vanishing_check(ell: int, j: int) -> bool:
    """Planar integral value and the alternating factorial sum that kills it.

    (a) 2 pi int_0^inf rho^(2l-2j+1) / (1+rho^2)^(2l+1) drho equals
        pi (l-j)! (l+j-1)! / (2l)! to 1e-9 relative;
    (b) sum_j (-1)^j C(l,j)^2 (l-j)! (l+j-1)! = 0 exactly (l >= 1).
    """
    if not (ell >= 1 and 0 <= j <= ell):
        raise ValidationError("need l >= 1 and 0 <= j <= l")
    num = TWO_PI * _quad_halfline(
        lambda r: r ** (2 * ell - 2 * j + 1) / (1 + r * r) ** (2 * ell + 1))
    closed = (math.pi * math.factorial(ell - j) * math.factorial(ell + j - 1)
              / math.factorial(2 * ell))
    if abs(num - closed) > 1e-9 * abs(closed):
        return False
    alt = sum((-1) ** i * math.comb(ell, i) ** 2
              * math.factorial(ell - i) * math.factorial(ell + i - 1)
              for i in range(ell + 1))
    if alt != 0:
        return False
    # same vanishing through the hypergeometric lens: 2F1(l, -l; 1; 1) = 0
    return hyp2f1_terminating(ell, Fraction(ell), Fraction(1), Fraction(1)) == 0
