"""The p-adic Siegel-series engine.

Three ingredients, all exact:

* closed-form terms for the two quadratic lattice shapes that occur (a
  split hyperbolic lattice of rank 2m, and the ramified normal form of rank
  4m with quadratic form Sum_{i<=m} x_i y_i + p Sum_{i>m} x_i y_i).  A term
  reads eta only through its invariants: :meth:`QuadLatticeShape.invariants`
  reads them, and :meth:`QuadLatticeShape.series` picks the closed form,
  the B-series (:func:`b_series`, built in one pass) on the split shape or
  C_{r,eta} (:func:`c_term`) on the ramified one.  :func:`term_closed`
  takes eta itself, as the oracle does;
* a lattice-count oracle that recomputes any single term from the points
  of (Z/p^r)^rank; q and the character argument are sums over the
  hyperbolic pairs, so their joint count is a cyclic convolution of one
  histogram per pair over (Z/p^r)^2, and the character sum collapses
  exactly through the Galois average
      term = #[q = 0, (eta, y) = 0 mod p^r] - #[q = 0, v((eta, y)) = r-1] / (p - 1),
  so no root of unity and no float is ever touched;
* assembly of the full local series E^T_{2,p}(s) as a polynomial in
  t = p^(-s), and extraction of the normalized local polynomials P, R and
  Q_{T,p} by exact division.

The series is a sum of blocks (:func:`series_blocks`), one per eta: its
invariants, its r range, where each term lands and its closed-form terms,
built once per :class:`qeis.hermitian.LocalKey`; blocks with equal
invariants share one terms tuple.  The series assembly, both
routes of Q and the oracle check (:func:`check_against_oracle`, which
recounts each term) read the same blocks; only the oracle check, through
each block's eta, and :func:`q_poly`'s check of a declared key read
coordinates.

The powers of p come from one table per prime (:func:`power_table`), and
the geometric sums 1 + p^e + ... + p^(e(a-1)) from one table per (p, e)
(:func:`geometric_table`), both grown on demand.  Every closed form, every
extraction and assembly pass here and :func:`qeis.lift.lift_local_exact`
read them; only :func:`c_term_gauss`, the independent reference, and the
oracle compute their own powers.  Each pass is a plain int loop: one per
B-series, one per block of the assembly, and for P, R and Q a quotient
pass (:func:`qeis.arith.divide_exact_coeffs`) then a rescale pass,
remainders checked in that order.

The first-range numerator of the ramified closed form is implemented as
p^(r(2m-1)) - 1 (geometric-sum reading); :func:`qeis.verify.r_arbitration`
shows that the literal reading p^(r(2m-1)-1) fails the extraction
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, NamedTuple

import numpy as np

from .arith import IntPoly, Splitting, SqrtPPoly, divide_exact_coeffs, ramanujan_sum_vp, vp
from .errors import InternalConsistencyError, ResourceBudgetError, ValidationError
from .hermitian import LocalKey, LocalVectorData

DEFAULT_BUDGET = 10 ** 8


def _exact_quotient(a: int, b: int, what: str) -> int:
    """a // b for an int b that divides a; a remainder raises
    InternalConsistencyError with the message ``what``."""
    quot, rest = divmod(a, b)
    if rest:
        raise InternalConsistencyError(what)
    return quot


def _rescale(coeffs, scales, what: str) -> list:
    """[c // s for c, s in zip(coeffs, scales)] for int scales that divide
    their coefficients; a remainder raises InternalConsistencyError with the
    message ``what``."""
    return [_exact_quotient(c, s, what) for c, s in zip(coeffs, scales)]


_POWER_TABLES: dict = {}


def power_table(p: int, top: int) -> tuple:
    """(p^0, p^1, ...), at least up to p^top: one table per prime, grown on
    demand and shared by every loop here and in :mod:`qeis.lift` that reads
    powers of p.  A grown table replaces the old one, which is never changed."""
    table = _POWER_TABLES.get(p, (1,))
    if len(table) <= top:
        grown = list(table)
        while len(grown) <= top:
            grown.append(grown[-1] * p)
        table = _POWER_TABLES[p] = tuple(grown)
    return table


_GEOMETRIC_TABLES: dict = {}


def geometric_table(p: int, e: int, top: int) -> tuple:
    """(G_0, G_1, ...), G_a = 1 + p^e + ... + p^(e(a-1)) the geometric sum of
    a terms, at least up to G_top: one table per (p, e), grown on demand as
    :func:`power_table` is, by G_(a+1) = p^e G_a + 1."""
    table = _GEOMETRIC_TABLES.get((p, e), (0,))
    if len(table) <= top:
        step = power_table(p, e)[e]
        grown = list(table)
        while len(grown) <= top:
            grown.append(grown[-1] * step + 1)
        table = _GEOMETRIC_TABLES[p, e] = tuple(grown)
    return table


# ---------------------------------------------------------------------------
# Lattice shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadLatticeShape:
    """A split hyperbolic or ramified-normal-form quadratic Z_p-lattice.

    form "split": rank 2m, q(x_1..x_m, y_1..y_m) = Sum x_i y_i.
    form "ramified": rank 4m, q(x_1..x_2m, y_1..y_2m) =
        Sum_{i<=m} x_i y_i + p Sum_{i>m} x_i y_i.
    """

    p: int
    m: int
    form: str

    def __post_init__(self):
        if self.form not in ("split", "ramified"):
            raise ValidationError(f"unknown lattice form {self.form!r}")
        if self.m < 1:
            raise ValidationError("lattice rank parameter m must be >= 1")

    @property
    def rank(self) -> int:
        return 2 * self.m if self.form == "split" else 4 * self.m

    @property
    def pair_weights(self) -> tuple:
        """Weight of the i-th hyperbolic pair in q (1 or p)."""
        if self.form == "split":
            return (1,) * self.m
        return (1,) * self.m + (self.p,) * self.m

    def quad_form(self, vec):
        """q(vec) with vec laid out x-block then y-block."""
        half = self.rank // 2
        ws = self.pair_weights
        return sum(w * vec[i] * vec[half + i] for i, w in enumerate(ws))

    def _weighted(self, vec) -> list:
        """w_i * vec_i for every coordinate; ints stay ints, the rest become Fractions."""
        return [w * (vec[i] if isinstance(vec[i], int) else Fraction(vec[i]))
                for i, w in enumerate(self.pair_weights * 2)]

    def dual_scaled(self, vec) -> list:
        """Integer vector of pairings used in characters: weight-scaled coordinates.

        For eta in the dual lattice every entry w_i * eta_i is integral even
        when the p-block carries denominator p.
        """
        out = self._weighted(vec)
        if any(c.denominator != 1 for c in out):
            raise ValidationError("vector lies outside the dual lattice")
        return [int(c) for c in out]

    def in_dual(self, vec) -> bool:
        return all(c.denominator == 1 for c in self._weighted(vec))

    def invariants(self, eta):
        """All the closed form reads of eta.

        Split: (v(eta), v_p(q(eta))), None outside the lattice; both are +inf
        for the zero vector, and v_p(q(eta)) is +inf when eta is isotropic.
        Ramified: (k1, k2, k) with k1 = min(v(eta_1), v(eta_2)) and
        k2 = min(v(eta_1), v(eta_2) + 1), eta_1 the unit block and eta_2 the
        p-block, and k = v_p(q(eta)).  Ramified coordinates given as ints stay
        in int arithmetic; any other input, dual vectors included, goes
        through Fraction.
        """
        p, m, half = self.p, self.m, self.rank // 2
        if self.form == "split":
            if not all(type(c) is int or Fraction(c).denominator == 1 for c in eta):
                return None
            eta = [int(c) for c in eta]
            return min(vp(c, p) for c in eta), vp(self.quad_form(eta), p)
        if not all(isinstance(c, int) for c in eta):
            eta = [Fraction(c) for c in eta]
        v1 = min(_vp_frac(c, p) for c in [*eta[:m], *eta[half:half + m]])
        v2 = min(_vp_frac(c, p) for c in [*eta[m:half], *eta[half + m:]])
        return min(v1, v2), min(v1, v2 + 1), _vp_frac(self.quad_form(eta), p)

    def series(self, inv, rs: range) -> tuple:
        """The terms r in ``rs`` at invariants ``inv``: :func:`b_series` on the
        split lattice, :func:`c_term` at each r on the ramified one."""
        if self.form == "ramified":
            return tuple(c_term(r, *inv, self.m, self.p) for r in rs)
        return b_series(*inv, self.m, self.p, rs)


def split_shape(p: int, m: int) -> QuadLatticeShape:
    return QuadLatticeShape(p, m, "split")


def ramified_shape(p: int, m: int) -> QuadLatticeShape:
    return QuadLatticeShape(p, m, "ramified")


def _vp_frac(x, p: int):
    if isinstance(x, int):
        return vp(x, p)
    x = Fraction(x)
    if x == 0:
        return math.inf
    return vp(x.numerator, p) - vp(x.denominator, p)


# ---------------------------------------------------------------------------
# Closed-form terms
# ---------------------------------------------------------------------------

def term_closed(r: int, eta, shape: QuadLatticeShape) -> int:
    """Term r of eta by the closed form of its shape, as :func:`term_oracle` counts it.

    B_{r,eta} on the split lattice, 0 for eta outside it; C_{r,eta} on the
    ramified one.
    """
    if r < 0:
        raise ValidationError("term index r must be >= 0")
    inv = shape.invariants(eta)
    return 0 if inv is None else shape.series(inv, range(r, r + 1))[0]


def b_series(v, kq, m: int, p: int, rs: range) -> tuple:
    """B_{r,eta} for r in ``rs``, from v = v(eta) and kq = v_p(q(eta)) alone,
    in int arithmetic.

    Gauss-sum factorization over the hyperbolic pairs gives

      B_{r,eta} = p^-r ( p^{2mr} [v >= r]
                  + Sum_{j=0}^{min(r-1, v)} p^{m(r+j)} c_{p^{r-j}}(q(eta)/p^{2j}) )

    with c the unit Ramanujan sum, which reads q(eta)/p^{2j} only through its
    valuation kq - 2j; the value is always an integer.  The sum stops at
    top = min(r - 1, v, kq - r + 1), past which c vanishes, and has two cases:

      j <= kq - r:      c = (p - 1) p^(r-j-1), so these terms are the one
                        geometric series (p - 1) p^(mr+r-1) Sum_{j<=g} p^((m-1)j)
                        with g = min(top, kq - r), empty when g < 0;
      j = kq - r + 1:   c = -p^(r-j-1), a single term p^(m(r+j)+r-j-1)
                        subtracted when j <= top.

    The series is built in one int loop: the prime's :func:`power_table`,
    read up to p^(2mR), R the last r, and its :func:`geometric_table` of
    ratio p^(m-1) serve every term, and each term's division by p^r must
    leave no remainder.  Either valuation may be +inf (v = kq = inf for the
    zero vector); every exponent stays a finite int.
    """
    if rs and rs[0] < 0:
        raise ValidationError("term index r must be >= 0")
    last = rs[-1] if rs else 0
    power = power_table(p, 2 * m * last)
    geo = geometric_table(p, m - 1, last)
    unit = p - 1
    terms = []
    for r in rs:
        if r == 0:
            terms.append(1)
            continue
        total = power[2 * m * r] if v >= r else 0
        g = r - 1  # top = min(r - 1, v, j), and g = min(top, j - 1)
        if v < g:
            g = v
        j = kq - r + 1
        if j <= g:  # top = j: the sum ends in the single term at j
            if j >= 0:
                total -= power[m * (r + j) + r - j - 1]
            g = j - 1
        if g >= 0:
            total += unit * power[m * r + r - 1] * geo[g + 1]
        terms.append(_exact_quotient(total, power[r], "non-integral unramified term"))
    return tuple(terms)


def c_term(r: int, k1, k2, k, m: int, p: int) -> int:
    """C_{r,eta} from the invariants (k1, k2, k) alone.

    Handles the dual-but-not-integral case k1 = -1 (term is 1 at r = 0 and 0
    after) and returns 0 identically when k2 < 0.
    """
    if r < 0:
        raise ValidationError("term index r must be >= 0")
    if k2 < 0:
        return 0
    if k1 == -1:
        return 1 if r == 0 else 0
    if k1 < -1 or k2 not in (k1, k1 + 1) or k - k1 - k2 < 0:
        raise ValidationError(f"inconsistent ramified invariants {(k1, k2, k)}")
    if r == 0:
        return 1
    if r > k + 1:
        return 0
    # every table is sized from r or from a finite k: k1, k2 and k may be
    # +inf (k for an isotropic eta, all three for the zero vector), and the
    # last range, where k < r + k1, is the only one that reads k
    if r <= k2:
        top = r
    elif r <= k - k1:
        top = k1 + 1
    else:
        top = k - r + 1
    power = power_table(p, 4 * m * r)  # p^(r(4m-1)) and p^((2r+1)m-1) lie below p^(4mr)
    # Sum_{j < top} (p - 1) p^((2r+2j+1)m - j - 1) = (p - 1) p^((2r+1)m-1) G_top
    geo = (p - 1) * power[(2 * r + 1) * m - 1] * geometric_table(p, 2 * m - 1, top)[top]
    if r <= k2:
        return power[r * (4 * m - 1)] + geo
    if r <= k - k1:
        return geo
    e = (2 * k + 3) * m + r - k - 2
    return geo - power_table(p, e)[e]


def c_term_gauss(r: int, k1, k2, k, m: int, p: int) -> int:
    """Same C_{r,eta}, from the single Gauss/Ramanujan-sum formula.

    Used as an internal cross-check of the four-range case analysis:
    C_r = p^-r ( p^{4mr} [k2 >= r]
          + Sum_{j=0}^{min(r-1, k1)} p^{(2r+2j+1)m} c_{p^{r-j}}(p^{k-2j}) ).
    It computes its powers of p with ``**`` on purpose, not from
    :func:`power_table`: as the independent reference it shares no table
    with :func:`c_term`.
    """
    if k2 < 0:
        return 0
    if k1 == -1:
        return 1 if r == 0 else 0
    if r == 0:
        return 1
    total = p ** (4 * m * r) if k2 >= r else 0
    for j in range(min(r - 1, k1) + 1):
        total += p ** ((2 * r + 2 * j + 1) * m) * ramanujan_sum_vp(p, r - j, k - 2 * j)
    return _exact_quotient(total, p ** r, "non-integral ramified term")


# ---------------------------------------------------------------------------
# Lattice-count oracle
# ---------------------------------------------------------------------------

_INT64_EXACT = 1 << 63  # every count is at most p^(r*rank); int64 holds it below this


def _pair_histogram(w: int, a: int, b: int, mod: int):
    """H[u, v] = #{(x, y) in (Z/mod)^2 : w*x*y = u, a*x + b*y = v mod mod}."""
    x = np.arange(mod, dtype=np.int64).reshape(mod, 1)
    y = x.reshape(1, mod)
    # reducing the length-mod factors first keeps every product below mod^2
    u = (w * x % mod) * y % mod
    v = (a * x % mod + b * y % mod) % mod
    return np.bincount((u * mod + v).ravel(), minlength=mod * mod).reshape(mod, mod)


def _convolve(hist_a, hist_b):
    """Exact cyclic convolution of two int64 histograms over (Z/mod)^2."""
    mod = len(hist_a)
    idx = np.arange(mod)
    diff = (idx[None, :] - idx[:, None]) % mod  # diff[s, u] = u - s
    # along the pairing axis: part[s, u, v] = Sum_t a[s, t] b[u, v - t]
    part = np.einsum("st,utv->suv", hist_a, hist_b[:, diff])
    # along the q axis: out[u, v] = Sum_s part[s, u - s, v]
    return part[idx[:, None], diff].sum(axis=0)


def term_oracle(r: int, eta, shape: QuadLatticeShape, budget: int = DEFAULT_BUDGET):
    """Independent exact count of a single Siegel-series term.

    Counts points y of L/p^r L with q(y) = 0 mod p^r by the residue level of
    the character argument (eta, y) mod p^r and collapses the character sum
    exactly.  The pair histograms but the last are convolved, and the result
    is contracted with the last one, once as is and once with the pairing
    axis folded mod p^(r-1).  Works for any eta in the dual lattice (p-block
    denominators allowed) and returns 0 otherwise.  ``budget`` bounds
    p^(r*rank), the size of the lattice counted, not the work done.
    """
    if r < 0:
        raise ValidationError("term index r must be >= 0")
    if not shape.in_dual(eta):
        return 0
    if r == 0:
        return 1
    p = shape.p
    rank = shape.rank
    mod = p ** r
    total_points = mod ** rank
    if total_points > budget:
        raise ResourceBudgetError(
            f"enumeration of p^(r*rank) = {total_points} points exceeds budget {budget}")
    if total_points >= _INT64_EXACT:
        raise ResourceBudgetError(
            f"p^(r*rank) = {total_points} points overflow the exact int64 count")
    half = rank // 2
    scaled = shape.dual_scaled(eta)
    # character argument (eta, y) = Sum w_i (eta_{half+i} x_i + eta_i y_i) mod p^r
    pairs = [(w, scaled[half + i], scaled[i]) for i, w in enumerate(shape.pair_weights)]
    head = [_pair_histogram(w % mod, a % mod, b % mod, mod) for w, a, b in pairs[:-1]]
    if head:
        acc = reduce(_convolve, head)
    else:  # m = 1: the unit mass at (0, 0), the histogram of the empty sum
        acc = np.zeros((mod, mod), dtype=np.int64)
        acc[0, 0] = 1
    # the last pair with negated coefficients counts its points at (-u, -v), so
    # the elementwise product counts the points with q = 0 and pairing = 0
    w, a, b = pairs[-1]
    last = _pair_histogram(-w % mod, -a % mod, -b % mod, mod)
    m_full = int((acc * last).sum())
    fold = mod // p  # pairing = 0 mod p^(r-1): sum the pairing axis over its lift
    m_prev = int((acc.reshape(mod, p, fold).sum(axis=1)
                  * last.reshape(mod, p, fold).sum(axis=1)).sum()) - m_full
    return m_full - _exact_quotient(m_prev, p - 1, "oracle character collapse is non-integral")


# ---------------------------------------------------------------------------
# Local series assembly
# ---------------------------------------------------------------------------

class SeriesBlock(NamedTuple):
    """One eta of the local series: for r in ``rs``, term r of eta times
    p^(r + power) adds to the coefficient of t^(2r + shift), a negative
    exponent dividing exactly.  ``inv`` is what the closed form reads, as
    :meth:`QuadLatticeShape.invariants` gives it, and ``terms`` its terms
    for r in ``rs``, a tuple of ints that every block of the key with the
    same (inv, rs) shares.  ``eta(data)`` builds the vector itself from the
    coordinates, which only the oracle check needs; ``name`` says how eta
    comes from T."""

    name: str
    inv: tuple
    rs: range
    shift: int
    power: int
    eta: Callable[[LocalVectorData], tuple]
    terms: tuple


def series_blocks(key: LocalKey):
    """(shape, blocks) of the local series E^T_{2,p}(s), per splitting case.

    Every block's invariants come from the key alone; coordinates are read
    only by ``eta(data)``.  Inert: T itself, a
    single B-series in t^2 with invariants (k1, k).  Split: the double sum over
    (r1, r2) splits into the diagonal and the wedges r1 < r2, r1 > r2, each a
    shifted B-series of (p^-i T1, T2), i = 0..k1, or (T1, p^-j T2),
    j = 1..k2: dividing a block by p^i lowers its valuation and v_p(q) by i,
    so block (i, j) has invariants (min(k1 - i, k2 - j), k - i - j).
    Ramified: the even part is the C-series of T/varpi, with invariants
    (k2 - 1, k1, k - 1), and the odd part p^(s-n) times the C-series of T
    less its r = 0 term.

    Each series is built in one pass (:meth:`QuadLatticeShape.series`), once
    per distinct (inv, rs): blocks with equal invariants share one terms
    tuple.  When k1 = k2, block (p^-i T1, T2) and block (T1, p^-i T2) are
    such a pair.
    """
    p, case, n, k, k1, k2 = key
    shape = ramified_shape(p, n // 2) if case is Splitting.RAMIFIED else split_shape(p, n)
    built = {}

    def block(name, inv, rs, shift, power, eta):
        terms = built.get((inv, rs))
        if terms is None:
            terms = built[inv, rs] = shape.series(inv, rs)
        return SeriesBlock(name, inv, rs, shift, power, eta, terms)

    if case is Splitting.RAMIFIED:
        return shape, [block("T/varpi", (k2 - 1, k1, k - 1), range(k + 1), 0, 0,
                             lambda data: data.coords_over_uniformizer),
                       block("T", (k1, k2, k), range(1, k + 2), -1, -n, lambda data: data.coords)]
    if case is Splitting.INERT:
        return shape, [block("T", (k1, k), range(k + 2), 0, 0, lambda data: data.coords)]
    return shape, [block(
        f"(p^-{i} T1, T2)" if i else f"(T1, p^-{j} T2)" if j else "T",
        (min(k1 - i, k2 - j), k - i - j), range(k - i - j + 2), i + j, n * (i + j),
        lambda data, i=i, j=j: tuple(Fraction(c, p ** (i if h < n else j))
                                     for h, c in enumerate(data.coords)))
        for i, j in [(i, 0) for i in range(k1 + 1)] + [(0, j) for j in range(1, k2 + 1)]]


def assemble_series(key: LocalKey, blocks=None) -> IntPoly:
    """The truncated local series E^T_{2,p}(s) as an exact polynomial in
    t = p^(-s): the sum of :func:`series_blocks`, in Python ints.

    Each block is one pass over coefficients 2r + shift, r in rs: term r
    times p^(r + power) read from the prime's :func:`power_table`, or
    divided exactly by p^-(r + power) where that exponent is negative (the
    odd ramified block).  ``blocks`` is the block list of
    :func:`series_blocks`, built here when None.
    """
    n, k = key.n, key.k
    if blocks is None:
        _, blocks = series_blocks(key)
    power = power_table(key.p, n * (k + 1))  # every |r + b.power| is at most n(k + 1)
    coeffs = [0] * (2 * k + 3)
    for b in blocks:
        # the index and exponent of the first term, each advanced per term
        terms, i, e = b.terms, 2 * b.rs.start + b.shift, b.rs.start + b.power
        if e < 0:  # the odd ramified block: its first -e terms divide exactly
            head, terms = terms[:-e], terms[-e:]
            for t in head:
                coeffs[i] += _exact_quotient(
                    t, power[-e], "assembled local series has non-integral term")
                i += 2
                e += 1
        for t in terms:
            coeffs[i] += t * power[e]
            i += 2
            e += 1
    return IntPoly(coeffs)


def check_against_oracle(data: LocalVectorData, budget: int = DEFAULT_BUDGET) -> None:
    """Recount every term of the assembled local series with :func:`term_oracle`.

    Walks the blocks that :func:`assemble_series` sums, one term at a time; a
    closed-form term the oracle disagrees with raises InternalConsistencyError
    naming the key, r and eta.
    """
    shape, blocks = series_blocks(data.key)
    for b in blocks:
        eta = b.eta(data)
        for r, closed in zip(b.rs, b.terms):
            oracle = term_oracle(r, eta, shape, budget=budget)
            if oracle != closed:
                raise InternalConsistencyError(
                    f"oracle disagrees with the closed form at {data.key}, r = {r}, "
                    f"eta = {b.name} = ({', '.join(map(str, eta))}): "
                    f"closed {closed}, oracle {oracle}")


# ---------------------------------------------------------------------------
# Extraction of P, R, Q
# ---------------------------------------------------------------------------

def extract_P(series: IntPoly, m: int, p: int) -> IntPoly:
    """The monic P with sum_r B_r t'^r = (1 - p^(m-1) t') P(p^m t').

    A quotient pass over the coefficient list (:func:`divide_exact_coeffs`),
    then a rescale pass dividing coefficient i by p^(mi), both in plain int
    lists.  The division must be exact, the rescaled coefficients integral,
    and the quotient monic, checked in that order; anything else signals
    corrupted input.
    """
    power = power_table(p, m * (len(series.coeffs) + 1))
    quot = divide_exact_coeffs(series.coeffs, power[m - 1], 1)
    poly = IntPoly(_rescale(quot, power[0:m * len(quot):m],
                            "P extraction produced a non-integer coefficient"))
    if not poly.is_monic():
        raise InternalConsistencyError(f"extracted P = {poly} is not monic")
    return poly


def R_closed_form(k1: int, k2: int, k: int, m: int, p: int) -> IntPoly:
    """The degree-k polynomial R of the ramified term theorem.

    Coefficient of X^r (r = 1..k), all scaled by p^m:
      r <= k2:            (p^(r(2m-1)) - 1)/(p^(2m-1) - 1)      [adopted reading]
      k2 < r <= k2 + k':  (p^((k1+1)(2m-1)) - 1)/(p^(2m-1) - 1)
      k2 + k' < r <= k:   (p^((k-r+1)(2m-1)) - 1)/(p^(2m-1) - 1)
    """
    if k2 < 0 or k1 < -1 or k2 not in (k1, k1 + 1) or k - k1 - k2 < 0:
        raise ValidationError(f"inconsistent ramified invariants {(k1, k2, k)}")
    kp = k - k1 - k2
    scale = power_table(p, m)[m]
    geo = geometric_table(p, 2 * m - 1, k + 1)
    coeffs = [0] * (k + 1)
    for r in range(1, k + 1):
        a = r if r <= k2 else k1 + 1 if r <= k2 + kp else k - r + 1
        coeffs[r] = scale * geo[a]
    return IntPoly(coeffs)


def extract_R(series: IntPoly, k1: int, k2: int, k: int, m: int, p: int) -> list:
    """Recover R from a C-series via the term theorem's display.

    sum_r C_r t'^r = (1 - p^(2m-1) t') R(p^(2m) t')
                     + sum_{r=0}^{k2} (p^(4m-1) t')^r
                     - p^(3m-1) t' sum_{r=0}^{k1} (p^(4m-1) t')^r.
    Returns the int coefficient list of R; a remainder of the division or
    of the rescaling by p^(2m i) raises InternalConsistencyError.
    """
    reduced = list(series.coeffs) + [0] * max(k + 3 - len(series.coeffs), 0)
    power = power_table(p, 4 * m * len(reduced))  # every exponent below is below that
    for r in range(k2 + 1):
        reduced[r] -= power[r * (4 * m - 1)]
    for r in range(k1 + 1):
        reduced[r + 1] += power[3 * m - 1 + r * (4 * m - 1)]
    while reduced and not reduced[-1]:  # so the quotient ends at R's degree
        reduced.pop()
    quot = divide_exact_coeffs(reduced, power[2 * m - 1], 1)
    return _rescale(quot, power[0:2 * m * len(quot):2 * m],
                    "R extraction produced a non-integer coefficient")


def palindromic(coeffs, d: int) -> bool:
    """X^d F(1/X) == F(X) for the F of a coefficient list; False when deg F > d."""
    padded = list(coeffs) + [0] * (d + 1 - len(coeffs))
    return len(padded) == d + 1 and padded == padded[::-1]


def _check_functional_equation(key: LocalKey, name: str, poly: IntPoly, d: int) -> None:
    """InternalConsistencyError naming key and poly unless X^d poly(1/X) == poly(X)."""
    if not palindromic(poly.coeffs, d):
        raise InternalConsistencyError(
            f"{name} fails its functional equation at degree {d} at {key}: {list(poly.coeffs)}")


def _q1_closed(k1: int, k2: int, k: int, m: int, p: int) -> list:
    """Odd-part polynomial Q1, coefficient of X^(2r+1) for r = 0..k-1."""
    geo = geometric_table(p, 2 * m - 1, k)
    return [geo[r + 1 if r <= k2 - 1 else k2 if r < k - k2 else k - r] for r in range(k)]


def _q2_closed(k1: int, k2: int, k: int, m: int, p: int) -> list:
    """Even-part polynomial Q2, coefficient of X^(2r) for r = 0..k."""
    geo = geometric_table(p, 2 * m - 1, k + 1)
    return [geo[r + 1 if r <= k1 else k1 + 1 if r < k - k1 else k - r + 1]
            for r in range(k + 1)]


def q_poly_closed_form(key: LocalKey, blocks=None) -> SqrtPPoly:
    """Q_{T,p} assembled from the closed forms, case by case.

    Split: Q(X) = P_T(X^2) + Sum_i p^(i(n-1)/2) X^i P_{(p^-i T1, T2)}(X^2)
                 + Sum_j p^(j(n-1)/2) X^j P_{(T1, p^-j T2)}(X^2).
    Inert: Q(X) = P_T(X^2).
    Ramified: Q(X) = R_{T/varpi}(X^2) + Q2(X) + p^(m-1/2) Q1(X)
                    + p^(1/2-m) X^-1 R_T(X^2).
    Each P is extracted from the B-series of one block of
    :func:`series_blocks`, read off (v(eta), v_p(q(eta))), in Python ints,
    once per distinct (inv, rs), the key :func:`series_blocks` shares each
    terms tuple under, and so the degree b.inv[1] of the functional equation
    is part of it; each block adds its shifted P.  ``blocks`` is the block list
    of :func:`series_blocks`, built here when None; the ramified case reads
    only (k, k1, k2).  Every power of p, and every geometric sum of the
    ramified closed forms, comes from the prime's tables.

    Each P must be palindromic at its block's v_p(q(eta)) (P(0) = 1 then
    fixes its degree), R_T at degree k + 1 and R_{T/varpi} at degree k
    (Katsurada 1999); anything else raises InternalConsistencyError naming
    the key and the polynomial (for a shared P, its first block).
    """
    p, case, n, k, k1, k2 = key
    d = [0] * (2 * k + 1)
    if case in (Splitting.SPLIT, Splitting.INERT):
        if blocks is None:
            _, blocks = series_blocks(key)
        power = power_table(p, k * (n - 1) // 2)
        extracted = {}
        for b in blocks:
            poly = extracted.get((b.inv, b.rs))
            if poly is None:
                poly = extracted[b.inv, b.rs] = extract_P(IntPoly(b.terms), n, p)
                _check_functional_equation(key, f"P_{b.name}", poly, b.inv[1])
            i = b.shift
            # the sqrt(p)-free part of p^(i(n-1)/2)
            scale = power[(i * (n - 1) - (i % 2)) // 2]
            for c in poly.coeffs:
                d[i] += c * scale
                i += 2
    else:
        m = n // 2
        power = power_table(p, m)
        r_t = R_closed_form(k1, k2, k, m, p)
        r_tw = R_closed_form(k2 - 1, k1, k - 1, m, p)
        _check_functional_equation(key, "R_T", r_t, k + 1)
        _check_functional_equation(key, "R_T/varpi", r_tw, k)
        for rr, c in enumerate(r_tw.coeffs):
            d[2 * rr] += c
        for rr, c in enumerate(_q2_closed(k1, k2, k, m, p)):
            d[2 * rr] += c
        for rr, c in enumerate(_q1_closed(k1, k2, k, m, p)):
            d[2 * rr + 1] += c * power[m - 1]
        # R_T has no constant term: its X^(2rr) lands at X^(2rr - 1), rr >= 1
        r_t_over = _rescale(r_t.coeffs[1:], [power[m]] * k,
                            "R_T coefficient not divisible by p^m")
        for rr, c in enumerate(r_t_over):
            d[2 * rr + 1] += c
    return SqrtPPoly(p, d)


def q_poly_from_series(key: LocalKey, series: IntPoly) -> SqrtPPoly:
    """Q_{T,p} by exact division of the local series of ``key``.

    Unramified: E(t) = (1 - p^n t^2) Q(p^((n+1)/2) t);
    ramified:   E(t) = (1 - p^(n/2) t) Q(p^((n+1)/2) t).
    A quotient pass over the coefficient list (:func:`divide_exact_coeffs`),
    then a rescale pass, both in plain int lists; a nonzero remainder of
    the division, then of a rescaling, raises InternalConsistencyError.
    """
    p, n = key.p, key.n
    power = power_table(p, n + len(series.coeffs) * (n + 1) // 2)
    if key.case is Splitting.RAMIFIED:
        quot = divide_exact_coeffs(series.coeffs, power[n // 2], 1)
    else:
        quot = divide_exact_coeffs(series.coeffs, power[n], 2)
    # the coefficient of t^i carries p^((i(n+1) + (i mod 2))/2) times its d entry
    scales = [power[(i * (n + 1) + i % 2) // 2] for i in range(len(quot))]
    return SqrtPPoly(p, _rescale(quot, scales, "series division broke the sqrt(p) grading"))


@lru_cache(maxsize=4096)
def q_poly_of_invariants(key: LocalKey) -> SqrtPPoly:
    """Q_{T,p} for every T with this key, which must be admissible
    (:meth:`LocalKey.check`); both routes read T only through the key, so
    they run once per key.  Callers with a global T read the key with
    :func:`qeis.hermitian.local_key`; :func:`q_poly` first checks a declared
    key against its coordinates."""
    key.check()
    _, blocks = series_blocks(key)
    closed = q_poly_closed_form(key, blocks)
    divided = q_poly_from_series(key, assemble_series(key, blocks))
    if closed != divided:
        raise InternalConsistencyError(
            f"Q paths disagree at {key}: closed {closed.d} vs series {divided.d}")
    if closed.degree != 2 * key.k or not closed.is_monic():
        raise InternalConsistencyError(
            f"Q has wrong degree or is not monic at {key}: {closed.d}")
    if not closed.is_palindromic():
        raise InternalConsistencyError(f"Q fails its functional equation at {key}: {closed.d}")
    return closed


def q_poly(data: LocalVectorData, P) -> SqrtPPoly | None:
    """The normalized local polynomial Q_{T,p}, computed by both routes.

    Closed-form assembly and series-division extraction are cross-asserted;
    the result is monic of degree 2k and palindromic, with integer even
    coefficients and sqrt(p)-integral odd coefficients by construction.
    Q depends on T only through ``data.key``, so the checked polynomial is
    computed once per key and shared.  The rank is ``data.n``; ``P`` only
    declares it, and ValidationError is raised when ``P.n`` differs.
    Returns None (the zero marker) when T lies outside the local lattice,
    and raises ValidationError when the declared key disagrees with the
    coordinates.
    """
    p, case, n, k, k1, k2 = key = data.key
    if P.n != n:
        raise ValidationError(f"local data at p={p} has n = {n}, but P declares n = {P.n}")
    if k1 < 0 or k2 < 0 or not all(type(c) is int or Fraction(c).denominator == 1
                                   for c in data.coords):
        return None
    # Q is served by key, so a key its coordinates do not carry would
    # silently return the polynomial of another key
    if len(data.coords) != 2 * n:
        raise ValidationError(
            f"local data at p={p} has {len(data.coords)} coordinates; n={n} needs {2 * n}")
    coords = [int(c) for c in data.coords]
    if case is Splitting.RAMIFIED:
        k1, k2, k = ramified_shape(p, n // 2).invariants(coords)
    else:
        k1 = min(vp(c, p) for c in coords[:n])
        k2 = min(vp(c, p) for c in coords[n:])
        if case is Splitting.INERT:
            k1 = k2 = min(k1, k2)
        k = vp(split_shape(p, n).quad_form(coords), p)
    read = LocalKey(p, case, n, k, k1, k2)
    if read != key:
        raise ValidationError(f"local data declares {key} but its coordinates carry {read}")
    return q_poly_of_invariants(key)
