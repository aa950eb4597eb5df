"""Verification suites: oracle equivalence, functional equations, identity
battery, and denominator bounds.

Each suite returns a report dict {"suite", "ok", "checks", "failures"}
where failures carry a serialized counterexample; the CLI turns a nonempty
failure list into exit code 3.  The acceptance tests drive these same
functions, so the CLI surface and the test suite check one body of code.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import archimedean as arch
from .arith import IntPoly, prime_factors, validate_prime, vp
from .errors import ValidationError
from .fourier import (d_nl, denominator_bound_check, full_expansion,
                      vectors_in_region)
from .hermitian import FieldE, Params, local_quadratic_data, norm
from .siegel import (DEFAULT_BUDGET, c_term_gauss, extract_R, palindromic,
                     R_closed_form, q_poly, ramified_shape, split_shape, term_oracle)

SUITES = ("oracle", "functional", "identities", "denominators", "all")


def _report(suite: str, checks: int, failures: list) -> dict:
    return {"suite": suite, "ok": not failures, "checks": checks,
            "failures": failures[:10]}


def _pad(coeffs, degree: int) -> list:
    return list(coeffs) + [0] * (degree + 1 - len(coeffs))


# ---------------------------------------------------------------------------
# Oracle grid
# ---------------------------------------------------------------------------

def sample_split_vectors(p: int, m: int, count: int, k_cap: int, seed: int = 7):
    """Deterministic split-lattice vectors covering valuations k <= k_cap."""
    rng = random.Random(seed * 10 ** 6 + p * 10 ** 3 + m)
    rank = 2 * m
    out = []
    while len(out) < count:
        scale = [p ** rng.randint(0, 2) for _ in range(rank)]
        vec = tuple(rng.randrange(1, p ** 3) * s if rng.random() > 0.1 else 0
                    for s in scale)
        shape = split_shape(p, m)
        q = shape.quad_form(vec)
        if q == 0:
            continue
        if vp(q, p) <= k_cap:
            out.append(vec)
    return out


def sample_ramified_vectors(p: int, m: int, count: int, k_cap: int, seed: int = 11):
    """Ramified-lattice vectors (including dual-only ones) with k <= k_cap."""
    rng = random.Random(seed * 10 ** 6 + p * 10 ** 3 + m)
    shape = ramified_shape(p, m)
    out = []
    while len(out) < count:
        vec = []
        for i in range(4 * m):
            c = rng.randrange(0, p ** 3) * p ** rng.randint(0, 1)
            vec.append(Fraction(c))
        # occasionally push the p-block into the dual
        if rng.random() < 0.2:
            half = 2 * m
            j = rng.choice([m + i for i in range(m)] + [half + m + i for i in range(m)])
            vec[j] = Fraction(rng.randrange(1, p ** 3), p)
        vec = tuple(vec)
        q = shape.quad_form(vec)
        if q == 0:
            continue
        k1, k2, k = shape.invariants(vec)
        if k2 < 0 or k > k_cap:
            continue
        out.append(vec)
    return out


ORACLE_PRIMES = (2, 3, 5)


def suite_oracle(ps=ORACLE_PRIMES, budget: int = DEFAULT_BUDGET, count: int = 50) -> dict:
    """Closed-form terms against the lattice-count oracle, plus the Gauss-sum route.

    The split shape covers split and inert p.  The ramified shape is checked
    at odd p only, since 2 is unramified in E.  Each vector's invariants are
    read, and its closed-form series built, once for all its terms.
    """
    failures = []
    checks = 0
    for p in ps:
        r_top = 3 if p <= 3 else 2
        grids = [(split_shape(p, 2), sample_split_vectors(p, 2, count, k_cap=3))]
        if p != 2:
            grids.append((ramified_shape(p, 1), sample_ramified_vectors(p, 1, count, k_cap=3)))
        for shape, vectors in grids:
            for vec in vectors:
                inv = shape.invariants(vec)
                closed = shape.series(inv, range(r_top + 1))
                for r in range(r_top + 1):
                    got = {"closed": closed[r],
                           "oracle": term_oracle(r, vec, shape, budget=budget)}
                    if shape.form == "ramified":
                        got["gauss"] = c_term_gauss(r, *inv, 1, p)
                    checks += 1
                    if len(set(got.values())) > 1:
                        failures.append({"shape": shape.form, "p": p, "r": r,
                                         "eta": [str(c) for c in vec],
                                         **{k: str(v) for k, v in got.items()}})
    return _report("oracle", checks, failures)


# ---------------------------------------------------------------------------
# Functional equations
# ---------------------------------------------------------------------------

def suite_functional(Ds=(3, 7, 11), norm_cap: int = 30, coord_cap: int = 40,
                     ell: int = 3) -> dict:
    """Exact functional equations for every P, R and Q on the global grid.

    Per (T, p), :func:`qeis.siegel.q_poly` checks that T's coordinates carry
    the key :func:`qeis.hermitian.local_key` read; per key, building Q
    asserts the equations of Q and of its P's or R's, raising
    InternalConsistencyError naming the key.  A pair counts two checks, Q
    and its P or R.  The coordinate cap is wide enough that every norm
    value up to norm_cap is realized for each D, which is asserted.
    """
    failures = []
    checks = 0
    P = Params(n=2, ell=ell)
    for D in Ds:
        F = FieldE(D)
        vectors = vectors_in_region(F, coord_cap, 1, norm_cap)
        covered = {norm(T, F) for T in vectors}
        missing = [v for v in range(1, norm_cap + 1) if v not in covered]
        if missing:
            failures.append({"D": D, "missing_norms": missing})
        for T in vectors:
            for p in prime_factors(norm(T, F)):
                q_poly(local_quadratic_data(T, F, p, P), P)
                checks += 2
    # synthetic ramified shapes beyond the global reach: all (m <= 2, k <= 4)
    for m in (1, 2):
        for p in (3, 7):
            for k1 in range(0, 3):
                for k2 in (k1, k1 + 1):
                    for kp in range(0, 3):
                        k = k1 + k2 + kp
                        if k > 4:
                            continue
                        rpoly = R_closed_form(k1, k2, k, m, p)
                        checks += 1
                        if not palindromic(rpoly.coeffs, k + 1):
                            failures.append({"m": m, "p": p, "poly": "R",
                                             "k": [k1, k2, k],
                                             "coeffs": list(rpoly.coeffs)})
    return _report("functional", checks, failures)


def r_arbitration(m_cap: int = 2, k_cap: int = 4, p: int = 3) -> dict:
    """Adopted vs literal first-range reading of the ramified R polynomial.

    The adopted reading is :func:`qeis.siegel.R_closed_form`, with first-range
    numerator p^(r(2m-1)) - 1; the literal one uses p^(r(2m-1)-1) there.  For
    every shape the adopted reading must match the extraction from the true
    C-series; the literal reading must fail somewhere.  Returns a dict
    with both outcomes recorded.
    """
    adopted_ok = True
    literal_ok = True
    literal_witness = None
    shapes = 0
    for m in range(1, m_cap + 1):
        lattice = ramified_shape(p, m)
        for k1 in range(0, k_cap + 1):
            for k2 in (k1, k1 + 1):
                for kp in range(0, k_cap + 1):
                    k = k1 + k2 + kp
                    if k > k_cap or k == 0:
                        continue
                    shapes += 1
                    series = IntPoly(lattice.series((k1, k2, k), range(k + 2)))
                    extracted = _pad(extract_R(series, k1, k2, k, m, p), k + 1)
                    adopted = _pad(R_closed_form(k1, k2, k, m, p).coeffs, k + 1)
                    literal = [Fraction(p ** m * p ** (r * (2 * m - 1) - 1),
                                        p ** (2 * m - 1) - 1) if 1 <= r <= k2 else c
                               for r, c in enumerate(adopted)]
                    if adopted != extracted:
                        adopted_ok = False
                    if literal != extracted:
                        literal_ok = False
                        if literal_witness is None:
                            literal_witness = {"m": m, "k": [k1, k2, k],
                                               "literal": [str(c) for c in literal],
                                               "extracted": [str(c) for c in extracted]}
    return {"shapes": shapes, "adopted_matches_extraction": adopted_ok,
            "literal_matches_extraction": literal_ok,
            "literal_witness": literal_witness}


# ---------------------------------------------------------------------------
# Identity battery
# ---------------------------------------------------------------------------

def suite_identities() -> dict:
    failures = []
    checks = 0
    for ell in range(0, 13):
        ok, where = arch.comb_identity_check(ell)
        checks += 1
        if not ok:
            failures.append({"check": "comb_identity", "ell": ell, "at": where})
    for ell in range(0, 7):
        for C in (0.5, 1.0, 2.0):
            checks += 1
            if not arch.bessel_sum_check(ell, C):
                failures.append({"check": "bessel_sum", "ell": ell, "C": C})
    rng = random.Random(2024)
    for _ in range(20):
        m = rng.randint(0, 4)
        nn = rng.randint(m + 1, m + 7)
        C = rng.uniform(0.0, 3.0)
        Dv = rng.uniform(0.3, 4.0)
        checks += 1
        if not arch.gamma_integral_check(C, Dv, m, nn):
            failures.append({"check": "gamma_integral", "C": C, "Dv": Dv,
                             "m": m, "nn": nn})
    for ell in range(1, 11):
        for j in (0, ell // 2, ell):
            checks += 1
            if not arch.rank1_vanishing_check(ell, j):
                failures.append({"check": "rank1_vanishing", "ell": ell, "j": j})
    for _ in range(100):
        ell = rng.randint(0, 8)
        A = rng.uniform(0.05, 4.0)
        B = rng.uniform(0.0, 4.0)
        two = arch.f0_double_sum(A, B, ell)
        one = arch.f0_closed(A, B, ell)
        checks += 1
        if abs(one - two) > 1e-12 * max(abs(one), abs(two), 1e-300):
            failures.append({"check": "f0_dual_form", "ell": ell, "A": A, "B": B,
                             "closed": one, "double_sum": two})
    from .bessel import bessel_k

    for x in (0.01, 0.5, 2.0, 8.0, 25.0, 100.0):
        for v in (1, 2, 5, 10):
            lhs = bessel_k(v + 1, x)
            rhs = bessel_k(v - 1, x) + (2 * v / x) * bessel_k(v, x)
            checks += 1
            if abs(lhs - rhs) > 1e-11 * abs(lhs):
                failures.append({"check": "bessel_recurrence", "v": v, "x": x})
    return _report("identities", checks, failures)


# ---------------------------------------------------------------------------
# Denominator bounds
# ---------------------------------------------------------------------------

def suite_denominators(D: int = 3, ells=(3, 4, 5), bound: int = 12) -> dict:
    failures = []
    checks = 0
    F = FieldE(D)
    for ell in ells:
        P = Params(n=2, ell=ell)
        table = full_expansion(P, F, bound)
        ok, witness = denominator_bound_check(table)
        rank2 = [row for row in table.rows if row[5][0] == 2]
        checks += len(rank2)
        if not ok:
            failures.append({"check": "denominator_bound", "ell": ell,
                             "T": witness.T.as_list(),
                             "rational": str(witness.rational)})
        for ax, ay, bx, by, _, (_, rational, _, _) in rank2:
            checks += 1
            prod = rational / d_nl(P, F)
            if prod.denominator != 1 or prod <= 0:
                failures.append({"check": "local_product_positive_integer",
                                 "ell": ell, "T": [[ax, ay], [bx, by]],
                                 "product": str(prod)})
    return _report("denominators", checks, failures)


def run_suite(name: str, budget: int = DEFAULT_BUDGET, ps=None) -> list:
    """Run one suite, or all of them; ``ps`` replaces the oracle suite's primes."""
    if name not in SUITES:
        raise ValidationError(f"unknown suite {name!r}; choose from {SUITES}")
    if ps is None:
        ps = ORACLE_PRIMES
    for p in ps:
        validate_prime(p)
    reports = []
    if name in ("oracle", "all"):
        reports.append(suite_oracle(ps=ps, budget=budget))
    if name in ("functional", "all"):
        reports.append(suite_functional())
    if name in ("identities", "all"):
        reports.append(suite_identities())
    if name in ("denominators", "all"):
        reports.append(suite_denominators())
    return reports
