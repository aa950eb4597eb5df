"""Acceptance criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.  Criterion 9 (the 4-D quadrature of the archimedean constant) is
flagged slow and runs only with QEIS_SLOW=1.
"""

import math
import os
import random
import time
from fractions import Fraction

import pytest

from qeis.archimedean import arch_constant, gamma_integral_closed
from qeis.arith import Splitting, vp
from qeis.bessel import bessel_k
from qeis.fourier import c_ell, coefficient, d_nl
from qeis.hermitian import FieldE, Params, global_vector, local_quadratic_data, norm
from qeis.lift import delta_eigenvalues, lift_coefficient, lift_coefficient_numeric, satake_from_eigenvalue
from qeis.siegel import (assemble_series, q_poly, q_poly_closed_form,
                         q_poly_from_series, split_shape, term_closed,
                         term_oracle)
from qeis.verify import (r_arbitration, suite_denominators, suite_functional,
                         suite_identities, suite_oracle)

F3 = FieldE(3)
P3 = Params(n=2, ell=3)


def _announce(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} {detail}")
    assert ok


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    rep = suite_oracle(ps=(3, 5), count=50)
    dt = time.time() - t0
    _announce(1, rep["ok"] and dt < 120,
              f"closed forms == enumeration oracle on {rep['checks']} terms "
              f"(p in {{3,5}}, rank 4, k <= 3) in {dt:.1f}s")


def test_criterion_02_functional_equations():
    rep = suite_functional(Ds=(3, 7, 11), norm_cap=30)
    # two checks per (T, p) pair plus the synthetic R's, at the defaults and
    # at the two sizes the benchmark's verify workload runs
    assert rep["checks"] == 38656
    assert suite_functional(norm_cap=8, coord_cap=12)["checks"] == 2152
    assert suite_functional(Ds=[3], norm_cap=4, coord_cap=8)["checks"] == 396
    _announce(2, rep["ok"],
              f"X^k P(1/X)=P, X^(k+1) R(1/X)=R, X^(2k) Q(1/X)=Q exact on "
              f"{rep['checks']} polynomials (every norm <= 30 covered)")


def test_criterion_03_unit_norm_corollaries():
    rng = random.Random(19)
    checks = 0
    ok = True
    cases_seen = set()
    while checks < 120:
        T = global_vector(rng.randint(-9, 9), rng.randint(-9, 9),
                          rng.randint(-9, 9), rng.randint(-9, 9))
        nrm = norm(T, F3)
        if nrm == 0:
            continue
        for p in (2, 3, 5, 7, 11, 13):
            if vp(abs(nrm), p) != 0 or nrm < 0:
                continue
            if nrm < 0:
                continue
            data = local_quadratic_data(T, F3, p, P3)
            series = assemble_series(data.key)
            if data.case is Splitting.RAMIFIED:
                expect = [1, -3]
            else:
                expect = [1, 0, -(p ** 2)]
            got = list(series.coeffs)
            ok = ok and got == expect
            cases_seen.add(data.case)
            checks += 1
    _announce(3, ok and len(cases_seen) == 3,
              f"assemble_series == 1 - p^n t^2 (split/inert), 1 - p^(n/2) t "
              f"(ramified) on {checks} unit-norm localizations")


def test_criterion_04_typo_arbitration():
    arb = r_arbitration(m_cap=2, k_cap=4, p=3)
    ok = arb["adopted_matches_extraction"] and not arb["literal_matches_extraction"]
    _announce(4, ok,
              f"adopted numerator p^(r(2m-1))-1 matches extraction on "
              f"{arb['shapes']} shapes; literal reading fails "
              f"(witness {arb['literal_witness']['k']})")


def test_criterion_05_dual_path_q():
    rng = random.Random(23)
    checks = 0
    ok = True
    for D in (3, 7, 11):
        F = FieldE(D)
        seen = 0
        while seen < 40:
            T = global_vector(rng.randint(-8, 8), rng.randint(-8, 8),
                              rng.randint(-8, 8), rng.randint(-8, 8))
            nrm = norm(T, F)
            if nrm <= 0:
                continue
            seen += 1
            for p in (2, 3, 5, 7, 11, 13):
                if vp(nrm, p) == 0:
                    continue
                data = local_quadratic_data(T, F, p, P3)
                a = q_poly_closed_form(data.key)
                b = q_poly_from_series(data.key, assemble_series(data.key))
                ok = ok and a == b
                checks += 1
    _announce(5, ok, f"closed-form Q == series-division Q on {checks} (D, p, T)")


def test_criterion_06_integrality_and_denominators():
    rep = suite_denominators(D=3, ells=(3, 4, 5), bound=12)
    # Q evaluation integrality is asserted inside sqrtp_eval_halfint on the
    # same sweep; re-run it explicitly on a sample
    rng = random.Random(29)
    from qeis.arith import sqrtp_eval_halfint

    extra_ok = True
    seen = 0
    while seen < 30:
        T = global_vector(rng.randint(-7, 7), rng.randint(-7, 7),
                          rng.randint(-7, 7), rng.randint(-7, 7))
        nrm = norm(T, F3)
        if nrm <= 0:
            continue
        for p in (2, 3, 5, 7):
            if vp(nrm, p) == 0:
                continue
            q = q_poly(local_quadratic_data(T, F3, p, P3), P3)
            val = sqrtp_eval_halfint(q, 2 * P3.ell - P3.n + 1)
            extra_ok = extra_ok and isinstance(val, int)
        seen += 1
    _announce(6, rep["ok"] and extra_ok,
              f"Q(p^(l-(n-1)/2)) in Z and a_T (l!)^2 |B| sigma(D) in Z on "
              f"{rep['checks']} entries (l in {{3,4,5}}, norms <= 12)")


def test_criterion_07_forced_values():
    ok = d_nl(P3, F3) == 432
    ok = ok and c_ell(3) == Fraction(-32, 9)
    c = coefficient(global_vector(1, 0, 1, 0), P3, F3)
    ok = ok and c.rational == 14256
    # the local factor 33 = Q(2^(5/2)) confirmed by enumeration at p = 2:
    # B-series of the inert datum, every term re-derived by lattice counting
    data = local_quadratic_data(global_vector(1, 0, 1, 0), F3, 2, P3)
    sh = split_shape(2, 2)
    oracle_terms = [term_oracle(r, data.coords, sh) for r in range(data.k + 2)]
    closed_terms = [term_closed(r, data.coords, sh) for r in range(data.k + 2)]
    ok = ok and oracle_terms == closed_terms
    from qeis.arith import sqrtp_eval_halfint

    ok = ok and sqrtp_eval_halfint(c.local_q[2], 5) == 33
    _announce(7, ok,
              "D_{2,3} = 432, C_3 = -32/9, a_(1,1) = 432 * 33 = 14256, "
              f"local terms {closed_terms} oracle-confirmed at p = 2")


def test_criterion_08_archimedean_suite():
    t0 = time.time()
    rep = suite_identities()
    dt = time.time() - t0
    _announce(8, rep["ok"] and dt < 60,
              f"comb/bessel-sum/gamma-integral/rank-1-vanishing battery: "
              f"{rep['checks']} checks in {dt:.1f}s")


def fourier_constant_quadrature(ell: int = 3, r_cut: float = 30.0,
                                rho_cut: float = 30.0) -> tuple:
    """Direct quadrature of the rank-2 archimedean integral at T = (1, 1), n = 2.

    The 4+1 dimensional integral defining the u1^l u2^l coefficient collapses
    to two radial variables: with w = z1 + z2, d = z1 - z2, Lebesgue measure
    on the complex coordinates, and the character e^(-2 pi i tr<T, v>)
    (tr<T, v> = 2 Re(w), matching the 4 sqrt(2) pi normalization of beta),

        I_0 = pi^(1-2l) int_0^inf int_0^inf J_0(4 pi R) R rho G(A, B) dR drho,

    where B = R^2, A = (1 - (R^2 - rho^2)/4)^2 and G is the x-integrated
    kernel in closed form.  Returns (numeric, expected) with expected the
    closed constant :func:`~qeis.archimedean.arch_constant` times
    <T,T>^(2l-n+1) K_0(8 pi), <T,T> = 2.
    """
    from scipy import integrate
    from scipy.special import j0

    def kernel(R: float, rho: float) -> float:
        B = R * R
        A = (1.0 - (R * R - rho * rho) / 4.0) ** 2
        total = 0.0
        for k in range(ell + 1):
            total += (math.comb(ell, k) ** 2 * (-B) ** (ell - k)
                      * gamma_integral_closed(A, A + B, k, 2 * ell + 1))
        return total

    inner = lambda rho, R: kernel(R, rho) * rho

    def outer(R: float) -> float:
        val, _ = integrate.quad(inner, 0.0, rho_cut, args=(R,), limit=300,
                                epsabs=1e-15, epsrel=1e-13)
        return val * j0(4 * math.pi * R) * R

    num, _ = integrate.quad(outer, 0.0, r_cut, limit=2000,
                            epsabs=1e-13, epsrel=1e-10)
    num *= math.pi ** (1 - 2 * ell)
    expected = arch_constant(2, ell).value() * 2 ** (2 * ell - 1) * bessel_k(0, 8 * math.pi)
    return num, expected


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("QEIS_SLOW"),
                    reason="flagged quadrature check; set QEIS_SLOW=1")
def test_criterion_09_archimedean_constant_quadrature():
    """Direct quadrature of the displayed rank-2 archimedean integral.

    Known red: with the same character and measure conventions that
    reproduce the rank-1 constant (control ratio 1.0000000), the displayed
    integral evaluates to twice the rank-2 closed constant, measured ratio
    2.0000003 (8.825432e-08 against 4.412715e-08).  The repository does not
    say where the factor of 2 enters; ROADMAP.md records the failure and how
    to localize it.  The assertion states the criterion faithfully and
    reports the measured ratio.
    """
    t0 = time.time()
    num, expected = fourier_constant_quadrature(ell=3)
    dt = time.time() - t0
    ok = abs(num - expected) <= 0.01 * abs(expected) and dt < 600
    _announce(9, ok,
              f"4-D quadrature {num:.6e} vs closed constant {expected:.6e}; "
              f"measured ratio {num / expected:.7f} (rank-1 control ratio is "
              f"1.0000000) in {dt:.0f}s")


def test_criterion_10_lift_sanity():
    h = delta_eigenvalues(10)
    P6 = Params(n=2, ell=6)
    val = lift_coefficient(global_vector(1, 0, 1, 0), h, P6, F3)
    ok = val == -24 and h.ap[2] == -24
    rng = random.Random(31)
    T = global_vector(1, 0, 3, 0)   # norm 6
    for _ in range(20):
        a2 = satake_from_eigenvalue(rng.randint(-3000, 3000), 12, 2).alpha
        a3 = satake_from_eigenvalue(rng.randint(-3000, 3000), 12, 3).alpha
        v1 = lift_coefficient_numeric(T, {2: a2, 3: a3}, P6, F3)
        v2 = lift_coefficient_numeric(T, {2: 1 / a2, 3: 1 / a3}, P6, F3)
        ok = ok and abs(v1 - v2) <= 1e-12 * max(abs(v1), 1.0)
    _announce(10, ok,
              "lift((1,1), Delta, l=6) = tau(2) = -24 exactly; "
              "alpha <-> 1/alpha invariance on 20 random eigenvalue sets")


def test_criterion_11_cmd_expand_determinism(tmp_path):
    from qeis.cli import main

    outs = []
    for i, workers in enumerate(("1", "1", "2", "4")):
        f = tmp_path / f"t{i}.json"
        code = main(["expand", "--D", "3", "--n", "2", "--ell", "3",
                     "--bound", "10", "--workers", workers, "--out", str(f)])
        assert code == 0
        outs.append(f.read_bytes())
    ok = all(o == outs[0] for o in outs)
    _announce(11, ok,
              f"cmd_expand bound=10 byte-identical across repeats and worker "
              f"counts 1/2/4 ({len(outs[0])} bytes)")
