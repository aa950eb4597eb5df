"""The failure reports of the verification suites.

No real input fails a suite, so each failure branch is forced once, by
patching the function it checks: the report must be not ok and name the
counterexample, and ``qeis verify`` under the same patch must exit 3 with
the report as JSON on stdout and no traceback.
"""

import dataclasses
import json
from fractions import Fraction

import pytest

from qeis import archimedean, bessel, cli, verify
from qeis.arith import IntPoly


def _cli_reports(capsys, suite: str) -> list:
    """The reports of ``qeis verify --suite suite``, which must exit 3."""
    capsys.readouterr()
    assert cli.main(["verify", "--suite", suite]) == 3
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    doc = json.loads(out)
    assert doc["ok"] is False
    return doc["reports"]


def test_oracle_mismatch_is_reported(monkeypatch, capsys):
    monkeypatch.setattr(verify, "term_oracle", lambda r, eta, shape, budget: -1)
    rep = verify.suite_oracle(ps=(3,), count=1)
    assert rep["ok"] is False
    assert set(rep["failures"][0]) == {"shape", "p", "r", "eta", "closed", "oracle"}
    assert set(rep["failures"][-1]) == set(rep["failures"][0]) | {"gauss"}  # ramified
    assert _cli_reports(capsys, "oracle")[0]["failures"][0]["oracle"] == "-1"


def test_missing_norms_are_reported(monkeypatch, capsys):
    rep = verify.suite_functional(Ds=(3,), norm_cap=4, coord_cap=2)
    assert rep["ok"] is False
    assert rep["failures"] == [{"D": 3, "missing_norms": [3, 4]}]
    region = verify.vectors_in_region
    monkeypatch.setattr(verify, "vectors_in_region",
                        lambda F, cap, lo, hi: region(F, 2, lo, hi))
    failures = _cli_reports(capsys, "functional")[0]["failures"]
    assert [f["D"] for f in failures] == [3, 7, 11]
    assert all(set(f) == {"D", "missing_norms"} and f["missing_norms"] for f in failures)


def test_non_palindromic_synthetic_R_is_reported(monkeypatch, capsys):
    monkeypatch.setattr(verify, "palindromic", lambda coeffs, d: False)
    rep = verify.suite_functional(Ds=())
    assert rep["ok"] is False
    assert set(rep["failures"][0]) == {"m", "p", "poly", "k", "coeffs"}
    assert rep["failures"][0]["poly"] == "R"
    assert _cli_reports(capsys, "functional")[0]["failures"][0]["poly"] == "R"


def test_r_arbitration_reports_an_adopted_reading_mismatch(monkeypatch):
    adopted = verify.R_closed_form
    monkeypatch.setattr(verify, "R_closed_form",
                        lambda *args: IntPoly([c + 1 for c in adopted(*args).coeffs]))
    assert verify.r_arbitration()["adopted_matches_extraction"] is False


# check: (module, function, a fake that fails the check, the keys of its entry)
IDENTITY_FAKES = {
    "comb_identity": (archimedean, "comb_identity_check", lambda ell: (False, 0),
                      {"ell", "at"}),
    "bessel_sum": (archimedean, "bessel_sum_check", lambda ell, C: False, {"ell", "C"}),
    "gamma_integral": (archimedean, "gamma_integral_check", lambda C, Dv, m, nn: False,
                       {"C", "Dv", "m", "nn"}),
    "rank1_vanishing": (archimedean, "rank1_vanishing_check", lambda ell, j: False,
                        {"ell", "j"}),
    "f0_dual_form": (archimedean, "f0_closed", lambda A, B, ell: 1e300,
                     {"ell", "A", "B", "closed", "double_sum"}),
    "bessel_recurrence": (bessel, "bessel_k", lambda v, x: float(v), {"v", "x"}),
}


@pytest.mark.parametrize("check", IDENTITY_FAKES)
def test_identity_failure_is_reported(check, monkeypatch, capsys):
    module, name, fake, keys = IDENTITY_FAKES[check]
    monkeypatch.setattr(module, name, fake)
    rep = verify.suite_identities()
    assert rep["ok"] is False and rep["checks"] == 208
    assert rep["failures"] and all(f["check"] == check for f in rep["failures"])
    assert set(rep["failures"][0]) == {"check"} | keys
    assert _cli_reports(capsys, "identities")[0]["failures"] == rep["failures"]


def test_denominator_bound_failure_is_reported(monkeypatch, capsys):
    def first_rank2(table):
        return False, next(e for e in table.entries if e.rank == 2)

    monkeypatch.setattr(verify, "denominator_bound_check", first_rank2)
    rep = verify.suite_denominators(ells=(3,), bound=4)
    assert rep["ok"] is False
    assert set(rep["failures"][0]) == {"check", "ell", "T", "rational"}
    assert rep["failures"][0]["check"] == "denominator_bound"
    failures = _cli_reports(capsys, "denominators")[0]["failures"]
    assert [f["ell"] for f in failures] == [3, 4, 5]


def test_a_zero_rank2_rational_fails_the_local_product_check(monkeypatch, capsys):
    """A zero product only a bug can give is listed with its T, not skipped."""
    expand = verify.full_expansion
    zeroed = []  # the T of each zeroed row

    def with_a_zero_row(P, F, bound):
        table = expand(P, F, bound)
        i = next(i for i, row in enumerate(table.rows) if row[5][0] == 2)
        ax, ay, bx, by, nrm, _ = table.rows[i]
        zeroed.append([[ax, ay], [bx, by]])
        row = (ax, ay, bx, by, nrm, (2, Fraction(0), None, {}))
        return dataclasses.replace(table, rows=(*table.rows[:i], row, *table.rows[i + 1:]))

    monkeypatch.setattr(verify, "full_expansion", with_a_zero_row)
    rep = verify.suite_denominators(ells=(3,), bound=4)
    assert rep["ok"] is False
    assert rep["failures"] == [{"check": "local_product_positive_integer", "ell": 3,
                                "T": zeroed[0], "product": "0"}]
    failures = _cli_reports(capsys, "denominators")[0]["failures"]
    assert [(f["check"], f["product"]) for f in failures] == \
        [("local_product_positive_integer", "0")] * 3
