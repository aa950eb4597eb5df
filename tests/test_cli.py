import hashlib
import json
import re
import subprocess
import sys

import pytest

from qeis.cli import _build_parser, main

RUN = [sys.executable, "-m", "qeis.cli"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


def test_local_example(tmp_path):
    out = tmp_path / "local.json"
    code = main(["local", "--D", "3", "--n", "2", "--ell", "3",
                 "--p", "2", "--T", "1,0,1,0", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["case"] == "inert"
    assert doc["k"] == 1
    assert doc["Q"] == [1, 0, 1]


def test_local_unit_norm_q_is_one(tmp_path):
    out = tmp_path / "local.json"
    assert main(["local", "--D", "3", "--p", "5", "--T", "1,0,1,0",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["Q"] == [1]


def test_local_oracle_flag(tmp_path):
    out = tmp_path / "local.json"
    assert main(["local", "--D", "3", "--p", "3", "--T", "1,0,1,1",
                 "--oracle", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["oracle"]["verdict"] == "agree"


def test_local_oracle_split_with_divisible_coordinates(tmp_path):
    # D = 11, p = 3 splits, T = (omega, omega) has v = 1 at one prime above 3,
    # exercising the rescaled-vector wedge of the split double sum
    out = tmp_path / "local.json"
    assert main(["local", "--D", "11", "--p", "3", "--T", "0,1,0,1",
                 "--oracle", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["case"] == "split"
    assert doc["k"] == 1 and sorted((doc["k1"], doc["k2"])) == [0, 1]
    assert doc["oracle"]["verdict"] == "agree"
    # the rescaled-vector wedge contributes the sqrt(p) X term
    assert doc["Q"] == [1, 1, 1]


def test_validation_exit_codes():
    assert main(["local", "--D", "4", "--p", "2", "--T", "1,0,1,0"]) == 2
    # the global model has n = 2 only; its valuations must not key an n = 6 Q
    assert main(["coeff", "--D", "3", "--n", "6", "--ell", "8", "--T", "1,0,1,0"]) == 2
    # ... whatever the sign of <T, T>: isotropic and negative-norm T too
    assert main(["coeff", "--D", "3", "--n", "6", "--ell", "8", "--T", "1,0,0,0"]) == 2
    assert main(["coeff", "--D", "3", "--n", "6", "--ell", "8", "--T", "1,0,-1,0"]) == 2
    assert main(["local", "--D", "3", "--p", "2", "--T", "1,0"]) == 2
    assert main(["verify", "--suite", "nonsense"]) == 2
    # isotropic vector has no local polynomial
    assert main(["local", "--D", "3", "--p", "2", "--T=1,0,-1,2"]) == 2


def test_non_prime_p_is_a_validation_error(capsys):
    # p = 1 looped forever in the p-adic valuation; run it with a time limit
    proc = subprocess.run(RUN + ["local", "--D", "3", "--p", "1", "--T", "1,0,1,0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "p = 1 is not a prime" in proc.stderr
    for D, p, T in ((3, 0, "1,0,1,0"), (7, 9, "9,0,9,0"), (7, 4, "4,0,4,0"),
                    (3, -2, "2,0,2,0")):
        assert main(["local", "--D", str(D), "--p", str(p), "--T", T]) == 2, p
        assert f"p = {p} is not a prime" in capsys.readouterr().err
    for p in (4, 9, 1, -3, 0):
        assert main(["verify", "--suite", "oracle", "--p", str(p)]) == 2, p
        assert f"p = {p} is not a prime" in capsys.readouterr().err


def test_split_prime_near_10_to_the_12_is_fast():
    """The omega-root at a split p is found without scanning 0..p-1."""
    p = str(10 ** 12 + 63)
    for argv, expect in ((["coeff", "--D", "7", "--T", f"1,0,{p},0"], f'"{p}": ['),
                         (["local", "--D", "7", "--p", p, "--T", "1,0,1,0"], '"case": "split"')):
        proc = subprocess.run(RUN + argv, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and not proc.stderr, argv
        assert expect in proc.stdout, argv


def test_prime_near_10_to_the_18_is_fast():
    """10^18 + 3 is certified prime past the trial-division cap, not divided out."""
    p = str(10 ** 18 + 3)
    for argv, expect in ((["coeff", "--D", "7", "--T", f"1,0,{p},0"], f'"{p}": ['),
                         (["local", "--D", "7", "--p", p, "--T", "1,0,1,0"], '"case": "split"')):
        proc = subprocess.run(RUN + argv, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and not proc.stderr, argv
        assert expect in proc.stdout, argv


def test_factoring_past_the_cap_is_a_budget_error(capsys):
    """<T, T> = 2 (10^6 + 3)(10^6 + 33): two primes above the trial-division cap."""
    assert main(["coeff", "--D", "3", "--T", "1,0,1000036000099,0"]) == 4
    assert "cannot factor 2000072000198" in capsys.readouterr().err


def test_large_D_is_validated_and_factored_without_trial_division_to_its_root(capsys):
    """D = 10^18 + 3 is a prime = 3 mod 4: squarefreeness and sigma_k(D) come
    from prime_factors, and the field's splitting does not re-validate D."""
    D = str(10 ** 18 + 3)
    proc = subprocess.run(RUN + ["coeff", "--D", D, "--T", "1,0,1,0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["rank"] == 2
    assert main(["coeff", "--D", "27", "--T", "1,0,1,0"]) == 2
    assert "D = 27 is not a squarefree" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["coeff", "--T", "1,0,1,0"], ["expand", "--bound", "2"]])
def test_D_is_factored_once_per_command(argv, monkeypatch, capsys):
    """The field's factoring validates D, and D_{n,l}'s sigma_k(D) and the
    table header read the field's factors; no call factors D again."""
    import qeis
    import qeis.fourier as fourier
    from qeis.arith import prime_factors

    D = 23  # no <T, T> or content of these runs is 23
    calls = []

    def counted(n):
        calls.append(abs(n))
        return prime_factors(n)

    for module in [m for name, m in sys.modules.items() if name.startswith("qeis.")] + [qeis]:
        if getattr(module, "prime_factors", None) is prime_factors:
            monkeypatch.setattr(module, "prime_factors", counted)
    fourier.d_nl.cache_clear()
    fourier.coefficient_of_invariants.cache_clear()
    assert main([argv[0], "--D", str(D), *argv[1:]]) == 0
    capsys.readouterr()
    assert calls.count(D) == 1, calls


def test_large_D_constant_term_is_a_budget_error():
    """zeta_E makes D - 1 Hurwitz calls, so an expand past MAX_ZETA_E_D exits 4 naming D."""
    D = str(10 ** 18 + 3)
    proc = subprocess.run(RUN + ["expand", "--D", D, "--bound", "2"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 4 and "Traceback" not in proc.stderr
    assert f"zeta_E at D = {D} needs D - 1 Hurwitz zeta values" in proc.stderr


def test_out_into_a_missing_directory_is_a_validation_error(tmp_path):
    out = tmp_path / "missing" / "x.json"
    proc = subprocess.run(RUN + ["coeff", "--D", "3", "--T", "1,0,1,0", "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stderr == f"validation error: cannot write output file {str(out)!r}: " \
                          "No such file or directory\n"
    assert not out.exists() and not proc.stdout


def test_non_positive_budget_flag_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "r.json"
    for argv in (["local", "--D", "3", "--p", "2", "--T", "2,0,2,0", "--oracle"],
                 ["verify", "--suite", "oracle"]):
        for value in ("0", "-5"):
            assert main(argv + ["--budget", value, "--out", str(out)]) == 2, argv
            assert f"--budget = {value!r} is not positive" in capsys.readouterr().err
    assert not out.exists()


def test_bad_eigenvalue_file_is_a_validation_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    not_json = tmp_path / "not_json.json"
    not_json.write_text('{"weight": 12, "ap": ')
    no_ap = tmp_path / "no_ap.json"
    no_ap.write_text(json.dumps({"weight": 12}))
    for path in (missing, not_json, no_ap):
        assert main(["lift", "--D", "3", "--ell", "6", "--T", "1,0,1,0",
                     "--eigenvalues", str(path)]) == 2, path.name
        assert f"eigenvalue file {str(path)!r}" in capsys.readouterr().err


def test_float_eigenvalue_file_exits_2_instead_of_truncating(tmp_path, capsys):
    """int() would read weight 12.9 as 12 and a_2 = -24.7 as -24 and exit 0."""
    path = tmp_path / "floats.json"
    path.write_text('{"weight": 12.9, "ap": {"2": -24.7, "3": 252}}')
    out = tmp_path / "lift.json"
    assert main(["lift", "--D", "3", "--ell", "6", "--T", "1,0,1,0",
                 "--eigenvalues", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"eigenvalue file {str(path)!r}: weight = 12.9 is not an integer" in err
    assert not out.exists()


def test_ambiguous_prime_key_exits_2_instead_of_dropping_a_value(tmp_path, capsys):
    """With "2" and "02" both read as p = 2, the later a_2 = 5 silently won."""
    path = tmp_path / "dup.json"
    path.write_text('{"weight": 12, "ap": {"2": -24, "02": 5, "3": 252}}')
    out = tmp_path / "lift.json"
    assert main(["lift", "--D", "3", "--ell", "6", "--T", "1,0,1,0",
                 "--eigenvalues", str(path), "--out", str(out)]) == 2
    assert "a_p key '02' is not written in plain decimal" in capsys.readouterr().err
    assert not out.exists()


def test_usage_exit_code():
    proc = run_cli("definitely-not-a-command")
    assert proc.returncode == 1
    proc = run_cli("local", "--D", "3")
    assert proc.returncode == 1


def test_flags_without_effect_are_usage_errors(capsys):
    """--format and --workers belong to expand, --budget to local and verify."""
    for argv in (["local", "--D", "3", "--p", "2", "--T", "1,0,1,0", "--workers", "2"],
                 ["coeff", "--D", "3", "--T", "1,0,1,0", "--format", "csv"],
                 ["expand", "--D", "3", "--bound", "0", "--budget", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_budget_exit_code(tmp_path):
    out = tmp_path / "local.json"
    code = main(["local", "--D", "3", "--p", "5", "--T", "5,0,5,0",
                 "--oracle", "--budget", "1000", "--out", str(out)])
    assert code == 4


def test_table_budget_exit_code(monkeypatch, capsys):
    from qeis import fourier

    monkeypatch.setattr(fourier, "MAX_TABLE_VECTORS", 5)
    assert main(["expand", "--D", "3", "--bound", "2"]) == 4
    err = capsys.readouterr().err
    assert "more than 5 vectors" in err and "exceed the table budget" in err


def test_ell_range_edges(capsys):
    """l = Params.ELL_MAX runs to the end; l above it exits 2 before any work."""
    assert main(["expand", "--D", "3", "--ell", "300", "--bound", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["ell"] == 300 and 0 < doc["constant_term"]["numeric"] < 1e-290
    assert main(["coeff", "--D", "3", "--ell", "300", "--T", "1,0,1,0"]) == 0
    capsys.readouterr()
    for argv in (["expand", "--D", "3", "--ell", "301", "--bound", "2"],
                 ["expand", "--D", "3", "--ell", "400", "--bound", "2"],
                 ["coeff", "--D", "3", "--ell", "800", "--T", "1,0,1,0"]):
        assert main(argv) == 2, argv
        assert "exceeds the supported maximum 300" in capsys.readouterr().err


def test_zeta_E_out_of_binary64_range_exits_2(capsys):
    """zeta_E(l+1) needs D^(l+1) within binary64: at D = 11 that is l <= 295."""
    assert main(["expand", "--D", "11", "--ell", "295", "--bound", "0"]) == 0
    capsys.readouterr()
    assert main(["expand", "--D", "11", "--ell", "296", "--bound", "0"]) == 2
    assert "zeta_E(297) at D = 11 leaves the binary64 range" in capsys.readouterr().err


def test_huge_table_bound_exits_4_while_the_disc_is_built(monkeypatch, capsys):
    """At bound 10^6 the disc passes MAX_TABLE_VECTORS // 2 + 1 points long
    before it is complete, and no pair of disc points is formed."""
    from qeis import fourier

    def no_pairs(T, F):
        raise AssertionError("a pair was formed")

    monkeypatch.setattr(fourier, "norm", no_pairs)
    assert main(["expand", "--D", "3", "--bound", "1000000"]) == 4
    assert "more than 200000 vectors" in capsys.readouterr().err


def test_unknown_suite_is_a_validation_error(capsys):
    assert main(["verify", "--suite", "bogus"]) == 2
    assert "unknown suite 'bogus'" in capsys.readouterr().err


def test_expand_schema_and_determinism(tmp_path):
    f1, f2, f3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    for f, workers in ((f1, "1"), (f2, "1"), (f3, "2")):
        assert main(["expand", "--D", "3", "--n", "2", "--ell", "3",
                     "--bound", "2", "--workers", workers, "--out", str(f)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert f1.read_bytes() == f3.read_bytes()
    doc = json.loads(f1.read_text())
    assert doc["C_ell"] == "-32/9"
    assert doc["D_nl"] == "432"
    assert doc["constant_term"]["rational"] == "1"
    assert doc["constant_term"]["symbolic"] == "zetaE(l+1)/pi^(2l+1)"
    star = [e for e in doc["entries"] if e["T"] == [[1, 0], [1, 0]]]
    assert star and star[0]["rational"] == "14256"
    assert star[0]["localQ"] == {"2": [1, 0, 1]}
    assert star[0]["norm"] == 2 and star[0]["rank"] == 2


def test_expand_bound_zero(tmp_path):
    out = tmp_path / "z.json"
    assert main(["expand", "--D", "3", "--bound", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["entries"]
    assert all(e["rank"] == 1 for e in doc["entries"])


def test_expand_csv(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["expand", "--D", "3", "--bound", "1", "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ax,ay,bx,by,norm,rank,rational"
    assert len(lines) > 1


def test_coeff_command(tmp_path):
    out = tmp_path / "c.json"
    assert main(["coeff", "--D", "3", "--ell", "3", "--T", "1,0,1,0",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rational"] == "14256"


def test_coeff_writes_rationals_past_the_int_digit_limit(capsys):
    """A 9550-digit rational is written out (the parser's digit limit applies
    only to input, so a --T coordinate past it still exits 2)."""
    assert main(["coeff", "--D", "3", "--ell", "300", "--T", "1099511627776,0,1,0"]) == 0
    rational = json.loads(capsys.readouterr().out)["rational"]
    assert len(rational) == 9550 and re.fullmatch(r"[1-9]\d*/[1-9]\d*", rational)
    assert main(["coeff", "--D", "3", "--T", "1" * 4301 + ",0,1,0"]) == 2
    assert "cannot parse T coordinates" in capsys.readouterr().err
    x = "1" + "0" * 3000  # <T, T> = -2 * 10^6000
    assert main(["coeff", "--D", "3", "--T", f"{x},0,-{x},0"]) == 0
    out = capsys.readouterr().out
    assert f'"norm": -2{"0" * 6000},' in out and '"rational": "0"' in out


def test_lift_command(tmp_path):
    eig = tmp_path / "delta.json"
    eig.write_text(json.dumps({"weight": 12, "ap": {"2": -24, "3": 252}}))
    out = tmp_path / "lift.json"
    assert main(["lift", "--D", "3", "--ell", "6", "--T", "1,0,1,0",
                 "--eigenvalues", str(eig), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["lift_coefficient"] == "-24"
    assert doc["euler_factors"]["2"]["degree"] == 8


def test_verify_identities(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--suite", "identities", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True


def test_verify_oracle_single_prime(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--suite", "oracle", "--p", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True and doc["reports"][0]["checks"] > 0


def test_q_consistency_error_names_T_and_the_key(monkeypatch, capsys):
    import qeis.fourier as fourier
    import qeis.siegel as siegel
    from qeis.arith import SqrtPPoly

    siegel.q_poly_of_invariants.cache_clear()
    fourier.coefficient_of_invariants.cache_clear()
    monkeypatch.setattr(siegel, "q_poly_closed_form",
                        lambda data, blocks=None: SqrtPPoly(data.p, [1, 1, 1]))
    assert main(["coeff", "--D", "3", "--T", "1,0,3,1"]) == 3  # norm 7, split
    err = capsys.readouterr().err
    assert "T = [[1, 0], [3, 1]], Q paths disagree at" in err
    assert "(p, case, n, k, k1, k2) = (7, split, 2, 1, 0, 0)" in err
    assert siegel.q_poly_of_invariants.cache_info().currsize == 0
    # a table names the first T in row order whose Q build fails
    fourier.coefficient_of_invariants.cache_clear()
    assert main(["expand", "--D", "3", "--bound", "7"]) == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert "T = [[-4, 1], [0, -1]], Q paths disagree at" in captured.err
    assert "(p, case, n, k, k1, k2) = (2, inert, 2, 1, 0, 0)" in captured.err
    assert siegel.q_poly_of_invariants.cache_info().currsize == 0


# SHA-256 of `expand --D D --ell 3 --bound 12` JSON without the two scipy floats
EXPANSION_DIGESTS = {
    3: "93bfc4789bfe73791b04059bc35cb2b8ef0ed4c6060caa934b3e8724aba400c8",
    7: "f633bdf493f80f0508372bf22dd372b1dc0d517c20bb93b806ce96c9efe5eae5",
}


@pytest.mark.parametrize("D", sorted(EXPANSION_DIGESTS))
def test_expansion_bytes_are_pinned(D, tmp_path):
    out = tmp_path / "t.json"
    assert main(["expand", "--D", str(D), "--ell", "3", "--bound", "12",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    kept = [line for line in lines
            if not line.lstrip().startswith(('"numeric":', '"zetaE":'))]
    assert len(lines) - len(kept) == 2
    assert hashlib.sha256("".join(kept).encode()).hexdigest() == EXPANSION_DIGESTS[D]


# SHA-256 of `expand --D D --ell ell --bound bound --format fmt`, JSON without
# the two scipy floats
WIDER_EXPANSION_DIGESTS = {
    (3, 5, 24, "json"): "21236f952f255acefda5522aeea5f33373776aa866413a84024861a045042b36",
    (7, 5, 24, "json"): "4dc4a4b5fe6eb4cc221ab7cde8216e0d53d429a7fac8b4b20cc71a854ca630e7",
    (11, 3, 12, "csv"): "d58feeac43d9a1387c652aa3fc03c69c9c65c2c82227bb0335e160c3784e079b",
    (3, 3, 48, "json"): "9c3809e615dc92cdc14c2006eaf53d44b4a41521374cf1672290adb5a33817a0",
    (7, 3, 48, "json"): "34f12dd9bab9a7cec90b47db1ffb55a374d3084b139a654db7129f9ea8b9751f",
    (19, 3, 24, "csv"): "8461f2b9f68e989b2b15806f2002272f4b48e0e48552c23d1d88f4e7dea39213",
    # D = 23 splits at 2 and at 3: readings keep the order of the primes above each
    (23, 5, 24, "json"): "c422f789cf30fcfa5b0d5ec3c7c95ee8264ef3e6f6b8520be7b31dff4d8f8b26",
}


@pytest.mark.parametrize("D, ell, bound, fmt", sorted(WIDER_EXPANSION_DIGESTS))
def test_wider_expansion_bytes_are_pinned(D, ell, bound, fmt, tmp_path):
    out = tmp_path / "t.out"
    assert main(["expand", "--D", str(D), "--ell", str(ell), "--bound", str(bound),
                 "--format", fmt, "--out", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    kept = [line for line in lines
            if not line.lstrip().startswith(('"numeric":', '"zetaE":'))]
    assert len(lines) - len(kept) == (2 if fmt == "json" else 0)
    digest = hashlib.sha256("".join(kept).encode()).hexdigest()
    assert digest == WIDER_EXPANSION_DIGESTS[D, ell, bound, fmt]


# ---------------------------------------------------------------------------
# The expansion-table writer against json.dumps
# ---------------------------------------------------------------------------

def _entry_doc(entry) -> dict:
    """One coefficient as a dict: the document of a table entry and of `coeff`."""
    from qeis.cli import _rat

    doc = {
        "T": entry.T.as_list(),
        "norm": entry.norm,
        "rank": entry.rank,
        "rational": _rat(entry.rational),
    }
    if entry.rank == 1:
        doc["sigma"] = entry.sigma
    if entry.rank == 2 and entry.local_q:
        doc["localQ"] = {str(p): list(q.d) for p, q in sorted(entry.local_q.items())}
    return doc


def _reference_json(table) -> str:
    """The table document built as dicts, one :func:`_entry_doc` per entry,
    and written by json.dumps(indent=2)."""
    from qeis.cli import _table_header

    entries = [_entry_doc(e) for e in table.entries]
    return json.dumps({**_table_header(table), "entries": entries}, indent=2) + "\n"


def _emitted(doc, tmp_path, fmt="json") -> bytes:
    from qeis.cli import _emit

    out = tmp_path / "t.out"
    _emit(doc, str(out), fmt)
    return out.read_bytes()


@pytest.mark.parametrize("D, ell, bound", [(D, ell, bound) for D in (3, 7) for ell in (3, 5)
                                           for bound in (0, 1, 2, 5, 12)] + [(3, 3, 24)])
def test_table_writer_matches_json_dumps(D, ell, bound, tmp_path):
    from qeis.fourier import full_expansion
    from qeis.hermitian import FieldE, Params

    table = full_expansion(Params(n=2, ell=ell), FieldE(D), bound)
    assert _emitted(table, tmp_path) == _reference_json(table).encode()


def test_table_writer_matches_json_dumps_on_hand_made_entries(tmp_path):
    from dataclasses import replace
    from fractions import Fraction

    from qeis.arith import SqrtPPoly
    from qeis.fourier import FourierCoefficient, full_expansion
    from qeis.hermitian import FieldE, Params, global_vector

    big = 10 ** 29 + 7
    entries = (
        FourierCoefficient(T=global_vector(1, 0, 0, 0), rank=1, rational=Fraction(-32, 9),
                           norm=0, sigma=1),
        FourierCoefficient(T=global_vector(1, 0, 1, -1), rank=2, rational=Fraction(432),
                           norm=1),
        FourierCoefficient(T=global_vector(-big, 3, 10 * big, -5), rank=2,
                           rational=Fraction(-7, 3 * big), norm=-big * big,
                           local_q={5: SqrtPPoly(5, [1, -big, 0, big, 1]),
                                    2: SqrtPPoly(2, [1])}),
        FourierCoefficient(T=global_vector(0, -big, 0, 0), rank=1, rational=Fraction(-big),
                           norm=0, sigma=-big),
    )
    rows = tuple((e.T.a.x, e.T.a.y, e.T.b.x, e.T.b.y, e.norm,
                  (e.rank, e.rational, e.sigma, e.local_q)) for e in entries)
    table = full_expansion(Params(n=2, ell=3), FieldE(3), 0)
    for case in (rows, ()):
        made = replace(table, rows=case)
        assert made.entries == entries[:len(case)]
        assert _emitted(made, tmp_path) == _reference_json(made).encode()
    for entry in entries:  # `coeff` writes the same entry at depth 0
        reference = json.dumps(_entry_doc(entry), indent=2) + "\n"
        assert _emitted(entry, tmp_path) == reference.encode()


# SHA-256 of `expand --D D --ell 3 --bound 6 --format csv`
CSV_DIGESTS = {
    3: "f3ea39a8817e85d4135e2b395688751af3965ecabdfd1a2ef16bbf102ea20dde",
    7: "fc8c1fcf716723ad43416b6997c479ff2f05a7adbf6104e69949959fd92c13e7",
}


@pytest.mark.parametrize("D", sorted(CSV_DIGESTS))
def test_expansion_csv_bytes_are_pinned(D, tmp_path):
    out = tmp_path / "t.csv"
    assert main(["expand", "--D", str(D), "--ell", "3", "--bound", "6", "--format", "csv",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_DIGESTS[D]
