import json
import re
import sys
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from cli_cases import CLAUSES, P12, P18, Case, problems, run_case
from qeis.cli import _build_parser


def _stdout(argv: str) -> str:
    """The stdout of ``qeis argv``, run in-process, which exits 0."""
    code, out, err, _ = run_case(Case(argv))
    assert code == 0 and not err, err
    return out


def test_local_example():
    doc = json.loads(_stdout("local --D 3 --n 2 --ell 3 --p 2 --T 1,0,1,0"))
    assert doc["case"] == "inert"
    assert doc["k"] == 1
    assert doc["Q"] == [1, 0, 1]


def test_local_unit_norm_q_is_one():
    assert json.loads(_stdout("local --D 3 --p 5 --T 1,0,1,0"))["Q"] == [1]


def test_local_oracle_flag():
    doc = json.loads(_stdout("local --D 3 --p 3 --T 1,0,1,1 --oracle"))
    assert doc["oracle"]["verdict"] == "agree"


def test_local_oracle_split_with_divisible_coordinates():
    # D = 11, p = 3 splits, T = (omega, omega) has v = 1 at one prime above 3,
    # exercising the rescaled-vector wedge of the split double sum
    doc = json.loads(_stdout("local --D 11 --p 3 --T 0,1,0,1 --oracle"))
    assert doc["case"] == "split"
    assert doc["k"] == 1 and sorted((doc["k1"], doc["k2"])) == [0, 1]
    assert doc["oracle"]["verdict"] == "agree"
    # the rescaled-vector wedge contributes the sqrt(p) X term
    assert doc["Q"] == [1, 1, 1]


@pytest.mark.parametrize("argv", [["coeff", "--T", "1,0,1,0"], ["expand", "--bound", "2"]])
def test_D_is_factored_once_per_command(argv, monkeypatch):
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
    _stdout(" ".join([argv[0], "--D", str(D), *argv[1:]]))
    assert calls.count(D) == 1, calls


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_table_budget_exit_code(monkeypatch):
    from qeis import fourier

    monkeypatch.setattr(fourier, "MAX_TABLE_VECTORS", 5)
    assert not problems(Case("expand --D 3 --bound 2", 4,
                             stderr="more than 5 vectors, which exceed the table budget"))


def test_ell_range_edges():
    """l = Params.ELL_MAX runs to the end, with a constant term still above 0
    in binary64 (the clause ell_above_300_is_a_validation_error holds the
    exit codes on either side)."""
    doc = json.loads(_stdout("expand --D 3 --ell 300 --bound 2"))
    assert doc["params"]["ell"] == 300 and 0 < doc["constant_term"]["numeric"] < 1e-290


def test_huge_table_bound_exits_4_while_the_disc_is_built():
    """At bound 10^6 the disc passes MAX_TABLE_VECTORS // 2 + 1 points long
    before it is complete, and no pair of disc points is formed: the run
    executes ~10^6 lines of qeis.fourier, the ~7M-point disc alone ~2.5 * 10^7,
    and a trace stops the run past 2 * 10^6."""
    from qeis import fourier

    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if frame.f_code.co_filename != fourier.__file__:
            return None
        if event == "line" and (lines := lines + 1) > 2_000_000:
            raise AssertionError("the table build ran past 2 * 10^6 lines")
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        assert not problems(Case("expand --D 3 --bound 1000000", 4,
                                 stderr="more than 200000 vectors"))
    finally:
        sys.settrace(previous)


def test_expand_schema_and_determinism():
    f1, f2, f3 = (_stdout(f"expand --D 3 --n 2 --ell 3 --bound 2 --workers {workers}")
                  for workers in (1, 1, 2))
    assert f1 == f2
    assert f1 == f3
    doc = json.loads(f1)
    assert doc["C_ell"] == "-32/9"
    assert doc["D_nl"] == "432"
    assert doc["constant_term"]["rational"] == "1"
    assert doc["constant_term"]["symbolic"] == "zetaE(l+1)/pi^(2l+1)"
    star = [e for e in doc["entries"] if e["T"] == [[1, 0], [1, 0]]]
    assert star and star[0]["rational"] == "14256"
    assert star[0]["localQ"] == {"2": [1, 0, 1]}
    assert star[0]["norm"] == 2 and star[0]["rank"] == 2


def test_expand_bound_zero():
    doc = json.loads(_stdout("expand --D 3 --bound 0"))
    assert doc["entries"]
    assert all(e["rank"] == 1 for e in doc["entries"])


def test_coeff_command():
    assert json.loads(_stdout("coeff --D 3 --ell 3 --T 1,0,1,0"))["rational"] == "14256"


def test_coeff_writes_rationals_past_the_int_digit_limit():
    """A 9550-digit rational is written out (the parser's digit limit applies
    only to input: the clause long_rational_is_written holds the exit codes)."""
    rational = json.loads(_stdout("coeff --D 3 --ell 300 --T 1099511627776,0,1,0"))["rational"]
    assert len(rational) == 9550 and re.fullmatch(r"[1-9]\d*/[1-9]\d*", rational)
    x = "1" + "0" * 3000  # <T, T> = -2 * 10^6000
    out = _stdout(f"coeff --D 3 --T {x},0,-{x},0")
    assert f'"norm": -2{"0" * 6000},' in out and '"rational": "0"' in out


def test_lift_command():
    doc = json.loads(_stdout("lift --D 3 --ell 6 --T 1,0,1,0 --eigenvalues delta.json"))
    assert doc["lift_coefficient"] == "-24"
    assert doc["euler_factors"]["2"]["degree"] == 8


def test_verify_identities():
    doc = json.loads(_stdout("verify --suite identities"))
    assert doc["ok"] is True


def test_verify_oracle_single_prime():
    doc = json.loads(_stdout("verify --suite oracle --p 3"))
    assert doc["ok"] is True and doc["reports"][0]["checks"] > 0


def test_q_consistency_error_names_T_and_the_key(monkeypatch):
    import qeis.fourier as fourier
    import qeis.siegel as siegel
    from qeis.arith import SqrtPPoly

    siegel.q_poly_of_invariants.cache_clear()
    monkeypatch.setattr(siegel, "q_poly_closed_form",
                        lambda data, blocks=None: SqrtPPoly(data.p, [1, 1, 1]))
    # norm 7, split; a table names the first T in row order whose Q build fails
    for argv, T, key in (("coeff --D 3 --T 1,0,3,1", "[[1, 0], [3, 1]]", "7, split"),
                         ("expand --D 3 --bound 7", "[[-4, 1], [0, -1]]", "2, inert")):
        fourier.coefficient_of_invariants.cache_clear()
        assert not problems(Case(argv, 3, stderr=f"T = {T}, Q paths disagree at "
                                 f"(p, case, n, k, k1, k2) = ({key}, 2, 1, 0, 0)"))
        assert siegel.q_poly_of_invariants.cache_info().currsize == 0


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


# The CLI contract: each clause of cli_cases.py runs in-process as the test of
# its name, and the clauses "name[id]" as the ids of one test, so the tests the
# clauses replaced keep their ids; and a fuzz

def _clause_test(family):
    def test(clause):
        failing = {case.argv: found for case in CLAUSES[clause] if (found := problems(case))}
        assert not failing, failing

    if "[" not in family[0]:
        return lambda: test(family[0])
    return pytest.mark.parametrize("clause", family, ids=lambda c: c[c.index("[") + 1:-1])(test)


for _name, _family in groupby(CLAUSES, lambda clause: "test_" + clause.partition("[")[0]):
    assert _name not in globals(), _name
    globals()[_name] = _clause_test(list(_family))


_p = st.sampled_from([2, 3, 5, 7, 13, P12, 0, 1, 4, 9, -3])
_D = st.sampled_from([3, 7, 11, 23] * 2 + [4, 27, -1])
_T = st.lists(st.one_of(st.integers(-6, 6), st.sampled_from([P12, -P18, 2 ** 40])),
              min_size=4, max_size=4).map(lambda c: "--T=" + ",".join(map(str, c)))
_field = st.builds("--D {} --n {} --ell {}".format, _D, st.sampled_from([2] * 6 + [6, 0]),
                   st.sampled_from([*range(3, 13), 2, -1]))
_budget = st.sampled_from(["", "", " --budget 1000", " --budget 0"])
_argv = st.one_of(
    st.builds("local {} --p {} {}{}{}".format, _field, _p, _T,
              st.sampled_from(["", " --oracle"]), _budget),
    st.builds("coeff {} {}".format, _field, _T),
    st.builds("expand {} --bound {} --format {}".format, _field, st.integers(-1, 5),
              st.sampled_from(["json", "csv"])),
    st.builds("lift --D {} --ell {} {} --eigenvalues {}".format, _D, st.sampled_from([6, 6, 5]),
              _T, st.sampled_from(["delta.json"] * 3 + ["floats.json", "dup.json", "x.json"])),
    st.builds("verify --suite {} --p {}{}".format,
              st.sampled_from(["oracle", "identities", "denominators", "bogus"]), _p, _budget),
)


@settings(max_examples=400, deadline=None)
@given(_argv)
def test_any_argv_ends_in_a_documented_exit_code(argv):
    code, _, err, _ = run_case(Case(argv, seconds=10))
    assert code in (0, 1, 2, 3, 4) and "Traceback" not in err, (code, err)
