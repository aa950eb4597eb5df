"""The CLI contract as one table of cases, and its runner.

A case is a ``qeis`` command line; its exit code (0 ok, 1 usage, 2 validation,
3 internal consistency, 4 resource budget); where pinned, the SHA-256 of its
document (the ``--out`` file if named, else stdout) less its ``scipy`` lines,
the scipy ``"numeric"`` and ``"zetaE"`` floats, of which a pinned document
holds exactly ``scipy``; text stderr must hold; and a time limit.
No stderr holds "Traceback", stderr is empty after exit 0, and a failed run
writes no stdout and no ``--out`` file.  Each run starts in a fresh directory
holding ``FIXTURES``.  tests/test_cli.py runs the clause ``name[id]`` in-process
as the test ``test_name[id]``; ``python tests/cli_cases.py`` runs every case
through the ``qeis`` on PATH and exits 1 naming each failing case.
"""

import hashlib
import io
import os
import signal
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

from qeis.cli import main as qeis_main
from qeis.lift import delta_eigenvalues


class Case(NamedTuple):
    argv: str
    exit: int = 0
    sha: str | None = None
    scipy: int = 0
    stderr: str = ""
    seconds: int = 60


FIXTURES = {
    "floats.json": '{"weight": 12.9, "ap": {"2": -24.7, "3": 252}}',
    "dup.json": '{"weight": 12, "ap": {"2": -24, "02": 5, "3": 252}}',
    "not_json.json": '{"weight": 12, "ap": ', "no_ap.json": '{"weight": 12}',
    "delta.json": delta_eigenvalues(47).to_json(),  # tau(p) for p <= 47
}
P12, P18 = 10 ** 12 + 63, 10 ** 18 + 3  # primes past the trial-division cap
LIFT = "lift --D 3 --ell 6 --T 1,0,1,0 --eigenvalues"
OVER_300 = "exceeds the supported maximum 300"
PAST_CAP = "T = [[1, 0], [1000036000099, 0]], cannot factor 2000072000198"


def _expand(D: int, ell: int, bound: int, fmt: str, sha: str) -> tuple:
    """The pinned table of `expand` written through --out; JSON holds 2 scipy lines."""
    argv = f"expand --D {D} --ell {ell} --bound {bound} --format {fmt} --out t.{fmt}"
    return (Case(argv, sha=sha, scipy=2 if fmt == "json" else 0),)


CLAUSES = {
    "validation_exit_codes": (
        Case("local --D 4 --p 2 --T 1,0,1,0", 2),
        Case("coeff --D 4 --T 1,0,1,0", 2),
        # the global model has n = 2 only, whatever the sign of <T, T>
        *(Case(f"coeff --D 3 --n 6 --ell 8 --T 1,0,{bx},0", 2) for bx in (1, 0, -1)),
        Case("local --D 3 --p 2 --T 1,0", 2),
        Case("verify --suite nonsense", 2),
        Case("local --D 3 --p 2 --T=1,0,-1,2", 2),  # isotropic: no local polynomial
    ),
    "unknown_suite_is_a_validation_error": (Case(
        "verify --suite bogus", 2, stderr="unknown suite 'bogus'"),),
    "non_prime_p_is_a_validation_error": (
        # p = 1 looped forever in the p-adic valuation
        *(Case(f"local --D {D} --p {p} --T {T}", 2, stderr=f"p = {p} is not a prime")
          for D, p, T in ((3, 1, "1,0,1,0"), (3, 0, "1,0,1,0"), (7, 9, "9,0,9,0"),
                          (7, 4, "4,0,4,0"), (3, -2, "2,0,2,0"))),
        *(Case(f"verify --suite oracle --p {p}", 2, stderr=f"p = {p} is not a prime")
          for p in (4, 9, 1, -3, 0)),
    ),
    # the omega-root at a split p is found without scanning 0..p-1
    "split_prime_near_10_to_the_12_is_fast": (
        Case(f"coeff --D 7 --T 1,0,{P12},0", seconds=20,
             sha="c4e6169a6bc814ea9939a4ff446c215968a3268b2ac08f8d342067256b31a16e"),
        Case(f"local --D 7 --p {P12} --T 1,0,1,0", seconds=20,
             sha="50af427b38da671e0102c9f2f01084bfef5912d56b3adce5556125b7b2c9a81c"),
    ),
    # 10^18 + 3 is certified prime past the trial-division cap, not divided out
    "prime_near_10_to_the_18_is_fast": (
        Case(f"coeff --D 7 --T 1,0,{P18},0", seconds=20,
             sha="864b1a6973587227693d0f2ea1383af4b74697bdeb7c53bb854cbbd7659d72f9"),
        Case(f"local --D 7 --p {P18} --T 1,0,1,0", seconds=20,
             sha="d6347077cfef0263f686f7bbbe24372754d768798d2565307dd1dc77cf3e9400"),
    ),
    # <T, T> = 2 (10^6 + 3)(10^6 + 33): two primes above the trial-division cap.
    # The error names T, whether the number is <T, T> or, in the last case,
    # the content gcd(N(a), N(b), <T, T>) = (10^6 + 3)^2 (10^6 + 33)^2
    "factoring_past_the_cap_is_a_budget_error": (
        Case("coeff --D 3 --T 1,0,1000036000099,0", 4, seconds=20, stderr=PAST_CAP),
        Case("lift --D 3 --ell 6 --T 1,0,1000036000099,0 --eigenvalues delta.json", 4,
             seconds=20, stderr=PAST_CAP),
        Case("coeff --D 3 --T 1000036000099,0,1000036000099,0", 4, seconds=20,
             stderr="T = [[1000036000099, 0], [1000036000099, 0]], "
                    "cannot factor 1000072001494007128009801"),
    ),
    # D is validated, and sigma_k(D) read, off one factoring of D
    "large_D_is_validated_and_factored_without_trial_division_to_its_root": (
        Case(f"coeff --D {P18} --T 1,0,1,0", seconds=20,
             sha="bc939c36086900783a0a822bfff0ffb948d3a924f5f43eb8f51a00e9c10c57c3"),
        Case("coeff --D 27 --T 1,0,1,0", 2, stderr="D = 27 is not a squarefree"),
    ),
    # zeta_E sums D - 1 Hurwitz values: past MAX_ZETA_E_D an expand exits 4 naming D
    "large_D_constant_term_is_a_budget_error": (Case(
        f"expand --D {P18} --bound 2", 4, seconds=20,
        stderr=f"zeta_E at D = {P18} needs D - 1 Hurwitz zeta values"),),
    "constant_term_below_the_D_cap_is_fast": (Case("expand --D 100003 --bound 2", seconds=20),),
    "out_into_a_missing_directory_is_a_validation_error": (Case(
        "coeff --D 3 --T 1,0,1,0 --out no-such-dir/x.json", 2,
        stderr="validation error: cannot write output file 'no-such-dir/x.json': "
               "No such file or directory\n"),),
    "non_positive_budget_flag_is_a_validation_error": (
        Case("local --D 3 --p 2 --T 2,0,2,0 --oracle --budget 0", 2),
        *(Case(f"{argv} --budget {b} --out r.json", 2, stderr=f"--budget = '{b}' is not positive")
          for argv in ("local --D 3 --p 2 --T 2,0,2,0 --oracle", "verify --suite oracle")
          for b in ("0", "-5")),
    ),
    "bad_eigenvalue_file_is_a_validation_error": tuple(
        Case(f"{LIFT} {name}", 2, stderr=f"eigenvalue file '{name}'")
        for name in ("missing.json", "not_json.json", "no_ap.json")),
    # int() would read weight 12.9 as 12 and a_2 = -24.7 as -24 and exit 0
    "float_eigenvalue_file_exits_2_instead_of_truncating": (
        Case(f"{LIFT} floats.json", 2),
        Case(f"{LIFT} floats.json --out lift.json", 2,
             stderr="eigenvalue file 'floats.json': weight = 12.9 is not an integer"),
    ),
    # with "2" and "02" both read as p = 2, the later a_2 = 5 silently won
    "ambiguous_prime_key_exits_2_instead_of_dropping_a_value": (
        Case(f"{LIFT} dup.json", 2),
        Case(f"{LIFT} dup.json --out lift.json", 2,
             stderr="a_p key '02' is not written in plain decimal"),
    ),
    "usage_exit_code": (Case("definitely-not-a-command", 1), Case("local --D 3", 1)),
    # --format and --workers belong to expand, --budget to local and verify
    "flags_without_effect_are_usage_errors": tuple(
        Case(argv, 1, stderr="unrecognized arguments") for argv in (
            "local --D 3 --p 2 --T 1,0,1,0 --workers 2", "coeff --D 3 --T 1,0,1,0 --format csv",
            "expand --D 3 --bound 0 --budget 5")),
    "budget_exit_code": (Case(
        "local --D 3 --p 5 --T 5,0,5,0 --oracle --budget 1000 --out local.json", 4),),
    # a region of more than MAX_TABLE_VECTORS exits 4 while it is enumerated
    "table_budget_ends_the_enumeration": (
        Case("expand --D 3 --bound 300", 4, seconds=20, stderr="exceed the table budget"),
        Case("expand --D 3 --bound 1000000", 4, seconds=20, stderr="more than 200000 vectors"),
    ),
    # l = Params.ELL_MAX runs to the end; l above it exits 2 before any work
    "ell_above_300_is_a_validation_error": (
        Case("coeff --D 3 --ell 300 --T 1,0,1,0"),
        Case("expand --D 3 --ell 301 --bound 2", 2, stderr=OVER_300),
        Case("expand --D 3 --ell 400 --bound 2", 2, stderr=OVER_300),
        Case("coeff --D 3 --ell 800 --T 1,0,1,0", 2, stderr=OVER_300),
    ),
    # zeta_E(l+1) needs D^(l+1) within binary64: at D = 11 that is l <= 295
    "zeta_E_out_of_binary64_range_exits_2": (
        Case("expand --D 11 --ell 295 --bound 0"),
        Case("expand --D 11 --ell 296 --bound 0", 2,
             stderr="zeta_E(297) at D = 11 leaves the binary64 range"),
    ),
    # a 9550-digit rational is written past Python's int-to-str digit limit,
    # which still applies to input
    "long_rational_is_written": (
        Case("coeff --D 3 --ell 300 --T 1099511627776,0,1,0"),
        Case(f"coeff --D 3 --T {'1' * 4301},0,1,0", 2, stderr="cannot parse T coordinates"),
    ),
    "expand_csv": _expand(
        3, 3, 1, "csv", "c126fdf06f75ca7a8d7d8449a8b23b2ba0661e26c7e534ea540a4f0224b2754e"),
    "small_runs_succeed": (Case("expand --D 3 --bound 4"),),
    # a coefficient at rank 1 (sigma) and at a negative norm (rational 0), and the
    # key of an inert, a split and a ramified (k1 = k2 = 1, k = 3) local datum
    "keys_and_rationals_are_pinned": (
        Case("coeff --D 3 --T 1,0,0,0",
             sha="84a0b1c85b1475863d096fd0dd2712fbe2cc39324cd5814713dd1ae8500abbea"),
        Case("coeff --D 3 --T 1,0,-1,0",
             sha="523da1d34428414288c688d196873e35bc40c48f985cff8c6f5f58a332a4a9bb"),
        Case("local --D 3 --p 2 --T 1,0,1,0 --oracle",
             sha="9419ce078a3e4339629601b67b2cf00892ce7191dfad30927c9f0ab3d240645e"),
        Case("local --D 7 --p 2 --T 2,0,3,1 --oracle",
             sha="9babb918977852080e5203f2ede3f8a330bfd8b08b4c432dbafcb6d859ecf629"),
        Case("local --D 3 --p 3 --T=-3,0,3,3 --oracle",
             sha="a462340cace943e488e65b6736419e471a07198875849c7007f0f2dc86029519"),
    ),
    # cold Q_{T,p} keys at deep valuations, and the verification suites
    "requests_are_pinned": (
        Case("coeff --D 23 --ell 6 --T=-7984999310198158092,1996249827549539523,"
             "665416609183179841,665416609183179841",
             sha="0fdde2c2b1dddb0e6854db7cab46a53a40b9b162d50021625fe6493f39bdb554"),
        Case("local --D 3 --ell 6 --T=0,137858491849,965009442943,0 --p 13",
             sha="51b75b43c2b02ecc96a963149b0362a8e16ca465ec8cba910f40e6d3db084730"),
        Case("lift --D 23 --ell 6 --T=-133034746424165596071607,133034746424165596071607,"
             "-19004963774880799438801,0 --eigenvalues delta.json",
             sha="252cd9ffd9bddb89f4393be31ef7758411878bbe850f3a07a30007eadbbea2cd"),
        Case("local --D 7 --p 7 --T=-55365148804,-13841287201,-3672178237,3672178237",
             sha="8a0b2ba07debc7d946774d51414f97530691ed746d5458c688e7e50988c708fe"),
        Case("verify --suite all",
             sha="024f70c53b67015d3d2c383b9cff703acd5c1b80552be3f9e37a98f67fe0c635"),
        # deep keys: split p = 13 at k = 40, inert p = 5 at k = 20, ramified p = 11 at k = 22
        Case("local --D 3 --ell 6 --p 13 "
             "--T=19004963774880799438801,0,0,19004963774880799438801",
             sha="58925b1210f109b7cb6f79bfde3daf62363ca1cad8c9b28cde59c7778a9b0809"),
        Case("coeff --D 3 --ell 6 --T=9765625,0,0,9765625",
             sha="626219363b003c2384c286270929fe6e1008b77593f3dbdbd2a99fca70eec743"),
        Case("local --D 11 --ell 6 --p 11 --T=285311670611,0,0,285311670611",
             sha="8504bad2c5f88212d75cc360e5318f67921fd2a9637981f39519f70b15c62048"),
    ),
    # expansion tables
    **{f"expansion_bytes_are_pinned[{D}]": _expand(D, 3, 12, "json", sha) for D, sha in (
        (3, "93bfc4789bfe73791b04059bc35cb2b8ef0ed4c6060caa934b3e8724aba400c8"),
        (7, "f633bdf493f80f0508372bf22dd372b1dc0d517c20bb93b806ce96c9efe5eae5"))},
    **{f"expansion_csv_bytes_are_pinned[{D}]": _expand(D, 3, 6, "csv", sha) for D, sha in (
        (3, "f3ea39a8817e85d4135e2b395688751af3965ecabdfd1a2ef16bbf102ea20dde"),
        (7, "fc8c1fcf716723ad43416b6997c479ff2f05a7adbf6104e69949959fd92c13e7"))},
    **{"wider_expansion_bytes_are_pinned[{}-{}-{}-{}]".format(*key): _expand(*key, sha)
       for *key, sha in (
           (3, 5, 24, "json", "21236f952f255acefda5522aeea5f33373776aa866413a84024861a045042b36"),
           (7, 5, 24, "json", "4dc4a4b5fe6eb4cc221ab7cde8216e0d53d429a7fac8b4b20cc71a854ca630e7"),
           (11, 3, 12, "csv", "d58feeac43d9a1387c652aa3fc03c69c9c65c2c82227bb0335e160c3784e079b"),
           (3, 3, 48, "json", "9c3809e615dc92cdc14c2006eaf53d44b4a41521374cf1672290adb5a33817a0"),
           (19, 3, 24, "csv", "8461f2b9f68e989b2b15806f2002272f4b48e0e48552c23d1d88f4e7dea39213"))},
    "wider_expansion_bytes_are_pinned[3-3-48-csv]": (Case(
        "expand --D 3 --bound 48 --format csv",
        sha="7ae38495b7e08a23a4f211c000f0153a6487fe1ce2ff117ae1749acb5838b9a7"),),
    "wider_expansion_bytes_are_pinned[7-3-48-json]": (Case(
        "expand --D 7 --bound 48", scipy=2,
        sha="34f12dd9bab9a7cec90b47db1ffb55a374d3084b139a654db7129f9ea8b9751f"),),
    # D = 23 splits at 2 and at 3: readings keep the order of the primes above each
    "wider_expansion_bytes_are_pinned[23-5-24-json]": (Case(
        "expand --D 23 --ell 5 --bound 24", scipy=2,
        sha="c422f789cf30fcfa5b0d5ec3c7c95ee8264ef3e6f6b8520be7b31dff4d8f8b26"),),
}


class _Timeout(BaseException):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_in_process(argv: list, seconds: int):
    """(exit code, stdout, stderr) of ``qeis.cli.main(argv)``, or a None exit
    code past ``seconds``; an escaping exception is a traceback and exit 1."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(seconds)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = qeis_main(argv)
    except SystemExit as exc:
        code = exc.code
    except _Timeout:
        code = None
    except Exception:
        traceback.print_exc(file=err)
        code = 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def run_script(argv: list, seconds: int):
    """(exit code, stdout, stderr) of the ``qeis`` on PATH; the code is None past ``seconds``."""
    try:
        proc = subprocess.run(["qeis", *argv], capture_output=True, text=True, timeout=seconds)
    except subprocess.TimeoutExpired:
        return None, "", ""
    return proc.returncode, proc.stdout, proc.stderr


def run_case(case: Case, run=run_in_process):
    """(exit code, stdout, stderr, the --out file's text or None) of a run of
    ``case`` in a fresh directory holding the fixture files."""
    argv = case.argv.split()
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FIXTURES.items():
            Path(tmp, name).write_text(text)
        os.chdir(tmp)
        try:
            return (*run(argv, case.seconds), out.read_text() if out and out.exists() else None)
        finally:
            os.chdir(cwd)


def problems(case: Case, run=run_in_process) -> list:
    """What a run of ``case`` breaks of the contract; empty when it keeps it."""
    code, out, err, doc = run_case(case, run)
    if code is None:
        return [f"no end within {case.seconds} s"]
    found = []
    if code != case.exit:
        found.append(f"exit {code}, expected {case.exit}")
    if "Traceback" in err or case.stderr not in err or (code == 0 and err):
        found.append(f"stderr {err[-2000:]!r}")
    if code != 0 and (out or doc is not None):
        found.append("a failed run wrote output")
    lines = (out if doc is None else doc).splitlines(keepends=True)
    kept = [x for x in lines if not x.lstrip().startswith(('"numeric":', '"zetaE":'))]
    sha = hashlib.sha256("".join(kept).encode()).hexdigest()
    if case.sha not in (None, sha):
        found.append(f"SHA-256 {sha}, expected {case.sha}")
    if case.sha and len(lines) - len(kept) != case.scipy:
        found.append(f"{len(lines) - len(kept)} scipy lines, expected {case.scipy}")
    return found


def main() -> int:
    """Run every case through the ``qeis`` script; 1 if any fails."""
    failed = 0
    for clause, cases in CLAUSES.items():
        for i, case in enumerate(cases):
            if found := problems(case, run_script):
                failed += 1
                print(f"FAIL {clause} #{i}: qeis {case.argv}: " + "; ".join(found))
    print(f"{failed} of {sum(map(len, CLAUSES.values()))} cases fail")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
