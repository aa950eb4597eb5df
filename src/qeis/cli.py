"""Command-line surface.

Subcommands: local (one local polynomial), coeff (one Fourier coefficient),
expand (an expansion table), lift (candidate lift coefficients), verify
(the verification suites).  JSON is the canonical output; CSV flattens the
entry list of a table.  Exit codes: 0 success, 1 usage, 2 validation,
3 internal consistency or failed verification, 4 resource budget.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .arith import prime_factors
from .errors import (InternalConsistencyError, ResourceBudgetError,
                     ValidationError)
from .fourier import (ExpansionTable, FourierCoefficient, c_ell, coefficient, d_nl,
                      full_expansion)
from .hermitian import (FieldE, GlobalVector, Params, global_vector,
                        local_quadratic_data, norm)
from .lift import EigenformData, lift_coefficient, standard_L_factors
from .siegel import DEFAULT_BUDGET, check_against_oracle, q_poly
from .verify import run_suite

EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_INTERNAL, EXIT_BUDGET = 0, 1, 2, 3, 4
BUDGET_HELP = ("largest p^(r*rank), the size of the lattice an oracle term counts "
               "(not the work done); a positive integer, default 10^8")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _parse_T(text: str) -> GlobalVector:
    try:
        parts = [int(c) for c in text.split(",")]
    except ValueError:
        raise ValidationError(f"cannot parse T coordinates from {text!r}")
    if len(parts) != 4:
        raise ValidationError("T must be ax,ay,bx,by (coordinates over the 1, omega basis)")
    return global_vector(*parts)


def _emit(doc, out_path, fmt: str = "json"):
    """Render doc and write it to out_path, or to stdout: the one writer of both.

    An :class:`ExpansionTable` is rendered by :func:`_table_json` or
    :func:`_table_csv` as fmt says, a :class:`FourierCoefficient` as its
    :func:`_entry_json` at depth 0, any other doc by json.dumps(indent=2)
    with str() for Fractions.  Exact values outgrow Python's int-to-str
    digit limit at large ell, so the limit is lifted while rendering only.
    An out_path that cannot be written raises ValidationError naming it.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none (Python < 3.10.7)
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if isinstance(doc, ExpansionTable):
            text = _table_json(doc) if fmt == "json" else _table_csv(doc)
        elif isinstance(doc, FourierCoefficient):
            text = _entry_json(doc).replace("\n    ", "\n")[4:] + "\n"  # depth 2 to 0
        else:
            text = json.dumps(doc, indent=2, default=str) + "\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write output file {out_path!r}: "
                                  f"{exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _table_csv(table: ExpansionTable) -> str:
    """CSV projection: the rows of an expansion table, one line per entry."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ax", "ay", "bx", "by", "norm", "rank", "rational"])
    for ax, ay, bx, by, nrm, (rank, rational, _, _) in table.rows:
        writer.writerow([ax, ay, bx, by, nrm, rank, rational])
    return buf.getvalue()


# One table entry exactly as json.dumps(indent=2) lays it out at depth 2,
# where entries sit: ints go into %d slots, strings through the JSON encoder.
# The head holds T and "norm"; the tail, from "rank" on, holds the value.
_HEAD = ('    {\n      "T": [\n        [\n          %d,\n          %d\n        ],\n'
         '        [\n          %d,\n          %d\n        ]\n      ],\n'
         '      "norm": %d')
_TAIL = ',\n      "rank": %d,\n      "rational": %s'
_SIGMA = ',\n      "sigma": %d'
_LOCAL_Q = ',\n      "localQ": {\n%s\n      }'
_Q_ITEM = '        "%d": [\n          %s\n        ]'  # Q_{T,p} is monic: never empty


def _entry_tail(rank: int, rational: Fraction, sigma, local_q) -> str:
    """An entry from "rank" to its closing brace: "rank" and "rational", then
    "sigma" at rank 1 or a non-empty "localQ" ({p: Q_{T,p}} by p) at rank 2."""
    text = _TAIL % (rank, encode_basestring_ascii(str(rational)))
    if rank == 1:
        text += _SIGMA % sigma
    elif local_q:
        text += _LOCAL_Q % ",\n".join(_Q_ITEM % (p, ",\n          ".join(map(str, q.d)))
                                       for p, q in sorted(local_q.items()))
    return text + "\n    }"


def _entry_json(e: FourierCoefficient) -> str:
    """A coefficient's entry as json.dumps(indent=2) lays it out at depth 2:
    "T", "norm", "rank" and "rational", then "sigma" or "localQ"."""
    a, b = e.T.a, e.T.b
    head = _HEAD % (a.x, a.y, b.x, b.y, e.norm)
    return head + _entry_tail(e.rank, e.rational, e.sigma, e.local_q)


def _table_json(table: ExpansionTable) -> str:
    """The bytes of json.dumps(doc, indent=2) + "\\n" for the table's document.

    The document is the header of :func:`_table_header` followed by
    "entries", one entry per row.  Only the header goes through json.dumps;
    each row's five ints fill the head template, with no per-entry dict or
    object.  The rows of one invariant hold one value tuple
    (:func:`~qeis.fourier.coefficient_of_invariants`), so each tail is
    rendered once per distinct value, found by the identity of that tuple.
    """
    head = json.dumps(_table_header(table), indent=2)[:-2]  # without the closing "\n}"
    if not table.rows:
        return f'{head},\n  "entries": []\n}}\n'
    tails = {}  # each tail with the ",\n" that follows every entry but the last
    parts = [head, ',\n  "entries": [\n']
    for ax, ay, bx, by, nrm, value in table.rows:
        tail = tails.get(id(value))
        if tail is None:
            tail = tails[id(value)] = _entry_tail(*value) + ",\n"
        parts += (_HEAD % (ax, ay, bx, by, nrm), tail)
    parts[-1] = parts[-1][:-2]
    parts.append("\n  ]\n}\n")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_local(args) -> int:
    F = FieldE(args.D)
    P = Params(n=args.n, ell=args.ell)
    T = _parse_T(args.T)
    data = local_quadratic_data(T, F, args.p, P)
    q = q_poly(data, P)
    key = data.key
    doc = {
        "case": key.case.value,
        "k": key.k,
        "k1": key.k1,
        "k2": key.k2,
        "Q": list(q.d) if q is not None else None,
        "p": args.p,
        "coefficient_convention": "coeff(X^i) = Q[i] * p^((i mod 2)/2)",
    }
    if args.oracle:
        check_against_oracle(data, args.budget)
        doc["oracle"] = {"verdict": "agree"}
    _emit(doc, args.out)
    return EXIT_OK


def cmd_coeff(args) -> int:
    F = FieldE(args.D)
    P = Params(n=args.n, ell=args.ell)
    T = _parse_T(args.T)
    _emit(coefficient(T, P, F), args.out)
    return EXIT_OK


def cmd_expand(args) -> int:
    F = FieldE(args.D)
    P = Params(n=args.n, ell=args.ell)
    _emit(full_expansion(P, F, args.bound), args.out, fmt=args.format)
    return EXIT_OK


def _table_header(table: ExpansionTable) -> dict:
    """Every key of a table's JSON document but the last, "entries"."""
    P = table.params
    ct = table.constant
    return {
        "params": {
            "D": table.F.D, "n": P.n, "ell": P.ell, "bound": table.bound,
            "region": f"N(a), N(b) <= {table.region_norm_cap}",
            "region_note": "isotropic vectors form an infinite family; the table "
                           "lists only the enumerated coordinate region",
            "constant_term_basis": {
                "used": "[u1^l][u2^l]",
                "note": "the headline statement prints [u1^n][u2^n]; the section "
                        "computation fixes [u1^l][u2^l]",
            },
        },
        "constant_term": {
            "rational": str(ct.rational),
            "symbolic": ct.symbolic,
            "numeric": ct.numeric,
            "zetaE": ct.zeta_E,
        },
        "C_ell": str(c_ell(P.ell)),
        "D_nl": str(d_nl(P, table.F)),
    }


def cmd_lift(args) -> int:
    F = FieldE(args.D)
    P = Params(n=args.n, ell=args.ell)
    try:
        with open(args.eigenvalues, errors="replace") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read eigenvalue file {args.eigenvalues!r}: "
                              f"{exc.strerror}") from None
    try:
        h = EigenformData.from_json(text)
    except ValidationError as exc:
        raise ValidationError(f"eigenvalue file {args.eigenvalues!r}: {exc}") from None
    T = _parse_T(args.T)
    nrm = norm(T, F)
    doc = {
        "T": T.as_list(),
        "norm": nrm,
        "weight": h.weight,
        "lift_coefficient": lift_coefficient(T, h, P, F),
        "euler_factors": {},
    }
    for p in prime_factors(nrm):
        desc = standard_L_factors(p, h, P, F)
        doc["euler_factors"][str(p)] = {
            "splitting": desc.splitting,
            "degree": desc.degree,
            "poly_re": [c.real for c in desc.poly],
            "poly_im": [c.imag for c in desc.poly],
        }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    ps = None if args.p is None else (args.p,)
    reports = run_suite(args.suite, budget=args.budget, ps=ps)
    ok = all(r["ok"] for r in reports)
    _emit({"ok": ok, "reports": reports}, args.out)
    return EXIT_OK if ok else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built once per process."""
    parser = _Parser(prog="qeis",
                     description="Fourier expansions of quaternionic Heisenberg "
                                 "Eisenstein series on U(2,n)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, T=False, p=False, bound=False, eig=False):
        sp.add_argument("--D", type=int, required=True, help="squarefree D = 3 mod 4")
        sp.add_argument("--n", type=int, default=2)
        sp.add_argument("--ell", type=int, default=3)
        if T:
            sp.add_argument("--T", required=True, help="ax,ay,bx,by")
        if p:
            sp.add_argument("--p", type=int, required=True)
        if bound:
            sp.add_argument("--bound", type=int, default=2)
        if eig:
            sp.add_argument("--eigenvalues", required=True,
                            help="JSON file {\"weight\": w, \"ap\": {\"2\": -24, ...}}")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("local", help="one local polynomial Q_{T,p}")
    common(sp, T=True, p=True)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help=BUDGET_HELP + "; read only with --oracle")
    sp.add_argument("--oracle", action="store_true",
                    help="re-derive every series term by the exact lattice-count oracle")
    sp.set_defaults(func=cmd_local)

    sp = sub.add_parser("coeff", help="one Fourier coefficient")
    common(sp, T=True)
    sp.set_defaults(func=cmd_coeff)

    sp = sub.add_parser("expand", help="expansion table up to a norm bound")
    common(sp, bound=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--workers", type=int, default=1,
                    help="accepted and ignored: tables are built serially")
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("lift", help="candidate lift coefficient from eigenvalues")
    common(sp, T=True, eig=True)
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True)
    sp.add_argument("--p", type=int, default=None,
                    help="run the oracle suite at this prime alone, not at 2, 3 and 5; "
                         "read only by oracle and all, but every suite rejects a non-prime")
    sp.add_argument("--out", default=None)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help=BUDGET_HELP + "; only the oracle suite and all read it")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if vars(args).get("budget", 1) <= 0:
            raise ValidationError(f"--budget = {str(args.budget)!r} is not positive")
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
