"""Per-layer tracing for one benchmark child process.

Wrappers are installed from outside the program: each traced function is
rebound, by identity, in every ``qeis`` module that holds it, so a name
imported with ``from .siegel import q_poly`` is traced just like the
module attribute.  Every call records a span (name, start, end, parent,
request id) in memory; calls, inclusive time and self time (duration minus
the time of traced child spans) are aggregated online.  A few layers also
record counts of the work they were asked to do.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, function, layer name); the layer name is the metric prefix.
TRACED = (
    ("siegel", "q_poly", "siegel.q_poly"),
    ("siegel", "q_poly_closed_form", "siegel.q_poly_closed_form"),
    ("siegel", "assemble_series", "siegel.assemble_series"),
    ("siegel", "q_poly_from_series", "siegel.q_poly_from_series"),
    ("siegel", "term_oracle", "siegel.term_oracle"),
    ("hermitian", "local_quadratic_data", "hermitian.local_quadratic_data"),
    ("hermitian", "prime_ideal_valuation", "hermitian.prime_ideal_valuation"),
    ("fourier", "full_expansion", "fourier.full_expansion"),
    ("fourier", "coefficient", "fourier.coefficient"),
    ("fourier", "d_nl", "fourier.d_nl"),
    ("fourier", "sigma_E", "fourier.sigma_E"),
    ("arith", "sqrtp_eval_halfint", "arith.sqrtp_eval_halfint"),
    ("arith", "prime_factors", "arith.prime_factors"),
    ("archimedean", "whittaker_at", "archimedean.whittaker_at"),
    ("bessel", "bessel_k", "bessel.bessel_k"),
    ("lift", "lift_coefficient", "lift.lift_coefficient"),
    ("verify", "suite_oracle", "verify.suite_oracle"),
    ("verify", "suite_functional", "verify.suite_functional"),
    ("verify", "suite_identities", "verify.suite_identities"),
    ("verify", "suite_denominators", "verify.suite_denominators"),
    ("cli", "_emit", "cli.emit"),
)

SPAN_CAP = 300_000  # spans kept for the written trace; aggregates are never capped
GRID_CACHE_POINTS = 1 << 21  # term_oracle enumerates larger grids in chunks


class Tracer:
    def __init__(self):
        self.stats = {layer: [0, 0.0, 0.0] for _, _, layer in TRACED}  # calls, s, self s
        self.stack = []          # open spans: [span index, start, child s]
        self.spans = []          # [name, start, end, parent index, request id]
        self.request = None
        self.q_keys = []         # (p, case, n, k, k1, k2) of every q_poly call
        self.oracle_points = 0
        self.oracle_chunked_points = 0
        self.emit_bytes = 0
        self.missing = []

    def install(self):
        """Wrap every traced function that the program still defines."""
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "qeis" or name.startswith("qeis."))}
        for mod_name, fn_name, layer in TRACED:
            home = mods.get("qeis." + mod_name)
            original = getattr(home, fn_name, None) if home else None
            if original is None:
                self.missing.append(layer)
                continue
            wrapped = self._wrap(layer, original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def _wrap(self, layer, fn):
        before = getattr(self, "_before_" + layer.replace(".", "_"), None)
        after = getattr(self, "_after_" + layer.replace(".", "_"), None)
        stats = self.stats[layer]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            note = before(*args, **kwargs) if before else None
            idx = len(self.spans)
            parent = self.stack[-1][0] if self.stack else -1
            if idx < SPAN_CAP:
                self.spans.append([layer, 0.0, 0.0, parent, self.request])
            frame = [idx, clock(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                dur = end - frame[1]
                if idx < SPAN_CAP:
                    self.spans[idx][1:3] = [frame[1], end]
                if self.stack:
                    self.stack[-1][2] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[2]
            if after:
                after(note, result, *args, **kwargs)
            return result

        return wrapper

    # --- work counts recorded at the layer boundary -----------------------

    def _before_siegel_q_poly(self, data, P, *rest, **kw):
        case = getattr(data.case, "value", data.case)
        self.q_keys.append((data.p, case, P.n, data.k, data.k1, data.k2))

    def _before_siegel_term_oracle(self, r, eta, shape, *rest, **kw):
        if r <= 0 or not shape.in_dual(eta):
            return 0
        return (shape.p ** r) ** shape.rank

    def _after_siegel_term_oracle(self, points, result, *args, **kw):
        self.oracle_points += points
        if points > GRID_CACHE_POINTS:
            self.oracle_chunked_points += points

    def _before_cli_emit(self, doc, out_path=None, *rest, **kw):
        return None if out_path else sys.stdout.tell()

    def _after_cli_emit(self, pos, result, doc, out_path=None, *rest, **kw):
        self.emit_bytes += (os.path.getsize(out_path) if out_path
                            else sys.stdout.tell() - pos)

    # --- results -----------------------------------------------------------

    def summary(self) -> dict:
        out = {layer: {"calls": c, "s": s, "self_s": self_s}
               for layer, (c, s, self_s) in self.stats.items()}
        out["siegel.q_poly"]["distinct_keys"] = len(set(self.q_keys))
        out["siegel.term_oracle"]["points"] = self.oracle_points
        out["siegel.term_oracle"]["chunked_points"] = self.oracle_chunked_points
        out["cli.emit"]["bytes"] = self.emit_bytes
        return {"layers": out, "missing": self.missing, "spans": len(self.spans)}

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh)
