"""qeis benchmark runner.

    python3 perfbench/run.py --workload table --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  A run starts one perfbench/child.py
server, a fresh interpreter that imports qeis from ./src, and every
repetition is a process forked from it before any request ran, so
in-program caches start cold as they do for a CLI invocation.  Steps cycle
until --seconds is spent: with --trace 0 two single-client repetitions,
two pool repetitions and the set-up of one more fresh interpreter per cycle
(PATTERN), with --trace 1 an untraced and a traced repetition per cycle.
The last stdout line is the result JSON; the line before it holds the run's
details (machine, seed, input counts, failures, digests).  NOTES.md lists
the workloads and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import itertools
import importlib.metadata
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = BENCH / ".work"
HARD_LIMIT_S = 165          # every child is stopped this long after the run starts
WORKLOADS = ("table", "deep", "oracle", "verify")
# Steps of one untraced cycle: single-client and pool repetitions, and the
# set-up of a fresh interpreter.
PATTERN = ("serial", "pool", "serial", "pool", "setup")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": nproc(), "cpu_model": model, "python": platform.python_version(),
            "platform": platform.platform(), **versions}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class ChildError(RuntimeError):
    pass


class Server:
    """One child.py server: a fresh interpreter that forks a process per repetition.

    Its process group holds every process it starts; close() kills what is
    left of the group and waits until the group is gone.
    """

    def __init__(self, deadline):
        self.deadline = deadline
        self.err = tempfile.TemporaryFile("w+", dir=WORKDIR)
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "child.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.err, text=True, start_new_session=True)
        try:
            self.setup_s = self._request({"src": str(SRC), "workdir": str(WORKDIR)})["setup_s"]
        except BaseException:
            self.close()
            raise

    def _request(self, doc) -> dict:
        """Send one line, read one JSON line back before the deadline."""
        try:
            self.proc.stdin.write(json.dumps(doc) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise ChildError(self._failure("exited")) from None
        readable, _, _ = select.select([self.proc.stdout], [], [],
                                       max(0.0, self.deadline - time.monotonic()))
        line = self.proc.stdout.readline() if readable else ""
        if not readable:
            raise ChildError(self._failure("timed out"))
        if not line:
            raise ChildError(self._failure("exited"))
        return json.loads(line)

    def _failure(self, what) -> str:
        self.err.seek(0)
        return f"benchmark child {what}: {self.err.read()[-600:]}"

    def run(self, parts, trace=False, spans_path=None) -> list:
        """Run the parts at once, each in a forked process; one document per part."""
        return self._request({"parts": parts, "trace": trace,
                              "spans_path": spans_path})["docs"]

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=max(1.0, min(10.0, self.deadline - time.monotonic())))
            except (BrokenPipeError, subprocess.TimeoutExpired):
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        for _ in range(500):      # orphaned repetitions are reaped by init
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        self.err.close()


def objects_pass():
    """Store Fractions in a dict under int-tuple keys: allocation and exact
    arithmetic on Python objects, as qeis does outside the oracle."""
    table = {}
    for i in range(80_000):
        table[(i * 7919) % 200003, i & 7] = Fraction(i, 7)


def memory_pass():
    """One numpy pass over 2^22 int64 values, bound by memory as the
    oracle's large lattice grids are."""
    a = np.arange(1 << 22, dtype=np.int64)
    np.count_nonzero((a * 7919) % 200003 < 1000)


# Each workload's calibration: a pass that does the same kind of work and
# slows with the host as the workload does, but runs no qeis code, so a
# change to the program does not move it; and the pass's time on the
# reference host in a quiet spell.  NOTES.md (Noise) gives the evidence.
CALIBRATION = {"table": (objects_pass, 0.100), "deep": (objects_pass, 0.100),
               "verify": (objects_pass, 0.100), "oracle": (memory_pass, 0.050)}


def calibrate(workload) -> float:
    """Seconds for one calibration pass of the workload."""
    start = time.perf_counter()
    CALIBRATION[workload][0]()
    return time.perf_counter() - start


def setup_sample(deadline) -> float:
    """Set-up time of one fresh interpreter."""
    server = Server(deadline)
    server.close()
    return server.setup_s


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def requests_for(workload, seed, index, size, pool=False) -> list:
    if workload == "table":
        return wl.table_requests(size, workers=nproc() if pool else 1)
    if workload == "deep":
        return wl.deep_slice(seed, index, size, str(WORKDIR / "delta.json"))
    if workload == "oracle":
        return wl.oracle_slice(seed, index, size)
    return wl.verify_requests(size)


def run_rep(server, workload, mode, requests) -> dict:
    """One repetition: its requests, one result entry per request, part docs."""
    if mode == "pool" and workload != "table":
        n = nproc()
        docs = server.run([requests[c::n] for c in range(n)])
        entries = [None] * len(requests)
        for c, doc in enumerate(docs):
            for j, entry in enumerate(doc.get("results", [])):
                entries[c + j * n] = entry
    else:
        spans = str(WORKDIR / f"spans-{workload}.json") if mode == "traced" else None
        docs = server.run([requests], trace=mode == "traced", spans_path=spans)
        entries = docs[0].get("results", [None] * len(requests))
    ok_docs = [d for d in docs if "error" not in d]
    wall = (max(d["end"] for d in ok_docs) - min(d["start"] for d in ok_docs)
            if len(ok_docs) == len(docs) else None)
    return {"mode": mode, "requests": requests, "entries": entries, "docs": ok_docs,
            "errors": [d["error"] for d in docs if "error" in d], "wall_s": wall}


def check_rep(workload, rep, index, checker) -> list:
    """Failure messages, one list per request (empty when it passed)."""
    per_req = []
    for req, entry in zip(rep["requests"], rep["entries"]):
        if entry is None:
            per_req.append(["no result: " + "; ".join(rep["errors"])])
        elif entry["error"]:
            per_req.append([f"{wl.label(req)}: {entry['error']}"])
        else:
            try:
                per_req.append(getattr(checker, workload)(req, entry["output"]))
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                per_req.append([f"malformed output: {exc!r}"])
    if workload == "deep":
        outputs = [e["output"] if e and not e["error"] else None for e in rep["entries"]]
        slice_fails = checker.slice_digest(index, rep["requests"], outputs)
        if slice_fails:
            per_req = [f or slice_fails for f in per_req]
    return per_req


def rep_latency(rep, q) -> float:
    """Nearest-rank q-quantile of one repetition's request latencies, in ms."""
    ordered = sorted(e["latency_s"] for e in rep["entries"] if e and not e["error"])
    if not ordered:
        return float("nan")
    return ordered[max(0, math.ceil(round(q * len(ordered), 6)) - 1)] * 1e3


def layer_metrics(summary, wall_s) -> dict:
    """Per-layer metrics of one traced repetition."""
    L = summary["layers"]
    out = {}
    for layer, st in L.items():
        out[f"{layer}.calls"] = st["calls"]
        out[f"{layer}.s"] = st["s"]
        out[f"{layer}.self_s"] = st["self_s"]
    q, orc = L["siegel.q_poly"], L["siegel.term_oracle"]
    out["siegel.q_poly.key_repeat_share"] = (
        (q["calls"] - q["distinct_keys"]) / q["calls"] if q["calls"] else 0.0)
    out["siegel.term_oracle.points"] = orc["points"]
    out["siegel.term_oracle.ns_per_point"] = orc["s"] / orc["points"] * 1e9 if orc["points"] else 0.0
    out["siegel.term_oracle.chunked_share"] = (
        orc["chunked_points"] / orc["points"] if orc["points"] else 0.0)
    out["cli.emit.bytes"] = L["cli.emit"]["bytes"]
    out["trace.wall_s"] = wall_s
    return out


def measure(workload, seed, seconds, trace, hard, size="full") -> tuple:
    """Run one workload until `seconds` have passed; returns (result line, details)."""
    spec = load_spec()
    checker = wl.Checker(json.loads((BENCH / "expected.json").read_text()), size, seed)
    loadavg_start = os.getloadavg()
    start = time.monotonic()
    deadline = start + seconds
    pattern = ("serial", "traced") if trace else PATTERN
    reps, last, setups, cals = [], {}, [], []
    server = Server(hard)
    try:
        setups.append(server.setup_s)
        for step in itertools.count():
            mode = pattern[step % len(pattern)]
            if step >= len(pattern) and time.monotonic() + last.get(mode, 0.0) > deadline:
                break
            t = time.monotonic()
            if mode == "setup":
                setups.append(setup_sample(hard))
            else:
                index = len(reps)
                reps.append(run_rep(server, workload, mode, requests_for(
                    workload, seed, index, size, mode == "pool")))
            cals.append(calibrate(workload))
            last[mode] = time.monotonic() - t
    finally:
        server.close()
    for index, rep in enumerate(reps):
        rep["fails"] = check_rep(workload, rep, index, checker)

    by_mode = {m: [r for r in reps if r["mode"] == m] for m in pattern if m != "setup"}
    serial = by_mode["serial"]
    failures = [msg for r in reps for f in r["fails"] for msg in f]
    attempted = sum(len(r["requests"]) for r in reps)
    failed = sum(1 for r in reps for f in r["fails"] if f)
    latency_samples = sum(1 for r in serial for e in r["entries"] if e and not e["error"])
    med = statistics.median

    def per_rep(fn, rs):
        vals = [fn(r) for r in rs if r["wall_s"] is not None and not r["errors"]]
        return med(vals) if vals else float("nan")

    # Host speed drifts by up to 2x over minutes; the calibration pass slows
    # with it, so times are scaled to the speed of the reference host.
    scale = CALIBRATION[workload][1] / med(cals)
    raw = {}

    if trace:
        traced = [r for r in by_mode["traced"] if r["docs"]]
        per_layer = [layer_metrics(r["docs"][0]["trace"], r["wall_s"]) for r in traced]
        metrics_all = {k: med([m[k] for m in per_layer]) for k in per_layer[0]} if per_layer else {}
        if metrics_all:
            metrics_all["trace.overhead_ratio"] = (
                metrics_all["trace.wall_s"] / per_rep(lambda r: r["wall_s"], serial))
        wanted = spec["per_layer"]
    else:
        raw = {
            "wall_s": per_rep(lambda r: r["wall_s"], serial),
            "setup_s": med(setups),
            "items_per_s": per_rep(lambda r: sum(
                wl.items(workload, e["output"]) for e in r["entries"] if e and not e["error"]
            ) / r["wall_s"], serial),
            "latency_p50_ms": per_rep(lambda r: rep_latency(r, 0.50), serial),
            "latency_p95_ms": per_rep(lambda r: rep_latency(r, 0.95), serial),
            "pool_wall_s": per_rep(lambda r: r["wall_s"], by_mode["pool"]),
        }
        metrics_all = {name: v / scale if name == "items_per_s" else v * scale
                       for name, v in raw.items()}
        metrics_all["peak_rss_mb"] = per_rep(lambda r: r["docs"][0]["maxrss_mb"], serial)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": metrics_all.get(m["name"], float("nan")), "unit": m["unit"]}
               for m in wanted}
    correct = failed == 0 and all(v["value"] == v["value"] for v in metrics.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "machine": machine_facts(), "loadavg_start": loadavg_start,
        "loadavg_end": os.getloadavg(), "elapsed_s": time.monotonic() - start,
        "inputs": {"repetitions": {m: len(rs) for m, rs in by_mode.items()},
                   "requests": attempted, "latency_samples": latency_samples,
                   "setup_samples": len(setups)},
        "calibration": {"median_s": med(cals), "samples": len(cals), "scale": scale},
        "unscaled": raw,
        "fail_ratio": failed / attempted, "failures": failures[:10],
        "untraced_layers": sorted({name for r in reps for d in r["docs"]
                                   for name in d.get("trace", {}).get("missing", [])}),
        "digests": _digests(workload, reps, checker),
    }
    return result, details


def _digests(workload, reps, checker) -> dict:
    """Output digests of this run, for comparing with expected.json."""
    if workload == "table":
        return {f"{q['D']}:{q['bound']}": e["output"]["exact_digest"]
                for q, e in zip(reps[0]["requests"], reps[0]["entries"])
                if e and not e["error"]}
    if workload == "deep":
        return {str(i): checker.deep_digest(r["requests"], [
            e["output"] if e and not e["error"] else None for e in r["entries"]])
            for i, r in enumerate(reps)}
    return {}


def prepare(workload):
    """Work directory and, for `deep`, the eigenvalue file its lift requests read."""
    WORKDIR.mkdir(exist_ok=True)
    if workload == "deep":
        tau = wl.delta_eigenvalues(wl.DELTA_P_MAX)
        (WORKDIR / "delta.json").write_text(json.dumps(
            {"weight": 2 * wl.DEEP_ELL, "ap": {str(p): a for p, a in tau.items()}}))


def print_summary(result, details):
    print(f"{details['workload']} seed={details['seed']} trace={details['trace']} "
          f"fail_ratio={details['fail_ratio']:.4g} ({result['failed']}/{result['attempted']}) "
          f"{details['inputs']}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for msg in details["failures"]:
        print("  FAIL " + msg, file=sys.stderr)


def self_check() -> int:
    """Every workload at a tiny size, untraced and traced; every metric must appear."""
    spec = load_spec()
    problems = []
    for w in spec["workloads"]:
        prepare(w["name"])
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, details = measure(w["name"], wl.DEFAULT_SEED, 1, trace,
                                      time.monotonic() + HARD_LIMIT_S, size="tiny")
            print_summary(result, details)
            got = result["metrics"]
            for m in wanted:
                v = got.get(m["name"])
                if v is None or v["unit"] != m["unit"] or v["value"] != v["value"]:
                    problems.append(f"{w['name']} trace={trace}: {m['name']} missing")
            if not result["correct"]:
                problems.append(f"{w['name']} trace={trace}: {details['failures']}")
    for msg in problems:
        print("SELF-CHECK FAIL " + msg, file=sys.stderr)
    print("self-check " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "qeis").is_dir():
        print(f"no qeis sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if not args.workload:
            ap.error("--workload is required")
        hard = time.monotonic() + HARD_LIMIT_S
        prepare(args.workload)
        result, details = measure(args.workload, args.seed, args.seconds, args.trace, hard)
    except ChildError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print_summary(result, details)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
