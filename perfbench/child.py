"""Benchmark repetitions, each in a process forked right after qeis is imported.

    python3 perfbench/child.py

A server: it reads a config line (a JSON object with the qeis source
directory and the work directory) on stdin, imports qeis and builds its
argument parser as a CLI invocation does, and prints ``{"setup_s": ...}``.
Then, for every job line, it forks one process per part of the job.  Each
forked process starts from the state right after set-up, with every
in-program cache still cold, runs its part's requests one after another
through the public entry points (``qeis.cli.main`` and the package API) and
writes its result document; the server prints one line with the documents
of all parts.  The parts of a job run at the same time.  An empty line or
end of input stops the server.  Forking saves the set-up of a fresh
interpreter on every repetition, so a run holds more repetitions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _setup(src):
    """Import qeis and build its argument parser, as a CLI invocation does."""
    sys.path.insert(0, src)
    start = time.perf_counter()
    import qeis.cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            qeis.cli.main(["--help"])
        except SystemExit:
            pass
    return time.perf_counter() - start


def _run(req, out_path):
    """Run one request; returns (latency s, raw output or None, error or None)."""
    import qeis

    buf = io.StringIO()
    raw, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if req["kind"] == "cli":
                argv = req["argv"] + (["--out", out_path] if req.get("out") else [])
                rc = qeis.cli.main(argv)
                if rc != 0:
                    error = f"exit code {rc}"
            elif req["kind"] == "whittaker":
                F, P = qeis.FieldE(req["D"]), qeis.Params(n=2, ell=req["ell"])
                raw = qeis.coefficient(qeis.global_vector(*req["T"]), P, F,
                                       with_whittaker=True)
            else:
                raw = getattr(qeis.verify, "suite_" + req["suite"])(**req["kwargs"])
    except SystemExit as exc:
        error = f"exit code {exc.code}"
    except Exception as exc:  # a failed request is counted, the run goes on
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if req["kind"] == "cli" and not req.get("out"):
        raw = buf.getvalue()
    return latency, raw, error


def _table_summary(path):
    """Byte hash, exact-field digest, float fields and size of an expansion table."""
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    doc = json.loads(data)
    ct = doc["constant_term"]
    floats = {"numeric": ct.pop("numeric"), "zetaE": ct.pop("zetaE")}
    exact = json.dumps(doc, sort_keys=True).encode()
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "exact_digest": hashlib.sha256(exact).hexdigest(),
            "floats": floats, "entries": len(doc["entries"]), "bytes": len(data)}


def _output(req, raw, out_path):
    """The JSON-able output the parent checks."""
    if req["kind"] == "cli":
        return _table_summary(out_path) if req.get("out") else json.loads(raw)
    if req["kind"] == "whittaker":
        w = raw.whittaker
        return {"rank": raw.rank, "rational": str(raw.rational), "sigma": raw.sigma,
                "beta_abs": w.beta_abs,
                "components": [[c.real, c.imag] for c in w.components]}
    return {"suite": raw["suite"], "ok": raw["ok"], "checks": raw["checks"],
            "failures": raw["failures"][:2]}


def run_part(requests, workdir, trace, spans_path) -> dict:
    """One part of a job, in a forked process: its result document."""
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out_paths = [os.path.join(workdir, f"out-{os.getpid()}-{i}.json")
                 for i in range(len(requests))]
    runs = []
    start = time.monotonic()
    for i, req in enumerate(requests):
        if tracer:
            tracer.request = i
        runs.append(_run(req, out_paths[i]))
    end = time.monotonic()
    results = []
    for req, path, (latency, raw, error) in zip(requests, out_paths, runs):
        entry = {"latency_s": latency, "error": error}
        if error is None:
            try:
                entry["output"] = _output(req, raw, path)
            except (ValueError, KeyError, OSError) as exc:
                entry["error"] = f"unreadable output: {exc!r}"
        results.append(entry)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    doc = {"start": start, "end": end, "wall_s": end - start,
           "maxrss_mb": usage.ru_maxrss / 1024.0, "cpu_s": usage.ru_utime + usage.ru_stime,
           "results": results}
    if tracer:
        doc["trace"] = tracer.summary()
        if spans_path:
            tracer.write_spans(spans_path)
    return doc


def _fork_part(job, part, path):
    """Fork one process that runs a part and writes its document to `path`."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        doc = run_part(part, job["workdir"], job["trace"], job.get("spans_path"))
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = 0
    except Exception:  # reported on stderr; the server reports the exit code
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def run_job(config, job) -> list:
    """Fork every part of a job at once, wait for all; one document per part."""
    paths = [os.path.join(config["workdir"], f"part-{os.getpid()}-{i}.json")
             for i in range(len(job["parts"]))]
    job = {**job, "workdir": config["workdir"]}
    pids = [_fork_part(job, part, path) for part, path in zip(job["parts"], paths)]
    docs = []
    for pid, path in zip(pids, paths):
        _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        try:
            with open(path) as fh:
                docs.append(json.load(fh))
            os.remove(path)
        except (OSError, ValueError):
            docs.append({"error": f"repetition process exited with {code}"})
    return docs


def main():
    config = json.loads(sys.stdin.readline())
    print(json.dumps({"setup_s": _setup(config["src"])}), flush=True)
    for line in sys.stdin:
        if not line.strip():
            break
        print(json.dumps({"docs": run_job(config, json.loads(line))}), flush=True)


if __name__ == "__main__":
    main()
