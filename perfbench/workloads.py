"""Seeded inputs and output checks for the benchmark workloads.

Nothing here imports qeis: inputs are generated, and outputs checked, with
small exact helpers of the benchmark's own (and mpmath for the float
fields), so a check never reuses the code it checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

DEFAULT_SEED = 0
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
DEEP_DS = (3, 7, 11, 19, 23, 31, 43)
DEEP_ELL = 6            # weight 2*ell - n + 2 = 12, the weight of Delta
DEEP_PRIMES = {"split": SMALL_PRIMES, "inert": SMALL_PRIMES, "ramified": (3, 7, 11)}
DELTA_P_MAX = 47        # lift requests need tau(p) for every p | <T, T>
TABLE_ELL = 3

# Input sizes.  "full" is what a run measures; "tiny" is the self-check.
SIZES = {
    "full": {
        "table_bound": 12,
        # (e1, e2): exponents of a split prime in s1 and s2, so k = e1 + e2.
        # The deepest profile appears twice, so the p95 latency falls inside
        # a group of like requests instead of on the edge between two groups.
        "deep_split": ((3, 3), (5, 5), (7, 7), (10, 10), (13, 13), (16, 16),
                       (20, 20), (20, 20)),
        "deep_other": (("inert", 5, 0), ("ramified", 4, 4), ("inert", 8, 6),
                       ("ramified", 12, 10), ("inert", 2, 2), ("ramified", 3, 0)),
        "deep_whittaker": (6, 22),  # (rank-1 count, rank-2 count)
        # (D, p, k, e1) with e1 the exponent of p in s1: p = 2 split and
        # inert, ramified p = 3 and 7, split p = 3.  The first two enumerate
        # grids beyond the cached 2^21 points; the middle group of four sets
        # the median latency.
        "oracle": ((7, 2, 5, 0), (7, 7, 1, 0), (3, 2, 4, 1), (7, 2, 4, 2),
                   (3, 3, 2, 1), (11, 3, 2, 0), (3, 2, 3, 0), (11, 3, 1, 0),
                   (3, 3, 1, 0), (7, 7, 0, 0)),
        "verify": (("functional", {"norm_cap": 8, "coord_cap": 12}),
                   ("identities", {}),
                   ("oracle", {"count": 6}),
                   ("denominators", {"bound": 5})),
    },
    "tiny": {
        "table_bound": 4,
        "deep_split": ((2, 2), (4, 4)),
        "deep_other": (("inert", 3, 0), ("ramified", 2, 1)),
        "deep_whittaker": (1, 1),
        "oracle": ((7, 2, 2, 1), (3, 2, 2, 0), (3, 3, 1, 0), (7, 7, 0, 0), (11, 3, 1, 0)),
        "verify": (("functional", {"Ds": [3], "norm_cap": 4, "coord_cap": 8}),
                   ("identities", {}),
                   ("oracle", {"ps": [3], "count": 2}),
                   ("denominators", {"ells": [3], "bound": 3})),
    },
}


# ---------------------------------------------------------------------------
# Exact helpers
# ---------------------------------------------------------------------------

def vp(n: int, p: int) -> int:
    n, v = abs(n), 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def prime_factors(n: int) -> list:
    n, out, d = abs(n), [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def quad_norm(x: int, y: int, D: int) -> int:
    """N(x + y omega), omega = (1 + sqrt(-D))/2."""
    return x * x + x * y + (1 + D) // 4 * y * y


def hermitian_norm(T, D: int) -> int:
    """<T, T> = Tr(a conj b) = N(a + b) - N(a) - N(b) for T = (a, b)."""
    ax, ay, bx, by = T
    return quad_norm(ax + bx, ay + by, D) - quad_norm(ax, ay, D) - quad_norm(bx, by, D)


def splitting(D: int, p: int) -> str:
    """How p decomposes in Q(sqrt(-D)), D squarefree and 3 mod 4."""
    if D % p == 0:
        return "ramified"
    if p == 2:
        return "split" if D % 8 == 7 else "inert"
    return "split" if pow(-D % p, (p - 1) // 2, p) == 1 else "inert"


def bernoulli(n: int) -> Fraction:
    """B_n (B_1 = +1/2) by the Akiyama-Tanigawa algorithm."""
    a = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


def divisor_sigma(n: int, k: int) -> int:
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def denominator_multiplier(ell: int, D: int, n: int = 2) -> Fraction:
    """(l!)^2 |B_{2l-n+2}| sigma_{l+1-n/2}(D): it clears every rank-2 denominator."""
    return (math.factorial(ell) ** 2 * abs(bernoulli(2 * ell - n + 2))
            * divisor_sigma(D, ell + 1 - n // 2))


def delta_eigenvalues(p_max: int) -> dict:
    """tau(p) for primes p <= p_max from Delta = q prod (1 - q^m)^24."""
    top = p_max
    series = [1] + [0] * top          # prod_{m} (1 - q^m)^24 up to q^top
    for m in range(1, top + 1):
        for _ in range(24):
            for i in range(top, m - 1, -1):
                series[i] -= series[i - m]
    return {p: series[p - 1] for p in range(2, p_max + 1) if prime_factors(p) == [p]}


def _fmt_T(T) -> str:
    return ",".join(str(c) for c in T)


def label(req) -> str:
    """Short name of a request for failure messages."""
    if req["kind"] == "cli":
        return " ".join(a for a in req["argv"] if not a.startswith("/"))
    return f"{req['kind']} {req.get('suite', req.get('T'))}"


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _unit_pair(rng, D: int, p: int):
    """Random small (a0, b0), both prime to p, with Tr(a0 conj b0) = p^v.

    v = 0, except at a split p = 2, where the trace of two units is always
    even and v = 1.  Pinning the trace keeps <T, T> = p^k times the chosen
    cofactor, so the cost of a request does not hang on how the trace
    factors.  Returns (coordinates of a0 and b0, v).
    """
    v = 1 if p == 2 and splitting(D, 2) == "split" else 0
    while True:
        T = tuple(rng.randint(-4, 4) for _ in range(4))
        if (hermitian_norm(T, D) == p ** v and quad_norm(T[0], T[1], D) % p
                and quad_norm(T[2], T[3], D) % p):
            return T, v


# ---------------------------------------------------------------------------
# Request generators
# ---------------------------------------------------------------------------

def table_requests(size: str, workers: int = 1) -> list:
    bound = SIZES[size]["table_bound"]
    return [{"kind": "cli", "out": True, "D": D, "bound": bound,
             "argv": ["expand", "--D", str(D), "--ell", str(TABLE_ELL),
                      "--bound", str(bound), "--workers", str(workers)]}
            for D in (3, 7)]


def deep_slice(seed: int, index: int, size: str, delta_path: str) -> list:
    """One slice of the point-request stream.

    The slice's composition and order are fixed (request kinds, the dominant
    prime, its splitting class and its valuations), so every slice costs
    about the same and alternate requests make balanced halves for the pool
    clients; the seed picks D, the units and a cofactor prime.
    """
    cfg = SIZES[size]
    rng = random.Random(f"deep-{seed}-{index}")
    profiles = [("split", e1, e2) for e1, e2 in cfg["deep_split"]] + list(cfg["deep_other"])
    out = []
    for j, kind in enumerate(("coeff", "local", "lift")):
        for i, (cls, e1, e2) in enumerate(profiles):
            # the prime is part of the profile: lift and evaluation costs grow
            # with p, and rotating it by kind keeps the keys of a slice apart
            primes = DEEP_PRIMES[cls]
            p = primes[(i + 2 * j) % len(primes)]
            D = rng.choice([D for D in DEEP_DS if splitting(D, p) == cls])
            a0, v = _unit_pair(rng, D, p)
            # v_p(<T,T>) = e1 + e2 exactly: the p-part of the trace comes off the larger one
            e1, e2 = max(e1, e2) - v, min(e1, e2)
            if rng.random() < 0.5:
                e1, e2 = e2, e1
            q = rng.choice([c for c in SMALL_PRIMES if c != p])
            s = [p ** e1, p ** e2]
            s[rng.randrange(2)] *= q
            T = (s[0] * a0[0], s[0] * a0[1], s[1] * a0[2], s[1] * a0[3])
            argv = [kind, "--D", str(D), "--ell", str(DEEP_ELL), "--T=" + _fmt_T(T)]
            if kind == "local":
                argv += ["--p", str(p)]
            if kind == "lift":
                argv += ["--eigenvalues", delta_path]
            out.append({"kind": "cli", "argv": argv, "D": D, "p": p, "T": T})
    rank1, rank2 = cfg["deep_whittaker"]
    for rank in [1] * rank1 + [2] * rank2:
        D = rng.choice(DEEP_DS)
        while True:
            T = tuple(rng.randint(-5, 5) for _ in range(4))
            if rank == 1:
                c = rng.choice(SMALL_PRIMES) ** rng.randint(1, 2)
                T = (c * T[0], c * T[1], 0, 0)
            nrm = hermitian_norm(T, D)
            # 4 pi |a + b| stays inside the Bessel window and far from underflow
            if 0 < quad_norm(T[0] + T[2], T[1] + T[3], D) <= 40 ** 2 and (
                    nrm == 0 if rank == 1 else nrm > 0):
                break
        out.append({"kind": "whittaker", "D": D, "ell": DEEP_ELL, "T": T})
    return out


def oracle_slice(seed: int, index: int, size: str) -> list:
    """`local --oracle` requests with fixed (D, p, k, e1); the seed picks the units.

    T = (p^e1 a0, p^e2 b0) with a0, b0 prime to p, so the local invariants,
    and with them the enumeration work, do not depend on the seed.
    """
    rng = random.Random(f"oracle-{seed}-{index}")
    out = []
    for D, p, k, e1 in SIZES[size]["oracle"]:
        a0, v = _unit_pair(rng, D, p)
        e2 = k - v - e1
        T = (p ** e1 * a0[0], p ** e1 * a0[1], p ** e2 * a0[2], p ** e2 * a0[3])
        out.append({"kind": "cli", "D": D, "p": p, "k": k, "T": T,
                    "argv": ["local", "--D", str(D), "--p", str(p), "--T=" + _fmt_T(T),
                             "--oracle"]})
    return out


def verify_requests(size: str) -> list:
    return [{"kind": "suite", "suite": name, "kwargs": kwargs}
            for name, kwargs in SIZES[size]["verify"]]


# ---------------------------------------------------------------------------
# Work counts
# ---------------------------------------------------------------------------

def oracle_points(doc) -> int:
    """Lattice points of every term the oracle verdict enumerates (rank 4, n = 2)."""
    p, k, k1, k2 = doc["p"], doc["k"], doc["k1"], doc["k2"]
    if doc["case"] == "split":
        rs = [r for i in range(k1 + 1) for r in range(1, k - i + 2)]
        rs += [r for j in range(1, k2 + 1) for r in range(1, k - j + 2)]
    elif doc["case"] == "inert":
        rs = list(range(1, k + 2))
    else:
        rs = list(range(1, k + 1)) + list(range(1, k + 2))
    return sum(p ** (4 * r) for r in rs)


def items(workload: str, output) -> int:
    """Work units of one request: coefficients, requests, points or checks."""
    if workload == "table":
        return output["entries"]
    if workload == "oracle":
        return oracle_points(output)
    if workload == "verify":
        return output["checks"]
    return 1


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

class Checker:
    """Checks outputs; every method returns a list of failure strings."""

    def __init__(self, expected: dict, size: str, seed: int):
        self.expected = expected
        self.size = size
        self.seed = seed
        self._mp = None
        self._zeta = {}
        self.table_sha = {}

    @property
    def mp(self):
        if self._mp is None:
            import mpmath

            mpmath.mp.dps = 20
            self._mp = mpmath
        return self._mp

    def _rel_close(self, got, want, tol) -> bool:
        return abs(self.mp.mpf(got) - want) <= tol * abs(want)

    # --- table ---------------------------------------------------------------

    def zeta_E(self, D: int, s: int):
        """zeta(s) L(s, chi_{-D}); chi_{-D}(n) is the Legendre symbol (n/D), D prime."""
        if (D, s) not in self._zeta:
            chi = [0] + [1 if pow(n, (D - 1) // 2, D) == 1 else -1 for n in range(1, D)]
            self._zeta[D, s] = self.mp.zeta(s) * self.mp.dirichlet(s, chi)
        return self._zeta[D, s]

    def table(self, req, output) -> list:
        fails = []
        key = f"{req['D']}:{req['bound']}"
        want = self.expected["table"][self.size].get(key)
        if output["exact_digest"] != want:
            fails.append(f"table {key}: exact fields differ from the recorded digest")
        ref = self.table_sha.setdefault(key, output["sha256"])
        if output["sha256"] != ref:
            fails.append(f"table {key}: bytes differ between worker counts or runs")
        zeta = self.zeta_E(req["D"], TABLE_ELL + 1)
        fl = output["floats"]
        if not self._rel_close(fl["zetaE"], zeta, 1e-12):
            fails.append(f"table {key}: zetaE {fl['zetaE']} vs {zeta}")
        if not self._rel_close(fl["numeric"], zeta / self.mp.pi ** (2 * TABLE_ELL + 1), 1e-12):
            fails.append(f"table {key}: constant term {fl['numeric']}")
        return fails

    # --- deep ----------------------------------------------------------------

    def _rank2_bound(self, D: int, rational: str) -> list:
        if (Fraction(rational) * denominator_multiplier(DEEP_ELL, D)).denominator != 1:
            return [f"D={D}: {rational} breaks the uniform denominator bound"]
        return []

    def deep(self, req, output) -> list:
        D, T = req["D"], tuple(req["T"])
        nrm = hermitian_norm(T, D)
        if req["kind"] == "whittaker":
            return self._whittaker(req, output)
        kind = req["argv"][0]
        if kind != "local" and output["norm"] != nrm:
            return [f"{kind} {T}: norm {output['norm']} != {nrm}"]
        if kind == "coeff":
            return self._rank2_bound(D, output["rational"])
        if kind == "local":
            Q, k = output["Q"], vp(nrm, req["p"])
            if (output["k"] != k or output["case"] != splitting(D, req["p"])
                    or len(Q) != 2 * k + 1 or Q[-1] != 1 or Q != Q[::-1]):
                return [f"local {T} at p={req['p']}: bad local data or Q"]
            return []
        Fraction(output["lift_coefficient"])  # must parse as an exact rational
        if output["weight"] != 2 * DEEP_ELL or set(output["euler_factors"]) != {
                str(p) for p in prime_factors(nrm)}:
            return [f"lift {T}: wrong weight or Euler factor primes"]
        return []

    def _whittaker(self, req, output) -> list:
        D, T, ell = req["D"], req["T"], req["ell"]
        mp = self.mp
        if output["rank"] == 1:
            c_ell = Fraction((-1) ** ell * 2 ** (2 * ell + 1), math.factorial(ell) ** 2)
            if output["sigma"] < 1 or Fraction(output["rational"]) != c_ell * output["sigma"]:
                return [f"rank-1 {T}: rational is not C_l * sigma"]
        else:
            fails = self._rank2_bound(D, output["rational"])
            if fails:
                return fails
        x, y = T[0] + T[2], T[1] + T[3]
        z = mp.mpc(x + mp.mpf(y) / 2, y * mp.sqrt(D) / 2)
        beta = output["beta_abs"]
        if not self._rel_close(beta, 4 * mp.pi * abs(z), 1e-13):
            return [f"whittaker {T}: beta {beta}"]
        phase = z / abs(z)
        bessel = [mp.besselk(v, beta) for v in range(ell + 1)]
        for v, (re, im) in zip(range(-ell, ell + 1), output["components"]):
            want = phase ** v * bessel[abs(v)]
            if abs(mp.mpc(re, im) - want) > 1e-12 * abs(want):
                return [f"whittaker {T}: component v={v} {re}+{im}i vs {want}"]
        return []

    def deep_digest(self, reqs, outputs) -> str:
        """Digest of the exact fields of one slice, in request order."""
        parts = []
        for req, out in zip(reqs, outputs):
            if out is None:
                parts.append(None)
            elif req["kind"] == "whittaker":
                parts.append([out["rank"], out["rational"], out["sigma"]])
            elif req["argv"][0] == "lift":
                parts.append([out["T"], out["norm"], out["weight"], out["lift_coefficient"],
                              {p: [f["splitting"], f["degree"]]
                               for p, f in out["euler_factors"].items()}])
            else:
                parts.append(out)
        return _digest(parts)

    def slice_digest(self, index: int, reqs, outputs) -> list:
        """The recorded digest, for the default seed's slices that have one."""
        recorded = self.expected["deep"][self.size]
        if self.seed != DEFAULT_SEED or index >= len(recorded):
            return []
        got = self.deep_digest(reqs, outputs)
        return [] if got == recorded[index] else [f"deep slice {index}: digest {got}"]

    # --- oracle and verify ---------------------------------------------------

    def oracle(self, req, output) -> list:
        if output.get("oracle", {}).get("verdict") != "agree":
            return [f"oracle {req['T']} at p={req['p']}: no agreement"]
        if output["k"] != req["k"] or output["case"] != splitting(req["D"], req["p"]):
            return [f"oracle {req['T']} at p={req['p']}: wrong local data"]
        return []

    def verify(self, req, output) -> list:
        return [] if output["ok"] else [f"suite {req['suite']} failed: {output['failures']}"]
