"""Seeded inputs of the two benchmark workloads.

Every lattice has w = s * (1, n_2, ..., n_d) with integer n_i in 1..8, so the
reference (reference.py) has an exact Hurwitz reduction.  s = k/256 keeps
every s*n_i exact in binary floating point; a lies in [0.3, 2.5].

A workload is a short list of distinct ops that the worker replays in whole
rounds for the whole run, so the timing metrics of every run rest on the
same mix, each op timed several times.  The list comes from a fixed design: every op class, every integer shape of SHAPES
(including the anisotropic n_i = 7, 8 where the series route is known to lose
digits) and every stratum of the s and a ranges appears in a set share.  The
seed moves each continuous parameter by a few percent of its stratum and
orders the list, so no two seeds give the same inputs while every seed sees
the same mix.

An op marked "cold" starts with empty per-lattice caches (the worker clears
every package cache keyed by the weights w before it, outside the timing), so
each Gamma-family op behaves like a call on a lattice the process has not
seen, on every round alike.
"""

from __future__ import annotations

import random

# tail_pct: the latency_tail_ms percentile, the highest of p95 and p75 that
# keeps about ten op runs or more beyond it at the op counts a run
# reaches.  op_cap_s bounds one route call: a call still running then is
# stopped and counted as failed.  None of the designed ops comes near it; it
# keeps a regression that makes a call grind from stalling the run.
WORKLOADS = {
    "gamma_cold": {"tail_pct": 95, "op_cap_s": 10.0},
    "cli_cold": {"tail_pct": 75, "op_cap_s": 30.0},
}

_PERM_B = (3, 6, 1, 8, 5, 2, 7, 4)
_PERM_C = (5, 2, 7, 4, 1, 8, 3, 6)
SHAPES = {
    2: [(1, n) for n in range(1, 9)],
    3: [(1, n, b) for n, b in zip(range(1, 9), _PERM_B)],
    4: [(1, n, b, c) for n, b, c in zip(range(1, 9), _PERM_B, _PERM_C)],
}

S_RANGE = (0.5, 2.0)
A_RANGE = (0.3, 2.5)
JITTER = 0.05       # share of a stratum by which the seed moves a parameter


def _in_stratum(rng, lo: float, hi: float, i: int, n: int) -> float:
    """The center of the i-th of n strata of [lo, hi], moved by the seed."""
    width = (hi - lo) / n
    return lo + width * (i + 0.5 + rng.uniform(-JITTER, JITTER))


def _lattice(rng, N, i_s: int, n_s: int, i_a: int, n_a: int) -> dict:
    k = round(256 * _in_stratum(rng, *S_RANGE, i_s, n_s))
    return {"N": list(N), "s": k / 256, "a": round(_in_stratum(rng, *A_RANGE, i_a, n_a), 9)}


def weights(lat: dict) -> list[float]:
    return [lat["s"] * n for n in lat["N"]]


def _off_poles(x: float, d: int) -> float:
    """x pushed to 0.05 from the nearest pole 1..d."""
    x = round(x, 6)
    for q in range(1, d + 1):
        if abs(x - q) <= 0.05:
            x = q + (0.05 if x >= q else -0.05)
    return x


GAMMA_KINDS = ("log_gamma_B", "psi_B", "gamma_dq", "log_rho")
GAMMA_POINTS = 4    # ops per (kind, d) class


def gamma_cold(rng: random.Random) -> list[dict]:
    """The 12 (kind, d) classes, GAMMA_POINTS ops each, every op cold.  Each
    class takes GAMMA_POINTS of the eight shapes (all eight over two kinds)
    and meets every quarter of the s and a ranges once; q runs over 1..d."""
    ops = []
    for ki, kind in enumerate(GAMMA_KINDS):
        for di, d in enumerate((2, 3, 4)):
            for j in range(GAMMA_POINTS):
                N = SHAPES[d][(GAMMA_POINTS * (ki % 2) + j + di) % 8]
                lat = _lattice(rng, N, j, GAMMA_POINTS, (j + ki + di) % GAMMA_POINTS,
                               GAMMA_POINTS)
                ops.append({"k": kind, "lat": lat, "q": 1 + (j + ki) % d, "cold": True})
    rng.shuffle(ops)
    return ops


def _fmt(x: float) -> str:
    return repr(float(x))


def _w_arg(lat: dict) -> str:
    return ",".join(_fmt(x) for x in weights(lat))


def cli_cold(rng: random.Random) -> list[dict]:
    """Eight CLI calls, each a fresh process: `eval` by the series, integral
    (homogeneous), direct and reduction methods, `fp`, `gamma`, `compare` at
    d = 2 and a 4-point `table`.  Shapes and dimensions are fixed; the seed
    moves s, a and alpha within their strata."""
    def lat(d, shape, i):
        return _lattice(rng, SHAPES[d][shape], i, 8, (3 * i + 1) % 8, 8)

    ops = []
    la = lat(2, 6, 0)                        # w = s*(1, 7): series loses digits here
    alpha = _off_poles(_in_stratum(rng, -4.0, 6.0, 1, 4), 2)
    ops.append({"argv": ["eval", "--alpha", _fmt(alpha), "--a", _fmt(la["a"]), "--w", _w_arg(la),
                         "--method", "series", "--json"],
                "check": {"k": "zeta", "lat": la, "h": False, "alpha": [alpha, 0.0],
                          "route": "series"}})
    la = lat(3, 2, 1)
    alpha = _off_poles(_in_stratum(rng, -4.0, 6.0, 0, 4), 3)
    ops.append({"argv": ["eval", "--alpha", _fmt(alpha), "--w", _w_arg(la), "--homogeneous",
                         "--method", "integral", "--json"],
                "check": {"k": "zeta", "lat": la, "h": True, "alpha": [alpha, 0.0],
                          "route": "integral"}})
    la = lat(2, 3, 2)
    alpha = round(_in_stratum(rng, 3.0, 5.0, 1, 2), 6)
    ops.append({"argv": ["eval", "--alpha", _fmt(alpha), "--a", _fmt(la["a"]), "--w", _w_arg(la),
                         "--method", "direct", "--json"],
                "check": {"k": "zeta", "lat": la, "h": False, "alpha": [alpha, 0.0],
                          "route": "direct"}})
    # The reduction oracle takes w = (1, n) or equal weights.
    la = lat(2, 4, 3)
    la = {"N": la["N"], "s": 1.0, "a": la["a"]}
    alpha = _off_poles(_in_stratum(rng, -4.0, 6.0, 2, 4), 2)
    ops.append({"argv": ["eval", "--alpha", _fmt(alpha), "--a", _fmt(la["a"]), "--w", _w_arg(la),
                         "--method", "reduction", "--json"],
                "check": {"k": "zeta", "lat": la, "h": False, "alpha": [alpha, 0.0],
                          "route": "reduction"}})
    la = lat(3, 5, 4)
    ops.append({"argv": ["fp", "--q", "2", "--w", _w_arg(la), "--method", "integral",
                         "--a", _fmt(la["a"]), "--json"],
                "check": {"k": "fp", "lat": la, "h": False, "q": 2, "route": "integral"}})
    la = lat(3, 7, 5)
    ops.append({"argv": ["gamma", "--fn", "psiB", "--q", "2", "--w", _w_arg(la), "--method",
                         "best", "--a", _fmt(la["a"]), "--json"],
                "check": {"k": "psi_B", "lat": la, "q": 2, "route": "best"}})
    la = lat(2, 1, 6)
    ops.append({"argv": ["compare", "--a", _fmt(la["a"]), "--w", _w_arg(la)],
                "check": {"k": "compare", "lat": la}})
    la = lat(3, 0, 7)
    lo = round(_in_stratum(rng, -3.0, -2.1, 0, 1), 3)   # unit steps from lo stay off the poles
    grid = (lo, round(lo + 3.0, 3), 4)
    ops.append({"argv": ["table", f"--alpha-grid={grid[0]!r}:{grid[1]!r}:{grid[2]}",
                         "--a", _fmt(la["a"]), "--w", _w_arg(la), "--method", "series"],
                "check": {"k": "table", "lat": la, "route": "series", "grid": list(grid)}})
    rng.shuffle(ops)
    return ops


GENERATORS = {"gamma_cold": gamma_cold, "cli_cold": cli_cold}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
