#!/usr/bin/env python3
"""Barnes zeta benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload gamma_cold --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload gamma_cold --seed 1 --smoke

Run from the repository root.  The harness draws the workload's op list from
the seed, measures set-up in fresh interpreters, replays the list in rounds
in one more fresh interpreter (bench/worker.py), then checks every returned
value against the mpmath reference (bench/reference.py) outside any timed
region.  The list is replayed in whole rounds, so every op runs equally
often and the mix behind the timing metrics is the same in every run.

The last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer counters of a traced round (bench/layertrace.py).
An op fails when it raises a BarnesZetaError, outlives its cap or crashes; a
returned value that misses its route's accept bound (bench/accept.json)
lowers ok_frac.  `correct` is false when the reference fails its self-check,
the program crashes with another exception, or a CLI call is rejected as a
usage error or prints unparseable output.  --smoke runs the first few ops of
the workload once, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_PROBES = 6            # fresh interpreters that only set up; the run is one more
SMOKE_OPS = 3
EPS = 2.0 ** -52
DIGITS_CAP = 17.0           # err_log10 is floored at -17


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    return ap.parse_args(argv)


def spawn_worker(spec: dict, env: dict, timeout: float) -> tuple[dict, float]:
    """Run bench/worker.py in a fresh interpreter; returns (output, spawn time)."""
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
                          capture_output=True, text=True, env=env, cwd=str(ROOT),
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn


def percentile(values, pct):
    xs = sorted(values)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Scorer:
    """Scores route outcomes against the reference and the accept bounds."""

    def __init__(self, book):
        spec = json.loads((HERE / "accept.json").read_text())
        self.rel = spec["rel"]
        self.ulp = spec["ulp_floor"] * EPS
        self.book = book
        self.problems: list[str] = []

    def bound(self, route: str, kind: str, d: int, homog: bool) -> float:
        if route == "best":
            route = "series"
        if route == "integral" and kind == "deriv0" and not homog:
            route = "integral_deriv0"
        return self.rel[route][str(min(d, 4))]

    def value(self, v: complex, est: float, ref: complex, bound: float):
        """(ok, honest, digits) of one returned value."""
        err = abs(v - ref)
        scale = 1.0 + abs(ref)
        if not math.isfinite(err):
            return False, False, 0.0
        rel = err / scale
        honest = err <= est + self.ulp * scale
        digits = DIGITS_CAP if rel == 0 else min(DIGITS_CAP, -math.log10(rel))
        return rel <= bound, honest, digits

    def reference(self, c: dict) -> complex:
        b, lat = self.book, c["lat"]
        N, s = tuple(lat["N"]), lat["s"]
        a = None if c.get("h") else lat["a"]
        k = c["k"]
        if k == "zeta":
            return b.zeta(N, s, a, tuple(c["alpha"]))
        if k == "fp":
            return b.fp(N, s, a, c["q"])
        if k == "deriv0":
            return b.deriv0(N, s, a)
        if k == "log_gamma_B":
            return b.log_gamma_B(N, s, lat["a"])
        if k == "psi_B":
            return b.psi_B(N, s, lat["a"], c["q"])
        if k == "gamma_dq":
            return b.gamma_dq(N, s, c["q"])
        if k == "log_rho":
            return b.log_rho(N, s)
        raise ValueError(k)

    def outcomes(self, workload: str, op: dict, outs: list) -> tuple[bool, list]:
        """(op failed, [(ok, honest, digits) per returned value])."""
        if workload == "cli_cold":
            return self.cli(op, outs[0])
        d = len(op["lat"]["N"])
        ref = self.reference(op)
        failed, vals = False, []
        for out in outs:
            label, status = out[0], out[1]
            if status == "crash":
                self.problems.append(f"{label} crashed on {op}: {out[2]}")
                failed = True
            elif status in ("raise", "timeout"):
                failed = True
            else:
                vals.append(self.value(complex(out[2], out[3]), out[4], ref,
                                       self.bound(label, op["k"], d, op.get("h", False))))
        return failed, vals

    def cli(self, op: dict, out: list) -> tuple[bool, list]:
        if out[1] == "timeout":
            return True, []
        _, _, rc, stdout, stderr = out
        c = op["check"]
        d = len(c["lat"]["N"])
        if rc == 2 and "usage:" in stderr:
            self.problems.append(f"CLI rejected the arguments {op['argv']}: {stderr[-300:]}")
            return True, []
        if rc != 0:                          # the CLI reports a BarnesZetaError
            return True, []
        try:
            if c["k"] == "compare":
                return False, self._cli_compare(c, stdout)
            if c["k"] == "table":
                return False, self._cli_table(c, stdout, d)
            res = json.loads(stdout)
        except (ValueError, KeyError, IndexError) as exc:
            self.problems.append(f"unparseable CLI output for {op['argv']}: {exc}")
            return True, []
        ref = self.reference(c)
        return False, [self.value(complex(*res["value"]), res["est_error"], ref,
                                  self.bound(c["route"], c["k"], d, c.get("h", False)))]

    def _cli_compare(self, c, stdout):
        report = json.loads(stdout.splitlines()[0])
        lat = c["lat"]
        d = len(lat["N"])
        vals = []
        for item in report["quantities"]:
            name = item["name"]
            homog = "_bh" in name
            if name.startswith("fp"):
                check = {"k": "fp", "lat": lat, "h": homog, "q": int(name.rsplit("q", 1)[1])}
            else:
                check = {"k": "deriv0", "lat": lat, "h": homog}
            vals.append(self.value(complex(*item["value"]), item["est_error"],
                                   self.reference(check),
                                   self.bound(item["route"], check["k"], d, homog)))
        return vals

    def _cli_table(self, c, stdout, d):
        rows = stdout.strip().splitlines()[1:]
        lo, hi, n = c["grid"]
        if len(rows) != n:
            raise ValueError(f"expected {n} table rows, got {len(rows)}")
        vals = []
        for i, row in enumerate(rows):
            fields = row.split(",")
            alpha = lo if n == 1 else lo + i * (hi - lo) / (n - 1)
            check = {"k": "zeta", "lat": c["lat"], "h": False, "alpha": [alpha, 0.0]}
            vals.append(self.value(complex(float(fields[2]), float(fields[3])),
                                   float(fields[4]), self.reference(check),
                                   self.bound(c["route"], "zeta", d, False)))
        return vals


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "barneszeta" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no package source at {ROOT / 'src' / 'barneszeta'}; "
                         "run from a checkout of the repository\n")
        return 2
    import reference
    from worker import child_env

    wl = workloads.WORKLOADS[args.workload]
    ops = workloads.generate(args.workload, args.seed)
    spec = {"workload": args.workload, "mode": "setup", "seconds": args.seconds,
            "op_cap_s": wl["op_cap_s"], "ops": ops}
    if args.smoke:
        spec["smoke_ops"] = SMOKE_OPS
    timeout = args.seconds * 2 + 150
    env = child_env()

    def probe_setup(n):
        for _ in range(n):
            out, t_spawn = spawn_worker(spec, env, timeout)
            setups.append(out["t_ready"] - t_spawn)

    # Set-up probes before and after the run, so that their median does not
    # hang on one stretch of the machine's speed.
    setups = []
    n_probes = 0 if args.trace else 1 if args.smoke else SETUP_PROBES
    probe_setup(n_probes - n_probes // 2)
    spec["mode"] = "trace" if args.trace else "run"
    res, t_spawn = spawn_worker(spec, env, timeout)
    setups.append(res["t_first"] - t_spawn)
    spec["mode"] = "setup"
    probe_setup(n_probes // 2)

    # Everything below is harness work: references and checks, untimed.
    sys.path.insert(0, str(ROOT / "src"))
    from barneszeta import oracles

    book = reference.ReferenceBook()
    scorer = Scorer(book)
    problems = [f"reference self-check: {p}"
                for p in reference.self_check(book, oracles, random.Random(args.seed))]
    attempted = len(res["outs"])
    failed = missed = 0
    vals = []
    for i, outs in res["outs"]:
        op_failed, op_vals = scorer.outcomes(args.workload, ops[i], outs)
        failed += op_failed
        missed += op_failed or not all(v[0] for v in op_vals)
        vals.extend(op_vals)
    problems += scorer.problems
    for p in problems:
        sys.stderr.write(f"bench: {p}\n")

    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(res["layers"].items())}
    else:
        lat_ms = [x * 1e3 for x in res["lat"]]
        pct = wl["tail_pct"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "throughput_ops_s": {"value": attempted / res["elapsed"], "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "latency_tail_ms": {"value": percentile(lat_ms, pct), "unit": "ms"},
            "ok_frac": {"value": 1.0 - missed / attempted, "unit": "frac"},
            "honest_frac": {"value": _share(v[1] for v in vals), "unit": "frac"},
            "digits_p50": {"value": statistics.median(v[2] for v in vals) if vals else 0.0,
                           "unit": "digits"},
            "peak_rss_mb": {"value": res["rss_mb"], "unit": "MB"},
        }
        beyond = sum(1 for x in lat_ms if x > metrics["latency_tail_ms"]["value"])
        print(f"workload {args.workload} seed {args.seed}: {len(ops)} distinct ops, "
              f"{attempted} attempted in {res['elapsed']:.1f} s "
              f"({attempted / len(ops):g} rounds), {failed} failed, "
              f"{missed} missed an accept bound or failed, {len(vals)} values returned, "
              f"{sum(1 for v in vals if not v[1])} under-reported; "
              f"latency_tail_ms is p{pct} with {beyond} samples beyond it; setup samples {[round(s, 4) for s in setups]}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _share(flags) -> float:
    flags = list(flags)
    return sum(flags) / len(flags) if flags else 1.0


def _layer_unit(name: str) -> str:
    if name.startswith("trace.throughput"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if ".ns_per_" in name:
        return "ns"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
