"""Benchmark worker: one fresh interpreter per run.

Reads {"workload", "mode", "seconds", "op_cap_s", "ops"} (and "smoke_ops"
for a fixed number of ops) as JSON on stdin and writes one JSON object to
stdout.  Modes:

  setup  import what the workload calls, report the time;
  run    setup, then replay the op list in rounds (closed loop, one client)
         for `seconds`;
  trace  setup, rounds untraced for seconds/2, then one more round with the
         tracing shim installed; reports both throughputs and the per-layer
         counters of the traced round.

Every route call is wrapped so that a BarnesZetaError is recorded as that
route's outcome; any other exception is recorded as a crash.
"""

from __future__ import annotations

import inspect
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layertrace import package_modules

ROOT = Path(__file__).resolve().parent.parent
OP_CAP_S = 30.0


class OpTimeout(BaseException):
    """Raised into a route call that outlives the workload's op cap.  A
    BaseException, so that no `except Exception` in the package swallows it."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise OpTimeout


def _outcome(label, fn, *args):
    """Call one route, capped at OP_CAP_S; score what comes back."""
    from barneszeta import BarnesZetaError

    global _armed
    try:
        _armed = True
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        try:
            res = fn(*args)
        finally:
            _armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return [label, "timeout", OP_CAP_S]
    except BarnesZetaError as exc:
        return [label, "raise", type(exc).__name__]
    except Exception as exc:  # a crash is scored, not propagated
        return [label, "crash", f"{type(exc).__name__}: {exc}"]
    v = complex(res.value)
    return [label, "value", v.real, v.imag, float(res.abs_error_estimate)]


def lattice_caches():
    """Every lru_cache of the package keyed by the weights: those whose
    function takes a parameter named `w`.  Process-wide tables that do not
    depend on the lattice (classical Bernoulli numbers, harmonic numbers,
    subset lists) stay warm, as in a long-lived process."""
    out = []
    for mod in package_modules():
        for obj in vars(mod).values():
            if not hasattr(obj, "cache_clear") or getattr(obj, "__module__", "") != mod.__name__:
                continue
            try:
                params = inspect.signature(getattr(obj, "__wrapped__", obj)).parameters
            except (TypeError, ValueError):
                continue
            if "w" in params:
                out.append(obj)
    return out


class InProcess:
    """Runs the Gamma-family ops through the package namespace, so that a
    tracing shim installed later is seen by every call."""

    def __init__(self):
        import barneszeta
        self.bz = barneszeta
        self.tracer = None

    def params(self, lat):
        w = tuple(lat["s"] * n for n in lat["N"])
        return self.bz.BarnesParams(lat["a"], w), w

    def make_cold(self):
        if self.tracer is not None:
            self.tracer.bank_cache_counts()
        for fn in lattice_caches():
            fn.cache_clear()
        if self.tracer is not None:
            self.tracer.restart_cache_counts()

    def run(self, op):
        bz = self.bz
        p, w = self.params(op["lat"])
        k = op["k"]
        if k == "log_gamma_B":
            return [_outcome("best", bz.log_gamma_B, p, "best")]
        if k == "psi_B":
            return [_outcome("best", bz.psi_B, op["q"], p, "best")]
        if k == "gamma_dq":
            return [_outcome("best", bz.gamma_dq, op["q"], w, "best")]
        return [_outcome("best", bz.log_rho, w, "best")]


class CliClient:
    """One `python -m barneszeta.cli` subprocess at a time."""

    def __init__(self, env, trace_dir=None):
        self.env = env
        self.trace_dir = trace_dir
        self.child_traces = []
        self.process_s = 0.0

    def make_cold(self):
        pass                                 # every call is a fresh process

    def run(self, op):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "barneszeta.cli", *op["argv"]]
        else:
            out = os.path.join(self.trace_dir, f"t{len(self.child_traces)}.json")
            cmd = [sys.executable, str(ROOT / "bench" / "cli_child.py"), out, *op["argv"]]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=OP_CAP_S, cwd=str(ROOT))
        except subprocess.TimeoutExpired:
            self.process_s += time.perf_counter() - t0
            return [["cli", "timeout", OP_CAP_S]]
        self.process_s += time.perf_counter() - t0
        if self.trace_dir is not None:
            with open(out, encoding="utf-8") as fh:
                self.child_traces.append(json.load(fh))
        return [["cli", "exit", proc.returncode, proc.stdout, proc.stderr[-2000:]]]


def rounds(runner, ops, seconds, limit=None):
    """Replay `ops` in order, whole rounds only, one client: as many rounds as
    fit in `seconds` by the last round's time (at least one), or exactly
    `limit` ops.  An op marked cold first gets empty lattice caches, outside
    its timing."""
    lat, outs = [], []
    t_first = time.monotonic()
    start = time.perf_counter()
    n = 0
    round_s = 0.0
    while limit is None or n < limit:
        i = n % len(ops)
        if i == 0 and limit is None:
            t_round = time.perf_counter()
            if n and t_round - start + round_s > seconds:
                break
        if ops[i].get("cold"):
            runner.make_cold()
        t0 = time.perf_counter()
        outs.append([i, runner.run(ops[i])])
        lat.append(time.perf_counter() - t0)
        n += 1
        if n % len(ops) == 0 and limit is None:
            round_s = time.perf_counter() - t_round
    return {"t_first": t_first, "elapsed": time.perf_counter() - start,
            "lat": lat, "outs": outs}


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "BARNES_ZETA_TOL"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def main() -> int:
    global OP_CAP_S
    spec = json.load(sys.stdin)
    workload, mode, ops = spec["workload"], spec["mode"], spec["ops"]
    OP_CAP_S = spec["op_cap_s"]
    signal.signal(signal.SIGALRM, _on_alarm)
    seconds = spec["seconds"]
    smoke = spec.get("smoke_ops")
    if workload == "cli_cold":
        import barneszeta.cli  # noqa: F401  -- what every CLI call imports
        runner = CliClient(child_env())
    else:
        runner = InProcess()
    if mode == "setup":
        print(json.dumps({"t_ready": time.monotonic()}))
        return 0
    if mode == "run":
        out = rounds(runner, ops, seconds, smoke)
    else:
        out = traced_run(runner, workload, ops, seconds, smoke)
    usage = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    out["rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    json.dump(out, sys.stdout)
    return 0


def traced_run(runner, workload, ops, seconds, smoke):
    import layertrace as shim

    plain = rounds(runner, ops, seconds / 2.0, smoke)
    n = smoke or len(ops)
    if workload == "cli_cold":
        tmp_root = ROOT / ".bench_tmp"
        tmp_root.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=str(tmp_root)) as tmp:
            runner.trace_dir = tmp
            runner.process_s = 0.0
            traced = rounds(runner, ops, 0, limit=n)
        layers = _merge_child_traces(runner.child_traces)
        layers["cli.process_s"] = runner.process_s
    else:
        tracer = shim.Tracer()
        tracer.install()
        runner.tracer = tracer
        traced = rounds(runner, ops, 0, limit=n)
        layers = tracer.metrics()
        for name in ("cli.process_s", "cli.import_s", "cli.main_s"):
            layers[name] = 0.0
    thr_plain = len(plain["lat"]) / plain["elapsed"]
    thr_traced = n / traced["elapsed"]
    layers["trace.throughput_untraced_ops_s"] = thr_plain
    layers["trace.throughput_traced_ops_s"] = thr_traced
    layers["trace.overhead_frac"] = (thr_plain - thr_traced) / thr_plain
    traced["t_first"] = plain["t_first"]
    traced["layers"] = layers
    return traced


def _merge_child_traces(traces):
    total: dict[str, float] = {}
    for t in traces:
        for k, v in t.items():
            total[k] = total.get(k, 0) + v
    for key, (num, den) in {
        "series_rep.ns_per_point": ("series_rep.self_s", "series_rep.points"),
        "integral_rep.ns_per_eval": ("integral_rep.self_s", "integral_rep.quad_evals"),
        "limit_rep.ns_per_cube_point": ("limit_rep.self_s", "limit_rep.cube_points"),
    }.items():
        total[key] = total.get(num, 0.0) * 1e9 / total[den] if total.get(den) else 0.0
    return total


if __name__ == "__main__":
    sys.exit(main())
