"""The benchmark's tracing shim (bench/layertrace.py) still covers the package.

The shim wraps every public function of every layer and refuses to run
(TraceCoverageError) if a reference to one escapes it; its counters read the
route diagnostics and `quad_semiinfinite`'s outcome.  A change under src/ that
breaks either would otherwise show only in the benchmark's own tests.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from barneszeta import ROUTES

ROOT = Path(__file__).resolve().parent.parent

CODE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("layertrace", sys.argv[1])
layertrace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layertrace)
tracer = layertrace.Tracer()
tracer.install()
from barneszeta import BarnesParams, log_gamma_B
log_gamma_B(BarnesParams(0.7, (1.0, 2 ** 0.5)), "best")
print(json.dumps(tracer.metrics()))
"""


def test_traced_best_call_counts_every_layer():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", CODE, str(ROOT / "bench" / "layertrace.py")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert "TraceCoverageError" not in out.stderr
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.strip().splitlines()[-1])
    assert metrics["integral_rep.quad_evals"] > 0
    assert metrics["integral_rep.quad_calls"] > 0
    assert metrics["series_rep.points"] > 0
    # every lattice point the series sums passes through shell_values
    assert metrics["combinatorics.shell_points"] == metrics["series_rep.points"]


# Every registry entry once per form, on a lattice that every route accepts:
# w = (1, 2) has a reduction and alpha = 6.5 is inside the direct sum's
# region.  The first lines of CODE install the shim.
EVERY_ROUTE = CODE.split("from barneszeta")[0] + """
from barneszeta import ROUTES, BarnesParams
p = BarnesParams(0.7, (1.0, 2.0))
at = {"zeta": (6.5,), "fp": (1,), "deriv0": ()}
for quantity, routes in ROUTES.items():
    for name, fn in routes.items():
        for params in (p, p.w):
            fn(*at[quantity], params)
print(json.dumps(tracer.metrics()))
"""


def test_traced_call_of_every_route():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", EVERY_ROUTE,
                          str(ROOT / "bench" / "layertrace.py")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert "TraceCoverageError" not in out.stderr
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.strip().splitlines()[-1])
    for layer in ("series_rep", "integral_rep", "limit_rep", "oracles"):
        assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["oracles.direct_points"] > 0


def test_every_route_is_a_public_function_of_a_traced_layer():
    # The shim wraps the public functions of the layers it lists; a route
    # outside them would run untraced.
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "bench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for quantity, routes in ROUTES.items():
        for name, fn in routes.items():
            module = fn.__module__.rpartition(".")[2]
            assert module in layertrace.LAYERS, (quantity, name, module)
            assert not fn.__name__.startswith("_"), (quantity, name)
            assert getattr(sys.modules[fn.__module__], fn.__name__) is fn, (quantity, name)
