"""The benchmark's own tests: every workload on a tiny seeded slice with the
reference check on, the traced round, the reference self-check, the cold
lattice caches, and the tracing shim's coverage check.

    python -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert WORKLOADS == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    res = _result(_run("--workload", workload, "--seed", "1", "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] == 3
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    assert all(math.isfinite(m["value"]) and m["value"] >= 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", ["gamma_cold", "cli_cold"])
def test_smoke_traced(workload):
    res = _result(_run("--workload", workload, "--seed", "1", "--smoke", "--trace", "1"))
    assert res["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    layer = {k: m["value"] for k, m in res["metrics"].items()}
    if workload == "cli_cold":
        assert layer["cli.calls"] == 3 and layer["cli.main_s"] > 0
    else:
        assert layer["barnes_functions.calls"] == 3 and layer["limit_rep.calls"] == 0


def test_inputs_follow_the_seed():
    for workload in WORKLOADS:
        assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
        assert workloads.generate(workload, 5) != workloads.generate(workload, 6)


def test_every_seed_sees_the_same_mix():
    def mix(ops):
        """Each op without its continuous parameters."""
        out = []
        for op in ops:
            if "argv" in op:
                c = op["check"]
                out.append((op["argv"][0], c["k"], c.get("route"), c["lat"]["N"]))
            else:
                out.append((op["k"], op.get("h"), op.get("q"), op["cold"], op["lat"]["N"]))
        return sorted(map(repr, out))

    for workload in WORKLOADS:
        assert mix(workloads.generate(workload, 5)) == mix(workloads.generate(workload, 6))


def test_cold_ops_clear_only_lattice_caches():
    import worker
    from barneszeta import bernoulli, limit_rep

    names = {f"{fn.__module__}.{fn.__name__}" for fn in worker.lattice_caches()}
    assert {"barneszeta.bernoulli._table_cached", "barneszeta.limit_rep._cube_pow",
            "barneszeta.limit_rep._cube_log"} <= names
    assert "barneszeta.bernoulli.classical_bernoulli" not in names
    runner = worker.InProcess()
    op = workloads.generate("gamma_cold", 1)[0]
    runner.run(op)
    assert bernoulli._table_cached.cache_info().currsize > 0
    bernoulli.classical_bernoulli(4)
    runner.make_cold()
    assert bernoulli._table_cached.cache_info().currsize == 0
    assert limit_rep._cube_pow.cache_info().currsize == 0
    assert bernoulli.classical_bernoulli.cache_info().currsize > 0


def test_reference_self_check():
    import random

    from barneszeta import oracles

    assert reference.self_check(reference.ReferenceBook(), oracles, random.Random(3)) == []


def test_period_components_reproduce_multiplicities():
    N = (1, 4, 6)
    parts = reference.period_components(N)
    counts = [0] * 200
    counts[0] = 1
    for n in N:
        for k in range(n, 200):
            counts[k] += counts[k - n]
    for k in range(200):
        assert sum(e[k % D] * k ** j for D, ej in parts.items() for j, e in ej.items()) == counts[k]


def test_shim_refuses_an_importer_it_cannot_rebind():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import barneszeta.series_rep as s, barneszeta.bernoulli as b, layertrace\n"
        "s._held = (b.ds_values,)\n"
        "try:\n"
        "    layertrace.Tracer().install()\n"
        "except layertrace.TraceCoverageError as exc:\n"
        "    print('refused:', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(HERE), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert "refused: barneszeta.bernoulli.ds_values" in proc.stdout, proc.stderr


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=str(tmp_path),
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
