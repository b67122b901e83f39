"""Run one CLI invocation under the tracing shim.

    python bench/cli_child.py TRACE_OUT.json <barneszeta CLI arguments...>

Behaves like `python -m barneszeta.cli ...` (same output and exit code) and
writes the per-layer counters of the call, plus its import and main times,
to TRACE_OUT.json.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import barneszeta.cli  # noqa: E402
import_s = time.perf_counter() - t0

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layertrace  # noqa: E402

tracer = layertrace.Tracer()
tracer.install()
cli = sys.modules["barneszeta.cli"]
t1 = time.perf_counter()
rc = cli.main(sys.argv[2:])
metrics = tracer.metrics()
metrics["cli.main_s"] = time.perf_counter() - t1
metrics["cli.import_s"] = import_s
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(metrics, fh)
sys.exit(rc)
