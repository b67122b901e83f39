"""Outside-in tracing shim: spans around every entry into a package layer.

A layer is one module of the package.  `Tracer.install()` wraps every public
function defined in a layer module and rebinds *every* reference to it that
the package holds: the defining module's globals (so calls inside the layer
also reach the counters), every module that imported the name (`from .x
import y`), the package namespace, and module-level dispatch dicts such as
`barnes_functions._FP`.  It then asks the garbage collector for every
remaining referrer of each original function and raises TraceCoverageError if
any is left (a default argument, a tuple, a closure, an unseen container), so
a refactor that adds an importer the shim cannot see fails loudly instead of
under-counting.

A span starts when control enters a layer from another layer (or from the
benchmark) and ends when it returns; a call from a layer into itself stays in
the enclosing span.  A layer's self time is its spans' durations minus the
durations of their direct child spans, so self times add up to the traced
wall time.  Counters that the package keeps itself (lru_cache statistics, the
cube-chunk generator) are read through the private names in PRIVATE_HOOKS,
which are checked the same way: if one disappears, tracing refuses to run.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("bernoulli", "combinatorics", "series_rep", "integral_rep", "limit_rep",
          "barnes_functions", "oracles", "cli")

# (module, attribute) of package internals read for counters.
PRIVATE_HOOKS = (
    ("bernoulli", "_table_cached"),
    ("limit_rep", "_cube_pow"),
    ("limit_rep", "_cube_log"),
    ("limit_rep", "_cube_chunks"),
)

# Integral-route functions whose time under a `best` Gamma-family call is the
# cross-check; the residues are closed forms, not part of it.
_NOT_CROSS_CHECK = ("residue", "residue_bh")


class TraceCoverageError(RuntimeError):
    """The shim could not rebind every reference to a wrapped function."""


def _module(layer: str):
    return importlib.import_module(f"barneszeta.{layer}")


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            yield name, obj


def package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "barneszeta" or n.startswith("barneszeta."))]


def _cache_totals(*fns) -> tuple[int, int]:
    lookups = misses = 0
    for fn in fns:
        info = fn.cache_info()
        lookups += info.hits + info.misses
        misses += info.misses
    return lookups, misses


class Tracer:
    def __init__(self):
        self.stack: list[list] = []           # [layer, child_time, best_call]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.count: Counter = Counter()
        self.cross_check_s = 0.0
        self._records: list[tuple] = []       # (layer, name, original, wrapper)
        self._start: dict[str, tuple[int, int]] = {}
        self._banked: dict[str, tuple[int, int]] = {}

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, on_result=None):
        tracer = self
        best_arg = None
        if layer == "barnes_functions":
            try:
                params = list(inspect.signature(fn).parameters)
            except (TypeError, ValueError):
                params = []
            if "method" in params:
                best_arg = params.index("method")
        cross = layer == "integral_rep" and name not in _NOT_CROSS_CHECK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            best = False
            if best_arg is not None:
                method = kwargs.get("method", args[best_arg] if len(args) > best_arg else None)
                best = method is None or str(getattr(method, "value", method)) == "best"
            frame = [layer, 0.0, best]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                tracer.self_s[layer] += dur - frame[1]
                tracer.calls[layer] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    if cross and parent[0] == "barnes_functions" and parent[2]:
                        tracer.cross_check_s += dur
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter_hook(self, layer: str, name: str):
        count = self.count
        if layer == "series_rep":
            def hook(res):
                count["series_rep.points"] += int(getattr(res, "diagnostics", {}).get("points", 0))
            return hook
        if layer == "combinatorics" and name == "shell_values":
            def hook(arr):
                count["combinatorics.shell_calls"] += 1
                count["combinatorics.shell_points"] += int(arr.size)
            return hook
        if layer == "integral_rep" and name == "quad_semiinfinite":
            def hook(out):
                count["integral_rep.quad_calls"] += 1
                count["integral_rep.quad_evals"] += int(out.evaluations)
            return hook
        if layer == "oracles" and name in ("direct_sum", "direct_sum_bh"):
            def hook(res):
                count["oracles.direct_points"] += int(res.diagnostics.get("points", 0))
            return hook
        return None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            _module(layer)
        for mod_name, attr in PRIVATE_HOOKS:
            if not hasattr(_module(mod_name), attr):
                raise TraceCoverageError(f"counter hook barneszeta.{mod_name}.{attr} is gone; "
                                         "update bench/layertrace.py")
        replace = {}
        for layer in LAYERS:
            for name, fn in _public_functions(_module(layer)):
                wrapper = self._wrap(layer, name, fn, self._counter_hook(layer, name))
                self._records.append((layer, name, fn, wrapper))
                replace[id(fn)] = wrapper
        for mod in package_modules():
            _rebind(vars(mod), replace)
        self._hook_cube_chunks()
        self.restart_cache_counts()
        self._verify()

    # -- cache statistics, which cache_clear() resets ------------------------

    def _cache_now(self) -> dict[str, tuple[int, int]]:
        bern, lim = _module("bernoulli"), _module("limit_rep")
        return {"table": _cache_totals(bern._table_cached),
                "cube": _cache_totals(lim._cube_pow, lim._cube_log)}

    def bank_cache_counts(self) -> None:
        """Fold the cache lookups since the last restart into the totals;
        call before the package caches are cleared."""
        for key, (look, miss) in self._cache_now().items():
            b0, b1 = self._banked.get(key, (0, 0))
            s0, s1 = self._start[key]
            self._banked[key] = (b0 + look - s0, b1 + miss - s1)

    def restart_cache_counts(self) -> None:
        """Count cache lookups from here on; call after clearing."""
        self._start = self._cache_now()

    def _cache_counts(self, key: str) -> tuple[int, int]:
        look, miss = self._cache_now()[key]
        b0, b1 = self._banked.get(key, (0, 0))
        return b0 + look - self._start[key][0], b1 + miss - self._start[key][1]

    def _hook_cube_chunks(self) -> None:
        lim = _module("limit_rep")
        chunks = lim._cube_chunks
        count = self.count

        @functools.wraps(chunks)
        def counted(*args, **kwargs):
            for y in chunks(*args, **kwargs):
                count["limit_rep.cube_points"] += int(y.size)
                yield y

        lim._cube_chunks = counted
        self._records.append(("limit_rep", "_cube_chunks", chunks, counted))

    def _verify(self) -> None:
        allowed = {id(self._records)}
        for record in self._records:
            wrapper = record[3]
            allowed |= {id(record), id(wrapper.__dict__)}
            allowed |= {id(c) for c in wrapper.__closure__ or ()}
        originals = {id(r[2]): r for r in self._records}
        for ref in gc.get_referrers(*(r[2] for r in self._records)):
            if id(ref) in allowed or isinstance(ref, types.FrameType):
                continue
            held = ref.values() if isinstance(ref, dict) else (
                [ref.cell_contents] if isinstance(ref, types.CellType) else ref)
            layer, name = next((originals[id(x)][:2] for x in held if id(x) in originals),
                               ("?", "?"))
            raise TraceCoverageError(
                f"barneszeta.{layer}.{name} is still referenced unwrapped by "
                f"{_describe(ref)}; the tracing shim does not cover that importer")

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        t_look, t_miss = self._cache_counts("table")
        c_look, c_miss = self._cache_counts("cube")
        c = self.count
        s = self.self_s
        out = {
            "bernoulli.calls": self.calls["bernoulli"],
            "bernoulli.self_s": s["bernoulli"],
            "bernoulli.table_lookups": t_look,
            "bernoulli.table_misses": t_miss,
            "combinatorics.shell_calls": c["combinatorics.shell_calls"],
            "combinatorics.shell_points": c["combinatorics.shell_points"],
            "combinatorics.self_s": s["combinatorics"],
            "series_rep.calls": self.calls["series_rep"],
            "series_rep.points": c["series_rep.points"],
            "series_rep.self_s": s["series_rep"],
            "series_rep.ns_per_point": _per(s["series_rep"], c["series_rep.points"]),
            "integral_rep.calls": self.calls["integral_rep"],
            "integral_rep.quad_calls": c["integral_rep.quad_calls"],
            "integral_rep.quad_evals": c["integral_rep.quad_evals"],
            "integral_rep.self_s": s["integral_rep"],
            "integral_rep.ns_per_eval": _per(s["integral_rep"], c["integral_rep.quad_evals"]),
            "limit_rep.calls": self.calls["limit_rep"],
            "limit_rep.cube_lookups": c_look,
            "limit_rep.cube_misses": c_miss,
            "limit_rep.cube_points": c["limit_rep.cube_points"],
            "limit_rep.self_s": s["limit_rep"],
            "limit_rep.ns_per_cube_point": _per(s["limit_rep"], c["limit_rep.cube_points"]),
            "barnes_functions.calls": self.calls["barnes_functions"],
            "barnes_functions.self_s": s["barnes_functions"],
            "barnes_functions.cross_check_s": self.cross_check_s,
            "oracles.calls": self.calls["oracles"],
            "oracles.direct_points": c["oracles.direct_points"],
            "oracles.self_s": s["oracles"],
            "cli.calls": self.calls["cli"],
            "cli.self_s": s["cli"],
        }
        return out


def _per(seconds: float, work: int) -> float:
    """Nanoseconds per unit of work, 0 when the layer did none."""
    return seconds * 1e9 / work if work else 0.0


def _rebind(container: dict, replace: dict, depth: int = 0) -> None:
    for key, value in list(container.items()):
        if id(value) in replace:
            container[key] = replace[id(value)]
        elif isinstance(value, dict) and depth < 4:
            _rebind(value, replace, depth + 1)


def _describe(ref) -> str:
    if isinstance(ref, dict):
        for mod in package_modules():
            if vars(mod) is ref:
                return f"the globals of {mod.__name__}"
        return f"a dict with keys {sorted(map(str, ref))[:6]}"
    return f"a {type(ref).__name__} object"
