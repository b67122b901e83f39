"""Command-line interface: evaluate any quantity by any route, emit JSON or
CSV, and run cross-representation comparison reports.

Dispatch: `eval`, `fp` and `deriv0` are one handler that passes the params
(the weights when --homogeneous, else a BarnesParams) to
`barnes_functions.evaluate`, whose routes validate them; `gamma` calls the
Gamma family; `table` and `compare` loop over the same
`barnes_functions.ROUTES[quantity][route]` registry, and every --method
choice list is read from it, plus "best".  No route function is imported
here.  Every output, stdout or a file of --out, goes through `_write`.

Conventions:
  * complex scalars are written RE or RE,IM (e.g. --alpha 2.5,1);
  * weights are a comma list of reals (e.g. --w 1,1.41421356);
  * floats print with 17 significant digits, CSV uses LF line endings,
    JSON is emitted with sorted keys so output round-trips byte for byte;
  * no --method runs the library's default route, "best"; --tol, else REL_TOL,
    is the tolerance of the series, limit and direct routes (compare's --tol
    is its agreement tolerance: its routes run at REL_TOL).

Exit codes: 0 ok, 1 comparison failure, 2 usage, 3 convergence failure (a
route past a budget, a cap or the largest double), 4 pole.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .barnes_functions import (DEFAULT_METHOD, ROUTES, evaluate, gamma_dq, log_gamma_B, log_rho,
                               multiple_gamma, psi_B, residue)
from .foundations import (REL_TOL, BarnesParams, BarnesZetaError, ConvergenceError, DomainError,
                          EvalResult, PoleError, check_tol, validate_weights)

EXIT_OK = 0
EXIT_COMPARISON = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_POLE = 4

# The flags each `gamma --fn` needs beyond --w, named in its usage error.
_GAMMA_NEEDS = {"multigamma": "ad", "gammadq": "q", "loggammaB": "a", "psiB": "aq"}
_TOL_HELP = ("relative tolerance of the series, limit and direct routes "
             "(the integral route's quadrature keeps its own)")


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")
    return complex(*map(float, parts))


def parse_weights(text: str) -> tuple[complex, ...]:
    try:
        return tuple(complex(float(x), 0.0) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad weight list {text!r}") from exc


def canonical_json(obj) -> str:
    def pair(z):    # a complex as [re, im]; any other type json cannot write: TypeError
        return [z.real, z.imag] if isinstance(z, complex) else json.JSONEncoder().default(z)
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), default=pair)


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _write(path: str | None, text: str) -> None:
    """text to the file at path, or to stdout when there is none."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def emit_result(res: EvalResult, as_json: bool) -> None:
    v, est, method = res.value, res.abs_error_estimate, res.method
    if as_json:
        _write(None, canonical_json({"value": v, "est_error": est,
                                     "method": method, "diagnostics": res.diagnostics}) + "\n")
    else:
        _write(None, f"value = {fmt17(v.real)} {'+' if v.imag >= 0 else '-'} {fmt17(abs(v.imag))}j"
                     f"  (est_error={est:.3e}, method={method})\n")


def _pole_hint(exc: PoleError, args) -> str:
    if exc.q is None:
        return str(exc)
    try:
        res = residue(exc.q, _params(args))
    except Exception:
        return str(exc)
    return f"{exc} (hint: residue at alpha = {exc.q} is {fmt17(res.real)}{res.imag:+.17g}j)"


def _methods(*quantities: str) -> list[str]:
    """Route names of the registry for these quantities, in registry order."""
    return list(dict.fromkeys(route for q in quantities for route in ROUTES[q]))


def _params(args):
    """The params argument of a route: the weights when --homogeneous, else
    (a, w); the weights are checked first, the route checks the rest."""
    wt = validate_weights(args.w)
    if args.homogeneous:
        return wt
    if args.a is None:
        raise DomainError("--a is required unless --homogeneous is given")
    return BarnesParams(args.a, wt)


# ---------------------------------------------------------------------------
# eval / fp / deriv0 / gamma


def cmd_eval(args) -> int:
    """eval, fp and deriv0: one quantity by one route of the registry."""
    check_tol(args.tol, "--tol")
    emit_result(evaluate(args.quantity, _params(args), args.at, args.method, args.tol), args.json)
    return EXIT_OK


def cmd_gamma(args) -> int:
    check_tol(args.tol, "--tol")
    needs = _GAMMA_NEEDS.get(args.fn, "")
    if any(getattr(args, flag) is None for flag in needs):
        raise DomainError(f"{args.fn} needs " + " and ".join(f"--{flag}" for flag in needs))
    if args.fn == "multigamma":
        res = multiple_gamma(args.a, args.d, args.method, args.tol)
    elif args.fn == "logrho":
        res = log_rho(args.w, args.method, args.tol)
    elif args.fn == "gammadq":
        res = gamma_dq(args.q, args.w, args.method, args.tol)
    else:  # loggammaB, psiB: the weights are checked before a
        p = BarnesParams(args.a, validate_weights(args.w))
        res = (log_gamma_B(p, args.method, args.tol) if args.fn == "loggammaB"
               else psi_B(args.q, p, args.method, args.tol))
    emit_result(res, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args) -> int:
    """Every finite part and both derivatives at zero, of the lattice and of
    its homogeneous companion (the weights alone), by every registry route."""
    p = BarnesParams(args.a, validate_weights(args.w))
    tol = args.tol if args.tol is not None else (1e-5 if p.d <= 2 else 1e-4)
    if not (tol >= 0 and math.isfinite(tol)):
        raise DomainError(f"--tol = {tol} is not a finite nonnegative tolerance")
    spec = [(f"fp{bh}_q{q}", "fp", q, params)
            for q in range(1, p.d + 1) for bh, params in (("", p), ("_bh", p.w))]
    spec += [("deriv0", "deriv0", None, p), ("deriv0_bh", "deriv0", None, p.w)]
    routes = _methods("fp", "deriv0")      # fp and deriv0 have the same three routes
    rows = [["quantity", *(f"{r}_{part}" for r in routes for part in ("re", "im")),
             "max_delta", "pass"]]
    quantities, agreement, passed = [], {}, True
    for name, quantity, at, params in spec:
        runs = {route: evaluate(quantity, params, at, route) for route in routes}
        quantities += [{"name": name, "route": route, "value": r.value,
                        "est_error": r.abs_error_estimate} for route, r in runs.items()]
        vals = [r.value for r in runs.values()]
        delta = agreement[name] = max(abs(x - y) for i, x in enumerate(vals) for y in vals[i + 1:])
        ok = delta <= tol * (1.0 + abs(runs["series"].value))
        passed = passed and ok
        rows.append([name, *(fmt17(x) for v in vals for x in (v.real, v.imag)), fmt17(delta),
                     str(ok).lower()])
    report = canonical_json({"params": {"a": p.a, "w": p.w}, "quantities": quantities,
                             "agreement_matrix": agreement, "tolerance": tol,
                             "pass": passed}) + "\n"
    if args.out:
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        _write(stem + ".json", report)
        _write(stem + ".csv", _csv(rows))
    else:
        _write(None, report + _csv(rows))
    return EXIT_OK if passed else EXIT_COMPARISON


# ---------------------------------------------------------------------------
# table


def parse_grid(text: str) -> tuple[float, float, int]:
    try:
        start, stop, num = text.split(":")
        out = (float(start), float(stop), int(num))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected START:STOP:N, got {text!r}") from exc
    if out[2] < 1:
        raise argparse.ArgumentTypeError("grid needs at least one point")
    return out


def cmd_table(args) -> int:
    """The zeta function over an alpha grid; a row whose route raises a pole
    or a convergence failure reads nan, and sets the exit code."""
    check_tol(args.tol, "--tol")
    params = _params(args)
    start, stop, num = args.alpha_grid
    alphas = [start] if num == 1 else [start + i * (stop - start) / (num - 1) for i in range(num)]
    rows = [["alpha_re", "alpha_im", "value_re", "value_im", "est_error", "method"]]
    codes = set()
    for ar in alphas:
        alpha = complex(ar, args.alpha_im)
        try:
            res = evaluate("zeta", params, alpha, args.method, args.tol)
            value, est, method = res.value, res.abs_error_estimate, res.method
        except (PoleError, ConvergenceError) as exc:
            codes.add(EXIT_POLE if isinstance(exc, PoleError) else EXIT_CONVERGENCE)
            value, est, method = complex(math.nan, math.nan), math.nan, args.method
        rows.append([fmt17(alpha.real), fmt17(alpha.imag), fmt17(value.real),
                     fmt17(value.imag), fmt17(est), method])
    _write(args.out, _csv(rows))
    return min(codes, default=EXIT_OK)    # a convergence failure (3) outranks a pole (4)


# ---------------------------------------------------------------------------
# parser


def _add_method(sub, *quantities: str) -> None:
    """--method: the registry routes of these quantities, then "best"; the library's default."""
    sub.add_argument("--method", choices=[*_methods(*quantities), "best"], default=DEFAULT_METHOD)


def _add_common(sub, quantity: str):
    sub.add_argument("--a", type=parse_complex, default=None, help="offset a as RE or RE,IM")
    sub.add_argument("--w", type=parse_weights, required=True, help="weights, comma list")
    _add_method(sub, quantity)
    sub.add_argument("--homogeneous", action="store_true",
                     help="evaluate the a = 0, origin-excluded variant")
    sub.add_argument("--tol", type=float, default=REL_TOL, help=_TOL_HELP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barneszeta",
        description="Lattice zeta function evaluations with cross-checking representations.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    # eval, fp and deriv0 share one handler; --alpha and --q both land in `at`.
    p_eval = subs.add_parser("eval", help="evaluate the zeta function itself")
    p_eval.add_argument("--alpha", dest="at", metavar="ALPHA", type=parse_complex,
                        required=True, help="argument alpha")
    _add_common(p_eval, "zeta")
    p_eval.set_defaults(func=cmd_eval, quantity="zeta")

    p_fp = subs.add_parser("fp", help="finite part at a pole alpha = q")
    p_fp.add_argument("--q", dest="at", metavar="Q", type=int, required=True)
    _add_common(p_fp, "fp")
    p_fp.set_defaults(func=cmd_eval, quantity="fp")

    p_d0 = subs.add_parser("deriv0", help="derivative at alpha = 0")
    _add_common(p_d0, "deriv0")
    p_d0.set_defaults(func=cmd_eval, quantity="deriv0", at=None)
    for sub in (p_eval, p_fp, p_d0):
        sub.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_g = subs.add_parser("gamma", help="Gamma-family functions")
    p_g.add_argument("--fn", choices=["loggammaB", "psiB", "logrho", "gammadq", "multigamma"],
                     required=True)
    p_g.add_argument("--q", type=int, default=None)
    p_g.add_argument("--d", type=int, default=None)
    p_g.add_argument("--w", type=parse_weights, default=(1.0 + 0j,))
    p_g.add_argument("--a", type=parse_complex, default=None)
    _add_method(p_g, "fp", "deriv0")
    p_g.add_argument("--tol", type=float, default=REL_TOL, help=_TOL_HELP)
    p_g.add_argument("--json", action="store_true")
    p_g.set_defaults(func=cmd_gamma)

    p_cmp = subs.add_parser("compare", help="cross-representation comparison report")
    p_cmp.add_argument("--a", type=parse_complex, required=True)
    p_cmp.add_argument("--w", type=parse_weights, required=True)
    p_cmp.add_argument("--tol", type=float, default=None,
                       help="agreement tolerance (default 1e-5 for d<=2, 1e-4 for d>=3)")
    p_cmp.add_argument("--out", default=None, help="output stem; writes .json and .csv")
    p_cmp.set_defaults(func=cmd_compare)

    p_tab = subs.add_parser("table", help="CSV table over an alpha grid")
    p_tab.add_argument("--alpha-grid", type=parse_grid, required=True, metavar="START:STOP:N",
                       help="N alphas, START to STOP; START < 0 needs --alpha-grid=START:STOP:N")
    p_tab.add_argument("--alpha-im", type=float, default=0.0)
    _add_common(p_tab, "zeta")
    p_tab.add_argument("--out", default=None)
    p_tab.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except PoleError as exc:
        sys.stderr.write(_pole_hint(exc, args) + "\n")
        return EXIT_POLE
    except ConvergenceError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_CONVERGENCE
    except (BarnesZetaError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
