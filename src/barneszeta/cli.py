"""Command-line interface: evaluate any quantity by any route, emit JSON or
CSV, and run cross-representation comparison reports.

Dispatch: `eval`, `fp` and `deriv0` are one handler that builds the config
and the params once (the weights when --homogeneous, else a BarnesParams),
then calls `barnes_functions.evaluate`; `table` and `compare` loop over the
same `barnes_functions.ROUTES[quantity][route]` registry, and every
--method choice list is read from it, plus "best".  No route function is
imported here.

Conventions:
  * complex scalars are written RE or RE,IM (e.g. --alpha 2.5,1);
  * weights are a comma list of reals (e.g. --w 1,1.41421356);
  * floats print with 17 significant digits, CSV uses LF line endings,
    JSON is emitted with sorted keys so output round-trips byte for byte;
  * BARNES_ZETA_TOL overrides the default tolerance, flags override both;
    the tolerance moves the series, limit and direct routes, not the
    integral route's quadrature.

Exit codes: 0 ok, 1 comparison failure, 2 usage, 3 convergence/quadrature
failure, 4 pole.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .barnes_functions import (
    ROUTES,
    evaluate,
    gamma_dq,
    log_gamma_B,
    log_rho,
    multiple_gamma,
    psi_B,
    residue,
)
from .foundations import (
    BarnesParams,
    BarnesZetaError,
    ConvergenceError,
    DomainError,
    EvalConfig,
    EvalResult,
    PoleError,
    QuadratureError,
    validate_params,
    validate_weights,
)

EXIT_OK = 0
EXIT_COMPARISON = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_POLE = 4


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")


def parse_weights(text: str) -> tuple[complex, ...]:
    try:
        return tuple(complex(float(x), 0.0) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad weight list {text!r}") from exc


def _jsonable(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ": "))


def result_payload(res: EvalResult) -> dict:
    return {
        "value": [res.value.real, res.value.imag],
        "est_error": res.abs_error_estimate,
        "method": res.method.value,
        "diagnostics": _jsonable(res.diagnostics),
    }


def emit_result(res: EvalResult, as_json: bool, out=None) -> None:
    out = out if out is not None else sys.stdout
    if as_json:
        out.write(canonical_json(result_payload(res)) + "\n")
    else:
        v = res.value
        out.write(f"value = {fmt17(v.real)} {'+' if v.imag >= 0 else '-'} {fmt17(abs(v.imag))}j"
                  f"  (est_error={res.abs_error_estimate:.3e}, method={res.method.value})\n")


def build_config(args) -> EvalConfig:
    tol = getattr(args, "tol", None)
    if tol is None:
        env = os.environ.get("BARNES_ZETA_TOL")
        tol = float(env) if env else None
    if tol is None:
        return EvalConfig()
    return EvalConfig(rel_tol=tol)


def _pole_hint(exc: PoleError, args) -> str:
    q = exc.q
    if q is None:
        return str(exc)
    try:
        res = residue(q, _params(args))
        return f"{exc} (hint: residue at alpha = {q} is {fmt17(res.real)}{res.imag:+.17g}j)"
    except Exception:
        return str(exc)


def _methods(*quantities: str) -> list[str]:
    """Route names of the registry for these quantities, in registry order."""
    return list(dict.fromkeys(route for q in quantities for route in ROUTES[q]))


def _params(args):
    """The params argument of a route: the weights when --homogeneous, else (a, w)."""
    wt = validate_weights(args.w)
    if args.homogeneous:
        return wt
    if args.a is None:
        raise DomainError("--a is required unless --homogeneous is given")
    p = BarnesParams(args.a, wt)
    validate_params(p)
    return p


# ---------------------------------------------------------------------------
# eval / fp / deriv0 / gamma


def cmd_eval(args) -> int:
    """eval, fp and deriv0: one quantity by one route of the registry."""
    cfg = build_config(args)
    res = evaluate(args.quantity, _params(args), args.at, args.method, cfg)
    emit_result(res, args.json)
    return EXIT_OK


def cmd_gamma(args) -> int:
    cfg = build_config(args)
    if args.fn == "multigamma":
        if args.a is None or args.d is None:
            raise DomainError("multigamma needs --a and --d")
        res = multiple_gamma(args.a, args.d, args.method, cfg)
    elif args.fn == "logrho":
        res = log_rho(validate_weights(args.w), args.method, cfg)
    elif args.fn == "gammadq":
        if args.q is None:
            raise DomainError("gammadq needs --q")
        res = gamma_dq(args.q, validate_weights(args.w), args.method, cfg)
    elif args.fn == "loggammaB":
        if args.a is None:
            raise DomainError("loggammaB needs --a")
        res = log_gamma_B(BarnesParams(args.a, validate_weights(args.w)), args.method, cfg)
    else:  # psiB
        if args.a is None or args.q is None:
            raise DomainError("psiB needs --a and --q")
        res = psi_B(args.q, BarnesParams(args.a, validate_weights(args.w)), args.method, cfg)
    emit_result(res, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare


def _compare_quantities(p: BarnesParams):
    """(name, quantity, at, params) of every finite part and of both
    derivatives at zero; params are the weights for the homogeneous ones."""
    spec = []
    for q in range(1, p.d + 1):
        spec.append((f"fp_q{q}", "fp", q, p))
        spec.append((f"fp_bh_q{q}", "fp", q, p.w))
    spec.append(("deriv0", "deriv0", None, p))
    spec.append(("deriv0_bh", "deriv0", None, p.w))
    return spec


def cmd_compare(args) -> int:
    cfg = build_config(args)
    wt = validate_weights(args.w)
    p = BarnesParams(args.a, wt)
    validate_params(p)
    tol = args.tol_cmp if args.tol_cmp is not None else (1e-5 if p.d <= 2 else 1e-4)
    routes = _methods("fp", "deriv0")
    quantities = []
    agreement = {}
    passed = True
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["quantity", *(f"{r}_{part}" for r in routes for part in ("re", "im")),
                     "max_delta", "pass"])
    for name, quantity, at, params in _compare_quantities(p):
        values = {}
        for route in ROUTES[quantity]:
            res = evaluate(quantity, params, at, route, cfg)
            values[route] = res.value
            quantities.append({
                "name": name,
                "route": route,
                "value": [res.value.real, res.value.imag],
                "est_error": res.abs_error_estimate,
            })
        vals = list(values.values())
        delta = max(abs(x - y) for i, x in enumerate(vals) for y in vals[i + 1:])
        agreement[name] = delta
        ok = delta <= tol * (1.0 + abs(values["series"]))
        passed = passed and ok
        row = [name]
        for route in routes:
            v = values.get(route)
            row.extend(["", ""] if v is None else [fmt17(v.real), fmt17(v.imag)])
        writer.writerow([*row, fmt17(delta), str(ok).lower()])
    params = {"a": [p.a.real, p.a.imag], "w": [[wi.real, wi.imag] for wi in wt]}
    report = canonical_json({"params": params, "quantities": quantities, "agreement_matrix": agreement,
                             "tolerance": tol, "pass": passed}) + "\n"
    if args.out:
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            fh.write(report)
        with open(stem + ".csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(report)
        sys.stdout.write(buf.getvalue())
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
    cfg = build_config(args)
    params = _params(args)
    start, stop, num = args.alpha_grid
    alphas = [start] if num == 1 else [start + i * (stop - start) / (num - 1) for i in range(num)]
    rows = []
    saw_pole = False
    saw_convergence = False
    for ar in alphas:
        alpha = complex(ar, args.alpha_im)
        try:
            res = evaluate("zeta", params, alpha, args.method, cfg)
            rows.append((alpha, res.value, res.abs_error_estimate, res.method.value))
        except PoleError:
            saw_pole = True
            rows.append((alpha, complex(float("nan"), float("nan")), float("nan"), args.method))
        except (ConvergenceError, QuadratureError):
            saw_convergence = True
            rows.append((alpha, complex(float("nan"), float("nan")), float("nan"), args.method))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["alpha_re", "alpha_im", "value_re", "value_im", "est_error", "method"])
    for alpha, value, est, method in rows:
        writer.writerow([fmt17(alpha.real), fmt17(alpha.imag), fmt17(value.real),
                         fmt17(value.imag), fmt17(est), method])
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    if saw_convergence:
        return EXIT_CONVERGENCE
    if saw_pole:
        return EXIT_POLE
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_method(sub, *quantities: str) -> None:
    """--method: the registry routes of these quantities, then "best"."""
    sub.add_argument("--method", choices=[*_methods(*quantities), "best"], default="series")


def _add_common(sub, quantity: str):
    sub.add_argument("--a", type=parse_complex, default=None, help="offset a as RE or RE,IM")
    sub.add_argument("--w", type=parse_weights, required=True, help="weights, comma list")
    _add_method(sub, quantity)
    sub.add_argument("--homogeneous", action="store_true",
                     help="evaluate the a = 0, origin-excluded variant")
    sub.add_argument("--tol", type=float, default=None,
                     help="relative tolerance of the series, limit and direct routes "
                          "(the integral route's quadrature keeps its own)")


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
    p_g.add_argument("--tol", type=float, default=None)
    p_g.add_argument("--json", action="store_true")
    p_g.set_defaults(func=cmd_gamma)

    p_cmp = subs.add_parser("compare", help="cross-representation comparison report")
    p_cmp.add_argument("--a", type=parse_complex, required=True)
    p_cmp.add_argument("--w", type=parse_weights, required=True)
    p_cmp.add_argument("--tol", dest="tol_cmp", type=float, default=None,
                       help="agreement tolerance (default 1e-5 for d<=2, 1e-4 for d=3)")
    p_cmp.add_argument("--out", default=None, help="output stem; writes .json and .csv")
    p_cmp.set_defaults(func=cmd_compare, tol=None)

    p_tab = subs.add_parser("table", help="CSV table over an alpha grid")
    p_tab.add_argument("--alpha-grid", type=parse_grid, required=True, metavar="START:STOP:N")
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
    except (ConvergenceError, QuadratureError) as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_CONVERGENCE
    except (DomainError, BarnesZetaError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
