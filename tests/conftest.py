import math

import pytest


def rel_err(got: complex, want: complex) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def scaled_err(got: complex, want: complex) -> float:
    """|got - want| / (1 + |want|), the agreement metric used throughout."""
    return abs(got - want) / (1.0 + abs(want))


def neville_to_zero(xs, vals):
    """Polynomial extrapolation of vals(x) to x = 0."""
    rows = [list(vals)]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        lvl = len(rows)
        nxt = []
        for i in range(len(prev) - 1):
            x0, x1 = xs[i], xs[i + lvl]
            nxt.append((x0 * prev[i + 1] - x1 * prev[i]) / (x0 - x1))
        rows.append(nxt)
    return rows[-1][0]


def series_at(monkeypatch, k, route, *args):
    """route(*args), a series route, at the shift k in place of the one the
    route chooses, set through the two private functions that choose it."""
    from barneszeta import series_rep

    with monkeypatch.context() as m:
        m.setattr(series_rep, "_auto_k", lambda *_: k)
        m.setattr(series_rep, "_auto_k_fixed", lambda *_: k)
        res = route(*args)
    assert res.diagnostics["k"] == k
    return res


def integral_at(monkeypatch, alpha, params, M=None, c=1.0):
    """zeta_integral(alpha, params) at the subtraction order M (the route's
    own when None) and the homogeneous regulator c, set through the private
    constants that choose them: M is _M_MARGIN above the least order."""
    from barneszeta import BarnesParams, integral_rep

    d, c = len(params.w if isinstance(params, BarnesParams) else params), complex(c)
    with monkeypatch.context() as m:
        if M is not None:
            least = max(0, math.ceil(d - complex(alpha).real - 1))
            m.setattr(integral_rep, "_M_MARGIN", M - least)
        m.setattr(integral_rep, "_REGULATOR", c)
        res = integral_rep.zeta_integral(alpha, params)
    assert M is None or res.diagnostics["M"] == M
    assert res.diagnostics.get("c", [c.real, c.imag]) == [c.real, c.imag]
    return res


@pytest.fixture
def d2_params():
    from barneszeta import BarnesParams

    return BarnesParams(0.7, (1.0, 2 ** 0.5))


@pytest.fixture
def d3_params():
    import math

    from barneszeta import BarnesParams

    return BarnesParams(0.9, (1.0, 2 ** 0.5, math.pi / 4))
