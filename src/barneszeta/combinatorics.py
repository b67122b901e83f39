"""Alternating subset tables, hypercubic shells and extrapolation in 1/M.

The G symbol is an alternating sum of a function over the subset sums of
the weights, the composition of the d forward-difference operators with
steps w_1..w_d, so it annihilates every polynomial of degree < d.  On the
integer lattice the same alternating structure telescopes: its sum over
the boxes of the cube {0..M}^d is one alternating sum over the 2^d far
corners, whose signs and subset sums `subset_table` lists.

Finite differences of smooth functions at a large argument y lose roughly
d*log10|y| digits to cancellation.  The lattice series, and the limit route
from its plan, form them only at the 2^d far corners of each box; all
scalar accumulations here use error-free-transformation (Neumaier)
summation.

The values a + n.w on a shell S_k (the points with max coordinate k) are one
product of the weights with the shell's integer coordinate grid, cached per
dimension and bounded in size; larger shells are built as d faces.  Both run
in float64 when a and every w_i are real.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, Iterator, Sequence

import numpy as np

from .foundations import ConvergenceError, DomainError, narrow, narrow_weights

MAX_DIM = 16
MAX_SHELLS = 100_000      # shells S_0..S_MAX_SHELLS a lattice walk may visit
MAX_POINTS = 30_000_000   # lattice points a walk may sum before it gives up
_GRID_POINTS = 2 ** 16     # shells with (k+1)^d <= this come from the cached grid
_GRIDS: dict[int, tuple[np.ndarray, int]] = {}   # d -> (grid, shells written)


class CompensatedSum:
    """Neumaier compensated accumulator for complex values; `mass` is the
    sum of the added magnitudes, the scale of the terms' own rounding."""

    __slots__ = ("_sr", "_cr", "_si", "_ci", "mass")

    def __init__(self):
        self._sr = self._cr = 0.0
        self._si = self._ci = 0.0
        self.mass = 0.0

    @staticmethod
    def _step(s: float, c: float, x: float) -> tuple[float, float]:
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        return t, c

    def add(self, z: complex) -> None:
        z = complex(z)
        self.mass += abs(z)
        self._sr, self._cr = self._step(self._sr, self._cr, z.real)
        self._si, self._ci = self._step(self._si, self._ci, z.imag)

    @property
    def value(self) -> complex:
        return complex(self._sr + self._cr, self._si + self._ci)


def neville_diagonal(Ms: Sequence[int], vals: Sequence[complex]) -> tuple[list[complex], float]:
    """The diagonal of the Neville tableau of vals(1/M) at 1/M = 0, and the
    Lebesgue constant of its nodes.

    Entry j of the diagonal is the polynomial in 1/M through the first j + 1
    values, evaluated at 0.  The last entry is sum_i l_i(0) vals_i, with l_i
    the Lagrange basis on the nodes 1/M; the Lebesgue constant sum_i |l_i(0)|
    bounds how much it amplifies an error in the values.
    """
    xs = [1.0 / m for m in Ms]
    rows = [list(vals)]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        level = len(rows)
        nxt = []
        for i in range(len(prev) - 1):
            x0, x1 = xs[i], xs[i + level]
            nxt.append((x0 * prev[i + 1] - x1 * prev[i]) / (x0 - x1))
        rows.append(nxt)
    lebesgue = sum(abs(math.prod(xj / (xj - xi) for j, xj in enumerate(xs) if j != i))
                   for i, xi in enumerate(xs))
    return [row[0] for row in rows], lebesgue


def subset_table(w: Sequence[complex]) -> tuple[list[float], list[complex]]:
    """The signs (-1)^{d-|S|} and sums sigma_S of w over S, one entry per
    subset S: the empty subset first, then by size, then lexicographically,
    each sum taken left to right from 0.0."""
    d = len(w)
    if d > MAX_DIM:
        raise DomainError(f"dimension must be in 1..{MAX_DIM}")
    subsets = [s for size in range(d + 1) for s in combinations(w, size)]
    return [-1.0 if (d - len(s)) % 2 else 1.0 for s in subsets], [sum(s, 0.0) for s in subsets]


def _shell_grid(d: int, k: int) -> np.ndarray:
    """Integer coordinates of the shell S_k as a (d, |S_k|) array, in the face
    order of `shell_values`: a view of the cached grid of dimension d, which
    lists the shells S_0, S_1, ... one after another, so that S_k is its
    columns k^d .. (k+1)^d - 1.

    Shells are written once each, on first request, face by face.  The
    caller keeps (k+1)^d <= _GRID_POINTS, so a dimension's grid never holds
    more than _GRID_POINTS points; it is allocated at that size, in the
    smallest unsigned dtype (one byte from d = 2 on, two at d = 1), and its
    memory becomes resident only as shells are written.
    """
    grid, written = _GRIDS.get(d, (None, 0))
    if grid is None:
        grid = np.empty((d, _GRID_POINTS), np.min_scalar_type(round(_GRID_POINTS ** (1.0 / d)) - 1))
    for j in range(written, k + 1):
        at = j ** d
        for i in range(d):      # face i: coordinate i is j, those before it below j
            face = np.indices((j,) * i + (1,) + (j + 1,) * (d - 1 - i), grid.dtype).reshape(d, -1)
            face[i] = j
            grid[:, at:at + face.shape[1]] = face
            at += face.shape[1]
    _GRIDS[d] = grid, max(written, k + 1)
    return grid[:, k ** d:(k + 1) ** d]


def shell_values(a: complex, w: Sequence[complex] | np.ndarray, k: int,
                 skip_origin: bool = False) -> np.ndarray:
    """Values a + n.w on the shell S_k as a flat array, float64 when a and
    every w_i are real, else complex128.  w is the weights, or the array
    `narrow_weights` makes of them, which a shell walk builds once.

    S_k splits into d disjoint faces by the first coordinate that equals k:
    the coordinates before it run over 0..k-1, those after it over 0..k.
    The faces come in the order of that coordinate and each is laid out in
    C order, so the output ordering is reproducible bit for bit.

    While (k+1)^d <= _GRID_POINTS the values are one product w @ G_k of the
    weights with the shell's cached integer grid (see `_shell_grid`), read
    straight from the cache once the shell is written there, so
    each dimension's cache holds at most 2^16 points, 2^16 * d bytes.  The
    grid pays where the call overhead of the face build dominates, on the
    many small shells of the series; larger shells -- the long d = 2 walks
    of the direct sum, the limit route's cubes at d >= 4 -- are built face
    by face in a few numpy calls each: their cost is the points themselves,
    and a grid for them would hold megabytes that are read once.
    """
    wt = w if isinstance(w, np.ndarray) else narrow_weights(w)
    a = narrow(a)
    if k == 0:
        return np.array([] if skip_origin else [a], dtype=np.result_type(a, wt))
    d = len(wt)
    grid, written = _GRIDS.get(d, (None, 0))
    if k < written:
        return a + wt @ grid[:, k ** d:(k + 1) ** d]
    if (k + 1) ** d <= _GRID_POINTS:
        return a + wt @ _shell_grid(d, k)
    n = np.arange(k + 1.0)
    # before[i]: coordinates 0..i-1, each in 0..k-1; after[j]: the last j, each in 0..k
    before, after = [np.zeros(1)], [np.zeros(1)]
    for i in range(d - 1):
        before.append((before[-1][:, None] + wt[i] * n[:k]).ravel())
        after.append((wt[d - 1 - i] * n[:, None] + after[-1]).ravel())
    return np.concatenate([((a + k * wt[i]) + before[i][:, None] + after[d - 1 - i]).ravel()
                           for i in range(d)])


def walk_shells(a: complex, w: Sequence[complex], skip_origin: bool,
                diag: Callable[[int, int], dict]) -> Iterator[tuple[int, np.ndarray, int]]:
    """(k, the `shell_values` of S_k, the points through S_k) for the shells
    S_0, S_1, ... of the lattice a + n.w; the homogeneous S_0 (skip_origin)
    holds none.  S_k holds (k+1)^d - k^d points, known before it is built:
    the walk ends quietly before a shell that would take the count past
    MAX_POINTS, so the budget bounds memory as well as time.  After
    S_MAX_SHELLS it raises ConvergenceError with the caller's diagnostics
    diag(MAX_SHELLS, points)."""
    weights = narrow_weights(w)
    d, points = len(weights), 0
    for k in range(MAX_SHELLS + 1):
        if points + (k + 1) ** d - k ** d - (skip_origin and k == 0) > MAX_POINTS:
            return
        y = shell_values(a, weights, k, skip_origin)
        points += y.size
        yield k, y, points
    raise ConvergenceError(f"the lattice walk hit MAX_SHELLS = {MAX_SHELLS} shells",
                           diagnostics=diag(MAX_SHELLS, points))
