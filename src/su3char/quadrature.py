"""Deterministic 2-D quadrature primitives.

Two rule families, both returning :class:`QuadratureResult`:

* triangles: tensor Gauss-Legendre pulled onto a triangle through the Duffy
  substitution u = xi*(1-eta), v = xi*eta (nodes cluster at the first
  vertex), refined by uniform midpoint subdivision until two successive
  levels agree to a relative tolerance;
* the periodic square: equal-weight trapezoid sums with grid doubling,
  spectrally accurate for smooth periodic integrands and *exact* for
  trigonometric polynomials once the grid outruns the bandwidth.

Both families drive one level-indexed loop (:func:`_refine`), which stops
when two successive level totals agree to a relative tolerance.

Reductions are two-stage: ``np.sum`` over blocks whose shape is fixed by
the rule alone (base_rule^2 nodes per triangle; a row block of an n x n
grid fixed by n), so each block's pairwise tree is fixed, then
``math.fsum`` (exactly rounded) across blocks.  Totals therefore do not
depend on the order of the blocks, on who calls, or on the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "QuadratureResult",
    "ConvergenceError",
    "triangle_rule",
    "subdivide_triangle",
    "adaptive_triangle",
    "periodic_trapezoid_2d",
]

Point = Tuple[float, float]
Triangle = Tuple[Point, Point, Point]


class ConvergenceError(RuntimeError):
    """Successive refinement levels failed to agree within tolerance."""

    def __init__(self, message: str, result: "QuadratureResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    levels: int        # refinement levels evaluated (>= 1)
    last_delta: float  # relative change at the final comparison (inf if none)
    converged: bool

    def require_converged(self, what: str) -> "QuadratureResult":
        if not self.converged:
            raise ConvergenceError(
                f"{what}: no convergence after {self.levels} levels "
                f"(last relative delta {self.last_delta:.3e})",
                self,
            )
        return self


@lru_cache(maxsize=None)
def _leggauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x = (x + 1.0) / 2.0
    w = w / 2.0
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def _duffy_nodes(n: int):
    """Tensor GL rule mapped to the unit simplex {u,v >= 0, u+v <= 1}."""
    x, w = _leggauss01(n)
    xi = np.repeat(x, n)
    eta = np.tile(x, n)
    ww = np.repeat(w, n) * np.tile(w, n) * xi  # xi = Duffy jacobian
    u = xi * (1.0 - eta)
    v = xi * eta
    for arr in (u, v, ww):
        arr.setflags(write=False)
    return u, v, ww


def triangle_rule(verts: Triangle, n: int):
    """Nodes (x, y) and weights integrating over the given triangle."""
    (x0, y0), (x1, y1), (x2, y2) = verts
    u, v, w = _duffy_nodes(n)
    x = x0 + (x1 - x0) * u + (x2 - x0) * v
    y = y0 + (y1 - y0) * u + (y2 - y0) * v
    area2 = abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
    return x, y, w * area2


def subdivide_triangle(verts: Triangle) -> List[Triangle]:
    """Four congruent children via edge midpoints, in a fixed order."""
    (ax, ay), (bx, by), (cx, cy) = verts
    ab = ((ax + bx) / 2.0, (ay + by) / 2.0)
    bc = ((bx + cx) / 2.0, (by + cy) / 2.0)
    ca = ((cx + ax) / 2.0, (cy + ay) / 2.0)
    a, b, c = (ax, ay), (bx, by), (cx, cy)
    return [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]


def _triangulation_sum(f, tris: Sequence[Triangle], n: int) -> float:
    parts = []
    for t in tris:
        x, y, w = triangle_rule(t, n)
        vals = np.asarray(f(x, y), dtype=np.float64)
        # the n*n shape fixes np.sum's pairwise tree; fsum across triangles
        parts.append(float(np.sum(w * vals)))
    return math.fsum(parts)


def _refine(
    level_sum: Callable[[int], float],
    max_refinements: int,
    rel_tol: float,
) -> QuadratureResult:
    """Evaluate level_sum(0), level_sum(1), ... until two successive levels
    agree within rel_tol (relative) or max_refinements + 1 levels have run."""
    if not (0.0 < rel_tol < math.inf):
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol!r}")
    prev = None
    total = 0.0
    delta = math.inf
    for level in range(max_refinements + 1):
        total = level_sum(level)
        if prev is not None:
            delta = abs(total - prev) / max(abs(total), 1e-300)
            if delta <= rel_tol:
                return QuadratureResult(total, level + 1, delta, True)
        prev = total
    return QuadratureResult(total, max_refinements + 1, delta, False)


def adaptive_triangle(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    verts: Triangle,
    base_rule: int = 64,
    max_refinements: int = 6,
    rel_tol: float = 1e-6,
) -> QuadratureResult:
    """Integrate f over a triangle, uniformly subdividing until two
    successive triangulation totals agree within rel_tol (relative)."""
    tris: List[Triangle] = [tuple((float(px), float(py)) for px, py in verts)]

    def level_sum(level: int) -> float:
        nonlocal tris
        if level:
            tris = [child for t in tris for child in subdivide_triangle(t)]
        return _triangulation_sum(f, tris, base_rule)

    return _refine(level_sum, max_refinements, rel_tol)


# Nodes per block of a grid level.  Blocks depend only on n, so the
# partial-sum structure (and hence the rounded total) is identical no matter
# who calls, and peak memory is a few arrays of this many nodes.
BLOCK_NODES = 2_000_000


def _trapezoid_sum(f, period: float, n: int) -> float:
    """(period/n)^2 * sum of f over the n x n periodic grid, row-blocked."""
    h = period / n
    t = h * np.arange(n)
    rows_per_block = max(1, BLOCK_NODES // n)
    parts = []
    for start in range(0, n, rows_per_block):
        rows = t[start:start + rows_per_block]
        t1 = np.repeat(rows, n)
        t2 = np.tile(t, len(rows))
        vals = np.asarray(f(t1, t2), dtype=np.float64)
        # np.sum's pairwise tree is fixed by the block shape, which depends
        # only on n; the outer fsum is exactly rounded
        parts.append(float(np.sum(vals)))
    return math.fsum(parts) * h * h


def periodic_trapezoid_2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    period: float,
    n0: int,
    max_doublings: int = 6,
    rel_tol: float = 1e-6,
) -> QuadratureResult:
    """Equal-weight trapezoid rule on the period square with grid doubling
    (level k uses the (n0 * 2^k)-point grid per axis)."""
    if n0 < 2:
        raise ValueError("n0 must be at least 2")
    return _refine(
        lambda level: _trapezoid_sum(f, period, n0 << level), max_doublings, rel_tol
    )
