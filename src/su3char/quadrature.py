"""Deterministic 2-D quadrature primitives.

The rule family, returning :class:`QuadratureResult`: tensor Gauss-Legendre
pulled onto a triangle through the Duffy substitution u = xi*(1-eta), v =
xi*eta (nodes cluster at the first vertex), refined by midpoint subdivision
until two successive levels agree to a relative tolerance; each level
subdivides only the triangles whose last subdivision still moved the total
(local refinement).  It drives one level-indexed loop (:func:`_refine`),
which the lpnorms module's FFT levels on the period square share, over a
batch of integrals on shared nodes: each level's nodes are built once for
all integrals still running, and each stops at its own first level that
agrees with the previous one to a relative tolerance.  One integral is a
batch of one.  Batching changes no operand and no reduction tree, so
values, levels and deltas equal those of separate calls.
``periodic_trapezoid_2d``, a node-by-node trapezoid sum over the period
square, is no library path: tests check the FFT levels against it.

Reductions are two-stage: ``np.sum`` over blocks whose shape is fixed by
the rule alone (base_rule^2 nodes per triangle; a row block of an n x n
grid fixed by n), so each block's pairwise tree is fixed, then
``math.fsum`` (exactly rounded) across blocks.  Totals therefore do not
depend on the order of the blocks, on who calls, or on the thread count.
Which triangles an integral refines depends on its own sums alone, so
local refinement keeps this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "QuadratureResult",
    "ConvergenceError",
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

    def require_converged(self, what: str, rel_tol: Optional[float] = None) -> "QuadratureResult":
        if not self.converged:
            judged = "" if rel_tol is None else f" against rel_tol {rel_tol:.3e}"
            raise ConvergenceError(f"{what}: no convergence after {self.levels} levels (last "
                                   f"relative delta {self.last_delta:.3e}{judged})", self)
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


def _refine(level_sums: Callable[[int, List[int]], Sequence[float]], count: int,
            max_refinements: int, rel_tol: float) -> List[QuadratureResult]:
    """Evaluate level_sums(level, active), the totals of the integrals still
    running, for level = 0, 1, ...; integral k stops at its first level that
    agrees with its previous one within rel_tol (relative), or after
    max_refinements + 1 levels."""
    if not (0.0 < rel_tol < math.inf):
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol!r}")
    if max_refinements < 0:
        raise ValueError(f"at least one level is needed, got {max_refinements!r} refinements")
    results: List[QuadratureResult] = [None] * count
    active = list(range(count))
    for level in range(max_refinements + 1):
        if not active:
            break
        for k, total in zip(active, level_sums(level, active)):
            prev = results[k]
            delta = math.inf if prev is None else abs(total - prev.value) / max(abs(total), 1e-300)
            results[k] = QuadratureResult(total, level + 1, delta, delta <= rel_tol)
        active = [k for k in active if not results[k].converged]
    return results


# A triangle is closed for an integral once its four children moved the
# parent's value by at most this share of rel_tol * |total|, in proportion
# to its area.
CLOSE_SHARE = 0.1


def triangle_batch(values: Callable[[np.ndarray, np.ndarray, List[int]], Iterable[np.ndarray]],
                   count: int, verts: Triangle, base_rule: int = 64, max_refinements: int = 6,
                   rel_tol: float = 1e-6) -> List[QuadratureResult]:
    """Integrate count integrands over a triangle on shared nodes, refining
    each one's open triangles until its successive totals agree within
    rel_tol (relative).  At level L, a parent whose four children moved its
    value by at most CLOSE_SHARE * rel_tol * |total| * 4^(1-L) is closed for
    that integral: the children's sums stay in its total and only the other
    children are subdivided.  values(x, y, ks) yields the integrands ks
    still open on one triangle at its nodes, in order, so work they share is
    done once per triangle."""
    frozen: List[List[float]] = [[] for _ in range(count)]  # sums of closed triangles
    # open triangles, each with its open integrals' sums on it (none at the root)
    cells = [(tuple((float(px), float(py)) for px, py in verts), dict.fromkeys(range(count)))]

    def level_sums(level: int, active: List[int]) -> List[float]:
        nonlocal cells
        live, parts, families = set(active), {k: list(frozen[k]) for k in active}, []
        for tri, parent in cells:
            ks = [k for k in parent if k in live]
            if not ks:
                continue
            kids = []
            for child in subdivide_triangle(tri) if level else [tri]:
                x, y, w = triangle_rule(child, base_rule)
                # the n*n shape fixes np.sum's pairwise tree; fsum across triangles
                sums = {k: float(np.sum(w * np.asarray(v, dtype=np.float64)))
                        for k, v in zip(ks, values(x, y, ks))}
                for k, part in sums.items():
                    parts[k].append(part)
                kids.append((child, sums))
            families.append((parent, ks, kids))
        totals = {k: math.fsum(parts[k]) for k in active}
        share, cells = CLOSE_SHARE * rel_tol * 0.25 ** (level - 1), []
        for parent, ks, kids in families:
            shut = {k for k in ks if level and abs(math.fsum(sums[k] for _, sums in kids)
                                                   - parent[k]) <= share * abs(totals[k])}
            for k in shut:
                frozen[k].extend(sums[k] for _, sums in kids)
            cells += [(child, {k: sums[k] for k in ks if k not in shut}) for child, sums in kids]
        return [totals[k] for k in active]

    return _refine(level_sums, count, max_refinements, rel_tol)


def adaptive_triangle(f: Callable[[np.ndarray, np.ndarray], np.ndarray], verts: Triangle,
                      base_rule: int = 64, max_refinements: int = 6,
                      rel_tol: float = 1e-6) -> QuadratureResult:
    """Integrate f over a triangle: :func:`triangle_batch` of one."""
    return triangle_batch(lambda x, y, _: (f(x, y),), 1, verts, base_rule,
                          max_refinements, rel_tol)[0]


# Nodes per block of an r-grid (lpnorms._rgrid_sums) and of the reference
# trapezoid sum.  Blocks depend only on the grid length, so the partial-sum
# structure (and hence the rounded total) is identical no matter who calls,
# and peak memory is a few arrays of this many nodes.
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
        lambda level, _: [_trapezoid_sum(f, period, n0 << level)], 1, max_doublings, rel_tol
    )[0]
