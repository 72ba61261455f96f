"""Pointwise envelope bounds for characters and the empirical-constant sweep.

The central object is the six-term envelope

    envelope_min(mu, H) = sum over s in W of
        prod over the three extended roots alpha of
            min( |<s(mu+rho), alpha>| , wall_norm(H, alpha)^{-1} )

which dominates |chi(mu, H)| up to a universal constant.  ``sweep_constant``
hunts for the worst ratio |chi| / envelope over mu ranges and stratified
alcove grids (interior, exact wall hits, corner approaches) and reports the
empirical constant together with shell tables for growth analysis.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .cartan import (
    EXTENDED_ROOTS,
    DominantWeight,
    TorusPoint,
    WEYL_GROUP,
    dim,
    mu_stats,
    wall_norm,
)
from .character import GRID_METHOD_NAMES, chi_on_grid, chi_rank1, chi_stable, _rank1_array

__all__ = [
    "EnvelopeValue",
    "RatioRecord",
    "PointwiseBound",
    "GridSpec",
    "SweepReport",
    "envelope_min",
    "c_of_H",
    "pointwise_singular_bound",
    "ratio",
    "rank1_bound_margin",
    "build_grid",
    "default_mu_set",
    "sweep_constant",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EnvelopeValue:
    """min-form and product-form envelopes plus the six Weyl-term breakdown.

    product_form replaces each factor min(x, 1/y) by x/(1 + x*y); every
    factor obeys min(x,1/y)/2 <= x/(1+x*y) <= min(x,1/y), so the two forms
    agree within a factor of 8 termwise.
    """

    min_form: float
    product_form: float
    per_weyl_terms: Tuple[float, float, float, float, float, float]


def _abs_pairings(ell, alpha) -> int:
    return abs(ell[alpha.j - 1] - ell[alpha.k - 1])


def envelope_min(mu: DominantWeight, H: TorusPoint) -> EnvelopeValue:
    lam = mu.shifted()
    walls = {alpha: wall_norm(H, alpha) for alpha in EXTENDED_ROOTS}
    terms = []
    prods = []
    for s in WEYL_GROUP:
        ell = s.apply(lam.ell)
        t = 1.0
        p = 1.0
        for alpha in EXTENDED_ROOTS:
            x = float(_abs_pairings(ell, alpha))
            y = walls[alpha]
            t *= x if y < 1e-300 else min(x, 1.0 / y)
            p *= x / (1.0 + x * y)
        terms.append(t)
        prods.append(p)
    return EnvelopeValue(
        min_form=math.fsum(terms),
        product_form=math.fsum(prods),
        per_weyl_terms=tuple(terms),
    )


def _envelope_min_grid(mu: DominantWeight, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """min_form over flat alcove-coordinate arrays (same wall conventions
    as chi_on_grid: wall pairings are t1+t2, t1, t2)."""
    lam = mu.shifted()
    walls = {
        EXTENDED_ROOTS[0]: np.abs(np.sin(0.5 * (t1 + t2))),
        EXTENDED_ROOTS[1]: np.abs(np.sin(0.5 * t1)),
        EXTENDED_ROOTS[2]: np.abs(np.sin(0.5 * t2)),
    }
    total = np.zeros(t1.shape, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        inv = {a: np.where(w > 0.0, 1.0 / np.where(w > 0.0, w, 1.0), np.inf)
               for a, w in walls.items()}
        for s in WEYL_GROUP:
            ell = s.apply(lam.ell)
            term = np.ones(t1.shape, dtype=np.float64)
            for alpha in EXTENDED_ROOTS:
                x = float(_abs_pairings(ell, alpha))
                term *= np.minimum(x, inv[alpha])
            total += term
    return total


def c_of_H(H: TorusPoint) -> float:
    """Product of the two largest wall distances; vanishes iff H is central."""
    w = sorted(H.wall_norms(), reverse=True)
    return w[0] * w[1]


@dataclass(frozen=True)
class PointwiseBound:
    """Singular-locus bound dim/(c*mu_bar*mu_min) and the older dim^{1/2}/c."""

    value: float
    legacy_value: float


def pointwise_singular_bound(mu: DominantWeight, H: TorusPoint) -> PointwiseBound:
    c = c_of_H(H)
    if c == 0.0:
        raise ValueError("H is central (two walls vanish); the bound degenerates")
    d = dim(mu)
    st = mu_stats(mu)
    return PointwiseBound(
        value=d / (c * st.mu_bar * st.mu_min),
        legacy_value=math.sqrt(d) / c,
    )


@dataclass(frozen=True)
class RatioRecord:
    """One |chi|/envelope sample; field order matches the CSV schema."""

    mu_a: int
    mu_b: int
    t1: float
    t2: float
    abs_chi: float
    envelope: float
    ratio: float
    method: str


def ratio(mu: DominantWeight, H: TorusPoint) -> RatioRecord:
    cv = chi_stable(mu, H)
    env = envelope_min(mu, H)
    t1, t2 = H.alcove_coords
    a = abs(cv.value)
    return RatioRecord(
        mu_a=mu.a,
        mu_b=mu.b,
        t1=t1,
        t2=t2,
        abs_chi=a,
        envelope=env.min_form,
        ratio=a / env.min_form,
        method=cv.method,
    )


def rank1_bound_margin(n: int, theta):
    """min(n+1, 1/|sin theta|) - |sin((n+1)theta)/sin(theta)|; >= 0 in exact math.

    Accepts a scalar angle or an ndarray.  n is the su(2) highest weight, so
    the character in question has n+1 terms.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    m = n + 1
    if np.ndim(theta) == 0:
        s = abs(math.sin(theta))
        bound = float(m) if s == 0.0 else min(float(m), 1.0 / s)
        return bound - abs(chi_rank1(m, float(theta)))
    theta = np.asarray(theta, dtype=np.float64)
    s = np.abs(np.sin(theta))
    with np.errstate(divide="ignore"):
        bound = np.minimum(float(m), np.where(s > 0.0, 1.0 / np.where(s > 0.0, s, 1.0), np.inf))
    return bound - np.abs(_rank1_array(m, theta))


# ---------------------------------------------------------------------------
# stratified alcove grids and the constant sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Stratified alcove grid; interior count is total minus the strata."""

    total: int = 10_000
    wall_points_per_edge: int = 500   # exact t1=0 / t2=0 hits + far edge
    chamber_wall_points: int = 500    # theta = (x,-2x,x): <alpha0,H> == 0.0
    corner_scales: int = 8            # approach distances 2pi*10^{-k}
    corner_rays: int = 5
    edge_margin: float = 0.05

    def interior_points(self) -> int:
        n = (
            self.total
            - 3 * self.wall_points_per_edge
            - self.chamber_wall_points
            - 3 * self.corner_scales * self.corner_rays
            - 3  # exact corners
        )
        if n < 0:
            raise ValueError("GridSpec.total too small for the requested strata")
        return n


@dataclass(frozen=True)
class GridPoints:
    t1: np.ndarray
    t2: np.ndarray
    stratum: Tuple[str, ...]  # parallel labels, one per point


def build_grid(spec: GridSpec, seed: int) -> GridPoints:
    rng = np.random.default_rng(seed)
    t1_parts: List[np.ndarray] = []
    t2_parts: List[np.ndarray] = []
    labels: List[str] = []

    def add(t1a, t2a, label):
        t1_parts.append(np.asarray(t1a, dtype=np.float64))
        t2_parts.append(np.asarray(t2a, dtype=np.float64))
        labels.extend([label] * len(t1_parts[-1]))

    # exact corners (H = 0 and the two central corners)
    add([0.0, TWO_PI, 0.0], [0.0, 0.0, TWO_PI], "corner_exact")

    # corner approaches along interior rays at geometric distances
    corners = np.array([[0.0, 0.0], [TWO_PI, 0.0], [0.0, TWO_PI]])
    others = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
    fracs = np.linspace(0.15, 0.85, spec.corner_rays)
    for ci in range(3):
        c = corners[ci]
        a = corners[others[ci][0]] - c
        b = corners[others[ci][1]] - c
        for k in range(1, spec.corner_scales + 1):
            r = 10.0 ** (-k)
            for f in fracs:
                d = f * a + (1.0 - f) * b
                p = c + r * d / np.linalg.norm(d) * TWO_PI / 4.0
                add([p[0]], [p[1]], "corner_ray")

    # exact simple-root wall hits: t1 == 0.0 and t2 == 0.0 in floating point
    n = spec.wall_points_per_edge
    span = np.linspace(spec.edge_margin, TWO_PI - spec.edge_margin, n)
    add(np.zeros(n), span, "wall_t1")
    add(span, np.zeros(n), "wall_t2")
    # far edge t1 + t2 = 2pi (affine alpha0 wall, hit to rounding)
    add(span, TWO_PI - span, "wall_far")

    # chamber wall <alpha0, H> = 0 exactly: theta = (x, -2x, x), t = (3x, -3x)
    xs = []
    while len(xs) < spec.chamber_wall_points:
        x = rng.uniform(0.05, 2.0)
        if abs(math.sin(1.5 * x)) > 0.05:  # keep the other two walls honest
            xs.append(x)
    xs = np.array(xs)
    add(3.0 * xs, -3.0 * xs, "chamber_alpha0")

    # interior: uniform on the open alcove triangle
    ni = spec.interior_points()
    u = rng.uniform(0.0, 1.0, ni)
    v = rng.uniform(0.0, 1.0, ni)
    flip = u + v > 1.0
    u[flip], v[flip] = 1.0 - u[flip], 1.0 - v[flip]
    add(TWO_PI * u, TWO_PI * v, "interior")

    return GridPoints(
        t1=np.concatenate(t1_parts),
        t2=np.concatenate(t2_parts),
        stratum=tuple(labels),
    )


def default_mu_set(dense_shell_max: int = 20, shell_max: int = 40) -> List[DominantWeight]:
    """All (a,b) with a+b <= dense_shell_max; above that, ~6 per shell."""
    mus: List[DominantWeight] = []
    for s in range(0, shell_max + 1):
        if s <= dense_shell_max:
            a_values = range(0, s + 1)
        else:
            step = max(1, math.ceil(s / 5))
            a_values = sorted(set(list(range(0, s + 1, step)) + [s]))
        for a in a_values:
            mus.append(DominantWeight(a, s - a))
    return mus


@dataclass(frozen=True)
class SweepReport:
    c_emp: float
    argmax: RatioRecord
    shells: Tuple[dict, ...]          # one row per a+b shell
    per_mu: Tuple[RatioRecord, ...]   # argmax record per mu
    mu_count: int
    grid_total: int
    seed: int
    ratio_at_zero_exact: bool         # every mu: ratio(mu, 0) == 1/12
    finite_ok: bool
    convention: str = "alpha_sq_2"


def _sweep_one(mu: DominantWeight, grid: GridPoints, zero_index: int):
    vals, methods = chi_on_grid(mu, grid.t1, grid.t2)
    env = _envelope_min_grid(mu, grid.t1, grid.t2)
    absv = np.abs(vals)
    ratios = absv / env
    i = int(np.argmax(ratios))
    rec = RatioRecord(
        mu_a=mu.a,
        mu_b=mu.b,
        t1=float(grid.t1[i]),
        t2=float(grid.t2[i]),
        abs_chi=float(absv[i]),
        envelope=float(env[i]),
        ratio=float(ratios[i]),
        method=GRID_METHOD_NAMES[methods[i]],
    )
    zero_exact = ratios[zero_index] == 1.0 / 12.0
    return rec, bool(zero_exact), bool(np.isfinite(ratios).all())


def sweep_constant(
    mu_range: Iterable,
    grid_spec: Optional[GridSpec] = None,
    seed: int = 2718,
    threads: Optional[int] = None,
) -> SweepReport:
    """Max |chi|/envelope over a mu set x stratified alcove grid.

    Deterministic for fixed (mu_range, grid_spec, seed): the reduction is a
    strict-max scan in (mu, grid index) order, so ties resolve to the
    lexicographically first record regardless of thread count.
    """
    if threads is None:
        raw = os.environ.get("SU3CHAR_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(f"SU3CHAR_THREADS must be an integer, got {raw!r}") from None
    spec = grid_spec or GridSpec()
    mus = [m if isinstance(m, DominantWeight) else DominantWeight(*m) for m in mu_range]
    grid = build_grid(spec, seed)
    # index of the exact H = 0 corner (first point by construction)
    zero_index = 0
    assert grid.t1[zero_index] == 0.0 and grid.t2[zero_index] == 0.0

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(lambda m: _sweep_one(m, grid, zero_index), mus))
    else:
        results = [_sweep_one(m, grid, zero_index) for m in mus]

    per_mu = tuple(r[0] for r in results)
    zero_ok = all(r[1] for r in results)
    finite_ok = all(r[2] for r in results)

    best = per_mu[0]
    for rec in per_mu[1:]:
        if rec.ratio > best.ratio:
            best = rec

    shell_best: dict = {}
    for rec in per_mu:
        s = rec.mu_a + rec.mu_b
        cur = shell_best.get(s)
        if cur is None or rec.ratio > cur.ratio:
            shell_best[s] = rec
    shells = tuple(
        {
            "shell": s,
            "max_ratio": shell_best[s].ratio,
            "mu_a": shell_best[s].mu_a,
            "mu_b": shell_best[s].mu_b,
            "t1": shell_best[s].t1,
            "t2": shell_best[s].t2,
            "method": shell_best[s].method,
        }
        for s in sorted(shell_best)
    )
    return SweepReport(
        c_emp=best.ratio,
        argmax=best,
        shells=shells,
        per_mu=per_mu,
        mu_count=len(mus),
        grid_total=len(grid.stratum),
        seed=seed,
        ratio_at_zero_exact=zero_ok,
        finite_ok=finite_ok,
    )
