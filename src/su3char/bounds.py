"""Pointwise envelope bounds for characters and the empirical-constant sweep.

The central object is the six-term envelope

    envelope_min(mu, H) = sum over s in W of
        prod over the three extended roots alpha of
            min( |<s(mu+rho), alpha>| , |sin(<alpha, H>/2)|^{-1} )

which dominates |chi(mu, H)| up to a universal constant.  Which pairing
|<s(mu+rho), alpha>| each factor takes is one table, ``_ENVELOPE_KINDS``
(read off cartan's ``WEYL_TABLE``), shared by the scalar ``envelope_min``
and the grid envelope of the sweep.  ``sweep_constant``
hunts for the worst ratio |chi| / envelope over mu ranges and stratified
alcove grids (interior, exact wall hits, corner approaches) and reports the
empirical constant together with shell tables for growth analysis.

The sweep loops over blocks of SWEEP_BLOCK grid points, sorted stably by
route, on the outside and over chunks of CHUNK_WEIGHTS weights, in order of
Weyl degree a+2b+3, on the inside: each block builds the character module's
mu-independent grid geometry (wall sines, routes, rank-one and phase rows)
and the envelope's inverse walls once, and each route and the envelope run
once per chunk on a [weights x points] tile.  A weight's values do not
depend on its chunk.
Threads map over blocks; per-weight maxima merge on (ratio, grid index),
the lower index first on a tie.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .cartan import (
    EXTENDED_ROOTS,
    WEYL_TABLE,
    DominantWeight,
    TorusPoint,
    dim,
    mu_stats,
)
from .character import (
    GRID_METHOD_NAMES,
    _GridChunk,
    _GridGeometry,
    _Rank1Rows,
    chi_stable,
    require_within_budget,
)

__all__ = [
    "GridSpec",
    "envelope_min",
    "c_of_H",
    "pointwise_singular_bound",
    "ratio",
    "rank1_bound_margin",
    "build_grid",
    "sweep_constant",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EnvelopeValue:
    """The envelope at one point, in its min form."""

    min_form: float


# Per Weyl image s and extended root (= wall): which of the pairings
# (l1-l2, l1-l3, l2-l3) = (a+1, a+b+2, b+1) is |<s.lambda, alpha>|; the
# same for every mu, as l1 > l2 > l3.  Both envelopes read it.
_ENVELOPE_KINDS = tuple(
    tuple(p[alpha.j - 1] + p[alpha.k - 1] - 1 for alpha in EXTENDED_ROOTS)
    for _, p in WEYL_TABLE
)


def envelope_min(mu: DominantWeight, H: TorusPoint) -> EnvelopeValue:
    """The module docstring's sum at one point.  Its nine factors
    min(x, 1/wall) are computed once; each Weyl term multiplies its three
    in wall order, picked by _ENVELOPE_KINDS as in the grid envelope."""
    pairings = (float(mu.a + 1), float(mu.a + mu.b + 2), float(mu.b + 1))
    walls = H.wall_norms()  # in EXTENDED_ROOTS order
    f = [[x if y < 1e-300 else min(x, 1.0 / y) for x in pairings] for y in walls]
    terms = (f[0][q0] * f[1][q1] * f[2][q2] for q0, q1, q2 in _ENVELOPE_KINDS)
    return EnvelopeValue(min_form=math.fsum(terms))


def _reciprocal(x: np.ndarray) -> np.ndarray:
    """1/x elementwise for x >= 0; +inf at 0."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(x > 0.0, 1.0 / np.where(x > 0.0, x, 1.0), np.inf)


def _envelope_tile(inv: np.ndarray, chunk: _GridChunk) -> np.ndarray:
    """min_form for every weight of the chunk, [weights x points], at the
    points whose inverse walls are inv ([wall x point], see _reciprocal).
    The nine factors min(x, 1/wall), x in the pairings (l1-l2, l1, l2) =
    (a+1, a+b+2, b+1) of chunk.lam, are computed once per weight; each Weyl
    term picks its three by _ENVELOPE_KINDS, as envelope_min does, and the
    products and the sum over terms keep envelope_min's order."""
    pairings = np.array(list(zip(*((l1 - l2, l1, l2) for l1, l2, _ in chunk.lam.tolist()))),
                        dtype=np.float64)
    # f[wall, pairing, weight, point]: each factor a contiguous [weight x point] tile
    f = np.minimum(pairings[None, :, :, None], inv[:, None, None, :])
    total = np.zeros(f[0, 0].shape, dtype=np.float64)
    tmp = np.empty_like(total)
    for q0, q1, q2 in _ENVELOPE_KINDS:
        np.multiply(f[0, q0], f[1, q1], out=tmp)
        tmp *= f[2, q2]
        total += tmp
    return total


def _envelope_min_grid(mu: DominantWeight, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """min_form over flat alcove-coordinate arrays (same wall conventions
    as chi_on_grid: wall pairings are t1+t2, t1, t2)."""
    return _envelope_tile(_reciprocal(_GridGeometry(t1, t2).walls), _GridChunk([mu]))[0]


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


def _rank1_margins(t: np.ndarray, ns: Iterable[int]) -> Iterator[np.ndarray]:
    """rank1_bound_margin(n, t) for each n of ns in turn, from one sin t and
    one :class:`_Rank1Rows`, whose rows are not kept past their n."""
    sin_t = np.sin(t)
    inv = _reciprocal(np.abs(sin_t))
    rows = _Rank1Rows(t, sin_t)
    return (np.minimum(float(n + 1), inv) - np.abs(rows.row(n + 1)) for n in ns)


def rank1_bound_margin(n: int, theta):
    """min(n+1, 1/|sin theta|) - |sin((n+1)theta)/sin(theta)|; >= 0 in exact math.

    Accepts a scalar angle (returns a float) or an ndarray.  n is the su(2)
    highest weight, so the character in question has n+1 terms.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    margin = next(_rank1_margins(np.atleast_1d(np.asarray(theta, dtype=np.float64)), (n,)))
    return float(margin[0]) if np.ndim(theta) == 0 else margin


def rank1_margin_min(n_max: int, theta: np.ndarray) -> Tuple[float, int, float]:
    """(min, argmin n, argmin theta) of rank1_bound_margin(n, theta) over
    n = 0..n_max, the first in (n, angle) order, in O(len(theta)) memory."""
    t = np.asarray(theta, dtype=np.float64)
    best = (math.inf, -1, math.nan)
    for n, margins in enumerate(_rank1_margins(t, range(n_max + 1))):
        i = int(np.argmin(margins))
        if margins[i] < best[0]:
            best = (float(margins[i]), n, float(t[i]))
    return best


# ---------------------------------------------------------------------------
# stratified alcove grids and the constant sweep
# ---------------------------------------------------------------------------

# Distance of the wall strata from the alcove corners, in t units.
EDGE_MARGIN = 0.05


@dataclass(frozen=True)
class GridSpec:
    """Stratified alcove grid; interior count is total minus the strata."""

    total: int = 10_000
    wall_points_per_edge: int = 500   # exact t1=0 / t2=0 hits + far edge
    chamber_wall_points: int = 500    # theta = (x,-2x,x): <alpha0,H> == 0.0
    corner_scales: int = 8            # approach distances 2pi*10^{-k}
    corner_rays: int = 5

    def __post_init__(self):
        for name in ("wall_points_per_edge", "chamber_wall_points", "corner_scales", "corner_rays"):
            if getattr(self, name) < 0:
                raise ValueError(f"GridSpec.{name} must be >= 0, got {getattr(self, name)}")

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
    ni = spec.interior_points()  # strata larger than the total fail before allocating
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
    span = np.linspace(EDGE_MARGIN, TWO_PI - EDGE_MARGIN, n)
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


def mu_shells(dense_shell_max: int = 20, shell_max: int = 40):
    """All (a,b) with a+b <= dense_shell_max; above that, ~6 per shell."""
    for s in range(0, shell_max + 1):
        if s <= dense_shell_max:
            a_values = range(0, s + 1)
        else:
            step = max(1, math.ceil(s / 5))
            a_values = sorted(set(list(range(0, s + 1, step)) + [s]))
        for a in a_values:
            yield DominantWeight(a, s - a)


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


# Points per block of the sweep grid.  Everything that depends only on the
# points (wall sines, routes, rank-one and phase rows, inverse walls) is
# built once per block and shared by every weight.
SWEEP_BLOCK = 1024

# Most workers of a sweep or an L^p level.
MAX_THREADS = 64

# Most weights per sweep.  A sweep holds about 7 kB a weight: tracemalloc
# peaks of 4.2 MB at the 351 default weights, 29 MB at 3 711 (default grid).
MAX_WEIGHTS = 1 << 12

# Entries (weights x points) per tile of the sweep: the weights are evaluated
# in chunks of CHUNK_WEIGHTS, each route once per chunk on a [weights x points]
# tile.  Memory, not time, sets the size.
SWEEP_TILE = 1 << 13
CHUNK_WEIGHTS = SWEEP_TILE // SWEEP_BLOCK


def _chunks(mus: List[DominantWeight]):
    """(positions in mus, _GridChunk) per chunk: the weights ordered by Weyl
    degree a+2b+3 and cut into CHUNK_WEIGHTS, so that weights of one degree
    share their common phase."""
    order = sorted(range(len(mus)), key=lambda p: mus[p].a + 2 * mus[p].b)
    cuts = [order[lo:lo + CHUNK_WEIGHTS] for lo in range(0, len(order), CHUNK_WEIGHTS)]
    return [(pos, _GridChunk([mus[p] for p in pos])) for pos in cuts]


def _sweep_block(grid: GridPoints, idx: np.ndarray, chunks, count: int):
    """For each of the count weights: the (ratio, grid index, |chi|,
    envelope, method code) of the largest ratio at the grid points idx (in
    grid order), and the ratio at the first of them."""
    geom = _GridGeometry(grid.t1[idx], grid.t2[idx])
    methods, inv = geom.methods, _reciprocal(geom.walls)
    best = [None] * count
    first = [None] * count
    for pos, chunk in chunks:
        absv = np.abs(geom.chi(chunk))
        env = _envelope_tile(inv, chunk)
        ratios = absv / env
        top = np.argmax(ratios, axis=1)  # per row: the first NaN if any, else the first maximum
        for w, (p, i) in enumerate(zip(pos, top.tolist())):
            best[p] = (float(ratios[w, i]), int(idx[i]), float(absv[w, i]), float(env[w, i]),
                       int(methods[i]))
            first[p] = float(ratios[w, 0])
    return best, first


def _argmax_key(record) -> tuple:
    """np.argmax's order on (ratio, grid index, ...) records as a key: a NaN
    first, then the larger ratio, then the lower index."""
    r, i = record[:2]
    return (r != r, 0.0 if r != r else r, -i)


def _merge_blocks(blocks, results):
    """Per weight, the larger record on _argmax_key over the block results,
    merged as they arrive, and the ratios at grid point 0 from its block."""
    top = first = None
    for blk, (best, block_first) in zip(blocks, results):
        top = best if top is None else [max(r, s, key=_argmax_key) for r, s in zip(top, best)]
        first = block_first if blk[0] == 0 else first
    return top, first


def thread_count() -> int:
    """SU3CHAR_THREADS, else 1; ValueError unless an integer in 1..MAX_THREADS."""
    raw = os.environ.get("SU3CHAR_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ValueError(f"SU3CHAR_THREADS must be an integer, got {raw!r}") from None
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"SU3CHAR_THREADS must be between 1 and {MAX_THREADS}, got {threads}")
    return threads


def thread_map(fn, items, workers: int) -> Iterator:
    """fn(x) for x in items, in order, as the caller reads them: in the
    calling thread for one worker (no pool), else on ``workers`` threads."""
    if workers == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as ex:
        yield from ex.map(fn, items)


def sweep_constant(
    mu_range: Iterable,
    grid_spec: Optional[GridSpec] = None,
    seed: int = 2718,
) -> SweepReport:
    """Max |chi|/envelope over a mu set x stratified alcove grid.

    (a,b) and its dual (b,a) share one record, swept once as (max(a,b),
    min(a,b)): |chi| and the envelope agree (see _GridChunk).
    The grid points are sorted stably by route and cut into blocks of
    SWEEP_BLOCK points, each in grid order; each block builds its
    mu-independent geometry once and evaluates the weights on it in chunks
    (see the module docstring), and the per-chunk constants are built once.
    SU3CHAR_THREADS workers map over blocks (:func:`thread_map`).  Every
    value is computed from its point and weight alone, and each weight's
    maximum is taken over the blocks on (ratio, grid index) in np.argmax's
    order, so ties resolve to the first grid index, the report does not
    depend on the thread count, and a weight's record does not depend on
    the other weights swept with it.
    Refuses (ResourceLimitError), as mu_range is read, past MAX_WEIGHTS
    weights, CHUNK_WEIGHTS x (a+b+1) or grid points above SCHUR_DIM_LIMIT.
    """
    threads = thread_count()
    spec = grid_spec or GridSpec()
    require_within_budget(spec.total, "grid total", "point")
    mus, slot, duals = [], {}, []  # slot: the distinct (max(a,b), min(a,b)), in order
    for m in mu_range:  # checked as read, so a list past the budget is never built
        mus.append(mu := DominantWeight.of(m))
        duals.append(slot.setdefault(DominantWeight(max(mu.a, mu.b), min(mu.a, mu.b)), len(slot)))
        require_within_budget(len(mus), "weights", "sweep's weight", MAX_WEIGHTS)
        require_within_budget(CHUNK_WEIGHTS * (mu.a + mu.b + 1),
                              f"{CHUNK_WEIGHTS} x (a+b+1) at ({mu.a},{mu.b})", "multi-wall tables")
    if not mus:
        raise ValueError("sweep_constant needs at least one weight")
    grid = build_grid(spec, seed)
    # the exact H = 0 corner is the first point by construction, so it is
    # the first point of its block
    assert grid.t1[0] == 0.0 and grid.t2[0] == 0.0

    chunks = _chunks(list(slot))
    order = np.argsort(_GridGeometry(grid.t1, grid.t2).methods, kind="stable")
    blocks = [np.sort(order[lo:lo + SWEEP_BLOCK]) for lo in range(0, order.size, SWEEP_BLOCK)]

    def run(blk: np.ndarray):
        return _sweep_block(grid, blk, chunks, len(slot))

    top, first = _merge_blocks(blocks, thread_map(run, blocks, threads))

    per_mu = tuple(
        RatioRecord(mu_a=mu.a, mu_b=mu.b, t1=float(grid.t1[i]), t2=float(grid.t2[i]),
                    abs_chi=absv, envelope=env, ratio=r, method=GRID_METHOD_NAMES[method])
        for mu, (r, i, absv, env, method) in zip(mus, (top[d] for d in duals))
    )
    zero_ok = all(r == 1.0 / 12.0 for r in first)
    # a NaN or inf anywhere in a weight's ratios is that weight's maximum
    finite_ok = all(math.isfinite(rec.ratio) for rec in per_mu)

    best = max(per_mu, key=lambda rec: rec.ratio)  # the first of equal maxima

    shell_best: dict = {}
    for rec in per_mu:
        cur = shell_best.get(rec.mu_a + rec.mu_b)
        if cur is None or rec.ratio > cur.ratio:
            shell_best[rec.mu_a + rec.mu_b] = rec
    shells = tuple(
        {"shell": s, "max_ratio": rec.ratio, "mu_a": rec.mu_a, "mu_b": rec.mu_b,
         "t1": rec.t1, "t2": rec.t2, "method": rec.method}
        for s, rec in sorted(shell_best.items())
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
