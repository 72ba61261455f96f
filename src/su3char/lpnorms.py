"""Lp norms of characters against normalized Haar measure, plus the
predicted-bound formulas they are checked against.

The torus reduction: ||chi_mu||_p^p is proportional to

    N_p = int_A |chi(mu, H)|^p * w(H) dH,   w = prod_{alpha} |sin(<alpha, H>/2)|^2,

over the alcove A = {t1, t2 >= 0, t1 + t2 <= 2pi}.  We self-normalize by
Z = int_A w so that ||chi_(0,0)||_p = 1 identically and no Haar-measure
constant enters.  The integrand is 2pi-periodic in (t1, t2) -- shifting
either coordinate by 2pi multiplies the matrix by a central element, which
leaves |chi| and w unchanged -- and A carries exactly half of the period
square's integral (the complement triangle maps onto A by
(t1,t2) -> (2pi-t2, 2pi-t1), a symmetry of |chi|*w).  The default
quadrature therefore runs an equal-weight trapezoid rule on the period
square, where it is *exact* for even p once the grid outruns the
integrand's bandwidth.

The periodic-square rule needs no character evaluator.  By the Weyl
character formula chi_mu is a trigonometric polynomial with nonnegative
integer coefficients, the weight multiplicities M[w1, w3]
(:func:`multiplicities`, exact in int64): up to a unit-modulus phase,
chi = sum M[w1, w3] exp(i(w1 t1 - w3 t2)).  Level k's grid, n = K n0 nodes
per axis with K = 2^k and n0 5-smooth, is the union of K^2 shifted n0-grids
t = 2pi (K q + r)/n, the "r-grids" (decimation in frequency).  On one,
chi is an n0 x n0 2-D DFT of M times the phases exp(2pi i (w1 r1 - w3 r2)/n),
folded modulo n0, and (|chi|/dim)^p * w and Z are summed over blocks of at
most ``BLOCK_NODES`` nodes.  W x {+-1} maps r-grids onto r-grids without
changing the integrand, so a level is a sum over the orbits of residues r
of |orbit| times one r-grid's sums; the even residues are the previous
level's grids, so each level computes only its new orbits (1, 1, 2, 6, 20,
72 r-grids for K = 1..32) on up to SU3CHAR_THREADS workers
(:func:`thread_map`), reading one table of wall factors.  Memory is fixed
by n0 and the workers whatever the level, and scaling by dim keeps every
power <= 1, so no finite p overflows; every entry point refuses p outside
0 < p < inf.

A Duffy-mapped triangle rule over A, which evaluates chi node by node
through ``chi_on_grid``, is kept as the independent cross-check mapping.

Also here: the seven-case predicted Lp bounds driven by (mu_bar, mu_min),
the model integral I(p; a~, b~, c~) over the shrunken simplex A0 with its
seven-case majorant, and log-log slope fits recovering the predicted
exponents on weight families.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import thread_count, thread_map
from .cartan import DominantWeight, dim, mu_stats
from .character import SCHUR_DIM_LIMIT, chi_on_grid, multiplicities, require_within_budget
from .quadrature import (
    BLOCK_NODES,
    ConvergenceError,
    QuadratureResult,
    _refine,
    triangle_batch,
)

__all__ = [
    "QuadratureSpec",
    "haar_lp_norm",
    "predicted_singular_bound",
    "predicted_regular_bound",
    "predicted_dimension_bound",
    "I_numeric",
    "I_numeric_table",
    "I_bound",
    "scaling_fit",
    "family_weight",
]

TWO_PI = 2.0 * math.pi
A0_SIDE = 4.0 * math.pi / 3.0
_BREAKS = (8.0 / 3.0, 3.0, 5.0)  # where the L^p bounds change form
_P_TOL = 1e-9  # width of the exact-exponent boundary cases p = 8/3, 3, 5

_MAPPINGS = ("periodic_square", "duffy")
MAX_BASE_RULE = 512  # leggauss(n) builds an n x n companion matrix
MAX_REFINEMENTS = 8  # 4^k triangles on the Duffy path, 4^k residues on the period square
# Most integrals of one model-integral table: about 1.0 kB each at the default
# spec (tracemalloc, prop-i at pools of 10 and 20 values), so about 100 MB
MAX_INTEGRALS = 10**5


@dataclass(frozen=True)
class QuadratureSpec:
    base_rule: int = 64
    max_refinements: int = 6
    rel_tol: float = 1e-6
    mapping: str = "periodic_square"

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf):
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol!r}")
        if not 2 <= self.base_rule <= MAX_BASE_RULE:
            raise ValueError(f"base_rule must be in 2..{MAX_BASE_RULE}, got {self.base_rule!r}")
        if not 0 <= self.max_refinements <= MAX_REFINEMENTS:
            raise ValueError(f"max_refinements must be in 0..{MAX_REFINEMENTS}, "
                             f"got {self.max_refinements!r}")
        if self.mapping not in _MAPPINGS:
            raise ValueError(f"mapping must be one of {_MAPPINGS}")


@dataclass(frozen=True)
class LpReport:
    mu_a: int
    mu_b: int
    p: float
    norm: float
    normalizer_z: float
    predicted_singular: float
    predicted_regular: Optional[float]   # None when p < 2
    predicted_dimension: Optional[float]  # None below 8/3 (regime 0)
    levels: int
    last_delta: float
    converged: bool
    applied_rel_tol: float  # what both integrals refined to: rel_tol * min(1, p)

    def require_converged(self, what: str) -> None:
        """ConvergenceError naming ``what`` and its tolerance unless the norm converged."""
        QuadratureResult(self.norm, self.levels, self.last_delta,
                         self.converged).require_converged(what, self.applied_rel_tol)


def _check_p(p: float) -> None:
    """The p domain of every L^p entry point: 0 < p < inf (no NaN)."""
    if not 0.0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p!r}")


def _regime(p: float) -> int:
    """p's case, nondecreasing: 2i below x - _P_TOL, 2i + 1 to x + _P_TOL (x = _BREAKS[i]), 6."""
    for i, x in enumerate(_BREAKS):
        if p < x - _P_TOL:
            return 2 * i
        if p <= x + _P_TOL:
            return 2 * i + 1
    return 6


def _weight(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    s = np.sin(0.5 * t1) * np.sin(0.5 * t2) * np.sin(0.5 * (t1 + t2))
    return s * s


def _norm_integrand(mu: DominantWeight, p: float):
    """(|chi|/dim)^p * w, node by node (the Duffy mapping's integrand); w may
    be passed in when the caller has it."""
    scale = 1.0 / dim(mu)

    def f(t1, t2, w=None):
        w = _weight(t1, t2) if w is None else w
        out = np.zeros(w.shape, dtype=np.float64)
        mask = w > 0.0
        if mask.any():
            vals, _ = chi_on_grid(mu, t1[mask], t2[mask])
            out[mask] = np.abs(vals * scale) ** p * w[mask]
        return out

    return f


def _bandwidth(mu: DominantWeight) -> float:
    """Largest |frequency| of chi_mu in either alcove coordinate."""
    return max(2 * mu.a + mu.b, mu.a + 2 * mu.b) / 3.0


def _fold(m: np.ndarray, n: int) -> np.ndarray:
    """Sum the entries of a square array over indices congruent modulo n."""
    if m.shape[0] <= n:
        return m
    k = -(-m.shape[0] // n) * n
    padded = np.zeros((k, k), dtype=m.dtype)
    padded[:m.shape[0], :m.shape[1]] = m
    return padded.reshape(k // n, n, k // n, n).sum(axis=(0, 2))


@lru_cache(maxsize=None)
def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n (a fast FFT length): the least m 2^i >= n
    over odd parts m = 3^j 5^k."""
    odd = (3 ** j * 5 ** k for j in range(n.bit_length()) for k in range(n.bit_length()))
    return min(m << (-(-n // m) - 1).bit_length() for m in odd)


@lru_cache(maxsize=None)
def _orbits(K: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """The orbits of W x {+-1} on residue pairs (t1, t2) mod K, each sorted,
    in order of representative (its first entry).  W permutes the angle
    triple (t1, t2, -t1 - t2); -1 conjugates."""
    return tuple(sorted({
        tuple(sorted({(s * x % K, s * y % K) for x, y, _ in itertools.permutations((a, b, -a - b))
                      for s in (1, -1)}))
        for a, b in itertools.product(range(K), repeat=2)
    }))


def _sin2(j: np.ndarray, n: int) -> np.ndarray:
    """sin^2(pi j / n), the argument folded to pi*min(j, n-j)/n: near pi its
    rounding, biased by float(pi) - pi, would be a large relative error of
    sin right at the walls where |chi|^p concentrates."""
    j = j % n
    return np.sin(np.pi * np.minimum(j, n - j) / n) ** 2


def _rgrid_sums(md: np.ndarray, p: float, n0: int, K: int, S: np.ndarray,
                r: Tuple[int, int]) -> Tuple[float, float]:
    """(sum (|chi|/d)^p w, sum w) over the r-grid t = 2pi (K q + r)/(K n0),
    from md = M/d and level K's wall table S (see _level_sums)."""
    n, (r1, r2) = K * n0, r
    k = np.arange(len(md))
    # a zero residue's twist, exp(0) = 1+0j, is exact: it is skipped
    x = md * np.exp(2j * np.pi * (k * r1 % n / n))[:, None] if r1 else md
    x = _fold(x * np.exp(-2j * np.pi * (k * r2 % n / n)) if r2 else x, n0)
    # g[q2, w1]; at r = 0, M is real and w even, so columns q2 and n0 - q2
    # agree: only the rfft's columns q2 <= n0/2 are formed, pairs counted once
    real = not (r1 or r2)
    x = np.fft.rfft(x, n=n0, axis=1) if real else np.fft.fft(x, n=n0, axis=1)  # frees the input
    g = np.ascontiguousarray(x.T)  # the second stage held, not the third
    del x
    s1, s2 = S[r1, :n0], S[r2, :len(g)]
    if real:  # twice, but at q2 = 0 and n0/2
        s2 = s2 * np.where(2 * np.arange(len(g)) % n0, 2.0, 1.0)
    # s3 at q1 + q2: a [q2, q1] view of S's float64 row (r1 + r2) % K from (r1 + r2) // K
    c = r1 + r2
    s3 = np.ndarray((len(g), n0), S.dtype, S, 8 * (c % K * 2 * n0 + c // K), (8, 8))
    rows = max(1, BLOCK_NODES // n0)
    nums, dens = [], []
    for lo in range(0, len(g), rows):
        hi = min(lo + rows, len(g))
        # |chi|/d at [q2, q1]; the complex block is freed once abs returns
        v = np.abs(np.fft.ifft(g[lo:hi], n=n0, axis=1, norm="forward"))
        v **= p
        w = s3[lo:hi] * s1
        w *= s2[lo:hi, None]
        v *= w
        # per-block pairwise sums are fixed by n0; fsum across blocks
        nums.append(float(np.sum(v)))
        dens.append(float(np.sum(w)))
        del v, w  # before the next block is allocated
    return math.fsum(nums), math.fsum(dens)


def _level_sums(md: np.ndarray, p: float, n0: int, K: int,
                residues: Sequence[Tuple[int, int]], workers: int) -> List[Tuple[float, float]]:
    """_rgrid_sums at each residue, in order, on ``workers`` threads
    (:func:`thread_map`), all reading S[c, i] = _sin2(K i + c, K n0), i < 2 n0."""
    S = np.empty((K, 2 * n0))
    S[:, :n0] = S[:, n0:] = _sin2(np.arange(K * n0), K * n0).reshape(n0, K).T
    return list(thread_map(partial(_rgrid_sums, md, p, n0, K, S), residues, workers))


def _grid_levels(m: np.ndarray, d: int, p: float, n0: int,
                 threads: int = 1) -> Iterator[Tuple[float, float]]:
    """(h^2 sum (|chi|/d)^p w, h^2 sum w) over the (K n0)-grid for K = 1, 2,
    4, ...: running sums of |orbit| times r-grid sums, adding at each level
    the orbits off the even residues, on up to ``threads`` workers: as many
    as SCHUR_DIM_LIMIT holds of their min(len(m), n0) x n0 stages.  A worker
    peaks at about two stages (an FFT and its transposed copy) or one stage
    and a block: at most about 2 x 10^7 complex entries of stages a level."""
    md, cap = m / d, SCHUR_DIM_LIMIT // (min(len(m), n0) * n0)
    nums, dens = [], []
    K = 1
    while True:
        new = [orbit for orbit in _orbits(K) if K == 1 or orbit[0][0] % 2 or orbit[0][1] % 2]
        level = _level_sums(md, p, n0, K, [o[0] for o in new], min(threads, len(new), cap))
        nums += [len(orbit) * num for orbit, (num, _) in zip(new, level)]
        dens += [len(orbit) * den for orbit, (_, den) in zip(new, level)]
        h2 = (TWO_PI / (K * n0)) ** 2
        yield math.fsum(nums) * h2, math.fsum(dens) * h2
        K *= 2


def _periodic_square(mu: DominantWeight, p: float, spec: QuadratureSpec) -> List[QuadratureResult]:
    """N_p / dim^p and Z on the period square, one batch of two integrals.
    Refuses, before the multiplicities, an r-grid stage of more than SCHUR_DIM_LIMIT
    complex entries (min(a+b+1, n0) x n0) or a bad thread count."""
    # p * bandwidth capped at the budget, which any n0 past it exceeds anyway
    n0 = _fast_len(max(48, math.ceil(min(p * _bandwidth(mu), SCHUR_DIM_LIMIT)) + 8))
    require_within_budget(min(mu.a + mu.b + 1, n0) * n0, f"n0 = {n0}: min(a+b+1, n0) x n0",
                          "r-grid stage", entry_bytes=16)
    levels = _grid_levels(multiplicities(mu), dim(mu), p, n0, thread_count())

    def level_sums(level: int, active: List[int]) -> List[float]:
        sums = next(levels)
        return [sums[k] for k in active]

    return _refine(level_sums, 2, spec.max_refinements, spec.rel_tol)


def haar_lp_norm(mu, p: float, spec: Optional[QuadratureSpec] = None) -> LpReport:
    """||chi_mu||_p and the bounds defined at p.  The norm, (N_p / Z)^(1/p), moves by
    1/p times N_p's relative change: below p = 1 both integrals refine to rel_tol * p."""
    _check_p(p)
    mu = DominantWeight.of(mu)
    spec = spec or QuadratureSpec()
    spec = replace(spec, rel_tol=max(spec.rel_tol * min(1.0, p), math.ulp(0.0)))  # no underflow

    if spec.mapping == "periodic_square":
        num, den = _periodic_square(mu, p, spec)
    else:
        f = _norm_integrand(mu, p)

        def values(t1, t2, active):  # N_p and Z as one batch, w once per triangle
            w = _weight(t1, t2)
            return [w if k else f(t1, t2, w) for k in active]

        alcove = ((0.0, 0.0), (TWO_PI, 0.0), (0.0, TWO_PI))
        num, den = triangle_batch(values, 2, alcove, spec.base_rule,
                                  spec.max_refinements, spec.rel_tol)

    # both integrands carry (|chi|/dim)^p, which is <= 1 for any p
    norm = dim(mu) * (num.value / den.value) ** (1.0 / p)
    return LpReport(
        mu_a=mu.a,
        mu_b=mu.b,
        p=p,
        norm=norm,
        normalizer_z=den.value,
        predicted_singular=predicted_singular_bound(mu, p),
        predicted_regular=predicted_regular_bound(mu, p) if p >= 2.0 else None,
        predicted_dimension=predicted_dimension_bound(mu, p) if _regime(p) else None,
        levels=num.levels,
        last_delta=num.last_delta,
        converged=num.converged and den.converged,
        applied_rel_tol=spec.rel_tol,
    )


# ||chi_mu||_p's majorant in (p, mu_bar, mu_min) per regime; call only the selected case
_SINGULAR = (
    lambda p, ub, lb: 1.0,
    lambda p, ub, lb: math.log(2.0 + lb) ** 0.375,
    lambda p, ub, lb: lb ** (3.0 - 8.0 / p),
    lambda p, ub, lb: lb ** (1.0 / 3.0) * math.log(2.0 + ub / lb) ** (1.0 / 3.0),
    lambda p, ub, lb: ub ** (1.0 - 3.0 / p) * lb ** (2.0 - 5.0 / p),
    lambda p, ub, lb: ub ** 0.4 * lb * math.log(2.0 + ub / lb) ** 0.2,
    lambda p, ub, lb: ub ** (2.0 - 8.0 / p) * lb,
)


def predicted_singular_bound(mu, p: float) -> float:
    """Seven-case majorant of ||chi_mu||_p in (mu_bar, mu_min), natural logs; a log
    factor at each break 8/3, 3 and 5, within 1e-9 (:func:`_regime`)."""
    _check_p(p)
    st = mu_stats(DominantWeight.of(mu))
    return _SINGULAR[_regime(p)](p, float(st.mu_bar), float(st.mu_min))


def predicted_regular_bound(mu, p: float) -> float:
    """Three-case mu_bar-only majorant for p >= 2 (the earlier regular-regime bound):
    the singular bound's cases up to 3 with mu_min = mu_bar, kept past 3."""
    _check_p(p)
    if p < 2.0:
        raise ValueError("the regular-regime bound requires p >= 2")
    ub = float(mu_stats(DominantWeight.of(mu)).mu_bar)
    return _SINGULAR[min(_regime(p), 2)](p, ub, ub)


def predicted_dimension_bound(mu, p: float) -> float:
    """dim(mu)^{1 - 8/(3p)} from the 8/3 break on (about 1 at it); ValueError below."""
    _check_p(p)
    if not _regime(p):
        raise ValueError("the dimension bound requires p > 8/3")
    return float(dim(DominantWeight.of(mu))) ** (1.0 - 8.0 / (3.0 * p))


# ---------------------------------------------------------------------------
# the model integral over A0 and its case bound
# ---------------------------------------------------------------------------

def _model_integrand(p_values: Sequence[float], triples: Sequence[Tuple[float, float, float]]):
    """Batch integrand of :func:`I_numeric_table`: g(x, y) + g(y, x) for
    g = (x y)^2 (x+y)^2 / [(1+a_t x)(1+b_t y)(1+c_t(x+y))]^p, integral k
    taking triples[k // len(p_values)] and p_values[k % len(p_values)].
    Per triangle, (x y)^2 (x+y)^2 is formed once, the two denominators once
    per triple (the three factors multiplied before the one power, with
    1+c_t(x+y) shared), and only the powers per p.  Swapping a_t with b_t
    swaps the two denominators bit for bit; at a_t == b_t they are equal
    bit for bit (IEEE products commute), and one power, doubled, is their
    sum exactly."""
    n_p = len(p_values)

    def values(x, y, active):
        s = x + y
        num = (x * y) ** 2 * s ** 2
        for j, ks in itertools.groupby(active, lambda k: k // n_p):
            a_t, b_t, c_t = triples[j]
            shared = 1.0 + c_t * s
            d1 = (1.0 + a_t * x) * (1.0 + b_t * y) * shared
            d2 = None if a_t == b_t else (1.0 + a_t * y) * (1.0 + b_t * x) * shared
            for k in ks:
                p = p_values[k % n_p]
                yield num * (2.0 * d1 ** -p if d2 is None else d1 ** -p + d2 ** -p)

    return values


def I_numeric_table(p_values: Sequence[float], triples: Sequence[Tuple[float, float, float]],
                    spec: Optional[QuadratureSpec] = None, full: bool = False):
    """I_numeric(p, a_t, b_t, c_t) for every p in p_values and every triple,
    as rows per p.  All integrals run in lockstep on shared triangles (one
    :func:`triangle_batch`), each with its own stop, so every entry is
    bit-identical to its own I_numeric call.  Without ``full``, raises
    ConvergenceError for the first non-converged entry in (p, triple) order.
    Refuses more than MAX_INTEGRALS integrals before any is set up.
    """
    require_within_budget(len(p_values) * len(triples), "p values x triples", "model-integral",
                          MAX_INTEGRALS)
    for p in p_values:
        _check_p(p)
    if any(min(t) <= 0.0 for t in triples):
        raise ValueError("a_t, b_t, c_t must be positive")
    spec = spec or QuadratureSpec()
    lower = ((0.0, 0.0), (A0_SIDE, 0.0), (A0_SIDE / 2.0, A0_SIDE / 2.0))
    flat = triangle_batch(
        _model_integrand(p_values, triples), len(p_values) * len(triples), lower,
        spec.base_rule, spec.max_refinements, spec.rel_tol,
    )
    table = [flat[i::len(p_values)] for i in range(len(p_values))]
    return table if full else [
        [res.require_converged(f"I_numeric(p={p}, {a_t}, {b_t}, {c_t})").value
         for res, (a_t, b_t, c_t) in zip(row, triples)] for p, row in zip(p_values, table)
    ]


def I_numeric(p: float, a_t: float, b_t: float, c_t: float,
              spec: Optional[QuadratureSpec] = None, full: bool = False):
    """int over {t1,t2 >= 0, t1+t2 <= 4pi/3} of
    t1^2 t2^2 (t1+t2)^2 / [(1+a_t t1)^p (1+b_t t2)^p (1+c_t(t1+t2))^p].

    Integrates the diagonal half {t2 <= t1} with the integrand folded across
    t1 = t2; the folded sum is symmetric in (a_t, t1) <-> (b_t, t2) term by
    term, so swapped calls return bit-identical values.  Always uses the
    Duffy triangle rule: ``spec.mapping`` is not read, only its base_rule,
    max_refinements and rel_tol.  A table of one (:func:`I_numeric_table`):
    the value, or with ``full`` the QuadratureResult.
    """
    return I_numeric_table([p], [(a_t, b_t, c_t)], spec, full)[0][0]


# I_numeric's majorant in (p, a, b, c) per regime; call only the selected case
_MODEL = (
    lambda p, a, b, c: a ** -p * b ** -p * c ** -p,
    lambda p, a, b, c: a ** -p * b ** -p * c ** -p * math.log(2.0 + c),
    lambda p, a, b, c: a ** -p * b ** -p * c ** (2.0 * p - 8.0),
    lambda p, a, b, c: a ** -3.0 * b ** -3.0 * c ** -2.0 * math.log(2.0 + a / c),
    lambda p, a, b, c: a ** -3.0 * b ** -p * c ** (p - 5.0),
    lambda p, a, b, c: a ** -3.0 * b ** -5.0 * math.log(2.0 + b / c),
    lambda p, a, b, c: a ** -3.0 * b ** -5.0,
)


def I_bound(p: float, a: float, b: float, c: float) -> float:
    """Seven-case majorant of I_numeric for sorted a >= b >= c > 0, with a log factor
    at each break 8/3, 3 and 5 (:func:`_regime`).  ValueError naming p and the
    triple where the value overflows or underflows."""
    _check_p(p)
    if not (a >= b >= c > 0.0):
        raise ValueError(
            "I_bound requires a >= b >= c > 0; pass the sorted shifted-weight "
            "pairings (mu_stats gives the extremes)"
        )
    try:
        value = _MODEL[_regime(p)](p, a, b, c)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValueError(f"I_bound(p={p}, {a}, {b}, {c}) = {value} is not a positive finite float")
    return value


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------

_FAMILIES = ("axis", "diagonal", "fixed_b")


def family_weight(family: str, N: int, b0: int = 2) -> DominantWeight:
    if family == "axis":
        return DominantWeight(N, 0)
    if family == "diagonal":
        return DominantWeight(N, N)
    if family == "fixed_b":
        return DominantWeight(N, b0)
    raise ValueError(f"family must be one of {_FAMILIES}")


@dataclass(frozen=True)
class ScalingRow:
    N: int
    mu_a: int
    mu_b: int
    p: float
    norm: float
    predicted: float
    ratio: float


@dataclass(frozen=True)
class FitResult:
    family: str
    p: float
    slope: float
    residual: float                 # RMS residual of the log-log fit
    slope_trimmed: Optional[float]  # set when residual > 0.02 (smallest N dropped)
    residual_trimmed: Optional[float]
    table: Tuple[ScalingRow, ...]


def _ols_loglog(ns: Sequence[float], norms: Sequence[float]) -> Tuple[float, float]:
    xs = [math.log(n) for n in ns]
    ys = [math.log(v) for v in norms]
    n = len(xs)
    xbar = math.fsum(xs) / n
    ybar = math.fsum(ys) / n
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    rss = math.fsum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    return slope, math.sqrt(rss / n)


def scaling_fit(
    family: str,
    p: float,
    N_values: Sequence[int] = (8, 16, 32, 64, 128, 256, 512),
    spec: Optional[QuadratureSpec] = None,
    b0: int = 2,
) -> FitResult:
    """OLS slope of log ||chi|| against log N along a weight family.

    When the full-fit RMS residual exceeds 0.02 the smallest N is dropped
    and the fit repeated (small-N transients); both slopes are reported.
    """
    if len(N_values) < 4:
        raise ValueError("need at least 4 N values for a slope fit")
    if len(set(N_values)) < len(N_values) or min(N_values) < 1:
        raise ValueError(f"N values must be distinct positive integers, got {tuple(N_values)}")
    rows: List[ScalingRow] = []
    for N in N_values:
        mu = family_weight(family, N, b0)
        rep = haar_lp_norm(mu, p, spec)
        rows.append(ScalingRow(N, mu.a, mu.b, p, rep.norm, rep.predicted_singular,
                               rep.norm / rep.predicted_singular))
        try:
            rep.require_converged(f"haar_lp_norm at N={N}")
        except ConvergenceError as err:
            err.partial_table = tuple(rows)
            raise

    slope, residual = _ols_loglog([r.N for r in rows], [r.norm for r in rows])
    slope_trimmed = residual_trimmed = None
    if residual > 0.02:
        slope_trimmed, residual_trimmed = _ols_loglog(
            [r.N for r in rows[1:]], [r.norm for r in rows[1:]]
        )
    return FitResult(
        family=family,
        p=p,
        slope=slope,
        residual=residual,
        slope_trimmed=slope_trimmed,
        residual_trimmed=residual_trimmed,
        table=tuple(rows),
    )
