"""Three independent evaluators for su(3) irreducible characters.

``chi_weyl``    quotient of the alternating 6-term phase sum by the product
                of the three positive-root sines (Weyl character formula);
                fast and accurate away from walls, cancellation-limited near
                them.
``descent_terms``
                regroups the same sum by right cosets of a wall reflection,
                so the cancellation across one chosen wall is done in closed
                form by a rank-one character sin(m*u)/sin(u); exact on that
                wall, needs the other two walls to stay away from zero.
``chi_schur``   oracle: the sum of dim(mu) unit-modulus phases, one per
                Gelfand-Tsetlin pattern of shape (a+b, b, 0) with entries
                <= 3, taken per distinct weight times its multiplicity and
                exactly rounded.  Unconditionally stable; exact at H = 0.
``chi_stable``  dispatcher picking among the three by wall distances.

``chi_on_grid`` vectorizes the dispatch.  The Weyl and descent routes read
their phases from per-point rows exp(ik x), one per integer k, each a
product of two earlier rows past k = 3 (:class:`_PhaseRows`); near two or
more walls it sums the patterns in closed form, O(a+b) per point.
Everything that depends only on the points (wall sines, routes, descent
prefactors, rank-one and phase rows) lives in one private geometry object,
shared by every weight evaluated on the same points; each route runs once
per chunk of weights on a [weights x points] tile, and chi_on_grid is a
chunk of one weight.  A value never depends on the other points or weights
of its call (see :func:`_cmul`).

All evaluators agree on chi~(lambda, H) = chi(mu, H) for lambda = mu + rho;
the lambda-level entry points (chi_weyl, descent_terms) exist so the Weyl
antisymmetry chi~(s.lambda, H) = det(s) * chi~(lambda, H) can be exercised
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Tuple

import numpy as np

from .cartan import (
    WALL_COSET_TABLES,
    WALL_POSITIVE_ROOT,
    WEYL_TABLE,
    DominantWeight,
    RegularTriple,
    TorusPoint,
    dim,
    theta_from_alcove,
)

__all__ = [
    "CharValue",
    "chi_rank1",
    "chi_weyl",
    "chi_schur",
    "descent_terms",
    "chi_stable",
    "chi_on_grid",
    "multiplicities",
    "SingularInputError",
    "WallTooSmallError",
    "ResourceLimitError",
]

# Dispatch threshold: below this wall distance the Weyl quotient loses ~10
# significant digits and we descend to a better-conditioned formula.
EPS_WALL = 1e-3

# chi_rank1 switches from the sine ratio to the Chebyshev recurrence here.
RANK1_SIN_SWITCH = 1e-8

# Exact-zero guard for denominators (an exact wall hit).
WALL_FLOOR = 1e-14

# Entries one allocation may hold where its check names no other limit: patterns,
# multiplicity arrays, multi-wall table entries a point, r-grid stages, sweep grids.
SCHUR_DIM_LIMIT = 10**7


class SingularInputError(ValueError):
    """Weyl quotient requested on or too close to a wall."""


class WallTooSmallError(ValueError):
    """Descent prefactor would divide by a vanishing complementary wall."""


class ResourceLimitError(RuntimeError):
    """An allocation past its budget refused (:func:`require_within_budget`)."""


def require_within_budget(entries: int, what: str, budget: str, limit=None,
                          entry_bytes: int = 0) -> None:
    """The one allocation-budget rule, checked before the allocation it guards:
    ResourceLimitError when ``entries``, the count ``what``, exceeds ``limit``
    (SCHUR_DIM_LIMIT, read at the call, when None), naming the count, its MB
    at ``entry_bytes`` an entry, and the budget."""
    if entries > (limit := SCHUR_DIM_LIMIT if limit is None else limit):
        size = f" ({entries * entry_bytes / 1e6:.1f} MB)" if entry_bytes else ""
        raise ResourceLimitError(f"{what} = {entries}{size} exceeds the {budget} budget {limit}")


@dataclass(frozen=True)
class CharValue:
    """Evaluated character: value, which formula produced it, conditioning.

    ``condition`` is the reciprocal of the smallest wall distance that
    appeared in a denominator; +inf when no division happened (schur).
    """

    value: complex
    method: str
    condition: float


# ---------------------------------------------------------------------------
# rank-one building block
# ---------------------------------------------------------------------------

def chi_rank1(m: int, u: float) -> float:
    """sin(m*u)/sin(u), continued across sin(u) = 0.

    This is the su(2) character of the (|m|-1)-fold symmetric power evaluated
    at angle 2u, i.e. the Chebyshev polynomial U_{|m|-1}(cos u) up to the sign
    of m.  Satisfies |chi_rank1(m, u)| <= min(|m|, 1/|sin u|), odd in m.
    Taken as (-1)^(n(m-1)) chi_rank1(m, v), v = u - n pi, n = round(u/pi),
    as the grid's rank-one rows are: m v rounds relative to v, m u to u.
    """
    if m == 0:
        return 0.0
    n = round(u / math.pi)
    v, sign = u - n * math.pi, (-1.0) ** (n * (m - 1))
    s = math.sin(v)
    if abs(s) >= RANK1_SIN_SWITCH:
        return sign * math.sin(m * v) / s
    # near a pole of 1/sin: degree-(|m|-1) Chebyshev recurrence in cos v
    c2 = 2.0 * math.cos(v)
    ukm1, uk = 0.0, 1.0  # U_{-1}, U_0
    for _ in range(abs(m) - 1):
        ukm1, uk = uk, c2 * uk - ukm1
    return sign * uk if m > 0 else -sign * uk


class _Rank1Rows:
    """chi_rank1(m, u) at fixed angles u, built from (u, sin u); a call
    keeps the row per m, :meth:`row` does not.

    Near-pole entries (|sin u| < RANK1_SIN_SWITCH) come from one Chebyshev
    recurrence in cos u that is extended, never restarted, when a larger |m|
    is asked for; the k-th iterate has the same bits whichever m asked for
    it first.
    """

    def __init__(self, u: np.ndarray, s: np.ndarray):
        self.u = u
        self.safe = np.abs(s) >= RANK1_SIN_SWITCH
        self._u_safe = u[self.safe]
        self._s_safe = s[self.safe]
        self._c2 = 2.0 * np.cos(u[~self.safe])
        self._cheb = [np.zeros_like(self._c2), np.ones_like(self._c2)]  # U_{-1}, U_0, ...
        self._rows = {}

    def __call__(self, m: int) -> np.ndarray:
        row = self._rows.get(m)
        if row is None:
            row = self._rows[m] = self.row(m)
        return row

    def row(self, m: int) -> np.ndarray:
        row = np.empty_like(self.u)
        row[self.safe] = np.sin(m * self._u_safe) / self._s_safe
        if self._c2.size:
            cheb = self._cheb
            while len(cheb) <= abs(m):
                cheb.append(self._c2 * cheb[-1] - cheb[-2])
            row[~self.safe] = cheb[m] if m > 0 else -cheb[-m]
        return row


# ---------------------------------------------------------------------------
# Weyl quotient
# ---------------------------------------------------------------------------

def chi_weyl(lam: RegularTriple, H: TorusPoint) -> CharValue:
    """Alternating phase sum over W divided by the positive-root sine product."""
    sines = H.wall_sines[1:] + H.wall_sines[:1]  # in POSITIVE_ROOTS order
    wmin = min(abs(x) for x in sines)
    if wmin <= WALL_FLOOR:
        raise SingularInputError(
            f"H is on a wall (min wall_norm {wmin:.3e}); use chi_stable"
        )
    th, ell = H.theta, lam.ell
    num = 0j
    for sign, p in WEYL_TABLE:
        angle = ell[p[0]] * th[0] + ell[p[1]] * th[1] + ell[p[2]] * th[2]
        num += sign * complex(math.cos(angle), math.sin(angle))
    den = 1.0 + 0j
    for x in sines:
        den *= 2j * x
    return CharValue(value=num / den, method="weyl", condition=1.0 / wmin)


# ---------------------------------------------------------------------------
# Gelfand-Tsetlin / Schur oracle
# ---------------------------------------------------------------------------

def _pattern_counts(a: int, b: int, w1: np.ndarray, s: np.ndarray) -> np.ndarray:
    """M[w1, w3], s = a+2b-w3, elementwise: the Gelfand-Tsetlin patterns of
    shape (a+b, b, 0) with m11 = w1 and m12 + m22 = s, one per m12 in
    [max(b, s-b, w1, s-w1), min(a+b, s)]; <= 0 where there is none."""
    m = np.maximum(w1, s - w1)
    np.maximum(m, np.maximum(b, s - b), out=m)
    return np.subtract(np.minimum(a + b, s) + 1, m, out=m)


@lru_cache(maxsize=4)
def _schur_table(a: int, b: int):
    """(w1, w2, w3, M) on the support of M as read-only float64, the weights
    of multiplicity 1 first and M kept only for the others; and their count.
    Row w3 of the support is w1 in [s - top, top], s = a+2b-w3, top =
    min(a+b, s): at most dim(mu) entries."""
    n = a + b + 1
    s = (a + 2 * b) - np.arange(n, dtype=np.int64)
    top = np.minimum(a + b, s)
    counts = 2 * top - s + 1
    w3 = np.repeat(np.arange(n, dtype=np.int64), counts)
    w1 = np.arange(w3.size, dtype=np.int64) + (s - top + counts - np.cumsum(counts))[w3]
    m = _pattern_counts(a, b, w1, s[w3])
    order = np.argsort(m > 1, kind="stable")
    ones = int(np.count_nonzero(m == 1))
    w1, w3, m = (x[order].astype(np.float64) for x in (w1, w3, m))
    table = (w1, (a + 2 * b) - w1 - w3, w3, m[ones:])
    for arr in table:
        arr.setflags(write=False)
    return table, ones


# Veltkamp's splitter for doubles: x = hi + lo, each half of 26 bits at most
_SPLIT = 2.0**27 + 1.0


def chi_schur(mu: DominantWeight, H: TorusPoint) -> CharValue:
    """Sum of dim(mu) unit phases exp(i*<w, theta>) over GT patterns.

    No denominators at all, hence stable everywhere (walls, corners, H = 0);
    at H = 0 every phase is exactly 1.0 and the value is exactly dim(mu).
    Patterns of one weight share its phase: each cos and sin of a weight of
    multiplicity M > 1 (M <= dim(mu) < 2^26) is split into hi + lo of 26
    bits, so M hi and M lo are exact, and math.fsum of these at most dim(mu)
    terms has the bits of math.fsum over the dim(mu) pattern phases.
    Refuses dim(mu) > SCHUR_DIM_LIMIT before allocating.
    """
    require_within_budget(dim(mu), "dim(mu)", "pattern-sum")
    (w1, w2, w3, m), ones = _schur_table(mu.a, mu.b)
    k, th = w1.size, H.theta
    # [cos; sin] per weight, M hi in place of the split ones, M lo after
    terms = np.empty((2, 2 * k - ones))
    angle = np.add(w1 * th[0] + w2 * th[1], w3 * th[2], out=terms[1, :k])
    np.cos(angle, out=terms[0, :k])
    np.sin(angle, out=angle)
    if ones < k:
        y = terms[:, ones:k]
        hi = y * _SPLIT
        hi -= hi - y
        np.multiply(m, y - hi, out=terms[:, k:])
        np.multiply(m, hi, out=y)
    re, im = (math.fsum(row.tolist()) for row in terms)
    return CharValue(value=complex(re, im), method="schur", condition=math.inf)


def multiplicities(mu) -> np.ndarray:
    """Weight multiplicities of V_mu as an exact int64 array M[w1, w3].

    chi_mu = sum M[w1, w3] x1^w1 x2^w2 x3^w3 with w2 = a+2b-w1-w3, so
    M.sum() == dim(mu) and M equals the Gelfand-Tsetlin weight histogram
    (:func:`_pattern_counts`).  O((a+b)^2) work, no loop.  Refuses, before
    allocating, arrays of more than SCHUR_DIM_LIMIT entries.
    """
    mu = DominantWeight.of(mu)
    a, b = mu.a, mu.b
    n = a + b + 1
    require_within_budget(n * n, "(a+b+1)^2", "multiplicity-array", entry_bytes=8)
    w1 = np.arange(n, dtype=np.int64)[:, None]
    m = _pattern_counts(a, b, w1, (a + 2 * b) - np.arange(n, dtype=np.int64))
    return np.maximum(m, 0, out=m)


# ---------------------------------------------------------------------------
# descent to a wall
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DescentTerm:
    det: int
    m: int             # pairing of the coset-moved weight with the wall root
    phase: complex     # exp(i * <s.lambda, H - H^j>)
    rank1: float       # chi_rank1(m, u), u = <beta_j, H>/2


@dataclass(frozen=True)
class DescentTermSet:
    """Terms of the coset-regrouped character formula at wall j."""

    j: int
    prefactor: complex
    terms: Tuple[DescentTerm, DescentTerm, DescentTerm]
    condition: float

    def assembled(self) -> complex:
        acc = 0j
        for t in self.terms:
            acc += t.det * t.phase * t.rank1
        return self.prefactor * acc

    def char_value(self) -> CharValue:
        """The assembled sum as the descent route's CharValue."""
        return CharValue(self.assembled(), f"descent{self.j}", self.condition)


# Per wall j: its complementary walls, and the slots q, r of beta_j = (q+1, r+1)
_COMPLEMENT = ((1, 2), (0, 2), (0, 1))
_WALL_SLOTS = tuple((beta.j - 1, beta.k - 1) for beta in WALL_POSITIVE_ROOT)


def descent_terms(lam: RegularTriple, H: TorusPoint, j: int) -> DescentTermSet:
    """Regroup the Weyl sum over the coset transversal of wall j.

    The pair (phase, rank1) of each term is exp(i<s.lambda, H_j>) and the
    rank-one character sin(m*u)/sin(u); prefactor is 1 over the two
    complementary wall sines (times 2i each).  assembled() equals
    chi~(lambda, H) wherever both complementary walls are nonzero --
    including exactly on wall j.
    """
    if j not in (0, 1, 2):
        raise ValueError(f"wall index must be 0, 1 or 2, got {j}")
    k1, k2 = _COMPLEMENT[j]
    s1, s2 = H.wall_sines[k1], H.wall_sines[k2]
    wmin = min(abs(s1), abs(s2))
    if wmin <= WALL_FLOOR:
        bad = WALL_POSITIVE_ROOT[k1 if abs(s1) == wmin else k2]
        raise WallTooSmallError(
            f"complementary wall ({bad.j},{bad.k}) is singular "
            f"(wall_norm {wmin:.3e}); descend to a different wall"
        )
    prefactor = (1.0 + 0j) / (2j * s1) / (2j * s2)
    q, r = _WALL_SLOTS[j]
    th, ell = H.theta, lam.ell
    u = 0.5 * (th[q] - th[r])
    terms = []
    for sign, p in WALL_COSET_TABLES[j]:
        m = ell[p[q]] - ell[p[r]]
        angle = ell[p[0]] * th[0] + ell[p[1]] * th[1] + ell[p[2]] * th[2] - m * u
        phase = complex(math.cos(angle), math.sin(angle))
        terms.append(DescentTerm(det=sign, m=m, phase=phase, rank1=chi_rank1(m, u)))
    return DescentTermSet(j=j, prefactor=prefactor, terms=tuple(terms), condition=1.0 / wmin)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def _route(walls):
    """The GRID_METHOD_NAMES code of the best-conditioned formula at walls,
    the three wall norms as floats or as a [3 x n] array: all >= EPS_WALL,
    0 (Weyl quotient); exactly one below, 1 + its index (descent at that
    wall); two or more below, 4 (pattern sum).  Counted in ints: numpy adds
    bool arrays as logical or."""
    b0, b1, b2 = (1 * (w < EPS_WALL) for w in walls)
    near = b0 + b1 + b2
    return (near == 1) * (1 + b1 + 2 * b2) + (near > 1) * 4


def chi_stable(mu: DominantWeight, H: TorusPoint) -> CharValue:
    """chi(mu, H) by the formula :func:`_route` picks; the pattern sum's
    resource guard is raised only where no other formula is safe."""
    code = _route(H.wall_norms())
    if code == 0:
        return chi_weyl(mu.shifted(), H)
    if code < 4:
        return descent_terms(mu.shifted(), H, code - 1).char_value()
    return chi_schur(mu, H)


# ---------------------------------------------------------------------------
# vectorized evaluation on alcove-coordinate grids
# ---------------------------------------------------------------------------

GRID_METHOD_NAMES = ("weyl", "descent0", "descent1", "descent2", "schur")

# Entries per weight of the multi-wall tables (points x (a+b+1)); blocking
# the points by it bounds peak memory.
GRID_BLOCK = 1 << 18


class _GridChunk:
    """What the grid routes need of a chunk of weights, each read as its
    form (max(a,b), min(a,b)) in ``mus``: the routes give chi of that form,
    conj chi_(a,b) for a < b ((b,a) is the dual), and the envelope, a
    permanent over pairings that swapping a and b only permutes, is the same.
    Every lambda = mu + rho is (a+b+2, b+1, 0): ``lam`` per weight.  Weights
    of one degree a+2b+3 share the common phase of the Weyl and multi-wall
    routes; ``runs`` lists (degree, rows) per run of equal degree.
    ``descent[:, j]`` holds det * m per coset term at wall j, m = ell[p[q]]
    - ell[p[r]] on the wall slots (q, r) as in descent_terms (see
    :meth:`_WallPoints.tile`).
    """

    def __init__(self, mus):
        self.mus = tuple(DominantWeight(max(mu.a, mu.b), min(mu.a, mu.b)) for mu in mus)
        ells = [mu.shifted().ell for mu in self.mus]
        degrees = [sum(ell) for ell in ells]
        starts = [w for w in range(len(ells)) if w == 0 or degrees[w] != degrees[w - 1]]
        self.runs = [(degrees[lo], slice(lo, hi))
                     for lo, hi in zip(starts, starts[1:] + [len(ells)])]
        self.lam = np.array(ells, dtype=np.int64)
        self.descent = np.array([[[sign * (ell[p[q]] - ell[p[r]]) for sign, p in coset]
                                  for (q, r), coset in zip(_WALL_SLOTS, WALL_COSET_TABLES)]
                                 for ell in ells], dtype=np.int64)


def _cmul(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x * y into out: every product of two complex factors in the grid
    kernels, so that a value's bits do not depend on the size of its call.

    Under FMA numpy's complex product is not bitwise commutative, and a bare
    ``x * tmp`` runs as ``tmp * x`` once the temporary exceeds 256 KiB
    (temporary elision): x is always the first operand.  A one-element
    product whose operand is broadcast or is the output takes another loop
    with other rounding: out is never an operand, and one element goes as a
    1-vector.
    """
    if out.size == 1:
        x, y, out = x.reshape(1), y.reshape(1), out.reshape(1)
    return np.multiply(x, y, out=out)


class _PhaseRows(dict):
    """exp(i k x) at fixed angles x per integer k >= 0, formed and kept when
    first read; :meth:`row` keeps only the rows k <= 3 and powers of two.

    Rows k <= 3 are np.exp(1j * (k * x)); row k > 3 is row r * row m, m the
    largest power of two below k and r = k - m.  The chain is fixed by k, so
    a row's bits do not depend on which rows were read first.  A squaring
    doubles its factor's error, so row k errs by about 0.23 ulp per unit of
    k, where exp(i fl(k x)) errs by up to |k x|/2 ulp as k x rounds.
    """

    def __init__(self, x: np.ndarray):
        super().__init__()
        self.x = x

    def __missing__(self, k: int) -> np.ndarray:
        row = self[k] = self.row(k)
        return row

    def row(self, k: int) -> np.ndarray:
        if k <= 3:
            return np.exp(1j * (k * self.x))
        m = 1 << ((k - 1).bit_length() - 1)
        r = k - m
        low = self[r] if r in self or r <= 3 or not r & (r - 1) else self.row(r)
        return _cmul(low, self[m], np.empty(self.x.shape, dtype=np.complex128))

    def stack(self, ks) -> np.ndarray:  # [len(ks) x points]
        return np.concatenate([self[k] for k in ks]).reshape(len(ks), -1)


def _rows_for(rows: _PhaseRows, chunk: _GridChunk) -> _PhaseRows:
    """rows, or fresh rows over the same angles for a chunk of one weight
    (chi_on_grid's, a sweep block's last): no chunk follows to reuse them,
    and chain rows kept past their read cost a one-weight call page faults."""
    return rows if len(chunk.mus) > 1 else _PhaseRows(rows.x)


class _WeylPoints:
    """The Weyl-route points with their reciprocal denominators, the phase rows
    P1[k] = exp(ik t1) and P2[k] = exp(-ik t2) and the common phase rows
    exp(ik (t2 - t1)/3)."""

    def __init__(self, idx, t1, t2, sines):
        self.idx = idx
        # 1/den.imag, den = (2i s1)(2i s2)(2i s0): numpy's division by it is tile()'s two products
        self.inv = -0.125 / (sines[1][idx] * sines[2][idx] * sines[0][idx])
        self.p1, self.p2 = _PhaseRows(t1[idx]), _PhaseRows(-t2[idx])
        self.common = _PhaseRows((t2[idx] - t1[idx]) / 3.0)

    def tile(self, chunk: _GridChunk) -> np.ndarray:
        """Weyl quotient at the Weyl-route points, [weights x points]."""
        # e.theta = e1 t1 - e3 t2 + degree (t2 - t1)/3: the numerator is
        # exp(i degree (t2 - t1)/3) sum_s sgn(s) P1[e1] P2[e3], and e1 or e3
        # is 0 in four of the six terms.  The common phase is one row per
        # run of weights of equal degree.
        w, ks = len(chunk.mus), chunk.lam[:, 0].tolist() + chunk.lam[:, 1].tolist()
        p1 = _rows_for(self.p1, chunk).stack(ks)
        p2 = _rows_for(self.p2, chunk).stack(ks)
        p1, p2, common = (p1[:w], p1[w:]), (p2[:w], p2[w:]), _rows_for(self.common, chunk)
        num = np.zeros(p1[0].shape, dtype=np.complex128)
        tmp = np.empty_like(num)
        # e1 and e3 of e = s.lambda are components c1 and c3 of
        # lambda = (a+b+2, b+1, 0); c = 2 is its zero
        for sign, (c1, _, c3) in WEYL_TABLE:
            if c3 == 2:
                term = p1[c1]
            elif c1 == 2:
                term = p2[c3]
            else:
                term = _cmul(p1[c1], p2[c3], tmp)
            if sign > 0:
                num += term
            else:
                num -= term
        out = tmp
        del p1, p2, term  # the stacks go before the common phase's chain rows come
        for degree, rows in chunk.runs:
            # num * phase in this operand order at any size: under FMA the
            # swapped product rounds differently (see _cmul)
            _cmul(num[rows], common.row(degree), out[rows])
        # between chunks keep only the base rows: the powers of two, 128 kB
        # a sweep block, raised the sweep's peak RSS by about 0.15 MB
        for k in [k for k in common if k > 3]:
            del common[k]
        np.multiply(out.imag, self.inv, out=num.real)
        np.multiply(out.real, self.inv * -1.0, out=num.imag)
        return num


class _WallPoints:
    """The descent-route points of wall j and their mu-independent factors:
    the prefactor, the rank-one rows at u = <beta_j, H>/2 (:class:`_Rank1Rows`)
    and the phase rows at theta_c/2, c the slot off the wall."""

    def __init__(self, j: int, idx, t1, t2, pairing, sines):
        self.j = j
        self.idx = idx
        th = theta_from_alcove(t1[idx], t2[idx])
        k1, k2 = _COMPLEMENT[j]
        self.prefactor = 1.0 / ((2j * sines[k1][idx]) * (2j * sines[k2][idx]))
        # rank1(m, u) = (-1)^(n(m-1)) rank1(m, v), v = u - n pi: m v rounds relative to v
        n = np.round(0.5 * pairing[idx] / np.pi)
        v = 0.5 * pairing[idx] - n * np.pi
        self.rank1, self.flip = _Rank1Rows(v, np.sin(v)), n % 2 == 1
        self.c = 3 - sum(_WALL_SLOTS[j])  # the slot off the wall
        self.phase = _PhaseRows(0.5 * th[self.c])

    def tile(self, chunk: _GridChunk) -> np.ndarray:
        """Descent at wall j, [weights x points].

        Coset term e = s.lambda is det * rank1(m) * exp(i(e.theta - m u)).
        With p, q the slots on the wall, e.theta - m u = (e_p + e_q)
        (theta_p + theta_q)/2 + e_c theta_c = (3 e_c - l1 - l2) x, as theta
        sums to 0; x = theta_c/2, lambda = (l1, l2, 0).  With the rows W1 =
        exp(i l1 x), W2 = exp(i l2 x) and D = W1 conj(W2) the phase is D W1,
        conj(D) W2 or conj(W1 W2) for e_c = l1, l2 or 0.  The terms are
        added in coset order and the sum is multiplied by the prefactor, as
        in DescentTermSet.assembled.
        """
        w1, w2 = (self.phase.stack(chunk.lam[:, c].tolist()) for c in (0, 1))
        d = _cmul(w1, np.conjugate(w2), np.empty_like(w1))
        phases = [_cmul(d, w1, np.empty_like(d)), _cmul(np.conjugate(d), w2, np.empty_like(d))]
        phases.append(np.conjugate(_cmul(w1, w2, d), out=d))
        acc = np.zeros_like(d)
        for (_, p), m in zip(WALL_COSET_TABLES[self.j], chunk.descent[:, self.j].T):
            rank1 = np.concatenate([self.rank1(x) for x in np.abs(m).tolist()]).reshape(m.size, -1)
            rank1 *= np.where((m < 0)[:, None] ^ ((m % 2 == 0)[:, None] & self.flip), -1.0, 1.0)
            acc += _cmul(rank1, phases[p[self.c]], w1)
        _cmul(self.prefactor, acc, w1)
        return w1


class _MultiWallPoints:
    """The points near two or more walls, with the common phase rows
    exp(ik th2) and the angle differences th1-th2 and th3-th2."""

    def __init__(self, idx, t1, t2):
        self.idx = idx
        th = theta_from_alcove(t1[idx], t2[idx])
        self.common = _PhaseRows(th[1])
        self.d1, self.d3 = th[0] - th[1], th[2] - th[1]

    def tile(self, chunk: _GridChunk) -> np.ndarray:
        """chi on the multi-wall points, [weights x points]: the pattern
        phase sum in closed form, O(a+b) per weight and point.

        Pattern (m12, m22, m11) has the phase c th2 + m11 (th1-th2) +
        (a+b-m12 + b-m22) (th3-th2), c = a+2b; m12 in [b, a+b] and m22 in
        [0, b] are independent and m11 runs over [m22, m12].  With E1[k] =
        exp(ik(th1-th2)), E3[k] = exp(ik(th3-th2)), the prefix sums P[k] =
        E1[0] + ... + E1[k-1] and Q[k] = E3[0] + ... + E3[k], the m11 sum is
        P[m12+1] - P[m22] and chi = exp(i c th2) (S_A Q[b] - Q[a] S_D) with
        S_A = sum_{j<=a} E3[j] P[a+b+1-j] and S_D = sum_{j<=b} E3[j] P[b-j].
        The tables serve the whole chunk, per tile of GRID_BLOCK entries a
        weight.  Every sum is a cumulative sum in increasing index order,
        so a value does not depend on the other points or weights; at H = 0
        every phase is 1, every sum an exact integer and chi exactly dim.
        """
        w, b = len(chunk.mus), chunk.lam[:, 1] - 1
        a = chunk.lam[:, 0] - b - 2
        n = int((a + b).max()) + 1
        require_within_budget(w * n, f"{w} x (a+b+1)", "multi-wall tables")
        k = np.arange(n, dtype=np.float64)
        out = np.empty((w, self.idx.size), dtype=np.complex128)
        step = max(1, GRID_BLOCK // (w * k.size))
        for lo in range(0, self.idx.size, step):
            pts = slice(lo, lo + step)
            e1, e3 = (np.exp(1j * np.multiply.outer(k, d[pts])) for d in (self.d1, self.d3))
            p = np.concatenate((np.zeros_like(e1[:1]), np.cumsum(e1, axis=0)))
            q, s = np.cumsum(e3, axis=0), []
            for n, last in ((a + b + 1, a), (b, b)):  # S_A, S_D
                j = np.arange(last.max() + 1)
                terms = np.empty((w, j.size, e3.shape[1]), dtype=np.complex128)
                _cmul(e3[j], p[np.maximum(n[:, None] - j, 0)], terms)
                s.append(np.cumsum(terms, axis=1)[np.arange(w), last])
            sa, sd = s
            out[:, pts] = _cmul(sa, q[b], np.empty_like(sa)) - _cmul(q[a], sd, np.empty_like(sd))
        for degree, rows in chunk.runs:
            out[rows] = _cmul(self.common.row(degree - 3), out[rows], np.empty_like(out[rows]))
        return out


class _GridGeometry:
    """Everything about a set of alcove points that does not depend on mu.

    Built once from (t1, t2) and shared by every chunk of weights evaluated
    there.  The wall sines and walls are computed at once; the route codes
    and the routes on first use, so a caller that needs only the walls or
    the codes pays for nothing else.  The envelope's data (the inverse walls
    and the pairings of each weight) belongs to the bounds module.
    """

    def __init__(self, t1, t2):
        self.t1 = np.asarray(t1, dtype=np.float64)
        self.t2 = np.asarray(t2, dtype=np.float64)
        # pairings with the positive wall representatives, indexed by wall number
        self.pairings = (self.t1 + self.t2, self.t1, self.t2)
        self.sines = [np.sin(0.5 * p) for p in self.pairings]
        self.walls = np.abs(self.sines)

    @cached_property
    def methods(self) -> np.ndarray:
        """Each point's uint8 code into GRID_METHOD_NAMES (:func:`_route`)."""
        return _route(self.walls).astype(np.uint8)

    @cached_property
    def routes(self):
        """The non-empty routes -- :class:`_WeylPoints`, :class:`_WallPoints`
        per wall, :class:`_MultiWallPoints` -- with points ``idx`` and
        ``tile(chunk)``."""
        t1, t2, s = self.t1, self.t2, self.sines
        idx = [np.nonzero(self.methods == code)[0] for code in range(5)]
        return [_WeylPoints(i, t1, t2, s) if code == 0
                else _MultiWallPoints(i, t1, t2) if code == 4
                else _WallPoints(code - 1, i, t1, t2, self.pairings[code - 1], s)
                for code, i in enumerate(idx) if i.size]

    def chi(self, chunk: _GridChunk) -> np.ndarray:
        """chi(mu, .) for every weight of the chunk at every point,
        [weights x points], by each point's route; a lone route's tile is
        the result, unscattered."""
        routes = self.routes
        if len(routes) == 1:
            return routes[0].tile(chunk)
        values = np.empty((len(chunk.mus), self.t1.size), dtype=np.complex128)
        for r in routes:
            values[:, r.idx] = r.tile(chunk)
        return values


def chi_on_grid(mu: DominantWeight, t1: np.ndarray, t2: np.ndarray):
    """chi(mu, .) over flat arrays of alcove coordinates.

    Returns (values, methods): complex128 values and a uint8 method code per
    point, indexing GRID_METHOD_NAMES.  Routes each point as chi_stable does
    (:func:`_route`): no wall below EPS_WALL, Weyl quotient; one, descent at
    that wall; two or more, the pattern sum in closed form ("schur", O(a+b)
    per point, exact dim at H = 0, ResourceLimitError past SCHUR_DIM_LIMIT
    table entries a point).  The Weyl and descent routes read their phases
    from per-point rows (:class:`_PhaseRows`).  It is a chunk of one
    weight through the same kernels as the envelope sweep, at (max(a,b),
    min(a,b)) and conjugated for a < b (see _GridChunk).  Every point's
    value is computed from that point alone, so its bits do not depend on
    the other points of the call, nor on the call's size.
    """
    geom = _GridGeometry(t1, t2)
    vals = geom.chi(_GridChunk([mu]))[0]
    return (np.conjugate(vals) if mu.a < mu.b else vals), geom.methods
