"""Root data, Weyl group and alcove geometry for su(3).

Conventions used by the whole package (everything downstream assumes them):

* A point of the maximal torus is an angle triple ``theta = (theta1, theta2,
  theta3)`` with ``theta1 + theta2 + theta3 = 0`` (trace-zero gauge), i.e.
  ``H = i*diag(theta)``.
* Roots are ordered index pairs ``(j, k)`` acting by
  ``<alpha_jk, H> = theta_j - theta_k``.  The extended simple roots are
  ``alpha1 = (1,2)``, ``alpha2 = (2,3)``, ``alpha0 = (3,1)``; they satisfy
  ``alpha0 + alpha1 + alpha2 = 0``.  The positive roots are
  ``{alpha1, alpha2, -alpha0}``; all roots have squared length 2.
* A dominant weight is ``mu = (a, b)`` (fundamental-weight coefficients,
  a, b >= 0).  The strictly dominant shift ``lambda = mu + rho`` is stored as
  an integer triple ``ell = (a+b+2, b+1, 0)`` in the gauge ``ell3 = 0``;
  pairings are differences, ``<lambda, alpha_jk> = ell_j - ell_k``.  Against
  the positive roots these are ``a+1``, ``b+1`` and ``a+b+2``.
* The distance of ``<alpha, H>`` to ``2*pi*Z`` is measured by the wall norm
  ``|sin((theta_j - theta_k)/2)|`` (``TorusPoint.wall_norms``).
* Alcove coordinates are ``t1 = theta1 - theta2``, ``t2 = theta2 - theta3``;
  the fundamental alcove is ``A = {t1 >= 0, t2 >= 0, t1 + t2 <= 2*pi}``.
* ``WEYL_TABLE`` and ``WALL_COSET_TABLES`` are the one place W acts on
  triples for the evaluators and envelopes: per element a sign and a slot
  permutation ``p`` with ``s.apply(x) == tuple(x[i] for i in p)``, built
  once at import from ``WEYL_GROUP`` and ``wall_coset(j)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

__all__ = [
    "TorusPoint",
    "Root",
    "DominantWeight",
    "RegularTriple",
    "WeylElement",
    "ALPHA1",
    "ALPHA2",
    "ALPHA0",
    "EXTENDED_ROOTS",
    "POSITIVE_ROOTS",
    "WEYL_GROUP",
    "IDENTITY",
    "reflection",
    "wall_coset",
    "dim",
    "mu_stats",
    "theta_from_alcove",
]

# Trace-zero gauge tolerance for torus points (absolute, scaled by the
# largest angle for large inputs).
SUM_TOL = 1e-12


@dataclass(frozen=True)
class TorusPoint:
    """Torus element in the trace-zero angle gauge."""

    theta: Tuple[float, float, float]
    # sin(<beta, H>/2) per wall, beta in WALL_POSITIVE_ROOT, computed once
    wall_sines: Tuple[float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a finite sum implies finite angles, so this also refuses NaN and inf
        s = self.theta[0] + self.theta[1] + self.theta[2]
        scale = max(1.0, max(abs(x) for x in self.theta))
        if not (math.isfinite(s) and abs(s) <= SUM_TOL * scale):
            raise ValueError(
                f"torus angles must be finite and sum to zero (got {self.theta!r})"
            )
        th = self.theta  # the pairings with WALL_POSITIVE_ROOT = ((1,3), (1,2), (2,3))
        object.__setattr__(self, "wall_sines", (
            math.sin(0.5 * (th[0] - th[2])), math.sin(0.5 * (th[0] - th[1])),
            math.sin(0.5 * (th[1] - th[2]))))

    @classmethod
    def from_alcove_coords(cls, t1: float, t2: float) -> "TorusPoint":
        """Build from alcove coordinates (t1, t2) = (theta1-theta2, theta2-theta3)."""
        th1, th2, th3 = theta_from_alcove(t1, t2)
        return cls((th1, th2, th3))

    @property
    def alcove_coords(self) -> Tuple[float, float]:
        return (self.theta[0] - self.theta[1], self.theta[1] - self.theta[2])

    def wall_norms(self) -> Tuple[float, float, float]:
        """The wall norms against (alpha0, alpha1, alpha2), in that order."""
        s0, s1, s2 = self.wall_sines
        return (abs(s0), abs(s1), abs(s2))


def theta_from_alcove(t1, t2):
    """Angle triple for alcove coordinates, recentered to exact-ish trace zero.

    Elementwise: floats give a float triple, arrays a triple of arrays with
    the same bits per point.

    The round trip theta1-theta2 ~ t1, theta2-theta3 ~ t2 holds only to a few
    ulp (the /3 splits and the recentering each round); callers that need
    exact wall hits must keep (t1, t2) and evaluate pairings from them
    directly, as chi_on_grid does.
    """
    th1 = (2.0 * t1 + t2) / 3.0
    th2 = (t2 - t1) / 3.0
    th3 = -(t1 + 2.0 * t2) / 3.0
    m = (th1 + th2 + th3) / 3.0
    return (th1 - m, th2 - m, th3 - m)


@dataclass(frozen=True)
class Root:
    """Root alpha_jk as an ordered index pair; evaluates to theta_j - theta_k."""

    j: int
    k: int

    def __post_init__(self):
        if self.j == self.k or not (1 <= self.j <= 3 and 1 <= self.k <= 3):
            raise ValueError(f"bad root indices ({self.j}, {self.k})")

    def negated(self) -> "Root":
        return Root(self.k, self.j)


ALPHA1 = Root(1, 2)
ALPHA2 = Root(2, 3)
ALPHA0 = Root(3, 1)

# Extended simple roots indexed by wall number 0, 1, 2.
EXTENDED_ROOTS: Tuple[Root, Root, Root] = (ALPHA0, ALPHA1, ALPHA2)

# Positive system: {alpha1, alpha2, -alpha0}.  -alpha0 = (1,3) is the highest
# root; its wall norm agrees with alpha0's (the norm is sign-blind).
POSITIVE_ROOTS: Tuple[Root, Root, Root] = (ALPHA1, ALPHA2, ALPHA0.negated())

# Positive-root representative of each extended wall.  Wall 0 is alpha0's
# wall but the positive system contains -alpha0 = (1,3); using the positive
# representative in both the rank-one factor and the prefactor keeps the
# assembled descent sum equal to chi~ with no stray sign.
WALL_POSITIVE_ROOT: Tuple[Root, Root, Root] = (ALPHA0.negated(), ALPHA1, ALPHA2)


@dataclass(frozen=True)
class DominantWeight:
    """Dominant weight a*omega1 + b*omega2, a, b nonnegative integers."""

    a: int
    b: int

    def __post_init__(self):
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise TypeError("dominant weight coordinates must be int")
        if self.a < 0 or self.b < 0:
            raise ValueError(f"dominant weight needs a,b >= 0, got ({self.a},{self.b})")

    @classmethod
    def of(cls, mu) -> "DominantWeight":
        """mu itself if it is a DominantWeight, else one from an (a, b) pair."""
        return mu if isinstance(mu, cls) else cls(*mu)

    def shifted(self) -> "RegularTriple":
        """lambda = mu + rho as a regular triple."""
        return RegularTriple.from_dominant(self)


@dataclass(frozen=True)
class RegularTriple:
    """Strictly dominant-shift weight as an integer triple, gauge ell3 = 0.

    Regularity (all entries distinct) is the only structural requirement;
    Weyl images of a dominant ``mu+rho`` are therefore representable too.
    """

    ell: Tuple[int, int, int]

    def __post_init__(self):
        e = self.ell
        if any(not isinstance(x, int) for x in e):
            raise TypeError("regular triple entries must be int")
        if e[2] != 0:
            # canonical gauge: subtract ell3 (pairings only see differences)
            object.__setattr__(self, "ell", (e[0] - e[2], e[1] - e[2], 0))
            e = self.ell
        if e[0] == e[1] or e[1] == e[2] or e[0] == e[2]:
            raise ValueError(f"triple {e} is singular (repeated entry)")

    @classmethod
    def from_dominant(cls, mu: DominantWeight) -> "RegularTriple":
        return cls((mu.a + mu.b + 2, mu.b + 1, 0))


# ---------------------------------------------------------------------------
# Weyl group: S3 permuting the three angle/weight slots.
# ---------------------------------------------------------------------------

_PARITY = {
    (1, 2, 3): 1,
    (2, 1, 3): -1,
    (1, 3, 2): -1,
    (3, 2, 1): -1,
    (2, 3, 1): 1,
    (3, 1, 2): 1,
}


@dataclass(frozen=True)
class WeylElement:
    """Permutation s of {1,2,3}; perm[i-1] = s(i).  Acts by (s.x)_{s(i)} = x_i."""

    perm: Tuple[int, int, int]

    def __post_init__(self):
        if self.perm not in _PARITY:
            raise ValueError(f"not a permutation of (1,2,3): {self.perm}")

    @property
    def sign(self) -> int:
        return _PARITY[self.perm]

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        # (self*other)(i) = self(other(i)) -- other acts first
        return WeylElement(tuple(self.perm[other.perm[i] - 1] for i in range(3)))

    def apply(self, triple):
        """Permute the slots of a length-3 sequence: out[s(i)] = in[i]."""
        out = [None, None, None]
        for i in range(3):
            out[self.perm[i] - 1] = triple[i]
        return tuple(out)

IDENTITY = WeylElement((1, 2, 3))

# Deterministic listing: identity first, then lexicographic by perm.
WEYL_GROUP: Tuple[WeylElement, ...] = (
    IDENTITY,
    WeylElement((1, 3, 2)),
    WeylElement((2, 1, 3)),
    WeylElement((2, 3, 1)),
    WeylElement((3, 1, 2)),
    WeylElement((3, 2, 1)),
)


def reflection(alpha: Root) -> WeylElement:
    """Reflection in the wall of alpha_jk: the transposition (j k)."""
    perm = [1, 2, 3]
    perm[alpha.j - 1], perm[alpha.k - 1] = perm[alpha.k - 1], perm[alpha.j - 1]
    return WeylElement(tuple(perm))


def wall_coset(j: int) -> Tuple[WeylElement, WeylElement, WeylElement]:
    """Right transversal W_j of {e, s_{alpha_j}} in W: {e, s_{j+1}, s_{j+1}s_j}.

    Indices are mod 3 over the extended simple roots (alpha_3 == alpha_0).
    Together with W^j = {e, s_{alpha_j}} this factorizes W = W^j * W_j, which
    is what the descent formula sums over.
    """
    if j not in (0, 1, 2):
        raise ValueError(f"wall index must be 0, 1 or 2, got {j}")
    s_j = reflection(EXTENDED_ROOTS[j])
    s_next = reflection(EXTENDED_ROOTS[(j + 1) % 3])
    return (IDENTITY, s_next, s_next * s_j)


def _index_table(elements) -> Tuple[Tuple[int, Tuple[int, int, int]], ...]:
    """(sign, p) per element, in order: s.apply(x) == tuple(x[i] for i in p)."""
    return tuple((s.sign, s.apply((0, 1, 2))) for s in elements)


# W and each wall's coset transversal as index tables, in WEYL_GROUP and
# wall_coset(j) order.
WEYL_TABLE = _index_table(WEYL_GROUP)
WALL_COSET_TABLES = tuple(_index_table(wall_coset(j)) for j in (0, 1, 2))


# ---------------------------------------------------------------------------
# Dimension and size statistics
# ---------------------------------------------------------------------------

def dim(mu: DominantWeight) -> int:
    """Weyl dimension (a+1)(b+1)(a+b+2)/2; always an integer."""
    return (mu.a + 1) * (mu.b + 1) * (mu.a + mu.b + 2) // 2


@dataclass(frozen=True)
class MuStats:
    """Sorted positive-root pairings of mu+rho: controls every bound downstream."""

    mu_bar: int          # largest pairing, a+b+2
    mu_min: int          # smallest pairing, min(a+1, b+1)
    sorted_pairings: Tuple[int, int, int]  # descending


def mu_stats(mu: DominantWeight) -> MuStats:
    p = sorted((mu.a + 1, mu.b + 1, mu.a + mu.b + 2), reverse=True)
    return MuStats(mu_bar=p[0], mu_min=p[2], sorted_pairings=tuple(p))
