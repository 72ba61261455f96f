import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from su3char import (
    ALPHA0,
    ALPHA1,
    ALPHA2,
    EXTENDED_ROOTS,
    IDENTITY,
    POSITIVE_ROOTS,
    WEYL_GROUP,
    DominantWeight,
    RegularTriple,
    Root,
    TorusPoint,
    WeylElement,
    dim,
    mu_stats,
    reflection,
    theta_from_alcove,
    wall_coset,
)
from su3char.bounds import GridSpec, sweep_constant
from su3char.cartan import WALL_COSET_TABLES, WALL_POSITIVE_ROOT, WEYL_TABLE
from su3char.character import chi_schur, multiplicities
from su3char.lpnorms import (
    QuadratureSpec,
    haar_lp_norm,
    predicted_dimension_bound,
    predicted_regular_bound,
    predicted_singular_bound,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# the Weyl action and pairings one element and one root at a time: test-side
# references for the package's index tables (WEYL_TABLE, WALL_COSET_TABLES)
# and wall sines, some used by the other test modules too
# ---------------------------------------------------------------------------

RHO = RegularTriple((2, 1, 0))  # mu = (0,0) shifted


def pairing_root_torus(H: TorusPoint, alpha: Root) -> float:
    """<alpha, H> = theta_j - theta_k."""
    return H.theta[alpha.j - 1] - H.theta[alpha.k - 1]


def wall_norm(H: TorusPoint, alpha: Root) -> float:
    """|sin(<alpha,H>/2)|: distance of the pairing to 2*pi*Z, in sine units."""
    return abs(math.sin(0.5 * pairing_root_torus(H, alpha)))


def pairing_weight_root(lam: RegularTriple, alpha: Root) -> int:
    """<lambda, alpha_jk> = ell_j - ell_k (an integer in this normalization)."""
    return lam.ell[alpha.j - 1] - lam.ell[alpha.k - 1]


def weyl_act_torus(s: WeylElement, H: TorusPoint) -> TorusPoint:
    return TorusPoint(s.apply(H.theta))


def weyl_act_weight(s: WeylElement, lam: RegularTriple) -> RegularTriple:
    # constructor re-canonicalizes the gauge (subtracts the new ell3)
    return RegularTriple(s.apply(lam.ell))


def act_root(s: WeylElement, alpha: Root) -> Root:
    return Root(s.perm[alpha.j - 1], s.perm[alpha.k - 1])


def inverse(s: WeylElement) -> WeylElement:
    inv = [0, 0, 0]
    for i in range(3):
        inv[s.perm[i] - 1] = i + 1
    return WeylElement(tuple(inv))


alcove_t = st.floats(0.0, TWO_PI, allow_nan=False)


def torus_points():
    """Strategy: TorusPoint from alcove coordinates with t1+t2 <= 2pi."""
    return st.builds(
        lambda t1, frac: TorusPoint.from_alcove_coords(t1, frac * (TWO_PI - t1)),
        alcove_t,
        st.floats(0.0, 1.0),
    )


small_weights = st.builds(
    DominantWeight, st.integers(0, 12), st.integers(0, 12)
)


# ---------------------------------------------------------------------------
# pairings and wall norms
# ---------------------------------------------------------------------------

def test_pairing_examples():
    H = TorusPoint((math.pi / 3, 0.0, -math.pi / 3))
    assert pairing_root_torus(H, ALPHA1) == pytest.approx(math.pi / 3, abs=1e-15)
    assert pairing_root_torus(H, ALPHA0) == pytest.approx(-2 * math.pi / 3, abs=1e-15)


@given(torus_points())
def test_extended_roots_pairings_sum_to_zero(H):
    s = sum(pairing_root_torus(H, a) for a in EXTENDED_ROOTS)
    assert abs(s) <= 1e-12


def test_wall_norm_examples():
    H = TorusPoint((math.pi / 3, 0.0, -math.pi / 3))
    assert wall_norm(H, ALPHA1) == pytest.approx(0.5, abs=1e-15)
    assert wall_norm(TorusPoint((0.0, 0.0, 0.0)), ALPHA2) == 0.0
    # pairing 2pi -> periodicity sends the norm to 0
    H2 = TorusPoint((math.pi, -math.pi, 0.0))
    assert wall_norm(H2, ALPHA1) == pytest.approx(0.0, abs=1e-15)


@given(torus_points(), st.sampled_from(range(6)), st.sampled_from(EXTENDED_ROOTS))
def test_wall_norm_weyl_invariance(H, si, alpha):
    s = WEYL_GROUP[si]
    assert wall_norm(weyl_act_torus(s, H), act_root(s, alpha)) == pytest.approx(
        wall_norm(H, alpha), abs=1e-12
    )


@given(torus_points(), st.sampled_from(EXTENDED_ROOTS))
def test_wall_norm_sign_blind(H, alpha):
    assert wall_norm(H, alpha) == wall_norm(H, alpha.negated())


def test_root_validation():
    with pytest.raises(ValueError):
        Root(1, 1)
    with pytest.raises(ValueError):
        Root(0, 2)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_shifted_triple_and_pairings():
    assert DominantWeight(0, 0).shifted() == RHO
    assert pairing_weight_root(RHO, ALPHA1) == 1
    lam = DominantWeight(3, 1).shifted()
    assert lam.ell == (6, 2, 0)
    assert pairing_weight_root(lam, ALPHA0) == -6
    lam = DominantWeight(1, 1).shifted()
    assert lam.ell == (4, 2, 0)
    assert pairing_weight_root(lam, ALPHA2) == 2


@given(small_weights)
def test_positive_pairings_are_the_advertised_integers(mu):
    lam = mu.shifted()
    got = [pairing_weight_root(lam, beta) for beta in POSITIVE_ROOTS]
    assert got == [mu.a + 1, mu.b + 1, mu.a + mu.b + 2]


def test_weight_validation():
    with pytest.raises(ValueError):
        DominantWeight(-1, 0)
    with pytest.raises(TypeError):
        DominantWeight(1.0, 0)
    with pytest.raises(ValueError):
        RegularTriple((2, 2, 0))


def test_dominant_weight_of_takes_a_weight_or_an_a_b_pair():
    mu = DominantWeight(3, 2)
    assert DominantWeight.of(mu) is mu
    assert DominantWeight.of((3, 2)) == DominantWeight.of([3, 2]) == mu
    with pytest.raises(ValueError):
        DominantWeight.of((-1, 0))
    with pytest.raises(TypeError):
        DominantWeight.of((1, 0, 2))


# each entry point that takes a weight, with what it returns for it
WEIGHT_ENTRY_POINTS = {
    "multiplicities": lambda mu: multiplicities(mu).tolist(),
    "haar_lp_norm": lambda mu: haar_lp_norm(mu, 2.5),
    "haar_lp_norm:duffy": lambda mu: haar_lp_norm(
        mu, 3.0, QuadratureSpec(base_rule=8, max_refinements=1, mapping="duffy")),
    "predicted_singular_bound": lambda mu: [predicted_singular_bound(mu, p)
                                            for p in (2.0, 3.0, 4.0, 6.0)],
    "predicted_regular_bound": lambda mu: [predicted_regular_bound(mu, p) for p in (2.0, 4.0)],
    "predicted_dimension_bound": lambda mu: predicted_dimension_bound(mu, 4.0),
    "sweep_constant": lambda mu: sweep_constant(
        [mu, (1, 0)], GridSpec(total=200, wall_points_per_edge=20, chamber_wall_points=10,
                               corner_scales=2, corner_rays=2), seed=3),
}


@pytest.mark.parametrize("entry", list(WEIGHT_ENTRY_POINTS))
def test_weight_entry_points_take_an_a_b_pair(entry):
    f = WEIGHT_ENTRY_POINTS[entry]
    assert repr(f((3, 2))) == repr(f(DominantWeight(3, 2)))  # repr: every float's bits


def test_regular_triple_gauge_canonicalization():
    assert RegularTriple((5, 4, 3)).ell == (2, 1, 0)


def test_dim_examples():
    assert dim(DominantWeight(0, 0)) == 1
    assert dim(DominantWeight(1, 0)) == 3
    assert dim(DominantWeight(1, 1)) == 8


def test_mu_stats_examples():
    st00 = mu_stats(DominantWeight(0, 0))
    assert (st00.mu_bar, st00.mu_min, st00.sorted_pairings) == (2, 1, (2, 1, 1))
    st31 = mu_stats(DominantWeight(3, 1))
    assert (st31.mu_bar, st31.mu_min, st31.sorted_pairings) == (6, 2, (6, 4, 2))
    stNN = mu_stats(DominantWeight(7, 7))
    assert (stNN.mu_bar, stNN.mu_min) == (16, 8)


@given(small_weights)
def test_mu_stats_sorted_and_half_bound(mu):
    s = mu_stats(mu).sorted_pairings
    assert s[0] >= s[1] >= s[2] >= 1
    # second largest is at least half the largest
    assert 2 * s[1] >= s[0]


# ---------------------------------------------------------------------------
# Weyl group structure
# ---------------------------------------------------------------------------

def test_weyl_group_has_six_elements_with_multiplicative_sign():
    assert len(set(WEYL_GROUP)) == 6
    for s in WEYL_GROUP:
        for t in WEYL_GROUP:
            assert (s * t).sign == s.sign * t.sign


def test_identity_and_transposition_action():
    H = TorusPoint((0.3, -0.1, -0.2))
    assert weyl_act_torus(IDENTITY, H) == H
    s12 = reflection(ALPHA1)
    assert s12.sign == -1
    assert weyl_act_torus(s12, H).theta == (-0.1, 0.3, -0.2)


def test_three_cycle_has_order_three_and_sign_one():
    c = WeylElement((2, 3, 1))
    assert c.sign == 1
    assert c * c * c == IDENTITY
    assert c * c != IDENTITY


@given(st.sampled_from(range(6)))
def test_inverse(si):
    s = WEYL_GROUP[si]
    assert s * inverse(s) == IDENTITY
    assert inverse(s) * s == IDENTITY


def test_reflection_fixes_its_wall():
    for alpha in EXTENDED_ROOTS:
        s = reflection(alpha)
        assert s * s == IDENTITY
        assert s.sign == -1


def test_wall_cosets_factorize_the_group():
    for j in (0, 1, 2):
        transversal = wall_coset(j)
        assert transversal[0] == IDENTITY
        s_j = reflection(EXTENDED_ROOTS[j])
        elements = {w * t for w in (IDENTITY, s_j) for t in transversal}
        assert elements == set(WEYL_GROUP)
    with pytest.raises(ValueError):
        wall_coset(3)


def test_index_tables_match_the_group():
    # distinct values, so a wrong slot cannot go unseen
    x = (11, 23, 37)
    pairs = [(WEYL_TABLE, WEYL_GROUP)]
    pairs += [(WALL_COSET_TABLES[j], wall_coset(j)) for j in (0, 1, 2)]
    for table, elements in pairs:
        assert len(table) == len(elements)
        for (sign, p), s in zip(table, elements):
            assert sign == s.sign
            assert tuple(x[i] for i in p) == s.apply(x)


def test_wall_positive_roots_are_positive_and_on_their_walls():
    H = TorusPoint.from_alcove_coords(1.3, 2.9)
    for j, beta in enumerate(WALL_POSITIVE_ROOT):
        assert beta in POSITIVE_ROOTS
        assert beta in (EXTENDED_ROOTS[j], EXTENDED_ROOTS[j].negated())
        # each point's wall sines are taken once, against these roots
        assert H.wall_sines[j] == math.sin(0.5 * pairing_root_torus(H, beta))


@given(st.sampled_from(range(6)), small_weights)
def test_weight_action_preserves_pairings(si, mu):
    s = WEYL_GROUP[si]
    lam = mu.shifted()
    moved = weyl_act_weight(s, lam)
    for alpha in EXTENDED_ROOTS:
        assert pairing_weight_root(moved, act_root(s, alpha)) == pairing_weight_root(
            lam, alpha
        )


# ---------------------------------------------------------------------------
# torus points, alcove coordinates, folding
# ---------------------------------------------------------------------------

def test_torus_point_rejects_nonzero_sum():
    with pytest.raises(ValueError):
        TorusPoint((0.1, 0.1, 0.1))


@given(alcove_t, alcove_t)
def test_alcove_coords_round_trip_to_ulp(t1, t2):
    # exact only to rounding: the /3 splits and the recentering each round
    H = TorusPoint.from_alcove_coords(t1, t2)
    got = H.alcove_coords
    assert got[0] == pytest.approx(t1, abs=1e-13)
    assert got[1] == pytest.approx(t2, abs=1e-13)


def test_theta_from_alcove_is_trace_zero():
    th = theta_from_alcove(1.7, 2.9)
    assert abs(sum(th)) <= 1e-15


def test_torus_point_refuses_non_finite_angles():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            TorusPoint((bad, 0.0, 0.0))


@given(
    st.floats(-40.0, 40.0),
    st.floats(-40.0, 40.0),
    st.builds(DominantWeight, st.integers(0, 6), st.integers(0, 6)),
)
def test_characters_are_invariant_under_coroot_translation(x, y, mu):
    # exp(2*pi*i*diag(v)) = Id for an integer trace-zero v; the pattern sum
    # needs no regularity
    H = TorusPoint((x, y, -(x + y)))
    moved = TorusPoint((x - 2.0 * math.pi, y, -(x + y) + 2.0 * math.pi))
    assert abs(chi_schur(mu, moved).value - chi_schur(mu, H).value) <= 1e-8 * dim(mu)
