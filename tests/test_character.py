import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from su3char import (
    WEYL_GROUP,
    CharValue,
    DominantWeight,
    GridSpec,
    ResourceLimitError,
    SingularInputError,
    TorusPoint,
    WallTooSmallError,
    build_grid,
    chi_on_grid,
    chi_rank1,
    chi_schur,
    chi_stable,
    chi_weyl,
    descent_terms,
    dim,
    multiplicities,
)
from conftest import acceptance3_points, pattern_weights
from su3char import character
from su3char.character import (
    EPS_WALL,
    GRID_BLOCK,
    GRID_METHOD_NAMES,
    _GridChunk,
    _GridGeometry,
    _PhaseRows,
    _Rank1Rows,
)
from test_cartan import weyl_act_torus, weyl_act_weight

TWO_PI = 2.0 * math.pi

weights = st.builds(DominantWeight, st.integers(0, 12), st.integers(0, 12))


@st.composite
def torus_points(draw, min_wall=0.0):
    t1 = draw(st.floats(0.0, TWO_PI))
    t2 = draw(st.floats(0.0, 1.0)) * (TWO_PI - t1)
    H = TorusPoint.from_alcove_coords(t1, t2)
    if min_wall > 0.0:
        assume(min(H.wall_norms()) >= min_wall)
    return H


def closed_form_10(H):
    """chi_(1,0) = trace of the defining representation."""
    return sum(cmath.exp(1j * t) for t in H.theta)


def closed_form_11(H):
    """chi_(1,1) = |chi_(1,0)|^2 - 1 (adjoint = V (x) V* minus trivial)."""
    z = closed_form_10(H)
    return abs(z) ** 2 - 1.0


# ---------------------------------------------------------------------------
# rank-one block
# ---------------------------------------------------------------------------

def test_rank1_examples():
    assert chi_rank1(1, 0.3) == 1.0
    assert chi_rank1(2, math.pi / 3) == pytest.approx(1.0, abs=1e-15)
    assert chi_rank1(5, 0.0) == 5.0
    assert chi_rank1(0, 0.7) == 0.0


@given(st.integers(-200, 200), st.floats(-10.0, 10.0))
def test_rank1_odd_in_m(m, u):
    assert chi_rank1(-m, u) == -chi_rank1(m, u)


@given(st.integers(1, 200), st.floats(-10.0, 10.0))
def test_rank1_pointwise_bound(m, u):
    # near the poles the Chebyshev recurrence carries O(m^2 eps) rounding,
    # so the slack here is looser than the 1e-12 used on the (0, pi) grid
    s = abs(math.sin(u))
    bound = m if s == 0.0 else min(float(m), 1.0 / s)
    assert abs(chi_rank1(m, u)) <= bound + 1e-9


@given(st.integers(1, 60), st.floats(1e-9, 1e-7))
def test_rank1_continuous_across_the_switch(m, eps):
    # values straddling the sine-ratio / Chebyshev switch must agree; the
    # reference ratio itself loses ~m*3e-16/eps, hence the eps floor
    u = math.pi + eps
    direct = math.sin(m * u) / math.sin(u)
    assert chi_rank1(m, u) == pytest.approx(direct, abs=3e-6 * m)


def test_rank1_uncached_rows_equal_the_cached_ones():
    # row() extends the same recurrence as a call but keeps no row
    u = np.array([0.0, 1e-12, 0.5, math.pi, math.pi + 1e-9, 2.0])
    kept, passing = _Rank1Rows(u, np.sin(u)), _Rank1Rows(u, np.sin(u))
    for m in (1, 2, 7, 30, -7, 3):
        assert passing.row(m).tobytes() == kept(m).tobytes(), m
    assert passing._rows == {}


def test_rank1_array_matches_scalar():
    # the rows do not depend on the order in which m is requested, although
    # the near-pole recurrence is extended rather than restarted
    u = np.array([0.0, 1e-12, 0.5, math.pi, math.pi + 1e-9, 2.0])
    ms = (-7, 1, 2, 7, 30)
    down, up = _Rank1Rows(u, np.sin(u)), _Rank1Rows(u, np.sin(u))
    rows_down = {m: down(m) for m in sorted(ms, reverse=True)}
    rows_up = {m: up(m) for m in sorted(ms)}
    for m in ms:
        assert rows_down[m].tobytes() == rows_up[m].tobytes(), m
        want = [chi_rank1(m, float(x)) for x in u]
        assert np.allclose(rows_up[m], want, rtol=0, atol=1e-12), m


# ---------------------------------------------------------------------------
# the three evaluators on pinned values
# ---------------------------------------------------------------------------

def test_trivial_character_is_one_everywhere():
    mu = DominantWeight(0, 0)
    for H in (
        TorusPoint((0.9, -0.4, -0.5)),
        TorusPoint((0.0, 0.0, 0.0)),
        TorusPoint.from_alcove_coords(1e-9, 2.0),
    ):
        assert chi_stable(mu, H).value == pytest.approx(1.0 + 0j, abs=1e-12)
    H = TorusPoint((0.9, -0.4, -0.5))
    assert chi_weyl(mu.shifted(), H).value == pytest.approx(1.0 + 0j, abs=1e-12)
    assert chi_schur(mu, H).value == pytest.approx(1.0 + 0j, abs=1e-15)
    for j in (0, 1, 2):
        assert descent_terms(mu.shifted(), H, j).assembled() == pytest.approx(
            1.0 + 0j, abs=1e-12
        )


def test_defining_representation_at_quarter_turn():
    mu = DominantWeight(1, 0)
    H = TorusPoint((math.pi / 2, -math.pi / 2, 0.0))
    # trace = i + (-i) + 1 = 1
    assert chi_weyl(mu.shifted(), H).value == pytest.approx(1.0 + 0j, abs=1e-12)
    assert chi_schur(mu, H).value == pytest.approx(1.0 + 0j, abs=1e-15)


def test_adjoint_at_the_central_direction():
    mu = DominantWeight(1, 1)
    H = TorusPoint((2 * math.pi / 3, 0.0, -2 * math.pi / 3))
    assert chi_weyl(mu.shifted(), H).value == pytest.approx(-1.0 + 0j, abs=1e-12)
    assert closed_form_11(H) == pytest.approx(-1.0, abs=1e-14)


def test_schur_is_exact_at_zero():
    for a, b in [(0, 0), (1, 0), (4, 2), (12, 12)]:
        mu = DominantWeight(a, b)
        cv = chi_schur(mu, TorusPoint((0.0, 0.0, 0.0)))
        assert cv.value == complex(dim(mu))
        assert cv.method == "schur"
        assert cv.condition == math.inf


@given(torus_points())
def test_closed_forms_small_weights(H):
    assert chi_stable(DominantWeight(1, 0), H).value == pytest.approx(
        closed_form_10(H), abs=3e-8
    )
    assert chi_stable(DominantWeight(1, 1), H).value == pytest.approx(
        closed_form_11(H), abs=8e-8
    )


def test_weyl_rejects_singular_points():
    with pytest.raises(SingularInputError):
        chi_weyl(DominantWeight(2, 1).shifted(), TorusPoint((0.0, 0.0, 0.0)))


def test_schur_resource_guard():
    big = DominantWeight(600, 600)  # dim ~ 2e8
    with pytest.raises(ResourceLimitError):
        chi_schur(big, TorusPoint((0.0, 0.0, 0.0)))


def test_one_budget_rule_reads_its_limit_at_the_call(monkeypatch):
    character.require_within_budget(10**7, "x", "test")  # at the limit: allowed
    with pytest.raises(ResourceLimitError) as err:
        character.require_within_budget(10**7 + 1, "x", "test", entry_bytes=16)
    assert str(err.value) == "x = 10000001 (160.0 MB) exceeds the test budget 10000000"
    character.require_within_budget(6, "y", "z", 6)
    with pytest.raises(ResourceLimitError, match=r"^y = 7 exceeds the z budget 6$"):
        character.require_within_budget(7, "y", "z", 6)
    monkeypatch.setattr(character, "SCHUR_DIM_LIMIT", 5)  # no default holds the old limit
    with pytest.raises(ResourceLimitError, match=r"^y = 6 exceeds the z budget 5$"):
        character.require_within_budget(6, "y", "z")


def test_schur_domain_is_dim_up_to_the_budget(monkeypatch):
    # accepted exactly while dim <= SCHUR_DIM_LIMIT, also where the dense
    # (a+b+1)^2 multiplicity array would be over it; refused past it before
    # anything of its size is allocated, with the same message
    monkeypatch.setattr(character, "SCHUR_DIM_LIMIT", dim(DominantWeight(40, 0)))  # 861 < 41^2
    H = TorusPoint.from_alcove_coords(0.3, 1.1)
    assert chi_schur(DominantWeight(40, 0), H).value == pattern_fsum(DominantWeight(40, 0), H)
    with pytest.raises(ResourceLimitError, match="multiplicity-array budget"):
        multiplicities(DominantWeight(40, 0))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as err:
            chi_schur(DominantWeight(41, 0), H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == "dim(mu) = 903 exceeds the pattern-sum budget 861"
    assert peak < 4096


def pattern_fsum(mu, H) -> complex:
    """chi_schur's value pattern by pattern: math.fsum of the dim(mu) phases."""
    w1, w2, w3 = pattern_weights(mu.a, mu.b)
    th = H.theta
    angle = w1 * th[0] + w2 * th[1] + w3 * th[2]
    return complex(math.fsum(np.cos(angle).tolist()), math.fsum(np.sin(angle).tolist()))


def test_schur_equals_the_pattern_by_pattern_fsum_bitwise():
    # one phase per distinct weight times its multiplicity, split exactly,
    # rounds to the same bits as the sum over every pattern
    regular, near_wall = acceptance3_points()
    points = [TorusPoint((0.0, 0.0, 0.0))]
    points += [TorusPoint.from_alcove_coords(*t) for t in (
        (TWO_PI, 0.0), (0.0, TWO_PI),                  # central corners
        (0.0, 1.3), (2.1, 0.0), (1.7, TWO_PI - 1.7),   # exact wall hits
        (1e-7, 2e-7), (TWO_PI - 3e-6, 1e-6))]          # next to a corner
    points += regular[:20] + near_wall[:20]
    for a, b in ((7, 0), (0, 5), (2, 1), (12, 12), (20, 20)):
        mu = DominantWeight(a, b)
        for i, H in enumerate(points):
            assert chi_schur(mu, H).value == pattern_fsum(mu, H), (a, b, i)


def test_schur_table_is_the_support_of_the_multiplicities():
    for a in range(21):
        for b in range(21):
            m = multiplicities(DominantWeight(a, b))
            (w1, w2, w3, rest), ones = character._schur_table(a, b)
            mult = np.concatenate((np.ones(ones), rest))
            assert np.all(w1 == np.round(w1)) and np.all(w3 == np.round(w3))
            i1, i3 = w1.astype(np.int64), w3.astype(np.int64)
            assert np.array_equal(w2, (a + 2 * b) - w1 - w3)
            assert np.all(rest > 1)
            assert np.count_nonzero(m) == w1.size
            assert np.array_equal(m[i1, i3], mult), (a, b)


def test_descent_rejects_vanishing_complementary_wall():
    # H on the t2 = 0 wall; descending to wall 1 needs sin(t2/2) != 0
    H = TorusPoint.from_alcove_coords(2.0, 0.0)
    with pytest.raises(WallTooSmallError):
        descent_terms(DominantWeight(3, 2).shifted(), H, 1)


@pytest.mark.parametrize("t, j, root, wall", [
    ((2.0, 0.0), 0, "(2,3)", "0.000e+00"),
    ((2.0, 0.0), 1, "(2,3)", "0.000e+00"),
    ((0.0, 2.0), 0, "(1,2)", "0.000e+00"),
    ((0.0, 2.0), 2, "(1,2)", "0.000e+00"),
    ((2.0, TWO_PI - 2.0), 1, "(1,3)", "1.225e-16"),
    ((2.0, TWO_PI - 2.0), 2, "(1,3)", "1.225e-16"),
    # both complementary walls vanish: the lower-numbered one is named
    ((0.0, 0.0), 0, "(1,2)", "0.000e+00"),
    ((0.0, 0.0), 2, "(1,3)", "0.000e+00"),
])
def test_descent_refusal_names_the_vanishing_wall(t, j, root, wall):
    H = TorusPoint.from_alcove_coords(*t)
    with pytest.raises(WallTooSmallError) as err:
        descent_terms(DominantWeight(3, 2).shifted(), H, j)
    assert str(err.value) == (f"complementary wall {root} is singular "
                              f"(wall_norm {wall}); descend to a different wall")


# ---------------------------------------------------------------------------
# descent structure
# ---------------------------------------------------------------------------

@given(weights, torus_points(min_wall=0.05), st.sampled_from([0, 1, 2]))
def test_descent_matches_weyl_at_regular_points(mu, H, j):
    lam = mu.shifted()
    want = chi_weyl(lam, H).value
    got = descent_terms(lam, H, j).assembled()
    assert got == pytest.approx(want, abs=1e-8 * dim(mu))


@given(weights, st.floats(0.3, 5.5))
def test_descent_is_exact_on_its_wall(mu, t2):
    # exact hit of the t1 = 0 wall (wall index 1): compare to the oracle;
    # both complementary pairings degenerate to t2 here
    H = TorusPoint.from_alcove_coords(0.0, t2)
    assume(abs(math.sin(0.5 * t2)) > 0.05)
    ts = descent_terms(mu.shifted(), H, 1)
    want = chi_schur(mu, H).value
    assert ts.assembled() == pytest.approx(want, abs=1e-8 * dim(mu))


@given(weights, torus_points(min_wall=0.05))
def test_descent_term_invariants(mu, H):
    lam = mu.shifted()
    for j in (0, 1, 2):
        ts = descent_terms(lam, H, j)
        assert ts.j == j
        assert len(ts.terms) == 3
        for t in ts.terms:
            assert t.det in (-1, 1)
            assert abs(abs(t.phase) - 1.0) <= 1e-12
            assert isinstance(t.m, int)
        assert ts.char_value() == CharValue(ts.assembled(), f"descent{j}", ts.condition)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def test_dispatch_regular_uses_weyl():
    mu = DominantWeight(5, 2)
    H = TorusPoint((1.0, -0.3, -0.7))
    assert min(H.wall_norms()) >= 0.1
    cv = chi_stable(mu, H)
    assert cv.method == "weyl"
    assert cv.value == chi_weyl(mu.shifted(), H).value


def test_dispatch_near_wall_uses_descent_and_matches_oracle():
    mu = DominantWeight(5, 2)
    # <alpha0, H> = t1 + t2 - 2pi = -1e-9
    H = TorusPoint.from_alcove_coords(2.0, TWO_PI - 2.0 - 1e-9)
    cv = chi_stable(mu, H)
    assert cv.method == "descent0"
    want = chi_schur(mu, H).value
    assert cv.value == pytest.approx(want, abs=1e-6 * dim(mu))


def pattern_sum_40_digits(mu, theta) -> complex:
    """chi(mu, theta) as the Gelfand-Tsetlin phase sum in 40-digit
    arithmetic; theta is a triple of floats or 40-digit numbers."""
    import mpmath  # only the 40-digit oracles need it

    w1, w2, w3 = pattern_weights(mu.a, mu.b)
    with mpmath.workdps(40):
        th = [mpmath.mpf(x) for x in theta]
        total = mpmath.fsum(mpmath.expj(int(x) * th[0] + int(y) * th[1] + int(z) * th[2])
                            for x, y, z in zip(w1, w2, w3))
        return complex(total)


def theta_40_digits(t1: float, t2: float):
    """The angle triple of alcove coordinates (t1, t2), formed in 40 digits
    (theta_from_alcove without its roundings)."""
    import mpmath

    with mpmath.workdps(40):
        t1, t2 = mpmath.mpf(t1), mpmath.mpf(t2)
        return (2 * t1 + t2) / 3, (t2 - t1) / 3, -(t1 + 2 * t2) / 3


def weyl_quotients_40_digits(mus, theta):
    """chi(mu, theta) for each mu of mus as det(x_k^lambda_j) / det(x_k^rho_j),
    x = exp(i theta), lambda = mu + rho = (a+b+2, b+1, 0), in 40-digit
    arithmetic: exact but for the last digits wherever no wall vanishes."""
    import mpmath

    with mpmath.workdps(40):
        x = [mpmath.expj(t) for t in theta]
        den = (x[0] - x[1]) * (x[0] - x[2]) * (x[1] - x[2])
        out = []
        for mu in mus:
            p, q = ([mpmath.expj(ell * t) for t in theta] for ell in (mu.a + mu.b + 2, mu.b + 1))
            num = p[0] * (q[1] - q[2]) - p[1] * (q[0] - q[2]) + p[2] * (q[0] - q[1])
            out.append(complex(num / den))
        return out


def test_near_wall_descent_matches_a_40_digit_pattern_sum():
    # acceptance 3's near-wall points: chi_rank1 takes sin(m u) at u reduced
    # by the nearest multiple of pi; unreduced, (1,0) was 4.4e-9 dim off
    _, near_wall = acceptance3_points()
    for a, b in [(1, 0), (0, 1), (3, 0), (2, 1), (4, 4), (2, 7)]:
        mu = DominantWeight(a, b)
        methods = set()
        for H in near_wall:
            cv = chi_stable(mu, H)
            methods.add(cv.method)
            assert abs(cv.value - pattern_sum_40_digits(mu, H.theta)) <= 1e-13 * dim(mu), (mu, H)
        assert methods == {"descent0", "descent1", "descent2"}


def test_dispatch_near_corner_uses_schur():
    mu = DominantWeight(5, 2)
    H = TorusPoint.from_alcove_coords(1e-8, 1e-8)
    cv = chi_stable(mu, H)
    assert cv.method == "schur"
    assert cv.value == pytest.approx(complex(dim(mu)), rel=1e-6)


def test_dispatch_at_exact_zero():
    for a, b in [(0, 0), (7, 3), (30, 30)]:
        mu = DominantWeight(a, b)
        assert chi_stable(mu, TorusPoint((0.0, 0.0, 0.0))).value == complex(dim(mu))


@given(weights, torus_points())
def test_chi_is_bounded_by_dimension(mu, H):
    cv = chi_stable(mu, H)
    assert abs(cv.value) <= dim(mu) * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

@given(weights, torus_points(), st.sampled_from(range(6)))
def test_weyl_invariance_in_H(mu, H, si):
    s = WEYL_GROUP[si]
    a = chi_stable(mu, H).value
    b = chi_stable(mu, weyl_act_torus(s, H)).value
    assert b == pytest.approx(a, abs=1e-8 * dim(mu))


@given(weights, torus_points(min_wall=0.05), st.sampled_from(range(6)))
def test_antisymmetry_in_the_weight(mu, H, si):
    s = WEYL_GROUP[si]
    lam = mu.shifted()
    a = chi_weyl(lam, H).value
    b = chi_weyl(weyl_act_weight(s, lam), H).value
    assert b == pytest.approx(s.sign * a, abs=1e-8 * dim(mu))


@given(weights, torus_points())
def test_conjugation_symmetry(mu, H):
    swapped = DominantWeight(mu.b, mu.a)
    a = chi_stable(mu, H).value
    b = chi_stable(swapped, H).value
    assert b.conjugate() == pytest.approx(a, abs=1e-10 * dim(mu))


# ---------------------------------------------------------------------------
# grid evaluation
# ---------------------------------------------------------------------------

def test_grid_matches_scalar_dispatch():
    mu = DominantWeight(6, 3)
    t1 = np.array([1.3, 0.0, 1e-6, 2.0, 1e-9, 0.5])
    t2 = np.array([0.9, 2.2, 2.0, 0.0, 1e-9, TWO_PI - 0.5])
    vals, methods = chi_on_grid(mu, t1, t2)
    for i in range(t1.size):
        cv = chi_stable(mu, TorusPoint.from_alcove_coords(float(t1[i]), float(t2[i])))
        assert GRID_METHOD_NAMES[methods[i]] == cv.method
        assert vals[i] == pytest.approx(cv.value, abs=1e-9 * dim(mu))


def test_grid_handles_exact_wall_zeros():
    mu = DominantWeight(4, 4)
    t1 = np.array([0.0, 0.0, 3.0])
    t2 = np.array([0.0, 2.0, -3.0])  # (3.0, -3.0) has t1 + t2 == 0 exactly
    vals, methods = chi_on_grid(mu, t1, t2)
    assert vals[0] == complex(dim(mu))
    assert GRID_METHOD_NAMES[methods[0]] == "schur"
    assert GRID_METHOD_NAMES[methods[1]] == "descent1"
    assert GRID_METHOD_NAMES[methods[2]] == "descent0"
    assert np.isfinite(vals).all()


def test_grid_multiplicity_sum_for_huge_dims():
    mu = DominantWeight(512, 512)  # dim ~ 1.35e8, beyond the GT pattern budget
    t1 = np.array([1.5e-3, 1.0])
    t2 = np.array([1.5e-3, 1.2])
    vals, methods = chi_on_grid(mu, t1, t2)
    assert GRID_METHOD_NAMES[methods[0]] == "schur"
    assert GRID_METHOD_NAMES[methods[1]] == "weyl"
    # 1.5e-3 from the corner the Weyl quotient is still accurate to ~1e-14*dim
    ref = chi_weyl(mu.shifted(), TorusPoint.from_alcove_coords(1.5e-3, 1.5e-3))
    assert abs(vals[0] - ref.value) <= 1e-13 * dim(mu)


def test_grid_exact_corner_with_huge_dim_is_dim():
    mu = DominantWeight(512, 512)
    vals, methods = chi_on_grid(mu, np.array([0.0]), np.array([0.0]))
    assert GRID_METHOD_NAMES[methods[0]] == "schur"
    assert vals[0] == complex(dim(mu))


def test_multiplicity_budget_trips_before_allocating():
    mu = DominantWeight(4000, 4000)  # (a+b+1)^2 ~ 6.4e7 entries
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="multiplicity-array budget"):
            multiplicities(mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_grid_multi_wall_route_past_the_multiplicity_budget():
    # the grid's pattern sum needs no multiplicity array: O(a+b) per point
    mu = DominantWeight(4000, 4000)
    d = dim(mu)
    vals, methods = chi_on_grid(mu, np.array([0.0, 1.5e-3]), np.array([0.0, 1.5e-3]))
    assert [GRID_METHOD_NAMES[m] for m in methods] == ["schur", "schur"]
    assert vals[0] == complex(d)
    ref = chi_weyl(mu.shifted(), TorusPoint.from_alcove_coords(1.5e-3, 1.5e-3))
    assert abs(vals[1] - ref.value) <= 1e-13 * d


def test_grid_multi_wall_tables_trip_before_allocating():
    # one weight's tables hold a+b+1 entries a point: past 10^7 is refused
    t = np.array([0.0])
    assert chi_on_grid(DominantWeight(10**7 - 1, 0), t, t)[0][0] == dim(DominantWeight(10**7 - 1, 0))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="multi-wall tables"):
            chi_on_grid(DominantWeight(10**7, 0), t, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_grid_multi_wall_values_match_the_pattern_oracle():
    # the multiplicity contraction against the GT pattern sum, every a+b <= 20
    rng = np.random.default_rng(11)
    k = 12
    r = 10.0 ** rng.uniform(-6.0, -3.2, k)
    phi = rng.uniform(0.05, 1.5, k)
    dx, dy = r * np.cos(phi), r * np.sin(phi)
    corner = np.arange(k) % 3
    t1 = np.concatenate(([0.0, 0.0, TWO_PI], np.where(corner == 1, TWO_PI - dx - dy, dx)))
    t2 = np.concatenate(([0.0, TWO_PI, 0.0], np.where(corner == 2, TWO_PI - dx - dy, dy)))
    omega = cmath.exp(2j * math.pi / 3.0)
    for s in range(21):
        for a in range(s + 1):
            mu = DominantWeight(a, s - a)
            d = dim(mu)
            vals, methods = chi_on_grid(mu, t1, t2)
            assert all(GRID_METHOD_NAMES[m] == "schur" for m in methods)
            assert vals[0] == complex(d)
            # t = (0, 2pi) and (2pi, 0): dim * omega^(+-(a-b))
            assert abs(vals[1] - d * omega ** (a - mu.b)) <= 1e-13 * d
            assert abs(vals[2] - d * omega ** (mu.b - a)) <= 1e-13 * d
            for i in range(3, t1.size):
                H = TorusPoint.from_alcove_coords(float(t1[i]), float(t2[i]))
                assert abs(vals[i] - chi_schur(mu, H).value) <= 1e-13 * d, (a, i)


def test_grid_pattern_sum_does_not_depend_on_batch_size():
    # each point's pattern sum is bit-identical whether it arrives alone or
    # in a batch that spans several pattern chunks and point blocks
    mu = DominantWeight(20, 20)  # dim 9261: three pattern chunks
    rng = np.random.default_rng(5)
    k = 1500
    r = rng.uniform(1e-5, 5e-4, k)
    phi = rng.uniform(0.05, 1.5, k)
    dx, dy = r * np.cos(phi), r * np.sin(phi)
    corner = np.arange(k) % 3
    t1 = np.where(corner == 1, TWO_PI - dx - dy, dx)
    t2 = np.where(corner == 2, TWO_PI - dx - dy, dy)
    vals, methods = chi_on_grid(mu, t1, t2)
    assert all(GRID_METHOD_NAMES[m] == "schur" for m in methods)
    for i in range(0, k, 30):
        one, _ = chi_on_grid(mu, t1[i:i + 1], t2[i:i + 1])
        assert one[0] == vals[i], i


def test_grid_multi_wall_points_over_several_tables_match_one_point_calls():
    # 3 000 points within 5e-4 of H = 0 at (60, 60) need two exponential
    # tables of GRID_BLOCK entries; a point's bits do not depend on its table
    mu = DominantWeight(60, 60)
    rng = np.random.default_rng(8)
    k = 3000
    assert k * (mu.a + mu.b + 1) > GRID_BLOCK
    r = rng.uniform(0.0, 5e-4, k)
    phi = rng.uniform(0.0, 0.5 * math.pi, k)
    t1, t2 = r * np.cos(phi), r * np.sin(phi)
    vals, methods = chi_on_grid(mu, t1, t2)
    assert all(GRID_METHOD_NAMES[m] == "schur" for m in methods)
    for i in range(0, k, 125):
        one, _ = chi_on_grid(mu, t1[i:i + 1], t2[i:i + 1])
        assert one.tobytes() == vals[i:i + 1].tobytes(), i
    d = dim(mu)
    for i in (0, 1500, k - 1):
        H = TorusPoint.from_alcove_coords(float(t1[i]), float(t2[i]))
        assert abs(vals[i] - chi_schur(mu, H).value) <= 1e-13 * d, i


def test_grid_values_do_not_depend_on_the_call_size():
    # 20 000 points in one call, bit for bit equal to 1 000-point calls: the
    # complex products keep their operand order however large the arrays
    rng = np.random.default_rng(2)
    u, v = rng.uniform(0.0, 1.0, (2, 20_000))
    flip = u + v > 1.0
    u[flip], v[flip] = 1.0 - u[flip], 1.0 - v[flip]
    t1, t2 = TWO_PI * u, TWO_PI * v
    t1[:300] = 0.0  # descent points on an exact wall
    for mu in (DominantWeight(3, 1), DominantWeight(12, 7)):
        vals, methods = chi_on_grid(mu, t1, t2)
        assert set(methods.tolist()) >= {0, 2}
        parts = np.concatenate([chi_on_grid(mu, t1[i:i + 1000], t2[i:i + 1000])[0]
                                for i in range(0, t1.size, 1000)])
        assert vals.tobytes() == parts.tobytes(), mu


def test_grid_method_partition_thresholds():
    mu = DominantWeight(2, 2)
    eps = EPS_WALL / 2.0
    vals, methods = chi_on_grid(
        mu,
        np.array([1.0, eps, eps]),
        np.array([1.0, 1.0, eps]),
    )
    names = [GRID_METHOD_NAMES[m] for m in methods]
    assert names == ["weyl", "descent1", "schur"]


# (walls, route code): walls below, at and above EPS_WALL
_LO, _AT, _HI = 0.5 * EPS_WALL, EPS_WALL, 2.0 * EPS_WALL
ROUTE_TABLE = [
    ((_HI, _HI, _HI), 0),
    ((_LO, _HI, _HI), 1), ((_HI, _LO, _HI), 2), ((_HI, _HI, _LO), 3),
    ((0.0, _HI, _HI), 1), ((_HI, 0.0, 1.0), 2),
    ((_LO, _LO, _HI), 4), ((_LO, _HI, _LO), 4), ((_HI, _LO, _LO), 4),
    ((_LO, _LO, _LO), 4), ((0.0, 0.0, 0.0), 4),
    # a wall equal to EPS_WALL is not below it
    ((_AT, _AT, _AT), 0), ((_AT, _HI, _HI), 0), ((_LO, _AT, _HI), 1),
    ((_AT, _LO, _AT), 2), ((_AT, _AT, _LO), 3), ((_LO, _LO, _AT), 4),
]


def test_route_codes_on_floats_and_on_an_array():
    for walls, code in ROUTE_TABLE:
        assert character._route(walls) == code, walls
    codes = character._route(np.array([walls for walls, _ in ROUTE_TABLE]).T)
    assert codes.tolist() == [code for _, code in ROUTE_TABLE]


# ---------------------------------------------------------------------------
# phase rows and the grid Weyl route against 40-digit oracles
# ---------------------------------------------------------------------------

def phase_row_angles():
    """Angles of the kinds the grid rows use: t1 and -t2 up to 2 pi, the
    common phase's (t2 - t1)/3, and small ones."""
    rng = np.random.default_rng(41)
    return np.concatenate((rng.uniform(-TWO_PI, TWO_PI, 12), 10.0 ** rng.uniform(-6.0, 0.0, 4)))


def test_phase_rows_to_three_are_exponentials_bit_for_bit():
    x = phase_row_angles()
    rows = _PhaseRows(x)
    for k in range(4):
        assert rows[k].tobytes() == np.exp(1j * (k * x)).tobytes(), k
        assert rows.row(k).tobytes() == rows[k].tobytes(), k


def test_phase_row_bits_do_not_depend_on_the_reading_order():
    x = phase_row_angles()
    first, ascending, lean = _PhaseRows(x), _PhaseRows(x), _PhaseRows(x)
    row41 = first[41]
    rows = [ascending[k] for k in range(42)]
    assert row41.tobytes() == rows[41].tobytes()
    assert lean.row(41).tobytes() == row41.tobytes()
    # 41 = 32 + 9 and 9 = 8 + 1: row() keeps the base and power-of-two rows
    # of its chain only, a read keeps the row read as well
    assert sorted(lean) == [1, 2, 4, 8, 16, 32]
    assert sorted(first) == [1, 2, 4, 8, 16, 32, 41]
    for k in sorted(first):
        assert first[k].tobytes() == rows[k].tobytes(), k


def test_phase_rows_to_1026_are_within_the_measured_bound_of_a_40_digit_exponential():
    # measured: rows k <= 3 within 4.04 ulp (3x rounds); each product at most
    # doubles the error of its factors, so larger rows grow linearly, by
    # 0.2325 ulp per unit k beyond that (241 ulp at k = 1024).  exp(i fl(kx))
    # rounds kx instead: 2 000 ulp at k = 1 000 for |x| near 2 pi.  The
    # oracle is rounded to double, which adds up to 0.71 ulp.
    import mpmath

    x = phase_row_angles()
    rows = _PhaseRows(x)
    with mpmath.workdps(40):
        xs = [mpmath.mpf(float(v)) for v in x]
        for k in range(1027):
            want = np.array([complex(mpmath.expj(k * v)) for v in xs])
            assert np.abs(rows[k] - want).max() <= (4.04 + 0.2325 * k) * 2.0**-52, k


def test_a_one_weight_chunk_keeps_no_phase_rows():
    # chi_on_grid's chunk of one weight forms its rows afresh, so that no
    # chain row outlives its read; a larger chunk keeps the rows it reads
    # and the base and power-of-two rows of their chains for the chunks
    # after it, and of the common phase only the base rows.  Both give the
    # same bits
    rng = np.random.default_rng(6)
    t1, t2 = rng.uniform(1.0, 2.0, (2, 64))
    geom = _GridGeometry(t1, t2)
    one = geom.chi(_GridChunk([DominantWeight(20, 7)]))
    (weyl,) = geom.routes
    assert len(weyl.p1) == len(weyl.p2) == len(weyl.common) == 0
    two = geom.chi(_GridChunk([DominantWeight(20, 7), DominantWeight(3, 1)]))
    assert sorted(weyl.p1) == sorted(weyl.p2) == [1, 2, 4, 6, 8, 16, 29]
    assert sorted(weyl.common) == [1, 2]
    assert two[0].tobytes() == one[0].tobytes()


# chi_on_grid((0,0)) at five Weyl points of the seed-7 default grid, three
# corner rays and two interior points, as (t1, t2, re, im) in float.hex,
# taken with one complex exponential per phase row: rows k <= 3 keep those
# bits, and (0,0) reads no other row
TRIVIAL_GOLDEN = [
    ("0x1.bf40aec95e655p-6", "0x1.3ccdd123f8327p-3", "0x1.ffffffffffeeap-1", "0x1.1ab25b36a9d83p-43"),
    ("0x1.171dbdd0bb0a9p-4", "0x1.21d9f658c23c4p-3", "0x1.0000000000022p+0", "-0x1.b074d98def8a0p-45"),
    ("0x1.c6f382afbd16dp-4", "0x1.c6f382afbd16dp-4", "0x1.000000000001dp+0", "0x0.0p+0"),
    ("0x1.d244bf9707b0ap+1", "0x1.30f42f7b61721p-7", "0x1.000000000000ep+0", "0x1.4c834e335dea9p-49"),
    ("0x1.149520d47ee1cp+0", "0x1.f1e8d72d3fb76p-2", "0x1.ffffffffffffdp-1", "-0x1.306fb5d9209c8p-54"),
]


def test_trivial_character_on_the_grid_keeps_its_golden_bits():
    t1, t2 = (np.array([float.fromhex(p[c]) for p in TRIVIAL_GOLDEN]) for c in (0, 1))
    vals, methods = chi_on_grid(DominantWeight(0, 0), t1, t2)
    assert methods.tolist() == [0] * len(TRIVIAL_GOLDEN)
    assert [(v.real.hex(), v.imag.hex()) for v in vals.tolist()] == [p[2:] for p in TRIVIAL_GOLDEN]


def test_grid_weyl_route_is_within_its_measured_bound_of_a_40_digit_oracle():
    # the Weyl points of the seed-7 default grid: every corner ray and every
    # 10th other point, theta formed from the grid's (t1, t2) in 40 digits.
    # Bounds (x dim) as measured; the worst point of each weight is a corner
    # ray, where the quotient divides by 8 s1 s2 s3, the same on all 7 893
    # Weyl points.  With one complex exponential per phase row they were
    # 5.9e-12, 9.8e-13, 1.5e-13, 5.8e-13 and 6.0e-13.
    bounds = {(5, 2): 3.06e-12, (13, 6): 8.11e-13, (20, 20): 6.74e-14, (30, 10): 1.84e-13,
              (40, 0): 3.25e-13}
    mus = [DominantWeight(a, b) for a, b in bounds]
    grid = build_grid(GridSpec(), 7)
    weyl = np.nonzero(chi_on_grid(DominantWeight(0, 0), grid.t1, grid.t2)[1] == 0)[0]
    rays = [i for i in weyl.tolist() if grid.stratum[i] == "corner_ray"]
    rest = [i for i in weyl.tolist() if grid.stratum[i] != "corner_ray"][::10]
    assert len(rays) == 28 and len(rest) == 787
    idx = np.array(rays + rest)
    thetas = [theta_40_digits(grid.t1[i], grid.t2[i]) for i in idx.tolist()]
    want = np.array([weyl_quotients_40_digits(mus, th) for th in thetas]).T
    for mu, row in zip(mus, want):
        vals, methods = chi_on_grid(mu, grid.t1[idx], grid.t2[idx])
        assert np.all(methods == 0)
        err = np.abs(vals - row) / dim(mu)
        assert err.max() <= bounds[(mu.a, mu.b)], mu
        assert grid.stratum[idx[np.argmax(err)]] == "corner_ray", mu
    # the quotient oracle is the 40-digit pattern sum at the corner rays
    for th, got in zip(thetas[:28], want[0, :28]):
        assert abs(got - pattern_sum_40_digits(mus[0], th)) <= 1e-25 * dim(mus[0])
