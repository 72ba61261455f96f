import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from su3char import (
    EXTENDED_ROOTS,
    WEYL_GROUP,
    DominantWeight,
    GridSpec,
    TorusPoint,
    build_grid,
    c_of_H,
    chi_on_grid,
    chi_schur,
    chi_stable,
    dim,
    envelope_min,
    pointwise_singular_bound,
    rank1_bound_margin,
    ratio,
    sweep_constant,
)
from su3char import bounds
from test_cartan import pairing_weight_root, wall_norm, weyl_act_torus, weyl_act_weight
from su3char.bounds import (
    CHUNK_WEIGHTS,
    SWEEP_BLOCK,
    _argmax_key,
    _envelope_min_grid,
    mu_shells,
    rank1_margin_min,
)
from su3char.character import (
    EPS_WALL,
    GRID_METHOD_NAMES,
    RANK1_SIN_SWITCH,
    ResourceLimitError,
    _GridGeometry,
)

TWO_PI = 2.0 * math.pi
ZERO = TorusPoint((0.0, 0.0, 0.0))

weights = st.builds(DominantWeight, st.integers(0, 20), st.integers(0, 20))


@st.composite
def torus_points(draw):
    t1 = draw(st.floats(0.0, TWO_PI))
    t2 = draw(st.floats(0.0, 1.0)) * (TWO_PI - t1)
    return TorusPoint.from_alcove_coords(t1, t2)


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

def test_envelope_at_zero_is_twelve_dim():
    # every wall_norm vanishes, so each factor takes the pairing branch and
    # each of the six terms is (a+1)(b+1)(a+b+2) = 2*dim
    for a, b in [(0, 0), (3, 1), (17, 9)]:
        mu = DominantWeight(a, b)
        assert envelope_min(mu, ZERO).min_form == 12.0 * dim(mu)
        assert _envelope_reference(mu, ZERO)[2] == tuple([2.0 * dim(mu)] * 6)


def test_envelope_at_central_direction():
    H = TorusPoint((2 * math.pi / 3, 0.0, -2 * math.pi / 3))
    env = envelope_min(DominantWeight(0, 0), H)
    assert env.min_form == pytest.approx(12.0 / math.sqrt(3.0), rel=1e-14)


def test_envelope_saturates_to_inverse_walls():
    # walls all >= 1/(a+b+2) here, so every factor picks the 1/wall branch
    mu = DominantWeight(10, 10)
    H = TorusPoint.from_alcove_coords(2.0, 2.0)
    w = H.wall_norms()
    assert min(w) > 1.0 / (mu.a + mu.b + 2)
    env = envelope_min(mu, H)
    assert env.min_form == pytest.approx(6.0 / (w[0] * w[1] * w[2]), rel=1e-12)


@given(weights, torus_points(), st.sampled_from(range(6)))
def test_envelope_weyl_invariance(mu, H, si):
    s = WEYL_GROUP[si]
    a = envelope_min(mu, H)
    b = envelope_min(mu, weyl_act_torus(s, H))
    assert b.min_form == pytest.approx(a.min_form, rel=1e-10)


@given(weights, torus_points())
def test_envelope_positive_and_product_form_within_factor_eight(mu, H):
    env = envelope_min(mu, H)
    product_form = _envelope_reference(mu, H)[1]
    assert env.min_form > 0.0
    assert product_form <= env.min_form * (1 + 1e-12)
    assert product_form >= env.min_form / 8.0 * (1 - 1e-12)


def _envelope_reference(mu, H):
    """The module docstring's sum, each Weyl image and pairing worked out
    per element, with the factors multiplied in the same order as
    envelope_min: (min_form, product_form, per_weyl_terms).

    product_form replaces each factor min(x, 1/y) by x/(1 + x*y); every
    factor obeys min(x,1/y)/2 <= x/(1+x*y) <= min(x,1/y), so the two forms
    agree within a factor of 8 termwise.
    """
    lam = mu.shifted()
    walls = [wall_norm(H, alpha) for alpha in EXTENDED_ROOTS]
    terms, prods = [], []
    for s in WEYL_GROUP:
        image = weyl_act_weight(s, lam)
        t = p = 1.0
        for alpha, y in zip(EXTENDED_ROOTS, walls):
            x = float(abs(pairing_weight_root(image, alpha)))
            t *= x if y < 1e-300 else min(x, 1.0 / y)
            p *= x / (1.0 + x * y)
        terms.append(t)
        prods.append(p)
    return math.fsum(terms), math.fsum(prods), tuple(terms)


# exact wall hits, a wall norm below the 1e-300 cut, and interior points
wall_or_interior_t = st.one_of(st.sampled_from([0.0, 1e-310]), st.floats(0.0, TWO_PI))


@given(
    st.builds(DominantWeight, st.integers(0, 500), st.integers(0, 500)),
    wall_or_interior_t,
    wall_or_interior_t,
)
@example(DominantWeight(3, 1), 0.0, 0.0)  # H = 0
@example(DominantWeight(7, 2), 0.0, 1.3)  # t1 = 0
@example(DominantWeight(2, 9), 2.1, 0.0)  # t2 = 0
@example(DominantWeight(5, 5), 2.0, TWO_PI - 2.0)  # the far wall, to rounding
def test_envelope_matches_the_per_element_sum_bit_for_bit(mu, t1, t2):
    H = TorusPoint.from_alcove_coords(t1, min(t2, TWO_PI - t1))
    assert envelope_min(mu, H).min_form == _envelope_reference(mu, H)[0]


@given(weights)
def test_envelope_grid_matches_scalar(mu):
    pts = [(0.0, 0.0), (1.0, 2.0), (0.0, 3.0), (1e-9, 1e-9), (2.0, TWO_PI - 2.0)]
    t1 = np.array([p[0] for p in pts])
    t2 = np.array([p[1] for p in pts])
    grid_vals = _envelope_min_grid(mu, t1, t2)
    for i, (x, y) in enumerate(pts):
        want = envelope_min(mu, TorusPoint.from_alcove_coords(x, y)).min_form
        assert grid_vals[i] == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# c(H) and the pointwise bound
# ---------------------------------------------------------------------------

def test_c_of_H_examples():
    assert c_of_H(ZERO) == 0.0
    assert c_of_H(TorusPoint((math.pi, -math.pi, 0.0))) == pytest.approx(1.0, abs=1e-15)
    H = TorusPoint((2 * math.pi / 3, 0.0, -2 * math.pi / 3))
    assert c_of_H(H) == pytest.approx(0.75, rel=1e-14)


def test_c_of_H_vanishes_only_at_central_points():
    # the other two central elements: theta = +-(2pi/3)(1,1,-2)
    H = TorusPoint((2 * math.pi / 3, 2 * math.pi / 3, -4 * math.pi / 3))
    assert c_of_H(H) == pytest.approx(0.0, abs=1e-15)


def test_pointwise_bound_example():
    bound = pointwise_singular_bound(DominantWeight(0, 0), TorusPoint((math.pi, -math.pi, 0.0)))
    assert bound.value == pytest.approx(0.5, rel=1e-14)
    assert bound.legacy_value == pytest.approx(1.0, rel=1e-14)


def test_pointwise_bound_rejects_central_H():
    with pytest.raises(ValueError):
        pointwise_singular_bound(DominantWeight(2, 2), ZERO)


@given(st.integers(1, 40))
def test_pointwise_bound_improves_on_legacy_on_the_diagonal(n):
    # for mu = (N,N) the new bound wins by ~ mu_min^{1/2}
    mu = DominantWeight(n, n)
    H = TorusPoint((math.pi, -math.pi, 0.0))
    b = pointwise_singular_bound(mu, H)
    assert b.value < b.legacy_value


# ---------------------------------------------------------------------------
# ratio records
# ---------------------------------------------------------------------------

def test_ratio_at_zero_is_exactly_one_twelfth():
    for a, b in [(0, 0), (2, 5), (30, 30)]:
        rec = ratio(DominantWeight(a, b), ZERO)
        assert rec.ratio == 1.0 / 12.0
        assert rec.method == "schur"
        assert rec.abs_chi == float(dim(DominantWeight(a, b)))


@given(torus_points())
def test_trivial_weight_ratio_below_one(H):
    rec = ratio(DominantWeight(0, 0), H)
    assert 0.0 < rec.ratio <= 1.0
    assert rec.envelope > 0.0
    assert rec.ratio == rec.abs_chi / rec.envelope


# ---------------------------------------------------------------------------
# rank-one margin
# ---------------------------------------------------------------------------

def test_rank1_margin_examples():
    assert rank1_bound_margin(1, math.pi / 2) == pytest.approx(1.0, abs=1e-12)
    assert rank1_bound_margin(5, math.pi / 6) == pytest.approx(2.0, abs=1e-12)
    # n = 0: margin vanishes exactly where |sin| = 1
    assert rank1_bound_margin(0, math.pi / 2) == 0.0
    assert rank1_bound_margin(0, 0.3) >= 0.0
    with pytest.raises(ValueError):
        rank1_bound_margin(-1, 0.5)


def test_rank1_margin_array_matches_scalar():
    thetas = np.linspace(0.05, math.pi - 0.05, 11)
    arr = rank1_bound_margin(7, thetas)
    for i, th in enumerate(thetas):
        assert arr[i] == pytest.approx(rank1_bound_margin(7, float(th)), abs=1e-14)


def test_rank1_margin_min_equals_the_per_n_loop():
    # the sweep's one set of rows against a fresh rank1_bound_margin per n
    # (the rank1 command's former loop), bit for bit; the angles with
    # |sin| < RANK1_SIN_SWITCH make the near-pole recurrence run and extend
    thetas = np.concatenate((
        [0.0, 3e-9, math.pi - 2e-9, math.pi, 1e-300],
        math.pi * np.arange(1, 400) / 400.0,
    ))
    assert np.count_nonzero(np.abs(np.sin(thetas)) < RANK1_SIN_SWITCH) == 5
    for n_max in (0, 1, 57):
        best, arg_n, arg_theta = math.inf, -1, math.nan
        for n in range(n_max + 1):
            margins = rank1_bound_margin(n, thetas)
            i = int(np.argmin(margins))
            if margins[i] < best:
                best, arg_n, arg_theta = float(margins[i]), n, float(thetas[i])
        got = rank1_margin_min(n_max, thetas)
        assert got == (best, arg_n, arg_theta)
        assert math.copysign(1.0, got[0]) == math.copysign(1.0, best)
    rows = bounds._rank1_margins(thetas, range(58))
    for n, row in enumerate(rows):
        assert row.tobytes() == rank1_bound_margin(n, thetas).tobytes(), n


@pytest.mark.parametrize("fn, n", [(rank1_bound_margin, -1), (rank1_margin_min, -1),
                                   (rank1_margin_min, -5)], ids=lambda x: getattr(x, "__name__", x))
def test_rank1_entry_points_refuse_a_negative_n(fn, n):
    # rank1_margin_min(-1) swept no n and returned (inf, -1, nan)
    with pytest.raises(ValueError, match="n must be >= 0"):
        fn(n, np.linspace(0.1, 3.0, 5))


@given(st.integers(0, 60), st.floats(1e-4, math.pi - 1e-4))
def test_rank1_margin_nonnegative(n, theta):
    assert rank1_bound_margin(n, theta) >= -1e-12


# ---------------------------------------------------------------------------
# grid construction and the sweep
# ---------------------------------------------------------------------------

def test_grid_strata_counts_and_exact_hits():
    spec = GridSpec(total=2000, wall_points_per_edge=100, chamber_wall_points=50,
                    corner_scales=4, corner_rays=3)
    grid = build_grid(spec, seed=7)
    assert len(grid.stratum) == spec.total
    assert grid.t1[0] == 0.0 and grid.t2[0] == 0.0  # H = 0 first

    by = {}
    for lab in grid.stratum:
        by[lab] = by.get(lab, 0) + 1
    assert by["corner_exact"] == 3
    assert by["corner_ray"] == 3 * 4 * 3
    assert by["wall_t1"] == by["wall_t2"] == by["wall_far"] == 100
    assert by["chamber_alpha0"] == 50
    assert by["interior"] == spec.interior_points()

    lab = np.array(grid.stratum)
    assert (grid.t1[lab == "wall_t1"] == 0.0).all()
    assert (grid.t2[lab == "wall_t2"] == 0.0).all()
    # chamber stratum hits <alpha0, H> = 0 in exact floating point
    cham = lab == "chamber_alpha0"
    assert (grid.t1[cham] + grid.t2[cham] == 0.0).all()


def test_grid_is_seed_deterministic():
    spec = GridSpec(total=500, wall_points_per_edge=50, chamber_wall_points=20,
                    corner_scales=3, corner_rays=2)
    g1 = build_grid(spec, seed=42)
    g2 = build_grid(spec, seed=42)
    assert np.array_equal(g1.t1, g2.t1) and np.array_equal(g1.t2, g2.t2)
    g3 = build_grid(spec, seed=43)
    assert not np.array_equal(g1.t1, g3.t1)


def test_grid_spec_rejects_overfull_strata():
    with pytest.raises(ValueError):
        GridSpec(total=10).interior_points()


@pytest.mark.parametrize("field, kw", [
    # corner_scales = -1 once padded the interior: 115 points for total = 100
    ("corner_scales", dict(total=100, wall_points_per_edge=0, chamber_wall_points=0,
                           corner_scales=-1, corner_rays=5)),
    ("corner_rays", dict(corner_rays=-3)),
])
def test_grid_spec_refuses_negative_strata(field, kw):
    with pytest.raises(ValueError, match=f"GridSpec.{field} must be >= 0"):
        GridSpec(**kw)


def test_default_mu_set_shape():
    mus = list(mu_shells(4, 8))
    shells = {}
    for mu in mus:
        shells.setdefault(mu.a + mu.b, []).append(mu)
    assert set(shells) == set(range(9))
    for s in range(5):
        assert len(shells[s]) == s + 1  # dense below the cutoff
    for s in range(5, 9):
        assert len(shells[s]) <= s + 1
        assert DominantWeight(0, s) in shells[s]
        assert DominantWeight(s, 0) in shells[s]


def test_sweep_small_is_deterministic_and_sane(monkeypatch):
    spec = GridSpec(total=400, wall_points_per_edge=40, chamber_wall_points=30,
                    corner_scales=3, corner_rays=3)
    mus = list(mu_shells(2, 2))
    monkeypatch.setenv("SU3CHAR_THREADS", "1")
    rep1 = sweep_constant(mus, spec, seed=11)
    monkeypatch.setenv("SU3CHAR_THREADS", "3")
    rep2 = sweep_constant(mus, spec, seed=11)
    assert rep1 == rep2  # thread count must not change anything
    assert rep1.finite_ok
    assert rep1.ratio_at_zero_exact
    assert rep1.c_emp == max(r.ratio for r in rep1.per_mu)
    assert rep1.mu_count == len(mus)
    assert rep1.grid_total == 400
    assert rep1.convention == "alpha_sq_2"
    shell_ids = [row["shell"] for row in rep1.shells]
    assert shell_ids == sorted(set(mu.a + mu.b for mu in mus))


def test_sweep_rejects_an_empty_weight_list():
    with pytest.raises(ValueError, match="at least one weight"):
        sweep_constant([], GridSpec(total=400, wall_points_per_edge=40,
                                    chamber_wall_points=30, corner_scales=3, corner_rays=3))


def test_grid_point_bits_do_not_depend_on_the_block():
    # chi and the envelope of every corner point and of points of every
    # other stratum, alone and in the full default grid (ten sweep blocks)
    grid = build_grid(GridSpec(), seed=7)
    starts = list(range(123)) + [123, 400, 623, 1123, 1500, 1623, 2123, 2500, 2623, 5000, 9999]
    for mu in (DominantWeight(0, 0), DominantWeight(0, 1), DominantWeight(3, 1),
               DominantWeight(12, 7), DominantWeight(20, 20)):
        vals, methods = chi_on_grid(mu, grid.t1, grid.t2)
        env = _envelope_min_grid(mu, grid.t1, grid.t2)
        for i in starts:
            one, m1 = chi_on_grid(mu, grid.t1[i:i + 1], grid.t2[i:i + 1])
            assert m1[0] == methods[i]
            assert one[0] == vals[i], (mu, i, grid.stratum[i])
            assert _envelope_min_grid(mu, grid.t1[i:i + 1], grid.t2[i:i + 1])[0] == env[i]
    assert set(grid.stratum[i] for i in starts) == set(grid.stratum)


def test_multi_block_sweep_is_thread_invariant_and_matches_the_full_grid(monkeypatch):
    spec = GridSpec(total=2500, wall_points_per_edge=200, chamber_wall_points=150,
                    corner_scales=4, corner_rays=3)
    assert spec.total > 2 * SWEEP_BLOCK  # three blocks
    mus = list(mu_shells(4, 6))
    assert len(mus) > 2 * CHUNK_WEIGHTS  # three weight chunks
    assert max(Counter(mu.a + 2 * mu.b for mu in mus).values()) >= 2  # chunks share degrees
    monkeypatch.setenv("SU3CHAR_THREADS", "1")
    rep1 = sweep_constant(mus, spec, seed=3)
    monkeypatch.setenv("SU3CHAR_THREADS", "3")
    rep3 = sweep_constant(mus, spec, seed=3)
    assert rep1 == rep3
    monkeypatch.setenv("SU3CHAR_THREADS", "1")
    # a weight's record does not depend on the weights chunked with it
    assert sweep_constant(mus[::-1], spec, seed=3).per_mu == rep1.per_mu[::-1]
    for mu, rec in zip(mus, rep1.per_mu):
        assert sweep_constant([mu], spec, seed=3).per_mu == (rec,)
    grid = build_grid(spec, seed=3)
    for mu, rec in zip(mus, rep1.per_mu):
        vals, methods = chi_on_grid(mu, grid.t1, grid.t2)
        ratios = np.abs(vals) / _envelope_min_grid(mu, grid.t1, grid.t2)
        i = int(np.argmax(ratios))
        assert (rec.t1, rec.t2, rec.ratio) == (grid.t1[i], grid.t2[i], ratios[i])
        assert rec.method == GRID_METHOD_NAMES[methods[i]]


def test_grid_descent_points_match_the_pattern_oracle():
    # every descent point of the default grid: exact wall hits, the chamber
    # wall, corner rays and the interior points within EPS_WALL of a wall
    grid = build_grid(GridSpec(), seed=7)
    for a, b in [(0, 0), (1, 0), (0, 1), (2, 1), (3, 3), (5, 2), (8, 3), (4, 9), (12, 0),
                 (0, 20), (12, 12)]:
        mu = DominantWeight(a, b)
        vals, methods = chi_on_grid(mu, grid.t1, grid.t2)
        idx = np.nonzero((methods >= 1) & (methods <= 3))[0]
        assert idx.size > 2000
        for i in idx:
            H = TorusPoint.from_alcove_coords(float(grid.t1[i]), float(grid.t2[i]))
            assert abs(vals[i] - chi_schur(mu, H).value) <= 1e-9 * dim(mu), (mu, i)


def test_sweep_records_on_mirror_twins_are_the_full_grid_argmax():
    # (3,0) and (0,3) peak at seed 7 on points whose alcove-symmetric twins
    # (the same three wall distances) have the same ratio in exact
    # arithmetic and lie on other descent routes, so in other route-major
    # blocks; the record is still np.argmax over the full grid
    spec = GridSpec()
    grid = build_grid(spec, seed=7)
    walls = np.sort(np.abs(np.sin(0.5 * np.array([grid.t1 + grid.t2, grid.t1, grid.t2]))), axis=0)
    mus = [DominantWeight(3, 0), DominantWeight(0, 3)]
    for mu, rec in zip(mus, sweep_constant(mus, spec, seed=7).per_mu):
        vals, methods = chi_on_grid(mu, grid.t1, grid.t2)
        ratios = np.abs(vals) / _envelope_min_grid(mu, grid.t1, grid.t2)
        i = int(np.argmax(ratios))
        twins = np.nonzero((np.abs(walls - walls[:, [i]]).max(axis=0) < 1e-12)
                           & (np.abs(ratios - ratios[i]) <= 1e-12 * ratios[i]))[0]
        assert len(set(methods[twins].tolist())) == 3
        assert (rec.t1, rec.t2, rec.ratio) == (grid.t1[i], grid.t2[i], ratios[i])
        assert rec.method == GRID_METHOD_NAMES[methods[i]]


DUAL_PAIRS = [(1, 0), (2, 0), (2, 1), (5, 1), (4, 3), (9, 2), (20, 0), (14, 6)]


def test_grid_dual_weight_is_the_conjugate_bitwise():
    # chi_(b,a) = conj chi_(a,b): the routes run (max(a,b), min(a,b)),
    # chi_on_grid conjugates, and both envelopes read the same pairings
    grid = build_grid(GridSpec(), seed=7)
    for a, b in DUAL_PAIRS + [(27, 13)]:
        mu, dual = DominantWeight(a, b), DominantWeight(b, a)
        vals, methods = chi_on_grid(mu, grid.t1, grid.t2)
        dvals, dmethods = chi_on_grid(dual, grid.t1, grid.t2)
        assert np.array_equal(methods, dmethods)
        assert dvals.tobytes() == np.conjugate(vals).tobytes(), mu
        assert (_envelope_min_grid(dual, grid.t1, grid.t2).tobytes()
                == _envelope_min_grid(mu, grid.t1, grid.t2).tobytes())


def test_grid_dual_weights_match_the_pattern_oracle_on_every_route():
    # sampled points of each route on the seed-7 grid, away from the central
    # corners (c(H) >= 1e-2), where the Weyl and descent formulas lose digits
    # for any weight; the corner rays are judged by the descent oracle test
    # above and the dual values there by the bitwise test
    grid = build_grid(GridSpec(), seed=7)
    walls = np.sort(np.abs(np.sin(0.5 * np.array([grid.t1 + grid.t2, grid.t1, grid.t2]))), axis=0)
    rng = np.random.default_rng(16)
    for b, a in DUAL_PAIRS:
        mu = DominantWeight(a, b)  # a < b
        vals, methods = chi_on_grid(mu, grid.t1, grid.t2)
        for code in range(len(GRID_METHOD_NAMES)):
            idx = np.nonzero((methods == code) & ((walls[1] * walls[2] >= 1e-2) | (code == 4)))[0]
            assert idx.size >= 90, code
            for i in rng.choice(idx, size=30, replace=False):
                H = TorusPoint.from_alcove_coords(float(grid.t1[i]), float(grid.t2[i]))
                assert abs(vals[i] - chi_schur(mu, H).value) <= 1e-12 * dim(mu), (mu, i)


def test_sweep_record_of_a_dual_weight_is_its_twins_relabelled():
    spec = GridSpec(total=2500, wall_points_per_edge=200, chamber_wall_points=150,
                    corner_scales=4, corner_rays=3)
    for a, b in DUAL_PAIRS:
        rep, dual = (sweep_constant([mu], spec, seed=5) for mu in ((a, b), (b, a)))
        assert dual.per_mu == (dataclasses.replace(rep.per_mu[0], mu_a=b, mu_b=a),)
        assert (dual.c_emp, dual.ratio_at_zero_exact) == (rep.c_emp, rep.ratio_at_zero_exact)


# ---------------------------------------------------------------------------
# scalar and grid twins: chi_stable / chi_on_grid, envelope_min / grid envelope
# ---------------------------------------------------------------------------

TWIN_WEIGHTS = [DominantWeight(a, b) for a, b in
                [(0, 1), (1, 0), (2, 1), (3, 3), (7, 2), (4, 9), (12, 12), (20, 20)]]


# wall sizes, in units of EPS_WALL, just below and just above the dispatch band
BAND_LOW, BAND_HIGH = (0.2, 0.5, 0.9), (1.05, 1.5, 1.9)


def band_edge_points():
    """(t1, t2) pairs at walls of BAND_LOW and BAND_HIGH times EPS_WALL, on
    every wall index: descent points at each corner, whose smallest wall is
    in BAND_LOW and second in BAND_HIGH (the third is about their sum);
    Weyl points near one wall only, that wall in BAND_HIGH; and pattern-sum
    points at each corner with two walls in BAND_LOW and the third, about
    their sum, in BAND_HIGH."""
    def angle(f):
        return 2.0 * math.asin(f * EPS_WALL)

    def corners(u, v):  # walls (u, v) at each corner, in both orders
        return [p for x, y in ((u, v), (v, u)) for p in
                ((x, y), (TWO_PI - x - y, y), (x, TWO_PI - x - y))]

    pts = []
    for x, y in itertools.product(map(angle, BAND_LOW), map(angle, BAND_HIGH)):
        pts += corners(x, y)
    for u in map(angle, BAND_HIGH):
        pts += [(u, 2.0), (2.0, u), (2.0, TWO_PI - 2.0 - u)]
    for f, g in itertools.combinations_with_replacement(BAND_LOW, 2):
        if f + g > BAND_HIGH[0]:
            pts += corners(angle(f), angle(g))
    return pts


@pytest.fixture(scope="module", params=[7, 2718])
def twin_points(request):
    """(t1, t2, torus points): every non-interior point of the default grid,
    every 5th interior point and the band-edge points."""
    grid = build_grid(GridSpec(), seed=request.param)
    interior = np.array([s == "interior" for s in grid.stratum])
    idx = np.nonzero(~interior | (np.cumsum(interior) % 5 == 1))[0]
    b1, b2 = np.array(band_edge_points()).T
    t1, t2 = np.concatenate((grid.t1[idx], b1)), np.concatenate((grid.t2[idx], b2))
    return t1, t2, [TorusPoint.from_alcove_coords(x, y) for x, y in zip(t1.tolist(), t2.tolist())]


def test_band_edge_points_straddle_the_dispatch_band():
    walls = np.sort(np.abs(np.sin(0.5 * np.array(
        [[a + b, a, b] for a, b in band_edge_points()]))), axis=1) / EPS_WALL
    cut = 6 * len(BAND_LOW) * len(BAND_HIGH)  # two orders at three corners
    mid = cut + 3 * len(BAND_HIGH)
    descent, weyl, multi = walls[:cut], walls[cut:mid], walls[mid:]
    assert np.all(descent[:, 0] < 1.0)
    assert np.all((1.0 <= descent[:, 1]) & (descent[:, 1] < 2.0))
    assert np.all((1.0 <= weyl[:, 0]) & (weyl[:, 0] < 2.0) & (weyl[:, 1] > 100.0))
    # two walls below, the third at or above: the pattern sum, not descent
    assert len(multi) >= 6 and np.all(multi[:, 1] < 1.0)
    assert np.all((1.0 <= multi[:, 2]) & (multi[:, 2] < 2.0))


def test_chi_stable_and_chi_on_grid_take_one_route_and_agree(twin_points):
    # the bound is the scalar Weyl quotient's known error at corner-ray
    # points, where it divides by 8 s1 s2 s3 (1.8e-9 dim at most, at (1,0));
    # the band-edge points reach 4.9e-10 dim.  It holds for the twins as
    # they are, not as a target
    t1, t2, pts = twin_points
    for mu in TWIN_WEIGHTS:
        vals, methods = chi_on_grid(mu, t1, t2)
        assert set(methods.tolist()) == set(range(len(GRID_METHOD_NAMES)))
        cvs = [chi_stable(mu, H) for H in pts]
        assert [cv.method for cv in cvs] == [GRID_METHOD_NAMES[m] for m in methods.tolist()], mu
        assert np.abs(np.array([cv.value for cv in cvs]) - vals).max() <= 1e-8 * dim(mu), mu


def test_envelope_min_and_the_grid_envelope_agree(twin_points):
    t1, t2, pts = twin_points
    for mu in TWIN_WEIGHTS:
        env = np.array([envelope_min(mu, H).min_form for H in pts])
        assert np.all(np.abs(_envelope_min_grid(mu, t1, t2) - env) <= 1e-13 * env), mu


def test_default_sweep_evaluates_each_dual_pair_once(monkeypatch):
    rows = {}  # geometry (one per block) -> the weights of its chunk rows
    chi = _GridGeometry.chi

    def counted(geom, chunk):
        rows.setdefault(geom, []).extend(chunk.mus)
        return chi(geom, chunk)

    monkeypatch.setattr(_GridGeometry, "chi", counted)
    mus = list(mu_shells())
    rep = sweep_constant(mus, GridSpec(), seed=7)
    canonical = {DominantWeight(max(mu.a, mu.b), min(mu.a, mu.b)) for mu in mus}
    assert (len(mus), len(canonical), len(rows)) == (351, 213, 10)
    for swept in rows.values():
        assert len(swept) == 213 and set(swept) == canonical
    by_weight = {(rec.mu_a, rec.mu_b): rec for rec in rep.per_mu}
    for rec in rep.per_mu:
        twin = by_weight.get((rec.mu_b, rec.mu_a))
        assert twin is None or twin == dataclasses.replace(rec, mu_a=rec.mu_b, mu_b=rec.mu_a)


def test_default_sweep_forms_at_most_a_fifth_of_its_former_complex_exponentials(monkeypatch):
    # with one complex exponential per phase row entry the seed-7 default
    # sweep evaluated 1 481 946; phase rows built as products of earlier
    # rows leave 213 033, of which 127 410 fill the multi-wall tables
    count = 0
    exp = np.exp

    def counted(x, *args, **kwargs):
        nonlocal count
        if np.iscomplexobj(x):
            count += np.size(x)
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    sweep_constant(mu_shells(), GridSpec(), seed=7)
    assert 0 < count <= 1_481_946 // 5


def test_argmax_key_is_np_argmax_order_over_any_blocks():
    nan = math.nan
    key = _argmax_key
    assert key((nan, 7)) > key((nan, 9)) > key((1.0, 0)) > key((0.5, 0))
    assert key((0.5, 3)) > key((0.5, 4)) and key((0.5, 4)) > key((0.25, 0))
    rng = np.random.default_rng(1)
    for _ in range(200):
        ratios = rng.choice([0.1, 0.2, 0.3, nan], size=40, p=[0.4, 0.3, 0.25, 0.05])
        blocks = np.split(rng.permutation(40), [7, 20, 33])
        best = []
        for blk in blocks:
            blk = np.sort(blk)  # each block in grid order
            i = int(np.argmax(ratios[blk]))
            best.append((float(ratios[blk[i]]), int(blk[i])))
        r, i = max(best, key=key)
        assert i == int(np.argmax(ratios))
        # the sweep's merge: one record per block, in any block order
        top, _ = bounds._merge_blocks(blocks[::-1], [([rec], None) for rec in best[::-1]])
        assert top[0][1] == i


def test_sweep_budget_is_refused_before_the_grid_is_built(monkeypatch):
    monkeypatch.setattr(bounds, "build_grid", lambda *a: pytest.fail("grid built"))
    weights = bounds.mu_shells(100_000, 100_000)  # read lazily, refused at MAX_WEIGHTS + 1
    with pytest.raises(ResourceLimitError, match=f"weights = {bounds.MAX_WEIGHTS + 1} exceeds "
                                                 f"the sweep's weight budget {bounds.MAX_WEIGHTS}"):
        sweep_constant(weights, GridSpec())
    with pytest.raises(ResourceLimitError, match="budget"):
        sweep_constant([(0, 0)] * (bounds.MAX_WEIGHTS + 1), GridSpec())
    # CHUNK_WEIGHTS x (a+b+1) multi-wall table entries a point, past 10^7
    with pytest.raises(ResourceLimitError, match=rf"{CHUNK_WEIGHTS} x \(a\+b\+1\) at \(1250000,0\) "
                                                 f"= {CHUNK_WEIGHTS * 1_250_001} exceeds the "
                                                 "multi-wall tables budget 10000000"):
        sweep_constant([(0, 0), (1_250_000, 0)], GridSpec())
    with pytest.raises(ResourceLimitError, match="point budget"):
        sweep_constant(list(mu_shells()), GridSpec(total=10**7 + 1))


@pytest.mark.parametrize("mus, spec", [
    (list(mu_shells()), GridSpec(total=10**7)),      # the defaults on the largest grid
    (list(mu_shells(20, 600)), GridSpec()),          # 3 711 weights
    ([(0, 0)] * bounds.MAX_WEIGHTS, GridSpec()),
    ([(1_249_999, 0)] * CHUNK_WEIGHTS, GridSpec()),
])
def test_sweep_budget_passes_to_its_edges(monkeypatch, mus, spec):
    class Built(Exception):
        pass

    def build(*a):
        raise Built

    monkeypatch.setattr(bounds, "build_grid", build)
    with pytest.raises(Built):
        sweep_constant(mus, spec)
