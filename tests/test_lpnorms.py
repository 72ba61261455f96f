import itertools
import math
import re
import struct
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from su3char import (
    WEYL_GROUP,
    DominantWeight,
    ResourceLimitError,
    I_bound,
    I_numeric,
    I_numeric_table,
    QuadratureSpec,
    dim,
    family_weight,
    haar_lp_norm,
    mu_stats,
    multiplicities,
    predicted_dimension_bound,
    predicted_regular_bound,
    predicted_singular_bound,
    scaling_fit,
)
from su3char import lpnorms
from conftest import pattern_weights
from su3char.cli import _DEFAULTS, _quad_spec
from su3char.lpnorms import (
    _BREAKS,
    A0_SIDE,
    MAX_BASE_RULE,
    MAX_REFINEMENTS,
    LpReport,
    _bandwidth,
    _fast_len,
    _grid_levels,
    _model_integrand,
    _norm_integrand,
    _ols_loglog,
    _level_sums,
    _orbits,
    _regime,
    _weight,
)
from su3char.quadrature import ConvergenceError, QuadratureResult, _trapezoid_sum

TWO_PI = 2.0 * math.pi

# model integral at (p, a~, b~, c~) = (2, 1, 1, 1), frozen from this
# package's own quadrature; base rules 64 and 96 agree to 6e-16 relative
I_REF_2111 = 0.3671901082857497

weights = st.builds(DominantWeight, st.integers(0, 10), st.integers(0, 10))


# ---------------------------------------------------------------------------
# Haar Lp norms
# ---------------------------------------------------------------------------

def test_unit_norm_for_trivial_weight_is_exact():
    for p in (1.0, 2.0, 3.7, 6.0):
        rep = haar_lp_norm(DominantWeight(0, 0), p)
        assert rep.norm == 1.0
        assert rep.converged


def test_normalizer_matches_closed_form():
    # int over the period square of prod sin^2 = (2pi)^2 * 3/32
    rep = haar_lp_norm(DominantWeight(0, 0), 2.0)
    assert rep.normalizer_z == pytest.approx(3.0 * math.pi ** 2 / 8.0, rel=1e-14)
    repd = haar_lp_norm(DominantWeight(0, 0), 2.0, QuadratureSpec(mapping="duffy"))
    assert repd.normalizer_z == pytest.approx(3.0 * math.pi ** 2 / 16.0, rel=1e-9)


def _moment_exact(mu: DominantWeight, k: int) -> int:
    """||chi_mu||_{2k}^{2k} = sum over nu of (N^nu)^2 from exact integer
    arithmetic, N^nu the multiplicity of V_nu in the k-fold tensor power.

    chi_mu^k has the coefficients M_mu convolved k times (2-D convolutions
    on the (w1, w3) exponent lattice).  Multiplied by the rho-numerator
    sum_s sgn(s) x^{s rho}, it becomes sum_nu N^nu sum_s sgn(s) x^{s(nu+rho)},
    whose coefficient at a strictly decreasing exponent triple nu+rho is N^nu.
    """
    m = multiplicities(mu)
    power = m
    for _ in range(k - 1):
        r = power.shape[0]
        out = np.zeros((r + m.shape[0] - 1,) * 2, dtype=np.int64)
        for i, j in zip(*np.nonzero(m)):
            out[i:i + r, j:j + r] += m[i, j] * power
        power = out
    size = power.shape[0]
    num = np.zeros((size + 2, size + 2), dtype=np.int64)
    for s in WEYL_GROUP:
        e = s.apply((2, 1, 0))
        num[e[0]:e[0] + size, e[2]:e[2] + size] += s.sign * power
    degree = k * (mu.a + 2 * mu.b) + 3
    total = dims = 0
    for e1, e3 in zip(*np.nonzero(num)):
        e2 = degree - e1 - e3
        if e1 > e2 > e3:
            n = int(num[e1, e3])
            assert n > 0
            total += n * n
            dims += n * dim(DominantWeight(int(e1 - e2 - 1), int(e2 - e3 - 1)))
    assert dims == dim(mu) ** k  # the summands fill the tensor power
    return total


def test_fourth_moment_equals_the_integer_tensor_square_count():
    # ||chi_mu||_4^4 = sum_nu (N^nu_{mu mu})^2, independent of the quadrature,
    # of the Weyl integration formula and of the normaliser Z
    assert _moment_exact(DominantWeight(1, 1), 2) == 8  # 8 x 8 = 1+8+8+10+10*+27
    for a, b in [(1, 1), (2, 1), (5, 3), (7, 7), (20, 3), (64, 17)]:
        mu = DominantWeight(a, b)
        rep = haar_lp_norm(mu, 4.0)
        assert rep.converged
        assert rep.norm ** 4 == pytest.approx(_moment_exact(mu, 2), rel=1e-12), (a, b)


def test_sixth_moment_equals_the_integer_tensor_cube_count():
    counts = {
        (1, 1): 145,
        (2, 1): 798,
        (5, 3): 614_805,
        (7, 7): 85_735_000,
        (20, 3): 109_165_755,
        (64, 17): 81_198_472_384_098,
    }
    for (a, b), count in counts.items():
        mu = DominantWeight(a, b)
        assert _moment_exact(mu, 3) == count, (a, b)
        rep = haar_lp_norm(mu, 6.0)
        assert rep.converged
        assert rep.norm ** 6 == pytest.approx(count, rel=1e-12), (a, b)


def test_sixth_moment_of_defining_family_closed_form():
    # ||chi_(N,0)||_6^6 = d(d+1)/2 with d = dim(N, 0), a tested identity
    # (Pieri rule), checked against the integer count where that is cheap
    for N in (1, 2, 5, 12, 30, 80, 200, 512):
        mu = DominantWeight(N, 0)
        d = dim(mu)
        if N <= 12:
            assert _moment_exact(mu, 3) == d * (d + 1) // 2
        rep = haar_lp_norm(mu, 6.0)
        assert rep.converged
        assert rep.norm ** 6 == pytest.approx(d * (d + 1) / 2, rel=1e-12), N


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0])
def test_quadrature_spec_refuses_non_finite_tolerance(rel_tol):
    with pytest.raises(ValueError, match="rel_tol"):
        QuadratureSpec(rel_tol=rel_tol)


@pytest.mark.parametrize("kw", [dict(base_rule=1), dict(base_rule=MAX_BASE_RULE + 1),
                                dict(max_refinements=-1),
                                dict(max_refinements=MAX_REFINEMENTS + 1)])
def test_quadrature_spec_refuses_rules_and_levels_out_of_range(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        QuadratureSpec(**kw)


def test_fft_stage_budget_trips_at_level_zero():
    # p * bandwidth + 8 = 333 342, rounded up to the 5-smooth n0 = 337 500
    mu = DominantWeight(100, 0)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="n0 = 337500"):
            haar_lp_norm(mu, 5000.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_fourth_moment_of_defining_family_counts_invariants():
    # ||chi_(N,0)||_4^4 = N+1: the number of irreducible summands of
    # Sym^N(V) (x) Sym^N(V)* is N+1 (one per diagonal weight (k,k))
    for N in (1, 2, 3, 5, 8, 64, 512):
        rep = haar_lp_norm(DominantWeight(N, 0), 4.0)
        assert rep.converged
        assert rep.norm ** 4 == pytest.approx(N + 1.0, rel=1e-13)


def test_quarter_root_two_example():
    rep = haar_lp_norm(DominantWeight(1, 0), 4.0)
    assert rep.norm == pytest.approx(2.0 ** 0.25, abs=1e-12)


def test_orthonormality_small_sample():
    for a, b in [(0, 1), (2, 2), (5, 3), (10, 10), (512, 512)]:
        rep = haar_lp_norm(DominantWeight(a, b), 2.0)
        assert rep.norm == pytest.approx(1.0, abs=1e-10)


def test_mappings_agree_on_non_even_p():
    mu = DominantWeight(2, 1)
    a = haar_lp_norm(mu, 2.5)
    b = haar_lp_norm(mu, 2.5, QuadratureSpec(mapping="duffy"))
    assert a.converged and b.converged
    assert a.norm == pytest.approx(b.norm, rel=2e-5)


def test_trapezoid_rule_exactness_kicks_in_for_even_p():
    # doubling the grid beyond the bandwidth must not move N_p
    mu = DominantWeight(2, 1)
    f = _norm_integrand(mu, 4.0)
    n = int(math.ceil(4.0 * _bandwidth(mu))) + 8
    a = _trapezoid_sum(f, TWO_PI, n)
    b = _trapezoid_sum(f, TWO_PI, 2 * n)
    assert abs(a - b) / abs(a) < 1e-10


def test_multiplicities_equal_the_pattern_weight_histogram():
    # exact integer oracle: the closed-form GT count against the enumerated patterns
    for a in range(41):
        for b in range(41 - a):
            m = multiplicities(DominantWeight(a, b))
            w1, _, w3 = pattern_weights(a, b)
            k = a + b + 1
            hist = np.bincount(w1 * k + w3, minlength=k * k).reshape(k, k)
            assert m.dtype == np.int64
            assert np.array_equal(m, hist), (a, b)
    big = DominantWeight(512, 512)
    assert int(multiplicities(big).sum()) == dim(big)


def test_fft_level_matches_node_by_node_trapezoid_sum():
    # the r-grid levels K = 1, 2, 4 against chi_on_grid at every node of the
    # (K n0)-grid, on odd and even n0, including n0 coarser than the weight
    # support (folded M)
    for (a, b), p, n0 in [((2, 1), 2.5, 48), ((5, 3), 3.0, 16), ((5, 3), 3.0, 7), ((9, 0), 1.5, 9)]:
        mu = DominantWeight(a, b)
        levels = _grid_levels(multiplicities(mu), dim(mu), p, n0)
        for K in (1, 2, 4):
            num, den = next(levels)
            want = _trapezoid_sum(_norm_integrand(mu, p), TWO_PI, K * n0)
            assert num == pytest.approx(want, rel=1e-12), (a, b, n0, K)
            assert den == pytest.approx(_trapezoid_sum(_weight, TWO_PI, K * n0), rel=1e-14)


def test_rgrid_blocks_of_two_rows_match_node_by_node_sums(monkeypatch):
    # weight blocks cut at every second row, the last one short on odd row
    # counts (rfft and full fft), against chi_on_grid at every node
    for (a, b), p, n0 in [((2, 1), 2.5, 48), ((5, 3), 3.0, 7)]:
        monkeypatch.setattr(lpnorms, "BLOCK_NODES", 2 * n0)
        mu = DominantWeight(a, b)
        levels = _grid_levels(multiplicities(mu), dim(mu), p, n0)
        for K in (1, 2):
            num, den = next(levels)
            want = _trapezoid_sum(_norm_integrand(mu, p), TWO_PI, K * n0)
            assert num == pytest.approx(want, rel=1e-12), (a, b, n0, K)
            assert den == pytest.approx(_trapezoid_sum(_weight, TWO_PI, K * n0), rel=1e-14)


def test_an_rgrid_holds_two_stages_at_once_not_three(monkeypatch):
    # the twisted input is freed before the transposed copy of its FFT: at
    # an odd residue (119+1) x 120 complex entries are the stage, and one row
    # a block keeps the inverse FFTs out of the peak
    mu, n0 = DominantWeight(119, 0), 120
    md, stage = multiplicities(mu) / dim(mu), 16 * 120 * n0
    monkeypatch.setattr(lpnorms, "BLOCK_NODES", n0)
    want = _level_sums(md, 1.5, n0, 2, [(1, 0)], 1)  # and the FFT plans are made
    tracemalloc.start()
    try:
        assert _level_sums(md, 1.5, n0, 2, [(1, 0)], 1) == want
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * stage  # about 3.0 stages with the input kept


def test_a_folded_rgrid_holds_two_counts_not_seven():
    # (216,0) at p = 1.4: n0 = 216, M 217 x 217, so the folded M's row blocks
    # and their sum are the stages; a zero-padded fold to 432^2 peaked at 6.96
    mu, n0 = DominantWeight(216, 0), 216
    md, count = multiplicities(mu) / dim(mu), 16 * 217 * 217
    want = _level_sums(md, 1.4, n0, 2, [(1, 1)], 1)  # and the FFT plans are made
    tracemalloc.start()
    try:
        assert _level_sums(md, 1.4, n0, 2, [(1, 1)], 1) == want
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * count  # about 2.5: one count and its whole r-grid as one block


def test_residue_orbits_partition_the_residues():
    counts = []
    for K in (1, 2, 4, 8, 16, 32):
        orbits = _orbits(K)
        assert sum(map(len, orbits)) == K * K
        members = sorted(r for orbit in orbits for r in orbit)
        assert members == list(itertools.product(range(K), repeat=2))
        counts.append(len(orbits))
    assert counts == [1, 2, 4, 10, 30, 102]


@pytest.mark.parametrize("a, b, K", [(5, 3, 4), (7, 2, 8), (16, 16, 4)])
def test_every_residue_of_an_orbit_has_its_representatives_sums(a, b, K):
    # W x {+-1} maps r-grids onto r-grids without changing |chi|^p w: checked
    # here for every residue, not assumed
    mu = DominantWeight(a, b)
    md = multiplicities(mu) / dim(mu)
    for orbit in _orbits(K):
        (num, den), *others = _level_sums(md, 2.5, 24, K, orbit, 1)
        for r, other in zip(orbit[1:], others):
            assert other[0] == pytest.approx(num, rel=1e-14, abs=0.0), r
            assert other[1] == pytest.approx(den, rel=1e-14, abs=0.0), r


# the first three levels' (numerator, normalizer) at n0 = 48, as float.hex,
# from the r-grid kernel before its per-level tables: the kernel's bits.
# (48,0) and (60,0) fold M (49 and 61 rows at n0 = 48); theirs are the
# bits of the zero-padded fold that numpy summed over n0-blocks, from
#     for (a, b), p in [((48, 0), 1.0), ((60, 0), 0.5)]:
#         mu = DominantWeight(a, b)
#         for threads in (1, 4):
#             levels = _grid_levels(multiplicities(mu), dim(mu), p, 48, threads)
#             print([tuple(x.hex() for x in next(levels)) for _ in range(3)])
GOLDEN_LEVELS = {
    ((5, 2), 2.5): [("0x1.d53954442fb94p-14", "0x1.d9bdb2e9d68c9p+1"),
                    ("0x1.d5139dd56360fp-14", "0x1.d9bdb2e9d68ccp+1"),
                    ("0x1.d5100af748881p-14", "0x1.d9bdb2e9d68c9p+1")],
    ((8, 0), 4.0): [("0x1.10912a6779287p-17", "0x1.d9bdb2e9d68c9p+1"),
                    ("0x1.10912a6779287p-17", "0x1.d9bdb2e9d68ccp+1"),
                    ("0x1.10912a6779287p-17", "0x1.d9bdb2e9d68c9p+1")],
    ((4, 4), 8.0 / 3.0): [("0x1.c32b1d5a7b1dap-16", "0x1.d9bdb2e9d68c9p+1"),
                          ("0x1.c34f411be718cp-16", "0x1.d9bdb2e9d68ccp+1"),
                          ("0x1.c3500fd393e86p-16", "0x1.d9bdb2e9d68c9p+1")],
    ((48, 0), 1.0): [("0x1.8c02418c17078p-9", "0x1.d9bdb2e9d68c9p+1"),
                     ("0x1.3dde0856eee88p-9", "0x1.d9bdb2e9d68ccp+1"),
                     ("0x1.387f7aa3ab4c3p-9", "0x1.d9bdb2e9d68c9p+1")],
    ((60, 0), 0.5): [("0x1.2671e96ad4ac8p-4", "0x1.d9bdb2e9d68c9p+1"),
                     ("0x1.25e82d77b74e7p-4", "0x1.d9bdb2e9d68ccp+1"),
                     ("0x1.25ee5d753d1b6p-4", "0x1.d9bdb2e9d68c9p+1")],
}


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("key", list(GOLDEN_LEVELS))
def test_grid_levels_keep_their_golden_bits(key, threads):
    (a, b), p = key
    mu = DominantWeight(a, b)
    assert _fast_len(max(48, math.ceil(p * _bandwidth(mu)) + 8)) == 48
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # workers switch often, so a race would show in the bits
    try:
        levels = _grid_levels(multiplicities(mu), dim(mu), p, 48, threads)
        assert [tuple(x.hex() for x in next(levels)) for _ in range(3)] == GOLDEN_LEVELS[key]
    finally:
        sys.setswitchinterval(interval)


def test_level_workers_are_capped_by_the_stage_budget(monkeypatch):
    # (24,0) at p = 2.8: n0 = 54, a 25 x 54 stage.  (60,0) at p = 0.5:
    # n0 = 48 < 61, so M is folded to 48 x 48 and counted at 61 x 61; a
    # budget of 2 x 48^2 holds one such count, not two.  With a budget of
    # one count, 4 threads run one r-grid at a time and give the same report
    rgrid_sums, lock = lpnorms._rgrid_sums, threading.Lock()
    flight = {"now": 0, "most": 0}

    def counted(*args):
        with lock:
            flight["now"] += 1
            flight["most"] = max(flight["most"], flight["now"])
        time.sleep(0.002)  # long enough for workers to overlap, if they may
        try:
            return rgrid_sums(*args)
        finally:
            with lock:
                flight["now"] -= 1

    for mu, p, budget in [(DominantWeight(24, 0), 2.8, 25 * 54),
                          (DominantWeight(60, 0), 0.5, 2 * 48 * 48)]:
        monkeypatch.undo()
        monkeypatch.setenv("SU3CHAR_THREADS", "1")
        want = haar_lp_norm(mu, p)
        monkeypatch.setattr(lpnorms, "_rgrid_sums", counted)
        monkeypatch.setenv("SU3CHAR_THREADS", "4")
        flight["most"] = 0
        assert haar_lp_norm(mu, p) == want
        assert flight["most"] > 1  # the stub sees overlap when the budget allows it
        flight["most"] = 0
        monkeypatch.setattr(lpnorms, "SCHUR_DIM_LIMIT", budget)
        assert haar_lp_norm(mu, p) == want
        assert flight["most"] == 1, mu


def test_folded_rgrid_workers_count_the_twisted_m(monkeypatch):
    # (1200,0) at p = 0.5: n0 = 432, and the count is M's 1201 x 1201 (the
    # shared M and the 432 x 1201 twisted row blocks), so 10^7 // 1201^2 = 6
    # r-grids run at once, not the 10^7 // 432^2 = 53 of the folded stage
    class Started(Exception):
        pass

    seen = []

    def started(m, d, p, n0, workers):
        seen.append((m.shape, n0, workers))
        raise Started

    monkeypatch.setattr(lpnorms, "_grid_levels", started)
    monkeypatch.setenv("SU3CHAR_THREADS", "64")
    with pytest.raises(Started):
        haar_lp_norm(DominantWeight(1200, 0), 0.5)
    assert seen == [((1201, 1201), 432, 6)]


def test_fast_len_is_the_next_5_smooth_integer():
    def smooth(n):
        for f in (2, 3, 5):
            while n % f == 0:
                n //= f
        return n == 1

    want = [n for n in range(1, 3000) if smooth(n)]
    for n in range(1, 2900):
        assert _fast_len(n) == next(m for m in want if m >= n)
    assert _fast_len(333342) == 337500


def test_report_fields_and_gating():
    rep = haar_lp_norm(DominantWeight(3, 1), 1.5)
    assert rep.predicted_regular is None  # needs p >= 2
    assert rep.predicted_dimension is None  # needs p > 8/3
    rep = haar_lp_norm(DominantWeight(3, 1), 4.0)
    assert rep.predicted_regular is not None
    assert rep.predicted_dimension is not None
    assert rep.levels >= 2
    with pytest.raises(ValueError):
        haar_lp_norm(DominantWeight(1, 1), 0.0)


def _break_points():
    """Each break, 1e-9 and 2e-9 either side, and one ulp either side of those."""
    for x in _BREAKS:
        for q in (x + d for d in (-2e-9, -1e-9, 0.0, 1e-9, 2e-9)):
            yield from (math.nextafter(q, -math.inf), q, math.nextafter(q, math.inf))


def test_haar_reports_the_dimension_bound_exactly_where_it_is_defined():
    # at p = 8/3 - 1e-9 the bound was defined while the report left it out
    spec = QuadratureSpec(max_refinements=0)
    for p in _break_points():
        rep = haar_lp_norm((3, 2), p, spec)
        try:
            bound = predicted_dimension_bound((3, 2), p)
        except ValueError:
            bound = None
        assert rep.predicted_dimension == bound, p
        assert rep.predicted_singular == predicted_singular_bound((3, 2), p)


@pytest.mark.parametrize("p", [1e-10, 1e-6])
def test_small_p_is_judged_on_the_norm(p):
    # the norm moves by 1/p times N_p's change: N_p agreeing to 1e-6 is not enough
    rep = haar_lp_norm((3, 2), p)
    assert not rep.converged
    with pytest.raises(ConvergenceError, match="haar_lp_norm: no convergence after 7 levels"):
        rep.require_converged("haar_lp_norm")


def test_model_integral_table_is_refused_past_its_budget_before_any_work(monkeypatch):
    spec = QuadratureSpec(base_rule=8, max_refinements=0)
    cap = lpnorms.MAX_INTEGRALS
    monkeypatch.setattr(lpnorms, "MAX_INTEGRALS", 2)
    assert len(I_numeric_table([2.0], [(1.0, 1.0, 1.0), (2.0, 1.0, 1.0)], spec, full=True)[0]) == 2
    monkeypatch.setattr(lpnorms, "triangle_batch", lambda *a: pytest.fail("integrals set up"))
    with pytest.raises(ResourceLimitError, match="^p values x triples = 3 exceeds the "
                                                 "model-integral budget 2$"):
        I_numeric_table([2.0, 3.0, 4.0], [(1.0, 1.0, 1.0)], spec)
    monkeypatch.setattr(lpnorms, "MAX_INTEGRALS", cap)
    with pytest.raises(ResourceLimitError, match=f"= {cap + 1} exceeds the model-integral "
                                                 f"budget {cap}$"):
        I_numeric_table([2.0], [(1.0, 1.0, 1.0)] * (cap + 1))


def test_lp_report_states_the_tolerance_it_was_judged_against():
    # below p = 1 both integrals refine to rel_tol * p; the report and its
    # non-convergence error say so
    rep = haar_lp_norm((3, 2), 1e-6)
    assert rep.applied_rel_tol == 1e-6 * 1e-6 and not rep.converged
    with pytest.raises(ConvergenceError, match=r"delta \S+ against rel_tol 1\.000e-12\)$"):
        rep.require_converged("haar_lp_norm")
    assert haar_lp_norm((3, 2), 4.0, QuadratureSpec(rel_tol=1e-7)).applied_rel_tol == 1e-7
    spec = QuadratureSpec(mapping="duffy", max_refinements=1)
    assert haar_lp_norm((1, 0), 0.5, spec).applied_rel_tol == 1e-6 * 0.5


@pytest.mark.parametrize("target, mapping", [("_refine", "periodic_square"),
                                             ("triangle_batch", "duffy")])
@pytest.mark.parametrize("p, rel_tol, tol", [
    (0.25, 1e-6, 1e-6 * 0.25), (1.0, 1e-6, 1e-6), (4.0, 1e-6, 1e-6),
    (1e-100, 1e-300, math.ulp(0.0)),  # the product underflows: the least float, not 0
])
def test_both_mappings_refine_to_the_tolerance_times_p_below_1(monkeypatch, target, mapping,
                                                               p, rel_tol, tol):
    seen = []

    def spy(*args):
        seen.append(args[-1])  # rel_tol, the last positional argument
        return [QuadratureResult(1.0, 1, 0.0, True)] * 2

    monkeypatch.setattr(lpnorms, target, spy)
    haar_lp_norm((3, 2), p, QuadratureSpec(rel_tol=rel_tol, mapping=mapping))
    assert seen == [tol]


def test_weight_function_vanishes_on_walls():
    t = np.array([0.0, 1.0, 2.0])
    assert (_weight(np.zeros(3), t) == 0.0).all()
    assert (_weight(t, np.zeros(3)) == 0.0).all()


# ---------------------------------------------------------------------------
# predicted bounds
# ---------------------------------------------------------------------------

def test_predicted_singular_examples():
    assert predicted_singular_bound(DominantWeight(9, 9), 2.0) == 1.0
    # mu_bar = 10, mu_min = 2 from (7,1)
    mu = DominantWeight(7, 1)
    assert mu_stats(mu).mu_bar == 10 and mu_stats(mu).mu_min == 2
    assert predicted_singular_bound(mu, 4.0) == pytest.approx(
        10.0 ** 0.25 * 2.0 ** 0.75, rel=1e-14
    )
    N = 6
    assert predicted_singular_bound(DominantWeight(N, N), 4.0) == pytest.approx(
        (2 * N + 2) ** 0.25 * (N + 1) ** 0.75, rel=1e-14
    )


def test_predicted_singular_boundary_cases():
    mu = DominantWeight(12, 2)
    ub, lb = 16.0, 3.0
    assert predicted_singular_bound(mu, 8.0 / 3.0) == pytest.approx(
        math.log(2.0 + lb) ** 0.375, rel=1e-14
    )
    assert predicted_singular_bound(mu, 3.0) == pytest.approx(
        lb ** (1.0 / 3.0) * math.log(2.0 + ub / lb) ** (1.0 / 3.0), rel=1e-14
    )
    assert predicted_singular_bound(mu, 5.0) == pytest.approx(
        ub ** 0.4 * lb * math.log(2.0 + ub / lb) ** 0.2, rel=1e-14
    )
    assert predicted_singular_bound(mu, 8.0) == pytest.approx(
        ub ** 1.0 * lb, rel=1e-14
    )


@given(weights, st.sampled_from([8.0 / 3.0, 3.0, 5.0]))
def test_predicted_singular_continuity_at_case_boundaries(mu, p0):
    # adjacent-case formulas straddling a boundary stay within a factor 4
    at = predicted_singular_bound(mu, p0)
    below = predicted_singular_bound(mu, p0 - 1e-6)
    above = predicted_singular_bound(mu, p0 + 1e-6)
    for other in (below, above):
        assert 0.25 <= at / other <= 4.0


def test_predicted_regular_examples():
    mu = DominantWeight(14, 0)  # mu_bar = 16
    assert predicted_regular_bound(mu, 4.0) == pytest.approx(16.0, rel=1e-14)
    assert predicted_regular_bound(mu, 2.0) == 1.0
    with pytest.raises(ValueError):
        predicted_regular_bound(mu, 1.5)


def test_predicted_dimension_examples():
    mu = DominantWeight(4, 2)
    assert predicted_dimension_bound(mu, 8.0 / 3.0) == pytest.approx(1.0, rel=1e-12)
    assert predicted_dimension_bound(mu, 4.0) == pytest.approx(
        float(dim(mu)) ** (1.0 / 3.0), rel=1e-14
    )
    with pytest.raises(ValueError):
        predicted_dimension_bound(mu, 2.0)


def test_regime_keeps_the_break_tests_float_forms():
    for i, x in enumerate(_BREAKS):
        assert _regime(x - 2e-9) == 2 * i and _regime(x + 2e-9) == 2 * i + 2
        assert _regime(x) == _regime(math.nextafter(x, math.inf)) == 2 * i + 1
        # the band is [x - 1e-9, x + 1e-9] in the float forms p < x - 1e-9
        # (below) and p <= x + 1e-9 (at): both of its float ends are inside
        assert _regime(x + 1e-9) == _regime(x - 1e-9) == 2 * i + 1
        assert _regime(math.nextafter(x + 1e-9, math.inf)) == 2 * i + 2
        assert _regime(math.nextafter(x - 1e-9, 0.0)) == 2 * i
    assert _regime(1e-300) == 0 and _regime(1e300) == 6


def _ulps(x: float, n: int):
    """The floats within n ulps of x."""
    out, lo, hi = {x}, x, x
    for _ in range(n):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
        out |= {lo, hi}
    return out


def test_regime_is_nondecreasing_ulp_by_ulp_across_each_break():
    # p = 8/3 - 1e-9 fell between its neighbours' cases (0, 2, 1) under the
    # old "at" test abs(p - x) <= 1e-9.  Every ulp within 2^12 of each band
    # end and of the break, and a 1e-12 stride over the whole +-2e-9 span.
    for i, x in enumerate(_BREAKS):
        ends = (x - 2e-9, x - 1e-9, x, x + 1e-9, x + 2e-9)
        ps = sorted(set().union(*(_ulps(c, 4096) for c in ends),
                                (x + k * 1e-12 for k in range(-2000, 2001))))
        cases = [_regime(p) for p in ps]
        assert all(lo <= hi for lo, hi in zip(cases, cases[1:])), x
        assert cases[0] == 2 * i and cases[-1] == 2 * i + 2 and 2 * i + 1 in cases


@given(weights, st.floats(0.1, 8.0))
def test_predicted_singular_positive(mu, p):
    assert predicted_singular_bound(mu, p) > 0.0


# ---------------------------------------------------------------------------
# the model integral and its majorant
# ---------------------------------------------------------------------------

def test_model_integral_frozen_reference():
    v = I_numeric(2.0, 1.0, 1.0, 1.0, QuadratureSpec(mapping="duffy"))
    assert v == pytest.approx(I_REF_2111, rel=1e-12)
    v96 = I_numeric(2.0, 1.0, 1.0, 1.0, QuadratureSpec(base_rule=96, mapping="duffy"))
    assert abs(v - v96) / v < 1e-8  # two-resolution agreement


def test_model_integral_swap_is_bit_identical():
    for p in (2.0, 4.0):
        x = I_numeric(p, 4.0, 16.0, 1.0)
        y = I_numeric(p, 16.0, 4.0, 1.0)
        assert struct.pack("<d", x) == struct.pack("<d", y)


def _model_g(x, y, p, aa, bb, cc):
    """One unfolded term of the model integrand, with three separate powers."""
    num = (x * y) ** 2 * (x + y) ** 2
    den = (1.0 + aa * x) ** p * (1.0 + bb * y) ** p * (1.0 + cc * (x + y)) ** p
    return num / den


def test_model_integrand_matches_six_power_reference():
    # random points of the lower triangle (0,0), (A0,0), (A0/2,A0/2)
    rng = np.random.default_rng(3)
    u, v = rng.random((2, 4000))
    flip = u + v > 1.0
    u, v = np.where(flip, 1.0 - u, u), np.where(flip, 1.0 - v, v)
    x = A0_SIDE * u + 0.5 * A0_SIDE * v
    y = 0.5 * A0_SIDE * v
    pool = (1.0, 4.0, 16.0, 64.0, 256.0)
    p_values = (2.0, 2.8, 3.0, 4.0, 5.5)
    triples = list(itertools.product(pool, repeat=3))
    values = _model_integrand(p_values, triples)
    got = values(x, y, range(len(triples) * len(p_values)))
    for (a, b, c), p in itertools.product(triples, p_values):
        want = _model_g(x, y, p, a, b, c) + _model_g(y, x, p, a, b, c)
        np.testing.assert_allclose(next(got), want, rtol=1e-14, atol=0.0)


def test_prop_i_default_levels_are_pinned():
    # all 175 I_numeric calls of `su3char prop-i` at its defaults; a change
    # of rounding in the integrand or the sums must not flip a convergence
    # decision unnoticed
    cfg = _DEFAULTS["prop-i"]
    spec = _quad_spec(cfg)
    pool = sorted(float(v) for v in cfg["pool"].split(","))
    levels = []
    for p in (float(v) for v in cfg["p_values"].split(",")):
        for c, b, a in itertools.combinations_with_replacement(pool, 3):
            res = I_numeric(p, a, b, c, spec, full=True)
            assert res.converged, (p, a, b, c)
            levels.append(res.levels)
    assert sum(levels) == 451
    assert Counter(levels) == {2: 112, 3: 36, 4: 19, 5: 5, 6: 3}


# the three prop-i integrals that need all six levels, frozen from the
# uniformly refined Duffy rule (every triangle subdivided at every level)
UNIFORM_LEVEL6 = {
    (4.0, 256.0, 256.0, 256.0): 7.00027944658886e-23,
    (5.5, 256.0, 256.0, 256.0): 9.91704935048516e-25,
    (5.5, 256.0, 256.0, 64.0): 4.656538389603164e-23,
}


@pytest.mark.parametrize("key", sorted(UNIFORM_LEVEL6))
def test_locally_refined_level6_integrals_match_the_uniform_rule(key):
    res = I_numeric(*key, _quad_spec(_DEFAULTS["prop-i"]), full=True)
    assert res.converged and res.levels == 6
    assert res.value == pytest.approx(UNIFORM_LEVEL6[key], rel=1e-8)


def test_prop_i_table_evaluates_at_most_3000_triangles(monkeypatch):
    # (triangle, integral) pairs over the default table; 8 731 when every
    # open integral refined every triangle of its level
    cfg = _DEFAULTS["prop-i"]
    pool = sorted(float(v) for v in cfg["pool"].split(","))
    p_values = [float(v) for v in cfg["p_values"].split(",")]
    triples = [(a, b, c) for c, b, a in itertools.combinations_with_replacement(pool, 3)]
    pairs = []

    def counted(p_values, triples):
        values = _model_integrand(p_values, triples)
        return lambda x, y, ks: (pairs.append(len(ks)), values(x, y, ks))[1]

    monkeypatch.setattr(lpnorms, "_model_integrand", counted)
    I_numeric_table(p_values, triples, _quad_spec(cfg))
    assert sum(pairs) <= 3000


def test_prop_i_table_matches_one_call_per_integral():
    # the lockstep table of the default prop-i grid against 175 separate
    # I_numeric calls: same value bits, levels, last delta and convergence
    cfg = _DEFAULTS["prop-i"]
    spec = _quad_spec(cfg)
    pool = sorted(float(v) for v in cfg["pool"].split(","))
    p_values = [float(v) for v in cfg["p_values"].split(",")]
    triples = [(a, b, c) for c, b, a in itertools.combinations_with_replacement(pool, 3)]
    table = I_numeric_table(p_values, triples, spec, full=True)
    values = I_numeric_table(p_values, triples, spec)
    for p, row, value_row in zip(p_values, table, values):
        for (a, b, c), res, value in zip(triples, row, value_row):
            alone = I_numeric(p, a, b, c, spec, full=True)
            assert struct.pack("<d", res.value) == struct.pack("<d", alone.value)
            assert (res.levels, res.last_delta, res.converged) == \
                (alone.levels, alone.last_delta, alone.converged)
            assert value == res.value


def _two_power_integrand(p_values, triples):
    """_model_integrand with both denominators and both powers formed at
    every triple, a_t == b_t included."""
    n_p = len(p_values)

    def values(x, y, active):
        s = x + y
        num = (x * y) ** 2 * s ** 2
        for j, ks in itertools.groupby(active, lambda k: k // n_p):
            a_t, b_t, c_t = triples[j]
            shared = 1.0 + c_t * s
            d1 = (1.0 + a_t * x) * (1.0 + b_t * y) * shared
            d2 = (1.0 + a_t * y) * (1.0 + b_t * x) * shared
            for k in ks:
                yield num * (d1 ** -p_values[k % n_p] + d2 ** -p_values[k % n_p])

    return values


def test_symmetric_triples_equal_the_two_power_reference(monkeypatch):
    # at a_t == b_t one power, doubled, replaces two equal powers: the
    # default prop-i table's symmetric triples keep every bit and decision
    cfg = _DEFAULTS["prop-i"]
    spec = _quad_spec(cfg)
    pool = sorted(float(v) for v in cfg["pool"].split(","))
    p_values = [float(v) for v in cfg["p_values"].split(",")]
    triples = [(a, b, c) for c, b, a in itertools.combinations_with_replacement(pool, 3)
               if a == b] + [(16.0, 4.0, 1.0)]
    assert len(triples) == 16
    got = I_numeric_table(p_values, triples, spec, full=True)
    monkeypatch.setattr(lpnorms, "_model_integrand", _two_power_integrand)
    want = I_numeric_table(p_values, triples, spec, full=True)
    for row, want_row in zip(got, want):
        for res, ref in zip(row, want_row):
            assert struct.pack("<d", res.value) == struct.pack("<d", ref.value)
            assert (res.levels, res.last_delta, res.converged) == \
                (ref.levels, ref.last_delta, ref.converged)


def test_model_integral_monotone_in_each_argument():
    base = I_numeric(2.0, 2.0, 3.0, 4.0)
    assert I_numeric(2.0, 8.0, 3.0, 4.0) < base
    assert I_numeric(2.0, 2.0, 12.0, 4.0) < base
    assert I_numeric(2.0, 2.0, 3.0, 16.0) < base


def test_model_integral_rejects_bad_args():
    with pytest.raises(ValueError):
        I_numeric(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        I_numeric(2.0, 0.0, 1.0, 1.0)


P_ENTRY_POINTS = {
    "haar_lp_norm": lambda p: haar_lp_norm((3, 2), p),
    "predicted_singular_bound": lambda p: predicted_singular_bound((3, 2), p),
    "predicted_regular_bound": lambda p: predicted_regular_bound((3, 2), p),
    "predicted_dimension_bound": lambda p: predicted_dimension_bound((3, 2), p),
    "I_numeric_table": lambda p: I_numeric_table([2.0, p], [(1.0, 1.0, 1.0)]),
    "I_numeric": lambda p: I_numeric(p, 1.0, 1.0, 1.0),
    "I_bound": lambda p: I_bound(p, 3.0, 2.0, 1.0),
}


@pytest.mark.parametrize("p", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("entry", list(P_ENTRY_POINTS))
def test_every_lp_entry_point_refuses_p_outside_0_to_inf(entry, p):
    # not a number, a resource error (exit 3) or a quadrature of an inf power
    with pytest.raises(ValueError, match="p must be positive and finite"):
        P_ENTRY_POINTS[entry](p)


def test_model_integral_table_checks_its_triples_without_any_p():
    with pytest.raises(ValueError, match="a_t, b_t, c_t must be positive"):
        I_numeric_table([], [(0.0, 1.0, 1.0)])


def test_I_bound_examples():
    assert I_bound(2.0, 1.0, 1.0, 1.0) == 1.0
    assert I_bound(4.0, 16.0, 8.0, 2.0) == pytest.approx(
        16.0 ** -3 * 8.0 ** -4 * 2.0 ** -1, rel=1e-15
    )
    assert I_bound(6.0, 16.0, 8.0, 2.0) == pytest.approx(
        16.0 ** -3 * 8.0 ** -5, rel=1e-15
    )


def test_I_bound_boundary_cases_carry_logs():
    a, b, c = 64.0, 16.0, 4.0
    assert I_bound(8.0 / 3.0, a, b, c) == pytest.approx(
        (a * b * c) ** (-8.0 / 3.0) * math.log(2.0 + c), rel=1e-13
    )
    assert I_bound(3.0, a, b, c) == pytest.approx(
        a ** -3 * b ** -3 * c ** -2 * math.log(2.0 + a / c), rel=1e-13
    )
    assert I_bound(5.0, a, b, c) == pytest.approx(
        a ** -3 * b ** -5 * math.log(2.0 + b / c), rel=1e-13
    )


def test_I_bound_evaluates_only_its_own_case():
    # below 8/3 this triple's c^-p would overflow; above 5 the bound is a^-3 b^-5
    assert I_bound(6.0, 1.0, 1.0, 1e-200) == 1.0


@pytest.mark.parametrize("p, triple, value", [
    (2.7, (1e-300, 1e-300, 1e-300), "inf"),  # a ** -p overflows
    (2.0, (1e200, 1e200, 1e200), "0.0"),  # the product underflows
])
def test_I_bound_outside_the_floats_is_refused_naming_p_and_the_triple(p, triple, value):
    a, b, c = triple
    with pytest.raises(ValueError, match=re.escape(f"I_bound(p={p}, {a}, {b}, {c}) = {value} ")):
        I_bound(p, *triple)


def test_I_bound_rejects_unsorted_and_names_the_fix():
    with pytest.raises(ValueError, match="mu_stats"):
        I_bound(2.0, 1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        I_bound(2.0, 3.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        I_bound(-1.0, 3.0, 2.0, 1.0)


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------

def test_family_weight():
    assert family_weight("axis", 7) == DominantWeight(7, 0)
    assert family_weight("diagonal", 7) == DominantWeight(7, 7)
    assert family_weight("fixed_b", 7, b0=3) == DominantWeight(7, 3)
    with pytest.raises(ValueError):
        family_weight("ray", 7)


def test_ols_recovers_exact_power_law():
    ns = [8, 16, 32, 64, 128]
    norms = [3.0 * n ** 0.4 for n in ns]
    slope, residual = _ols_loglog(ns, norms)
    assert slope == pytest.approx(0.4, abs=1e-12)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_scaling_fit_refits_without_the_smallest_N_past_the_residual_limit(monkeypatch):
    def kinked(mu, p, spec=None):  # N^(1/2) but for a transient at the smallest N
        norm = 50.0 if mu.a == 4 else mu.a ** 0.5
        return LpReport(mu.a, mu.b, p, norm, 1.0, 1.0, None, None, 1, 0.0, True, 1e-6)

    monkeypatch.setattr(lpnorms, "haar_lp_norm", kinked)
    fit = scaling_fit("axis", 2.0, N_values=(4, 8, 16, 32, 64))
    assert fit.residual > 0.02
    rest = fit.table[1:]
    assert (fit.slope_trimmed, fit.residual_trimmed) == \
        _ols_loglog([r.N for r in rest], [r.norm for r in rest])
    assert fit.slope_trimmed == pytest.approx(0.5, abs=1e-12)


def test_scaling_fit_requires_four_points():
    with pytest.raises(ValueError):
        scaling_fit("axis", 4.0, N_values=(8, 16, 32))


def test_scaling_fit_smoke_axis_p4():
    fit = scaling_fit("axis", 4.0, N_values=(4, 8, 16, 32))
    assert fit.family == "axis" and fit.p == 4.0
    assert len(fit.table) == 4
    # ||chi_(N,0)||_4 = (N+1)^{1/4}: slope of log(N+1)/4 against log N
    want, _ = _ols_loglog([4, 8, 16, 32], [(n + 1) ** 0.25 for n in (4, 8, 16, 32)])
    assert fit.slope == pytest.approx(want, abs=1e-6)
    for row in fit.table:
        assert row.ratio == row.norm / row.predicted
