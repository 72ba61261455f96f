import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from su3char import (
    ConvergenceError,
    QuadratureResult,
    adaptive_triangle,
    periodic_trapezoid_2d,
)
from su3char.quadrature import (
    subdivide_triangle,
    triangle_batch,
    triangle_rule,
)

UNIT = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def test_triangle_rule_exact_on_polynomials():
    x, y, w = triangle_rule(UNIT, 12)
    assert math.fsum(w.tolist()) == pytest.approx(0.5, rel=1e-14)
    assert float(w @ x) == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert float(w @ (x * y)) == pytest.approx(1.0 / 24.0, rel=1e-12)
    assert float(w @ (x ** 2 * y)) == pytest.approx(1.0 / 60.0, rel=1e-12)


def test_triangle_rule_scales_with_area():
    big = ((0.0, 0.0), (2.0, 0.0), (0.0, 4.0))
    _, _, w = triangle_rule(big, 8)
    assert math.fsum(w.tolist()) == pytest.approx(4.0, rel=1e-14)


def test_subdivision_covers_parent():
    children = subdivide_triangle(UNIT)
    assert len(children) == 4

    def area(t):
        (ax, ay), (bx, by), (cx, cy) = t
        return abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)) / 2.0

    assert sum(area(c) for c in children) == pytest.approx(area(UNIT), rel=1e-15)
    for c in children:
        assert area(c) == pytest.approx(area(UNIT) / 4.0, rel=1e-12)


def test_adaptive_triangle_converges_on_smooth_integrand():
    res = adaptive_triangle(lambda x, y: np.exp(-(x + y)), UNIT, base_rule=16)
    res.require_converged("exp test")
    # int over unit simplex of e^{-(x+y)} = 1 - 2/e
    assert res.value == pytest.approx(1.0 - 2.0 / math.e, rel=1e-10)
    assert res.levels >= 2
    assert res.converged


def test_adaptive_triangle_flags_nonconvergence():
    # genuinely rough integrand, no refinement budget
    res = adaptive_triangle(
        lambda x, y: np.abs(np.sin(40.0 / (x + y + 1e-3))),
        UNIT,
        base_rule=4,
        max_refinements=0,
        rel_tol=1e-12,
    )
    assert not res.converged
    assert res.last_delta == math.inf
    with pytest.raises(ConvergenceError) as exc_info:
        res.require_converged("rough test")
    assert exc_info.value.result is res


def test_adaptive_triangle_is_deterministic():
    f = lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y
    r1 = adaptive_triangle(f, UNIT, base_rule=24)
    r2 = adaptive_triangle(f, UNIT, base_rule=24)
    assert r1 == r2


def _triangulation_sum(f, tris, n):
    """triangle_batch's reduction: np.sum over each triangle's n*n nodes,
    math.fsum across triangles."""
    parts = []
    for t in tris:
        x, y, w = triangle_rule(t, n)
        parts.append(float(np.sum(w * f(x, y))))
    return math.fsum(parts)


def test_triangulation_sum_does_not_depend_on_triangle_order():
    f = lambda x, y: np.exp(np.sin(7.0 * x) * y) / (1e-3 + x + y)
    tris = [UNIT]
    for _ in range(3):
        tris = [child for t in tris for child in subdivide_triangle(t)]
    fwd = _triangulation_sum(f, tris, 16)
    rev = _triangulation_sum(f, tris[::-1], 16)
    assert struct.pack("<d", fwd) == struct.pack("<d", rev)


def test_triangle_batch_matches_separate_calls_with_their_own_stops():
    fs = [
        lambda x, y: x * y + 1.0,                              # stops after 2 levels
        lambda x, y: np.exp(-(x + y)),                         # 2
        lambda x, y: np.sqrt(x + y + 1e-4) * np.sin(9.0 * x),  # 4
        lambda x, y: np.abs(np.sin(40.0 / (x + y + 1e-3))),    # never converges
    ]
    calls = []

    def values(x, y, active):
        calls.append(list(active))
        return (fs[k](x, y) for k in active)

    batch = triangle_batch(values, len(fs), UNIT, base_rule=8, max_refinements=4, rel_tol=1e-7)
    alone = [adaptive_triangle(f, UNIT, base_rule=8, max_refinements=4, rel_tol=1e-7) for f in fs]
    assert [struct.pack("<d", r.value) for r in batch] == [struct.pack("<d", r.value) for r in alone]
    assert batch == alone
    assert [r.levels for r in batch] == [2, 2, 4, 5] and not batch[-1].converged
    # stopped integrals drop out of the batch; nodes are built once per
    # triangle; from level 2 on, integral 2 keeps only 4 of its 16 parents
    # open (16 children), while the rough integral 3 closes none
    assert Counter(map(tuple, calls)) == {(0, 1, 2, 3): 1 + 4, (2, 3): 16 + 16, (3,): 48 + 256}


def test_closed_triangles_keep_their_share_of_the_total():
    # a layer of width 1e-2 along y = 0: the refined total matches the
    # uniform rule of the same depth, on far fewer triangles
    f = lambda x, y: np.exp(-100.0 * y) * (1.0 + x)
    tris = [UNIT]
    for _ in range(4):
        tris = [child for t in tris for child in subdivide_triangle(t)]
    uniform = _triangulation_sum(f, tris, 8)
    calls = []

    def values(x, y, active):
        calls.append(len(active))
        return (f(x, y),)

    [res] = triangle_batch(values, 1, UNIT, base_rule=8, max_refinements=4, rel_tol=1e-9)
    assert res.levels == 5
    assert res.value == pytest.approx(uniform, rel=1e-9)
    assert len(calls) < 1 + 4 + 16 + 64 + 256


def test_rough_integrand_within_budget_is_not_converged():
    # closing triangles must not pass off an unresolved integrand as converged
    [res] = triangle_batch(lambda x, y, _: (np.abs(np.sin(40.0 / (x + y + 1e-3))),), 1, UNIT,
                           base_rule=4, max_refinements=3, rel_tol=1e-9)
    assert res.levels == 4 and not res.converged
    assert math.isfinite(res.last_delta) and res.last_delta > 1e-9
    with pytest.raises(ConvergenceError, match="no convergence after 4 levels"):
        res.require_converged("rough test")


def test_periodic_trapezoid_exact_for_trig_polynomials():
    # f = (1 + cos(3 t1)) (1 + sin(2 t2)): mean 1, bandwidth 3 < n
    def f(t1, t2):
        return (1.0 + np.cos(3.0 * t1)) * (1.0 + np.sin(2.0 * t2))

    res = periodic_trapezoid_2d(f, 2.0 * math.pi, n0=8)
    assert res.converged
    assert res.value == pytest.approx((2.0 * math.pi) ** 2, rel=1e-14)
    assert res.levels == 2  # exact at n0 and 2*n0, stops immediately


def test_periodic_trapezoid_outgrows_aliasing():
    # cos(8 t1) aliases to +1 on the 8-point grid, so the first level reads
    # 2*(2pi)^2; doubling resolves the mode and the rule settles on the mean
    def f(t1, t2):
        return 1.0 + np.cos(8.0 * t1)

    area = (2.0 * math.pi) ** 2
    res = periodic_trapezoid_2d(f, 2.0 * math.pi, n0=8, max_doublings=3)
    assert res.converged
    assert res.levels == 3
    assert res.value == pytest.approx(area, rel=1e-14)


def test_periodic_trapezoid_rejects_bad_args():
    f = lambda t1, t2: t1 * 0.0 + 1.0
    with pytest.raises(ValueError):
        periodic_trapezoid_2d(f, 1.0, n0=1)
    with pytest.raises(ValueError):
        periodic_trapezoid_2d(f, 1.0, n0=4, rel_tol=0.0)
    with pytest.raises(ValueError):
        adaptive_triangle(f, UNIT, rel_tol=-1.0)
    with pytest.raises(ValueError, match="one level"):
        periodic_trapezoid_2d(f, 1.0, n0=4, max_doublings=-1)
    with pytest.raises(ValueError, match="one level"):
        adaptive_triangle(f, UNIT, max_refinements=-1)


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf])
def test_non_finite_tolerance_is_refused_before_the_first_level(rel_tol):
    calls = []

    def f(t1, t2):
        calls.append(t1.size)
        return t1 * 0.0 + 1.0

    with pytest.raises(ValueError, match="finite"):
        periodic_trapezoid_2d(f, 1.0, n0=4, rel_tol=rel_tol)
    with pytest.raises(ValueError, match="finite"):
        adaptive_triangle(f, UNIT, rel_tol=rel_tol)
    assert calls == []


@given(st.integers(2, 40))
def test_trapezoid_constant_is_exact_for_any_grid(n):
    res = periodic_trapezoid_2d(lambda a, b: np.full_like(a, 2.5), 1.0, n0=n)
    assert res.value == pytest.approx(2.5, rel=1e-15)


def test_quadrature_result_fields():
    res = QuadratureResult(1.0, 3, 1e-9, True)
    assert res.require_converged("x") is res
