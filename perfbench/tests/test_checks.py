"""Each benchmark output check passes on correct values and fails when one
value is perturbed.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import copy
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
from checks import (  # noqa: E402
    accuracy_digits,
    check_family,
    check_fit,
    check_oracle_diff,
    check_point,
    check_prop_i,
    check_rank1,
    check_sweep,
    Tally,
    cli_checks,
)

NS = (8, 16, 32, 64, 128)


def all_ok(result):
    return all(c.ok for c in result)


# -- lp_norms ----------------------------------------------------------------

def fit_case(tag):
    want = checks.SLOPE_TARGETS[tag][0]
    if tag == "axis_p4":
        rows = [{"N": n, "norm": (n + 1) ** 0.25} for n in NS]
    elif tag == "diag_p2":
        rows = [{"N": n, "norm": 1.0} for n in NS]
    else:
        rows = [{"N": n, "norm": float(n) ** want} for n in NS]
    return {"slope": want + 0.01, "slope_trimmed": None}, rows


@pytest.mark.parametrize("tag", sorted(checks.SLOPE_TARGETS))
def test_fit_passes_and_fails_on_slope(tag):
    summary, rows = fit_case(tag)
    assert all_ok(check_fit(tag, summary, rows))
    tol = checks.SLOPE_TARGETS[tag][1]
    bad = dict(summary, slope=summary["slope"] + 2 * tol)
    assert not all_ok(check_fit(tag, bad, rows))
    # a trimmed slope, when present, is the one judged
    assert not all_ok(check_fit(tag, dict(summary, slope_trimmed=bad["slope"]), rows))


@pytest.mark.parametrize("tag", ["axis_p4", "diag_p2"])
def test_fit_exact_norm_oracle_fails_on_perturbed_norm(tag):
    summary, rows = fit_case(tag)
    rows = copy.deepcopy(rows)
    rows[2]["norm"] *= 1.0 + 1e-8
    result = check_fit(tag, summary, rows)
    assert [c.name for c in result if not c.ok] == [f"{tag}.{'norm4' if tag == 'axis_p4' else 'norm2'}_N32"]


def test_family_fails_on_nonconvergence_and_growth():
    norms = {n: 1.0 + 0.001 * i for i, n in enumerate((1, 2, 64, 128))}
    conv = {n: True for n in norms}
    assert all_ok(check_family(norms, conv))
    assert not all_ok(check_family(norms, {**conv, 128: False}))
    assert not all_ok(check_family({**norms, 128: 1.2 * norms[64]}, conv))


# -- envelope_sweep ----------------------------------------------------------

def sweep_payload():
    shells = [{"shell": s, "max_ratio": 0.14 if s <= 20 else 0.141} for s in range(41)]
    return {
        "c_emp": 0.144, "argmax": {"ratio": 0.144}, "shells": shells,
        "finite_ok": True, "ratio_at_zero_exact": True,
    }


@pytest.mark.parametrize("perturb", [
    lambda p: p.update(finite_ok=False),
    lambda p: p.update(c_emp=math.inf),
    lambda p: p.update(ratio_at_zero_exact=False),
    lambda p: p["shells"][-1].update(max_ratio=0.14 * 1.06),
    lambda p: p.update(c_emp=0.1441),
])
def test_sweep_fails_on_perturbed_payload(perturb):
    assert all_ok(check_sweep(sweep_payload(), 0.144))
    bad = copy.deepcopy(sweep_payload())
    perturb(bad)
    assert not all_ok(check_sweep(bad, 0.144))


def test_sweep_fails_on_recomputed_argmax():
    assert not all_ok(check_sweep(sweep_payload(), 0.144 * (1.0 + 1e-8)))


# -- scalar_checks -----------------------------------------------------------

def point(regime, **kw):
    rec = {"mu": (2, 1), "dim": 15, "regime": regime, "t": (0.3, 0.4),
           "stable": 1 + 2j, "envelope": 40.0, "ratio": 0.05, "schur": None, "routes": {}}
    rec.update(kw)
    return rec


GOOD_POINTS = {
    "zero": point("zero", stable=15 + 0j, envelope=180.0, ratio=1.0 / 12.0, t=(0.0, 0.0)),
    "central": point("central", t=(0.0, 2 * math.pi),
                     stable=15 * complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))),
    "regular": point("regular", schur=1 + 2j, routes={"chi_weyl": 1 + 2j + 1e-12}),
    "wall": point("wall", schur=1 + 2j, routes={f"descent{j}": 1 + 2j + 1e-9 for j in range(3)}),
    "corner": point("corner", ratio=0.1),
}

BAD_POINTS = [
    ("zero", dict(stable=15 + 1e-13j)),
    ("zero", dict(envelope=180.0 * (1 + 1e-15))),
    ("zero", dict(ratio=1.0 / 12.0 + 1e-17)),
    ("central", dict(t=(2 * math.pi, 0.0))),  # the other corner takes the conjugate
    ("regular", dict(stable=1 + 2j + 15 * 2e-8)),
    ("regular", dict(routes={"chi_weyl": 1 + 2j + 15 * 2e-8})),
    ("wall", dict(routes={"descent0": 1 + 2j, "descent1": 1 + 2j + 15 * 2e-6, "descent2": 1 + 2j})),
    ("corner", dict(ratio=1.5)),
    ("corner", dict(ratio=math.nan)),
]


def test_good_points_pass():
    for rec in GOOD_POINTS.values():
        assert all_ok(check_point(rec)), rec["regime"]


@pytest.mark.parametrize("regime,change", BAD_POINTS)
def test_point_fails_on_perturbed_value(regime, change):
    assert not all_ok(check_point(dict(GOOD_POINTS[regime], **change)))


def test_point_checks_pass_on_real_evaluations():
    import su3char
    from su3char import DominantWeight, TorusPoint

    for a, b in ((0, 0), (1, 0), (0, 1), (5, 2), (4, 9)):
        mu = DominantWeight(a, b)
        for regime, t in (("zero", (0.0, 0.0)), ("central", (2 * math.pi, 0.0)),
                          ("central", (0.0, 2 * math.pi))):
            H = TorusPoint.from_alcove_coords(*t)
            rec = point(regime, mu=(a, b), dim=su3char.dim(mu), t=t,
                        stable=su3char.chi_stable(mu, H).value,
                        envelope=su3char.envelope_min(mu, H).min_form,
                        ratio=su3char.ratio(mu, H).ratio)
            assert all_ok(check_point(rec)), (a, b, regime, t)


def test_cli_checks_fail_on_exit_code():
    stdout = json.dumps({"min_margin": 0.0})
    assert [c.ok for c in cli_checks("rank1", 0, stdout, check_rank1)] == [True, True]
    # a failed command is one failed check; its (empty) stdout is not parsed
    assert [c.ok for c in cli_checks("rank1", 5, "", check_rank1)] == [False]


def test_cli_payload_checks_fail_on_perturbed_payloads():
    od = {"regime": "wall", "max_abs_diff": 1e-13, "tol": 2.34e-6}
    assert all_ok(check_oracle_diff(od))
    assert not all_ok(check_oracle_diff(dict(od, max_abs_diff=3e-6)))

    assert all_ok(check_rank1({"min_margin": 0.0}))
    assert not all_ok(check_rank1({"min_margin": -2e-12}))

    per_p = [{"p": p, "K": 1.0} for p in (2.0, 2.8, 3.0, 4.0, 5.5)]
    prop = {"per_p": per_p, "max_shell_growth": 1.15}
    assert all_ok(check_prop_i(prop))
    assert not all_ok(check_prop_i(dict(prop, max_shell_growth=1.21)))
    assert not all_ok(check_prop_i(dict(prop, per_p=per_p[:4])))
    assert not all_ok(check_prop_i(dict(prop, per_p=per_p[:4] + [{"p": 5.5, "K": math.inf}])))


# -- tally and the metric table ----------------------------------------------

def test_tally_and_accuracy_digits():
    result = check_point(GOOD_POINTS["zero"]) + check_point(dict(GOOD_POINTS["zero"], stable=16 + 0j))
    tally = Tally()
    tally.add(result[:3])
    tally.add(result[3:])
    assert tally.attempted == len(result) and tally.failed == 1
    assert tally.failures == ["(2,1).zero.chi_is_dim"]
    assert tally.max_rel_err == pytest.approx(1.0 / 15.0)
    assert accuracy_digits(0.0) == pytest.approx(53 * math.log10(2.0))
    assert accuracy_digits(1e-12) == pytest.approx(12.0)


def test_benchmark_json_lists_every_metric():
    import run
    from tracing import Tracer, layer_metrics

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = layer_metrics(Tracer(), 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in layers
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_tracer_spans_nest_across_module_bindings_and_uninstall():
    import su3char
    from su3char import DominantWeight, character, lpnorms
    from tracing import ROOT, Tracer, layer_metrics

    original = lpnorms.chi_on_grid
    tr = Tracer()
    tr.install()
    try:
        assert lpnorms.chi_on_grid is not original
        assert character.chi_on_grid is lpnorms.chi_on_grid
        rep = tr.call(ROOT, su3char.haar_lp_norm, DominantWeight(2, 1), 2.0)
    finally:
        tr.uninstall()
    assert lpnorms.chi_on_grid is original and su3char.chi_on_grid is original
    assert rep.converged and rep.norm == pytest.approx(1.0, abs=1e-12)

    names = {sid: (name, parent) for sid, name, _t0, _t1, parent in tr.spans}

    def chain(sid):
        out = []
        while sid >= 0:
            name, sid = names[sid]
            out.append(name)
        return out

    grid = [sid for sid, (name, _) in names.items() if name == "character.chi_on_grid"]
    assert grid and chain(grid[0]) == [
        "character.chi_on_grid", "lpnorms.integrand", "quadrature.periodic_trapezoid_2d",
        "lpnorms.haar_lp_norm", ROOT,
    ]
    incl, self_s, calls = tr.self_times()
    assert sum(self_s.values()) == pytest.approx(incl[ROOT], rel=1e-9)
    m = layer_metrics(tr, incl[ROOT])
    assert m["lpnorms.haar_lp_norm.calls"] == 1
    assert m["character.chi_on_grid.points"] == m["character.route.weyl.points"] + sum(
        m[f"character.route.{r}.points"] for r in ("descent", "schur", "weyl_fallback"))
    # the numerator and the normaliser each take two doubling levels
    assert m["quadrature.periodic_trapezoid_2d.levels"] == 4
