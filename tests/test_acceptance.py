"""End-to-end acceptance checks.

One test per numbered criterion.  Each test appends a PASS/FAIL line to the
terminal summary (see conftest) before asserting, so the full scorecard is
visible even when a later criterion fails.  Runtime budgets are asserted
where the criterion states one.

The envelope sweep and the scaling fits run through the CLI in a subprocess
(that is the interface being certified) with SU3CHAR_THREADS pinned; the
determinism criterion reruns them with a different thread count and compares
artifact bytes.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, acceptance3_points, random_alcove_point
from su3char import (
    DominantWeight,
    QuadratureSpec,
    TorusPoint,
    WEYL_GROUP,
    chi_schur,
    chi_stable,
    chi_weyl,
    descent_terms,
    dim,
    haar_lp_norm,
    rank1_bound_margin,
)
from su3char.character import _schur_table
from test_cartan import weyl_act_torus, weyl_act_weight

CLI = [sys.executable, "-m", "su3char.cli"]


def record(name: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")


def run_cli(args, threads: int):
    env = dict(os.environ, SU3CHAR_THREADS=str(threads))
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise AssertionError(
            f"CLI {' '.join(args)} exited {proc.returncode}: {proc.stderr}"
        )
    return json.loads(proc.stdout)


# -- 1 ----------------------------------------------------------------------

def test_1_rank_one_margin():
    t0 = time.perf_counter()
    thetas = math.pi * np.arange(1, 10_001, dtype=np.float64) / 10_001.0
    worst = math.inf
    for n in range(201):
        worst = min(worst, float(rank1_bound_margin(n, thetas).min()))
    dt = time.perf_counter() - t0
    ok = worst >= -1e-12 and dt < 5.0
    record("1 rank-one margin", ok,
           f"min margin {worst:.3e} over n<=200 x 10^4 angles, {dt:.2f}s (budget 5s)")
    assert worst >= -1e-12
    assert dt < 5.0


# -- 2 ----------------------------------------------------------------------

def test_2_dimension_identity():
    t0 = time.perf_counter()
    zero = TorusPoint((0.0, 0.0, 0.0))
    bad_value = bad_count = 0
    for a in range(31):
        for b in range(31):
            mu = DominantWeight(a, b)
            if chi_stable(mu, zero).value != complex(dim(mu)):
                bad_value += 1
    for a in range(21):
        for b in range(21):
            (_, _, _, rest), ones = _schur_table(a, b)
            if ones + int(rest.sum()) != dim(DominantWeight(a, b)):
                bad_count += 1
    dt = time.perf_counter() - t0
    ok = bad_value == 0 and bad_count == 0 and dt < 30.0
    record("2 dimension identity", ok,
           f"chi(mu,0)=dim exact for 961 weights, pattern count matches for 441, "
           f"{dt:.2f}s (budget 30s)")
    assert bad_value == 0
    assert bad_count == 0
    assert dt < 30.0


# -- 3 ----------------------------------------------------------------------

def test_3_oracle_equivalence():
    t0 = time.perf_counter()
    regular, near_wall = acceptance3_points()

    worst_reg = 0.0   # max |weyl - schur| / dim
    worst_wall = 0.0  # max |descent_j - schur| / dim over all three j
    for a in range(13):
        for b in range(13):
            mu = DominantWeight(a, b)
            lam = mu.shifted()
            d = dim(mu)
            for H in regular:
                diff = abs(chi_weyl(lam, H).value - chi_schur(mu, H).value)
                worst_reg = max(worst_reg, diff / d)
            for H in near_wall:
                ref = chi_schur(mu, H).value
                for j in range(3):
                    diff = abs(descent_terms(lam, H, j).assembled() - ref)
                    worst_wall = max(worst_wall, diff / d)
    dt = time.perf_counter() - t0
    ok = worst_reg <= 1e-8 and worst_wall <= 1e-6 and dt < 120.0
    record("3 oracle equivalence", ok,
           f"|weyl-schur|/dim <= {worst_reg:.2e} (tol 1e-8) on 100 regular H; "
           f"|descent_j-schur|/dim <= {worst_wall:.2e} (tol 1e-6) on 100 near-wall H, "
           f"{dt:.1f}s (budget 120s)")
    assert worst_reg <= 1e-8
    assert worst_wall <= 1e-6
    assert dt < 120.0


# -- 4 ----------------------------------------------------------------------

def test_4_symmetry_suite():
    rng = np.random.default_rng(271828)
    worst = {"weyl_invariance": 0.0, "antisymmetry": 0.0,
             "conjugation": 0.0, "descent_j": 0.0}

    for _ in range(500):
        mu = DominantWeight(int(rng.integers(0, 13)), int(rng.integers(0, 13)))
        d = dim(mu)
        s = WEYL_GROUP[rng.integers(0, 6)]
        H = random_alcove_point(rng)
        diff = abs(chi_stable(mu, weyl_act_torus(s, H)).value
                   - chi_stable(mu, H).value)
        worst["weyl_invariance"] = max(worst["weyl_invariance"], diff / d)

    for _ in range(500):
        mu = DominantWeight(int(rng.integers(0, 13)), int(rng.integers(0, 13)))
        d = dim(mu)
        lam = mu.shifted()
        s = WEYL_GROUP[rng.integers(0, 6)]
        H = random_alcove_point(rng, min_wall=0.01)
        diff = abs(chi_weyl(weyl_act_weight(s, lam), H).value
                   - s.sign * chi_weyl(lam, H).value)
        worst["antisymmetry"] = max(worst["antisymmetry"], diff / d)

    for _ in range(500):
        a, b = int(rng.integers(0, 13)), int(rng.integers(0, 13))
        d = dim(DominantWeight(a, b))
        # the 1e-10 dual-representation identity is only observable where the
        # evaluations themselves are that accurate, i.e. off the walls
        H = random_alcove_point(rng, min_wall=0.01)
        diff = abs(chi_stable(DominantWeight(a, b), H).value
                   - chi_stable(DominantWeight(b, a), H).value.conjugate())
        worst["conjugation"] = max(worst["conjugation"], diff / d)

    for _ in range(500):
        mu = DominantWeight(int(rng.integers(0, 13)), int(rng.integers(0, 13)))
        d = dim(mu)
        lam = mu.shifted()
        H = random_alcove_point(rng, min_wall=0.05)
        v = [descent_terms(lam, H, j).assembled() for j in range(3)]
        spread = max(abs(v[0] - v[1]), abs(v[1] - v[2]), abs(v[0] - v[2]))
        worst["descent_j"] = max(worst["descent_j"], spread / d)

    tol = {"weyl_invariance": 1e-8, "antisymmetry": 1e-8,
           "conjugation": 1e-10, "descent_j": 1e-8}
    ok = all(worst[k] <= tol[k] for k in worst)
    record("4 symmetry suite", ok,
           "; ".join(f"{k} {worst[k]:.2e} (tol {tol[k]:.0e})" for k in worst)
           + "; 500 configs each")
    for k in worst:
        assert worst[k] <= tol[k], k


# -- 5 + 10 (sweep) ----------------------------------------------------------

@pytest.fixture(scope="session")
def artifact_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("artifacts")

def _sweep_args(tag: str, out_dir):
    return [
        "verify-envelope",
        "--out-csv", str(out_dir / f"sweep_{tag}.csv"),
        "--out-json", str(out_dir / f"sweep_{tag}.json"),
    ]

@pytest.fixture(scope="session")
def sweep_run(artifact_dir):
    t0 = time.perf_counter()
    payload = run_cli(_sweep_args("t1", artifact_dir), threads=1)
    return payload, time.perf_counter() - t0


def test_5_envelope_certification(sweep_run, artifact_dir):
    payload, dt = sweep_run
    shells = payload["shells"]
    low = max(s["max_ratio"] for s in shells if 0 <= s["shell"] <= 20)
    high = max(s["max_ratio"] for s in shells if 20 <= s["shell"] <= 40)
    finite = payload["finite_ok"] and math.isfinite(payload["c_emp"])
    ok = (finite and payload["ratio_at_zero_exact"]
          and high <= 1.05 * low and dt < 1800.0)
    record("5 envelope ratio sweep", ok,
           f"c_emp {payload['c_emp']:.4f} over {payload['mu_count']} weights x "
           f"{payload['grid_total']} points; shell max [20,40] {high:.4f} <= "
           f"1.05 x [0,20] {low:.4f}; ratio(mu,0)=1/12 exact: "
           f"{payload['ratio_at_zero_exact']}; {dt:.0f}s (budget 1800s)")
    assert finite
    assert payload["ratio_at_zero_exact"]
    assert high <= 1.05 * low
    assert dt < 1800.0


# -- 6 ----------------------------------------------------------------------

def test_6_l2_orthonormality():
    t0 = time.perf_counter()
    worst = 0.0
    for a in range(11):
        for b in range(11):
            rep = haar_lp_norm(DominantWeight(a, b), 2.0)
            assert rep.converged
            worst = max(worst, abs(rep.norm - 1.0))
    four = haar_lp_norm(DominantWeight(1, 0), 4.0)
    dev4 = abs(four.norm - 2.0 ** 0.25)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dev4 <= 1e-5 and dt < 600.0
    record("6 L2 orthonormality", ok,
           f"max ||chi||_2 deviation {worst:.2e} over 121 weights (tol 1e-5); "
           f"||chi_(1,0)||_4 off 2^(1/4) by {dev4:.2e} (tol 1e-5); "
           f"{dt:.1f}s (budget 600s)")
    assert worst <= 1e-5
    assert dev4 <= 1e-5
    assert dt < 600.0


# -- 7 + 10 (scaling) --------------------------------------------------------

_SCALING_RUNS = (
    ("axis_p4", "axis", "4"),
    ("axis_p6", "axis", "6"),
    ("diag_p4", "diagonal", "4"),
    ("diag_p2", "diagonal", "2"),
)

def _scaling_args(tag, family, p, suffix, out_dir):
    return [
        "scaling", "--family", family, "--p", p,
        "--out-csv", str(out_dir / f"scaling_{tag}_{suffix}.csv"),
        "--out-json", str(out_dir / f"scaling_{tag}_{suffix}.json"),
    ]

@pytest.fixture(scope="session")
def scaling_runs(artifact_dir):
    t0 = time.perf_counter()
    payloads = {
        tag: run_cli(_scaling_args(tag, family, p, "t1", artifact_dir), threads=1)
        for tag, family, p in _SCALING_RUNS
    }
    return payloads, time.perf_counter() - t0


def _final_slope(payload):
    # the fit drops the smallest N on a poor full-fit residual; use its result
    if payload["slope_trimmed"] is not None:
        return payload["slope_trimmed"]
    return payload["slope"]


def test_7_scaling_exponents(scaling_runs):
    payloads, dt = scaling_runs
    slopes = {tag: _final_slope(payloads[tag]) for tag in payloads}
    targets = {"axis_p4": (0.25, 0.05), "axis_p6": (2.0 / 3.0, 0.07),
               "diag_p4": (1.00, 0.07), "diag_p2": (0.0, 0.02)}
    devs = {tag: abs(slopes[tag] - targets[tag][0]) for tag in targets}
    ok = all(devs[tag] <= targets[tag][1] for tag in targets) and dt < 3600.0
    record("7 scaling exponents", ok,
           "; ".join(
               f"{tag} slope {slopes[tag]:+.3f} vs {targets[tag][0]:+.3f}"
               f"+-{targets[tag][1]}" for tag in targets)
           + f"; N in 8..512, {dt:.0f}s (budget 3600s)")
    for tag, (want, tol) in targets.items():
        assert devs[tag] <= tol, (tag, slopes[tag], want)
    assert dt < 3600.0


# -- 8 ----------------------------------------------------------------------

def test_8_model_integral_bound(artifact_dir):
    t0 = time.perf_counter()
    payload = run_cli([
        "prop-i",
        "--out-csv", str(artifact_dir / "prop_i.csv"),
        "--out-json", str(artifact_dir / "prop_i.json"),
    ], threads=1)
    dt = time.perf_counter() - t0
    ks = {e["p"]: e["K"] for e in payload["per_p"]}
    growth = payload["max_shell_growth"]
    finite = all(math.isfinite(k) and k > 0.0 for k in ks.values())
    ok = finite and growth <= 1.2 and dt < 600.0
    record("8 model integral bound", ok,
           f"K per p {{{', '.join(f'{p}: {k:.3f}' for p, k in sorted(ks.items()))}}}; "
           f"max shell growth {growth:.3f} (tol 1.2); {dt:.0f}s (budget 600s)")
    assert finite
    assert growth <= 1.2
    assert dt < 600.0
    assert sorted(ks) == [2.0, 2.8, 3.0, 4.0, 5.5]


# -- 9 ----------------------------------------------------------------------

def test_9_bounded_norm_family():
    # log-spaced sample of n <= 512 (boundedness check; includes both the
    # reference point n=64 and the endpoint 512)
    ns = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512)
    spec = QuadratureSpec(rel_tol=1e-4)
    t0 = time.perf_counter()
    norms = {}
    for n in ns:
        rep = haar_lp_norm(DominantWeight(n, 0), 2.5, spec)
        assert rep.converged, n
        norms[n] = rep.norm
    dt = time.perf_counter() - t0
    peak = max(norms.values())
    ref = norms[64]
    ok = peak <= 1.1 * ref
    record("9 bounded-norm family", ok,
           f"max ||chi_(n,0)||_2.5 = {peak:.5f} over n in {{1..512}} (18 log-spaced) "
           f"<= 1.1 x {ref:.5f} at n=64; dim grows to {dim(DominantWeight(512, 0))}; "
           f"{dt:.0f}s")
    assert peak <= 1.1 * ref


# -- 10 ----------------------------------------------------------------------

def test_10_thread_count_determinism(sweep_run, scaling_runs, artifact_dir):
    del sweep_run, scaling_runs  # ensure the threads=1 artifacts exist
    run_cli(_sweep_args("t4", artifact_dir), threads=4)
    for tag, family, p in _SCALING_RUNS:
        run_cli(_scaling_args(tag, family, p, "t4", artifact_dir), threads=4)

    pairs = [("sweep_t1", "sweep_t4")]
    pairs += [(f"scaling_{tag}_t1", f"scaling_{tag}_t4") for tag, _, _ in _SCALING_RUNS]
    mismatched = []
    for base, rerun in pairs:
        for ext in (".csv", ".json"):
            a = (artifact_dir / (base + ext)).read_bytes()
            b = (artifact_dir / (rerun + ext)).read_bytes()
            if a != b:
                mismatched.append(base + ext)
    ok = not mismatched
    record("10 thread determinism", ok,
           f"{2 * len(pairs)} artifacts byte-identical across SU3CHAR_THREADS=1 vs 4"
           + (f"; MISMATCH: {mismatched}" if mismatched else ""))
    assert not mismatched
