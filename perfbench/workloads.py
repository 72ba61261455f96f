"""The three benchmark workloads.

Each workload has ``make_inputs(seed)`` (run during set-up), ``run_pass``
(the timed calls into su3char; returns raw outputs) and ``check`` (untimed;
turns one pass's outputs into :class:`checks.Check` records).  CLI commands
run in-process through ``su3char.cli.main`` with stdout captured; library
calls go through the package namespace, looked up at call time so that the
traced run sees them.

Why these three:

* ``envelope_sweep`` -- ``verify-envelope`` at its defaults (351 weights x
  10 000 stratified points).  Batch evaluators on every route plus the grid
  envelope, no quadrature: a ``chi_on_grid`` change shows here, an
  lpnorms-only change must not.
* ``lp_norms`` -- the four acceptance-7 scaling fits and the acceptance-9
  ``(n,0)`` family at p = 2.5, both capped at N = 64 (acceptance goes to
  512) so that one pass takes seconds and a run holds several passes; the
  fits keep their acceptance slope tolerances at this cap.  Even p converges
  in two doubling levels, p = 2.5 needs up to five (n = 64), whose 3680^2
  grid already fills the trapezoid's 2M-node blocks, so levels and their
  memory show here.  It has no random input.
* ``scalar_checks`` -- per-call paths shaped like acceptance 1-4 and 8:
  ``chi_stable``/``envelope_min``/``ratio`` on seeded points in every regime,
  ``oracle-diff`` in both regimes, ``rank1`` and ``prop-i`` (Duffy rule).
  Python per-call cost dominates; batch kernels are bypassed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from typing import Dict, List, Tuple

import numpy as np

import su3char
import su3char.cli
from su3char import DominantWeight, QuadratureSpec, TorusPoint

from checks import (
    Check,
    check_family,
    check_fit,
    check_oracle_diff,
    check_point,
    check_prop_i,
    check_rank1,
    check_sweep,
    cli_checks,
)

TWO_PI = 2.0 * math.pi


def run_cli(argv: List[str]) -> Tuple[int, str]:
    """su3char.cli.main in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = su3char.cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# envelope_sweep
# ---------------------------------------------------------------------------

class EnvelopeSweep:
    name = "envelope_sweep"

    def make_inputs(self, seed: int) -> dict:
        return {"grid_seed": seed}

    def run_pass(self, inputs: dict, scratch: str):
        return run_cli([
            "verify-envelope", "--seed", str(inputs["grid_seed"]),
            "--out-csv", os.path.join(scratch, "sweep.csv"),
            "--out-json", os.path.join(scratch, "sweep.json"),
        ])

    def check(self, out, inputs: dict) -> List[Check]:
        return cli_checks("sweep", *out, lambda payload: check_sweep(payload, self.recompute(payload)))

    @staticmethod
    def recompute(payload: dict) -> float:
        """The argmax ratio again, by the scalar pattern sum and envelope."""
        arg = payload["argmax"]
        mu = DominantWeight(arg["mu_a"], arg["mu_b"])
        H = TorusPoint.from_alcove_coords(arg["t1"], arg["t2"])
        return abs(su3char.chi_schur(mu, H).value) / su3char.envelope_min(mu, H).min_form


# ---------------------------------------------------------------------------
# lp_norms
# ---------------------------------------------------------------------------

FITS = (
    ("axis_p4", "axis", "4"),
    ("axis_p6", "axis", "6"),
    ("diag_p4", "diagonal", "4"),
    ("diag_p2", "diagonal", "2"),
)
FIT_N = "8,16,32,64"
FAMILY_N = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
FAMILY_P = 2.5
FAMILY_REL_TOL = 1e-4


class LpNorms:
    name = "lp_norms"

    def make_inputs(self, seed: int) -> dict:
        return {}

    def run_pass(self, inputs: dict, scratch: str):
        fits = {}
        for tag, family, p in FITS:
            csv = os.path.join(scratch, f"scaling_{tag}.csv")
            fits[tag] = run_cli([
                "scaling", "--family", family, "--p", p, "--n-values", FIT_N,
                "--out-csv", csv,
            ]) + (csv,)
        spec = QuadratureSpec(rel_tol=FAMILY_REL_TOL)
        family = {n: su3char.haar_lp_norm(DominantWeight(n, 0), FAMILY_P, spec) for n in FAMILY_N}
        return fits, family

    def check(self, out, inputs: dict) -> List[Check]:
        fits, family = out
        result: List[Check] = []
        for tag, (code, stdout, csv) in fits.items():
            result += cli_checks(
                tag, code, stdout,
                lambda summary: check_fit(tag, summary, su3char.read_report_csv(csv)[1]),
            )
        result += check_family(
            {n: r.norm for n, r in family.items()},
            {n: r.converged for n, r in family.items()},
        )
        return result

    @staticmethod
    def levels(out) -> List[int]:
        return [r.levels for r in out[1].values()]


# ---------------------------------------------------------------------------
# scalar_checks
# ---------------------------------------------------------------------------

SCALAR_MUS = ((0, 0), (1, 0), (0, 1), (2, 1), (3, 3), (5, 2), (8, 3), (4, 9), (12, 0), (12, 12))
N_REGULAR = 120
N_WALL = 120
N_CORNER = 60
ORACLE_DIFF_MU = "8,3"


def _regular_point(rng) -> Tuple[float, float]:
    # acceptance 3: uniform on the alcove, every wall at least 0.1 away
    while True:
        t1 = rng.uniform(0.0, TWO_PI)
        t2 = rng.uniform(0.0, TWO_PI - t1)
        if min(TorusPoint.from_alcove_coords(t1, t2).wall_norms()) >= 0.1:
            return t1, t2


def _wall_point(rng, j: int) -> Tuple[float, float]:
    # acceptance 3: one wall within 2e-6, the other two at least 0.1 away
    while True:
        eps = rng.uniform(2e-9, 2e-6)
        mid = rng.uniform(0.3, TWO_PI - 0.6)
        t1, t2 = {1: (eps, mid), 2: (mid, eps)}.get(j, (mid, TWO_PI - mid - eps))
        walls = sorted(TorusPoint.from_alcove_coords(t1, t2).wall_norms())
        if walls[0] <= 1e-6 and walls[1] >= 0.1:
            return t1, t2


def _corner_point(rng) -> Tuple[float, float]:
    # along an interior ray into one of the three alcove corners, at a
    # distance 10^-3.5 .. 10^-8 where two walls are below the dispatch
    # threshold and chi_stable takes the pattern sum
    corners = np.array([[0.0, 0.0], [TWO_PI, 0.0], [0.0, TWO_PI]])
    c = int(rng.integers(0, 3))
    a, b = (corners[k] - corners[c] for k in range(3) if k != c)
    f = rng.uniform(0.15, 0.85)
    d = f * a + (1.0 - f) * b
    p = corners[c] + 10.0 ** -rng.uniform(3.5, 8.0) * d / np.linalg.norm(d)
    return float(p[0]), float(p[1])


CLI_CHECKS = {"oracle_diff": check_oracle_diff, "rank1": check_rank1, "prop_i": check_prop_i}


class ScalarChecks:
    name = "scalar_checks"

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        points = []
        for a, b in SCALAR_MUS:
            pts = [("zero", (0.0, 0.0)), ("central", (TWO_PI, 0.0)), ("central", (0.0, TWO_PI))]
            pts += [("regular", _regular_point(rng)) for _ in range(N_REGULAR)]
            pts += [("wall", _wall_point(rng, k % 3)) for k in range(N_WALL)]
            pts += [("corner", _corner_point(rng)) for _ in range(N_CORNER)]
            mu = DominantWeight(a, b)
            points += [(mu, regime, t, TorusPoint.from_alcove_coords(*t)) for regime, t in pts]
        return {"points": points, "oracle_seed": seed}

    def run_pass(self, inputs: dict, scratch: str):
        records = []
        for mu, regime, t, H in inputs["points"]:
            rec = {
                "mu": (mu.a, mu.b), "dim": su3char.dim(mu), "regime": regime, "t": t,
                "stable": su3char.chi_stable(mu, H).value,
                "envelope": su3char.envelope_min(mu, H).min_form,
                "ratio": su3char.ratio(mu, H).ratio,
                "schur": None, "routes": {},
            }
            if regime in ("regular", "wall"):
                rec["schur"] = su3char.chi_schur(mu, H).value
                lam = mu.shifted()
                if regime == "regular":
                    rec["routes"]["chi_weyl"] = su3char.chi_weyl(lam, H).value
                else:
                    for j in range(3):
                        rec["routes"][f"descent{j}"] = su3char.descent_terms(lam, H, j).assembled()
            records.append(rec)
        seed = str(inputs["oracle_seed"])
        cli_runs = {
            f"oracle_diff.{regime}": run_cli(
                ["oracle-diff", "--mu", ORACLE_DIFF_MU, "--regime", regime, "--seed", seed])
            for regime in ("regular", "wall")
        }
        cli_runs["rank1"] = run_cli(["rank1"])
        cli_runs["prop_i"] = run_cli([
            "prop-i",
            "--out-csv", os.path.join(scratch, "prop_i.csv"),
            "--out-json", os.path.join(scratch, "prop_i.json"),
        ])
        return records, cli_runs

    def check(self, out, inputs: dict) -> List[Check]:
        records, cli_runs = out
        result: List[Check] = []
        for rec in records:
            result += check_point(rec)
        for name, (code, stdout) in cli_runs.items():
            result += cli_checks(name, code, stdout, CLI_CHECKS[name.split(".")[0]])
        return result


WORKLOADS: Dict[str, object] = {w.name: w for w in (EnvelopeSweep(), LpNorms(), ScalarChecks())}
