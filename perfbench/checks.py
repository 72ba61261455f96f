"""Output checks for the benchmark workloads.

Every check returns a :class:`Check`.  Checks against an exact oracle (an
integer moment, the dimension, a central-element value) also carry the
relative deviation, which feeds ``accuracy_digits``; tolerance checks against
acceptance criteria carry none.  The functions take plain values so that the
benchmark's own tests can feed them perturbed outputs.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# Acceptance-7 slope targets and tolerances, keyed by fit tag.
SLOPE_TARGETS: Dict[str, Tuple[float, float]] = {
    "axis_p4": (0.25, 0.05),
    "axis_p6": (2.0 / 3.0, 0.07),
    "diag_p4": (1.00, 0.07),
    "diag_p2": (0.0, 0.02),
}

# Exact-oracle tolerance: the quadrature is exact for even p once the grid
# outruns the bandwidth, so only rounding separates it from the integer.
EXACT_REL_TOL = 1e-10

# Acceptance-3 tolerances on |route - chi_schur| / dim.
REGULAR_TOL = 1e-8
WALL_TOL = 1e-6


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    rel_err: Optional[float] = None


def exact(name: str, value: complex, oracle: complex, rel_tol: float = EXACT_REL_TOL) -> Check:
    """|value - oracle| / |oracle| <= rel_tol; a zero oracle always fails."""
    err = abs(value - oracle) / abs(oracle) if oracle != 0 else math.inf
    return Check(name, math.isfinite(err) and err <= rel_tol, err)


def at_most(name: str, value: float, limit: float) -> Check:
    return Check(name, math.isfinite(value) and value <= limit)


def holds(name: str, flag: bool) -> Check:
    return Check(name, bool(flag))


def cli_checks(name: str, code: int, stdout: str, payload_checks: Callable[[dict], List[Check]]) -> List[Check]:
    """Exit code 0, then the checks of the JSON the command printed."""
    if code != 0:
        return [holds(f"{name}.exit_code", False)]
    return [holds(f"{name}.exit_code", True)] + payload_checks(json.loads(stdout))


@dataclass
class Tally:
    """Running count of checks: attempted, failed, the worst exact-oracle
    deviation, and the names of the first failures."""

    attempted: int = 0
    failed: int = 0
    max_rel_err: float = 0.0
    failures: List[str] = field(default_factory=list)

    def add(self, checks: Iterable[Check]) -> None:
        for c in checks:
            self.attempted += 1
            if not c.ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(c.name)
            if c.rel_err is not None:
                self.max_rel_err = max(self.max_rel_err, c.rel_err)


def accuracy_digits(max_rel_err: float) -> float:
    """Correct decimal digits implied by the worst exact-oracle deviation,
    capped at double precision (a deviation of 0 reads as 2**-53)."""
    return -math.log10(max(max_rel_err, 2.0 ** -53))


# ---------------------------------------------------------------------------
# lp_norms
# ---------------------------------------------------------------------------

def final_slope(summary: dict) -> float:
    """The fit's reported slope; the trimmed one when the fit dropped N_min."""
    trimmed = summary.get("slope_trimmed")
    return summary["slope"] if trimmed is None else trimmed


def check_fit(tag: str, summary: dict, rows: Sequence[dict]) -> List[Check]:
    """Acceptance-7 slope tolerance plus the exact norm oracles of its table:
    ||chi_(N,0)||_4^4 = N + 1 and ||chi_(N,N)||_2 = 1."""
    want, tol = SLOPE_TARGETS[tag]
    out = [at_most(f"{tag}.slope", abs(final_slope(summary) - want), tol)]
    for r in rows:
        if tag == "axis_p4":
            out.append(exact(f"{tag}.norm4_N{r['N']}", r["norm"] ** 4, r["N"] + 1))
        elif tag == "diag_p2":
            out.append(exact(f"{tag}.norm2_N{r['N']}", r["norm"], 1.0))
    return out


def check_family(norms: Dict[int, float], converged: Dict[int, bool], ref_n: int = 64) -> List[Check]:
    """Acceptance-9 shape: every level converged, and the family stays within
    1.1x of its value at n = ref_n."""
    out = [holds(f"family.converged_n{n}", converged[n]) for n in sorted(converged)]
    out.append(at_most("family.bounded", max(norms.values()), 1.1 * norms[ref_n]))
    return out


# ---------------------------------------------------------------------------
# envelope_sweep
# ---------------------------------------------------------------------------

def check_sweep(payload: dict, recomputed_ratio: float) -> List[Check]:
    """verify-envelope invariants, acceptance-5 shell stabilisation, and the
    argmax ratio recomputed by the scalar pattern sum and envelope."""
    shells = payload["shells"]
    low = max(s["max_ratio"] for s in shells if 0 <= s["shell"] <= 20)
    high = max(s["max_ratio"] for s in shells if 20 <= s["shell"] <= 40)
    return [
        holds("sweep.finite_ok", payload["finite_ok"] and math.isfinite(payload["c_emp"])),
        holds("sweep.ratio_at_zero_exact", payload["ratio_at_zero_exact"]),
        at_most("sweep.shell_stabilisation", high, 1.05 * low),
        holds("sweep.c_emp_is_argmax", payload["c_emp"] == payload["argmax"]["ratio"]),
        exact("sweep.argmax_recomputed", payload["argmax"]["ratio"], recomputed_ratio, 1e-9),
    ]


# ---------------------------------------------------------------------------
# scalar_checks
# ---------------------------------------------------------------------------

def central_value(a: int, b: int, d: int, t1: float) -> complex:
    """chi_(a,b) at the central corner t = (t1, 2pi - t1), t1 in {0, 2pi}:
    dim times the cube root of unity omega^(+-(a - b))."""
    sign = 1 if t1 == 0.0 else -1
    return d * cmath.exp(sign * 2j * math.pi * (a - b) / 3.0)


def check_point(rec: dict) -> List[Check]:
    """Checks for one scalar evaluation record (see ScalarChecks.run_pass).

    Record keys: mu (a, b), dim, regime, t (t1, t2), stable (chi_stable
    value), schur (chi_schur value or None), routes (other route values),
    envelope and ratio (envelope_min.min_form and ratio(...).ratio).
    """
    a, b = rec["mu"]
    d = rec["dim"]
    tag = f"({a},{b}).{rec['regime']}"
    regime = rec["regime"]
    # |chi| / envelope: the sweep's empirical constant is about 0.14, so 1 is
    # a loose ceiling that only a broken envelope or evaluator crosses
    out = [at_most(f"{tag}.envelope_dominates", rec["ratio"], 1.0)]
    if regime == "zero":
        out.append(exact(f"{tag}.chi_is_dim", rec["stable"], d, 0.0))
        out.append(exact(f"{tag}.envelope_is_12dim", rec["envelope"], 12 * d, 0.0))
        out.append(exact(f"{tag}.ratio_is_1/12", rec["ratio"], 1.0 / 12.0, 0.0))
    elif regime == "central":
        out.append(exact(f"{tag}.central_value", rec["stable"], central_value(a, b, d, rec["t"][0]), 1e-12))
    elif regime in ("regular", "wall"):
        tol = REGULAR_TOL if regime == "regular" else WALL_TOL
        for name, v in [("chi_stable", rec["stable"])] + list(rec["routes"].items()):
            out.append(at_most(f"{tag}.{name}_vs_schur", abs(v - rec["schur"]) / d, tol))
    return out


def check_oracle_diff(payload: dict) -> List[Check]:
    return [at_most(f"oracle_diff.{payload['regime']}.max_abs_diff", payload["max_abs_diff"], payload["tol"])]


def check_rank1(payload: dict) -> List[Check]:
    return [holds("rank1.min_margin", payload["min_margin"] >= -1e-12)]


def check_prop_i(payload: dict) -> List[Check]:
    ks = {e["p"]: e["K"] for e in payload["per_p"]}
    return [
        holds("prop_i.K_finite", all(math.isfinite(k) and k > 0.0 for k in ks.values())),
        holds("prop_i.p_values", sorted(ks) == [2.0, 2.8, 3.0, 4.0, 5.5]),
        at_most("prop_i.max_shell_growth", payload["max_shell_growth"], 1.2),
    ]
