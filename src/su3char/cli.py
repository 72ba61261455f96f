"""Command-line front end.

Subcommands: eval, verify-envelope, lp, scaling, prop-i, rank1, oracle-diff.
Configuration is flags-first with an optional JSON config file (``--config``)
whose values the flags override.  Each parameter is declared once, as one
row of ``_COMMANDS``, and flag text, config-file JSON and defaults all pass
through that row's converter.  The resolved semantic configuration --
command plus the parsed numeric parameters and seed, but not output paths
-- is echoed into every artifact so a run can be reproduced from any of its
outputs.

Exit codes: 0 success, 2 usage/parse error, non-finite number, empty work
set or unwritable output path (output directories are checked before any
computation), 3 resource guard tripped, 4 quadrature non-convergence, 5
invariant violation detected by a verify run.  Errors are also printed as
one-line JSON diagnostics on stderr.

``SU3CHAR_THREADS``, the only thread setting, sets the worker count of
sweeps and of L^p levels; results are byte-identical for any thread count
1-64.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import itertools
import json
import math
import os
import sys
from typing import Dict, Optional, Sequence

import numpy as np

from .bounds import GridSpec, mu_shells, rank1_margin_min, sweep_constant
from .cartan import DominantWeight, TorusPoint, dim
from .character import (
    SCHUR_DIM_LIMIT,
    ResourceLimitError,
    SingularInputError,
    WallTooSmallError,
    chi_schur,
    chi_stable,
    chi_weyl,
    descent_terms,
    require_within_budget,
)
from .lpnorms import (
    _FAMILIES,
    _MAPPINGS,
    MAX_BASE_RULE,
    MAX_INTEGRALS,
    MAX_REFINEMENTS,
    I_bound,
    I_numeric_table,
    QuadratureSpec,
    haar_lp_norm,
    scaling_fit,
)
from .quadrature import ConvergenceError
from .reports import ReportWriteError, emit_json, emit_report, strict_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NONCONVERGENCE = 4
EXIT_INVARIANT = 5

# Most oracle-diff samples: each keeps a row of about 1.2 kB until the CSV is
# written (tracemalloc, 10^3 and 10^4 samples), so about 120 MB
MAX_SAMPLES = 10**5


class UsageError(ValueError):
    """Bad or missing parameters after config-file merging."""


class InvariantViolation(RuntimeError):
    """A verify run observed a violated invariant."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    params: Dict[str, object]


# A parameter row is (name, default, declaration).  The name is both the
# config-file key and, with "_" as "-", the flag.  The declaration gives the
# value's "type" (str when absent; the entry type of a list row), "nargs"
# for a list row (its entry count, or "+" for one or more), "choices",
# "least" and "most" (bounds), "budget" (an entry count past which the run
# would allocate too much: a resource error, exit 3), "required", and the
# flag's "help", the only key argparse sees.  A default that QuadratureSpec,
# GridSpec or a library signature holds is read from it.  Shared rows:
_MU = ("mu", None, dict(type=int, nargs=2, required=True, help="dominant weight 'a,b'"))
_QUAD = (
    ("base_rule", QuadratureSpec.base_rule, dict(type=int, least=2, most=MAX_BASE_RULE)),
    ("max_refinements", QuadratureSpec.max_refinements, dict(type=int, least=0, most=MAX_REFINEMENTS)),
    ("rel_tol", QuadratureSpec.rel_tol, dict(type=float)),
)
_MAPPING = ("mapping", QuadratureSpec.mapping, dict(choices=_MAPPINGS))
_OUT = ("out", None, dict(help="write the result JSON here as well"))
_OUT_FILES = (
    ("out_csv", None, dict(help="write the per-row table as CSV here")),
    ("out_json", None, dict(help="write the summary JSON here")),
)

# output paths, checked before any computation and not echoed
_OUTPUTS = tuple(name for name, _, _ in (_OUT, *_OUT_FILES))


def _default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


@functools.lru_cache(maxsize=None)  # built once per process, however often main runs
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="su3char",
        description="Evaluate irreducible SU(3) characters and certify their "
        "envelope and Lp-norm bounds.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd, (_, help_text, rows) in _COMMANDS.items():
        sp = sub.add_parser(cmd, help=help_text)
        sp.add_argument("--config", default=None,
                        help="JSON file of parameter defaults (flags override)")
        for name, default, kw in rows:
            shown = "" if default is None else f" (default: {default})"
            sp.add_argument("--" + name.replace("_", "-"), default=None,
                            help=(kw.get("help", "") + shown).lstrip())
    return ap


def _entry(what: str, x, text: bool, kw: dict):
    """One scalar, or one entry of a list row, read with the row's type and
    checked against its choices and bounds.  Flag text is parsed; JSON must
    already be of the type (40.0 reads as the int 40, while 2.7, true or
    "5" would run as something other than their echo).  NaN passes the type
    check to be refused as non-finite."""
    kind = kw.get("type", str)
    try:
        y = None if isinstance(x, bool) else kind(x)
    except (TypeError, ValueError, OverflowError):
        y = None
    if y is None or not (text or y == x or x != x):
        raise UsageError(f"{what}: cannot read {json.dumps(x)} as {kind.__name__}")
    if isinstance(y, float) and not math.isfinite(y):
        raise UsageError(f"{what} must be finite, got {y!r}")
    if "choices" in kw and y not in kw["choices"]:
        raise UsageError(f"{what}: {json.dumps(x)} is not one of {list(kw['choices'])}")
    if "least" in kw and y < kw["least"]:
        raise UsageError(f"{what} must be at least {kw['least']}, got {y!r}")
    if "most" in kw and y > kw["most"]:
        raise UsageError(f"{what} must be at most {kw['most']}, got {y!r}")
    if "budget" in kw:
        require_within_budget(y, what, "entry", kw["budget"])
    return y


def _convert(row, value, text: bool):
    """A row's typed value from its flag text (``text``), its config-file
    JSON or its default.  A list row takes a JSON list or 'a,b' text."""
    name, default, kw = row
    what = f"--{name.replace('_', '-')} ({name})"
    if value is None:
        if kw.get("required"):
            raise UsageError(f"{what} is required")
        if default is not None:
            raise UsageError(f"{what}: null is not allowed (default {json.dumps(default)})")
        return None
    nargs = kw.get("nargs")
    if nargs is None:
        return _entry(what, value, text, kw)
    if isinstance(value, str):
        value, text = value.split(","), True
    if not (isinstance(value, list) and value and nargs in ("+", len(value))):
        want = "one or more" if nargs == "+" else nargs
        raise UsageError(f"{what} needs {want} entries, got {json.dumps(value)}")
    return [_entry(what, x, text, kw) for x in value]


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Each row's flag, else config-file value, else default, through the one
    converter; given values go first, so a bad one is named before a missing
    required one.  Output directories are checked before any work."""
    cmd, raw = args.command, vars(args)
    rows = _COMMANDS[cmd][2]
    file_params = {}
    if raw["config"]:
        try:
            with open(raw["config"], "r", encoding="utf-8") as fh:
                file_params = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot read config file {raw['config']}: {e}")
        if not isinstance(file_params, dict):
            raise UsageError(f"config file {raw['config']} is not a JSON object")
        unknown = set(file_params) - set(_DEFAULTS[cmd])
        if unknown:
            raise UsageError(f"unknown config keys for {cmd}: {sorted(unknown)}")
    flags = {name: raw[name] for name, _, _ in rows if raw[name] is not None}
    file_params = {k: v for k, v in file_params.items() if k not in flags}
    unset = {k: d for k, d in _DEFAULTS[cmd].items() if k not in file_params and k not in flags}
    params = {}
    for given, text in ((file_params, False), (flags, True), (unset, False)):
        for row in rows:
            if row[0] in given:
                params[row[0]] = _convert(row, given[row[0]], text)
    for key in _OUTPUTS:
        path = params.get(key)
        if path:
            parent = os.path.dirname(os.path.abspath(path))
            if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
                raise UsageError(
                    f"--{key.replace('_', '-')} {path}: directory {parent} "
                    "does not exist or is not writable"
                )
    return RunConfig(command=cmd, params=params)


def _echo(cfg: RunConfig) -> Dict[str, object]:
    body = {k: v for k, v in sorted(cfg.params.items()) if k not in _OUTPUTS}
    return {"command": cfg.command, **body}


def _emit(cfg: RunConfig, summary: dict, rows=()) -> None:
    """Write the requested artifacts, then print the summary; the config
    echo is the first key of every JSON and the CSV preamble."""
    p = cfg.params
    echo = _echo(cfg)
    if p.get("out_csv"):
        emit_report(rows, "csv", p["out_csv"], config=echo)
    for key in ("out", "out_json"):
        if p.get(key):
            emit_json(summary, p[key], config=echo)
    sys.stdout.write(strict_json({"config": echo, **summary}, indent=2) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_eval(cfg: RunConfig) -> int:
    p = cfg.params
    mu = DominantWeight(*p["mu"])
    if (p["theta"] is None) == (p["alcove"] is None):
        raise UsageError("exactly one of --theta or --alcove is required")
    H = (TorusPoint.from_alcove_coords(*p["alcove"]) if p["theta"] is None
         else TorusPoint(tuple(p["theta"])))

    method = p["method"]
    if method == "auto":
        cv = chi_stable(mu, H)
    elif method == "weyl":
        cv = chi_weyl(mu.shifted(), H)
    elif method == "schur":
        cv = chi_schur(mu, H)
    else:  # descent
        j = p["wall"]
        if j is None:
            walls = H.wall_norms()
            j = min(range(3), key=lambda i: walls[i])
        cv = descent_terms(mu.shifted(), H, j).char_value()

    t1, t2 = H.alcove_coords
    payload = {
        "mu": [mu.a, mu.b],
        "theta": list(H.theta),
        "alcove_t": [t1, t2],
        "value_re": cv.value.real,
        "value_im": cv.value.imag,
        "abs": abs(cv.value),
        "method": cv.method,
        "condition": cv.condition,
        "dim": dim(mu),
    }
    _emit(cfg, payload)
    return EXIT_OK


def _cmd_verify_envelope(cfg: RunConfig) -> int:
    p = cfg.params
    spec = GridSpec(
        total=p["grid_total"],
        wall_points_per_edge=p["wall_per_edge"],
        chamber_wall_points=p["chamber"],
        corner_scales=p["corner_scales"],
        corner_rays=p["corner_rays"],
    )
    # read lazily: sweep_constant refuses too many weights before the list is built
    mus = mu_shells(p["dense_max"], p["shell_max"])
    rep = sweep_constant(mus, spec, seed=p["seed"])
    summary = {k: v for k, v in vars(rep).items() if k != "per_mu"}  # per_mu is not copied
    _emit(cfg, {**summary, "argmax": dataclasses.asdict(rep.argmax)}, rep.per_mu)
    if not (rep.finite_ok and rep.ratio_at_zero_exact):
        raise InvariantViolation(
            f"envelope sweep violated invariants: finite_ok={rep.finite_ok}, "
            f"ratio_at_zero_exact={rep.ratio_at_zero_exact}"
        )
    return EXIT_OK


def _quad_spec(p: Dict[str, object]) -> QuadratureSpec:
    return QuadratureSpec(
        base_rule=p["base_rule"],
        max_refinements=p["max_refinements"],
        rel_tol=p["rel_tol"],
        mapping=p.get("mapping", QuadratureSpec.mapping),
    )


def _cmd_lp(cfg: RunConfig) -> int:
    p = cfg.params
    rep = haar_lp_norm(DominantWeight(*p["mu"]), p["p"], _quad_spec(p))
    _emit(cfg, dataclasses.asdict(rep))
    rep.require_converged("haar_lp_norm")
    return EXIT_OK


def _cmd_scaling(cfg: RunConfig) -> int:
    p = cfg.params
    try:
        fit = scaling_fit(p["family"], p["p"], p["n_values"], _quad_spec(p), b0=p["b0"])
    except ConvergenceError as e:
        partial = getattr(e, "partial_table", ())
        if p["out_csv"] and partial:
            emit_report(partial, "csv", p["out_csv"], config=_echo(cfg))
        raise
    summary = {k: v for k, v in vars(fit).items() if k != "table"}
    _emit(cfg, {**summary, "n_values": p["n_values"]}, fit.table)
    return EXIT_OK


def _cmd_prop_i(cfg: RunConfig) -> int:
    p = cfg.params
    p_values, pool = p["p_values"], sorted(p["pool"])
    require_within_budget(len(p_values) * math.comb(len(pool) + 2, 3), "p values x triples",
                          "model-integral", MAX_INTEGRALS)
    spec = _quad_spec(p)
    triples = [(z, y, x) for x, y, z in itertools.combinations_with_replacement(pool, 3)]
    # an overflowing or vanishing bound is refused before any quadrature
    i_bounds = [[I_bound(pv, *t) for t in triples] for pv in p_values]
    rows, per_p = [], []
    for pv, i_bds, i_nums in zip(p_values, i_bounds, I_numeric_table(p_values, triples, spec)):
        shell_max: Dict[float, float] = {}
        for (a, b, c), i_num, i_bd in zip(triples, i_nums, i_bds):
            ratio = i_num / i_bd
            rows.append({
                "p": pv, "a": a, "b": b, "c": c,
                "i_numeric": i_num, "i_bound": i_bd, "ratio": ratio,
            })
            # magnitude shell = the smallest entry: the whole triple has been
            # scaled up by at least that factor from the unit boundary
            shell_max[c] = max(shell_max.get(c, 0.0), ratio)
        shells = [{"shell": s, "K_shell": shell_max[s]} for s in sorted(shell_max)]
        growths = [hi["K_shell"] / lo["K_shell"] for lo, hi in zip(shells, shells[1:])]
        # the first step leaves the unit boundary layer, where the integral
        # is still transient; stability is asserted between grown shells and
        # the boundary step is reported unmetered
        per_p.append({
            "p": pv,
            "K": max(shell_max.values()),
            "shells": shells,
            "boundary_growth": growths[0] if growths else 0.0,
            "max_shell_growth": max(growths[1:], default=0.0),
        })
    summary = {
        "per_p": per_p,
        "K_overall": max(e["K"] for e in per_p),
        "max_shell_growth": max(e["max_shell_growth"] for e in per_p),
    }
    _emit(cfg, summary, rows)
    return EXIT_OK


def _cmd_rank1(cfg: RunConfig) -> int:
    p = cfg.params
    n_max, grid = p["n_max"], p["grid"]
    thetas = math.pi * (np.arange(grid, dtype=np.float64) + 1.0) / (grid + 1.0)
    min_margin, arg_n, arg_theta = rank1_margin_min(n_max, thetas)
    _emit(cfg, {
        "n_max": n_max,
        "grid": grid,
        "min_margin": min_margin,
        "argmin_n": arg_n,
        "argmin_theta": arg_theta,
    })
    if min_margin < -1e-12:
        raise InvariantViolation(
            f"rank-one margin {min_margin:.3e} below -1e-12 "
            f"at n={arg_n}, theta={arg_theta!r}"
        )
    return EXIT_OK


def _cmd_oracle_diff(cfg: RunConfig) -> int:
    p = cfg.params
    mu = DominantWeight(*p["mu"])
    samples = p["samples"]
    regime = p["regime"]
    rng = np.random.default_rng(p["seed"])
    d = dim(mu)
    tol = p["tol"]
    if tol is None:
        tol = (1e-8 if regime == "regular" else 1e-6) * d

    rows = []
    max_diff = 0.0
    count = 0
    while count < samples:
        if regime == "regular":
            t1 = rng.uniform(0.0, 2.0 * math.pi)
            t2 = rng.uniform(0.0, 2.0 * math.pi - t1)
            H = TorusPoint.from_alcove_coords(t1, t2)
            if min(H.wall_norms()) < 0.1:
                continue
            ref = chi_schur(mu, H)
            cand = chi_weyl(mu.shifted(), H)
        else:
            j = count % 3
            eps = rng.uniform(1e-9, 1e-6)
            mid = rng.uniform(0.3, 2.0 * math.pi - 0.6)
            if j == 1:
                t1, t2 = eps, mid
            elif j == 2:
                t1, t2 = mid, eps
            else:
                t1, t2 = mid, 2.0 * math.pi - mid - eps
            H = TorusPoint.from_alcove_coords(t1, t2)
            ref = chi_schur(mu, H)
            cand = descent_terms(mu.shifted(), H, j).char_value()
        diff = abs(cand.value - ref.value)
        max_diff = max(max_diff, diff)
        rows.append({
            "t1": H.alcove_coords[0], "t2": H.alcove_coords[1],
            "wall_min": min(H.wall_norms()), "method": cand.method,
            "cand_re": cand.value.real, "cand_im": cand.value.imag,
            "ref_re": ref.value.real, "ref_im": ref.value.imag,
            "abs_diff": diff,
        })
        count += 1

    summary = {
        "mu": [mu.a, mu.b],
        "dim": d,
        "regime": regime,
        "samples": samples,
        "max_abs_diff": max_diff,
        "tol": tol,
        "within_tol": max_diff <= tol,
    }
    _emit(cfg, summary, rows)
    if max_diff > tol:
        raise InvariantViolation(
            f"oracle disagreement {max_diff:.3e} exceeds tolerance {tol:.3e}"
        )
    return EXIT_OK


# command -> (handler, help text, parameter rows)
_COMMANDS = {
    "eval": (_cmd_eval, "evaluate one character value", (
        _MU,
        ("theta", None, dict(type=float, nargs=3, help="torus angles 'x,y,z' (must sum to 0)")),
        ("alcove", None, dict(type=float, nargs=2, help="alcove coordinates 't1,t2'")),
        ("method", "auto", dict(choices=["auto", "weyl", "descent", "schur"])),
        ("wall", None, dict(type=int, choices=[0, 1, 2], help="wall index for --method descent")),
        _OUT,
    )),
    "verify-envelope": (_cmd_verify_envelope, "ratio sweep certifying the envelope bound", (
        ("dense_max", _default(mu_shells, "dense_shell_max"), dict(type=int, least=0)),
        ("shell_max", _default(mu_shells, "shell_max"), dict(type=int, least=0)),
        ("grid_total", GridSpec.total, dict(type=int)),
        ("wall_per_edge", GridSpec.wall_points_per_edge, dict(type=int, least=0)),
        ("chamber", GridSpec.chamber_wall_points, dict(type=int, least=0)),
        ("corner_scales", GridSpec.corner_scales, dict(type=int, least=0)),
        ("corner_rays", GridSpec.corner_rays, dict(type=int, least=0)),
        ("seed", _default(sweep_constant, "seed"), dict(type=int)),
        *_OUT_FILES,
    )),
    "lp": (_cmd_lp, "Lp norm of one character", (
        _MU, ("p", None, dict(type=float, required=True)), *_QUAD, _MAPPING, _OUT,
    )),
    "scaling": (_cmd_scaling, "log-log exponent fit along a weight family", (
        ("family", None, dict(choices=_FAMILIES, required=True)),
        ("p", None, dict(type=float, required=True)),
        ("n_values", list(_default(scaling_fit, "N_values")),
         dict(type=int, nargs="+", help="comma-separated N list")),
        ("b0", _default(scaling_fit, "b0"), dict(type=int)),
        *_QUAD, _MAPPING, *_OUT_FILES,
    )),
    "prop-i": (_cmd_prop_i, "model-integral one-sided bound check", (
        ("p_values", "2,2.8,3,4,5.5", dict(type=float, nargs="+", help="comma-separated p list")),
        ("pool", "1,4,16,64,256",
         dict(type=float, nargs="+", help="comma-separated magnitudes for (a,b,c) triples")),
        *_QUAD, *_OUT_FILES,
    )),
    "rank1": (_cmd_rank1, "rank-one bound margin over an exhaustive grid", (
        ("n_max", 200, dict(type=int, least=0)),
        ("grid", 10_000, dict(type=int, least=1, budget=SCHUR_DIM_LIMIT)),
        _OUT,
    )),
    "oracle-diff": (_cmd_oracle_diff, "cross-method agreement on random torus points", (
        _MU,
        ("samples", 100, dict(type=int, least=1, budget=MAX_SAMPLES)),
        ("seed", 1234, dict(type=int)),
        ("regime", "regular", dict(choices=["regular", "wall"])),
        ("tol", None, dict(type=float, least=0.0)),
        *_OUT_FILES,
    )),
}
_DEFAULTS = {cmd: {name: d for name, d, _ in rows} for cmd, (_, _, rows) in _COMMANDS.items()}


def _diag(kind: str, exc: BaseException) -> None:
    sys.stderr.write(
        json.dumps({"error": kind, "message": str(exc)}) + "\n"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        return _COMMANDS[cfg.command][0](cfg)
    except (SingularInputError, WallTooSmallError) as e:
        _diag("singular-input", e)
        return EXIT_USAGE
    except ResourceLimitError as e:
        _diag("resource-limit", e)
        return EXIT_RESOURCE
    except ConvergenceError as e:
        _diag("non-convergence", e)
        return EXIT_NONCONVERGENCE
    except InvariantViolation as e:
        _diag("invariant-violation", e)
        return EXIT_INVARIANT
    except ReportWriteError as e:
        _diag("io", e)
        return EXIT_USAGE
    except ValueError as e:
        _diag("usage", e)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
