"""Command-line front end.

Subcommands: eval, verify-envelope, lp, scaling, prop-i, rank1, oracle-diff.
Configuration is flags-first with an optional JSON config file (``--config``)
whose values the flags override; each parameter is one row of ``_COMMANDS``,
which gives its flag, its config-file key and its default.  The resolved semantic configuration --
command plus numeric parameters and seed, but not output paths or the thread
count -- is echoed into every artifact so a run can be reproduced from any
of its outputs.

Exit codes: 0 success, 2 usage/parse error, non-finite number, empty work
set or unwritable output path (output directories are checked before any
computation), 3 resource guard tripped, 4 quadrature non-convergence, 5
invariant violation detected by a verify run.  Errors are also printed as
one-line JSON diagnostics on stderr.

``SU3CHAR_THREADS`` sets the default worker count for sweeps
(``verify-envelope --threads`` overrides it); results are byte-identical for
any thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from .bounds import GridSpec, default_mu_set, rank1_bound_margin, sweep_constant
from .cartan import DominantWeight, TorusPoint, dim
from .character import (
    CharValue,
    ResourceLimitError,
    SingularInputError,
    WallTooSmallError,
    chi_schur,
    chi_stable,
    chi_weyl,
    descent_terms,
)
from .lpnorms import (
    _FAMILIES,
    _MAPPINGS,
    ConvergenceError,
    I_bound,
    I_numeric_table,
    QuadratureSpec,
    haar_lp_norm,
    scaling_fit,
)
from .reports import ReportWriteError, emit_json, emit_report, strict_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NONCONVERGENCE = 4
EXIT_INVARIANT = 5


class UsageError(ValueError):
    """Bad or missing parameters after config-file merging."""


class InvariantViolation(RuntimeError):
    """A verify run observed a violated invariant."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    params: Dict[str, object]


# rows that several commands share: (name, default, argparse keywords); the
# name is both the config-file key and, with "_" as "-", the flag
_MU = ("mu", None, dict(help="dominant weight 'a,b'"))
_QUAD = (
    ("base_rule", 64, dict(type=int)),
    ("max_refinements", 6, dict(type=int)),
    ("rel_tol", 1e-6, dict(type=float)),
)
_MAPPING = ("mapping", "periodic_square", dict(choices=_MAPPINGS))
_OUT = ("out", None, dict(type=str, help="write the result JSON here as well"))
_OUT_FILES = (
    ("out_csv", None, dict(type=str, help="write the per-row table as CSV here")),
    ("out_json", None, dict(type=str, help="write the summary JSON here")),
)

# output paths, checked before any computation
_OUTPUTS = tuple(name for name, _, _ in (_OUT, *_OUT_FILES))
# runtime knobs that must not influence artifact bytes
_NOT_ECHOED = {"threads", *_OUTPUTS}


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
            if default is not None:
                kw = {**kw, "help": f"{kw.get('help', '')} (default: {default})".lstrip()}
            sp.add_argument("--" + name.replace("_", "-"), default=None, **kw)
    return ap


def _file_value(name: str, value, default, kw: dict):
    """A config-file value read as its row's flag would read it, so that the
    run and the echo agree: refuses booleans and values that the flag's type
    would change (2.7 for an int, "5" for a number) or its choices reject,
    and null where the default is not null.  NaN stays NaN."""
    if value is None and default is not None:
        raise UsageError(f"config key {name}: null is not allowed (default {default!r})")
    kind, converted = kw.get("type"), value
    if kind is not None and value is not None:
        try:
            converted = None if isinstance(value, bool) else kind(value)
        except (TypeError, ValueError, OverflowError):
            converted = None
        if converted is None or not (converted == value or value != value):
            raise UsageError(f"config key {name}: {json.dumps(value)} is not of type {kind.__name__}")
    if "choices" in kw and converted not in kw["choices"]:
        raise UsageError(f"config key {name}: {value!r} is not one of {list(kw['choices'])}")
    return converted


def _resolve(args: argparse.Namespace) -> RunConfig:
    cmd = args.command
    params = dict(_DEFAULTS[cmd])
    raw = vars(args)
    if raw.get("config"):
        try:
            with open(raw["config"], "r", encoding="utf-8") as fh:
                file_params = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot read config file {raw['config']}: {e}")
        unknown = set(file_params) - set(params)
        if unknown:
            raise UsageError(
                f"unknown config keys for {cmd}: {sorted(unknown)}"
            )
        for name, default, kw in _COMMANDS[cmd][2]:
            if name in file_params:
                file_params[name] = _file_value(name, file_params[name], default, kw)
        params.update(file_params)
    for key in params:
        flag_val = raw.get(key)
        if flag_val is not None:
            params[key] = flag_val
    for key in _OUTPUTS:
        path = params.get(key)
        if path:
            parent = os.path.dirname(os.path.abspath(str(path)))
            if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
                raise UsageError(
                    f"--{key.replace('_', '-')} {path}: directory {parent} "
                    "does not exist or is not writable"
                )
    return RunConfig(command=cmd, params=params)


def _echo(cfg: RunConfig) -> Dict[str, object]:
    body = {k: v for k, v in sorted(cfg.params.items()) if k not in _NOT_ECHOED}
    return {"command": cfg.command, **body}


def _parse_mu(value) -> DominantWeight:
    if value is None:
        raise UsageError("--mu is required (format 'a,b')")
    try:
        a, b = _parse_int_list(value, "--mu")
    except ValueError:
        raise UsageError(f"cannot parse --mu {value!r}; expected 'a,b'")
    return DominantWeight(a, b)


def _parse_float(value, what: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise UsageError(f"cannot parse {what} {value!r}")
    if not math.isfinite(x):
        raise UsageError(f"{what} must be finite, got {x!r}")
    return x


def _parse_float_list(value, what: str) -> List[float]:
    if not isinstance(value, (list, tuple)):
        value = str(value).split(",")
    return [_parse_float(x, what) for x in value]


def _parse_int_list(value, what: str) -> List[int]:
    """Integers from 'a,b,...' or from a config-file list of JSON integers
    (1.5, true or "1" would run as something other than their echo)."""
    if isinstance(value, (list, tuple)):
        if all(type(x) is int for x in value):
            return list(value)
    else:
        try:
            return [int(x) for x in str(value).split(",")]
        except ValueError:
            pass
    raise UsageError(f"cannot parse {what} {value!r}")


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
    mu = _parse_mu(p["mu"])
    if p["theta"] is not None:
        theta = _parse_float_list(p["theta"], "--theta")
        if len(theta) != 3:
            raise UsageError("--theta needs exactly three angles")
        H = TorusPoint(tuple(theta))
    elif p["alcove"] is not None:
        t = _parse_float_list(p["alcove"], "--alcove")
        if len(t) != 2:
            raise UsageError("--alcove needs exactly two coordinates")
        H = TorusPoint.from_alcove_coords(t[0], t[1])
    else:
        raise UsageError("one of --theta or --alcove is required")

    method = p["method"]
    if method == "auto":
        cv = chi_stable(mu, H)
    elif method == "weyl":
        cv = chi_weyl(mu.shifted(), H)
    elif method == "schur":
        cv = chi_schur(mu, H)
    elif method == "descent":
        j = p["wall"]
        if j is None:
            walls = H.wall_norms()
            j = min(range(3), key=lambda i: walls[i])
        ts = descent_terms(mu.shifted(), H, j)
        cv = CharValue(ts.assembled(), f"descent{ts.j}", ts.condition)
    else:
        raise UsageError(f"unknown method {method!r}")

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
    mus = default_mu_set(p["dense_max"], p["shell_max"])
    rep = sweep_constant(mus, spec, seed=p["seed"], threads=p["threads"])
    summary = {
        "c_emp": rep.c_emp,
        "argmax": dataclasses.asdict(rep.argmax),
        "shells": list(rep.shells),
        "mu_count": rep.mu_count,
        "grid_total": rep.grid_total,
        "seed": rep.seed,
        "ratio_at_zero_exact": rep.ratio_at_zero_exact,
        "finite_ok": rep.finite_ok,
        "convention": rep.convention,
    }
    _emit(cfg, summary, rep.per_mu)
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
        mapping=p.get("mapping", "periodic_square"),
    )


def _cmd_lp(cfg: RunConfig) -> int:
    p = cfg.params
    mu = _parse_mu(p["mu"])
    if p["p"] is None:
        raise UsageError("--p is required")
    rep = haar_lp_norm(mu, _parse_float(p["p"], "--p"), _quad_spec(p))
    _emit(cfg, dataclasses.asdict(rep))
    return EXIT_OK if rep.converged else EXIT_NONCONVERGENCE


def _cmd_scaling(cfg: RunConfig) -> int:
    p = cfg.params
    if p["family"] is None or p["p"] is None:
        raise UsageError("--family and --p are required")
    n_values = _parse_int_list(p["n_values"], "--n-values")
    try:
        fit = scaling_fit(
            p["family"], _parse_float(p["p"], "--p"), tuple(n_values),
            _quad_spec(p), b0=p["b0"],
        )
    except ConvergenceError as e:
        partial = getattr(e, "partial_table", ())
        if p["out_csv"] and partial:
            emit_report(partial, "csv", p["out_csv"], config=_echo(cfg))
        raise
    summary = {
        "family": fit.family,
        "p": fit.p,
        "slope": fit.slope,
        "residual": fit.residual,
        "slope_trimmed": fit.slope_trimmed,
        "residual_trimmed": fit.residual_trimmed,
        "n_values": n_values,
    }
    _emit(cfg, summary, fit.table)
    return EXIT_OK


def _cmd_prop_i(cfg: RunConfig) -> int:
    p = cfg.params
    p_values = _parse_float_list(p["p_values"], "--p-values")
    pool = sorted(_parse_float_list(p["pool"], "--pool"))
    spec = _quad_spec(p)
    triples = [
        (z, y, x)
        for x, y, z in itertools.combinations_with_replacement(pool, 3)
    ]
    rows = []
    per_p = []
    for pv, i_nums in zip(p_values, I_numeric_table(p_values, triples, spec)):
        shell_max: Dict[float, float] = {}
        for (a, b, c), i_num in zip(triples, i_nums):
            i_bd = I_bound(pv, a, b, c)
            ratio = i_num / i_bd
            rows.append({
                "p": pv, "a": a, "b": b, "c": c,
                "i_numeric": i_num, "i_bound": i_bd, "ratio": ratio,
            })
            # magnitude shell = the smallest entry: the whole triple has been
            # scaled up by at least that factor from the unit boundary
            shell_max[c] = max(shell_max.get(c, 0.0), ratio)
        shells = [
            {"shell": s, "K_shell": shell_max[s]} for s in sorted(shell_max)
        ]
        growths = [
            shells[i + 1]["K_shell"] / shells[i]["K_shell"]
            for i in range(len(shells) - 1)
        ]
        # the first step leaves the unit boundary layer, where the integral
        # is still transient; stability is asserted between grown shells and
        # the boundary step is reported unmetered
        per_p.append({
            "p": pv,
            "K": max(shell_max.values(), default=None),
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
    if n_max < 0:
        raise UsageError(f"--n-max must be nonnegative, got {n_max}")
    if grid < 1:
        raise UsageError(f"--grid must be at least 1, got {grid}")
    thetas = math.pi * (np.arange(grid, dtype=np.float64) + 1.0) / (grid + 1.0)
    min_margin = math.inf
    arg_n = -1
    arg_theta = math.nan
    for n in range(n_max + 1):
        margins = rank1_bound_margin(n, thetas)
        i = int(np.argmin(margins))
        if margins[i] < min_margin:
            min_margin = float(margins[i])
            arg_n = n
            arg_theta = float(thetas[i])
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
    mu = _parse_mu(p["mu"])
    samples = p["samples"]
    if samples < 1:
        raise UsageError(f"--samples must be at least 1, got {samples}")
    regime = p["regime"]
    rng = np.random.default_rng(p["seed"])
    d = dim(mu)
    tol = p["tol"]
    if tol is None:
        tol = (1e-8 if regime == "regular" else 1e-6) * d
    tol = _parse_float(tol, "--tol")
    if tol < 0.0:
        raise UsageError(f"--tol must be nonnegative, got {tol!r}")

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
            ts = descent_terms(mu.shifted(), H, j)
            cand = CharValue(ts.assembled(), f"descent{j}", ts.condition)
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
        ("theta", None, dict(help="torus angles 'x,y,z' (must sum to 0)")),
        ("alcove", None, dict(help="alcove coordinates 't1,t2'")),
        ("method", "auto", dict(choices=["auto", "weyl", "descent", "schur"])),
        ("wall", None, dict(type=int, help="wall index for --method descent")),
        _OUT,
    )),
    "verify-envelope": (_cmd_verify_envelope, "ratio sweep certifying the envelope bound", (
        ("dense_max", 20, dict(type=int)),
        ("shell_max", 40, dict(type=int)),
        ("grid_total", 10_000, dict(type=int)),
        ("wall_per_edge", 500, dict(type=int)),
        ("chamber", 500, dict(type=int)),
        ("corner_scales", 8, dict(type=int)),
        ("corner_rays", 5, dict(type=int)),
        ("seed", 2718, dict(type=int)),
        ("threads", None, dict(type=int, help="sweep workers (default: SU3CHAR_THREADS, else 1)")),
        *_OUT_FILES,
    )),
    "lp": (_cmd_lp, "Lp norm of one character", (
        _MU, ("p", None, dict(type=float)), *_QUAD, _MAPPING, _OUT,
    )),
    "scaling": (_cmd_scaling, "log-log exponent fit along a weight family", (
        ("family", None, dict(choices=_FAMILIES)),
        ("p", None, dict(type=float)),
        ("n_values", "8,16,32,64,128,256,512", dict(help="comma-separated N list")),
        ("b0", 2, dict(type=int)),
        *_QUAD, _MAPPING, *_OUT_FILES,
    )),
    "prop-i": (_cmd_prop_i, "model-integral one-sided bound check", (
        ("p_values", "2,2.8,3,4,5.5", dict(help="comma-separated p list")),
        ("pool", "1,4,16,64,256", dict(help="comma-separated magnitudes for (a,b,c) triples")),
        *_QUAD, *_OUT_FILES,
    )),
    "rank1": (_cmd_rank1, "rank-one bound margin over an exhaustive grid", (
        ("n_max", 200, dict(type=int)),
        ("grid", 10_000, dict(type=int)),
        _OUT,
    )),
    "oracle-diff": (_cmd_oracle_diff, "cross-method agreement on random torus points", (
        _MU,
        ("samples", 100, dict(type=int)),
        ("seed", 1234, dict(type=int)),
        ("regime", "regular", dict(choices=["regular", "wall"])),
        ("tol", None, dict(type=float)),
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
    except UsageError as e:
        _diag("usage", e)
        return EXIT_USAGE
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
