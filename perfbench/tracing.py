"""In-memory span and counter recorder for the traced benchmark run.

``Tracer.install()`` replaces each traced public function at every place a
``su3char`` module binds it (``lpnorms`` binds its own ``chi_on_grid`` and
``periodic_trapezoid_2d``, ``cli`` its own ``sweep_constant`` and so on), so
calls between modules are recorded without editing the package.  The
integrand handed to a quadrature rule is wrapped too, which splits
``|chi|^p * w`` work from the character evaluation under it.  Spans are kept
in memory as (id, name, start, end, parent) and written out when the run
ends; self times are derived from them.

Per-route costs cannot be read off a span, because one ``chi_on_grid`` call
mixes routes.  The tracer keeps an evenly spaced sample of each route's
points from the workload's own calls and, after the traced pass, times
``chi_on_grid`` again on each single-route subset.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

import numpy as np

import su3char
from su3char import bounds, character, cli, lpnorms, quadrature, reports
from su3char.cartan import dim

MODULES = (su3char, character, bounds, quadrature, lpnorms, reports, cli)

# (defining module, function) -> span name
TRACED = {
    (character, "chi_on_grid"): "character.chi_on_grid",
    (character, "chi_stable"): "character.chi_stable",
    (character, "chi_weyl"): "character.chi_weyl",
    (character, "descent_terms"): "character.descent_terms",
    (character, "chi_schur"): "character.chi_schur",
    (bounds, "build_grid"): "bounds.build_grid",
    (bounds, "sweep_constant"): "bounds.sweep_constant",
    (bounds, "envelope_min"): "bounds.envelope_min",
    (bounds, "ratio"): "bounds.ratio",
    (bounds, "rank1_bound_margin"): "bounds.rank1_bound_margin",
    (quadrature, "periodic_trapezoid_2d"): "quadrature.periodic_trapezoid_2d",
    (quadrature, "adaptive_triangle"): "quadrature.adaptive_triangle",
    (lpnorms, "haar_lp_norm"): "lpnorms.haar_lp_norm",
    (lpnorms, "scaling_fit"): "lpnorms.scaling_fit",
    (lpnorms, "I_numeric"): "lpnorms.I_numeric",
    (reports, "emit_report"): "reports.emit",
    (reports, "emit_json"): "reports.emit",
    (cli, "main"): "cli.main",
}

ROOT = "bench.pass"
INTEGRAND = "lpnorms.integrand"
ROUTES = ("weyl", "descent", "schur", "weyl_fallback")
# chi_on_grid method code -> route (the three descent walls are one route)
ROUTE_OF_CODE = ("weyl", "descent", "descent", "descent", "schur", "weyl_fallback")
ROUTE_CODES = {r: [c for c, rc in enumerate(ROUTE_OF_CODE) if rc == r] for r in ROUTES}
# The tracer's own per-call work is a span of its own, so that it is not
# counted in the self time of the layer that made the call.
BOOKKEEPING = "trace.bookkeeping"

# Replay sample: each route keeps at most this many chi_on_grid calls,
# evenly spaced over the run, each cut to at most this many points.
REPLAY_CALLS = 64
REPLAY_POINTS_PER_CALL = 8192


class _Decimator:
    """Keeps an evenly spaced subset of at most ``cap`` items of a stream."""

    def __init__(self, cap: int):
        self.cap = cap
        self.stride = 1
        self.seen = 0
        self.items: list = []

    def offer(self, make: Callable[[], object]) -> None:
        if self.seen % self.stride == 0:
            self.items.append(make())
            if len(self.items) > self.cap:
                self.items = self.items[::2]
                self.stride *= 2
        self.seen += 1


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._next_id = 0
        self._patched: List[Tuple[object, str, object]] = []
        self.replay: Dict[str, _Decimator] = {r: _Decimator(REPLAY_CALLS) for r in ROUTES}
        self.sweep_grid = None
        self.sweep_mus: list = []

    # -- spans ------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, t0, t1, parent))

    # -- wrappers ---------------------------------------------------------

    def _wrap_integrand(self, f, node_key: str):
        def integrand(x, y):
            self.counts[node_key] += int(np.size(x))
            return self.call(INTEGRAND, f, x, y)
        return integrand

    def _make_wrapper(self, name: str, fn):
        tr = self

        if name == "character.chi_on_grid":
            def wrapper(mu, t1, t2):
                values, methods = tr.call(name, fn, mu, t1, t2)
                tr.call(BOOKKEEPING, tr._count_grid, mu, t1, t2, methods)
                return values, methods
        elif name == "character.chi_schur":
            def wrapper(mu, H):
                tr.counts["character.chi_schur.patterns"] += dim(mu)
                return tr.call(name, fn, mu, H)
        elif name.startswith("quadrature."):
            def wrapper(f, *args, **kwargs):
                res = tr.call(name, fn, tr._wrap_integrand(f, name + ".nodes"), *args, **kwargs)
                tr.counts[name + ".levels"] += res.levels
                return res
        elif name == "bounds.rank1_bound_margin":
            def wrapper(n, theta):
                tr.counts[name + ".angles"] += int(np.size(theta))
                return tr.call(name, fn, n, theta)
        elif name == "bounds.build_grid":
            def wrapper(*args, **kwargs):
                tr.sweep_grid = tr.call(name, fn, *args, **kwargs)
                return tr.sweep_grid
        elif name == "bounds.sweep_constant":
            def wrapper(mu_range, *args, **kwargs):
                tr.sweep_mus = list(mu_range)
                return tr.call(name, fn, tr.sweep_mus, *args, **kwargs)
        elif name == "reports.emit":
            path_index = 2 if fn.__name__ == "emit_report" else 1

            def wrapper(*args, **kwargs):
                out = tr.call(name, fn, *args, **kwargs)
                path = kwargs["path"] if "path" in kwargs else args[path_index]
                tr.counts["reports.emit.bytes"] += os.path.getsize(path)
                return out
        else:
            def wrapper(*args, **kwargs):
                return tr.call(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_grid(self, mu, t1, t2, methods) -> None:
        codes = np.bincount(methods, minlength=len(ROUTE_OF_CODE))
        self.counts["character.chi_on_grid.points"] += int(methods.size)
        self.counts["character.route.schur.patterns"] += int(codes[4]) * dim(mu)
        t1 = np.asarray(t1)
        t2 = np.asarray(t2)
        for route, route_codes in ROUTE_CODES.items():
            n = int(codes[route_codes].sum())
            self.counts[f"character.route.{route}.points"] += n
            if n:
                sel = np.nonzero(np.isin(methods, route_codes))[0]
                step = -(-n // REPLAY_POINTS_PER_CALL)
                self.replay[route].offer(
                    lambda: (mu, t1[sel[::step]].copy(), t2[sel[::step]].copy())
                )

    def install(self) -> None:
        originals = {getattr(mod, fname): name for (mod, fname), name in TRACED.items()}
        wrappers = {fn: self._make_wrapper(name, fn) for fn, name in originals.items()}
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- derived metrics --------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, float], Counter]:
        """(inclusive seconds, self seconds, call count) per span name."""
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, _name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        incl: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for sid, name, t0, t1, _parent in self.spans:
            incl[name] += t1 - t0
            self_s[name] += (t1 - t0) - child_time[sid]
            calls[name] += 1
        return incl, self_s, calls

    def write(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header, "counts": dict(self.counts)}) + "\n")
            for sid, name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")


def replay_routes(tr: Tracer) -> Dict[str, float]:
    """Per-route cost, from re-evaluating each route's sampled subsets of the
    workload's own points (every subset dispatches to a single route)."""
    out = {}
    for route in ROUTES:
        seconds = points = patterns = 0.0
        for mu, t1, t2 in tr.replay[route].items:
            t0 = time.perf_counter()
            character.chi_on_grid(mu, t1, t2)
            seconds += time.perf_counter() - t0
            points += t1.size
            patterns += t1.size * dim(mu)
        out[route] = (seconds, points, patterns)
    return {
        "character.route.weyl.ns_per_point": _per(out["weyl"][0], out["weyl"][1], 1e9),
        "character.route.descent.ns_per_point": _per(out["descent"][0], out["descent"][1], 1e9),
        "character.route.schur.ns_per_pattern": _per(out["schur"][0], out["schur"][2], 1e9),
    }


def replay_envelope(tr: Tracer) -> float:
    """ns per point of the grid envelope on the sweep's own grid and weights."""
    if tr.sweep_grid is None:
        return 0.0
    t1, t2 = tr.sweep_grid.t1, tr.sweep_grid.t2
    t0 = time.perf_counter()
    for mu in tr.sweep_mus:
        bounds._envelope_min_grid(mu, t1, t2)
    return _per(time.perf_counter() - t0, len(tr.sweep_mus) * t1.size, 1e9)


def _per(seconds: float, work: float, scale: float) -> float:
    return seconds / work * scale if work else 0.0


def layer_metrics(tr: Tracer, untraced_s: float) -> Dict[str, float]:
    """Every per-layer metric of the traced pass (0 for a layer not used)."""
    incl, self_s, calls = tr.self_times()
    c = tr.counts
    m: Dict[str, float] = {}
    m["character.chi_on_grid.s"] = incl["character.chi_on_grid"]
    m["character.chi_on_grid.points"] = c["character.chi_on_grid.points"]
    m["character.chi_on_grid.ns_per_point"] = _per(
        incl["character.chi_on_grid"], c["character.chi_on_grid.points"], 1e9)
    for route in ROUTES:
        m[f"character.route.{route}.points"] = c[f"character.route.{route}.points"]
    m["character.route.schur.patterns"] = c["character.route.schur.patterns"]
    m.update(replay_routes(tr))
    for fn in ("chi_stable", "chi_weyl", "descent_terms", "chi_schur"):
        name = f"character.{fn}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.us_per_call"] = _per(incl[name], calls[name], 1e6)
    m["character.chi_schur.ns_per_pattern"] = _per(
        incl["character.chi_schur"], c["character.chi_schur.patterns"], 1e9)
    m["bounds.build_grid.s"] = incl["bounds.build_grid"]
    m["bounds.sweep_constant.s"] = incl["bounds.sweep_constant"]
    m["bounds.sweep_constant.self_s"] = self_s["bounds.sweep_constant"]
    m["bounds.envelope.ns_per_point"] = replay_envelope(tr)
    for fn in ("envelope_min", "ratio"):
        m[f"bounds.{fn}.us_per_call"] = _per(incl[f"bounds.{fn}"], calls[f"bounds.{fn}"], 1e6)
    m["bounds.rank1_bound_margin.ns_per_angle"] = _per(
        incl["bounds.rank1_bound_margin"], c["bounds.rank1_bound_margin.angles"], 1e9)
    for fn in ("periodic_trapezoid_2d", "adaptive_triangle"):
        name = f"quadrature.{fn}"
        m[f"{name}.s"] = incl[name]
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.levels"] = c[f"{name}.levels"]
        m[f"{name}.nodes"] = c[f"{name}.nodes"]
    m["lpnorms.haar_lp_norm.calls"] = calls["lpnorms.haar_lp_norm"]
    m["lpnorms.haar_lp_norm.s"] = incl["lpnorms.haar_lp_norm"]
    m["lpnorms.integrand.self_s"] = self_s[INTEGRAND]
    m["lpnorms.scaling_fit.s"] = incl["lpnorms.scaling_fit"]
    m["lpnorms.I_numeric.calls"] = calls["lpnorms.I_numeric"]
    m["lpnorms.I_numeric.s"] = incl["lpnorms.I_numeric"]
    m["reports.emit.s"] = incl["reports.emit"]
    m["reports.emit.bytes"] = c["reports.emit.bytes"]
    m["cli.main.calls"] = calls["cli.main"]
    m["cli.main.self_s"] = self_s["cli.main"]
    m["trace.overhead_s"] = incl[ROOT] - untraced_s
    m["trace.unattributed_s"] = self_s[ROOT]
    m["trace.bookkeeping_s"] = self_s[BOOKKEEPING]
    return m
