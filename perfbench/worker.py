"""One benchmark run in a fresh process (started by run.py).

Sets up (imports su3char, generates the workload's inputs from the seed),
prints ``READY``, then either exits (``--setup-only``) or runs the workload
and prints one JSON result line:

* untraced: closed loop of passes, one client and one thread, until the next
  pass would overrun ``--seconds``; reports the median pass time;
* traced: one untraced pass, then one pass with every layer wrapped (see
  tracing.py); reports the per-layer metrics and writes the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

from checks import Tally, accuracy_digits
from tracing import ROOT, Tracer, layer_metrics
from workloads import WORKLOADS, LpNorms

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


def _timed_passes(wl, inputs, scratch, seconds, tally):
    times = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = wl.run_pass(inputs, scratch)
        times.append(time.perf_counter() - t0)
        tally.add(wl.check(out, inputs))
        if time.perf_counter() - begin + statistics.median(times) > seconds:
            return {"wall_s": statistics.median(times)}, out, {"pass_times_s": times}


def _traced(wl, inputs, scratch, args, tally):
    t0 = time.perf_counter()
    out = wl.run_pass(inputs, scratch)
    untraced = time.perf_counter() - t0
    tally.add(wl.check(out, inputs))

    tr = Tracer()
    tr.install()
    try:
        out = tr.call(ROOT, wl.run_pass, inputs, scratch)
    finally:
        tr.uninstall()
    tally.add(wl.check(out, inputs))
    metrics = layer_metrics(tr, untraced)
    _incl, self_s, _calls = tr.self_times()
    info = {
        "pass_times_s": [untraced, untraced + metrics["trace.overhead_s"]],
        "self_time_sum_s": sum(self_s.values()),
    }
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tr.write(path, {"workload": args.workload, "seed": args.seed, "untraced_s": untraced})
    return metrics, out, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="artifacts-", dir=OUT_DIR)
    tally = Tally()
    try:
        if args.trace:
            metrics, out, info = _traced(wl, inputs, scratch, args, tally)
        else:
            metrics, out, info = _timed_passes(wl, inputs, scratch, args.seconds, tally)
            metrics["accuracy_digits"] = accuracy_digits(tally.max_rel_err)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {
        **info,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "max_rel_err": tally.max_rel_err,
        "metrics": metrics,
    }
    if isinstance(wl, LpNorms):
        result["family_levels"] = wl.levels(out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
