"""su3char benchmark driver.

    python3 perfbench/run.py --workload {envelope_sweep,lp_norms,scalar_checks}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/`` (no
install or build step).  Every measurement runs in a fresh child process
(worker.py) with one worker thread (``SU3CHAR_THREADS``, ``OPENBLAS_NUM_THREADS``
and ``OMP_NUM_THREADS`` pinned to 1), so peak memory and set-up time are the
child's own.  A closed loop: one client issues the next pass only after the
previous one returned.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``      median time of one workload pass (program calls only;
                  output checks run outside the timed region);
* ``setup_s``     median, over SETUP_SAMPLES + 1 fresh processes, of the time
                  from process start to the first workload call (interpreter,
                  su3char import, input generation);
* ``peak_rss_mb`` peak resident memory of the measuring process;
* ``accuracy_digits``  -log10 of the worst relative deviation from an exact
                  oracle (higher is better, capped at double precision).

``--trace 1`` reports the per-layer metrics of tracing.py instead.  The last
stdout line is the JSON result; the line before it records the host, the pass
count, check failures and exact counts.  Spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("envelope_sweep", "lp_norms", "scalar_checks")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "accuracy_digits": "digits"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's last component."""
    last = name.rsplit(".", 1)[-1]
    if last == "s" or last.endswith("_s"):
        return "s"
    if last.startswith("ns_per_"):
        return "ns"
    if last.startswith("us_per_"):
        return "us"
    if last == "bytes":
        return "bytes"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("SU3CHAR_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, extra) -> tuple:
    """Start worker.py; return (seconds to READY, remaining stdout, exit code)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY":
        return None, rest, proc.returncode or 1
    return setup, rest, proc.returncode


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def host_record() -> dict:
    """nproc, CPU model, data/unified cache sizes, Python and numpy versions."""
    import numpy

    rec = {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    try:
        models = [ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")]
        rec["cpu"] = models[0] if models else rec["cpu"]
        base = "/sys/devices/system/cpu/cpu0/cache"
        for idx in sorted(os.listdir(base)):
            cache = os.path.join(base, idx)
            if _read(os.path.join(cache, "type")).strip() != "Instruction":
                level = _read(os.path.join(cache, "level")).strip()
                rec["caches"][f"L{level}"] = _read(os.path.join(cache, "size")).strip()
    except OSError:
        pass  # not Linux: keep what the platform module reports
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="su3char benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "su3char", "__init__.py")):
        sys.stderr.write(f"perfbench: no su3char package under {os.path.join(ROOT, 'src')}\n")
        return 2

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            setup, _rest, code = run_child(args, ["--setup-only"])
            if setup is None or code != 0:
                sys.stderr.write(f"perfbench: set-up child failed (exit {code})\n")
                return 1
            setups.append(setup)

    setup, rest, code = run_child(args, [])
    lines = rest.strip().splitlines() if rest else []
    if setup is None or code != 0 or not lines:
        sys.stderr.write(f"perfbench: worker failed (exit {code})\n")
        return 1
    res = json.loads(lines[-1])
    setups.append(setup)
    # maximum over every child waited for; the set-up children do a subset of
    # the measuring child's work, so this is the measuring child's peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["metrics"].items()}
    else:
        values = dict(res["metrics"], setup_s=statistics.median(setups), peak_rss_mb=peak_rss_mb)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_samples_s": setups, "host": host_record()}
    detail.update((k, v) for k, v in res.items() if k != "metrics")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
