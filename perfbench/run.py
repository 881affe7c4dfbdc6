#!/usr/bin/env python3
"""psector benchmark: one workload as a closed loop in a single process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--grid N]

One client runs the workload's battery of ops back to back, the next op
starting when the previous returns, until --seconds have passed (at least
one battery).  Set-up is timed in fresh interpreters beforehand.  Every op's
output is checked after its battery, outside the timed region.  With
--trace 0 the end-to-end metrics are reported; with --trace 1 batteries
alternate untraced and traced, and the per-layer metrics come from the
traced ones.  The second-to-last stdout line is the run's provenance, the
last one the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--grid shrinks the measure grids (and profile tables) for a smoke run.
Workloads and metrics are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"  # scratch output of the ops and trace dumps
WORKLOADS = ("linear_cli", "nonlinear_solve", "constructions")
# the load is this one process with one BLAS/OpenMP thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 9


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--grid", type=int, default=256)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.grid < 32:
        ap.error("--grid must be at least 32")
    return args


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def setup(args, out_dir):
    """What setup_s times after interpreter start and import: the workload's
    inputs from the seed, then a warm-up of its code paths."""
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.grid, out_dir)
    wl.warm_up()
    return wl


def time_setups(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--grid", str(args.grid)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls in 50 ms steps, which would
        # quantize the measurement
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Battery:
    traced: bool
    wall: float = 0.0
    op_s: dict = field(default_factory=dict)  # op label -> seconds
    outcomes: list = field(default_factory=list)


def run_battery(wl, index: int, tracer) -> Battery:
    from workloads import Outcome

    ops = wl.battery()  # draws this battery's inputs, untimed
    bat = Battery(tracer is not None)
    results = []
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    for j, op in enumerate(ops):
        if tracer is not None:
            tracer.op = f"{index}.{j}"
        o0 = time.perf_counter()
        try:
            results.append((op.run(), None))
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            results.append((None, exc))
        bat.op_s[op.label] = time.perf_counter() - o0
    bat.wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    for op, (res, exc) in zip(ops, results):
        if exc is None:
            out = op.check(res)
        else:
            out = Outcome(False, "".join(traceback.format_exception(exc)))
        if not out.ok:
            print(f"FAILED op {op.label!r} in battery {index}: {out.why}", file=sys.stderr)
        bat.outcomes.append(out)
    return bat


def accuracy(outcomes, batteries: int) -> dict:
    slope = [o.slope_err for o in outcomes if o.slope_err is not None]
    cert = [o.cert_width for o in outcomes if o.cert_width is not None]
    mc = [d for o in outcomes for d in o.mc_dev]
    resid = [o.residual for o in outcomes if o.residual is not None]
    return {
        "measure.slope_err_max_pct": (100.0 * max(slope, default=0.0), "%"),
        "measure.cert_width_max": (max(cert, default=0.0), "ratio"),
        "measure.mc_dev_sigma_max": (max(mc, default=0.0), "sigma"),
        "measure.mc_3sigma_flags": (sum(d > 3.0 for d in mc) / batteries, "count"),
        "pde.residual_max": (max(resid, default=0.0), "ratio"),
    }


def run(args, out_dir) -> int:
    setup_s = time_setups(args)
    wl = setup(args, out_dir)

    import numpy
    import workloads
    from psector import _kernels
    from tracing import Tracer

    agreement = workloads.kernel_agreement()
    tracer = Tracer(callers=[workloads]) if args.trace else None
    batteries = []
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(batteries) % 2 == 1
        batteries.append(run_battery(wl, len(batteries), tracer if trace_this else None))
        if time.perf_counter() - start >= args.seconds and (tracer is None or len(batteries) >= 2):
            break

    outcomes = [o for b in batteries for o in b.outcomes]
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    plain = [b for b in batteries if not b.traced]
    traced = [b for b in batteries if b.traced]
    # Each op's time is its median over the run's batteries, and a battery's
    # time is the sum of those (README.md, "Timing statistics").
    op_s = [statistics.median(b.op_s[label] for b in plain) for label in plain[0].op_s]
    wall_s = sum(op_s)
    if tracer is None:
        metrics = {
            "wall_s": (wall_s, "s"),
            "op_s_p50": (statistics.median(op_s), "s"),
            "op_s_max": (max(op_s), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ops_ok_ratio": (1.0 - failed / attempted, "ratio"),
            "err_to_tol_max": (max(o.err_to_tol for o in outcomes), "ratio"),
        }
    else:
        metrics = tracer.layer_metrics(len(traced))
        metrics.update(accuracy(outcomes, len(batteries)))
        plain_wall = statistics.median(b.wall for b in plain)
        traced_wall = statistics.median(b.wall for b in traced)
        metrics["trace_overhead_pct"] = (100.0 * (traced_wall / plain_wall - 1.0), "%")
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "grid": [args.grid, args.grid],
        "backend": _kernels.backend() if hasattr(_kernels, "backend") else "numpy",
        "kernel_agreement": agreement,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy_version, "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
        "batteries": len(batteries), "traced_batteries": len(traced),
        "ops_per_battery": len(op_s), "ops_timed": sum(len(b.op_s) for b in plain),
        "setup_repeats": SETUP_REPEATS,
        "battery_walls": [round(b.wall, 4) for b in batteries],
    }
    correct = failed == 0 and agreement != "differ"
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "psector" / "__init__.py").is_file():
        print(f"error: psector sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import psector

    if Path(psector.__file__).resolve().parent != SRC / "psector":
        print(f"error: imported psector from {psector.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            setup(args, out_dir)
            return 0
        return run(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
