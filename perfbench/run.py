"""polyfactor benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory. Set-up runs SETUP_REPEATS times in this process and
``setup_s`` is their median. The operations then run in a fresh worker
process, so that ``peak_rss_mb`` is the worker's own peak (imports, inputs
and operations, not set-up). The worker warms up, then runs whole rounds
(one operation on each of the workload's input sets) until ``--seconds``
have passed, and checks every operation's output. ``op_rel`` is the median
over operations of the operation's wall time divided by the time of a fixed
reference kernel run next to it (see ``reference_kernel``); the plain median
wall time ``op_s`` is on the detail line.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A ``# detail`` line on standard error carries the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
DEADLINE_S = 170.0      # whole run, set-up included


def reference_kernel():
    """A fixed numpy/scipy loop, timed around every operation.

    Wall time on a shared host swings by up to 2x for minutes at a time, and
    an operation's time follows. ``op_rel`` divides each operation's time by
    this kernel's time measured right before and after it, so the machine's
    state cancels and the program's speed remains. The kernel never calls
    polyfactor: a change to the package cannot move it. It applies the two
    matrix shapes the workloads apply, a small dense one (call overhead) and
    a one-hot sparse one (nonzeros touched), in the power-iteration pattern.
    """
    import numpy as np
    import scipy.sparse as sp

    rng = np.random.default_rng(0)
    dense = sp.csr_matrix(rng.standard_normal((264, 11)))
    n = 12_000
    cols = np.stack([rng.integers(0, 300, n), 300 + rng.integers(0, 500, n)], axis=1)
    onehot = sp.csr_matrix((np.ones(2 * n), cols.ravel(), np.arange(0, 2 * n + 1, 2)),
                           shape=(n, 800))
    plan = [(dense, rng.standard_normal(264), 3000), (onehot, rng.standard_normal(n), 300)]

    def kernel() -> float:
        start = time.perf_counter()
        for X, weights, iterations in plan:
            v = np.ones(X.shape[1])
            for _ in range(iterations):
                v = X.T @ (weights * (X @ v))
                v /= np.linalg.norm(v)
        return time.perf_counter() - start

    return kernel


def import_package():
    """Import polyfactor from this checkout's src/ and nowhere else."""
    if not (SRC / "polyfactor" / "__init__.py").is_file():
        raise SystemExit(f"error: no polyfactor sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyfactor
    if Path(polyfactor.__file__).resolve().parent != (SRC / "polyfactor").resolve():
        raise SystemExit(f"error: polyfactor imported from {polyfactor.__file__}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run_worker(args) -> dict:
    """Warm up, run whole rounds for --seconds, check every output."""
    from tracing import Tracer
    from workloads import WORKLOADS, CheckFailed

    wl = WORKLOADS[args.workload](Path(args.worker), args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    kernel = reference_kernel()
    attempted = 0
    errors = []
    first = {}     # input j -> quality of its first checked operation
    times = []     # (op id, seconds, reference seconds) of measured operations that passed

    def one(op_id, j):
        nonlocal attempted
        attempted += 1
        if tracer:
            tracer.op_id = op_id
            tracer.enabled = True
        try:
            start = time.perf_counter()
            result = wl.op(j)
            seconds = time.perf_counter() - start
        except Exception:   # a failed operation is counted, never fatal
            errors.append(traceback.format_exc(limit=4))
            return None
        finally:
            if tracer:
                tracer.enabled = False
        try:
            quality = wl.quality(j, result)
            if first.setdefault(j, quality) != quality:
                raise CheckFailed(f"input {j}: result changed between repeats")
        except Exception:
            errors.append(traceback.format_exc(limit=4))
            return None
        return seconds

    op_id = 0
    for w in range(wl.warmup):
        one(op_id, w % wl.inputs)
        op_id += 1
    begin = time.perf_counter()
    before = kernel()
    while True:
        for j in range(wl.inputs):
            seconds = one(op_id, j)
            after = kernel()
            if seconds is not None:
                times.append((op_id, seconds, 0.5 * (before + after)))
            before = after
            op_id += 1
        if time.perf_counter() - begin >= args.seconds:
            break

    quality = None
    if len(first) == wl.inputs:
        quality = {key: statistics.fmean(q[key] for q in first.values()) for key in first[0]}
    out = {"attempted": attempted, "failed": len(errors), "errors": errors[:5],
           "op_seconds": [s for _, s, _ in times], "ref_seconds": [r for _, _, r in times],
           "inputs": wl.inputs, "quality": quality,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        tracer.uninstall()
        op_s = statistics.median(out["op_seconds"]) if times else 0.0
        out["layers"] = tracer.metrics([i for i, _, _ in times], op_s)
        spans_dir = ROOT / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(spans_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    return out


def run(args):
    """Set up, run the worker; return (set-up seconds, worker result) or None."""
    from workloads import WORKLOADS

    started = time.perf_counter()
    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            wl = WORKLOADS[args.workload](work, args.seed)
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--worker", str(work)]
        budget = DEADLINE_S - (time.perf_counter() - started)
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            print(f"error: worker exceeded {budget:.0f}s", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return None
        return setups, json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if base.is_dir() and not any(base.iterdir()):
            base.rmdir()


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    if args.worker:
        print(json.dumps(run_worker(args)))
        return 0

    from tracing import per_layer_catalogue
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    outcome = run(args)
    if outcome is None:
        return 1
    setups, res = outcome
    for err in res["errors"]:
        print(err, file=sys.stderr)
    times = res["op_seconds"]
    if not times:
        print("error: no operation passed its checks", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit, _ in per_layer_catalogue()}
    else:
        ratios = [t / r for t, r in zip(times, res["ref_seconds"])]
        metrics = {
            "op_rel": {"value": statistics.median(ratios), "unit": "ref"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "timed_ops": len(times), "setup_repeats": len(setups),
              "inputs": res["inputs"], "quality": res["quality"],
              "op_s": statistics.median(times), "op_seconds": [round(t, 4) for t in times],
              "ref_seconds": [round(t, 4) for t in res["ref_seconds"]]}
    print("# detail " + json.dumps(detail), file=sys.stderr)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
