"""Print every end-to-end metric of every workload, plus its traced profile.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Each workload runs in its own processes through run.py: once untraced (the
end-to-end metrics) and twice traced (the per-layer metrics). The two traced
runs must agree exactly on every work counter; the tracing overhead is the
traced op_s over the untraced op_s. Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    detail = next(json.loads(line[len("# detail "):]) for line in proc.stderr.splitlines()
                  if line.startswith("# detail "))
    return json.loads(proc.stdout.strip().splitlines()[-1]), detail


def blas_info():
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = "unknown"
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    return f"{blas['name']} {blas['version']}, {threads} threads"


def environment():
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=ROOT, timeout=30).stdout.strip() or "not a git checkout"
    except OSError:
        commit = "git unavailable"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_info(), "nproc": os.cpu_count(),
            "POLYFACTOR_THREADS": os.environ.get("POLYFACTOR_THREADS", "unset"),
            "commit": commit}


def end_to_end_rows(res, detail):
    """The end-to-end metrics: (name, value, unit, samples)."""
    m, q = res["metrics"], detail["quality"]
    rows = [("op_s", detail["op_s"], "s", detail["timed_ops"]),
            ("op_rel", m["op_rel"]["value"], "ref", detail["timed_ops"]),
            ("setup_s", m["setup_s"]["value"], "s", detail["setup_repeats"]),
            ("peak_rss_mb", m["peak_rss_mb"]["value"], "MB", 1),
            ("fail_frac", res["failed"] / res["attempted"], "ratio", res["attempted"])]
    for name, unit in (("final_objective", "1"), ("test_accuracy", "ratio"),
                       ("test_ndcg1", "ratio"), ("test_rmse", "1")):
        rows.append((name, q.get(name, "n/a"), unit, detail["inputs"]))
    return rows


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from tracing import per_layer_catalogue

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args(argv)

    for key, value in environment().items():
        print(f"{key:20s} {value}")
    counters = [name for name, unit, _ in per_layer_catalogue() if unit != "s"]
    status = 0
    for workload in args.workload or names:
        plain, detail = run(workload, args.seed, args.seconds, 0)
        traced, _ = run(workload, args.seed, args.seconds, 1)
        again, _ = run(workload, args.seed, args.seconds, 1)
        print(f"\n== {workload} (seed {args.seed}, {args.seconds:g} s, "
              f"correct={plain['correct']})")
        for name, value, unit, samples in end_to_end_rows(plain, detail):
            shown = value if isinstance(value, str) else f"{value:.6g}"
            print(f"  {name:18s} {shown:>14s} {unit:6s} n={samples}")
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        overhead = layers["trace.op_s"] / detail["op_s"]
        print(f"  tracing overhead   {overhead:.3f} (traced op_s / untraced op_s)")
        differ = [k for k in counters if traced["metrics"][k] != again["metrics"][k]]
        print(f"  counters repeat    {'exactly' if not differ else 'NO: ' + ', '.join(differ)}")
        status |= bool(differ) or not plain["correct"]
        print("  per layer, per operation:")
        for name, unit, _ in per_layer_catalogue():
            if layers[name]:
                print(f"    {name:38s} {layers[name]:14.6g} {unit}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
