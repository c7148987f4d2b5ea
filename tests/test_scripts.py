"""Smoke runs of the experiment scripts at tiny size: each exits 0 and
prints its full table."""

import os
import subprocess
import sys
from pathlib import Path

from polyfactor.penalties import PENALTIES
from polyfactor.solver import REFITS
from polyfactor.synth import make_ratings, write_movielens

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_multiclass_prints_every_penalty_and_refit(tmp_path):
    data = tmp_path / "v.svm"
    lines = run_script("run_multiclass.py", "--data", data, "--k-max", 1, "--lambdas", 0.1)
    assert data.exists()  # regenerated when missing
    rows = [tuple(line.split()[:2]) for line in lines if line.split()[0] in PENALTIES]
    assert sorted(rows) == sorted((p, r) for p in PENALTIES for r in REFITS)


def test_run_recsys_prints_both_models(tmp_path):
    data = tmp_path / "u.data"
    users, items, ratings = make_ratings(40, 60, 800, seed=0)
    write_movielens(users, items, ratings, data)
    lines = run_script("run_recsys.py", "--data", data, "--k-max", 1)
    rows = [line for line in lines if " FM" in line and "k=" in line]
    assert [row.split(":")[0] for row in rows] == ["multi-output ordinal FM",
                                                    "single-output FM"]
