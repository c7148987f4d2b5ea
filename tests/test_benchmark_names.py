"""The benchmark under perfbench/ reaches into the package by name: its
tracer wraps functions at the places their callers look them up, and its
workloads call package functions directly. A deleted or renamed name must
fail here, not in the middle of a traced benchmark run."""

import ast
import importlib.util
from pathlib import Path

from conftest import SHAPES, shaped_operator
from polyfactor import cli, selection, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_target():
    tracing = load("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert len(patched) == sum(map(len, tracing.SPAN_TARGETS.values()))
    finally:
        tracer.uninstall()
    for owner, attr, raw in patched:
        assert owner.__dict__[attr] is raw


def test_workloads_use_existing_package_names():
    workloads = load("workloads")
    modules = {"cli", "data", "models", "refit", "synth"}
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert used
    for module, attr in sorted(used):
        assert hasattr(getattr(workloads, module), attr), f"polyfactor.{module}.{attr}"


def test_workload_argv_parses(tmp_path, monkeypatch):
    # op only formats paths, so it needs no set-up; every flag it passes must exist
    workloads = load("workloads")
    calls = []
    monkeypatch.setattr(workloads, "cli_call", lambda argv: calls.append(argv) or "")
    for cls in workloads.WORKLOADS.values():
        cls(tmp_path, seed=1).op(0)
    assert len(calls) >= len(workloads.WORKLOADS)
    parser = cli.build_parser()
    for argv in calls:
        assert parser.parse_args(argv).command == argv[0]


def test_tracer_payloads_read_selection_results(rng):
    # the tracer reads len(result.trace) - 1 from every refine it wraps
    tracing = load("tracing")
    tracer = tracing.Tracer()
    op = shaped_operator(rng, SHAPES[1], "pn")
    try:
        tracer.install()
        tracer.enabled = True
        refined = selection.refine(op, selection.select_l1(op, 0).h, 1)
        solver.select_group(op, 2, 0)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    first = tracer.names.index("selection.refine")
    assert tracer.results[first] == len(refined.trace) - 1 >= 0
    assert tracer.names.count("selection.select") == 2
    # select_group refines each of its starts through the wrapped refine
    assert tracer.names.count("selection.refine") > 1
