"""Checks on the benchmark itself: seeding, call-site wrapping, span accounting and reference units.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import run
import tracer
import workloads

# every place a layer function is called through a name imported by value
CALL_SITES = (
    ("nstate.cli", "integrate"),
    ("nstate.analysis", "integrate"),
    ("nstate.integrator", "run_rk4"),
    ("nstate.integrator", "eigen_decompose"),
    ("nstate.integrator", "propagator"),
    ("nstate.spectral", "eigen_decompose"),
    ("nstate._kernels", "jacobi_eigh"),
    ("nstate.cli", "_csv_text"),
    ("nstate.cli", "render_svg"),
)


@pytest.fixture(scope="module")
def cli():
    return workloads.load_program()


def _call_sites():
    """The call sites above that this version of the program still has, with their functions."""
    sites = {}
    for module_name, attr in CALL_SITES:
        module = sys.modules[module_name]
        if hasattr(module, attr):
            sites[(module, attr)] = getattr(module, attr)
    return sites


def test_same_seed_same_ops_and_other_seed_same_shape():
    for workload in workloads.WORKLOADS.values():
        first = [workload.make_argv(np.random.default_rng(5), "out") for _ in range(3)]
        again = [workload.make_argv(np.random.default_rng(5), "out") for _ in range(3)]
        other = workload.make_argv(np.random.default_rng(6), "out")
        assert first == again
        assert other != first[0]
        # only values change with the seed: same flags, same number of list items
        assert [a for a in other if a.startswith("--")] == [a for a in first[0] if a.startswith("--")]
        assert [a.count(",") for a in other] == [a.count(",") for a in first[0]]


def test_every_call_site_is_wrapped_then_restored(cli):
    before = _call_sites()
    with tracer.Tracer().installed():
        for (module, attr), original in before.items():
            assert getattr(module, attr) is not original, (module.__name__, attr)
    assert _call_sites() == before


def test_names_are_restored_when_the_op_raises(cli):
    before = _call_sites()
    with pytest.raises(RuntimeError), tracer.Tracer().installed():
        raise RuntimeError
    assert _call_sites() == before


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_op_matches_untraced_and_self_times_sum_to_wall(cli, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    argv = workload.make_argv(np.random.default_rng(11), str(tmp_path))
    plain, _ = workloads.run_op(cli.main, argv, str(tmp_path))
    trace = tracer.Tracer()
    trace.begin_op(0)
    with trace.installed():
        start = time.perf_counter()
        traced, _ = workloads.run_op(cli.main, argv, str(tmp_path))
        wall = time.perf_counter() - start

    assert workloads.gate(workload, plain) is None
    assert (traced.rc, traced.stdout, traced.stderr) == (plain.rc, plain.stdout, plain.stderr)
    assert traced.files == plain.files and plain.files

    spans = trace.spans[0]
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == [tracer.ROOT_SPAN]
    root = roots[0].end - roots[0].start
    assert sum(tracer.self_times(spans)) == pytest.approx(root, rel=1e-9)
    assert min(tracer.self_times(spans)) >= 0.0
    assert root <= wall
    metrics = tracer.op_layer_metrics(trace, 0)
    assert metrics["cli.csv_bytes"] == len(plain.files[argv[argv.index("--out") + 1]])
    assert all(metrics[f"{layer}.errors"] == 0 for layer in tracer.LAYERS)


def test_kick_gate_rejects_a_wrong_population(cli, tmp_path):
    workload = workloads.WORKLOADS["kick_walk"]
    argv = workload.make_argv(np.random.default_rng(3), str(tmp_path))
    op, _ = workloads.run_op(cli.main, argv, str(tmp_path))
    assert workloads.gate(workload, op) is None
    out = argv[argv.index("--out") + 1]
    lines = op.files[out].decode().split("\n")
    cells = lines[-2].split(",")
    cells[4] = repr(float(cells[4]) - 1e-9)  # P2 of the final sample
    lines[-2] = ",".join(cells)
    broken = workloads.OpResult(argv, op.rc, op.stdout, op.stderr, {out: "\n".join(lines).encode()})
    assert "expm reference" in workloads.gate(workload, broken)


def test_benchmark_json_names_what_the_harness_reports():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = [*tracer.op_layer_metrics(tracer.Tracer(), 0), "trace.overhead_ratio"]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [(name, run.unit(name)) for name in per_layer]


def test_op_times_in_reference_units_use_the_bracketing_references(cli):
    result, details = run.run_workload("kick_walk", seed=1, seconds=1.0, trace=False)
    assert result["correct"] and set(result["metrics"]) == set(run.END_TO_END_UNITS)
    op_s, refs = details["steady_op_s"], details["reference_s"]
    assert len(refs) == len(op_s) + 1 and min(refs) > 0.0
    in_ref = [t / (0.5 * (refs[i] + refs[i + 1])) for i, t in enumerate(op_s)]
    assert details["steady_op_ref"] == in_ref
    assert result["metrics"]["op_p50_ref"]["value"] == statistics.median(in_ref)
    assert result["metrics"]["ops_per_ref"]["value"] == pytest.approx(len(in_ref) / sum(in_ref))
