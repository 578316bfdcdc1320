"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py -q
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert np.allclose(tracer.self_times(start, end, parent),
                       [10 - 3 - 4, 3 - 1, 1, 4])


def test_recorder_nests_spans_and_self_times_sum_to_the_root():
    rec = tracer.Recorder()
    ids = rec.ids

    def leaf():
        time.sleep(0.002)

    def middle():
        rec.call(ids["jets.product"], leaf, (), {}, True, None)
        assert rec.in_jets == 0
        rec.call(ids["calculus"], leaf, (), {}, False, None)

    rec.call(ids["geometry.snapshot"], middle, (), {}, False, None)
    arr = rec.arrays()
    assert list(arr["parent"]) == [-1, 0, 0]
    own = tracer.self_times(arr["start"], arr["end"], arr["parent"])
    assert np.all(own >= 0)
    assert np.isclose(own.sum(), arr["end"][0] - arr["start"][0])


def _bindings():
    from kangle.identities import IdentityResidual
    from kangle.jets import Jet
    out = {}
    for module in tracer._kangle_modules():
        for attr, value in vars(module).items():
            if callable(value):
                out[(module.__name__, attr)] = value
    for attr in ("__mul__", "__rmul__", "reciprocal"):
        out[("Jet", attr)] = vars(Jet)[attr]
    out[("IdentityResidual", "as_dict")] = vars(IdentityResidual)["as_dict"]
    out[("numpy", "einsum")] = np.einsum
    return out


def test_wrappers_restore_the_original_functions():
    import kangle.cli  # noqa: F401
    before = _bindings()
    inst = tracer.install(tracer.Recorder())
    try:
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        for key in [("kangle.runner", "compute_snapshot"),
                    ("kangle.quadrature", "compute_snapshot"),
                    ("kangle.identities", "compute_snapshot"),
                    ("kangle.cli", "compute_snapshot"),
                    ("kangle.calculus", "jet_einsum"),
                    ("kangle.geometry", "jet_einsum"),
                    ("kangle.catalog", "parse_immersion"),
                    ("Jet", "__mul__"), ("Jet", "__rmul__"),
                    ("numpy", "einsum")]:
            assert key in changed, key
        assert during[("Jet", "__mul__")] is not during[("Jet", "__rmul__")]
    finally:
        inst.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_snapshot_pass_counts_products_and_one_snapshot():
    wl = workloads.WORKLOADS["snapshot_order4"]
    inputs = wl.inputs(0)
    inputs["points"] = inputs["points"][:32]
    rec = tracer.Recorder()
    rec.pass_index = 0
    inst = tracer.install(rec)
    try:
        start = time.perf_counter()
        wl.run(inputs)
        wall = time.perf_counter() - start
    finally:
        inst.uninstall()
    metrics = tracer.layer_metrics(rec, {0: wall}, [wall])
    assert list(metrics) == list(tracer.LAYER_UNITS)
    assert metrics["jets.product_calls"] > 0
    assert metrics["jets.product_out_mb"] > 0
    assert metrics["geometry.snapshot_calls"] == 1
    assert metrics["geometry.points"] == 32
    assert metrics["quadrature.integrals"] == 0
    assert 0.0 <= metrics["trace.uncovered_share"] < 0.05


def _corrupted(ref, path):
    ref = copy.deepcopy(ref)
    node = ref
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = node[path[-1]] * 1.01 + 1.0
    return ref


def test_a_corrupted_snapshot_reference_fails_points():
    wl = workloads.WORKLOADS["snapshot_order4"]
    ref = workloads.load_reference(wl.name, 0)
    summary = wl.summary(wl.run(wl.inputs(0)))
    assert wl.check(summary, ref).failed == 0
    bad = copy.deepcopy(ref)
    bad["sample"]["sqrt_det_g0"][3][0] += 1e-3
    outcome = wl.check(summary, bad)
    assert outcome.failed > 0
    assert outcome.failed / outcome.attempted > 0


@pytest.mark.parametrize("workload,path", [
    ("torus_integrate", ("values", "hodge_pair")),
    ("catalog_verify", ("per_identity", "prop3.1.norm_fw", 0)),
])
def test_a_corrupted_reference_makes_failed_share_nonzero(workload, path):
    wl = workloads.WORKLOADS[workload]
    ref = workloads.load_reference(workload, 0)
    # the stored summary is the output of the commit the references track
    assert wl.check(ref, ref).failed == 0
    outcome = wl.check(ref, _corrupted(ref, path))
    assert outcome.failed > 0


def test_missing_reference_is_an_error(tmp_path):
    with pytest.raises(workloads.MissingReference):
        workloads.load_reference("torus_integrate", 0,
                                 path=str(tmp_path / "none.json"))
    with pytest.raises(workloads.MissingReference):
        workloads.load_reference("torus_integrate", workloads.POOL)


def test_metric_names_are_well_formed_and_match_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    names = e2e + layers + [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert e2e == list(run.END_TO_END_UNITS)
    assert layers == list(tracer.LAYER_UNITS)
    assert {m["unit"] for m in bench["per_layer"]} <= set(
        tracer.LAYER_UNITS.values())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert run.SETUP_ORDER == {name: wl.order
                               for name, wl in workloads.WORKLOADS.items()}


def test_run_without_the_package_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "torus_integrate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_traced_quadrature_takes_one_snapshot_per_integral():
    wl = workloads.TorusIntegrate()
    wl.grid = 8
    rec = tracer.Recorder()
    rec.pass_index = 0
    inst = tracer.install(rec)
    try:
        start = time.perf_counter()
        wl.run(wl.inputs(1))
        wall = time.perf_counter() - start
    finally:
        inst.uninstall()
    metrics = tracer.layer_metrics(rec, {0: wall}, [wall])
    assert metrics["quadrature.integrals"] == len(wl.integrands)
    assert metrics["quadrature.snapshots_per_integral"] == 1.0
    assert metrics["geometry.points"] == 64 * len(wl.integrands)


def test_speed_factor_scales_each_pass_by_the_probes_around_it():
    ref = run.probe.REFERENCE_S
    assert run._speed([ref, ref, 2 * ref, 2 * ref]) == pytest.approx(
        [1.0, 2.0 / 3.0, 0.5])
