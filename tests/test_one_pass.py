"""One pass per torus quadrature: the tuple form of ``torus_quadrature``
evaluates every integrand from one snapshot per grid chunk, and gives the
same floats as one call per integrand."""

import copy
import json

import pytest

import kangle.quadrature as quadrature
from kangle.catalog import builtin_catalog, get_entry
from kangle.cli import main
from kangle.errors import UsageError
from kangle.runner import run_suite
from test_quadrature import KEYS

PERIODIC = [e.name for e in builtin_catalog() if e.spec().periodic]


@pytest.mark.parametrize("name", PERIODIC)
def test_tuple_call_equals_single_key_calls(name, monkeypatch):
    """Bit-identical sums. Each grid chunk's snapshot is computed once and
    every call gets a fresh deep copy of it: six real passes over a curved
    4-D grid would take minutes, and an integrand that changed the snapshot
    it reads would still show."""
    compute = quadrature.compute_snapshot
    chunks = {}

    def once(spec, points, **kwargs):
        key = points.tobytes()
        if key not in chunks:
            chunks[key] = compute(spec, points, **kwargs)
        return copy.deepcopy(chunks[key])

    monkeypatch.setattr(quadrature, "compute_snapshot", once)
    spec = get_entry(name).spec()
    grid = 64 if spec.domain_dim == 2 else 8
    together = quadrature.torus_quadrature(spec, KEYS, grid)
    for key in KEYS:
        assert quadrature.torus_quadrature(spec, key, grid) == together[key], key


@pytest.fixture
def snapshots(monkeypatch):
    """The batch sizes of the snapshots that torus_quadrature computes."""
    compute = quadrature.compute_snapshot
    sizes = []

    def counted(spec, points, **kwargs):
        sizes.append(len(points))
        return compute(spec, points, **kwargs)

    monkeypatch.setattr(quadrature, "compute_snapshot", counted)
    return sizes


def test_one_snapshot_per_chunk(snapshots, monkeypatch):
    spec = get_entry("trig_flat_2d").spec()
    assert set(quadrature.torus_quadrature(spec, KEYS, 16)) == set(KEYS)
    assert snapshots == [256]
    snapshots.clear()
    monkeypatch.setattr(quadrature, "CHUNK", 100)
    quadrature.torus_quadrature(spec, KEYS, 16)
    assert snapshots == [100, 100, 56]
    snapshots.clear()
    with pytest.raises(UsageError):
        quadrature.torus_quadrature(spec, ("volume", "bogus"), 16)
    assert snapshots == []


def test_runner_and_cli_one_snapshot_per_chunk(snapshots, capsys):
    """run_suite's quadrature rows and kangle integrate's are one list from
    torus_checks, each from one snapshot of the 16x16 grid."""
    # slant_cylinder is not periodic, so only lagrangian_torus_2 integrates
    report = run_suite(entries=["slant_cylinder", "lagrangian_torus_2"],
                       suites=["prop3.1"], points=8, quad_grid=16)
    assert report["pass"]
    assert snapshots == [256]
    snapshots.clear()
    assert main(["integrate", "--entry", "lagrangian_torus_2", "--grid",
                 "16"]) == 0
    assert snapshots == [256]
    rows = {e["name"]: e.get("quadrature") for e in report["entries"]}
    assert json.loads(capsys.readouterr().out) == {
        "quadrature": rows["lagrangian_torus_2"], "pass": True}
