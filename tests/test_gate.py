"""The point gate: chart, immersion and angle pairing drop the failing
points, report them with a reason, and raise only when no point is left."""

import numpy as np
import pytest

from kangle import geometry
from kangle.catalog import get_entry
from kangle.cli import main
from kangle.dsl import parse_immersion
from kangle.errors import (
    ChartDomainError,
    DegenerateAngleError,
    NotAnImmersionError,
)
from kangle.identities import SUITES, run_identity_suite
from kangle.runner import run_suite, sample_points

CHART = "n=1; ambient=space_form(-1); map=[u1, 0, u2, 0]"
FOLD = "n=1; ambient=flat; map=[u1*u1, 0, u2, 0]"


def _fail_one_pairing(monkeypatch, snap):
    """Set PAIRING_TOL between the two largest relative pairing gaps of
    ``snap``, so that exactly the point of the largest fails; returns it."""
    ratio = snap.pair_gap / (1.0 + snap.cos_angles[:, 0])
    low, high = np.sort(ratio)[-2:]
    assert low < high
    monkeypatch.setattr(geometry, "PAIRING_TOL", 0.5 * (low + high))
    return int(np.argmax(ratio))


def test_a_pairing_failure_drops_only_its_point(monkeypatch):
    entry = get_entry("trig_flat_4d")
    pts = sample_points(entry.box, 8, 1234)
    bad = _fail_one_pairing(monkeypatch,
                            geometry.compute_snapshot(entry.spec(), pts))
    snap = geometry.compute_snapshot(entry.spec(), pts)
    assert snap.rejected == [(bad, "angles failed to pair")]
    kept = np.delete(np.arange(len(pts)), bad)
    alone = geometry.compute_snapshot(entry.spec(), pts[kept])
    assert not alone.rejected
    assert np.array_equal(snap.points, pts[kept])
    assert snap.data.keys() == alone.data.keys()
    assert snap.masks.keys() == alone.masks.keys()
    # the kept jets are copies with another memory layout than jets formed
    # on the kept points alone, and a jet product's summation order follows
    # the layout: floats agree to rounding, integers and masks exactly
    for store, want in ((snap.data, alone.data), (snap.masks, alone.masks)):
        for key, value in store.items():
            if np.issubdtype(np.asarray(value).dtype, np.inexact):
                scale = 1.0 + np.max(np.abs(np.nan_to_num(want[key])))
                assert np.allclose(value, want[key], rtol=0.0,
                                   atol=1e-14 * scale, equal_nan=True), key
            else:
                assert np.array_equal(value, want[key]), key


@pytest.mark.parametrize("text, point, error, reason", [
    (CHART, [2.0, 0.0], ChartDomainError, "outside chart domain"),
    (FOLD, [0.0, 0.5], NotAnImmersionError, "not an immersion"),
    (FOLD, [0.5, 0.5], DegenerateAngleError, "angles failed to pair"),
])
def test_a_batch_with_no_point_left_raises_its_gates_error(
        text, point, error, reason, monkeypatch):
    if error is DegenerateAngleError:
        monkeypatch.setattr(geometry, "PAIRING_TOL", -1.0)
    spec = parse_immersion(text)
    with pytest.raises(error, match=reason):
        geometry.compute_snapshot(spec, np.array([point, point]))


@pytest.mark.parametrize("text, point, reason", [
    (FOLD, "0,0.5", "not an immersion"),
    (CHART, "2,0", "outside chart domain"),
])
def test_cli_eval_at_a_rejected_point(text, point, reason, tmp_path, capsys):
    path = tmp_path / "surface.imm"
    path.write_text(text)
    assert main(["eval", str(path), "--point", point]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert reason in captured.err


def test_identity_records_index_the_callers_points(monkeypatch,
                                                  conventions):
    """After a rejection the records skip the dropped point and keep the
    index of every other point in the points passed in."""
    entry = get_entry("trig_flat_4d")
    pts = sample_points(entry.box, 8, 1234)
    whole = geometry.compute_snapshot(entry.spec(), pts)
    want = {(r.id, r.point_index): r
            for r in run_identity_suite(whole, SUITES, conventions)}
    bad = _fail_one_pairing(monkeypatch, whole)
    assert bad < len(pts) - 1     # so a later point shows an index shift
    records = run_identity_suite(
        geometry.compute_snapshot(entry.spec(), pts), SUITES, conventions)
    keys = [(r.id, r.point_index) for r in records]
    assert keys == sorted(keys)
    assert {i for _, i in keys} == set(range(len(pts))) - {bad}
    for rec in records:
        ref = want[rec.id, rec.point_index]
        assert rec.applicable == ref.applicable
        if rec.applicable:
            assert np.allclose(rec.lhs, ref.lhs, rtol=1e-12, atol=1e-12)


def test_run_suite_counts_a_pairing_rejection(monkeypatch, conventions):
    entry = get_entry("trig_flat_4d")
    points = 8
    # run_suite samples these points; the conventions are calibrated
    # before PAIRING_TOL changes
    whole, = run_suite(entries=[entry.name], points=points, seed=1234,
                       threads=1)["entries"]
    bad = _fail_one_pairing(monkeypatch, geometry.compute_snapshot(
        entry.spec(), sample_points(entry.box, points, 1234)))
    assert bad < points - 1       # so a later point shows an index shift
    report = run_suite(entries=[entry.name], points=points, seed=1234,
                       threads=1)
    result, = report["entries"]
    assert result["points_rejected"] == 1
    assert result["points_sampled"] == points - 1
    # records carry the index of the sampled point, not of the kept one
    want = {(r["id"], r["point_index"]): r for r in whole["residuals"]}
    indices = set()
    for rec in result["residuals"]:
        indices.add(rec["point_index"])
        ref = want[rec["id"], rec["point_index"]]
        assert rec["applicable"] == ref["applicable"]
        if rec["applicable"]:
            assert np.allclose(rec["lhs"], ref["lhs"], rtol=1e-12, atol=1e-12)
    assert indices == set(range(points)) - {bad}
