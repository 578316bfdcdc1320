"""The point gate: a map with no finite jet, the chart, the immersion and
the angle pairing drop the failing points and report them with a reason;
a batch with no point left is an empty snapshot, never an error."""

import numpy as np
import pytest

from kangle import geometry
from kangle.catalog import CatalogEntry, get_entry
from kangle.cli import main
from kangle.dsl import parse_immersion
from kangle.identities import SUITES, run_identity_suite
from kangle.runner import RunError, run_suite, sample_points

CHART = "n=1; ambient=space_form(-1); map=[u1, 0, u2, 0]"
FOLD = "n=1; ambient=flat; map=[u1*u1, 0, u2, 0]"
# flat maps without a chart boundary; at u1 = 1, F overflows in the
# first, and in the second exp(400) is finite, but |F|^2 is not
OVERFLOW = "n=1; ambient=flat; map=[u1, u2, exp(1000*u1), 0]"
SQUARE_OVERFLOW = "n=1; ambient=flat; map=[u1, u2, exp(400*u1), 0]"
# F has no Taylor jet at the points below: each is gated as not finite,
# and at u1 = 1 the last one's F is finite but its dF overflows
SINGULAR = [("log(u1)", [-1.0, 0.5]), ("sqrt(u1)", [0.0, 0.5]),
            ("1/u1", [0.0, 0.5]), ("exp(350*u1)", [1.0, 0.0])]
NOT_FINITE = "map or a derivative not finite"


def _flat(term):
    return f"n=1; ambient=flat; map=[u1, u2, {term}, 0]"


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


def _batch_keys(snap):
    """The keys of ``snap.data``, ``snap.jets`` and ``snap.masks``, each
    with the length of its batch axis."""
    return {store: {key: (value.value().shape[-1] if store == "jets"
                          else len(value))
                    for key, value in getattr(snap, store).items()}
            for store in ("data", "jets", "masks")}


# each input drops both copies of ``point``; ``kept`` is a point of the
# same map that every gate keeps
@pytest.mark.parametrize("text, point, kept, reason", [
    (CHART, [2.0, 0.0], [0.2, 0.1], "outside chart domain"),
    (FOLD, [0.0, 0.5], [0.5, 0.5], "not an immersion"),
    (FOLD, [0.5, 0.5], [0.5, 0.5], "angles failed to pair"),
    (OVERFLOW, [1.0, 0.0], [-0.1, 0.0], NOT_FINITE),
    (SQUARE_OVERFLOW, [1.0, 0.0], [-0.1, 0.0], NOT_FINITE),
    *((_flat(term), point, [0.01, 0.5], NOT_FINITE)
      for term, point in SINGULAR),
    ("n=2; ambient=space_form(-1); map=[u1, u2, u3, u4, 0, 0, 0, 0]",
     [2.0, 0.0, 0.0, 0.0], [0.2, 0.1, 0.3, 0.0], "outside chart domain"),
    ("n=3; ambient=flat; map=[u1*u1, u2, u3, u4, u5, u6, 0, 0, 0, 0, 0, 0]",
     [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], [0.5, 0.1, 0.2, 0.3, 0.4, 0.5],
     "not an immersion"),
])
def test_a_batch_with_no_point_left_is_an_empty_snapshot(
        text, point, kept, reason, monkeypatch):
    """The gates raise nothing: a batch they empty comes back with size 0,
    each point in ``rejected`` with its reason, and every key of a full
    snapshot of the map, each of batch length 0."""
    spec = parse_immersion(text)
    full = geometry.compute_snapshot(spec, np.array([kept]))
    assert full.size == 1
    if reason == "angles failed to pair":
        monkeypatch.setattr(geometry, "PAIRING_TOL", -1.0)
    snap = geometry.compute_snapshot(spec, np.array([point, point]))
    assert snap.size == 0 and snap.index.size == 0
    assert snap.rejected == [(0, reason), (1, reason)]
    want = _batch_keys(full)
    assert _batch_keys(snap) == {store: dict.fromkeys(keys, 0)
                                 for store, keys in want.items()}


def test_an_empty_snapshot_keeps_the_reasons_of_earlier_gates(monkeypatch):
    """A point an earlier gate dropped keeps that gate's reason after the
    gate that drops the last point."""
    monkeypatch.setattr(geometry, "PAIRING_TOL", -1.0)
    snap = geometry.compute_snapshot(parse_immersion(FOLD),
                                     np.array([[0.0, 0.5], [0.5, 0.5]]))
    assert snap.size == 0
    assert snap.rejected == [(0, "not an immersion"),
                             (1, "angles failed to pair")]


@pytest.mark.parametrize("text, point, reason", [
    (FOLD, "0,0.5", "not an immersion"),
    (CHART, "2,0", "outside chart domain"),
    (OVERFLOW, "1,0", NOT_FINITE),
    *((_flat(term), ",".join(map(str, point)), NOT_FINITE)
      for term, point in SINGULAR),
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


def test_a_singular_point_drops_only_its_point(conventions):
    """log(u1) has no jet at u1 = -1: that point is gated, and the regular
    points are kept, with the values and records they have alone."""
    spec = parse_immersion(_flat("log(u1)"))
    pts = np.array([[0.5, 0.5], [-1.0, 0.5], [1.5, -0.2]])
    snap = geometry.compute_snapshot(spec, pts)
    assert snap.rejected == [(1, NOT_FINITE)]
    alone = geometry.compute_snapshot(spec, pts[[0, 2]])
    assert np.array_equal(snap.points, alone.points)
    for key, value in alone.data.items():
        assert np.allclose(snap.data[key], value, rtol=0.0, atol=1e-14,
                           equal_nan=True), key
    records = run_identity_suite(snap, SUITES, conventions)
    assert {r.point_index for r in records} == {0, 2}


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


def test_cli_verify_prints_the_rejected_points(tmp_path, capsys):
    """verify's text names each entry whose gate dropped points, with the
    count of points it sampled."""
    path = tmp_path / "chart.imm"
    path.write_text(CHART)
    assert main(["verify", str(path), "--points", "16"]) == 0
    out = capsys.readouterr().out
    assert f"  rejected {path}: 5 of 16 points\n" in out
    assert main(["verify", "--entry", "ds_graph", "--points", "4"]) == 0
    assert "rejected" not in capsys.readouterr().out


@pytest.mark.parametrize("text, reason", [
    ("n=1; ambient=space_form(-1); map=[u1 + 5, 0, u2, 0]",
     "outside chart domain"),
    ("n=1; ambient=flat; map=[u2, 0, u2, 0]", "not an immersion"),
])
def test_verify_an_entry_whose_every_point_is_rejected(text, reason, tmp_path,
                                                       capsys):
    """An entry with no point left has nothing to judge: run_suite raises
    RunError, and verify exits 2 with one error line naming the entry and
    the reason."""
    path = tmp_path / "rejected.imm"
    path.write_text(text)
    assert main(["verify", str(path), "--points", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert str(path) in captured.err and reason in captured.err
    entry = CatalogEntry(name="rejected", text=text, box=((-1.0, 1.0),) * 2,
                         equal_angles=False, classification="mixed")
    with pytest.raises(RunError, match=f"entry rejected: .*{reason}"):
        run_suite(entries=[entry], points=8, threads=1)
