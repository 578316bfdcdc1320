"""Catalog entries parse, immerse, and satisfy their own expectations."""

import numpy as np
import pytest

from kangle.catalog import builtin_catalog, entry_names, get_entry
from kangle.geometry import compute_snapshot
from kangle.runner import check_expected, sample_points


@pytest.mark.parametrize("entry", builtin_catalog(), ids=entry_names())
def test_entry_self_assertions(entry):
    pts = sample_points(entry.box, 40, seed=20240817)
    snap = compute_snapshot(entry.spec(), pts, order=3)
    assert snap.size == 40, f"{entry.name}: rejected {snap.rejected}"
    failures = check_expected(entry, snap)
    assert not failures, failures


@pytest.mark.parametrize("entry", builtin_catalog(), ids=entry_names())
def test_a_periodic_entry_samples_the_torus(entry):
    """An entry's text declares ``periodic;`` exactly when its box is the
    coordinate torus [0, 2pi]^{2n} that torus_quadrature integrates over."""
    spec = entry.spec()
    torus = ((0.0, 2.0 * np.pi),) * spec.domain_dim
    assert spec.periodic == (entry.box == torus)


def test_catalog_has_required_families():
    names = set(entry_names())
    assert "ds_graph" in names
    assert "lagrangian_torus_4" in names
    assert "quaternionic_graph" in names
    assert {"trig_sf_pos", "trig_sf_neg"} <= names
    assert "slant_product_4" in names and "slant_product_6" in names
    # the linear family covers a in {0, .25, .5, 1, 2} for n in {1,2,3}
    linear = [n for n in names if n.startswith("linear_")]
    assert len(linear) == 15


def test_quaternionic_gate_measured():
    entry = get_entry("quaternionic_graph")
    assert entry.equal_angles == "measured"
    pts = sample_points(entry.box, 64, seed=3)
    snap = compute_snapshot(entry.spec(), pts)
    assert np.mean(snap.equal_gate) == 1.0


def test_ds_formula_deviation():
    entry = get_entry("ds_graph")
    pts = sample_points(entry.box, 256, seed=11)
    snap = compute_snapshot(entry.spec(), pts)
    want = entry.angle_fn(snap.points)
    assert np.max(np.abs(snap.cos_angles - want[:, None])) < 1e-9


def test_unknown_entry():
    from kangle.errors import UsageError
    with pytest.raises(UsageError):
        get_entry("nope")
