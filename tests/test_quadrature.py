"""Torus quadrature: Stokes-type vanishing, the global form identity, and
spectral convergence of the uniform rule on periodic integrands."""

import functools
import re

import pytest

from kangle.catalog import get_entry
from kangle.dsl import parse_immersion
from kangle.errors import QuadratureError, UsageError
from kangle.quadrature import torus_checks, torus_quadrature

PERIODIC_2D = ("lagrangian_torus_2", "trig_flat_2d", "trig_sf_pos",
               "trig_sf_neg", "calibration_surface")
KEYS = ("volume", "div_field", "lap_cos2", "hodge_pair", "delta_fw_norm2")


# Acceptance criterion 7 asserts on the same integrals. Each (entry, grid)
# pass is cached, so a session that collects both modules computes it once;
# a pass that raises is not cached and fails every test that asks for it.
@functools.cache
def torus_integrals(name, grid):
    """Every integrand of KEYS on a catalog entry, from one grid pass."""
    return torus_quadrature(get_entry(name).spec(), KEYS, grid)


@pytest.mark.parametrize("name", PERIODIC_2D)
def test_stokes_vanishing_at_64(name):
    q = torus_integrals(name, 64)
    vol = q["volume"]
    assert vol > 0
    div = q["div_field"]
    lap = q["lap_cos2"]
    assert abs(div) <= 1e-8 * max(vol, 1.0)
    assert abs(lap) <= 1e-8 * max(vol, 1.0)


@pytest.mark.parametrize("name", PERIODIC_2D)
def test_torus_checks_pass_at_64(name):
    """Every row passes, and its values are the integrals of one pass."""
    rows = {row.pop("check"): row
            for row in torus_checks(get_entry(name).spec(), 64)}
    q = torus_integrals(name, 64)
    assert rows == {
        "volume": {"grid": 64, "value": q["volume"]},
        "stokes_divergence": {"grid": 64, "value": q["div_field"],
                              "pass": True},
        "stokes_lap_cos2": {"grid": 64, "value": q["lap_cos2"], "pass": True},
        "eq2.3": {"grid": 64, "lhs": q["hodge_pair"],
                  "rhs": q["delta_fw_norm2"], "pass": True},
    }


@pytest.mark.parametrize("name", ["trig_flat_2d", "trig_sf_pos", "trig_sf_neg"])
def test_global_form_identity_at_64(name):
    """integral of <Hodge-Laplacian of F*w, F*w> equals integral of
    |delta F*w|^2 on a closed domain."""
    lhs = torus_integrals(name, 64)["hodge_pair"]
    rhs = torus_integrals(name, 64)["delta_fw_norm2"]
    assert rhs > 1e-6  # non-trivial content
    assert abs(lhs - rhs) <= 1e-6 * rhs


def test_spectral_convergence_ratio():
    """Error at N=16 vs N=32 drops by more than 1e3 (above the noise floor)."""
    exact = torus_integrals("trig_flat_2d", 96)["delta_fw_norm2"]
    errs = {N: abs(torus_integrals("trig_flat_2d", N)["delta_fw_norm2"] - exact)
            for N in (16, 32)}
    assert errs[16] > 1e-12  # above floor, ratio is meaningful
    assert errs[16] / max(errs[32], 1e-300) > 1e3


def test_lagrangian_t4_integrals_vanish():
    q = torus_integrals("lagrangian_torus_4", 8)
    assert q["hodge_pair"] == 0.0
    assert q["delta_fw_norm2"] == 0.0
    assert abs(q["lap_cos2"]) < 1e-12


def test_nonperiodic_rejected():
    spec = get_entry("ds_graph").spec()
    with pytest.raises(UsageError):
        torus_quadrature(spec, "volume", 16)
    with pytest.raises(UsageError):
        torus_quadrature(get_entry("lagrangian_torus_2").spec(), "volume", 4)
    with pytest.raises(UsageError, match="available: volume"):
        torus_quadrature(get_entry("lagrangian_torus_2").spec(), "bogus", 16)
    # a sphere on the torus grid is no immersion at its two pole rows, so
    # there is no honest total
    pinched = parse_immersion(
        "n=1; ambient=flat; periodic; "
        "map=[sin(u1)*cos(u2), sin(u1)*sin(u2), cos(u1), 0]")
    with pytest.raises(QuadratureError,
                       match=r"32 of 256 grid nodes \(12\.5%\).*not an immersion"):
        torus_quadrature(pinched, ("volume", "lap_cos2"), 16)


def test_a_singular_node_rejects_the_torus_integral():
    """sqrt(sin(u2)^2) has no Taylor jet where sin(u2) = 0, the grid rows
    u2 = 0 and u2 = pi: those nodes are gated, so no total is returned,
    and the judged checks are the one failed row ``grid``."""
    spec = parse_immersion(
        "n=1; ambient=flat; periodic; "
        "map=[cos(u1), sin(u1), cos(u2), sqrt(sin(u2)^2)]")
    reason = r"8 of 64 grid nodes \(12\.5%\).*map or a derivative not finite"
    with pytest.raises(QuadratureError, match=reason):
        torus_quadrature(spec, "volume", 8)
    row, = torus_checks(spec, 8)
    assert (row["check"], row["grid"], row["pass"]) == ("grid", 8, False)
    assert re.match(reason, row["error"])
