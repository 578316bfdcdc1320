"""Report schema stability, determinism and the command line interface."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

import kangle
from kangle.ambient import space_form
from kangle.catalog import get_entry
from kangle.cli import main
from kangle.geometry import compute_snapshot
from kangle.runner import report_to_json, run_suite, sample_points

GOLDEN = Path(__file__).parent / "data" / "golden_report.json"

# a child process finds the package where this one does, installed or not
SRC = str(Path(kangle.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}

RESIDUAL_SCHEMA = {
    "type": "object",
    "required": ["id", "point_index", "lhs", "rhs", "abs_residual",
                 "rel_residual", "applicable", "reason", "tol_abs",
                 "tol_rel", "pass"],
    "properties": {
        "id": {"type": "string"},
        "point_index": {"type": "integer"},
        "applicable": {"type": "boolean"},
        "pass": {"type": "boolean"},
        "reason": {"type": "string"},
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema", "version", "conventions", "seed", "order",
                 "points_per_entry", "suites", "tolerances", "entries",
                 "summary", "pass"],
    "properties": {
        "schema": {"const": 1},
        "conventions": {
            "type": "object",
            "required": ["s_delta", "delta_sign", "two_form_normalization"],
            "properties": {
                "s_delta": {"enum": [1, -1]},
                "delta_sign": {"enum": [1, -1]},
                "two_form_normalization": {"type": "string"},
            },
        },
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "points_sampled", "points_rejected",
                             "classification_histogram", "angle_stats",
                             "expected_ok", "expected_failures",
                             "hypothesis_fields", "quadrature", "residuals"],
                "properties": {
                    "residuals": {"type": "array", "items": RESIDUAL_SCHEMA},
                },
            },
        },
        "pass": {"type": "boolean"},
    },
}


def small_run(seed=1234):
    return run_suite(entries=["slant_cylinder", "lagrangian_torus_2"],
                     suites=["prop3.1", "delta_kappa", "prop3.6",
                             "hypotheses"],
                     points=16, seed=seed, quad_grid=16)


def test_report_schema_valid():
    report = small_run()
    validate(report, REPORT_SCHEMA)
    assert report["pass"]
    # records are sorted by (id, point index) within each entry
    for e in report["entries"]:
        keys = [(r["id"], r["point_index"]) for r in e["residuals"]]
        assert keys == sorted(keys)
    # full double precision round-trips through JSON text, which holds no
    # bare NaN or Infinity: a residual that is not applicable is null
    text = report_to_json(report)
    again = json.loads(text, parse_constant=_refuse_constant)
    recs = report["entries"][0]["residuals"]
    back = again["entries"][0]["residuals"]
    app = next(k for k, r in enumerate(recs) if r["applicable"])
    assert back[app]["abs_residual"] == recs[app]["abs_residual"]
    assert back[app]["rel_residual"] == recs[app]["rel_residual"]
    off = next(k for k, r in enumerate(recs) if not r["applicable"])
    assert recs[off]["abs_residual"] is None
    assert back[off]["abs_residual"] is None
    assert back[off]["rel_residual"] is None


def _refuse_constant(name):
    raise ValueError(f"report JSON holds the non-standard constant {name}")


def test_golden_report_structure():
    """Schema-stable golden comparison on a fixed seed (structure, not
    floating point payloads)."""
    report = small_run(seed=777)

    got = {
        "keys": sorted(report.keys()),
        "entry_names": [e["name"] for e in report["entries"]],
        "identity_ids": sorted(report["summary"]["per_identity"].keys()),
        "conventions": report["conventions"],
        "entry_keys": sorted(report["entries"][0].keys()),
        "residual_keys": sorted(report["entries"][0]["residuals"][0].keys()),
        "pass": report["pass"],
    }
    assert GOLDEN.exists(), f"golden file {GOLDEN} is missing"
    want = json.loads(GOLDEN.read_text())
    assert got == want


def test_seed_changes_points_not_verdict():
    r1 = run_suite(entries=["slant_cylinder"], suites=["prop3.1"],
                   points=16, seed=1)
    r2 = run_suite(entries=["slant_cylinder"], suites=["prop3.1"],
                   points=16, seed=2)
    assert r1["pass"] and r2["pass"]
    p1 = sample_points(((-2.5, 2.5),) * 2, 16, 1)
    p2 = sample_points(((-2.5, 2.5),) * 2, 16, 2)
    assert not np.allclose(p1, p2)


def test_run_is_deterministic():
    t1 = report_to_json(small_run())
    t2 = report_to_json(small_run())
    assert t1 == t2


# ------------------------------------------------------------------- CLI

def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "kangle.cli", *args],
                          capture_output=True, text=True, timeout=600,
                          env=CHILD_ENV)
    return proc


def test_cli_import_leaves_scipy_stats_unloaded():
    """scipy.sparse takes about 0.3 s to import and scipy.stats about 1 s,
    and only sampling needs scipy: neither importing the CLI nor
    `kangle eval` loads any scipy module."""
    code = ("import sys, kangle.cli\n"
            "def scipy_loaded():\n"
            "    return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
            "print(scipy_loaded())\n"
            "kangle.cli.main(['eval', '--entry', 'ds_graph',\n"
            "                 '--point', '0.1,0.2,0.3,0.4'])\n"
            "print(scipy_loaded())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert (lines[0], lines[-1]) == ("False", "False")
    assert "cos_angles" in proc.stdout


def test_cli_catalog():
    proc = run_cli("catalog")
    assert proc.returncode == 0
    assert "ds_graph" in proc.stdout


def test_cli_eval_and_errors(tmp_path, capsys, monkeypatch):
    proc = run_cli("eval", "--entry", "ds_graph", "--point", "0,0,0,0")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert abs(out["cos_angles"][0] - 2.0 / np.sqrt(5)) < 1e-9
    assert out["classification"] == "generic"

    bad = tmp_path / "bad.imm"
    bad.write_text("n=1; ambient=flat; map=[u1, u2, u1, u2")
    proc = run_cli("eval", str(bad), "--point", "0,0")
    assert proc.returncode == 2
    assert "line 1" in proc.stderr

    proc = run_cli("eval", "--entry", "ds_graph", "--point", "0,0,0,0",
                   "--bogus-flag")
    assert proc.returncode == 2

    # a sphere on the torus grid: its pole rows are no immersion, so the
    # torus integrals have no honest total
    pinched = tmp_path / "pinched.imm"
    pinched.write_text("n=1; ambient=flat; periodic; "
                       "map=[sin(u1)*cos(u2), sin(u1)*sin(u2), cos(u1), 0]")

    # malformed numbers and flags, unwritable outputs and dropped grid
    # nodes: exit 2 with a one-line diagnostic; an exception escaping main()
    # would fail the test with its traceback
    quick = ["verify", "--entry", "ds_graph", "--suite", "prop3.1",
             "--points", "4"]
    for args, env in (
        (["eval", "--entry", "ds_graph", "--point", "0,abc"], "0"),
        (["eval", "--entry", "ds_graph", "--point", "nan,0,0,0"], "0"),
        (["eval", "--entry", "ds_graph", "--point", "0,0,0,0",
          "--json", str(tmp_path)], "0"),
        (["verify", "--entry", "ds_graph", "--points", "0"], "0"),
        (["verify", "--entry", "ds_graph", "--points", "-3"], "0"),
        (["verify", "--entry", "ds_graph", "--points", "4"], "x"),
        (quick + ["--ambient", "space_form(abc)"], "0"),
        (quick + ["--ambient", "space_form(inf)"], "0"),
        (quick + ["--ambient", "space_form(nan)"], "0"),
        (quick + ["--seed", "-1"], "0"),
        (quick + ["--tol-abs", "nan"], "0"),
        (quick + ["--tol-rel", "-1"], "0"),
        (quick + ["--json", str(tmp_path)], "0"),
        (["integrate", str(pinched), "--grid", "16"], "0"),
        (["verify", str(pinched), "--suite", "prop3.1", "--points", "4",
          "--quad-grid", "16"], "0"),
    ):
        monkeypatch.setenv("KANGLE_THREADS", env)
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)


def test_cli_verify_entry(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--entry", "linear_n1_a0p5",
                   "--suite", "prop3.1,weitzenboeck", "--points", "12",
                   "--json", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    ids = set(report["summary"]["per_identity"])
    assert all(i.startswith(("prop3.1", "eq2.2")) for i in ids)
    assert report["pass"]


def test_cli_verify_entry_honours_ambient(tmp_path):
    """--ambient runs the entry's map in that ambient over the entry's box,
    with none of the expectations the catalog states for the flat map."""
    out = tmp_path / "report.json"
    assert main(["verify", "--entry", "slant_cylinder", "--ambient",
                 "space_form(1.0)", "--suite", "prop3.1", "--points", "8",
                 "--json", str(out)]) == 0
    result, = json.loads(out.read_text())["entries"]
    entry = get_entry("slant_cylinder")
    spec = dataclasses.replace(entry.spec(), ambient=space_form(1.0, 2))
    cos = compute_snapshot(spec, sample_points(entry.box, 8, 1234)).cos_angles
    assert result["angle_stats"]["min"] == float(np.min(cos))
    assert result["angle_stats"]["max"] == float(np.max(cos))
    assert np.ptp(cos) > 0.1          # flat, the angle is the constant 0.6
    assert result["expected_ok"] and not result["expected_failures"]


def test_cli_verify_imm_file(tmp_path):
    f = tmp_path / "surface.imm"
    f.write_text("n=1; ambient=flat; periodic; map=[cos(u1), sin(u1), "
                 "cos(u2) + 0.2*sin(u1), sin(u2)]")
    proc = run_cli("verify", str(f), "--suite", "lemma3.1", "--points", "10")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_integrate():
    proc = run_cli("integrate", "--entry", "lagrangian_torus_4", "--grid",
                   "8", "--check", "eq2.3")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["pass"]
    assert out["integral_hodge_pair"] == 0.0
    proc = run_cli("integrate", "--entry", "ds_graph", "--grid", "8")
    assert proc.returncode == 2
