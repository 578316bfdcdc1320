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
from kangle.errors import UsageError
from kangle.geometry import compute_snapshot
from kangle.jets import MAX_DIM
from kangle.runner import report_to_json, run_suite, sample_points
from test_dsl import BAD_TOKENS

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


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 8])
def test_sample_points_equal_scipy_halton(d):
    """The numpy sampler reproduces scipy's scrambled Halton points bit for
    bit, so reports, golden files and bench references keep their points."""
    from scipy.stats import qmc
    box = tuple((-0.5 * (i + 1), 0.25 + i) for i in range(d))
    lo, hi = np.array(box).T
    for seed in (0, 7, 66, 1234, 2**31 - 1):
        for count in (1, 20, 48, 512, 4096):
            unit = qmc.Halton(d=d, scramble=True, seed=seed).random(count)
            want = lo + unit * (hi - lo)
            assert np.array_equal(sample_points(box, count, seed), want), \
                (seed, count)


def test_sample_points_rejects_more_coordinates_than_primes():
    assert sample_points(((0.0, 1.0),) * MAX_DIM, 4, 0).shape == (4, MAX_DIM)
    with pytest.raises(UsageError, match=f"at most {MAX_DIM} coordinates"):
        sample_points(((0.0, 1.0),) * (MAX_DIM + 1), 4, 0)


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
    """scipy.stats takes about 1 s to import and kangle needs no scipy:
    neither importing the CLI nor `kangle eval` or `kangle verify` loads
    any scipy module."""
    code = ("import sys, kangle.cli\n"
            "def scipy_loaded(after):\n"
            "    print('scipy', after,\n"
            "          any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
            "scipy_loaded('import')\n"
            "kangle.cli.main(['eval', '--entry', 'ds_graph',\n"
            "                 '--point', '0.1,0.2,0.3,0.4'])\n"
            "scipy_loaded('eval')\n"
            "kangle.cli.main(['verify', '--entry', 'ds_graph',\n"
            "                 '--points', '4', '--suite', 'prop3.1'])\n"
            "scipy_loaded('verify')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert "cos_angles" in proc.stdout and "PASS" in proc.stdout
    checks = [line for line in proc.stdout.splitlines()
              if line.startswith("scipy ")]
    assert checks == ["scipy import False", "scipy eval False",
                      "scipy verify False"]


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

    # immersions with a character outside the grammar, an overflowing
    # literal or an overflowing constant power
    files = []
    for k, text in enumerate([*(t for t, _, _ in BAD_TOKENS.values()),
                              "n=1; ambient=flat; map=[u1, u2, 2^99999, 0]"]):
        files.append(tmp_path / f"bad{k}.imm")
        files[-1].write_text(text, encoding="utf-8")

    # malformed numbers, flags and immersions, unwritable outputs and
    # dropped grid nodes: exit 2 with a one-line diagnostic; an exception
    # escaping main() would fail the test with its traceback
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
        (quick + ["--ambient", "space_form(0)"], "0"),
        (quick + ["--ambient", "space_form(1, 2)"], "0"),
        (quick + ["--seed", "-1"], "0"),
        (quick + ["--tol-abs", "nan"], "0"),
        (quick + ["--tol-rel", "-1"], "0"),
        (quick + ["--json", str(tmp_path)], "0"),
        (["integrate", str(pinched), "--grid", "16"], "0"),
        (["verify", str(pinched), "--suite", "prop3.1", "--points", "4",
          "--quad-grid", "16"], "0"),
        *((["eval", str(f), "--point", "1,0"], "0") for f in files),
        *((["verify", str(f), "--points", "4"], "0") for f in files),
    ):
        monkeypatch.setenv("KANGLE_THREADS", env)
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)


def test_cli_json_path_checked_before_the_run(tmp_path, capsys, monkeypatch):
    """An unwritable --json path exits 2 before any entry is computed."""
    def never(*args, **kwargs):
        pytest.fail("computed before the --json path was checked")

    for name in ("run_suite", "compute_snapshot", "torus_quadrature"):
        monkeypatch.setattr(f"kangle.cli.{name}", never)
    for args in (["eval", "--entry", "ds_graph", "--point", "0,0,0,0"],
                 ["verify", "--entry", "ds_graph", "--points", "4"],
                 ["verify"],
                 ["integrate", "--entry", "lagrangian_torus_4"]):
        assert main(args + ["--json", str(tmp_path)]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)


@pytest.mark.parametrize("term", ["exp(1000*u1)", "u1/0"])
def test_cli_overflowing_map_prints_only_its_error_line(term, tmp_path):
    """F is not finite at the point: numpy prints no warning, and the one
    line on stderr is the finite-value gate's diagnostic."""
    path = tmp_path / "overflow.imm"
    path.write_text(f"n=1; ambient=flat; map=[u1, u2, {term}, 0]")
    proc = run_cli("eval", str(path), "--point", "1,0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "map value not finite" in proc.stderr


def test_cli_point_with_a_negative_first_coordinate(capsys):
    """`--point -0.5,...` is a value, not an option."""
    assert main(["eval", "--entry", "ds_graph", "--point", "-0.5,0,0,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["point"] == [-0.5, 0.0, 0.0, 0.0]


def test_cli_failed_command_leaves_the_json_path_as_it_was(tmp_path, capsys):
    """A command that fails after the --json check leaves no new file, and
    a file that was there keeps its contents."""
    fresh, kept = tmp_path / "e.json", tmp_path / "kept.json"
    kept.write_text("earlier contents\n")
    for path in (fresh, kept):
        assert main(["eval", "--entry", "ds_graph", "--point", "0,abc",
                     "--json", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not fresh.exists()
    assert kept.read_text() == "earlier contents\n"


def test_cli_json_path_receives_the_report(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("stale contents that the report replaces\n" * 4)
    assert main(["verify", "--entry", "ds_graph", "--suite", "prop3.1",
                 "--points", "4", "--json", str(out)]) == 0
    want = report_to_json(run_suite(entries=["ds_graph"], suites=["prop3.1"],
                                    points=4))
    assert out.read_text() == want + "\n"


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
