"""Report schema stability, determinism and the command line interface."""

import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
from collections.abc import Sequence, Sized
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

import kangle
from kangle import identities, quadrature, runner
from kangle.ambient import space_form
from kangle.catalog import CatalogEntry, get_entry
from kangle.cli import _load_entry, build_parser, main
from kangle.dsl import parse_immersion
from kangle.errors import QuadratureError, UsageError
from kangle.geometry import compute_snapshot
from kangle.identities import calibrate_conventions, run_identity_suite
from kangle.jets import MAX_DIM
from kangle.quadrature import torus_checks
from kangle.runner import RunError, report_to_json, run_suite, sample_points
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
        "schema": {"const": 2},
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
    # the published form: jsonschema's "array" is a list, and each entry's
    # residuals are a view until report_to_json writes them
    validate(json.loads(report_to_json(report, records="all")), REPORT_SCHEMA)
    assert report["pass"]
    # records are sorted by (id, point index) within each entry
    for e in report["entries"]:
        keys = [(r["id"], r["point_index"]) for r in e["residuals"]]
        assert keys == sorted(keys)
    # full double precision round-trips through JSON text, which holds no
    # bare NaN or Infinity: a residual that is not applicable is null
    text = report_to_json(report, records="all")
    again = json.loads(text, parse_constant=_refuse_constant)
    recs = list(report["entries"][0]["residuals"])
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
        "residual_keys": sorted(next(iter(
            report["entries"][0]["residuals"])).keys()),
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
    t1 = report_to_json(small_run(), records="all")
    t2 = report_to_json(small_run(), records="all")
    assert t1 == t2


def _listed(report):
    """The report with each entry's residual rows as a list."""
    return dict(report, entries=[dict(e, residuals=list(e["residuals"]))
                                 for e in report["entries"]])


def test_record_modes_write_a_filtered_copy():
    """"all" round-trips the report exactly, "failing" keeps the applicable
    failing rows and "none" no row; the report itself keeps every row."""
    report = small_run()
    before = copy.deepcopy(_listed(report))
    assert report["records"] == "all"
    assert json.loads(report_to_json(report, records="all")) == before
    for mode in ("failing", "none"):
        back = json.loads(report_to_json(report, records=mode))
        assert back["records"] == mode and back["schema"] == 2
        assert all(e["residuals"] == [] for e in back["entries"])
        assert back["summary"] == report["summary"]
    assert _listed(report) == before
    with pytest.raises(RunError, match="records must be one of"):
        report_to_json(report, records="bogus")


def _count_built_rows(monkeypatch):
    """A one-item list holding the number of rows record_rows has built."""
    built = [0]
    real = identities.record_rows

    def counting(*args):
        rows = real(*args)
        built[0] += len(rows)
        return rows

    monkeypatch.setattr(identities, "record_rows", counting)
    return built


def test_rows_are_built_only_where_written(monkeypatch):
    """A run builds no row: the default report builds the failing ones,
    "all" each row once, "none" and the plain CLI none at all."""
    built = _count_built_rows(monkeypatch)
    report = run_suite(points=8, seed=1234, threads=1)
    assert report["pass"] and report["summary"]["records_failed"] == 0
    back = json.loads(report_to_json(report))
    assert built == [0] and all(e["residuals"] == [] for e in back["entries"])

    failing = run_suite(points=8, seed=1234, tol_abs=0.0, tol_rel=0.0,
                        threads=1)
    n_failed = failing["summary"]["records_failed"]
    assert n_failed > 0 and built == [0]
    back = json.loads(report_to_json(failing))
    assert built == [n_failed]
    assert sum(len(e["residuals"]) for e in back["entries"]) == n_failed
    report_to_json(failing, records="none")
    assert built == [n_failed]
    back = json.loads(report_to_json(failing, records="all"))
    written = sum(len(e["residuals"]) for e in back["entries"])
    assert built == [n_failed + written]
    assert written == sum(len(list(e["residuals"]))
                          for e in failing["entries"])
    for e, again in zip(failing["entries"], back["entries"]):
        assert [r for r in again["residuals"]
                if r["applicable"] and not r["pass"]] == \
            e["residuals"].failing()

    built[0] = 0
    assert main(["verify", "--points", "8", "--tol-abs", "0",
                 "--tol-rel", "0"]) == 1
    assert built == [0]


def test_residual_rows_are_an_iterable_of_fresh_rows():
    """An entry's residuals are an iterable, not a list: each iteration
    builds every row afresh, ordered by (id, point_index), one per block
    and kept point, equal to the JSON readback of "all"; ``failing()``
    gives the applicable failing ones in that order."""
    report = small_run()
    back = json.loads(report_to_json(report, records="all"))
    for e, again in zip(report["entries"], back["entries"]):
        rows = e["residuals"]
        assert not isinstance(rows, (Sequence, Sized))
        listed = list(rows)
        blocks = {r["id"] for r in listed}
        assert len(listed) == len(blocks) * e["points_sampled"]
        keys = [(r["id"], r["point_index"]) for r in listed]
        assert keys == sorted(keys)
        assert listed == again["residuals"]
        again_listed = list(rows)
        assert again_listed == listed
        assert all(a is not b for a, b in zip(again_listed, listed))
        assert rows.failing() == [r for r in listed
                                  if r["applicable"] and not r["pass"]]


def test_thread_count_reads_alike_from_argument_and_environment(monkeypatch):
    """threads= and KANGLE_THREADS take a positive count, or 0 for the CPU
    count; any other value raises RunError before an entry is computed."""
    pools = []

    class Pool(runner.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(runner, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 3)
    two = dict(entries=["linear_n1_a0p5", "slant_cylinder"],
               suites=["prop3.1"], points=2)
    with monkeypatch.context() as m:
        m.setattr(runner, "_run_entry",
                  lambda *a: pytest.fail("ran an invalid thread count"))
        for threads in (-1, -4):
            with pytest.raises(RunError, match="must be a positive count"):
                run_suite(**two, threads=threads)
        for env in ("-3", "x", "1.5"):
            m.setenv("KANGLE_THREADS", env)
            with pytest.raises(RunError, match="KANGLE_THREADS"):
                run_suite(**two)
    assert pools == []
    runs = [run_suite(**two, threads=0)]
    for env in ("0", "2"):
        monkeypatch.setenv("KANGLE_THREADS", env)
        runs.append(run_suite(**two))
    runs.append(run_suite(**two, threads=1))
    assert pools == [3, 3, 2]
    texts = [report_to_json(r, records="all") for r in runs]
    assert all(t == texts[0] for t in texts)


def _gate_margin(rec):
    """min(abs/tol_abs, rel/tol_rel): above 1 iff the gate fails the record."""
    if None in (rec["tol_abs"], rec["tol_rel"]):    # an infinite tolerance
        return 0.0
    return min(rec["abs_residual"] / max(rec["tol_abs"], 1e-300),
               rec["rel_residual"] / max(rec["tol_rel"], 1e-300))


def _per_identity_oracle(report, entries, points, seed):
    """summary.per_identity by a walk over the "all" rows of the JSON
    report, entry by entry in run order, record by record."""
    rows = {e["name"]: e["residuals"] for e in json.loads(
        report_to_json(report, records="all"))["entries"]}
    per_identity, worst = {}, {}
    for entry in entries:
        for rec in rows[entry.name]:
            info = per_identity.setdefault(
                rec["id"], {"applicable": 0, "failed": 0, "max_rel": 0.0,
                            "max_abs": 0.0, "worst": None})
            if rec["applicable"]:
                info["applicable"] += 1
                rel = rec["rel_residual"]
                if rel is not None:
                    info["max_rel"] = max(info["max_rel"], rel)
                    rank = _gate_margin(rec), rel
                    if rec["id"] not in worst or rank > worst[rec["id"]][0]:
                        worst[rec["id"]] = rank, entry, rec
                if rec["abs_residual"] is not None:
                    info["max_abs"] = max(info["max_abs"], rec["abs_residual"])
                info["failed"] += not rec["pass"]
    for ident, (_, entry, rec) in worst.items():
        point = sample_points(entry.box, points, seed)[rec["point_index"]]
        per_identity[ident]["worst"] = {
            "entry": entry.name, "point_index": rec["point_index"],
            "point": point.tolist(), "abs_residual": rec["abs_residual"],
            "rel_residual": rec["rel_residual"]}
    return dict(sorted(per_identity.items()))


TIGHT = {"tol_abs": 1e-16, "tol_rel": 1e-16}
INFINITE = {"tol_abs": math.inf, "tol_rel": math.inf}


@pytest.mark.parametrize(
    "seed, tols", [(1234, {}), (1235, {}), (1240, {}), (1234, TIGHT),
                   (1234, INFINITE)],
    ids=["1234", "1235", "1240", "1234-tight", "1234-infinite"])
def test_per_identity_summary_equals_the_record_walk(seed, tols):
    """The runner's array reductions over the judged columns give the
    summary a record-by-record walk of the rows gives, worst included:
    at the default tolerances, at tight ones, where records fail and
    gate margins exceed 1, and at infinite ones, where the tolerances
    are null and every margin is 0."""
    entries = runner.builtin_catalog()
    report = run_suite(points=48, seed=seed, threads=1, **tols)
    summary = report["summary"]
    if tols is TIGHT:
        assert summary["records_failed"] > 0
    if tols is INFINITE:
        assert report["tolerances"] == {"abs": None, "rel": None}
    oracle = _per_identity_oracle(report, entries, 48, seed)
    assert summary["per_identity"] == oracle
    assert summary["records_applicable"] == sum(
        i["applicable"] for i in oracle.values())
    assert summary["records_failed"] == sum(
        i["failed"] for i in oracle.values())
    for info in summary["per_identity"].values():
        worst = info["worst"]
        if worst is not None:
            pts = sample_points(get_entry(worst["entry"]).box, 48, seed)
            assert worst["point"] == pts[worst["point_index"]].tolist()


def test_gate_margin_agrees_with_the_judge():
    """The summary ranks records by min(abs/tol_abs, rel/tol_rel) and the
    judge passes them by abs <= tol_abs or rel <= tol_rel: at tolerances
    where identities mix passing and failing records, an applicable record
    passes exactly when its margin is at most 1, and each identity's worst
    record fails exactly when the identity has a failed record."""
    report = run_suite(points=24, seed=1234, tol_abs=1e-16, tol_rel=1e-14,
                       threads=1)
    rows = {(e["name"], r["id"], r["point_index"]): r
            for e in json.loads(report_to_json(report, records="all"))[
                "entries"] for r in e["residuals"]}
    verdicts = {}
    for (_, ident, _), r in rows.items():
        if r["applicable"]:
            assert r["pass"] == (_gate_margin(r) <= 1), r
            verdicts.setdefault(ident, set()).add(r["pass"])
    assert sum(v == {True, False} for v in verdicts.values()) >= 10
    for ident, info in report["summary"]["per_identity"].items():
        worst = info["worst"]
        row = rows[worst["entry"], ident, worst["point_index"]]
        assert (not row["pass"]) == (info["failed"] > 0), ident


def test_worst_record_is_closest_to_failing():
    # on ds_graph, lemma 3.1 (i.b) has round-off records (abs ~1e-16)
    # with rel above 0.5: the record closest to failing is another one
    ds = run_suite(entries=["ds_graph"], suites=["lemma3.1"], points=16)
    info = ds["summary"]["per_identity"]["lemma3.1.i_b"]
    assert info["worst"]["rel_residual"] < info["max_rel"]
    for report in (small_run(), ds):
        rows = {(e["name"], r["id"], r["point_index"]): r
                for e in report["entries"] for r in e["residuals"]}
        for ident, info in report["summary"]["per_identity"].items():
            worst = info["worst"]
            if info["applicable"] == 0:
                assert worst is None
                continue
            ranked = [(_gate_margin(r), r["rel_residual"])
                      for r in rows.values()
                      if r["id"] == ident and r["applicable"]
                      and r["rel_residual"] is not None]
            assert info["max_rel"] == max(rel for _, rel in ranked), ident
            row = rows[worst["entry"], ident, worst["point_index"]]
            assert row["applicable"]
            assert (_gate_margin(row), row["rel_residual"]) == max(ranked), \
                ident
            assert row["rel_residual"] == worst["rel_residual"]
            assert row["abs_residual"] == worst["abs_residual"]
            pts = sample_points(get_entry(worst["entry"]).box, 16, 1234)
            assert worst["point"] == pts[worst["point_index"]].tolist()


def test_worst_record_tie_goes_to_the_first_entry():
    """trig_flat_2d and calibration_surface are one map on one box, so
    their records at one seed are equal: each identity's worst record is
    the first listed entry's, and the rest of the summary does not depend
    on the order."""
    pair = ("trig_flat_2d", "calibration_surface")
    summaries = {}
    for first, second in (pair, pair[::-1]):
        summary = run_suite(entries=[first, second], points=8,
                            threads=1)["summary"]
        worst = [info["worst"] for info in summary["per_identity"].values()
                 if info["worst"] is not None]
        assert worst
        assert {w.pop("entry") for w in worst} == {first}
        summaries[first] = summary
    assert summaries[pair[0]] == summaries[pair[1]]


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

    # immersions with a character outside the grammar, an overflowing
    # literal or an overflowing constant power
    files = []
    for k, text in enumerate([*(t for t, _, _ in BAD_TOKENS.values()),
                              "n=1; ambient=flat; map=[u1, u2, 2^99999, 0]"]):
        files.append(tmp_path / f"bad{k}.imm")
        files[-1].write_text(text, encoding="utf-8")

    # malformed numbers, flags and immersions and unwritable outputs: exit 2 with a one-line diagnostic; an exception
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
        (["verify", "--entry", "linear_n1_a0p5", "--points", "2"], "-3"),
        (quick + ["--ambient", "space_form(abc)"], "0"),
        (quick + ["--ambient", "space_form(inf)"], "0"),
        (quick + ["--ambient", "space_form(nan)"], "0"),
        (quick + ["--ambient", "space_form(0)"], "0"),
        (quick + ["--ambient", "space_form(1, 2)"], "0"),
        (quick + ["--seed", "-1"], "0"),
        (quick + ["--tol-abs", "nan"], "0"),
        (quick + ["--tol-rel", "-1"], "0"),
        (quick + ["--json", str(tmp_path)], "0"),
        *((["eval", str(f), "--point", "1,0"], "0") for f in files),
        *((["verify", str(f), "--points", "4"], "0") for f in files),
    ):
        monkeypatch.setenv("KANGLE_THREADS", env)
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)


MALFORMED = {
    "n-out-of-range": "n=5; ambient=flat; map=[u1, u2, 0, 0]",
    "arity": "n=1; ambient=flat; map=[u1, u2, 0]",
    "unknown-function": "n=1; ambient=flat; map=[u1, tan(u2), 0, 0]",
    "variable-out-of-range": "n=1; ambient=flat; map=[u1, u2, u3, 0]",
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED)
def test_every_command_gives_one_positioned_diagnostic(text, tmp_path,
                                                        capsys):
    """A malformed text fails in the parser, the same way on each command:
    exit 2 and one ``error:`` line that gives its line and column."""
    path = tmp_path / "malformed.imm"
    path.write_text(text)
    for args in (["eval", str(path), "--point", "0.1,0.2"],
                 ["verify", str(path), "--points", "4"],
                 ["integrate", str(path), "--grid", "8"]):
        assert main(args) == 2, args
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), (args, err)
        assert err.count("\n") == 1 and "at line 1, column" in err, (args,
                                                                     err)


def test_cli_rejected_grid_node_is_a_failed_grid_row(tmp_path, capsys):
    """A sphere on the torus grid is no immersion at its pole rows, so the
    torus integrals have no honest total: the quadrature is one failed
    ``grid`` row naming the reason, and the command exits 1 with its
    other output intact."""
    pinched = tmp_path / "pinched.imm"
    pinched.write_text("n=1; ambient=flat; periodic; "
                       "map=[sin(u1)*cos(u2), sin(u1)*sin(u2), cos(u1), 0]")
    reason = r"32 of 256 grid nodes (12.5%) were rejected"
    assert main(["integrate", str(pinched), "--grid", "16"]) == 1
    out = json.loads(capsys.readouterr().out)
    row, = out["quadrature"]
    assert row["check"] == "grid" and row["grid"] == 16
    assert not row["pass"] and not out["pass"]
    assert row["error"].startswith(reason)

    assert main(["verify", str(pinched), "--suite", "prop3.1", "--points",
                 "4", "--quad-grid", "16"]) == 1
    out = capsys.readouterr().out
    assert "  prop3.1.norm_fw " in out
    line, = (l for l in out.splitlines() if l.startswith("  quadrature "))
    assert " grid " in line and f"FAIL: {reason}" in line
    assert out.endswith("FAIL\n")


def test_run_suite_keeps_every_entry_past_a_rejected_grid_node():
    """One entry whose grid has a gated node fails its quadrature with a
    ``grid`` row; the other entries and every entry's records stay."""
    singular = CatalogEntry(
        name="singular_torus",
        text=("n=1; ambient=flat; periodic; "
              "map=[cos(u1), sin(u1), cos(u2), sqrt(sin(u2)^2)]"),
        box=((0.0, 2 * np.pi),) * 2, equal_angles=False,
        classification="mixed")
    report = run_suite(entries=[singular, "trig_sf_pos"], points=4,
                       quad_grid=64)
    assert not report["pass"]
    by_name = {e["name"]: e for e in report["entries"]}
    assert set(by_name) == {"singular_torus", "trig_sf_pos"}
    assert all(list(e["residuals"]) for e in by_name.values())
    row, = by_name["singular_torus"]["quadrature"]
    assert row["check"] == "grid" and not row["pass"]
    assert "map or a derivative not finite" in row["error"]
    assert [q["check"] for q in by_name["trig_sf_pos"]["quadrature"]] == [
        "volume", "stokes_divergence", "stokes_lap_cos2", "eq2.3"]
    assert all(q.get("pass", True)
               for q in by_name["trig_sf_pos"]["quadrature"])


GATED_CHUNK = CatalogEntry(
    name="gated_chunk",
    text=("n=1; ambient=flat; periodic; map=[cos(u1), sin(u1), cos(u2), "
          "sin(u2) + 0.1*log(cos(u1) + 0.1)]"),
    box=((0.0, 2 * np.pi),) * 2, equal_angles=False,
    classification="mixed")


def test_a_wholly_gated_quadrature_chunk_is_counted_rejected(monkeypatch):
    """log(cos(u1) + 0.1) has no jet for u1 in about (1.67, 4.61): on a
    16 x 16 grid in chunks of 64 nodes the third chunk has no node the
    gates keep; log(0.1 - cos(u1)) has none where cos(u1) >= 0.1, which
    covers the first chunk.  Each node of such a chunk is counted with
    its own reason, so the quadrature is one failed ``grid`` row naming
    the share of the whole grid, the same row as with the grid in one
    chunk, and a run keeps every entry's records."""
    reason = ("112 of 256 grid nodes (43.8%) were rejected, the first as "
              "'map or a derivative not finite';")
    first_chunk = parse_immersion(
        "n=1; ambient=flat; periodic; map=[cos(u1), sin(u1), cos(u2), "
        "sin(u2) + 0.1*log(0.1 - cos(u1))]")
    for spec in (GATED_CHUNK.spec(), first_chunk):
        rows = {}
        for chunk in (4096, 64):
            monkeypatch.setattr(quadrature, "CHUNK", chunk)
            rows[chunk] = torus_checks(spec, 16)
        assert rows[64] == rows[4096]
        row, = rows[64]
        assert row["check"] == "grid" and row["grid"] == 16
        assert not row["pass"] and row["error"].startswith(reason)
    report = run_suite(entries=[GATED_CHUNK, "trig_sf_pos"], points=4,
                       quad_grid=16)
    by_name = {e["name"]: e for e in report["entries"]}
    assert all(list(e["residuals"]) for e in by_name.values())
    assert by_name["gated_chunk"]["quadrature"] == torus_checks(
        GATED_CHUNK.spec(), 16)
    assert [q["check"] for q in by_name["trig_sf_pos"]["quadrature"]] == [
        "volume", "stokes_divergence", "stokes_lap_cos2", "eq2.3"]


def test_report_states_the_order_f_was_formed_at():
    """No snapshot stage reads F beyond order 3, so a run asked for order
    4 forms F at order 3 and says so."""
    spec = get_entry("trig_flat_2d").spec()
    assert compute_snapshot(spec, np.zeros((1, 2)), order=4).order == 3
    assert run_suite(entries=["trig_flat_2d"], points=4, order=4,
                     threads=1)["order"] == 3


def test_cli_json_path_checked_before_the_run(tmp_path, capsys, monkeypatch):
    """An unwritable --json path exits 2 before any entry is computed."""
    def never(*args, **kwargs):
        pytest.fail("computed before the --json path was checked")

    for name in ("run_suite", "compute_snapshot", "torus_checks"):
        monkeypatch.setattr(f"kangle.cli.{name}", never)
    for args in (["eval", "--entry", "ds_graph", "--point", "0,0,0,0"],
                 ["verify", "--entry", "ds_graph", "--points", "4"],
                 ["verify"],
                 ["integrate", "--entry", "lagrangian_torus_4"]):
        assert main(args + ["--json", str(tmp_path)]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)


def test_cli_file_and_entry_together_exit_2(tmp_path, capsys):
    """FILE and --entry name two immersions: eval, verify and integrate
    refuse the pair with one error line and leave no --json file."""
    imm, out = tmp_path / "p.imm", tmp_path / "out.json"
    imm.write_text(get_entry("lagrangian_torus_4").text, encoding="utf-8")
    for args in (["eval", str(imm), "--entry", "ds_graph", "--point",
                  "0,0,0,0"],
                 ["verify", str(imm), "--entry", "ds_graph", "--points", "4"],
                 ["integrate", str(imm), "--entry", "ds_graph"]):
        assert main(args + ["--json", str(out)]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)
        assert not out.exists(), args


def test_cli_quad_grid_checked_before_the_run(capsys, monkeypatch):
    """A quad grid that is neither 0 nor at least 8 exits 2 with one error
    line naming it, before calibration or any entry is computed, whether
    the entry is periodic (a 4-torus) or not."""
    def never(*args, **kwargs):
        pytest.fail("computed before the quad grid was checked")

    for name in ("calibrate_conventions", "compute_snapshot",
                 "torus_checks"):
        monkeypatch.setattr(f"kangle.runner.{name}", never)
    for args in (["--entry", "ds_graph", "--quad-grid", "-5"],
                 ["--entry", "ds_graph", "--quad-grid", "4"],
                 ["--entry", "lagrangian_torus_4", "--quad-grid", "4"],
                 ["--quad-grid", "5"]):
        assert main(["verify", *args]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: quad grid") and err.count("\n") == 1, (
            args, err)


@pytest.mark.parametrize("term", ["exp(1000*u1)", "u1/0", "log(u1-1)",
                                  "sqrt(u1-1)", "1/(u1-1)"])
def test_cli_overflowing_map_prints_only_its_error_line(term, tmp_path):
    """F or a derivative is not finite at the point: numpy prints no
    warning, and the one line on stderr is the finite gate's diagnostic."""
    path = tmp_path / "overflow.imm"
    path.write_text(f"n=1; ambient=flat; map=[u1, u2, {term}, 0]")
    proc = run_cli("eval", str(path), "--point", "1,0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "map or a derivative not finite" in proc.stderr


def test_cli_overflowing_chart_margin_is_outside_the_chart():
    """rho |F|^2 overflows at a finite F: numpy prints no warning, and the
    one line on stderr is the chart gate's diagnostic."""
    proc = run_cli("eval", "--entry", "trig_sf_pos", "--point", "0.3,0.2",
                   "--ambient", "space_form(1e308)")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "outside chart domain" in proc.stderr


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


def test_cli_json_holds_the_failing_records_by_default(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--entry", "slant_cylinder", "--suite", "prop3.1",
                 "--points", "8", "--tol-abs", "0", "--tol-rel", "0",
                 "--json", str(out)]) == 1
    assert " at slant_cylinder[" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["records"] == "failing"
    rows = [r for e in report["entries"] for r in e["residuals"]]
    assert len(rows) == report["summary"]["records_failed"] > 0
    assert all(r["applicable"] and not r["pass"] for r in rows)

    with pytest.raises(SystemExit) as exc:
        main(["verify", "--entry", "slant_cylinder", "--records", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


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


SURFACE = ("n=1; ambient=flat; periodic; map=[cos(u1), sin(u1), "
           "cos(u2) + 0.2*sin(u1), sin(u2)]")


@pytest.mark.parametrize("command, args", [
    ("verify", ["--suite", "prop3.1", "--points", "8", "--records", "all"]),
    ("eval", ["--point", "0.5,1"]),
    ("integrate", ["--grid", "8"]),
])
def test_cli_file_runs_in_the_ambient_override(command, args, tmp_path):
    """FILE --ambient runs the file's map in that ambient: each command
    gives the direct computation on the spec with the ambient replaced,
    and verify's entry states no expectations."""
    path, out = tmp_path / "surface.imm", tmp_path / "out.json"
    path.write_text(SURFACE)
    argv = [command, str(path), "--ambient", "space_form(1.0)", *args]
    assert main(argv + ["--json", str(out)]) in (0, 1)
    got = json.loads(out.read_text())
    spec = dataclasses.replace(parse_immersion(SURFACE, name=str(path)),
                               ambient=space_form(1.0, 2))
    if command == "verify":
        entry = _load_entry(build_parser().parse_args(argv))
        assert entry.spec() == spec
        assert (entry.minimal, entry.equal_angles, entry.constant_angle,
                entry.classification, entry.angle_fn) == (
                    False, False, False, "mixed", None)
        snap = compute_snapshot(
            spec, sample_points(((0.0, 2 * np.pi),) * 2, 8, 1234))
        records = run_identity_suite(snap, ["prop3.1"],
                                     calibrate_conventions())
        result, = got["entries"]
        assert result["residuals"] == [r.as_dict() for r in records]
        assert result["expected_ok"] and result["equal_angle_gate"] is None
    elif command == "eval":
        snap = compute_snapshot(spec, np.array([[0.5, 1.0]]))
        assert got["F"] == snap.F0[0].tolist()
        assert got["cos_angles"] == snap.cos_angles[0].tolist()
        assert got["metric"] == snap.g0[0].tolist()
    else:
        assert got["quadrature"] == torus_checks(spec, 8)


def test_cli_verify_imm_file(tmp_path):
    f = tmp_path / "surface.imm"
    f.write_text("n=1; ambient=flat; periodic; map=[cos(u1), sin(u1), "
                 "cos(u2) + 0.2*sin(u1), sin(u2)]")
    proc = run_cli("verify", str(f), "--suite", "lemma3.1", "--points", "10")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_integrate():
    proc = run_cli("integrate", "--entry", "lagrangian_torus_4", "--grid",
                   "8")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["pass"]
    eq23, = (row for row in out["quadrature"] if row["check"] == "eq2.3")
    assert eq23["lhs"] == eq23["rhs"] == 0.0
    proc = run_cli("integrate", "--entry", "ds_graph", "--grid", "8")
    assert proc.returncode == 2
    proc = run_cli("integrate", "--entry", "lagrangian_torus_2", "--check",
                   "stokes")
    assert proc.returncode == 2
    assert "unrecognized arguments: --check" in proc.stderr


def test_cli_verify_prints_the_quadrature_rows(capsys):
    """Each quadrature row is a line naming its entry, check and grid, with
    its values and verdict, so a failing check is named: on trig_flat_4d
    the 8^4 grid of --quad-grid 32 has not converged."""
    assert main(["verify", "--entry", "trig_flat_4d", "--suite", "prop3.1",
                 "--points", "4", "--quad-grid", "32"]) == 1
    lines = [line.split() for line in capsys.readouterr().out.splitlines()
             if line.startswith("  quadrature ")]
    assert [line[:5] for line in lines] == [
        ["quadrature", "trig_flat_4d", check, "grid", "8"]
        for check in ("volume", "stokes_divergence", "stokes_lap_cos2",
                      "eq2.3")]
    assert [line[5::2] for line in lines] == [
        ["value"], ["value", "pass"], ["value", "FAIL"],
        ["lhs", "rhs", "FAIL"]]
