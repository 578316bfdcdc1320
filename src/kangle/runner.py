"""Suite orchestration: sampling, entry self-assertions, JSON reports.

An entry's residual records stay judged columns in its report's
``ResidualRows`` view: ``identities.per_identity`` reduces them once for
the summary, and ``report_to_json`` builds only the rows it writes."""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .catalog import builtin_catalog, get_entry
from .errors import KangleError, UsageError
from .geometry import CLASS_NAMES, compute_snapshot, reads
from .identities import (
    CONVENTIONS,
    ResidualRows,
    SUITE_READERS,
    SUITES,
    TOL_ABS_DEFAULT,
    TOL_REL_DEFAULT,
    calibrate_conventions,
    evaluate_hypothesis_fields,
    finite_or_none,
    judge_suites,
    per_identity,
)
from .quadrature import torus_checks

__all__ = ["run_suite", "sample_points", "report_to_json", "RECORD_MODES",
           "RunError"]

RECORD_MODES = ("failing", "all", "none")  # rows report_to_json writes


class RunError(KangleError):
    pass


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)  # Halton bases up to jets.MAX_DIM


def sample_points(box, count, seed):
    """Scrambled Halton points in a box, seedable.

    Owen's random digit permutations (A. B. Owen, "A randomized Halton
    algorithm in R", arXiv:1706.02808, Algorithm 1), drawn and summed in
    the order of scipy.stats.qmc.Halton(d, scramble=True, seed=seed), so
    the unit points equal its ``random(count)`` bit for bit.
    """
    d = len(box)
    if d > len(_PRIMES):
        raise UsageError(f"sample_points covers at most {len(_PRIMES)} "
                         f"coordinates, got {d}")
    rng = np.random.default_rng(seed)
    index = np.arange(count)
    unit = np.empty((count, d))
    for k, base in enumerate(_PRIMES[:d]):
        # one shuffled row of digits per power base**-j > 2**-54
        levels = math.ceil(54 / math.log2(base)) - 1
        perms = rng.permuted(np.tile(np.arange(base), (levels, 1)), axis=1)
        digits = index // base ** np.arange(levels)[:, None] % base
        # base**-j by repeated division, the terms summed in digit order
        scale = np.divide.accumulate(np.r_[1.0, np.full(levels, base)])[1:]
        terms = np.take_along_axis(perms, digits, axis=1) * scale[:, None]
        unit[:, k] = np.cumsum(terms, axis=0)[-1]
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return lo + unit * (hi - lo)


def _classification_histogram(snap):
    hist = {}
    for code, name in CLASS_NAMES.items():
        c = int(np.sum(snap.classification == code))
        if c:
            hist[name] = c
    return hist


@reads("sff0", "normH2", "equal_gate", "cos_angles", "classification")
def check_expected(entry, snap):
    """Self-assert the catalog's expected properties; returns failures."""
    failures = []
    sff_scale = 1.0 + np.max(np.abs(snap.sff0))
    if entry.minimal:
        worst = float(np.sqrt(np.max(snap.normH2)))
        if worst > 1e-8 * sff_scale:
            failures.append(f"expected minimal, max |H| = {worst:.3e}")
    if entry.equal_angles and not np.all(snap.equal_gate):
        spread = float(np.max(snap.cos_angles[:, 0] - snap.cos_angles[:, -1]))
        failures.append(f"expected equal angles, max spread = {spread:.3e}")
    if entry.constant_angle:
        spread = float(np.ptp(np.mean(snap.cos_angles, axis=1)))
        if spread > 1e-9:
            failures.append(f"expected constant angle, variation = {spread:.3e}")
    if entry.angle_fn is not None:
        want = entry.angle_fn(snap.points)
        dev = float(np.max(np.abs(snap.cos_angles - want[:, None])))
        if dev > 1e-9:
            failures.append(f"angle formula deviation = {dev:.3e}")
    if entry.classification in ("Lagrangian", "complex", "generic"):
        code = {name: c for c, name in CLASS_NAMES.items()}
        bad = int(np.sum(snap.classification != code[entry.classification]))
        if bad:
            failures.append(
                f"expected classification {entry.classification}, "
                f"{bad} points disagree")
    return failures


def _field_stats(fields):
    out = {}
    for name, vals in fields.items():
        v = np.asarray(vals)
        good = v[np.isfinite(v)]
        if good.size == 0:
            out[name] = {"min": None, "max": None}
        else:
            out[name] = {"min": float(np.min(good)), "max": float(np.max(good))}
    return out


@reads("classification", "cos_angles")
def _run_entry(entry, suites, points, seed, order, tol_abs, tol_rel,
               quad_grid):
    """One entry's report, whose ``residuals`` view keeps the judged
    columns and the kept points, and the order its snapshot formed F at.
    An entry whose every sampled point is rejected raises RunError."""
    spec = entry.spec()
    pts = sample_points(entry.box, points, seed)
    keys = sum((SUITE_READERS[name].reads for name in suites),
               _run_entry.reads + check_expected.reads)
    snap = compute_snapshot(spec, pts, order=order, reads=keys)
    if not snap.size:
        raise RunError(f"entry {entry.name}: all {points} sampled points "
                       f"were rejected, the first as {min(snap.rejected)[1]!r}")
    failures = check_expected(entry, snap)
    judged = judge_suites(snap, suites, tol_abs=tol_abs, tol_rel=tol_rel)
    fields = {}
    if "hypotheses" in suites:
        fields = _field_stats(evaluate_hypothesis_fields(snap))
    quad = []
    if quad_grid and spec.periodic:
        n_axis = quad_grid if snap.domain_dim == 2 else max(8, quad_grid // 4)
        quad = torus_checks(spec, n_axis)
    cos = snap.cos_angles
    return {
        "name": entry.name,
        "points_sampled": int(snap.size),
        "points_rejected": len(snap.rejected),
        "classification_histogram": _classification_histogram(snap),
        "angle_stats": {
            "min": float(np.min(cos)), "max": float(np.max(cos)),
            "mean": float(np.mean(cos)),
            "max_spread": float(np.max(cos[:, 0] - cos[:, -1])),
        },
        "expected_ok": not failures,
        "expected_failures": failures,
        "hypothesis_fields": fields,
        "quadrature": quad,
        "residuals": ResidualRows(judged, snap.index, snap.points),
    }, snap.order


def run_suite(entries=None, suites="all", points=64, seed=1234,
              tol_abs=TOL_ABS_DEFAULT, tol_rel=TOL_REL_DEFAULT, order=3,
              quad_grid=0, threads=None):
    """Run the selected identity suites over catalog entries.

    Deterministic given the seed; returns the report dictionary, in which
    each entry's ``residuals`` is a ``ResidualRows`` view of every record
    that builds the rows on each read.  The overall ``pass`` is false iff
    any applicable residual fails, any entry self-assertion fails, or any
    quadrature check fails.  ``quad_grid`` is 0 (no quadrature) or at
    least 8 nodes per axis of a periodic entry's 2-torus; a 4-torus takes
    max(8, quad_grid // 4).  ``threads`` is a worker count, 0 for the CPU
    count, or None to read KANGLE_THREADS.  The report's ``order`` is the
    one the entries' snapshots formed F at, at most ``order``.
    """
    if entries is None:
        entry_objs = builtin_catalog()
    else:
        entry_objs = [e if not isinstance(e, str) else get_entry(e)
                      for e in entries]
    if suites == "all" or suites == ["all"]:
        suites = list(SUITES)
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise RunError(f"unknown suites: {unknown}; available: {SUITES}")
    if points < 1:
        raise RunError(f"points per entry must be at least 1, got {points}")
    if seed < 0:
        raise RunError(f"seed must be non-negative, got {seed}")
    if quad_grid != 0 and quad_grid < 8:
        raise RunError(f"quad grid must be 0 (off) or at least 8, "
                       f"got {quad_grid}")
    if not (tol_abs >= 0 and tol_rel >= 0):
        raise RunError(f"tolerances must be non-negative numbers, got "
                       f"abs {tol_abs}, rel {tol_rel}")
    rule = "a positive count, or 0 for the CPU count"
    if threads is None:
        env = os.environ.get("KANGLE_THREADS", "0")
        if not env.isdecimal():
            raise RunError(f"KANGLE_THREADS must be {rule}, got {env!r}")
        threads = int(env)
    if threads < 0:
        raise RunError(f"threads must be {rule}, got {threads}")
    threads = threads or os.cpu_count()
    calibrate_conventions(order)

    args = [(e, suites, points, seed, order, tol_abs, tol_rel, quad_grid)
            for e in entry_objs]
    if threads > 1 and len(entry_objs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(lambda a: _run_entry(*a), args))
    else:
        runs = [_run_entry(*a) for a in args]
    results = [r for r, _ in runs]
    summary = per_identity((r["name"], r["residuals"]) for r in results)
    n_applicable = sum(i["applicable"] for i in summary.values())
    n_failed = sum(i["failed"] for i in summary.values())

    ok = (n_failed == 0
          and all(r["expected_ok"] for r in results)
          and all(q.get("pass", True) for r in results for q in r["quadrature"]))
    report = {
        "schema": 2,
        "records": "all",
        "version": __version__,
        "conventions": dict(CONVENTIONS),
        "seed": seed,
        "order": max((formed for _, formed in runs), default=order),
        "points_per_entry": points,
        "suites": list(suites),
        "tolerances": {"abs": finite_or_none(tol_abs),
                       "rel": finite_or_none(tol_rel)},
        "entries": sorted(results, key=lambda r: r["name"]),
        "summary": {
            "records_applicable": n_applicable,
            "records_failed": n_failed,
            "per_identity": summary,
        },
        "pass": bool(ok),
    }
    return report


def report_to_json(report, path=None, records="failing"):
    """The report as compact one-line JSON.

    ``records`` picks the residual rows written for each entry: "failing"
    (applicable and not passing, as many as ``summary.records_failed``),
    "all" or "none"; the JSON states the mode as ``"records"``.  Each
    entry's ``ResidualRows`` builds only the rows the mode writes, on a
    shallow copy of the report, which itself is left as it was.
    No indent, so CPython's C encoder writes it.  Non-finite numbers are
    already None in the report; allow_nan=False refuses any that is not,
    since a bare NaN is not JSON.
    """
    if records not in RECORD_MODES:
        raise RunError(f"records must be one of {RECORD_MODES}, "
                       f"got {records!r}")
    rows = {"all": list, "failing": ResidualRows.failing,
            "none": lambda _: []}[records]
    out = dict(report, records=records, entries=[
        dict(e, residuals=rows(e["residuals"])) for e in report["entries"]])
    text = json.dumps(out, sort_keys=True, allow_nan=False)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
