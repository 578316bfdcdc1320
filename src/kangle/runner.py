"""Suite orchestration: sampling, entry self-assertions, JSON reports."""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .catalog import builtin_catalog, get_entry
from .errors import KangleError
from .geometry import CLASS_NAMES, compute_snapshot, reads
from .identities import (
    SUITE_READERS,
    SUITES,
    TOL_ABS_DEFAULT,
    TOL_REL_DEFAULT,
    calibrate_conventions,
    evaluate_hypothesis_fields,
    finite_or_none,
    run_identity_suite,
)
from .quadrature import eq23_pass, stokes_pass, torus_quadrature

__all__ = ["run_suite", "sample_points", "report_to_json", "RunError"]


class RunError(KangleError):
    pass


def sample_points(box, count, seed):
    """Low-discrepancy (scrambled Halton) points in a box, seedable."""
    from scipy.stats import qmc  # about 1 s to import; kangle's only scipy use
    d = len(box)
    h = qmc.Halton(d=d, scramble=True, seed=seed)
    unit = h.random(count)
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
    if entry.equal_angles is True and not np.all(snap.equal_gate):
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
        want = {"Lagrangian": 1, "complex": 2, "generic": 0}[entry.classification]
        bad = int(np.sum(snap.classification != want))
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


@reads("equal_gate", "classification", "cos_angles")
def _run_entry(entry, suites, points, seed, order, tol_abs, tol_rel,
               conventions, quad_grid):
    spec = entry.spec()
    pts = sample_points(entry.box, points, seed)
    keys = sum((SUITE_READERS[name].reads for name in suites),
               _run_entry.reads + check_expected.reads)
    snap = compute_snapshot(spec, pts, order=order, reads=keys)
    failures = check_expected(entry, snap)
    records = run_identity_suite(snap, suites, conventions,
                                 tol_abs=tol_abs, tol_rel=tol_rel)
    gate_info = None
    if entry.equal_angles == "measured":
        frac = float(np.mean(snap.equal_gate))
        gate_info = {"fraction": frac, "passed": bool(frac == 1.0)}
    fields = {}
    if "hypotheses" in suites:
        fields = _field_stats(evaluate_hypothesis_fields(snap, conventions))
    quad = []
    if quad_grid and entry.periodic:
        n_axis = quad_grid if snap.domain_dim == 2 else max(8, quad_grid // 4)
        q = torus_quadrature(spec, ("volume", "div_field", "hodge_pair",
                                    "delta_fw_norm2"), n_axis, order=order)
        vol, stokes = q["volume"], q["div_field"]
        lhs, rhs = q["hodge_pair"], q["delta_fw_norm2"]
        quad = [
            {"check": "volume", "grid": n_axis, "value": finite_or_none(vol)},
            {"check": "stokes_divergence", "grid": n_axis,
             "value": finite_or_none(stokes), "pass": stokes_pass(stokes, vol)},
            {"check": "eq2.3", "grid": n_axis, "lhs": finite_or_none(lhs),
             "rhs": finite_or_none(rhs), "pass": eq23_pass(lhs, rhs)},
        ]
    cos = snap.cos_angles
    result = {
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
        "equal_angle_gate": gate_info,
        "hypothesis_fields": fields,
        "quadrature": quad,
        "residuals": [r.as_dict() for r in records],
    }
    return result


def run_suite(entries=None, suites="all", points=64, seed=1234,
              tol_abs=TOL_ABS_DEFAULT, tol_rel=TOL_REL_DEFAULT, order=3,
              quad_grid=0, threads=None):
    """Run the selected identity suites over catalog entries.

    Deterministic given the seed; returns the report dictionary.  The
    overall ``pass`` is false iff any applicable residual fails, any entry
    self-assertion fails, or any quadrature check fails.
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
    if not (tol_abs >= 0 and tol_rel >= 0):
        raise RunError(f"tolerances must be non-negative numbers, got "
                       f"abs {tol_abs}, rel {tol_rel}")
    if threads is None:
        env = os.environ.get("KANGLE_THREADS", "0")
        try:
            threads = int(env) or os.cpu_count()
        except ValueError:
            raise RunError(
                f"KANGLE_THREADS must be an integer, got {env!r}") from None
    conventions = calibrate_conventions(order)

    args = [(e, suites, points, seed, order, tol_abs, tol_rel, conventions,
             quad_grid) for e in entry_objs]
    if threads > 1 and len(entry_objs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda a: _run_entry(*a), args))
    else:
        results = [_run_entry(*a) for a in args]

    per_identity = {}
    n_applicable = n_failed = 0
    for res in results:
        for rec in res["residuals"]:
            info = per_identity.setdefault(
                rec["id"], {"applicable": 0, "failed": 0, "max_rel": 0.0,
                            "max_abs": 0.0})
            if rec["applicable"]:
                n_applicable += 1
                info["applicable"] += 1
                if rec["rel_residual"] is not None:
                    info["max_rel"] = max(info["max_rel"], rec["rel_residual"])
                if rec["abs_residual"] is not None:
                    info["max_abs"] = max(info["max_abs"], rec["abs_residual"])
                if not rec["pass"]:
                    n_failed += 1
                    info["failed"] += 1

    ok = (n_failed == 0
          and all(r["expected_ok"] for r in results)
          and all(q.get("pass", True) for r in results for q in r["quadrature"]))
    report = {
        "schema": 1,
        "version": __version__,
        "conventions": conventions.as_dict(),
        "seed": seed,
        "order": order,
        "points_per_entry": points,
        "suites": list(suites),
        "tolerances": {"abs": finite_or_none(tol_abs),
                       "rel": finite_or_none(tol_rel)},
        "entries": sorted(results, key=lambda r: r["name"]),
        "summary": {
            "records_applicable": n_applicable,
            "records_failed": n_failed,
            "per_identity": dict(sorted(per_identity.items())),
        },
        "pass": bool(ok),
    }
    return report


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def report_to_json(report, path=None):
    """The report as compact one-line JSON.

    No indent, so CPython's C encoder writes it.  Non-finite numbers are
    already None in the report; allow_nan=False refuses any that is not,
    since a bare NaN is not JSON.
    """
    text = json.dumps(report, sort_keys=True, allow_nan=False,
                      default=_json_default)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
