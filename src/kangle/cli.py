"""Command line interface.

Subcommands:

* ``kangle eval FILE --point x,...``      snapshot of one point as JSON
* ``kangle verify [FILE]``                identity suites + report
* ``kangle integrate [FILE]``             torus quadrature checks
* ``kangle catalog``                      list built-in entries

Exit status: 0 success, 1 failed residual/check, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .calculus import contract
from .catalog import CatalogEntry, builtin_catalog, get_entry
from .dsl import parse_ambient, parse_immersion, print_immersion
from .errors import ImmersionSyntaxError, KangleError
from .geometry import CLASS_NAMES, compute_snapshot, reads
from .identities import SUITES, TOL_ABS_DEFAULT, TOL_REL_DEFAULT
from .quadrature import eq23_pass, stokes_pass, torus_quadrature
from .runner import report_to_json, run_suite


def _load_spec(args):
    if getattr(args, "entry", None):
        entry = get_entry(args.entry)
        spec = entry.spec()
    elif getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as fh:
            spec = parse_immersion(fh.read(), name=args.file)
        entry = None
    else:
        raise KangleError("give an .imm file or --entry NAME")
    if getattr(args, "ambient", None):
        try:
            ambient = parse_ambient(args.ambient, spec.n)
        except ImmersionSyntaxError as exc:
            raise KangleError(
                f"bad --ambient value {args.ambient!r}: {exc}") from None
        spec = dataclasses.replace(spec, ambient=ambient)
    return spec, entry


def _parse_point(text):
    try:
        point = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise KangleError(
            f"bad --point value {text!r}; give comma-separated numbers"
        ) from None
    if not np.all(np.isfinite(point)):
        raise KangleError(f"bad --point value {text!r}; coordinates must be finite")
    return point


@reads("F0", "cos_angles", "classification", "rank", "normH2", "g_inv0",
       "sff0", "gN0", "g0", "W0", "norm_W2_0", "kappa", "cos_signed")
def _cmd_eval(args):
    spec, _ = _load_spec(args)
    point = _parse_point(args.point)
    snap = compute_snapshot(spec, point[None, :], reads=_cmd_eval.reads)
    out = {
        "point": point.tolist(),
        "F": snap.F0[0].tolist(),
        "cos_angles": snap.cos_angles[0].tolist(),
        "classification": CLASS_NAMES[int(snap.classification[0])],
        "rank": int(snap.rank[0]),
        "norm_H": float(np.sqrt(snap.normH2[0])),
        "norm_sff2": float(contract(
            "bik,bjl,bijA,bAB,bklB->b", snap.g_inv0, snap.g_inv0,
            snap.sff0, snap.gN0, snap.sff0)[0]),
        "metric": snap.g0[0].tolist(),
        "pullback_form": snap.W0[0].tolist(),
        "norm_fw2": float(snap.norm_W2_0[0]),
        "kappa": None if not np.isfinite(snap.kappa[0]) else float(snap.kappa[0]),
    }
    if snap.n == 1:
        out["cos_signed"] = float(snap.cos_signed[0])
    text = json.dumps(out, indent=1)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _cmd_verify(args):
    suites = args.suite.split(",") if args.suite != "all" else "all"
    entries = None
    if args.entry or args.file:
        spec, entry = _load_spec(args)
        if entry is None or args.ambient:
            # no expectations: the catalog's hold only for its own map
            box = entry.box if entry else (
                ((0.0, 2 * np.pi) if spec.periodic else (-1.0, 1.0),)
                * spec.domain_dim)
            entry = CatalogEntry(name=entry.name if entry else args.file,
                                 text=print_immersion(spec), box=box,
                                 periodic=spec.periodic, equal_angles=False,
                                 classification="mixed")
        entries = [entry]
    report = run_suite(entries=entries, suites=suites, points=args.points,
                       seed=args.seed, tol_abs=args.tol_abs,
                       tol_rel=args.tol_rel, quad_grid=args.quad_grid)
    text = report_to_json(report, args.json)
    if args.json:
        print(f"report written to {args.json}")
    summary = report["summary"]
    print(f"conventions: {report['conventions']}")
    print(f"records applicable: {summary['records_applicable']}, "
          f"failed: {summary['records_failed']}")
    for name, info in summary["per_identity"].items():
        print(f"  {name:32s} applicable {info['applicable']:5d}  "
              f"failed {info['failed']:4d}  max_rel {info['max_rel']:.2e}")
    bad_entries = [e["name"] for e in report["entries"] if not e["expected_ok"]]
    if bad_entries:
        print("entries with failed self-assertions:", ", ".join(bad_entries))
    print("PASS" if report["pass"] else "FAIL")
    return 0 if report["pass"] else 1


def _cmd_integrate(args):
    spec, entry = _load_spec(args)
    if not spec.periodic:
        raise KangleError("integrate needs a periodic immersion")
    if args.check == "stokes":
        keys = ("volume", "div_field", "lap_cos2")
    else:  # eq2.3
        keys = ("volume", "hodge_pair", "delta_fw_norm2")
    q = torus_quadrature(spec, keys, args.grid)
    results = {"volume": q["volume"]}
    results.update((f"integral_{k}", q[k]) for k in keys[1:])
    if args.check == "stokes":
        ok = all(stokes_pass(q[k], q["volume"]) for k in keys[1:])
    else:
        ok = eq23_pass(q["hodge_pair"], q["delta_fw_norm2"])
    results["pass"] = ok
    text = json.dumps(results, indent=1)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if ok else 1


def _cmd_catalog(args):
    for e in builtin_catalog():
        spec = e.spec()
        amb = "flat" if spec.ambient.is_flat else \
            f"space_form({spec.ambient.rho:g})"
        flags = []
        if e.minimal:
            flags.append("minimal")
        if e.constant_angle:
            flags.append("constant-angle")
        if e.periodic:
            flags.append("periodic")
        flags.append(f"class={e.classification}")
        print(f"{e.name:28s} n={spec.n}  {amb:16s} {' '.join(flags)}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="kangle",
        description="Kahler-angle laboratory for parametric immersions")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="print a snapshot at one point")
    pe.add_argument("file", nargs="?", help=".imm file")
    pe.add_argument("--entry", help="built-in catalog entry name")
    pe.add_argument("--point", required=True, help="comma-separated coords")
    pe.add_argument("--ambient", help="override: flat or space_form(RHO)")
    pe.add_argument("--json", help="also write JSON here")
    pe.set_defaults(fn=_cmd_eval)

    pv = sub.add_parser("verify", help="run identity suites")
    pv.add_argument("file", nargs="?", help=".imm file (else whole catalog)")
    pv.add_argument("--entry", help="run a single catalog entry")
    pv.add_argument("--suite", default="all",
                    help="comma list of " + ",".join(SUITES) + " or all")
    pv.add_argument("--points", type=int, default=64)
    pv.add_argument("--seed", type=int, default=1234)
    pv.add_argument("--tol-abs", type=float, default=TOL_ABS_DEFAULT)
    pv.add_argument("--tol-rel", type=float, default=TOL_REL_DEFAULT)
    pv.add_argument("--quad-grid", type=int, default=0,
                    help="also run quadrature checks at this grid")
    pv.add_argument("--ambient", help="override: flat or space_form(RHO)")
    pv.add_argument("--json", help="write the JSON report here")
    pv.set_defaults(fn=_cmd_verify)

    pi = sub.add_parser("integrate", help="torus quadrature checks")
    pi.add_argument("file", nargs="?", help=".imm file")
    pi.add_argument("--entry", help="built-in catalog entry name")
    pi.add_argument("--grid", type=int, default=32)
    pi.add_argument("--check", choices=("stokes", "eq2.3"), default="stokes")
    pi.add_argument("--ambient", help="override: flat or space_form(RHO)")
    pi.add_argument("--json", help="also write JSON here")
    pi.set_defaults(fn=_cmd_integrate)

    pc = sub.add_parser("catalog", help="list built-in entries")
    pc.set_defaults(fn=_cmd_catalog)
    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--point" in argv[:-1]:
        # argparse takes "--point -1,0" for two options, "--point=-1,0" not
        k = argv.index("--point")
        argv[k:k + 2] = ["--point=" + argv[k + 1]]
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "json", None):
            # an unwritable path fails here, not after the whole run; a
            # file that only this check made is removed again, so a
            # command that fails later leaves none behind
            existed = os.path.exists(args.json)
            with open(args.json, "a", encoding="utf-8"):
                pass
            if not existed:
                os.remove(args.json)
        return args.fn(args)
    except (KangleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
