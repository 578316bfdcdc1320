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
import json
import os
import sys

import numpy as np

from .calculus import contract
from .catalog import CatalogEntry, builtin_catalog, get_entry
from .dsl import parse_ambient, parse_immersion
from .errors import ImmersionSyntaxError, KangleError
from .geometry import CLASS_NAMES, compute_snapshot, reads
from .identities import SUITES, TOL_ABS_DEFAULT, TOL_REL_DEFAULT
from .quadrature import torus_checks
from .runner import RECORD_MODES, report_to_json, run_suite


def _load_entry(args):
    """The catalog entry ``--entry`` names; for FILE, or with
    ``--ambient``, an entry without expectations (the catalog's hold only
    for its own map) over the entry's box, or for FILE over [0, 2pi] per
    axis if periodic, else [-1, 1].  ``--ambient`` is the entry's
    ``ambient``.  Exactly one of FILE and ``--entry`` is given."""
    if bool(args.entry) == bool(args.file):
        raise KangleError("give either an .imm file or --entry NAME")
    if args.entry:
        entry = get_entry(args.entry)
        if not args.ambient:
            return entry
        name, text, box = entry.name, entry.text, entry.box
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            name, text, box = args.file, fh.read(), None
    spec = parse_immersion(text, name=name)
    ambient = None
    if args.ambient:
        try:
            ambient = parse_ambient(args.ambient, spec.n)
        except ImmersionSyntaxError as exc:
            raise KangleError(
                f"bad --ambient value {args.ambient!r}: {exc}") from None
    box = box or (((0.0, 2 * np.pi) if spec.periodic else (-1.0, 1.0),)
                  * spec.domain_dim)
    return CatalogEntry(name=name, text=text, box=box, equal_angles=False,
                        classification="mixed", ambient=ambient)


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
    spec = _load_entry(args).spec()
    point = _parse_point(args.point)
    snap = compute_snapshot(spec, point[None, :], reads=_cmd_eval.reads)
    if not snap.size:
        raise KangleError(f"point {args.point} rejected: {snap.rejected[0][1]}")
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


def _number(value):
    return "null" if value is None else f"{value:.6e}"


def _cmd_verify(args):
    suites = args.suite.split(",") if args.suite != "all" else "all"
    entries = [_load_entry(args)] if args.entry or args.file else None
    report = run_suite(entries=entries, suites=suites, points=args.points,
                       seed=args.seed, tol_abs=args.tol_abs,
                       tol_rel=args.tol_rel, quad_grid=args.quad_grid)
    if args.json:
        report_to_json(report, args.json, records=args.records)
        print(f"report written to {args.json}")
    summary = report["summary"]
    print(f"conventions: {report['conventions']}")
    print(f"records applicable: {summary['records_applicable']}, "
          f"failed: {summary['records_failed']}")
    for name, info in summary["per_identity"].items():
        line = (f"  {name:32s} applicable {info['applicable']:5d}  "
                f"failed {info['failed']:4d}  max_rel {info['max_rel']:.2e}")
        worst = info["worst"]
        if worst:
            point = ", ".join(f"{x:.4g}" for x in worst["point"])
            line += (f"  worst rel {worst['rel_residual']:.2e} at "
                     f"{worst['entry']}[{worst['point_index']}] ({point})")
        print(line)
    for e in report["entries"]:
        if e["points_rejected"]:
            total = e["points_sampled"] + e["points_rejected"]
            print(f"  rejected {e['name']}: {e['points_rejected']} of "
                  f"{total} points")
        for row in e["quadrature"]:
            values = "  ".join(f"{k} {_number(row[k])}"
                               for k in ("value", "lhs", "rhs") if k in row)
            if "pass" in row:
                values += "  pass" if row["pass"] else "  FAIL"
            if "error" in row:
                values += f": {row['error']}"
            print(f"  quadrature {e['name']:28s} {row['check']:18s} "
                  f"grid {row['grid']:3d}  {values}")
    bad_entries = [e["name"] for e in report["entries"] if not e["expected_ok"]]
    if bad_entries:
        print("entries with failed self-assertions:", ", ".join(bad_entries))
    print("PASS" if report["pass"] else "FAIL")
    return 0 if report["pass"] else 1


def _cmd_integrate(args):
    spec = _load_entry(args).spec()
    rows = torus_checks(spec, args.grid)
    ok = all(row.get("pass", True) for row in rows)
    text = json.dumps({"quadrature": rows, "pass": ok}, indent=1)
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
        if spec.periodic:
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
    pv.add_argument("--records", choices=RECORD_MODES, default="failing",
                    help="residual rows the JSON report holds "
                         "(default: failing)")
    pv.set_defaults(fn=_cmd_verify)

    pi = sub.add_parser("integrate", help="torus quadrature checks")
    pi.add_argument("file", nargs="?", help=".imm file")
    pi.add_argument("--entry", help="built-in catalog entry name")
    pi.add_argument("--grid", type=int, default=32)
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
