"""The benchmark's workloads: inputs from a seed, one pass, output checks.

Each workload maps the benchmark seed to one of ``POOL`` input sets, so a
reference output taken at a fixed commit exists for every seed.  A pass
calls the package only through module attributes (``runner.run_suite``,
``geometry.compute_snapshot``, ...) so that the traced run's wrappers see
the calls.  ``summary`` reduces a pass's outputs to what ``references.json``
stores; ``check`` compares a summary with its reference and counts the
operations attempted and failed; ``output_bytes`` is the size of what the
pass hands back (the ``report_mb`` metric).
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np
from scipy.stats import qmc

from kangle import geometry, quadrature, runner
from kangle.catalog import get_entry
from kangle.dsl import parse_immersion
from kangle.jets import Jet

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

POOL = 16                  # distinct input sets; seed -> seed % POOL
BASE_SEED = 1234           # run_suite's default seed is input set 0

# Tolerances no round-off reordering can trip; a changed formula, gate or
# sample trips them.
FIELD_RTOL = 1e-8          # snapshot fields, relative to the field's scale
INTEGRAL_RTOL = 1e-9       # torus integrals, relative to max(1, |ref|)
APPLICABLE_SLACK = 0.01    # applicable records may move by 1% (>= 1) when
                           # a point sits on a gate boundary


def pool_index(seed):
    return int(seed) % POOL


class MissingReference(Exception):
    pass


def load_reference(workload, index, path=REFERENCES):
    """The stored reference of one input set; missing is an error."""
    try:
        with open(path, encoding="utf-8") as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        raise MissingReference(f"no reference file {path}") from None
    try:
        return refs["workloads"][workload][str(index)]
    except KeyError:
        raise MissingReference(
            f"{path} holds no reference for {workload} input set {index}"
        ) from None


class Outcome:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self, attempted=0, failed=0, messages=()):
        self.attempted = attempted
        self.failed = failed
        self.messages = list(messages)

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages[: max(0, 5 - len(self.messages))])


# ---------------------------------------------------------------------------
# catalog_verify: `kangle verify --json` over the whole catalog


class CatalogVerify:
    name = "catalog_verify"
    order = 3
    points_per_entry = 48

    def inputs(self, index):
        return {"suite_seed": BASE_SEED + index}

    def points_per_pass(self, inputs):
        return self.points_per_entry * len(runner.builtin_catalog())

    def run(self, inputs):
        report = runner.run_suite(suites="all", points=self.points_per_entry,
                                  seed=inputs["suite_seed"], order=self.order,
                                  threads=1)
        return report, runner.report_to_json(report)

    def summary(self, out):
        report = out[0]
        per_identity = {}
        for entry in report["entries"]:
            for rec in entry["residuals"]:
                counts = per_identity.setdefault(rec["id"], [0, 0])
                if rec["applicable"]:
                    counts[0] += 1
                    counts[1] += not rec["pass"]
        return {
            "pass": bool(report["pass"]),
            "entries": {e["name"]: bool(e["expected_ok"])
                        for e in report["entries"]},
            "per_identity": dict(sorted(per_identity.items())),
        }

    def check(self, summary, ref):
        applicable = sum(a for a, _ in summary["per_identity"].values())
        failed_records = sum(f for _, f in summary["per_identity"].values())
        bad_entries = [n for n, ok in summary["entries"].items() if not ok]
        messages = [f"entry self-assertion failed: {n}" for n in bad_entries]
        if failed_records:
            messages.append(f"{failed_records} applicable records failed")

        mismatches = []
        if summary["pass"] != ref["pass"]:
            mismatches.append(f"report pass {summary['pass']} != {ref['pass']}")
        if sorted(summary["entries"]) != sorted(ref["entries"]):
            mismatches.append("catalog entry names differ from the reference")
        ids = sorted(set(summary["per_identity"]) | set(ref["per_identity"]))
        for ident in ids:
            got = summary["per_identity"].get(ident)
            want = ref["per_identity"].get(ident)
            if got is None or want is None:
                mismatches.append(f"{ident}: present in only one of output "
                                  f"and reference")
                continue
            slack = max(1, math.floor(APPLICABLE_SLACK * want[0]))
            if abs(got[0] - want[0]) > slack or got[1] != want[1]:
                mismatches.append(f"{ident}: applicable/failed {got} != {want}")
        checks = 2 + len(ids)
        return Outcome(applicable + len(summary["entries"]) + checks,
                       failed_records + len(bad_entries) + len(mismatches),
                       messages + mismatches)

    def output_bytes(self, out):
        return len(out[1])


# ---------------------------------------------------------------------------
# snapshot_order4: one order-4 ds_graph snapshot on Halton points


def _floats(values):
    return [float(v) for v in np.ravel(values)]


class SnapshotOrder4:
    name = "snapshot_order4"
    order = 4
    points = 512
    entry = "ds_graph"
    stride = 16             # reference stores every 16th point
    fields = ("cos_angles", "normH2", "sqrt_det_g0", "norm_W2_0", "lap_cos2",
              "hodge_pair", "norm_delta_W2", "norm_nabla_W2", "S_pair",
              "sumRM")

    def inputs(self, index):
        box = np.asarray(get_entry(self.entry).box, dtype=float)
        halton = qmc.Halton(d=box.shape[0], scramble=True,
                            seed=BASE_SEED + index)
        unit = halton.random(self.points)
        return {"spec": get_entry(self.entry).spec(),
                "points": box[:, 0] + unit * (box[:, 1] - box[:, 0])}

    def points_per_pass(self, inputs):
        return self.points

    def run(self, inputs):
        return geometry.compute_snapshot(inputs["spec"], inputs["points"],
                                         order=self.order)

    def summary(self, snap):
        out = {
            "rejected": [int(i) for i, _ in snap.rejected],
            "check_expected": runner.check_expected(get_entry(self.entry),
                                                    snap),
            "sample": {}, "sums": {}, "scale": {},
        }
        for f in self.fields:
            v = np.asarray(getattr(snap, f), dtype=float)
            out["sample"][f] = [_floats(row)
                                for row in v[:: self.stride]]
            out["sums"][f] = float(np.sum(v))
            out["scale"][f] = float(np.max(np.abs(v)))
        return out

    def check(self, summary, ref):
        n = self.points
        bad = set(summary["rejected"])
        messages = [f"{len(bad)} points rejected"] if bad else []
        if summary["check_expected"]:
            bad.update(range(n))
            messages.extend(summary["check_expected"])
        for f in self.fields:
            tol = FIELD_RTOL * (1.0 + ref["scale"][f])
            got, want = summary["sample"][f], ref["sample"][f]
            if len(got) != len(want):
                bad.update(range(n))
                messages.append(f"{f}: {len(got)} sampled points, "
                                f"reference has {len(want)}")
                continue
            for k, (g, w) in enumerate(zip(got, want)):
                if not np.allclose(g, w, rtol=0.0, atol=tol):
                    bad.add(k * self.stride)
                    messages.append(f"{f} at point {k * self.stride}: "
                                    f"{g} != {w}")
            if abs(summary["sums"][f] - ref["sums"][f]) > tol * n:
                bad.update(range(n))
                messages.append(f"sum of {f}: {summary['sums'][f]!r} != "
                                f"{ref['sums'][f]!r}")
        return Outcome(n, len(bad), messages)

    def output_bytes(self, snap):
        """Bytes of the snapshot's arrays, computed from their shapes."""
        return sum(v.nbytes if isinstance(v, np.ndarray) else v.coeffs.nbytes
                   for v in (*snap.data.values(), *snap.jets.values())
                   if isinstance(v, (np.ndarray, Jet)))


# ---------------------------------------------------------------------------
# torus_integrate: the runner's four torus integrals on trig_sf_pos


class TorusIntegrate:
    name = "torus_integrate"
    order = 3
    entry = "trig_sf_pos"
    grid = 64
    integrands = ("volume", "div_field", "hodge_pair", "delta_fw_norm2")

    def inputs(self, index):
        """The immersion translated by whole grid steps (index, 7*index).

        A translation by grid steps maps the grid onto itself, so every
        integral is unchanged up to round-off, while the evaluated
        expressions and node order differ per input set.
        """
        step = 2.0 * math.pi / self.grid
        shift = {"1": index * step, "2": (7 * index % self.grid) * step}
        text = re.sub(r"\bu([12])\b",
                      lambda m: f"(u{m[1]} + {shift[m[1]]!r})",
                      get_entry(self.entry).text)
        return {"spec": parse_immersion(text, name=self.entry)}

    def points_per_pass(self, inputs):
        return self.grid ** inputs["spec"].domain_dim * len(self.integrands)

    def run(self, inputs):
        return {g: quadrature.torus_quadrature(inputs["spec"], g, self.grid,
                                               order=self.order)
                for g in self.integrands}

    def summary(self, values):
        vol, div = values["volume"], values["div_field"]
        lhs, rhs = values["hodge_pair"], values["delta_fw_norm2"]
        # the runner's quadrature checks (runner._run_entry)
        return {
            "values": {g: float(v) for g, v in values.items()},
            "stokes_pass": bool(abs(div) <= 1e-8 * max(vol, 1.0)),
            "eq2.3_pass": bool(abs(lhs - rhs)
                               <= 1e-6 * max(abs(lhs), abs(rhs), 1e-8)),
        }

    def check(self, summary, ref):
        bad, messages = set(), []
        if not summary["stokes_pass"]:
            bad.add("div_field")
            messages.append("Stokes check failed")
        if not summary["eq2.3_pass"]:
            bad.update(("hodge_pair", "delta_fw_norm2"))
            messages.append("eq2.3 check failed")
        for g in self.integrands:
            got, want = summary["values"].get(g), ref["values"][g]
            if got is None or abs(got - want) > INTEGRAL_RTOL * max(1.0,
                                                                    abs(want)):
                bad.add(g)
                messages.append(f"integral {g}: {got!r} != {want!r}")
        return Outcome(len(self.integrands), len(bad), messages)

    def output_bytes(self, values):
        return 8 * len(values)


WORKLOADS = {w.name: w for w in (CatalogVerify(), SnapshotOrder4(),
                                 TorusIntegrate())}
