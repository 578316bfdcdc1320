"""Span recorder for the traced benchmark run.

Wrappers defined here stand around calls into kangle's layers and record
one span per call: name, start, end, parent span, pass, and up to two
counts measured at the boundary.  Nothing in the package changes.
``install`` replaces every binding of a wrapped function in every loaded
``kangle`` module namespace, the ``Jet`` and ``IdentityResidual`` methods,
and ``numpy.einsum``; ``Installation.uninstall`` puts the original objects
back.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children.  Calls are sequential (one thread), so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

import numpy as np

SPAN_NAMES = (
    "cli.import",
    "dsl.parse",
    "dsl.eval",
    "jets.product",
    "jets.unary",
    "jets.scale",
    "ambient.metric",
    "calculus",
    "numpy.einsum_multi",
    "numpy.einsum_pair",
    "geometry.snapshot",
    "identities.calibrate",
    "identities.verify",
    "runner.sample",
    "runner.record",
    "runner.json",
    "runner.entry",
    "quadrature.integral",
)

# per-layer metric name -> unit, in report order
LAYER_UNITS = {
    "cli.import_s": "s",
    "dsl.parse_calls": "count",
    "dsl.parse_s": "s",
    "dsl.eval_s": "s",
    "jets.product_calls": "count",
    "jets.product_s": "s",
    "jets.product_out_mb": "MB-computed",
    "jets.unary_s": "s",
    "jets.scale_s": "s",
    "ambient.metric_calls": "count",
    "ambient.metric_s": "s",
    "calculus.calls": "count",
    "calculus.self_s": "s",
    "numpy.einsum_multi_calls": "count",
    "numpy.einsum_multi_s": "s",
    "numpy.einsum_pair_calls": "count",
    "numpy.einsum_pair_s": "s",
    "geometry.snapshot_calls": "count",
    "geometry.points": "count",
    "geometry.rejected_points": "count",
    "geometry.self_s": "s",
    "identities.calibrate_s": "s",
    "identities.verify_s": "s",
    "identities.records": "count",
    "identities.applicable_share": "share",
    "runner.sample_s": "s",
    "runner.record_s": "s",
    "runner.json_s": "s",
    "runner.entry_s_max": "s",
    "quadrature.integrals": "count",
    "quadrature.snapshots_per_integral": "ratio",
    "quadrature.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
    "trace.uncovered_share": "share",
}

SETUP_PASS = -1


class Recorder:
    """In-memory span store.

    Each span is a list ``[name_id, start, end, parent, pass, a, b]``;
    ``parent`` is the index of the enclosing span or -1, and ``a``/``b`` are
    counts taken at the boundary (bytes out, points, records, ...).
    """

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.spans = []
        self.stack = []
        self.in_jets = 0
        self.pass_index = SETUP_PASS

    def add(self, name, start, end):
        """Record a finished span that no wrapper saw (e.g. an import)."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.ids[name], start, end, parent,
                           self.pass_index, 0, 0])

    def call(self, nid, fn, args, kwargs, jets, measure):
        spans, stack = self.spans, self.stack
        idx = len(spans)
        row = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.pass_index,
               0, 0]
        spans.append(row)
        stack.append(idx)
        if jets:
            self.in_jets += 1
        row[1] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            row[2] = perf_counter()
            stack.pop()
            if jets:
                self.in_jets -= 1
        if measure is not None:
            row[5], row[6] = measure(args, out)
        return out

    def arrays(self):
        """Spans as parallel numpy arrays (name, start, end, parent, pass, a, b)."""
        if not self.spans:
            empty = np.zeros(0)
            return {k: empty for k in ("name", "start", "end", "parent",
                                       "pass", "a", "b")}
        cols = list(zip(*self.spans))
        return {
            "name": np.asarray(cols[0], dtype=np.int16),
            "start": np.asarray(cols[1], dtype=float),
            "end": np.asarray(cols[2], dtype=float),
            "parent": np.asarray(cols[3], dtype=np.int64),
            "pass": np.asarray(cols[4], dtype=np.int32),
            "a": np.asarray(cols[5], dtype=float),
            "b": np.asarray(cols[6], dtype=float),
        }


def self_times(start, end, parent):
    """Duration of each span minus the durations of its direct children."""
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


# ---------------------------------------------------------------------------
# wrappers


def _wrapper(rec, fn, nid, jets=False, choose=None, measure=None):
    """Wrap ``fn``; ``choose(args)`` may return another span id or None
    (call straight through, no span)."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        span = nid if choose is None else choose(args)
        if span is None:
            return fn(*args, **kwargs)
        return rec.call(span, fn, args, kwargs, jets, measure)

    return wrapped


def _out_bytes(_args, out):
    return out.coeffs.size * 8, 0


def _snapshot_counts(args, snap):
    return np.atleast_2d(np.asarray(args[1])).shape[0], len(snap.rejected)


def _record_counts(_args, records):
    return len(records), sum(1 for r in records if r.applicable)


class Installation:
    """The bindings replaced by ``install``; ``uninstall`` restores them."""

    def __init__(self):
        self.saved = []            # (owner, attribute, original)

    def replace(self, owner, attr, new):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved = []


def _kangle_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kangle" or name.startswith("kangle."))]


def install(rec):
    """Wrap the layer boundaries of the loaded kangle package."""
    import kangle.cli  # noqa: F401  (loads every layer module)
    from kangle import (ambient, calculus, dsl, geometry, identities, jets,
                        quadrature, runner)

    ids = rec.ids
    Jet = jets.Jet

    def product_or_none(args):
        return ids["jets.product"] if isinstance(args[1], Jet) else None

    def product_or_scale(args):
        if isinstance(args[1], Jet) and isinstance(args[2], Jet):
            return ids["jets.product"]
        return ids["jets.scale"]

    functions = {
        dsl.parse_immersion: _wrapper(rec, dsl.parse_immersion,
                                      ids["dsl.parse"]),
        dsl.eval_components: _wrapper(rec, dsl.eval_components,
                                      ids["dsl.eval"]),
        dsl.eval_components_floats: _wrapper(
            rec, dsl.eval_components_floats, ids["dsl.eval"]),
        jets.jet_einsum: _wrapper(rec, jets.jet_einsum, None, jets=True,
                                  choose=product_or_scale,
                                  measure=_out_bytes),
        jets.jet_unary: _wrapper(rec, jets.jet_unary, ids["jets.unary"],
                                 jets=True),
        ambient.ambient_metric: _wrapper(rec, ambient.ambient_metric,
                                         ids["ambient.metric"]),
        geometry.compute_snapshot: _wrapper(
            rec, geometry.compute_snapshot, ids["geometry.snapshot"],
            measure=_snapshot_counts),
        identities.calibrate_conventions: _wrapper(
            rec, identities.calibrate_conventions,
            ids["identities.calibrate"]),
        identities.run_identity_suite: _wrapper(
            rec, identities.run_identity_suite, ids["identities.verify"],
            measure=_record_counts),
        identities.evaluate_hypothesis_fields: _wrapper(
            rec, identities.evaluate_hypothesis_fields,
            ids["identities.verify"]),
        runner.sample_points: _wrapper(rec, runner.sample_points,
                                       ids["runner.sample"]),
        runner.report_to_json: _wrapper(rec, runner.report_to_json,
                                        ids["runner.json"]),
        runner._run_entry: _wrapper(rec, runner._run_entry,
                                    ids["runner.entry"]),
        quadrature.torus_quadrature: _wrapper(
            rec, quadrature.torus_quadrature, ids["quadrature.integral"]),
    }
    for name in calculus.__all__:
        fn = getattr(calculus, name)
        functions[fn] = _wrapper(rec, fn, ids["calculus"])

    by_id = {id(fn): wrapped for fn, wrapped in functions.items()}
    inst = Installation()
    try:
        # every module namespace that binds a wrapped function
        for module in _kangle_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    inst.replace(module, attr, by_id[id(value)])
        # __rmul__ was bound to the same function at class creation, so
        # each name is replaced on its own
        for attr in ("__mul__", "__rmul__"):
            inst.replace(Jet, attr, _wrapper(
                rec, vars(Jet)[attr], None, jets=True,
                choose=product_or_none, measure=_out_bytes))
        inst.replace(Jet, "reciprocal", _wrapper(
            rec, Jet.reciprocal, ids["jets.unary"], jets=True))
        inst.replace(identities.IdentityResidual, "as_dict", _wrapper(
            rec, identities.IdentityResidual.as_dict, ids["runner.record"]))
        inst.replace(np, "einsum", _einsum_wrapper(rec, np.einsum))
    except BaseException:
        inst.uninstall()
        raise
    return inst


def _einsum_wrapper(rec, einsum):
    multi, pair = rec.ids["numpy.einsum_multi"], rec.ids["numpy.einsum_pair"]

    @functools.wraps(einsum)
    def wrapped(*args, **kwargs):
        # inside a jets span the contraction is jet arithmetic
        if rec.in_jets or not args or not isinstance(args[0], str):
            return einsum(*args, **kwargs)
        operands = len(args) - 1
        if operands >= 3:
            return rec.call(multi, einsum, args, kwargs, False, None)
        if operands == 2:
            return rec.call(pair, einsum, args, kwargs, False, None)
        return einsum(*args, **kwargs)

    return wrapped


# ---------------------------------------------------------------------------
# per-layer metrics


def _has_ancestor(parent, name, idx, target):
    """Whether an enclosing span of span ``idx`` has name id ``target``."""
    p = parent[idx]
    while p >= 0:
        if name[p] == target:
            return True
        p = parent[p]
    return False


def pass_metrics(arr, names, self_s, p, wall):
    """Per-layer figures of one traced pass ``p`` of wall time ``wall``."""
    ids = {n: i for i, n in enumerate(names)}
    sel = arr["pass"] == p
    name = arr["name"][sel]
    own = self_s[sel]
    dur = (arr["end"] - arr["start"])[sel]
    a, b = arr["a"][sel], arr["b"][sel]

    def mask(n):
        return name == ids[n]

    def calls(n):
        return int(np.count_nonzero(mask(n)))

    def own_s(n):
        return float(np.sum(own[mask(n)]))

    snaps = mask("geometry.snapshot")
    snaps_in_quad = sum(
        _has_ancestor(arr["parent"], arr["name"], i,
                      ids["quadrature.integral"])
        for i in np.nonzero(sel)[0][snaps])
    records = float(np.sum(a[mask("identities.verify")]))
    applicable = float(np.sum(b[mask("identities.verify")]))
    integrals = calls("quadrature.integral")
    entries = dur[mask("runner.entry")]
    top = arr["parent"][sel] < 0
    return {
        "dsl.parse_calls": calls("dsl.parse"),
        "dsl.parse_s": own_s("dsl.parse"),
        "dsl.eval_s": own_s("dsl.eval"),
        "jets.product_calls": calls("jets.product"),
        "jets.product_s": own_s("jets.product"),
        "jets.product_out_mb": float(np.sum(a[mask("jets.product")])) / 1e6,
        "jets.unary_s": own_s("jets.unary"),
        "jets.scale_s": own_s("jets.scale"),
        "ambient.metric_calls": calls("ambient.metric"),
        "ambient.metric_s": own_s("ambient.metric"),
        "calculus.calls": calls("calculus"),
        "calculus.self_s": own_s("calculus"),
        "numpy.einsum_multi_calls": calls("numpy.einsum_multi"),
        "numpy.einsum_multi_s": own_s("numpy.einsum_multi"),
        "numpy.einsum_pair_calls": calls("numpy.einsum_pair"),
        "numpy.einsum_pair_s": own_s("numpy.einsum_pair"),
        "geometry.snapshot_calls": int(np.count_nonzero(snaps)),
        "geometry.points": float(np.sum(a[snaps])),
        "geometry.rejected_points": float(np.sum(b[snaps])),
        "geometry.self_s": own_s("geometry.snapshot"),
        "identities.verify_s": own_s("identities.verify"),
        "identities.records": records,
        "identities.applicable_share":
            applicable / records if records else 0.0,
        "runner.sample_s": own_s("runner.sample"),
        "runner.record_s": own_s("runner.record"),
        "runner.json_s": own_s("runner.json"),
        "runner.entry_s_max": float(np.max(entries)) if entries.size else 0.0,
        "quadrature.integrals": integrals,
        "quadrature.snapshots_per_integral":
            snaps_in_quad / integrals if integrals else 0.0,
        "quadrature.self_s": own_s("quadrature.integral"),
        "trace.uncovered_share": 1.0 - float(np.sum(dur[top])) / wall,
    }


def layer_metrics(rec, traced_walls, untraced_walls):
    """Every per-layer metric: medians over the traced passes.

    traced_walls: {pass index: wall seconds} of the traced passes;
    untraced_walls: wall seconds of the interleaved untraced passes.
    """
    arr = rec.arrays()
    own = self_times(arr["start"], arr["end"], arr["parent"])
    per_pass = [pass_metrics(arr, rec.names, own, p, w)
                for p, w in sorted(traced_walls.items())]
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}

    setup = arr["pass"] == SETUP_PASS
    for metric, span in (("cli.import_s", "cli.import"),
                         ("identities.calibrate_s", "identities.calibrate")):
        out[metric] = float(np.sum(own[setup & (arr["name"] == rec.ids[span])]))
    traced = statistics.median(traced_walls.values())
    untraced = statistics.median(untraced_walls)
    out["trace.overhead_s"] = traced - untraced
    out["trace.overhead_share"] = (traced - untraced) / untraced
    return {k: out[k] for k in LAYER_UNITS}


def save_spans(rec, path, workload):
    """Write every recorded span (compressed numpy archive)."""
    arr = rec.arrays()
    np.savez_compressed(path, names=np.asarray(rec.names),
                        workload=np.asarray(workload), **arr)
