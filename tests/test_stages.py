"""Declared snapshot stages and readers.

Every stage of ``geometry.STAGES`` writes exactly the keys it declares;
every reader (identity suite, runner check, integrand, CLI command) reads
exactly the keys it declares, and gives the same output on a snapshot
computed with ``reads=`` its declaration as on a full one; every key of a
full snapshot has a reader or a reason on an allowlist.
"""

import ast
import contextlib
import dataclasses
import functools
import inspect
import io
import textwrap
from pathlib import Path

import numpy as np
import pytest

from kangle import cli, geometry, jets, quadrature, runner
from kangle.catalog import builtin_catalog, get_entry
from kangle.errors import UsageError
from kangle.identities import SUITE_READERS

SRC = Path(geometry.__file__).resolve().parent

# n=1, n=2 equal-angle, n=3, Lagrangian, curved (n=1 and n=2), and the
# quaternionic graph, equal-angle with a complex point at the origin
CASES = ("slant_cylinder", "ds_graph", "slant_product_6", "lagrangian_torus_4",
         "trig_sf_pos", "lagrangian_torus_sf_pos", "quaternionic_graph")

# keys of a full snapshot that no production reader declares, with the reason
ALLOWLIST = {
    "pair_gap": "numerical health, unread until the report's health block "
                "(ROADMAP item 1)",
    "sumRM_imag": "numerical health, unread until the report's health block "
                  "(ROADMAP item 1)",
    "near_equal_warn": "numerical health, unread until the report's health "
                       "block (ROADMAP item 1) or until the jet-level "
                       "equal-angle gate (ROADMAP item 19) replaces it",
}


def _suite(fn):
    return lambda entry, snap: fn(snap)


# the readers that take a snapshot, as f(entry, snap)
SNAPSHOT_READERS = {
    **{name: _suite(fn) for name, fn in SUITE_READERS.items()},
    "check_expected": runner.check_expected,
    "gauss_equation_residual":
        lambda entry, snap: geometry.gauss_equation_residual(snap),
}
DECLARED = {**{name: fn.reads for name, fn in SUITE_READERS.items()},
            "check_expected": runner.check_expected.reads,
            "gauss_equation_residual": geometry.gauss_equation_residual.reads}


def _points(entry, count=6, seed=11):
    return runner.sample_points(entry.box, count, seed)


@functools.cache
def _full(name):
    entry = get_entry(name)
    return geometry.compute_snapshot(entry.spec(), _points(entry))


class Recording(dict):
    """A dict that logs every key read through ``[]`` or ``get``."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __getitem__(self, key):
        self.log.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.log.add(key)
        return super().get(key, default)


def _recording(snap, log=None):
    """A shallow copy of snap whose key reads land in the returned set."""
    log = set() if log is None else log
    return dataclasses.replace(
        snap, data=Recording(snap.data, log), jets=Recording(snap.jets, log),
        masks=Recording(snap.masks, log)), log


def _same(a, b):
    """Exact equality through dicts, lists, dataclasses (field by field)
    and arrays; NaN equals NaN in float arrays."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and _same(vars(a), vars(b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if np.asarray(a).dtype == object:
            return np.array_equal(a, b)
        return np.array_equal(a, b, equal_nan=True)
    return a == b


def _all_keys(snap):
    return set(snap.data) | set(snap.jets) | set(snap.masks)


@pytest.fixture
def stage_log(monkeypatch):
    """Run every stage through a wrapper that records, per stage name, the
    keys it reads from earlier stages and the keys it adds."""
    log = {"calls": [], "reads": {}, "wrote": {}}

    def wrap(stage):
        @functools.wraps(stage)
        def run(snap, work):
            seen = set()
            for attr in ("data", "jets", "masks"):
                setattr(snap, attr, Recording(getattr(snap, attr), seen))
            before = _all_keys(snap)
            stage(snap, work)
            name = stage.__name__
            log["calls"].append(name)
            log["wrote"][name] = _all_keys(snap) - before
            log["reads"].setdefault(name, set()).update(
                seen - set(stage.writes))
        return run

    monkeypatch.setattr(geometry, "STAGES",
                        tuple(wrap(s) for s in geometry.STAGES))
    return log


# ---------------------------------------------------------------- stages

def test_every_stage_writes_what_it_declares(stage_log):
    names = [s.__name__ for s in geometry.STAGES]
    for case in ("slant_cylinder", "slant_product_6"):
        stage_log["calls"].clear()
        entry = get_entry(case)
        snap = geometry.compute_snapshot(entry.spec(), _points(entry))
        assert stage_log["calls"] == names
        for stage in geometry.STAGES:
            want = set(stage.writes) - ({"cos_signed"} if snap.n != 1 else set())
            assert stage_log["wrote"][stage.__name__] == want, stage.__name__
    written = [k for s in geometry.STAGES for k in s.writes]
    assert len(written) == len(set(written))


def test_unknown_read_raises_usage_error(monkeypatch):
    """An unknown key fails before F is evaluated."""
    def evaluate(*args, **kwargs):
        raise AssertionError("F evaluated for an unknown key")

    monkeypatch.setattr(geometry, "eval_components", evaluate)
    entry = get_entry("trig_sf_neg")
    with pytest.raises(UsageError, match="no snapshot stage writes"):
        geometry.compute_snapshot(entry.spec(), _points(entry),
                                  reads=("cos_angles", "cos_anglez"))


def test_an_empty_batch_is_an_empty_snapshot():
    """On every catalog entry a batch of no points is a snapshot of size 0
    with nothing rejected and every key of a full snapshot, each of batch
    length 0."""
    for entry in builtin_catalog():
        spec = entry.spec()
        snap = geometry.compute_snapshot(spec,
                                         np.zeros((0, spec.domain_dim)))
        assert snap.size == 0 and snap.rejected == [], entry.name
        full = geometry.compute_snapshot(spec, _points(entry, count=1))
        for store in ("data", "jets", "masks"):
            assert set(getattr(snap, store)) == set(getattr(full, store)), (
                entry.name, store)
        for key, value in (*snap.data.items(), *snap.masks.items()):
            assert len(value) == 0, (entry.name, key)
        for key, jet in snap.jets.items():
            assert jet.value().shape[-1] == 0, (entry.name, key)


@pytest.mark.parametrize("case", CASES)
def test_every_snapshot_value_is_batch_first(case):
    snap = _full(case)
    for store in (snap.data, snap.masks):
        for key, value in store.items():
            assert np.shape(value)[:1] == (snap.size,), key


def _torus_calls(stage_log, key, grid=8):
    stage_log["calls"].clear()
    quadrature.torus_quadrature(get_entry("trig_sf_pos").spec(), key, grid)
    return list(stage_log["calls"])


def test_quadrature_runs_only_the_stages_its_integrands_need(stage_log):
    assert _torus_calls(stage_log, "volume") == ["_core"]
    assert _torus_calls(stage_log, "div_field") == ["_core", "_connection"]
    assert _torus_calls(stage_log, "delta_fw_norm2") == ["_core",
                                                         "_connection",
                                                         "_forms"]
    for key in ("hodge_pair", "lap_cos2"):
        assert _torus_calls(stage_log, key) == [
            "_core", "_connection", "_forms", "_form_laplacians"], key


def test_run_suite_runs_only_the_stages_its_suites_read(stage_log,
                                                        monkeypatch):
    """Each entry's snapshot is planned from the suites' declared reads:
    weitzenboeck reads up to sumRM, so the stages through _curvature run
    and the frame sums and masked fields never do."""
    calibrate = runner.calibrate_conventions

    def calibrate_then_clear(order):
        calibrate(order)
        stage_log["calls"].clear()   # the calibration surface's own plan

    monkeypatch.setattr(runner, "calibrate_conventions", calibrate_then_clear)
    report = runner.run_suite(suites=["weitzenboeck"], points=4, threads=1)
    names = [s.__name__ for s in geometry.STAGES]
    assert report["entries"]
    assert stage_log["calls"] == (names[:names.index("_curvature") + 1]
                                  * len(report["entries"]))


def test_without_reads_every_stage_runs(stage_log):
    entry = get_entry("ds_graph")
    geometry.compute_snapshot(entry.spec(), _points(entry))
    assert stage_log["calls"] == [s.__name__ for s in geometry.STAGES]


# --------------------------------------------------------------- readers

def test_every_suite_takes_only_the_snapshot():
    """The sign conventions are constants of the code, so no suite reader
    takes a second argument for them."""
    for name, fn in SUITE_READERS.items():
        params = inspect.signature(fn).parameters
        assert len(params) == 1, (name, list(params))


@pytest.mark.parametrize("reader", sorted(SNAPSHOT_READERS))
def test_declared_reads_are_exact(reader):
    fn, declared = SNAPSHOT_READERS[reader], set(DECLARED[reader])
    seen = set()
    for case in CASES:
        entry = get_entry(case)
        snap, log = _recording(_full(case))
        full_out = fn(entry, snap)
        assert log <= declared, (case, log - declared)
        seen |= log
        reduced = geometry.compute_snapshot(entry.spec(), _points(entry),
                                            reads=DECLARED[reader])
        assert _same(fn(entry, reduced), full_out), case
    assert seen == declared


def test_integrand_reads_are_exact():
    for key, fn in quadrature.INTEGRANDS.items():
        seen = set()
        for case in CASES:
            entry = get_entry(case)
            snap, log = _recording(_full(case))
            full_out = fn(snap)
            seen |= log
            reduced = geometry.compute_snapshot(entry.spec(), _points(entry),
                                                reads=fn.reads)
            assert _same(fn(reduced), full_out), (key, case)
        assert seen == set(fn.reads), key


def _full_snapshots(monkeypatch, module):
    """Make module.compute_snapshot ignore ``reads`` and log its keys."""
    compute = module.compute_snapshot
    log = set()

    def full(spec, points, reads=None, **kwargs):
        return _recording(compute(spec, points, **kwargs), log)[0]

    monkeypatch.setattr(module, "compute_snapshot", full)
    return log


def test_torus_quadrature_reads_only_the_volume_element(monkeypatch):
    spec = get_entry("trig_flat_2d").spec()
    keys = tuple(quadrature.INTEGRANDS)
    reduced = quadrature.torus_quadrature(spec, keys, 8)
    log = _full_snapshots(monkeypatch, quadrature)
    assert quadrature.torus_quadrature(spec, "volume", 8) > 0
    assert log == set(quadrature.torus_quadrature.reads)
    assert quadrature.torus_quadrature(spec, keys, 8) == reduced


def _listed(result):
    """An entry's report with its residual rows as a list."""
    return dict(result, residuals=list(result["residuals"]))


def test_run_entry_reads_are_exact(monkeypatch):
    results = {}
    for case in CASES:
        results[case] = runner._run_entry(get_entry(case), list(SUITE_READERS),
                                          6, 11, 3, 1e-7, 1e-5, 0)
    log = _full_snapshots(monkeypatch, runner)
    for case in CASES:
        full = runner._run_entry(get_entry(case), list(SUITE_READERS), 6, 11,
                                 3, 1e-7, 1e-5, 0)
        assert full[1] == results[case][1] == 3, case
        assert _listed(full[0]) == _listed(results[case][0]), case
    # _run_entry's own reads: with every reader it calls silenced
    for name, result in (("check_expected", []), ("judge_suites", []),
                         ("evaluate_hypothesis_fields", {})):
        monkeypatch.setattr(runner, name, geometry.reads()(
            lambda *args, result=result, **kwargs: result))
    log.clear()
    for case in CASES:
        runner._run_entry(get_entry(case), [], 6, 11, 3, 1e-7, 1e-5, 0)
    assert log == set(runner._run_entry.reads)


def _eval_text(case, point):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["eval", "--entry", case, "--point", point]) == 0
    return out.getvalue()


def test_cli_eval_reads_are_exact(monkeypatch):
    points = {case: ",".join(repr(float(v)) for v in _points(get_entry(case),
                                                              1)[0])
              for case in CASES}
    reduced = {case: _eval_text(case, points[case]) for case in CASES}
    log = _full_snapshots(monkeypatch, cli)
    for case in CASES:
        assert _eval_text(case, points[case]) == reduced[case], case
    assert log == set(cli._cmd_eval.reads)


# ------------------------------------------------------- key coverage

def test_every_snapshot_key_has_a_reader(stage_log):
    production = set().union(
        *DECLARED.values(), runner._run_entry.reads, cli._cmd_eval.reads,
        quadrature.torus_quadrature.reads,
        *(fn.reads for fn in quadrature.INTEGRANDS.values()))
    keys = set()
    for case in ("slant_cylinder", "ds_graph", "lagrangian_torus_sf_pos"):
        entry = get_entry(case)
        keys |= _all_keys(geometry.compute_snapshot(entry.spec(),
                                                    _points(entry)))
    staged = set().union(*stage_log["reads"].values())
    unread = keys - production - staged
    assert unread == set(ALLOWLIST), unread ^ set(ALLOWLIST)
    assert production <= keys


# ------------------------------------------------------- demand orders

def _values(snap):
    return {**snap.data, **{f"mask:{k}": v for k, v in snap.masks.items()}}


def test_every_stage_declares_its_keys_and_order():
    for stage in geometry.STAGES:
        assert stage.writes, stage.__name__
        assert type(stage.order) is int, stage.__name__
        assert 1 <= stage.order <= jets.MAX_ORDER, stage.__name__
    # the order F is formed at comes from the declarations alone
    tree = ast.parse(textwrap.dedent(
        inspect.getsource(geometry.compute_snapshot)))
    body = [node for part in tree.body[0].body for node in ast.walk(part)]
    assert not any(isinstance(node, ast.Call)
                   and getattr(node.func, "id", "") == "min"
                   and any(isinstance(arg, ast.Constant) for arg in node.args)
                   for node in body)


def test_deeper_declared_orders_change_no_value(monkeypatch):
    """No stage reads past its declared order: with every declaration one
    deeper, F is formed at order 4 and every array and mask of the
    default snapshot is unchanged."""
    default = {case: _full(case) for case in CASES}
    for stage in geometry.STAGES:
        monkeypatch.setattr(stage, "order", stage.order + 1)
    for case in CASES:
        entry = get_entry(case)
        deep = geometry.compute_snapshot(entry.spec(), _points(entry), order=4)
        assert deep.order == 4
        want = _values(default[case])
        got = _values(deep)
        assert got.keys() == want.keys(), case
        for key, value in want.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(got[key], value, equal_nan=True), \
                    (case, key)


def _deepening_stages():
    """The stages that declare an order above every earlier stage's."""
    deepening, deepest = [], 0
    for stage in geometry.STAGES:
        if stage.order > deepest:
            deepening.append(stage.__name__)
            deepest = stage.order
    return deepening


@pytest.mark.parametrize("name", _deepening_stages())
def test_a_shallower_declaration_cannot_make_the_stage(name, monkeypatch):
    """Each stage that deepens the jets reads its declared order: one
    order less leaves a jet to differentiate at order 0."""
    stage = getattr(geometry, name)
    monkeypatch.setattr(stage, "order", stage.order - 1)
    entry = get_entry("trig_sf_pos")
    with pytest.raises(UsageError, match="order-0 jet"):
        geometry.compute_snapshot(entry.spec(), _points(entry),
                                  reads=stage.writes)


@pytest.fixture
def asked_orders(monkeypatch):
    """The orders ``eval_components`` is asked for, in call order."""
    asked, evaluate_F = [], geometry.eval_components

    def evaluate(spec, points, order):
        asked.append(order)
        return evaluate_F(spec, points, order=order)

    monkeypatch.setattr(geometry, "eval_components", evaluate)
    return asked


@pytest.mark.parametrize("key, order", [
    ("volume", 1), ("div_field", 2), ("delta_fw_norm2", 2),
    ("hodge_pair", 3), ("lap_cos2", 3),
    (("volume", "div_field", "hodge_pair", "delta_fw_norm2"), 3)])
def test_torus_integrals_form_f_at_their_stages_order(key, order,
                                                     asked_orders):
    quadrature.torus_quadrature(get_entry("trig_sf_pos").spec(), key, 8)
    assert asked_orders == [order]


def test_an_order_below_the_stages_raises_before_F(asked_orders):
    """An order below the deepest the planned stages declare is refused by
    name, before F is evaluated; a volume integral needs only order 1."""
    too_low = r"order 2 is too low: .* need F to order 3"
    spec = get_entry("trig_sf_pos").spec()
    with pytest.raises(UsageError, match=too_low):
        geometry.compute_snapshot(get_entry("ds_graph").spec(),
                                  _points(get_entry("ds_graph")), order=2)
    with pytest.raises(UsageError, match=too_low):
        runner.run_suite(entries=["trig_sf_pos"], points=4, order=2)
    with pytest.raises(UsageError, match=too_low):
        quadrature.torus_quadrature(spec, "hodge_pair", 8, order=2)
    assert asked_orders == []
    assert quadrature.torus_quadrature(spec, "volume", 8, order=1) > 0
    assert asked_orders == [1]


def test_stored_jets_are_built_to_their_readers_order(asked_orders):
    entry = get_entry("trig_sf_pos")
    snap = geometry.compute_snapshot(entry.spec(), _points(entry), order=4)
    assert asked_orders == [3]
    assert snap.order == max(s.order for s in geometry.STAGES) == 3
    assert {k: jet.order for k, jet in snap.jets.items()} == {
        "g": 2, "g_inv": 2, "gamma": 1, "cos2": 2, "delta_W": 1,
        "W_sharp": 1}


# ------------------------------------------------------------ source

def _product(node):
    """A jet product expression: a jet_einsum call or a `*`."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, ast.Mult)
    if isinstance(node, ast.Call):
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
        return name == "jet_einsum"
    return False


def _truncated_products(source):
    """Lines where .truncated( is applied to a product result, directly or
    through a name bound to one in the same function."""
    bad = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        products = {t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                    and _product(node.value) for t in node.targets
                    if isinstance(t, ast.Name)}
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "truncated":
                recv = node.func.value
                if _product(recv) or (isinstance(recv, ast.Name)
                                      and recv.id in products):
                    bad.append(node.lineno)
    return bad


def test_no_product_is_truncated_after_the_fact():
    assert _truncated_products(
        "def f(g, s, o):\n"
        "    t = jet_einsum('kij...,k...->ij...', g, s)\n"
        "    return t.truncated(o) - jet_einsum('a,a->', g, s).truncated(o)\n"
    ) == [3, 3]
    # ambient.py does the jet products along F and jets.py the Horner
    # steps; each file scanned truncates operands, so a scan that finds
    # nothing has something to look at
    for name in ("ambient.py", "calculus.py", "geometry.py", "jets.py"):
        source = (SRC / name).read_text(encoding="utf-8")
        assert ".truncated(" in source, name
        assert _truncated_products(source) == [], name


def test_every_reads_argument_is_a_declared_set():
    """No `reads=` in the package spells out key names: each is built from
    readers' `.reads` declarations."""
    found = 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            bound = {t.id: node.value for node in ast.walk(fn)
                     if isinstance(node, ast.Assign) for t in node.targets
                     if isinstance(t, ast.Name)}
            for node in ast.walk(fn):
                if not isinstance(node, ast.keyword) or node.arg != "reads":
                    continue
                value = node.value
                if isinstance(value, ast.Name) and value.id == "reads":
                    continue            # a parameter passed straight on
                if isinstance(value, ast.Name):
                    value = bound[value.id]
                parts = list(ast.walk(value))
                where = f"{path.name}:{node.value.lineno}"
                assert not any(isinstance(p, ast.Constant)
                               and isinstance(p.value, str) for p in parts), where
                assert any(isinstance(p, ast.Attribute) and p.attr == "reads"
                           for p in parts), where
                found += 1
    assert found == 4          # calibration, runner, quadrature, CLI eval
