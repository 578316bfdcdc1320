"""Planned point contractions: ``calculus.contract`` and where it is used."""

import ast
import threading
from pathlib import Path

import numpy as np
import pytest

from kangle import calculus
from kangle.calculus import contract
from kangle.errors import UsageError

SRC = Path(calculus.__file__).resolve().parent


def _callee(func):
    """The function a call names: np.einsum, np.einsum_path, contract or
    None for any other."""
    if isinstance(func, ast.Attribute):
        if func.attr in ("einsum", "einsum_path") \
                and isinstance(func.value, ast.Name) \
                and func.value.id in ("np", "numpy"):
            return f"np.{func.attr}"
        if func.attr == "contract":
            return "contract"
    if isinstance(func, ast.Name) and func.id == "contract":
        return "contract"
    return None


def _package_calls():
    """(file:line, callee, call node) of every call _callee names in the
    package, leaving out the body of contract itself."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(n) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "contract"
                  for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in inside:
                callee = _callee(node.func)
                if callee:
                    yield f"{path.name}:{node.lineno}", callee, node


def _operand_count(call):
    """Operands of an einsum call, or None when a starred list hides them."""
    first = call.args[0] if call.args else None
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return len(first.value.split("->")[0].split(","))
    if any(isinstance(a, ast.Starred) for a in call.args):
        return None
    return len(call.args) - 1


ROUTED = sorted({node.args[0].value for _, callee, node in _package_calls()
                 if callee == "contract"})


def test_routed_call_sites_found():
    # the heavy point contractions of geometry, identities and the CLI
    assert "bik,bjl,bijA,bAB,bklB->b" in ROUTED
    assert "bijkl,bik,bjl->b" in ROUTED
    assert len(ROUTED) >= 15


@pytest.mark.parametrize("subscripts", ROUTED)
def test_contract_matches_einsum(subscripts):
    inputs, _ = subscripts.split("->")
    labels = sorted(set(inputs.replace(",", "")) - {"b"})
    size = {lab: 2 + k % 4 for k, lab in enumerate(labels)}
    rng = np.random.default_rng(11)
    key_count = None
    for batch in (1, 7, 48):
        size["b"] = batch
        ops = [rng.standard_normal([size[c] for c in term])
               for term in inputs.split(",")]
        got = contract(subscripts, *ops)
        want = np.einsum(subscripts, *ops)
        assert got.shape == want.shape
        scale = np.max(np.abs(want)) + 1e-300
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        if key_count is None:
            key_count = len(calculus._PLANS)
        else:
            # the plan is keyed past the batch axis: no second entry
            assert len(calculus._PLANS) == key_count


def test_no_unplanned_heavy_einsum():
    """Only contract may run an einsum of four or more operands or plan a
    path; every other np.einsum is a plain call."""
    offenders = []
    for where, callee, node in _package_calls():
        if callee == "np.einsum_path":
            offenders.append(f"{where} (einsum_path)")
        if callee != "np.einsum":
            continue
        count = _operand_count(node)
        if count is None or count >= 4:
            offenders.append(f"{where} ({count} operands)")
        if any(kw.arg == "optimize" for kw in node.keywords):
            offenders.append(f"{where} (optimize=)")
    assert not offenders, offenders


def test_no_private_numpy_import():
    """The compiled plan runs on public numpy alone: no module of the
    package imports from numpy._core or numpy.core."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} ({name})" for name in names
                          if name.split(".")[:2] in (["numpy", "_core"],
                                                     ["numpy", "core"])]
    assert not offenders, offenders


SUBSCRIPTS = "bik,bkl,bijl->bj"


def _operands(batch, rng):
    return [rng.standard_normal(shape) for shape in
            ((batch, 3, 4), (batch, 4, 2), (batch, 3, 5, 2))]


@pytest.fixture
def spy(monkeypatch):
    """Fresh plans, and a count of the np.einsum and np.einsum_path calls."""
    monkeypatch.setattr(calculus, "_PLANS", {})
    calls = {"einsum": 0, "einsum_path": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    return calls


def test_a_plan_is_made_once_per_key(spy):
    rng = np.random.default_rng(3)
    for batch in (1, 7, 48, 7, 1):
        contract(SUBSCRIPTS, *_operands(batch, rng))
    assert spy["einsum_path"] == 1
    # another trailing shape is another key
    contract(SUBSCRIPTS, *_operands(5, rng)[:2],
             rng.standard_normal((5, 3, 6, 2)))
    assert spy["einsum_path"] == 2
    assert len(calculus._PLANS) == 2


def test_a_replayed_call_runs_no_einsum(spy):
    rng = np.random.default_rng(4)
    contract(SUBSCRIPTS, *_operands(7, rng))
    spy.update(einsum=0, einsum_path=0)
    ops = _operands(48, rng)
    got = contract(SUBSCRIPTS, *ops)
    assert spy == {"einsum": 0, "einsum_path": 0}
    want = np.einsum(SUBSCRIPTS, *ops)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_threads_racing_on_a_fresh_key_both_get_einsums_result(monkeypatch):
    """Both threads plan the key (each waits in einsum_path for the other),
    so both store a plan; each still returns np.einsum's result."""
    monkeypatch.setattr(calculus, "_PLANS", {})
    barrier = threading.Barrier(2, timeout=30)
    einsum_path = np.einsum_path

    def racing(*args, **kwargs):
        barrier.wait()
        return einsum_path(*args, **kwargs)

    monkeypatch.setattr(np, "einsum_path", racing)
    rng = np.random.default_rng(5)
    inputs = [_operands(batch, rng) for batch in (7, 48)]
    results = [None, None]

    def run(k):
        results[k] = contract(SUBSCRIPTS, *inputs[k])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for ops, got in zip(inputs, results):
        want = np.einsum(SUBSCRIPTS, *ops)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert len(calculus._PLANS) == 1


@pytest.mark.parametrize("subscripts, shapes", [
    ("bij,bj->b", [(4, 2, 3), (4, 3)]),         # i summed within one operand
    ("bii,bi->b", [(4, 3, 3), (4, 3)]),         # a diagonal
    ("ib,ib->b", [(3, 4), (3, 4)]),             # no batch-first label
    ("bij->bji", [(4, 2, 3)]),                  # one operand, no pair
    ("bij,bjk->bik", [(4, 2, 3), (4, 1, 5)]),   # j broadcast from size 1
])
def test_a_step_that_is_not_a_batched_matmul_is_refused(
        subscripts, shapes, monkeypatch):
    monkeypatch.setattr(calculus, "_PLANS", {})
    ops = [np.ones(shape) for shape in shapes]
    with pytest.raises(UsageError, match="contract cannot compile"):
        contract(subscripts, *ops)
    assert not calculus._PLANS
