"""Planned point contractions: ``calculus.contract`` and where it is used."""

import ast
from pathlib import Path

import numpy as np
import pytest

from kangle import calculus
from kangle.calculus import contract

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
    for batch in (7, 48):
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
