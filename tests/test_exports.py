"""Every public name has a production reader: each name in the ``__all__``
of a module of ``src/kangle`` is read in ``src/kangle`` outside its own
definition, or is on ALLOWLIST with the reason it has none.

A read is one of: ``from .module import name`` in another module
(``from . import name`` for the package's own names);
``alias.name`` in another module where ``alias`` is bound by
``from . import module [as alias]``; or a load of ``name`` in its own module
outside its definition and outside any function that binds ``name`` itself
(as a parameter or a local).  A parameter, local or attribute that is merely
spelled the same is not a read.  Names a module lists in ``__all__`` but
imports from another (the package's re-exported errors) define nothing
there and are skipped.  Every exception class the package defines is
raised in ``src/kangle``, so no caller catches a class nothing raises."""

import ast
import importlib
import inspect
from pathlib import Path

import kangle

SRC = Path(kangle.__file__).resolve().parent

ALLOWLIST = {
    "dsl.eval_components_floats":
        "a second evaluator of the DSL; only the finite-difference oracles "
        "of the tests and the bench's tracer call it",
    "identities.run_identity_suite":
        "row view for tests and the bench tracer's hooks, until those "
        "hooks move to the judged blocks",
    "geometry.gauss_equation_residual":
        "acceptance criterion 6's oracle of R^M, until the report reads it",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _module_names(tree):
    """The ``__all__`` node of a module and the names it lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return node, [elt.value for elt in node.value.elts]
    return None, []


def _definitions(tree, name):
    """The top-level statements of a module that define ``name``."""
    return [node for node in tree.body
            if getattr(node, "name", None) == name
            or isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == name for t in node.targets)]


def _cross_module_reads(tree, modules):
    """The (module, name) pairs ``tree`` reads from the other modules."""
    aliases, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    found.add((node.module or "__init__", alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.add((aliases[node.value.id], node.attr))
    return found


def _bound(function):
    """The names a function binds itself: its parameters and locals."""
    args = function.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    body = function.body if isinstance(function.body, list) else [
        function.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Load):
                names.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                names.add(node.name)
    return names


def _free_loads(node, bound=frozenset()):
    """The names loaded in ``node`` that no enclosing function binds."""
    if isinstance(node, ast.Name):
        return ({node.id} if isinstance(node.ctx, ast.Load)
                and node.id not in bound else set())
    if isinstance(node, FUNCTIONS):
        # decorators and defaults run in the enclosing scope
        outer = [*getattr(node, "decorator_list", []),
                 *node.args.defaults, *node.args.kw_defaults]
        inner = bound | _bound(node)
        body = node.body if isinstance(node.body, list) else [node.body]
        return (set().union(*(_free_loads(n, bound) for n in outer
                              if n is not None))
                | set().union(*(_free_loads(n, inner) for n in body)))
    return set().union(*(_free_loads(child, bound)
                         for child in ast.iter_child_nodes(node)))


def test_every_public_name_has_a_production_reader():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    unread = set()
    for module, tree in trees.items():
        listing, names = _module_names(tree)
        for name in names:
            definitions = _definitions(tree, name)
            if not definitions:
                continue
            own = set().union(*(_free_loads(node) for node in tree.body
                                if node is not listing
                                and node not in definitions))
            if name in own or any(
                    (module, name) in _cross_module_reads(other, trees)
                    for stem, other in trees.items() if stem != module):
                continue
            unread.add(f"{module}.{name}")
    assert unread == set(ALLOWLIST)


def test_a_namesake_parameter_or_attribute_is_not_a_read():
    """The guard above does not count a local, a parameter or an attribute
    of another object that happens to share a public name."""
    tree = ast.parse(
        "def reads(*keys):\n    pass\n"
        "def plan(reads=None):\n    return reads is not None\n"
        "def total(reads):\n    return reads\n"
        "def keys(integrands, k):\n    return integrands[k].reads\n"
        "def local():\n    reads = 1\n    return reads\n")
    definition = _definitions(tree, "reads")
    own = set().union(*(_free_loads(node) for node in tree.body
                        if node not in definition))
    assert "reads" not in own
    assert ("geometry", "reads") not in _cross_module_reads(
        ast.parse("def f(x):\n    return x.reads\n"), {"geometry"})
    assert ("geometry", "reads") in _cross_module_reads(
        ast.parse("from . import geometry as g\n"
                  "def f():\n    return g.reads\n"), {"geometry"})
    assert "reads" in set().union(*(_free_loads(node) for node in ast.parse(
        "def reads():\n    pass\n@reads()\ndef f(reads=1):\n    pass\n"
    ).body[1:]))


def _raised_names(tree):
    """The names of the classes ``tree`` raises, as ``raise Name(...)``,
    ``raise Name``, or with ``alias.Name`` in either."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return names


def test_every_exception_class_is_raised():
    """Each exception class defined in ``src/kangle`` is raised somewhere
    in ``src/kangle``, so a caller never catches a class nothing raises."""
    raised = set().union(*(
        _raised_names(ast.parse(path.read_text(), filename=str(path)))
        for path in SRC.glob("*.py")))
    defined = set()
    for path in SRC.glob("*.py"):
        name = "kangle" if path.stem == "__init__" else f"kangle.{path.stem}"
        module = importlib.import_module(name)
        defined |= {cls.__name__ for _, cls in inspect.getmembers(
            module, inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == name}
    assert defined and defined <= raised, defined - raised
