"""Every defaulted parameter is a knob some product caller turns.

Walks, by AST, the defaulted parameters of every class constructor and
module-level function in ``src/repro``, plus every method whose name is
defined once there, and every call to them in ``src/repro`` and in the
benchmark's ``bench/adapter.py`` and ``bench/drive.py`` (read, never
imported).  A parameter no such call passes takes its default on every
product path: it is a constant of the code that reads it, not a
parameter, even when a unit test passes a second value.  Calls in tests
and examples do not count; a callable handed on as a value (a callback,
a table entry) counts as passed everything, since its calls are out of
sight.  ``ALLOWED`` names the parameters kept anyway, with reasons.

The converse holds too: a default that every call overrides — in the
product, the benchmark, the tests and the examples alike — is a second
copy of a value its callers (or the record they read) already declare.
There a ``*``/``**`` call or a callable handed on as a value counts as
leaving every default out.  No simulation runs.
"""

import ast
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

import pytest

pytestmark = pytest.mark.hashseed

ROOT = Path(__file__).resolve().parents[1]
PRODUCT = ROOT / "src" / "repro"
CALLERS = (ROOT / "bench" / "adapter.py", ROOT / "bench" / "drive.py")
#: Callers whose calls count only as relying on a default.
EVERYWHERE = (ROOT / "tests", ROOT / "examples")

#: Parameters allowed to take only their default on product paths, each
#: with its reason, as ``"Callable(parameter)"``.
ALLOWED = {
    "CellRunner(cache_dir)": "a path: a deployment setting, not a model "
                             "value (tests point it at a scratch dir)",
    "KernelTracer(keep_lines)": "diagnostic output of a debugging tool",
    "build_parser(campaigns)": "CLI entry point: the campaign table comes "
                               "from the registry",
    "timeout(value)": "the value a timeout fires with is data its waiter "
                      "reads, as Timeout's own; the kernel tests tell "
                      "fired events apart by it",
    "HistoryRecorder(tag_writes)": "the probe/checker agreement tests "
                                   "record the staleness probe's integer "
                                   "sequence values untagged",
}


def _trees(paths):
    return [ast.parse(path.read_text(), str(path)) for path in paths]


def _params(func: ast.FunctionDef, drop_self: bool):
    """``(positional names, defaulted names)`` of ``func``."""
    args = func.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if drop_self:
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults):] \
        if args.defaults else []
    defaulted += [a.arg for a, default in zip(args.kwonlyargs,
                                              args.kw_defaults)
                  if default is not None]
    return positional, defaulted


def _callables(trees):
    """``name -> (positional, defaulted)`` for constructors (keyed by
    class name, inherited by subclasses that define none), module-level
    functions and uniquely named methods; and the names of the
    module-level functions and classes."""
    classes, methods, functions = {}, defaultdict(list), {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = _params(node, drop_self=False)
            elif isinstance(node, ast.ClassDef):
                bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
                init = None
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        if item.name == "__init__":
                            init = _params(item, drop_self=True)
                        elif not item.name.startswith("__"):
                            static = any(isinstance(d, ast.Name)
                                         and d.id == "staticmethod"
                                         for d in item.decorator_list)
                            methods[item.name].append(
                                _params(item, drop_self=not static))
                classes[node.name] = (bases, init)

    def constructor(name, seen=()):
        bases, init = classes[name]
        if init is not None:
            return init
        for base in bases:
            if base in classes and base not in seen:
                found = constructor(base, seen + (name,))
                if found is not None:
                    return found
        return None

    found = {}
    for name in classes:
        init = constructor(name)
        if init is not None:
            found[name] = init
    for name, signatures in methods.items():
        if len(signatures) == 1 and name not in functions \
                and name not in classes:
            found[name] = signatures[0]
    found.update(functions)
    return found, set(functions) | set(classes)


def _callee(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _super_init(call: ast.Call, cls: ast.ClassDef):
    """The base class a ``super().__init__(...)`` inside ``cls`` calls."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "__init__" \
            and isinstance(func.value, ast.Call) \
            and _callee(func.value) == "super" and cls.bases \
            and isinstance(cls.bases[0], ast.Name):
        return cls.bases[0].id
    return None


def _handed_on(parent, child) -> bool:
    """Whether ``child`` is a callable's name used as a value: a call's
    argument, a keyword's value, a container's element or an assigned
    value (not a call target, an annotation or a comparison)."""
    if not isinstance(child, (ast.Name, ast.Attribute)) \
            or not isinstance(child.ctx, ast.Load):
        return False
    if isinstance(parent, ast.Call):
        return child in parent.args and _callee(parent) != "isinstance"
    if isinstance(parent, ast.keyword) and parent.arg == _name(child):
        # Bound under its own name (``SimpleNamespace(Cluster=Cluster)``):
        # still called by that name, where the calls are seen directly.
        return False
    return isinstance(parent, (ast.keyword, ast.List, ast.Tuple, ast.Set,
                               ast.Dict, ast.Assign, ast.Return))


def _name(node) -> str:
    return node.attr if isinstance(node, ast.Attribute) else node.id


def _reference(node, functions):
    """The callable a handed-on reference names: a bare name only when
    it is a module-level function or class (a local variable may share
    a method's name), an attribute always."""
    name = _name(node)
    return name if isinstance(node, ast.Attribute) or name in functions \
        else None


def _calls(trees, signatures, functions):
    """``name -> (passed, omitted)``: the parameters some call in
    ``trees`` passes and the defaulted ones some call leaves out.  A
    ``*``/``**`` call or a callable handed on as a value (a callback, a
    table entry: its calls are out of sight) counts as both, ``"*"``."""
    passed, omitted = defaultdict(set), defaultdict(set)

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            visit(child, child if isinstance(child, ast.ClassDef) else cls)
            if _handed_on(node, child):
                name = _reference(child, functions)
                passed[name].add("*")
                omitted[name].add("*")
        if not isinstance(node, ast.Call):
            return
        name = _callee(node)
        if cls is not None:
            name = _super_init(node, cls) or name
        if name not in signatures:
            return
        positional, defaulted = signatures[name]
        if any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords):
            passed[name].add("*")
            omitted[name].add("*")
            return
        given = set(positional[:len(node.args)]) \
            | {k.arg for k in node.keywords}
        passed[name].update(given)
        omitted[name].update(set(defaulted) - given)

    for tree in trees:
        visit(tree)
    return passed, omitted


def _tally(paths, which: int) -> dict:
    """``"Callable(parameter)" -> True`` for every defaulted parameter,
    the value saying whether some call in ``paths`` passes it (``which``
    0) or leaves it out (1)."""
    product = sorted(PRODUCT.rglob("*.py"))
    signatures, functions = _callables(_trees(product))
    seen = _calls(_trees(product + paths), signatures, functions)[which]
    return {f"{name}({param})": "*" in seen[name] or param in seen[name]
            for name, (_, defaulted) in signatures.items()
            for param in defaulted}


@lru_cache(maxsize=None)
def census() -> dict:
    """Whether some product or benchmark call passes each default."""
    return _tally(list(CALLERS), 0)


@lru_cache(maxsize=None)
def default_census() -> dict:
    """Whether some call in the product, the benchmark, the tests or the
    examples leaves each default out (relies on it)."""
    return _tally(list(CALLERS) + sorted(
        path for tree in EVERYWHERE for path in tree.rglob("*.py")), 1)


def test_every_defaulted_parameter_is_passed_somewhere():
    unused = sorted(knob for knob, used in census().items()
                    if not used and knob not in ALLOWED)
    assert unused == [], "parameters only tests vary: " + ", ".join(unused)


def test_every_allowance_is_still_needed():
    """An allowance whose parameter a product call now passes (or that
    no longer exists) is stale."""
    knobs = census()
    for knob in ALLOWED:
        assert knobs.get(knob) is False, knob


def test_every_default_is_relied_on_somewhere():
    """A default every call overrides is dead: the value lives in the
    callers (or the record they read), not in the signature."""
    dead = sorted(knob for knob, omitted in default_census().items()
                  if not omitted)
    assert dead == [], "defaults no call relies on: " + ", ".join(dead)
