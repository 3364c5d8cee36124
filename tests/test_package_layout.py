"""Package layout: a package ``__init__`` is its docstring and nothing else,
only the harness imports the harness, and no module imports a name it
never uses.

Callers import from the defining module (``repro.sim.kernel``, not
``repro.sim``).  A re-export layer hides import cycles and lets two
names for one object drift apart, so this test keeps it from growing
back.  No module outside ``repro/core`` imports ``repro.core``, and a
record a component takes is defined beside that component.
"""

import ast
import dataclasses
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core import config

PACKAGE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
INITS = sorted(PACKAGE_ROOT.glob("*/__init__.py"))
TESTS_ROOT = Path(__file__).resolve().parent


@lru_cache(maxsize=None)
def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_the_packages_are_found():
    assert INITS, f"no package __init__.py under {PACKAGE_ROOT}"


@pytest.mark.parametrize("path", INITS, ids=[p.parent.name for p in INITS])
def test_init_is_docstring_only(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1, f"{path.parent.name}/__init__.py has code"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_components_do_not_import_the_harness():
    """The harness (``repro.core``) imports the components, never the
    other way round: a component takes the record the harness hands it
    and knows nothing of cells, campaigns or the CLI."""
    offending = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        where = path.relative_to(PACKAGE_ROOT)
        if where.parts[0] == "core":
            continue
        names = [name for name in _imported_modules(_tree(path))
                 if name == "repro.core" or name.startswith("repro.core.")]
        if names:
            offending[str(where)] = names
    assert offending == {}


def test_the_harness_re_exports_the_components_records():
    """Every record ``core/config.py`` re-exports is defined beside the
    component that takes it; only the cell itself and the energy model
    the harness reads are the harness's own."""
    records = [getattr(config, name) for name in config.__all__]
    records = [r for r in records
               if isinstance(r, type) and dataclasses.is_dataclass(r)]
    own = {r.__name__ for r in records
           if r.__module__.startswith("repro.core.")}
    assert len(records) > 2
    assert own == {"ExperimentConfig", "EnergyConfig"}


def _imports_of(where):
    return set(_imported_modules(_tree(PACKAGE_ROOT / where)))


def test_the_ycsb_client_imports_no_engine():
    """The YCSB client tells a failed operation from a bug by the
    :class:`~repro.sim.kernel.ModelledFailure` marker alone, so it
    imports no database engine, no transport and no bounded stage."""
    forbidden = ("repro.cassandra", "repro.hbase", "repro.cluster")
    offending = sorted(
        name for name in _imports_of("ycsb/client.py")
        if name == "repro.sim.resources"
        or any(name == pkg or name.startswith(pkg + ".")
               for pkg in forbidden))
    assert offending == []


def test_the_history_recorder_does_not_import_the_ycsb_client():
    assert "repro.ycsb.client" not in _imports_of("consistency/history.py")


def _bound_names(node):
    """The names an import statement binds (none for ``__future__``)."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.partition(".")[0]
                for alias in node.names]
    if node.module == "__future__":
        return []
    return [alias.asname or alias.name for alias in node.names]


def _module_level(tree):
    """The statements at module level, into ``if`` / ``try`` bodies."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            pending += node.body + node.orelse + getattr(
                node, "finalbody", []) + [
                stmt for handler in getattr(node, "handlers", [])
                for stmt in handler.body]


def _referenced_names(tree):
    """Every name the module reads: loaded names, the strings of
    ``__all__``, and the names inside string annotations."""
    names, annotations = set(), []
    for node in ast.walk(tree):
        kind = type(node)
        if kind is ast.Name:
            if type(node.ctx) is not ast.Store:
                names.add(node.id)
        elif kind is ast.arg or kind is ast.AnnAssign:
            annotations.append(node.annotation)
        elif kind is ast.FunctionDef or kind is ast.AsyncFunctionDef:
            annotations.append(node.returns)
        elif kind is ast.Assign and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names.update(item.value for item in ast.walk(node.value)
                         if isinstance(item, ast.Constant))
    for annotation in filter(None, annotations):
        for item in ast.walk(annotation):
            if isinstance(item, ast.Constant) and isinstance(item.value, str):
                names |= _referenced_names(ast.parse(item.value, mode="eval"))
    return names


def _unused_imports(path):
    tree = _tree(path)
    used = _referenced_names(tree)
    return sorted(name for node in _module_level(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  for name in _bound_names(node) if name not in used)


@pytest.mark.hashseed
def test_no_module_imports_a_name_it_never_uses():
    """An unused import is left behind by a deletion: it keeps a
    dependency the code no longer has and hides from a reader what the
    module really uses."""
    offending = {}
    for root in (PACKAGE_ROOT, TESTS_ROOT):
        for path in sorted(root.rglob("*.py")):
            unused = _unused_imports(path)
            if unused:
                offending[str(path.relative_to(root.parent))] = unused
    assert offending == {}
