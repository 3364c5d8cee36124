"""Package layout: a package ``__init__`` is its docstring and nothing else,
and only the harness imports the harness.

Callers import from the defining module (``repro.sim.kernel``, not
``repro.sim``).  A re-export layer hides import cycles and lets two
names for one object drift apart, so this test keeps it from growing
back.  No module outside ``repro/core`` imports ``repro.core``, and a
record a component takes is defined beside that component.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.core import config

PACKAGE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
INITS = sorted(PACKAGE_ROOT.glob("*/__init__.py"))


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
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [name for name in _imported_modules(tree)
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
    path = PACKAGE_ROOT / where
    return set(_imported_modules(ast.parse(path.read_text(encoding="utf-8"))))


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
