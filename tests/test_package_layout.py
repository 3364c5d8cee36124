"""Package layout: a package ``__init__`` is its docstring and nothing else.

Callers import from the defining module (``repro.sim.kernel``, not
``repro.sim``).  A re-export layer hides import cycles and lets two
names for one object drift apart, so this test keeps it from growing
back.
"""

import ast
from pathlib import Path

import pytest

PACKAGE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
INITS = sorted(PACKAGE_ROOT.glob("*/__init__.py"))


def test_the_packages_are_found():
    assert INITS, f"no package __init__.py under {PACKAGE_ROOT}"


@pytest.mark.parametrize("path", INITS, ids=[p.parent.name for p in INITS])
def test_init_is_docstring_only(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1, f"{path.parent.name}/__init__.py has code"
