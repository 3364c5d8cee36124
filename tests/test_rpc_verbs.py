"""Every RPC verb a node registers is sent from somewhere.

A handler that no code path calls is dead model code that still looks
load-bearing.  This is a static check over the package source: each
``register("verb", ...)`` must have its verb string appear outside the
registrations too, as the verb argument of a call or a variable that
feeds one.
"""

import ast
from pathlib import Path

import repro


def _verbs():
    """(registered verb -> registration sites, every other string literal)."""
    registered: dict[str, list[str]] = {}
    literals: set[str] = set()
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        registrations = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "register" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                verb = node.args[0]
                registrations.add(id(verb))
                registered.setdefault(verb.value, []).append(
                    f"{path.relative_to(root)}:{verb.lineno}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in registrations):
                literals.add(node.value)
    return registered, literals


def test_every_registered_verb_has_a_sender():
    registered, literals = _verbs()
    assert registered, "found no register() calls: the scan is broken"
    unsent = {verb: sites for verb, sites in registered.items()
              if verb not in literals}
    assert not unsent, f"verbs registered but never sent: {unsent}"
