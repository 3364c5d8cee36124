"""Every value a cell's record carries is a knob some cell turns.

Flattens :func:`~repro.core.config.config_to_dict` over every cell the
campaign table builds (the set ``tests/test_campaign_cells_pin.py``
pins) plus the benchmark's three cell configs, and counts the distinct
values each leaf takes.  A leaf with one value everywhere is a constant
of the code that reads it, not a field of the record: the cell cache,
the identity pins and every composition test would otherwise carry it
for nothing.  No simulation runs.

The campaigns' :class:`~repro.core.sweep.Scale` gets the same check one
level up: a field that no campaign's ``quick`` changes from its ``full``
is a constant of the builder that reads it, not a scale knob.
"""

import dataclasses
import importlib.util
import json
import sys
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core.config import config_to_dict
from repro.core.sweep import CAMPAIGNS, Scale
from tests.test_campaign_cells_pin import CASES, _cells

pytestmark = pytest.mark.hashseed

#: Leaves allowed a single value, each with its reason.  A prefix ending
#: in ``.`` covers a whole record.
ALLOWED = {
    # Table 1's registry rows are data, not cell knobs.
    "workload.": "a YCSB workload definition",
    # A fault's target is not a tuning value.
    "faults[].node_id": "which node a fault hits",
    # The benchmark's cells pass these two by keyword.
    "arrivals.n_tenants": "named by the benchmark's overload cell",
    "clienttier.retry_backoff_s": "named by the benchmark's overload cell",
}


def _bench_configs():
    path = Path(__file__).resolve().parents[1] / "bench" / "adapter.py"
    spec = importlib.util.spec_from_file_location("_bench_adapter", path)
    adapter = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses resolve their annotations there.
    sys.modules[spec.name] = adapter
    spec.loader.exec_module(adapter)
    return [workload.make_config(42)
            for workload in adapter.WORKLOADS.values()
            if isinstance(workload, adapter.Cell)]


def _flatten(value, path, into):
    """Record every leaf of ``value`` under its dotted ``path``; a list
    of records (the fault schedule) is one ``path[]`` record."""
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{path}.{key}" if path else key, into)
    elif isinstance(value, list) and value \
            and all(isinstance(item, dict) for item in value):
        for item in value:
            _flatten(item, path + "[]", into)
    else:
        into[path].add(json.dumps(value, sort_keys=True))


@lru_cache(maxsize=None)
def configs() -> tuple:
    """Every product cell's config and the benchmark's."""
    return tuple([cell.config for _, name, scale, db in CASES
                  for cell in _cells(name, db, scale)] + _bench_configs())


@lru_cache(maxsize=None)
def census() -> dict:
    """``leaf path -> distinct values`` over the product cells and the
    benchmark's; a path that is a record anywhere (``arrivals``, when
    other cells leave it ``None``) is not a leaf."""
    values = defaultdict(set)
    for config in configs():
        _flatten(config_to_dict(config), "", values)
    records = {path[:end].removesuffix("[]") for path in values
               for end, char in enumerate(path) if char == "."}
    return {path: found for path, found in values.items()
            if path not in records}


def test_every_cell_carries_one_engine():
    """A cell's identity holds the record of the engine it runs, under
    that engine's name, and no other engine's."""
    engines = {"hbase", "cassandra"}
    for config in configs():
        carried = engines & set(config_to_dict(config))
        assert carried == {config.db}, (config.db, sorted(carried))


def _allowed(path: str) -> bool:
    return any(path.startswith(name) if name.endswith(".") else path == name
               for name in ALLOWED)


def test_every_leaf_takes_two_values():
    single = sorted(path for path, found in census().items()
                    if len(found) < 2 and not _allowed(path))
    assert single == [], "single-valued leaves: " + ", ".join(single)


def test_every_allowance_is_still_needed():
    """An allowance whose leaf now varies (or is gone) is stale."""
    values = census()
    for name in ALLOWED:
        matching = [path for path in values
                    if (path.startswith(name) if name.endswith(".")
                        else path == name)]
        assert any(len(values[path]) < 2 for path in matching), name


#: ``Scale`` fields allowed to agree between every campaign's ``full``
#: and ``quick``, each with its reason.
SCALE_ALLOWED = {
    "seed": "the check campaign varies it per cell, and --seeds N runs "
            "every campaign at several",
}


def test_every_scale_field_differs_between_full_and_quick():
    """``Scale`` carries what ``--quick`` changes; a field every
    campaign's ``quick`` shares with its ``full`` is a constant beside
    the builder that reads it.  An allowance whose field now differs
    (or is gone) is stale."""
    scaled = [c for c in CAMPAIGNS.values() if c.full is not None]
    fixed = [field.name for field in dataclasses.fields(Scale)
             if all(getattr(c.full, field.name)
                    == getattr(c.quick, field.name) for c in scaled)]
    unexplained = [name for name in fixed if name not in SCALE_ALLOWED]
    assert unexplained == [], "scale fields --quick never changes: " \
        + ", ".join(unexplained)
    assert set(SCALE_ALLOWED) <= set(fixed), "stale allowance"
