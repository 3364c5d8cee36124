"""Cell-identity pin: every campaign builds exactly these cells.

For every campaign x {full, quick} scale x database, the SHA-256 of the
canonical JSON of every cell's key, label and
:func:`~repro.core.runner.cell_identity` (resolved config, warm runs,
measured runs — the form the cell cache is keyed by).  No simulation
runs, so this is milliseconds;
with the engine untouched, equal cells mean (by the determinism the
replay pin proves) equal payloads — so a refactor of the campaign layer
that keeps these digests has altered no result.

The digests are ``tests/golden/pins/test_campaign_cells_pin.txt``;
``git log tests/golden`` says when and why each one moved.
"""

import hashlib
import json

import pytest

from repro.core.runner import cell_identity
from repro.core.sweep import (CAMPAIGNS, CHECK_CL_MODES, NODE_FAULT_KINDS,
                              campaign_cells)
from tests.conftest import PINS, read_pins

pytestmark = pytest.mark.hashseed


def _check_cells(db, scale):
    return [cell
            for mode in sorted(CHECK_CL_MODES)
            for fault in (None,) + NODE_FAULT_KINDS
            for no_repair in (False, True)
            for cell in campaign_cells("check", db, scale, cl=mode, seeds=3,
                                       fault=fault, no_repair=no_repair)]


def _cells(name, db, scale):
    """Every axis at its full legal range (a superset of the CLI
    default), so no reachable cell escapes the digest."""
    campaign = CAMPAIGNS[name]
    if name == "check":  # its flags pick one template; pin all of them
        return _check_cells(db, scale)
    return campaign_cells(
        name, db, scale,
        **{axis.name: axis.values for axis in campaign.axes},
        **{arg.dest: arg.kwargs["default"] for arg in campaign.extra})


def cells_digest(cells) -> str:
    identity = [[cell.key, cell.label, cell_identity(cell)]
                for cell in cells]
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _cases():
    for campaign in CAMPAIGNS.values():
        if campaign.cells is None:  # table1 runs nothing
            continue
        for scale_name in ("full", "quick"):
            scale = getattr(campaign, scale_name)
            for db in campaign.dbs:
                yield (f"{campaign.name}/{scale_name}/{db}", campaign.name,
                       scale, db)


CASES = list(_cases())


def test_every_case_is_pinned():
    pins = read_pins(PINS / "test_campaign_cells_pin.txt")
    assert sorted(pins) == sorted(
        f"test_campaign_cells_unchanged[{case[0]}]" for case in CASES)


@pytest.mark.parametrize("case_id,name,scale,db", CASES,
                         ids=[case[0] for case in CASES])
def test_campaign_cells_unchanged(case_id, name, scale, db, golden):
    cells = _cells(name, db, scale)
    assert cells, "a campaign with no cells pins nothing"
    golden(cells_digest(cells))
