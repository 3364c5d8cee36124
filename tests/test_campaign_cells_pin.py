"""Cell-identity pin: every campaign builds exactly these cells.

For every campaign x {full, quick} scale x database, the SHA-256 of the
canonical JSON of every cell's ``(key, label, resolved config, runs,
warm)``.  No simulation runs, so this is milliseconds;
with the engine untouched, equal cells mean (by the determinism the
replay pin proves) equal payloads — so a refactor of the campaign layer
that keeps these digests has altered no result.

The digests were recorded at commit 0277d37, before the campaign table
replaced the per-campaign builders; re-record one only when a campaign's
cells are *meant* to change.  Re-recorded since: ``scale/quick/*`` when
the quick elasticity scale's diurnal peak went from 3x to 4x the base rate;
``fig1/full/*``, ``fig2/full/*`` and ``fig3/full/cassandra`` when the
figures' ``full`` scale became the 12 k-record one EXPERIMENTS.md is
generated from — until then the ``standard`` scale of a separate pytest
harness, whose cells at 6fd607e had exactly these digests.
``ablation/*`` was added with its campaign.  All 42 were re-recorded
once when ``EnergyConfig`` came to hold a ``PowerSpec`` and a
``CostSpec`` instead of copies of their fields: with ``energy.power``
and ``energy.cost`` flattened back into ``energy``, every cell hashed to
its old digest.  All 42 were re-recorded again when twenty settings that
only ever took one value (the storage engine's CPU costs, bloom rate,
compaction strategy and synchronous-log switch, six client-tier retry and
breaker knobs, HBase's failure-detection / recovery / move windows,
Cassandra's vnodes, the per-region staleness budgets) left the config:
with those leaves put back at their old defaults, every cell hashed to
its old digest.  ``geo/*`` were re-recorded when ``GeoConfig`` lost its
WAN latencies, WAN bandwidth and client-datacenter list (every cell used
the geo layout's defaults and a client in every datacenter): with those
three leaves put back at their old values, every cell hashed to its old
digest.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.core.config import config_to_dict
from repro.core.sweep import (CAMPAIGNS, CHECK_CL_MODES, NODE_FAULT_KINDS,
                              campaign_cells)


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


PINS = {
    "fig1/full/hbase":
        "6ecd4e4d0e5317b7e00975bdb18717cf0169fb234b8907987b4bf3eaf1030436",
    "fig1/full/cassandra":
        "3bdf758202499ea50607069e40fed0d61c0d7fecc03554b2728504247d567ee8",
    "fig1/quick/hbase":
        "bdb41f4dcafc375734e92b21676852c525d7607e90d94dea22525d11d4d40f15",
    "fig1/quick/cassandra":
        "d284456cb7d2d03b8031c1c21d9fd04ed961e5a8e2c59fa1ea04000b9b138e8d",
    "fig2/full/hbase":
        "842adc298884741d26ffb22f2c218baf81796de751707514cbcfd44d13ff69a0",
    "fig2/full/cassandra":
        "0421cf1e73dacfb3e3bd828032ef1cb3a30ee3714a4e3f9831638fba9ff5e41c",
    "fig2/quick/hbase":
        "844dda450d9fc6a9d6c57543d38dbfcb581ad623ccc3388890025b07b4e4ca65",
    "fig2/quick/cassandra":
        "edec260ab6f1776f6f3672be13934d8183cac6a20b2d69bc9a9cba84499cff82",
    "fig3/full/cassandra":
        "804fb00e6729eb5eacb386658a6620975972d650aa3a10542717497d2df1f90a",
    "fig3/quick/cassandra":
        "93f1ed38876978da9d96d5d3f6a7dfbe8441ff1eedd92aabee1e15febdb1bce5",
    "ablation/full/hbase":
        "043fe4b98ca9dfc85d740c33c437b71b0f7c7d0a3c5d700e9b94a27b8b80bb61",
    "ablation/full/cassandra":
        "8b4168e096cce41ab325f88b6a5853af84ed26024f695096be110b80c6675d01",
    "ablation/quick/hbase":
        "ecad8085e68f2656caadb58decdfda53e7de6a4dcf81b823c3fd91777612534e",
    "ablation/quick/cassandra":
        "37afd790e7afcbe146a6a13be6e0c511892ba511170ca2d672b7410f239b3595",
    "failover/full/hbase":
        "151c87e9834f232da4a49d38f2a3e9e6fcb32e6ac3486cc4bb3fc0bed1ff4cba",
    "failover/full/cassandra":
        "f22db7fd828ab622d8fd8e9915d2afd71be26286d42d75202c0242262dcaa363",
    "failover/quick/hbase":
        "8584f953ebfa18339eaf9d5fda6e8639f31a3969f12af9f750d254e3aed9b8cd",
    "failover/quick/cassandra":
        "4d16d839ca04c8ff714241cbc6334a29110c1269551ff28291b3dffe56457b7b",
    "tail/full/hbase":
        "eac484b1faba5c5907f2c3fcdf24aa7dd4b21fa918abfc0be3fb25b3d1b8cf06",
    "tail/full/cassandra":
        "8cad0453de532f57137351df2800419a34dcf2696dedf89e3e408f00baf1b7c1",
    "tail/quick/hbase":
        "b235f0e4e83508616bc956bdcab228765abde58b9e79a18ed1451bff46148a85",
    "tail/quick/cassandra":
        "976500084a52a96d0f7afe5c0fbbfd6b4c858e6547ab00bf48bcf73d32c4323b",
    "check/full/hbase":
        "965913f92ca2060575b21b44513cefdc75ba2fff1db72c4c9a0d1b5a6bb2f62a",
    "check/full/cassandra":
        "638e39254db159c60191580f253866b3fc5af0c53c89a1a218a055730b428d6e",
    "check/quick/hbase":
        "ba12bffb79ee500c3738d3a6d7c41332bb5e5c2b61611eeafefb028da87c4147",
    "check/quick/cassandra":
        "ff728bf03d83b0b52330bdd2f4a5472cdfb96fa11bbf5872f3cfcbae29c44e28",
    "adaptive/full/cassandra":
        "cdc85dba9da8571f2c066fd47b8c6e908a62b8a8bddf79d6205f6b4f98be9946",
    "adaptive/quick/cassandra":
        "e0132eb182fa4c99e331d44f9b02d58e0f3f1d4252c76cd7da8a580b1c11dec7",
    "geo/full/cassandra":
        "a9b16101bbf55960dfd9479c350baefa2c66b4df790e5947967c2242839e292c",
    "geo/quick/cassandra":
        "c40fb2f1fd87209d0ef08c5ac09416ccaf9bbbda7a07a3dafd5b492a8a6a8caf",
    "surge/full/hbase":
        "2e09c4e3a49560f872877b678d0907b65374611abcc5cd0f4e2652ae30ce7387",
    "surge/full/cassandra":
        "fce9af7adeec5154827393566b0b16708fafb4ae110ae546b10d36fca66fe1e7",
    "surge/quick/hbase":
        "c8fb30ba99f52ba6b1ba15e133097ca33125c0b81eba182889721891cb1b63c2",
    "surge/quick/cassandra":
        "3dc02bc522fb935f3f496e96b96b0245a27a3cda721715a1a9a1f6d90999a4ae",
    "scale/full/hbase":
        "50ad23d3da55976223431f968eb74c9862fffbcf3339b3002ef27897abee7daa",
    "scale/full/cassandra":
        "6dcf2fb48a504d83f8316aa20645347fa48f58d95f5d2421622a03759236320f",
    "scale/quick/hbase":
        "b7ba2fb1caf8a76242cf3a16c8eccad4a1b575a0021498824d302fae68238339",
    "scale/quick/cassandra":
        "ee5622a70ca8455c529b621134cd72596664e670e8451a3ebf59ba8fcfd62c68",
    "energy/full/hbase":
        "4fa02a9f547e19a019d266e62d25fae92bec6035d48c4b5152ee3d45c3686961",
    "energy/full/cassandra":
        "94260abbf0b71e4be0125d51546f4c9a9bab5503bd63359ad8d7258ac5c1627a",
    "energy/quick/hbase":
        "b7e13095c907eb9bd7aac01fa0b8d21191041b430c03a799784389efb7708291",
    "energy/quick/cassandra":
        "85c42d1e80675c548acc88feb6827aec0a830232d6073a7d1e0f889f8f351a94",
}


def cells_digest(cells) -> str:
    identity = [
        [cell.key, cell.label, config_to_dict(cell.config),
         [asdict(run) for run in cell.runs],
         asdict(cell.warm) if cell.warm is not None else None,
         False]  # the slot ``CellSpec.collect_db_stats`` held
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
    assert sorted(PINS) == sorted(case[0] for case in CASES)


@pytest.mark.parametrize("case_id,name,scale,db", CASES,
                         ids=[case[0] for case in CASES])
def test_campaign_cells_unchanged(case_id, name, scale, db):
    cells = _cells(name, db, scale)
    assert cells, "a campaign with no cells pins nothing"
    assert cells_digest(cells) == PINS[case_id]
