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
``ablation/*`` was added with its campaign.
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
        "1a3eb44be0d8ebeead675a7d3a07ae93f9e30a6717c7593bfc315a5bea484cba",
    "fig1/full/cassandra":
        "d3732626653410efb3510ee7274b568ac7f57745403a71f41b7c0016fcd40e2a",
    "fig1/quick/hbase":
        "2fb0550ff8db7bf8c66034967023899953009ac68a52fc3f00a65a9882661c73",
    "fig1/quick/cassandra":
        "367c8635739cf0f4c506b55ba29bfb50b4bcc4efc5777a9697d20cd0da994eaf",
    "fig2/full/hbase":
        "bdc2a1ea8b0255359358c939c19a828bc85bb97c22f184e7c690297c5848684f",
    "fig2/full/cassandra":
        "d370c15e2e30dab66f80bb73de42d99856fdfece4576255940ec7477db7ed11e",
    "fig2/quick/hbase":
        "542256ad6daffdc3492d7d2f45a4a79b30a4491877d4a86bceb90b15911998b6",
    "fig2/quick/cassandra":
        "4495535634ce17a7d62dc4588ce5045c149c9bdaa37a18193138b2a6603468ca",
    "fig3/full/cassandra":
        "1ebeb8f5ad22433e294ba13b6b008a4cd5db04c5bfe956b8f0ead26683da1607",
    "fig3/quick/cassandra":
        "3e2987361a3d75fc8d76b96a0ce2535310a12068e4040ffa50f4c2d35ec5ad12",
    "ablation/full/hbase":
        "6be2858772d61a080b1e7e7b1abb74d4bd2b8896a8141edacd9579188c6c9e3d",
    "ablation/full/cassandra":
        "d054a94515d9b62cc74bbb01bd9e7bb78827d85711c2d0c5d431784078b96848",
    "ablation/quick/hbase":
        "f4d1d01c2b37905c518e17bfaf946d786777446ef989207e374a82b027bcc771",
    "ablation/quick/cassandra":
        "0079c9a6f62831af9f7887a3d6134805a87fab4521136aaf418f4737c4fb76fe",
    "failover/full/hbase":
        "0d24800882ec1098a196b7f8cd9d424df4f4aed248061e91355ab89f8354c5e5",
    "failover/full/cassandra":
        "868541f8a30d1fce5e1f91bc55622ca86f0f9232587d77c99dc7a2048757d50b",
    "failover/quick/hbase":
        "d97a181e0501aae6d44ef0551bbe1f03360cf81ef96f955c6c10c2955fdb2e06",
    "failover/quick/cassandra":
        "60cdbb642965104f053a1ea3d4c906e7131ca5467b1b81f6b01df0d5a38ef41f",
    "tail/full/hbase":
        "b88c5348430463b5c2d2c830fe030d9c3ab70081b6804a2b5ddc33bb2737daa6",
    "tail/full/cassandra":
        "d8483a234b19ef51ed5419d02b8c82d1afa95861072aae26180a8f23351128ec",
    "tail/quick/hbase":
        "38a29c85bd5e56f6c828d00bf636c94b67a9b0e988168260eff8d6b86fd91a4f",
    "tail/quick/cassandra":
        "cb541990680f41c81d77f3a9f0cb3b9abd81c3ba8ad2eb09d708ecede4ece1ac",
    "check/full/hbase":
        "c7cc047a723e800562f645081ffc32d78ca08c5b3aac5337948d1f239dcae36b",
    "check/full/cassandra":
        "1e622ffa988bedf0b396c30f646ab7fce34b5a3a9409844968b4339b8d3b7de6",
    "check/quick/hbase":
        "a2cb3410722245a3a7e86697e118de2d6a34db48ff1212fb6cd6728fa7e1215c",
    "check/quick/cassandra":
        "9115087cd2127ddff5cd49ecd1eb97ae2d18c7d989f1a9a8aa17f082c9ea7606",
    "adaptive/full/cassandra":
        "55d56a01d7de41e06ff6bfe12445aee8e7f93f4bab8233cfb3426c81d2122ae1",
    "adaptive/quick/cassandra":
        "5d7860d30d0e85fc4b6b65c59681666503e69e4f130d0f7c9e7ae832b3498e89",
    "geo/full/cassandra":
        "ff90e9f57164cf947fb965dd18b2ffffe6b03e436151b957c8e972875382fa0d",
    "geo/quick/cassandra":
        "3585e76af359d48d4f65019a617ecfd9fc13ebf881d91c249e20f54ad5bd151b",
    "surge/full/hbase":
        "fff1b9a7a4feaaea0ada233a6238b955a8464fb974c7da8004c5723f9e33f880",
    "surge/full/cassandra":
        "7782ef4c66b5f37758b8e8e277b544fc95ef4fa29dcd32bda894d202d133df7f",
    "surge/quick/hbase":
        "77f6a3177d1aa66c825906bb922944462da19054eaa16d95cb15f295edd9e9e4",
    "surge/quick/cassandra":
        "a9577c71f5c52aa2ce72e0b52efabc30af3147f9f3108949182095f2e51ae0a5",
    "scale/full/hbase":
        "9b16e69ac2f5b7b6e1ae7f87459d9ee0ce43eab9559ca72a8c2ebaeacfee5742",
    "scale/full/cassandra":
        "85a822cd7b70994860d1725cdbb5986c9492724c96a3906ce5224970a02ebdf5",
    "scale/quick/hbase":
        "b1710c285e0df2cc3521287be80fa5928ff2d45ff47c41d95a98264bb882e1a3",
    "scale/quick/cassandra":
        "41a870a9a795f14265fccb3a79f180463b90ea38a840bf34003f251a62f595a5",
    "energy/full/hbase":
        "8436e059b6ec9c7e2358e69ab52f4ac9755815dcd397718570c9791f4575221d",
    "energy/full/cassandra":
        "92e36708225e13fe78ecfec6f49b3cd3199d002c5d5f528285823bd5bbb33ed4",
    "energy/quick/hbase":
        "b801d6159fc8653f1b5938cb32b7e98e09230309f0ee7af29df9aedc71e73e47",
    "energy/quick/cassandra":
        "fb843a8eee441466185b88937d956d90d81d1bbe0cf308a3b93e7a7554e0824c",
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
