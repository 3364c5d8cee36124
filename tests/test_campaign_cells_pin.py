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
its old digest.
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
        "68deb217473d7e527e595c7f38e6c15eda53ebe57a8cca55eca213eca430df01",
    "fig1/full/cassandra":
        "cc3b1ba60f1f6a78fe40a0d95d23e4a6b11f118e645a55f90b7eee1415a3047c",
    "fig1/quick/hbase":
        "744ee5001623220c92d96f5fbb33af60cfdce9779a955a090af2404b9a492155",
    "fig1/quick/cassandra":
        "758547b3aee9861c040b892d1c836f2f28eb6b4a62b0fa1e5e7117fbf71b906e",
    "fig2/full/hbase":
        "f71cd2013f4c6c3305584c6a1521f7af9a34be7b7d131d5bff3438b08af0495c",
    "fig2/full/cassandra":
        "7240c1b1bd9bc8db0e60681b1354ee2aa322273d0245ef7bdbcc1ffd644b23af",
    "fig2/quick/hbase":
        "d5b053d6d5741a077b45715f23e667a5abc7520a0566a79d922d500953c7fd98",
    "fig2/quick/cassandra":
        "030a251e5d558850575401b5f5d5a910e59d8f0ecdde56579401cd8e7d188e1f",
    "fig3/full/cassandra":
        "3c6f5a942a0aa08d5afc2e04aded2333f356416325d8ec1bccbc1ecb77e7b520",
    "fig3/quick/cassandra":
        "84d211dae49e9b9517a8b7b56911de87b1bf659f99a67c7f676faa1f82c45341",
    "ablation/full/hbase":
        "f3af919dc4b77111127cda388fce26887bc62f48143cd5dd00fcd99f121d6015",
    "ablation/full/cassandra":
        "813a47b5c60c77cd2e5887d5338a113ce14bded0730aeaf4cb51c6c4a7b71dcf",
    "ablation/quick/hbase":
        "4ff6b1fecaad9b313deccc95f10757585fac5dfbb25dd08eeb06c91a0e8b80f5",
    "ablation/quick/cassandra":
        "1e8ef2b80623f0465eaefbf09a17f28f5a2f72e244a57e9d11469d193b517eb0",
    "failover/full/hbase":
        "9b43ed5405d8f6b60a048c71e415fccb7ea71d9f9f1bde88c202c22e1e9d9308",
    "failover/full/cassandra":
        "bd03c820d2907f536d7a910c11ab9837002835412f1fea2b587ee30f8ba08b6b",
    "failover/quick/hbase":
        "78b69c61aa0bcf2d32f478bef4271a2e19647ccdb0a958181ac80def95ef2fa0",
    "failover/quick/cassandra":
        "57ef4648475cb4a191857c122b31ed77134f8d9ab0135ab89dd8df7f727455cb",
    "tail/full/hbase":
        "2b7a74dfbdc54ac91701997a22237681fa8b9fc20f0694973137132904f5fe22",
    "tail/full/cassandra":
        "6e34d4ec1102de8d9c56877855ac92b104353495df63f92498e94a640200faa4",
    "tail/quick/hbase":
        "899b21fbd782705cd385fc03ba734c405dbbc8eeaf2f3066b1dc330bc6669229",
    "tail/quick/cassandra":
        "3f01065cbf24c40d55a4b9eedaa127a421e80f97f9fe180a0d2719adacbfcab9",
    "check/full/hbase":
        "c4ed979268c7fffd7f8bbb339c523867817d6637d31c692069388913592a1a81",
    "check/full/cassandra":
        "871e3b7a0f7d01c3907278e3c7b809dba7063a8c687076673cee7620ed3c69a6",
    "check/quick/hbase":
        "cca2673eb04210d9ec7d5d85e23fb3785dee00751b2e713dd48ba1b372954137",
    "check/quick/cassandra":
        "46afb7c89e795b815af10ce17643c139306b4c21706966b0076967d1e437b011",
    "adaptive/full/cassandra":
        "77d866e7eb0d1fef2beb6ee322af72b40f07c76880536c612decf4b289450c55",
    "adaptive/quick/cassandra":
        "2d5a4e7c93929a5fae20fb9f0bab27cb5a9fdf81ef0930fb7eaaf8af77150fbb",
    "geo/full/cassandra":
        "a704cd1349cd0613e51b26d37ca66cdf52c04394e83bcb1ed1bd8082d2b6f56b",
    "geo/quick/cassandra":
        "36932dd356162c4dccd41294e72e5db0a8c274d46b04f73a335c20b7eba195f3",
    "surge/full/hbase":
        "8827dc989e9e080ff0829928b0b62f1d831f05eab8a3ba268799aa89f00708cb",
    "surge/full/cassandra":
        "792d874290cd72aac377c7ecb6147f18b8bc9558a9f2363fa4246c76016dcb09",
    "surge/quick/hbase":
        "b225e9b7d1650476c485e701d919a82342b2f68f053c943e6d834a574849a33d",
    "surge/quick/cassandra":
        "2bcbef0126ffa3e761293a22d4d42c95f841cc105b9c9cad757097a5dcd7ee82",
    "scale/full/hbase":
        "a28a4d82f33cb7605cfd239e989030a250321ad2364fdc769d6834c9fe6b4852",
    "scale/full/cassandra":
        "5a0d905ad254a1d59992ce178de34783a440c45c2a7485dd96b0dffd7baa1341",
    "scale/quick/hbase":
        "7c007834fcf53921eb7bc24cb9e28bf3d8ab1e8d2f747570a64c387d63a16fa9",
    "scale/quick/cassandra":
        "9ec8f13dcccb34f6811df6247a43ba925d426da095d6d72cf32e832cb5a45cc9",
    "energy/full/hbase":
        "e04cddff0646fbe15b705c04ee197495d7343380db1fabb36da8259822c4678b",
    "energy/full/cassandra":
        "7729109fe09a35d4d8ac9bfdd70da3f2d19a21a32cad9cd54239419a9e007239",
    "energy/quick/hbase":
        "c517efb726182494fc221e163056142544cca49d0f405f8f1d0ea229b326a7bd",
    "energy/quick/cassandra":
        "7002328d6ff7402d0382723d14c4da46e5aed4926ddb1c5eef0b3bdbb7307b91",
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
