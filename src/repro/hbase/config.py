"""The record an HBase deployment takes: :class:`HBaseConfig`.

It lives apart from :mod:`repro.hbase.deployment` so that a cell's
config (:mod:`repro.core.config`) and the campaign table can name it
without compiling the engine or HDFS; only a session that deploys HBase
imports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

__all__ = ["HBaseConfig"]


@dataclass(frozen=True)
class HBaseConfig:
    """HBase-side knobs of one experiment cell."""

    db: ClassVar[str] = "hbase"  # the name a cell's ``db`` reads
    #: HDFS replication factor — the paper's replication knob for HBase.
    replication: int = 3
    regions_per_server: int = 2
    #: Durability ablation: ack WAL pipeline packets from disk, not memory.
    wal_sync: bool = False
