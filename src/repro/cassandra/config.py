"""The record a Cassandra deployment takes: :class:`CassandraConfig`.

It lives apart from :mod:`repro.cassandra.deployment` so that a cell's
config (:mod:`repro.core.config`) and the campaign table can name it
without compiling the engine; only a session that deploys Cassandra
imports the ring, the coordinators and the driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.cassandra.consistency import ConsistencyLevel

__all__ = ["CassandraConfig"]


@dataclass(frozen=True)
class CassandraConfig:
    """Cassandra-side knobs of one experiment cell."""

    db: ClassVar[str] = "cassandra"  # the name a cell's ``db`` reads
    #: SimpleStrategy replication factor — the paper's replication knob.
    replication: int = 3
    #: The driver's default consistency levels.
    read_cl: ConsistencyLevel = ConsistencyLevel.ONE
    write_cl: ConsistencyLevel = ConsistencyLevel.ONE
    #: Probability that a read involves all replicas for repair
    #: (Cassandra 2.0's table default, cited by the paper §4.1).
    read_repair_chance: float = 0.1
    #: Whether a digest mismatch within the CL-blocking set holds the
    #: response until the repair mutations are acknowledged (the
    #: paper-faithful default); False lets the response go once the
    #: full-data reads have answered (ablation).
    blocking_read_repair: bool = True
    #: How often each coordinator's hint replayer wakes (seconds).  A
    #: larger interval models throttled hinted handoff: a restarted
    #: replica stays stale for up to one interval, which is the window
    #: the adaptive-consistency campaigns study.
    hint_replay_interval_s: float = 1.0
