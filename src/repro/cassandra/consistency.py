"""Consistency levels and ack arithmetic."""

from __future__ import annotations

import enum

from repro.sim.kernel import ModelledFailure

__all__ = ["ConsistencyLevel", "UnavailableError"]


class UnavailableError(ModelledFailure):
    """Fewer live replicas than the consistency level requires."""


class ConsistencyLevel(enum.Enum):
    """How many replicas must respond before the coordinator answers.

    The paper benchmarks ONE, QUORUM and "write ALL" (write at ALL, read
    at ONE).
    """

    ONE = "ONE"
    QUORUM = "QUORUM"
    ALL = "ALL"
    #: Datacenter-local levels (geo deployments, the paper's §6 future
    #: work).  On a single-rack cluster they degrade to ONE / QUORUM.
    LOCAL_ONE = "LOCAL_ONE"
    LOCAL_QUORUM = "LOCAL_QUORUM"
    #: A quorum *in every datacenter*.  Write-only in Cassandra; the
    #: coordinator does per-DC quorum accounting on geo clusters and
    #: degrades to plain QUORUM arithmetic on a single rack.
    EACH_QUORUM = "EACH_QUORUM"

    @property
    def is_datacenter_local(self) -> bool:
        return self in (ConsistencyLevel.LOCAL_ONE,
                        ConsistencyLevel.LOCAL_QUORUM)

    def required(self, replication: int) -> int:
        """Number of replica responses needed at replication factor
        ``replication``.

        For the LOCAL_* levels ``replication`` should be the number of
        replicas *in the coordinator's datacenter* (the coordinator passes
        that); on single-datacenter clusters it is simply the total.
        No level asks for more than ``replication``, so the answer is
        always between 1 and ``replication``.
        """
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if self in (ConsistencyLevel.ONE, ConsistencyLevel.LOCAL_ONE):
            return 1
        if self in (ConsistencyLevel.QUORUM,
                    ConsistencyLevel.LOCAL_QUORUM,
                    ConsistencyLevel.EACH_QUORUM):
            # EACH_QUORUM counts per datacenter on geo clusters (the
            # coordinator handles that); here it degrades to a plain
            # quorum of whatever replica pool the caller passed.
            return replication // 2 + 1
        return replication

    def is_strong_with(self, other: "ConsistencyLevel",
                       replication: int) -> bool:
        """True when (read=self, write=other) overlap: R + W > N."""
        return (self.required(replication) + other.required(replication)
                > replication)
