"""Write-ahead log (HBase WAL / Cassandra commit log).

Both systems append every mutation to a log before acknowledging it, and
both default to *buffered* appends (periodic sync), which is why a single
mutation's latency contains no rotational disk time.  The log is
parameterized by a :class:`~repro.storage.lsm.StorageMedium`, because the
two systems place it differently:

- Cassandra's commit log is a local file — appends hit the local page
  cache (``LocalDiskMedium``).
- HBase's WAL is an HDFS file — appends travel the replication pipeline
  (``repro.hbase.region.RegionMedium``), which is where the replication
  factor enters HBase's write path.
"""

from __future__ import annotations

from typing import Generator, Union

from repro.sim.kernel import Event

__all__ = ["WriteAheadLog"]


class WriteAheadLog:
    """Append-only log with buffered (default) or synchronous appends."""

    def __init__(self, medium, sync_every_append: bool = False) -> None:
        self.medium = medium
        self.sync_every_append = sync_every_append
        self.appended_bytes = 0
        self.appends = 0

    def append(self, size: int) -> Union[None, Event, Generator]:
        """Append one record of ``size`` bytes.

        Returns what the medium's ``append_log`` did: ``None`` when it
        buffered the record and the caller may go on at once; the event
        that fires once the record is acknowledged, on media whose log
        lives across the network; or the generator to run until it is
        on the local platter (``sync_every_append``, the durability
        ablation benchmark).
        """
        self.appends += 1
        self.appended_bytes += size
        return self.medium.append_log(size, sync=self.sync_every_append)

    def truncate(self) -> None:
        """Discard log segments covered by a completed flush."""
        self.appended_bytes = 0
