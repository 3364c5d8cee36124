"""Database bindings: the YCSB ``DB`` interface for both systems."""

from __future__ import annotations

from typing import Any, Generator, Optional, Protocol

from repro.cassandra.client import CassandraSession
from repro.cassandra.consistency import ConsistencyLevel
from repro.hbase.client import HBaseClient

__all__ = ["CassandraBinding", "DbBinding", "HBaseBinding"]


class DbBinding(Protocol):
    """What a workload thread needs from a database.

    Inserts and updates are one verb: both stores upsert, so a YCSB
    insert differs from an update only in how its key was chosen.
    """

    def write(self, key: str, value: Any, size: int) -> Generator:
        ...

    def read(self, key: str, size: int) -> Generator:
        """Returns ``(value, timestamp)`` or None."""
        ...

    def scan(self, start_key: str, limit: int, record_bytes: int) -> Generator:
        ...


class HBaseBinding:
    """YCSB binding for the HBase model (puts are upserts).

    The methods hand back the driver's own generator (callers ``yield
    from`` it), so the binding costs no generator frame per operation.
    """

    name = "hbase"

    def __init__(self, client: HBaseClient) -> None:
        self.client = client

    def write(self, key: str, value: Any, size: int) -> Generator:
        return self.client.put(key, value, size)

    def read(self, key: str, size: int) -> Generator:
        return self.client.get(key, expected_bytes=size)

    def scan(self, start_key: str, limit: int, record_bytes: int) -> Generator:
        return self.client.scan(start_key, limit, record_bytes=record_bytes)


class CassandraBinding:
    """YCSB binding for the Cassandra model.

    Consistency levels ride on the session; per-run overrides mirror the
    paper's §4.3 method ("Cassandra allows specifying the consistency
    level in request time").
    """

    name = "cassandra"

    def __init__(self, session: CassandraSession,
                 read_cl: Optional[ConsistencyLevel] = None,
                 write_cl: Optional[ConsistencyLevel] = None) -> None:
        self.session = session
        if read_cl is not None:
            session.read_cl = read_cl
        if write_cl is not None:
            session.write_cl = write_cl

    def write(self, key: str, value: Any, size: int) -> Generator:
        return self.session.insert(key, value, size)

    def read(self, key: str, size: int) -> Generator:
        return self.session.read(key, expected_bytes=size)

    def scan(self, start_key: str, limit: int, record_bytes: int) -> Generator:
        return self.session.scan(start_key, limit, record_bytes=record_bytes)
