"""Database bindings: the YCSB ``DB`` interface for both systems."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Protocol

if TYPE_CHECKING:  # pragma: no cover - annotations only, no engine
    from repro.cassandra.client import CassandraSession
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

    The verbs *are* the driver's bound methods, whose positional
    signatures match :class:`DbBinding`: an operation enters no binding
    frame, and callers ``yield from`` the driver's own generator.
    """

    name = "hbase"

    def __init__(self, client: HBaseClient) -> None:
        self.client = client
        self.write = client.put
        self.read = client.get
        self.scan = client.scan


class CassandraBinding:
    """YCSB binding for the Cassandra model; its verbs are the session's
    bound methods, as :class:`HBaseBinding`'s are the client's.

    Consistency levels ride on the session (the paper's §4.3 method:
    "Cassandra allows specifying the consistency level in request
    time"), which callers set there.
    """

    name = "cassandra"

    def __init__(self, session: CassandraSession) -> None:
        self.session = session
        self.write = session.insert
        self.read = session.read
        self.scan = session.scan
