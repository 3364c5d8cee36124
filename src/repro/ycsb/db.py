"""The YCSB ``DB`` interface: each engine's driver, and every wrapper a
run stacks on it, has these verbs."""

from __future__ import annotations

from typing import Any, Generator, Protocol

__all__ = ["DbBinding"]


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
