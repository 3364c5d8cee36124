"""Shared local storage engine (log-structured merge tree).

Both databases in the paper persist writes the same way — append to a log,
buffer in a sorted in-memory table, flush immutable sorted runs, compact —
so the engine lives in one place and is parameterized by a
:class:`~repro.storage.lsm.StorageMedium`:

- Cassandra nodes read and write their SSTables on the **local disk**;
- HBase regions read HFile blocks and write flushes **through HDFS**
  (short-circuit local reads, pipeline writes).

The engine tracks *real* keys and versions (so correctness is testable)
while charging *simulated* time for every block read, flush and
compaction.
"""
