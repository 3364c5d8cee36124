"""The LSM engine: put / get / scan with simulated I/O charging.

One :class:`LsmTree` backs one HBase region store or one Cassandra node's
column family.  All physical I/O goes through a :class:`StorageMedium`, so
the same engine serves both systems:

- ``LocalDiskMedium`` — Cassandra: commit log and SSTables on the node's
  own disk.
- ``repro.hbase.region.RegionMedium`` — HBase: WAL appends travel the
  HDFS pipeline (this is where the replication factor touches HBase
  writes); HFile block reads are short-circuit local reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Protocol
from zlib import adler32, crc32

from repro.cluster.disk import BACKGROUND, FOREGROUND
from repro.cluster.node import Node
from repro.sim.kernel import (_PENDING, Environment, Event, Process, Timeout,
                              _finish, _settled)
from repro.storage.cache import BlockCache
from repro.storage.compaction import merge_tables, pick_compaction
from repro.storage.memtable import Memtable
from repro.storage.sstable import SSTable

__all__ = ["LocalDiskMedium", "LsmTree", "StorageMedium", "StorageSpec"]

# -- CPU costs (seconds) ---------------------------------------------------
CPU_PUT_S = 3e-6
CPU_GET_S = 4e-6
CPU_PER_TABLE_CHECK_S = 1e-6
CPU_SCAN_PER_ENTRY_S = 4e-7
CPU_FLUSH_PER_ENTRY_S = 1e-6
CPU_COMPACT_PER_ENTRY_S = 8e-7


class StorageMedium(Protocol):
    """Physical placement of a tree's log, runs and blocks."""

    def append_log(self, size: int) -> Optional[Event]:
        """Append ``size`` bytes to the write-ahead/commit log.

        ``None`` when the bytes are buffered and there is nothing to wait
        for; otherwise the event that fires once they are acknowledged.
        """
        ...

    def read_block(self, size: int, priority: int, handle=None) -> Generator:
        """Random-read one data block of the run identified by ``handle``."""
        ...

    def read_run(self, size: int, handle=None) -> Generator:
        """Sequentially read ``size`` bytes (compaction input)."""
        ...

    def write_run(self, size: int) -> Generator:
        """Sequentially write ``size`` bytes (flush/compaction output).

        Returns an opaque handle identifying the created run (``None`` for
        purely local media); the handle is stored on the SSTable and passed
        back to :meth:`read_block` / :meth:`read_run`.
        """
        ...


class LocalDiskMedium:
    """Log + runs + blocks on the owning node's local disk."""

    def __init__(self, node: Node) -> None:
        self.node = node

    def append_log(self, size: int) -> None:
        self.node.disk.append_buffered(size)

    def read_block(self, size: int, priority: int = FOREGROUND,
                   handle=None) -> Generator:
        yield from self.node.disk.read(size, sequential=False,
                                       priority=priority)

    def read_run(self, size: int, handle=None) -> Generator:
        yield from self.node.disk.read(size, sequential=True,
                                       priority=BACKGROUND)

    def write_run(self, size: int) -> Generator:
        yield from self.node.disk.write(size, sequential=True,
                                        priority=BACKGROUND)
        return None


@dataclass(frozen=True)
class StorageSpec:
    """Engine tuning.

    The defaults are *scaled down* together with the workloads (see
    DESIGN.md §6): cache and memtable budgets are kept small relative to
    the dataset so that reads exercise the disk, exactly as the paper's
    record counts were chosen to defeat the page cache.
    """

    memtable_flush_bytes: int = 512 * 1024
    block_bytes: int = 8 * 1024
    block_cache_bytes: int = 1024 * 1024
    #: Size-tiered compaction: trigger threshold and batch bounds.
    compaction_min_batch: int = 4
    compaction_max_batch: int = 10

    def __post_init__(self) -> None:
        for name, low in (("memtable_flush_bytes", 1), ("block_bytes", 1),
                          ("block_cache_bytes", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"StorageSpec.{name}={value}: must be "
                                 f">= {low}")
        low, high = self.compaction_min_batch, self.compaction_max_batch
        if not 2 <= low <= high:
            raise ValueError(
                f"StorageSpec.compaction_min_batch={low}, "
                f"compaction_max_batch={high}: need 2 <= "
                f"compaction_min_batch <= compaction_max_batch")


class _LoggedPut(Event):
    """A put that has to wait for its log append: the event
    :meth:`LsmTree.put` hands out, and the mutation until it is applied.

    Log acknowledged → :meth:`LsmTree._apply` → CPU done → complete,
    inline; each step a callback on the event the step before produced.
    """

    __slots__ = ("tree", "mutation")

    def __init__(self, tree: "LsmTree", logging: Event,
                 *mutation: Any) -> None:
        self.env = tree.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.tree = tree
        self.mutation = mutation
        if logging.callbacks is None:
            self._logged(logging)
        else:
            logging.callbacks.append(self._logged)

    def _logged(self, logging: Event) -> None:
        if not logging._ok:
            logging._defused = True  # a failed append is the put's to report
            _finish(self, False, logging._value)
            return
        applied = self.tree._apply(*self.mutation)
        if applied.callbacks is None:
            _finish(self, True, None)
        else:
            applied.callbacks.append(self._applied)

    def _applied(self, _wait: Event) -> None:
        # ``_finish(self, True, None)``, minus the call: once per put.
        self._value = None
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)


class LsmTree:
    """Log-structured merge tree over a :class:`StorageMedium`."""

    def __init__(self, env: Environment, node: Node, medium: StorageMedium,
                 spec: StorageSpec, name: str = "lsm") -> None:
        self.env = env
        self.node = node
        self.medium = medium
        self.spec = spec
        self.name = name
        self.cache = BlockCache(spec.block_cache_bytes)
        self.active = Memtable()
        #: Memtables frozen and waiting for (or in) flush, newest first.
        self.flushing: list[Memtable] = []
        #: Immutable runs, newest first.  The list is replaced, never
        #: changed in place, so a read that holds it across a block miss
        #: keeps walking the version of the tree it started on.
        self.sstables: list[SSTable] = []
        self._compacting = False
        self.stats = {"puts": 0, "gets": 0, "scans": 0, "flushes": 0,
                      "compactions": 0, "block_reads": 0}

    # -- write path -----------------------------------------------------

    def put(self, key: str, value: Any, size: int, timestamp: float,
            extra_cpu_s: float = 0.0) -> Event:
        """Durably buffer one mutation; the returned event fires once
        readers can see it.

        ``extra_cpu_s`` lets the caller fold its own per-request CPU
        charge (RPC-verb handling) into the same core reservation — one
        timeout event instead of two on a path every replica write takes.

        With a buffered log append — every Cassandra commit log — the
        event is the CPU timeout itself (see :meth:`_apply`).  A log
        append that has to be waited for — HBase's WAL, in HDFS — is
        followed by the same :meth:`_apply` as a callback
        (:class:`_LoggedPut`).  Neither costs a process.
        """
        logging = self.medium.append_log(size)
        if logging is None:
            return self._apply(key, value, size, timestamp, extra_cpu_s)
        return _LoggedPut(self, logging, key, value, size, timestamp,
                          extra_cpu_s)

    def _apply(self, key: str, value: Any, size: int, timestamp: float,
               extra_cpu_s: float) -> Event:
        """Book the put's CPU; the returned timeout's *first* callback
        inserts into the memtable, so every later subscriber — a waiting
        process, the RPC transport about to book the response — finds
        the mutation applied (and the memtable rotated, if it was due).

        The insert happens when the CPU work completes, not when the
        core was booked — visibility timing is what the staleness oracle
        measures.
        """
        def insert(_wait: Optional[Event] = None) -> None:
            self.active.put(key, value, size, timestamp)
            self.stats["puts"] += 1
            if self.active.size_bytes >= self.spec.memtable_flush_bytes:
                self._rotate()

        env = self.env
        end = self.node.reserve_cpu(extra_cpu_s + CPU_PUT_S)
        now = env._now
        if end <= now:
            insert()
            return _settled(env)
        wait = Timeout(env, end - now)
        wait.callbacks.append(insert)
        return wait

    def _rotate(self) -> None:
        frozen, self.active = self.active, Memtable()
        self.flushing.insert(0, frozen)
        self.env.process(self._flush(frozen), name=f"{self.name}-flush")

    def _flush(self, frozen: Memtable) -> Generator:
        entries = frozen.items_sorted()
        if entries:
            yield from self.node.cpu_work(
                CPU_FLUSH_PER_ENTRY_S * len(entries))
            total = sum([e[3] for e in entries])
            handle = yield from self.medium.write_run(total)
            table = SSTable(entries, self.spec.block_bytes)
            table.file_handle = handle
            self.sstables = [table, *self.sstables]
            self._cache_written_blocks(table)
        self.flushing.remove(frozen)
        self.stats["flushes"] += 1
        self._maybe_compact()

    def _cache_written_blocks(self, table: SSTable) -> None:
        """Freshly written runs are page-cache resident (they just went
        through RAM); account them in the block cache so reads of recent
        data stay memory-served exactly when the machine has the RAM for
        it — the LRU budget still evicts on small-cache configurations."""
        for block_no in range(table.n_blocks):
            self.cache.insert(table.sstable_id, block_no,
                              self.spec.block_bytes)

    # -- read path --------------------------------------------------------

    def _load_block(self, table: SSTable, block_no: int,
                    priority: int) -> Generator:
        """Read one block the cache does not hold (callers check first)."""
        yield from self.medium.read_block(self.spec.block_bytes, priority,
                                          table.file_handle)
        self.cache.insert(table.sstable_id, block_no, self.spec.block_bytes)
        self.stats["block_reads"] += 1

    def get(self, key: str, priority: int = FOREGROUND,
            extra_cpu_s: float = 0.0) -> Event:
        """Look up the newest ``(value, timestamp)`` for ``key`` (or
        None); the returned event fires with it.

        ``extra_cpu_s`` folds the caller's per-request CPU charge into
        the same core reservation (see :meth:`put`).  The whole lookup —
        the request, the memtable probe, one bloom check per run — is
        one reservation and one wait; when it ends the read sees the
        tree as of that instant (memtables, and the run list it holds on
        to).  While every block it needs is cached that is all there is:
        the timeout's callback walks the tree and completes the event
        inline.  From the first block the cache does not hold, the rest
        of the walk runs as a small process.
        """
        env = self.env
        self.stats["gets"] += 1
        delay = self.node.reserve_cpu(
            extra_cpu_s + CPU_GET_S
            + CPU_PER_TABLE_CHECK_S * len(self.sstables)) - env._now
        done = Event(env)

        def walk(_wait: Optional[Event] = None) -> None:
            best, missed = self._probe(key)
            if missed is None:
                _finish(done, True, best)
            else:
                Process(env, self._probe_loading(key, priority, best, missed),
                        f"{self.name}-get", True, loaded)

        def loaded(loader: Event) -> None:
            loader._defused = True  # a failed load is done's to report
            _finish(done, loader._ok, loader._value)

        if delay > 0:
            Timeout(env, delay).callbacks.append(walk)
        else:
            walk()
        return done

    def _probe(self, key: str, best: Optional[tuple[Any, float]] = None,
               tables: Optional[list[SSTable]] = None
               ) -> tuple[Optional[tuple[Any, float]], Optional[list[SSTable]]]:
        """Walk the tree for ``key`` as far as memory goes.

        Returns ``(best, None)`` — the newest version found — or, on
        reaching a block the cache does not hold, ``(best so far, the
        runs still to visit)``, that block's run first.  Called without
        ``tables`` it starts a lookup: memtables, then the current runs.
        """
        if tables is None:
            for memtable in [self.active, *self.flushing]:
                found = memtable.get(key)
                if found is not None and (best is None or found[1] > best[1]):
                    best = (found[0], found[1])
            tables = self.sstables
        contains = self.cache.contains
        h1 = None
        for table in tables:
            # SSTable.might_contain, cheapest test first: a run holding
            # the key passes its bloom filter (no false negatives), so
            # only an absent key inside a run's range is hashed — once
            # per walk — and meets the filter's false positives.
            found = table._values.get(key)
            if found is None:
                keys = table._keys
                if not keys or key < keys[0] or key > keys[-1]:
                    continue
                if h1 is None:
                    data = key.encode()
                    h1 = crc32(data)
                    h2 = adler32(data) | 1
                if not table.bloom.might_contain_hashed(h1, h2):
                    continue
            if not contains(table.sstable_id, table.block_of(key)):
                return best, tables[tables.index(table):]
            if found is not None and (best is None or found[1] > best[1]):
                best = (found[0], found[1])
        return best, None

    def _probe_loading(self, key: str, priority: int,
                       best: Optional[tuple[Any, float]],
                       tables: Optional[list[SSTable]]) -> Generator:
        """The rest of a lookup from its first block-cache miss on:
        ``tables[0]``'s block has to come from the medium."""
        while tables:
            table = tables[0]
            yield from self._load_block(table, table.block_of(key), priority)
            found = table.get(key)
            if found is not None and (best is None or found[1] > best[1]):
                best = (found[0], found[1])
            best, tables = self._probe(key, best, tables[1:])
        return best

    def scan(self, start_key: str, limit: int, priority: int = FOREGROUND,
             extra_cpu_s: float = 0.0) -> Event:
        """Up to ``limit`` ``(key, value, timestamp)`` from ``start_key``;
        the returned event fires with them.

        ``extra_cpu_s`` as in :meth:`get`, and like a get the scan is one
        reservation and one wait, after which it reads the tree as of
        that instant (memtables, and the run list it holds on to).
        While every block it needs is cached the rest is callbacks too:
        collect, book the per-entry CPU, complete when that is done.
        From the first block the cache does not hold, the rest of the
        collect runs as a small process.  A bug on the way fails the
        scan, as it failed the process a scan used to be.
        """
        env = self.env
        self.stats["scans"] += 1
        done = Event(env)

        def collect(_wait: Event) -> None:
            try:
                rows = self.active.scan_from(start_key, limit)
                for memtable in self.flushing:
                    rows = rows + memtable.scan_from(start_key, limit)
                merged: dict[str, tuple[Any, float]] = {}
                missed = self._collect_runs(start_key, limit, merged, rows,
                                            self.sstables)
                if missed is None:
                    collected(merged)
                else:
                    Process(env, self._collect_loading(
                        start_key, limit, priority, merged, missed),
                        f"{self.name}-scan", True, loaded)
            except BaseException as bug:
                if done.callbacks is None:
                    raise  # settled already, by its first block load
                _finish(done, False, bug)

        def loaded(loader: Event) -> None:
            loader._defused = True  # a failed load is done's to report
            if loader._ok:
                collected(loader._value)
            else:
                _finish(done, False, loader._value)

        def collected(merged: dict[str, tuple[Any, float]]) -> None:
            rows = [(key, *merged[key]) for key in sorted(merged)[:limit]]
            end = self.node.reserve_cpu(
                CPU_SCAN_PER_ENTRY_S * max(len(merged), 1))
            Timeout(env, end - env._now, rows, finished)

        def finished(wait: Event) -> None:
            # ``_finish(done, True, rows)``, minus the call: once per scan.
            done._value = wait._value
            callbacks, done.callbacks = done.callbacks, None
            for callback in callbacks:
                callback(done)

        end = self.node.reserve_cpu(extra_cpu_s + CPU_GET_S)
        Timeout(env, end - env._now, None, collect)
        return done

    def _collect_runs(self, start_key: str, limit: int,
                      merged: dict[str, tuple[Any, float]], rows: list,
                      tables: list[SSTable]
                      ) -> Optional[tuple[list[SSTable], list[int], list]]:
        """Merge ``rows`` (memtable rows, newest memtable first, or the
        rows of a run whose blocks are in hand) into ``merged``, then the
        range's rows of each of ``tables`` as far as memory goes.

        Returns ``None``, or on reaching a block the cache does not hold
        ``(the runs still to merge, that block's run first; its blocks
        still to check, that block first; its rows)``.
        """
        contains = self.cache.contains
        position, last = 0, len(tables)
        while True:
            for key, value, ts, _size in rows:
                if key not in merged or ts > merged[key][1]:
                    merged[key] = (value, ts)
            if position == last:
                return None
            table = tables[position]
            blocks, rows = table.blocks_for_range(start_key, limit)
            for index, block_no in enumerate(blocks):
                if not contains(table.sstable_id, block_no):
                    return tables[position:], blocks[index:], rows
            position += 1

    def _collect_loading(self, start_key: str, limit: int, priority: int,
                         merged: dict[str, tuple[Any, float]],
                         missed: tuple[list[SSTable], list[int], list]
                         ) -> Generator:
        """The rest of a scan's collect from its first block-cache miss
        on: ``missed`` as :meth:`_collect_runs` returned it."""
        while missed is not None:
            tables, blocks, rows = missed
            table = tables[0]
            yield from self._load_block(table, blocks[0], priority)
            for block_no in blocks[1:]:
                if not self.cache.contains(table.sstable_id, block_no):
                    yield from self._load_block(table, block_no, priority)
            missed = self._collect_runs(start_key, limit, merged, rows,
                                        tables[1:])
        return merged

    # -- compaction ---------------------------------------------------

    def _maybe_compact(self) -> None:
        if self._compacting:
            return
        batch = pick_compaction(self.sstables,
                                self.spec.compaction_min_batch,
                                self.spec.compaction_max_batch)
        if batch:
            self._compacting = True
            self.env.process(self._compact(batch), name=f"{self.name}-compact")

    def _compact(self, batch: list[SSTable]) -> Generator:
        # Oldest-first so merge ties resolve toward newer tables.
        oldest_first = [t for t in reversed(self.sstables) if t in batch]
        for t in oldest_first:
            yield from self.medium.read_run(
                t.size_bytes, t.file_handle)
        entries = merge_tables(oldest_first)
        yield from self.node.cpu_work(
            CPU_COMPACT_PER_ENTRY_S * max(len(entries), 1))
        merged: Optional[SSTable] = None
        if entries:
            total_out = sum([e[3] for e in entries])
            handle = yield from self.medium.write_run(total_out)
            merged = SSTable(entries, self.spec.block_bytes)
            merged.file_handle = handle
            self._cache_written_blocks(merged)
        # Replace the batch at the position of its newest member.
        positions = [i for i, t in enumerate(self.sstables) if t in batch]
        position = min(positions) if positions else 0
        survivors = [t for t in self.sstables if t not in batch]
        if merged is not None:
            survivors.insert(min(position, len(survivors)), merged)
        self.sstables = survivors
        for table in batch:
            self.cache.evict_sstable(table.sstable_id)
        self.stats["compactions"] += 1
        self._compacting = False
        self._maybe_compact()

    # -- elasticity (streamed ingest) -------------------------------------

    def snapshot_entries(self) -> list[tuple[str, Any, float, int]]:
        """Newest version of every entry, in key order.

        Logical (no I/O charged): range streaming charges the bulk
        disk/NIC I/O for the bytes it ships itself.
        """
        # Oldest first: a timestamp tie goes to the newer source.
        return merge_tables([*reversed(self.sstables),
                             *reversed(self.flushing), self.active])

    def ingest_run(self, entries: list[tuple[str, Any, float, int]]) -> None:
        """Adopt a pre-sorted run (a streamed range).

        No I/O is charged here — the caller models the physical bytes.
        The new run still participates in compaction, which is where the
        post-ingest write amplification (and its disk contention with
        foreground traffic) comes from.
        """
        if not entries:
            return
        table = SSTable(entries, self.spec.block_bytes)
        self.sstables = [table, *self.sstables]
        self._maybe_compact()

    # -- introspection ---------------------------------------------------

    @property
    def n_sstables(self) -> int:
        return len(self.sstables)
