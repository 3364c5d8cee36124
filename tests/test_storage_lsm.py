"""Unit tests for the LSM engine over a local-disk medium."""

import pytest

from repro.cluster.topology import Cluster, ClusterSpec
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.storage.cache import BlockCache
from repro.storage.lsm import LocalDiskMedium, LsmTree, StorageSpec
from repro.storage.sstable import SSTable

pytestmark = pytest.mark.hashseed


@pytest.fixture
def tree_env():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=1), RngRegistry(5))
    node = cluster.node(0)
    spec = StorageSpec(memtable_flush_bytes=2048, block_bytes=512,
                       block_cache_bytes=2048, compaction_min_batch=3,
                       compaction_max_batch=6)
    tree = LsmTree(env, node, LocalDiskMedium(node), spec)
    return env, tree


def drive(env, generator):
    return env.run(until=env.process(generator))


class TestLsmBasics:
    def test_put_get_roundtrip(self, tree_env):
        env, tree = tree_env

        def scenario():
            yield from tree.put("key1", "value1", 100, 1.0)
            result = yield from tree.get("key1")
            return result

        assert drive(env, scenario()) == ("value1", 1.0)

    def test_get_missing_returns_none(self, tree_env):
        env, tree = tree_env

        def scenario():
            result = yield from tree.get("ghost")
            return result

        assert drive(env, scenario()) is None

    def test_update_visible_after_flush(self, tree_env):
        env, tree = tree_env

        def scenario():
            # Enough data to force several flushes (2 KB threshold).
            for i in range(100):
                yield from tree.put(f"key{i:04d}", i, 100, float(i))
            yield from tree.put("key0010", "updated", 100, 1e6)
            result = yield from tree.get("key0010")
            return result

        value, ts = drive(env, scenario())
        assert value == "updated" and ts == 1e6
        env.run(until=env.now + 10)  # background flushes complete
        assert tree.n_sstables >= 1

    def test_lww_across_memtable_and_sstable(self, tree_env):
        env, tree = tree_env

        def scenario():
            yield from tree.put("k", "newest", 100, 100.0)
            for i in range(50):  # push "newest" into an SSTable
                yield from tree.put(f"filler{i}", i, 100, float(i))
            yield env.timeout(5)
            yield from tree.put("k", "stale", 100, 1.0)  # out-of-order write
            result = yield from tree.get("k")
            return result

        value, ts = drive(env, scenario())
        assert value == "newest" and ts == 100.0

    def test_scan_merges_sources_in_key_order(self, tree_env):
        env, tree = tree_env

        def scenario():
            for i in range(60):
                yield from tree.put(f"key{i:04d}", i, 100, 1.0)
            yield env.timeout(5)  # flushes complete
            yield from tree.put("key0005", "fresh", 100, 2.0)  # in memtable
            rows = yield from tree.scan("key0003", 5)
            return rows

        rows = drive(env, scenario())
        assert [k for k, _, _ in rows] == [f"key{i:04d}" for i in range(3, 8)]
        assert dict((k, v) for k, v, _ in rows)["key0005"] == "fresh"

    def test_scan_limit_zero_like_behavior(self, tree_env):
        env, tree = tree_env

        def scenario():
            yield from tree.put("a", 1, 10, 1.0)
            rows = yield from tree.scan("z", 10)
            return rows

        assert drive(env, scenario()) == []


class TestLsmMechanics:
    def test_flush_rotates_memtable(self, tree_env):
        env, tree = tree_env

        def scenario():
            for i in range(30):  # 30 * 100 B > 2 KB threshold
                yield from tree.put(f"key{i:04d}", i, 100, 1.0)
            yield env.timeout(10)

        drive(env, scenario())
        assert tree.stats["flushes"] >= 1
        assert tree.n_sstables >= 1
        assert tree.active.size_bytes < tree.spec.memtable_flush_bytes

    def test_compaction_bounds_sstable_count(self, tree_env):
        env, tree = tree_env

        def scenario():
            for i in range(400):
                yield from tree.put(f"key{i:05d}", i, 100, float(i))
            yield env.timeout(60)

        drive(env, scenario())
        assert tree.stats["compactions"] >= 1
        # Without compaction there would be ~20 tables.
        assert tree.n_sstables < 12

    def test_compaction_preserves_data(self, tree_env):
        env, tree = tree_env

        def scenario():
            for i in range(200):
                yield from tree.put(f"key{i:05d}", i, 100, float(i))
            yield env.timeout(60)
            results = []
            for i in range(0, 200, 17):
                r = yield from tree.get(f"key{i:05d}")
                results.append((i, r))
            return results

        for i, result in drive(env, scenario()):
            assert result is not None and result[0] == i

    def test_block_cache_hits_reduce_io(self, tree_env):
        env, tree = tree_env

        def scenario():
            for i in range(60):
                yield from tree.put(f"key{i:04d}", i, 100, 1.0)
            yield env.timeout(10)
            for _ in range(10):  # repeated reads of one key
                yield from tree.get("key0030")

        drive(env, scenario())
        assert tree.cache.hits > 0

    def test_wal_records_appends(self, tree_env, monkeypatch):
        env, tree = tree_env
        appended = []
        append_log = tree.medium.append_log

        def recording(size):
            appended.append(size)
            return append_log(size)

        monkeypatch.setattr(tree.medium, "append_log", recording)

        def scenario():
            yield from tree.put("a", 1, 123, 1.0)
            yield from tree.put("b", 2, 456, 1.0)

        drive(env, scenario())
        assert appended == [123, 456]

    def test_put_charges_simulated_time(self, tree_env):
        env, tree = tree_env

        def scenario():
            yield from tree.put("a", 1, 100, 1.0)
            return env.now

        assert drive(env, scenario()) > 0.0

    def test_disk_reads_happen_on_cold_gets(self, tree_env):
        env, tree = tree_env

        def scenario():
            for i in range(100):
                yield from tree.put(f"key{i:04d}", i, 100, 1.0)
            yield env.timeout(10)
            yield from tree.get("key0000")

        drive(env, scenario())
        assert tree.stats["block_reads"] >= 1
        assert tree.node.disk.bytes_read > 0


class _GatedMedium:
    """A medium whose block reads wait for ``gate``; everything else is
    free.  Lets a test hold a read on its first block miss, change the
    tree underneath it, and let it go."""

    def __init__(self, env):
        self.gate = env.event()
        self.block_reads = 0

    def append_log(self, size):
        return None

    def read_block(self, size, priority, handle=None):
        self.block_reads += 1
        yield self.gate

    def read_run(self, size, handle=None):
        return
        yield  # pragma: no cover

    def write_run(self, size):
        return None
        yield  # pragma: no cover


class TestReadSeesOneVersionOfTheTree:
    """A flush or compaction landing while a read waits on a block miss
    must not change which runs that read walks."""

    def _tree(self, compaction_min_batch):
        env = Environment()
        node = Cluster(env, ClusterSpec(n_nodes=1), RngRegistry(5)).node(0)
        medium = _GatedMedium(env)
        tree = LsmTree(env, node, medium, StorageSpec(
            memtable_flush_bytes=2048, block_bytes=512,
            block_cache_bytes=1 << 20,
            compaction_min_batch=compaction_min_batch))
        return env, tree, medium

    @staticmethod
    def _write_run(tree, version):
        """``k`` at ``version`` plus filler: exactly one memtable's worth,
        so the last put rotates it into a flush."""
        yield from tree.put("k", f"v{version}", 100, float(version))
        for i in range(20):
            yield from tree.put(f"k{version}-{i:02d}", i, 100, float(version))

    def _parked_read(self, read, min_batch, monkeypatch, counted,
                     calls_per_run):
        """Two runs holding ``k``; start ``read`` on a cold cache and park
        it on its first block miss; land a third run (and, with
        ``min_batch`` 3, the compaction it triggers); release the read."""
        env, tree, medium = self._tree(min_batch)
        for version in (1, 2):
            drive(env, self._write_run(tree, version))
        env.run(until=env.now + 1.0)
        assert tree.n_sstables == 2
        visits = {}
        started_on = [table.sstable_id for table in tree.sstables]
        monkeypatch.setattr(SSTable, counted, self._counting(
            getattr(SSTable, counted), visits))
        tree.cache = BlockCache(tree.spec.block_cache_bytes)
        reads_before = tree.stats["block_reads"]

        reader = read(tree)
        env.run(until=env.now + 1e-3)
        assert medium.block_reads == 1 and not reader.triggered
        drive(env, self._write_run(tree, 3))
        env.run(until=env.now + 1.0)
        assert tree.stats["flushes"] == 3
        if min_batch == 3:
            assert tree.stats["compactions"] == 1 and tree.n_sstables == 1
        else:
            assert tree.stats["compactions"] == 0 and tree.n_sstables == 3
        medium.gate.succeed()
        result = env.run(until=reader)
        # Each of the two runs the read started on: visited, one miss
        # each; the run that landed meanwhile (and any compaction's
        # output): not at all.
        assert visits == {table_id: calls_per_run for table_id in started_on}
        assert tree.stats["block_reads"] - reads_before == 2
        assert medium.block_reads == 2
        return env, tree, result

    @staticmethod
    def _counting(method, visits):
        def counted(table, *args):
            visits[table.sstable_id] = visits.get(table.sstable_id, 0) + 1
            return method(table, *args)
        return counted

    @pytest.mark.parametrize("min_batch", [10, 3],
                             ids=["flush", "flush+compaction"])
    def test_get(self, min_batch, monkeypatch):
        env, tree, result = self._parked_read(
            lambda tree: tree.get("k"), min_batch, monkeypatch,
            "block_of", 2)  # one to find the miss, one to load the block
        # The newest version as of the instant the read looked ...
        assert result == ("v2", 2.0)
        # ... and the next read sees the one that landed.
        assert env.run(until=tree.get("k")) == ("v3", 3.0)

    @pytest.mark.parametrize("min_batch", [10, 3],
                             ids=["flush", "flush+compaction"])
    def test_scan(self, min_batch, monkeypatch):
        env, tree, rows = self._parked_read(
            lambda tree: tree.scan("k", 1), min_batch, monkeypatch,
            "blocks_for_range", 1)
        assert rows == [("k", "v2", 2.0)]
        assert env.run(until=tree.scan("k", 1)) == [("k", "v3", 3.0)]
