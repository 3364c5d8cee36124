"""Property-based tests (hypothesis) for core data structures and invariants."""

import random
import zlib

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.multidc import NetworkTopologyStrategy
from repro.cassandra.partitioner import TokenRing
from repro.cluster.topology import Cluster, ClusterSpec, TailDefenseConfig
from repro.consistency.oracle import _geo_strong
from repro.hbase.config import HBaseConfig
from repro.hbase.deployment import HBaseCluster
from repro.keyspace import KEY_DOMAIN, key_for_index, key_for_token, token_of
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.storage.bloom import BloomFilter
from repro.storage.cache import BlockCache
from repro.storage.compaction import merge_tables
from repro.storage.lsm import StorageSpec
from repro.storage.memtable import Memtable
from repro.storage.sstable import SSTable
from repro.ycsb.generators import DiscreteGenerator, ZipfianGenerator
from repro.ycsb.measurements import percentile
from tests.conftest import ownership_fractions

keys = st.text(alphabet="abcdefghij", min_size=1, max_size=8)


class TestMemtableModel:
    """The memtable behaves like a dict that keeps the max-timestamp entry."""

    @given(st.lists(st.tuples(keys, st.integers(), st.floats(
        min_value=0, max_value=1e6, allow_nan=False)), max_size=200))
    def test_matches_model(self, operations):
        table = Memtable()
        model: dict = {}
        for key, value, ts in operations:
            table.put(key, value, 10, ts)
            if key not in model or ts >= model[key][1]:
                model[key] = (value, ts)
        for key, (value, ts) in model.items():
            got = table.get(key)
            assert got is not None
            assert got[1] == ts
        assert len(table.items_sorted()) == len(model)

    @given(st.lists(st.tuples(keys, st.integers()), min_size=1, max_size=100))
    def test_items_sorted(self, operations):
        table = Memtable()
        for key, value in operations:
            table.put(key, value, 1, 1.0)
        sorted_keys = [k for k, *_ in table.items_sorted()]
        assert sorted_keys == sorted(sorted_keys)


class TestSSTableModel:
    @given(st.dictionaries(keys, st.integers(), min_size=1, max_size=100),
           st.integers(min_value=64, max_value=4096))
    def test_get_matches_dict(self, data, block_bytes):
        entries = [(k, v, 1.0, 32) for k, v in sorted(data.items())]
        table = SSTable(entries, block_bytes=block_bytes)
        for k, v in data.items():
            assert table.get(k) == (v, 1.0, 32)
            assert table.might_contain(k)  # no false negatives

    @given(st.dictionaries(keys, st.integers(), min_size=1, max_size=80),
           keys, st.integers(min_value=1, max_value=30))
    def test_range_scan_matches_sorted_slice(self, data, start, limit):
        entries = [(k, v, 1.0, 16) for k, v in sorted(data.items())]
        table = SSTable(entries, block_bytes=256)
        _, got = table.blocks_for_range(start, limit)
        expected = [k for k in sorted(data) if k >= start][:limit]
        assert [k for k, *_ in got] == expected


class TestSSTableBulkBuild:
    """The run is built in bulk; it equals the entry-at-a-time build."""

    @given(st.dictionaries(keys, st.integers(min_value=1, max_value=3000),
                           max_size=120),
           st.integers(min_value=64, max_value=2048))
    @example({}, 512)
    @example({"a": 4096, "b": 10, "c": 4096}, 1024)
    @example({"a": 512, "b": 512, "c": 512}, 1024)
    def test_equals_per_entry_reference(self, sizes, block_bytes):
        entries = [(key, index, float(index), size) for index, (key, size)
                   in enumerate(sorted(sizes.items()))]
        table = SSTable(entries, block_bytes)
        reference = _PerEntrySSTable(entries, block_bytes)
        assert table._keys == reference.keys
        assert table._values == reference.values
        assert table._key_block == reference.key_block
        assert table.n_blocks == reference.n_blocks
        assert table.size_bytes == reference.size_bytes
        assert table.bloom.items_added == len(entries)
        assert bytes(table.bloom._bits) == reference.bloom_bytes(
            len(table.bloom._bits))

    @given(st.lists(keys, min_size=2, max_size=40))
    def test_unsorted_or_duplicate_input_raises(self, key_list):
        pairs = list(zip(key_list, key_list[1:]))
        assume(any(key <= prev for prev, key in pairs))
        first_bad = next(key for prev, key in pairs if key <= prev)
        with pytest.raises(ValueError) as raised:
            SSTable([(key, 0, 1.0, 10) for key in key_list], 256)
        assert str(raised.value) == \
            f"entries not strictly sorted at {first_bad!r}"


class _PerEntrySSTable:
    """What ``SSTable.__init__`` computed entry by entry before it
    built in bulk; the bloom bits come from :class:`_BigIntBloom`."""

    def __init__(self, entries, block_bytes: int) -> None:
        self.keys, self.values, self.key_block = [], {}, []
        probe = BloomFilter(max(1, len(entries)))
        self.bloom = _BigIntBloom(probe.n_bits, probe.n_hashes)
        self.size_bytes = block_no = block_fill = 0
        for key, value, ts, size in entries:
            if block_fill + size > block_bytes and block_fill > 0:
                block_no += 1
                block_fill = 0
            self.keys.append(key)
            self.key_block.append(block_no)
            self.values[key] = (value, ts, size)
            self.bloom.add(key)
            block_fill += size
            self.size_bytes += size
        self.n_blocks = block_no + 1 if entries else 0

    def bloom_bytes(self, length: int) -> bytes:
        # Bit ``i`` of the integer is bit ``i & 7`` of byte ``i >> 3``.
        return self.bloom.bits.to_bytes(length, "little")


class TestRegionMemo:
    """``region_of`` remembers each key's region; regions never split,
    so the answer is the token lookup's, also after a region moved."""

    @given(st.lists(st.one_of(
        st.integers(min_value=0, max_value=KEY_DOMAIN - 1).map(key_for_token),
        st.integers(min_value=0, max_value=50_000).map(key_for_index)),
        min_size=1, max_size=40))
    @settings(max_examples=40)
    def test_equals_token_lookup_across_a_move(self, addressed):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=5), RngRegistry(3))
        hbase = HBaseCluster(
            cluster, HBaseConfig(replication=2), StorageSpec(),
            TailDefenseConfig(), spare_servers=1)

        def lookups():
            return [hbase.region_for_token(token_of(key))
                    for key in addressed]

        assert [hbase.region_of(key) for key in addressed] == lookups()
        spare = hbase.scale_out_candidate()
        assert hbase.master.activate(spare) > 0
        assert [hbase.region_of(key) for key in addressed] == lookups()
        assert len(hbase._region_of_key) == len(set(addressed))


class TestBloomProperty:
    @given(st.sets(keys, min_size=1, max_size=200))
    def test_no_false_negatives(self, added):
        bloom = BloomFilter(len(added))
        for key in added:
            bloom.add(key)
        assert all(bloom.might_contain(k) for k in added)

    @given(st.sets(keys, max_size=200), st.sets(keys, max_size=200))
    def test_answers_equal_the_big_int_reference(self, added, probed):
        # The filter used to be one Python integer; the bytearray keeps
        # the same hash positions, so every answer — each false positive
        # included — is the one the integer gave.
        bloom = BloomFilter(len(added))
        reference = _BigIntBloom(bloom.n_bits, bloom.n_hashes)
        for key in added:
            bloom.add(key)
            reference.add(key)
        for key in added | probed:
            assert bloom.might_contain(key) == reference.might_contain(key)


class _BigIntBloom:
    """The previous implementation, kept as the reference: bit ``i`` of
    one integer, probes at ``(crc32 + j * (adler32 | 1)) % n_bits``."""

    def __init__(self, n_bits: int, n_hashes: int) -> None:
        self.n_bits, self.n_hashes, self.bits = n_bits, n_hashes, 0

    def _positions(self, key: str) -> list[int]:
        data = key.encode()
        h1, h2 = zlib.crc32(data), zlib.adler32(data) | 1
        return [(h1 + j * h2) % self.n_bits for j in range(self.n_hashes)]

    def add(self, key: str) -> None:
        for position in self._positions(key):
            self.bits |= 1 << position

    def might_contain(self, key: str) -> bool:
        return all(self.bits >> position & 1
                   for position in self._positions(key))


class TestCompactionProperty:
    @given(st.lists(st.dictionaries(keys, st.tuples(
        st.integers(), st.floats(min_value=0, max_value=100,
                                 allow_nan=False)),
        max_size=30), min_size=1, max_size=5))
    def test_merge_keeps_newest_version(self, table_contents):
        tables = []
        model: dict = {}
        for content in table_contents:
            entries = [(k, v, ts, 8) for k, (v, ts) in sorted(content.items())]
            tables.append(SSTable(entries, block_bytes=128))
            for k, (v, ts) in content.items():
                if k not in model or ts >= model[k][1]:
                    model[k] = (v, ts)
        merged = merge_tables(tables)
        assert len(merged) == len(model)
        for key, _value, ts, _size in merged:
            assert ts == model[key][1]


class TestLsmMergeModel:
    """A memtable + flushed SSTables merge back to the dict model.

    Drives a put/flush script against a real memtable (flushing into
    real SSTables at arbitrary points), then checks that compacting the
    flushed tables together with a final flush of the live memtable
    reproduces exactly the newest-version-per-key dict.
    """

    @given(st.lists(st.one_of(
        st.tuples(st.just("put"), keys, st.integers()),
        st.tuples(st.just("flush"), st.just(""), st.just(0))),
        min_size=1, max_size=150))
    def test_flush_then_merge_matches_model(self, script):
        table = Memtable()
        sstables = []
        model: dict = {}
        for ts, (op, key, value) in enumerate(script):
            if op == "put":
                table.put(key, value, 8, float(ts))
                model[key] = (value, float(ts))
            elif table.items_sorted():
                sstables.append(SSTable(table.items_sorted(),
                                        block_bytes=256))
                table = Memtable()
        if table.items_sorted():
            sstables.append(SSTable(table.items_sorted(), block_bytes=256))
        merged = merge_tables(sstables) if sstables else []
        assert [k for k, *_ in merged] == sorted(model)
        for key, value, ts, _size in merged:
            assert (value, ts) == model[key]


class TestCacheProperty:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 20)),
                    max_size=200),
           st.integers(min_value=1, max_value=50))
    def test_budget_never_exceeded(self, accesses, capacity_blocks):
        cache = BlockCache(capacity_blocks * 100)
        for sstable_id, block in accesses:
            if not cache.contains(sstable_id, block):
                cache.insert(sstable_id, block, 100)
            assert cache.used_bytes <= cache.capacity_bytes


class TestRingProperties:
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=KEY_DOMAIN - 1),
           st.integers(min_value=1, max_value=12),
           st.integers())
    @settings(max_examples=50)
    def test_placement_invariants(self, n_nodes, token, rf, seed):
        ring = TokenRing(list(range(n_nodes)), vnodes=8,
                         rng=random.Random(seed))
        replicas = ring.replicas_for_token(token, rf)
        assert len(replicas) == min(rf, n_nodes)
        assert len(set(replicas)) == len(replicas)
        # Prefix property (SimpleStrategy).
        fewer = ring.replicas_for_token(token, max(1, rf - 1))
        assert replicas[:len(fewer)] == fewer


class TestRingOwnershipPartition:
    """Token ownership is a partition of the ring, whatever the vnodes."""

    @given(st.integers(min_value=1, max_value=10),
           st.integers(min_value=1, max_value=32),
           st.integers())
    @settings(max_examples=50)
    def test_fractions_partition_the_ring(self, n_nodes, vnodes, seed):
        ring = TokenRing(list(range(n_nodes)), vnodes=vnodes,
                         rng=random.Random(seed))
        fractions = ownership_fractions(ring)
        assert set(fractions) == set(range(n_nodes))
        assert all(f >= 0.0 for f in fractions.values())
        assert abs(sum(fractions.values()) - 1.0) < 1e-9

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=16),
           st.integers(min_value=0, max_value=KEY_DOMAIN - 1),
           st.integers())
    @settings(max_examples=50)
    def test_full_replication_covers_every_node(self, n_nodes, vnodes,
                                                token, seed):
        ring = TokenRing(list(range(n_nodes)), vnodes=vnodes,
                         rng=random.Random(seed))
        assert set(ring.replicas_for_token(token, n_nodes)) \
            == set(range(n_nodes))


#: (nodes per DC, replicas per DC) for up to three datacenters — the
#: replica count never exceeds the DC's node count, so every drawn
#: topology is satisfiable.
_dc_shapes = st.lists(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=1,
                                                    max_value=n))),
    min_size=1, max_size=3)


def _build_topology(shapes, vnodes, seed):
    """A NetworkTopologyStrategy over DCs ``dc0..dcN`` with node ids
    assigned in blocks (dc0 gets 0..n0-1, dc1 the next block, ...)."""
    node_datacenter: dict[int, str] = {}
    replication_per_dc: dict[str, int] = {}
    next_id = 0
    for index, (n_nodes, rf) in enumerate(shapes):
        dc = f"dc{index}"
        replication_per_dc[dc] = rf
        for _ in range(n_nodes):
            node_datacenter[next_id] = dc
            next_id += 1
    ring = TokenRing(list(node_datacenter), vnodes=vnodes,
                     rng=random.Random(seed))
    return ring, NetworkTopologyStrategy(ring, node_datacenter,
                                         replication_per_dc)


class TestNetworkTopologyProperties:
    """NetworkTopologyStrategy placement invariants, for any topology."""

    @given(_dc_shapes, st.integers(min_value=1, max_value=8),
           st.integers(),
           st.integers(min_value=0, max_value=KEY_DOMAIN - 1))
    @settings(max_examples=60)
    def test_per_dc_counts_exact(self, shapes, vnodes, seed, token):
        _, strategy = _build_topology(shapes, vnodes, seed)
        replicas = strategy.replicas_for_key(key_for_token(token))
        assert len(replicas) == len(set(replicas))
        assert len(replicas) == sum(strategy.replication_per_dc.values())
        for dc, rf in strategy.replication_per_dc.items():
            assert sum(strategy.node_datacenter[r] == dc
                       for r in replicas) == rf

    @given(_dc_shapes, st.integers(min_value=1, max_value=8),
           st.integers(),
           st.integers(min_value=0, max_value=KEY_DOMAIN - 1))
    @settings(max_examples=60)
    def test_replicas_in_dc_partitions_the_set(self, shapes, vnodes, seed,
                                               token):
        _, strategy = _build_topology(shapes, vnodes, seed)
        replicas = strategy.replicas_for_key(key_for_token(token))
        groups = [[r for r in replicas if strategy.node_datacenter[r] == dc]
                  for dc in strategy.replication_per_dc]
        flat = [r for group in groups for r in group]
        assert sorted(flat) == sorted(replicas)
        assert len(flat) == len(set(flat))

    @given(_dc_shapes, st.integers(min_value=1, max_value=8),
           st.integers(),
           st.integers(min_value=0, max_value=KEY_DOMAIN - 1))
    @settings(max_examples=60)
    def test_matches_clockwise_walk(self, shapes, vnodes, seed, token):
        """Reference model: the replicas are exactly the first distinct
        nodes per DC met walking the ring clockwise from the key's
        token (Cassandra's documented semantics) — which also makes the
        placement stable under ring rotation: it depends only on the
        owner sequence from the primary token, not where the walk is
        phrased to start."""
        ring, strategy = _build_topology(shapes, vnodes, seed)
        key = key_for_token(token)
        expected: list[int] = []
        wanted = dict(strategy.replication_per_dc)
        start = ring.primary_index(token_of(key))
        size = len(ring._tokens)
        for step in range(size):
            owner = ring._owners[(start + step) % size]
            if owner in expected:
                continue
            dc = strategy.node_datacenter[owner]
            if wanted.get(dc, 0) > 0:
                expected.append(owner)
                wanted[dc] -= 1
        assert strategy.replicas_for_key(key) == expected

    @given(_dc_shapes, st.integers(min_value=1, max_value=8),
           st.integers())
    @settings(max_examples=30)
    def test_local_quorum_arithmetic_is_per_dc(self, shapes, vnodes, seed):
        """A DC's quorum is over its own RF only — the basis of
        LOCAL_QUORUM's WAN-free latency claim."""
        _, strategy = _build_topology(shapes, vnodes, seed)
        for rf in strategy.replication_per_dc.values():
            local_quorum = rf // 2 + 1
            assert local_quorum <= rf
            assert 2 * local_quorum > rf


class TestConsistencyArithmetic:
    @given(st.sampled_from(list(ConsistencyLevel)),
           st.sampled_from(list(ConsistencyLevel)),
           st.integers(min_value=1, max_value=9))
    def test_quorum_overlap_theorem(self, read_cl, write_cl, rf):
        """R + W > N if and only if is_strong_with says so."""
        try:
            r = read_cl.required(rf)
            w = write_cl.required(rf)
        except Exception:
            return  # level impossible at this rf
        assert read_cl.is_strong_with(write_cl, rf) == (r + w > rf)

    @given(st.sampled_from(list(ConsistencyLevel)),
           st.sampled_from(list(ConsistencyLevel)),
           st.integers(min_value=1, max_value=9),
           st.sampled_from([None, "rack"]))
    def test_one_datacenter_overlap_rule_is_r_plus_w(self, read_cl, write_cl,
                                                     rf, client_dc):
        """The oracle's one overlap rule, on a one-datacenter layout (a
        single rack), classifies every pair as R + W > N does."""
        assert (_geo_strong(read_cl, write_cl, {client_dc: rf}, client_dc)
                == read_cl.is_strong_with(write_cl, rf))

    @given(st.integers(min_value=1, max_value=100))
    def test_quorum_majority(self, rf):
        q = ConsistencyLevel.QUORUM.required(rf)
        assert 2 * q > rf
        assert 2 * (q - 1) <= rf


class TestKeyspaceProperty:
    @given(st.integers(min_value=0, max_value=KEY_DOMAIN - 1))
    def test_token_roundtrip(self, token):
        assert token_of(key_for_token(token)) == token

    @given(st.lists(st.integers(min_value=0, max_value=KEY_DOMAIN - 1),
                    min_size=2, max_size=50))
    def test_order_preserved(self, tokens):
        keys_list = [key_for_token(t) for t in tokens]
        assert sorted(keys_list) == [key_for_token(t)
                                     for t in sorted(tokens)]


class TestStatisticsProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e3,
                              allow_nan=False), min_size=1, max_size=300))
    def test_percentile_bounds(self, values):
        ordered = sorted(values)
        p50 = percentile(ordered, 0.50)
        p95 = percentile(ordered, 0.95)
        p99 = percentile(ordered, 0.99)
        assert ordered[0] <= p50 <= p95 <= p99 <= ordered[-1]

    @given(st.lists(st.floats(min_value=0, max_value=1e3,
                              allow_nan=False), min_size=1, max_size=200),
           st.floats(min_value=1e-6, max_value=1.0))
    def test_percentile_is_nearest_rank(self, values, fraction):
        """The implementation equals the textbook nearest-rank value:
        the smallest element covering at least ``fraction`` of the set."""
        ordered = sorted(values)
        n = len(ordered)
        reference = next(v for i, v in enumerate(ordered)
                         if i + 1 >= fraction * n)
        assert percentile(ordered, fraction) == reference

    @given(st.lists(st.tuples(st.sampled_from("abc"),
                              st.floats(min_value=0.01, max_value=10,
                                        allow_nan=False)),
                    min_size=2, max_size=100))
    def test_discrete_generator_normalizes(self, weighted):
        gen = DiscreteGenerator(weighted, random.Random(0))
        labels = {label for label, _ in weighted}
        assert all(gen.next() in labels for _ in range(50))


class TestZipfianProperty:
    @given(st.integers(min_value=1, max_value=5000), st.integers())
    @settings(max_examples=30)
    def test_range_invariant(self, n, seed):
        gen = ZipfianGenerator(n, random.Random(seed))
        assert all(0 <= gen.next() < n for _ in range(200))
