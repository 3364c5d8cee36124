"""The point-read walk, pinned by a property: ``LsmTree._probe`` tests a
run's own keys before its bloom filter and hashes an absent key once per
walk, and must answer exactly what the plain walk answers — key range,
then ``BloomFilter.might_contain`` on every run in range, then the
block cache.  A bloom filter has no false negatives, so a run holding
the key passes it anyway; an absent key inside a run's range still meets
the filter, false positives and their wasted block reads included.

Every generated run set carries one *anchor* run whose filter has false
positives inside the probed key space, so no example passes without the
walk meeting at least one.
"""

from itertools import cycle
from zlib import adler32, crc32

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import Cluster, ClusterSpec
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.storage.bloom import BloomFilter
from repro.storage.cache import BlockCache
from repro.storage.lsm import LocalDiskMedium, LsmTree, StorageSpec
from repro.storage.sstable import SSTable

pytestmark = pytest.mark.hashseed

#: Every key a run may hold; probes also try keys below and above them.
UNIVERSE = [f"k{i:04d}" for i in range(400)]
OUTSIDE = ["a", "k", "k0000-", "k9999", "z"]
ENTRY_BYTES = 100
BLOCK_BYTES = 512

#: Every tenth key: its range spans the universe, and its filter says
#: "maybe" for some of the 360 keys it lacks.
ANCHOR_KEYS = UNIVERSE[::10]

RUNS = st.lists(st.sets(st.sampled_from(UNIVERSE), min_size=1, max_size=40),
                max_size=5)


def _run(keys, version):
    return SSTable([(key, f"v{version}", float(version), ENTRY_BYTES)
                    for key in sorted(keys)], BLOCK_BYTES)


def _tree(runs, anchor_at, memtable_keys, cached):
    """A tree whose run list is ``runs`` with the anchor run inserted at
    ``anchor_at``, ``memtable_keys`` in its memtable, and each run block
    in the cache where ``cached`` (cycled) says so."""
    env = Environment()
    node = Cluster(env, ClusterSpec(n_nodes=1), RngRegistry(1)).node(0)
    tree = LsmTree(env, node, LocalDiskMedium(node),
                   StorageSpec(block_bytes=BLOCK_BYTES))
    tables = [_run(keys, version) for version, keys in enumerate(runs, 1)]
    tables.insert(min(anchor_at, len(tables)), _run(ANCHOR_KEYS, 0.5))
    tree.sstables = tables
    for key in memtable_keys:
        tree.active.put(key, "m", ENTRY_BYTES, 2.5)
    tree.cache = BlockCache(1 << 30)
    flags = cycle(cached)
    for table in tables:
        for block_no in range(table.n_blocks):
            if next(flags):
                tree.cache.insert(table.sstable_id, block_no, BLOCK_BYTES)
    return tree


def reference_probe(tree, key, best=None, tables=None):
    """The walk as it reads in prose: memtables, then each run whose
    range holds ``key`` and whose filter says "maybe", up to the first
    block the cache lacks."""
    if tables is None:
        for memtable in [tree.active, *tree.flushing]:
            found = memtable.get(key)
            if found is not None and (best is None or found[1] > best[1]):
                best = (found[0], found[1])
        tables = tree.sstables
    for i, table in enumerate(tables):
        keys = table._keys
        if not keys or key < keys[0] or key > keys[-1]:
            continue
        if not table.bloom.might_contain(key):
            continue
        if not tree.cache.contains(table.sstable_id, table.block_of(key)):
            return best, tables[i:]
        found = table.get(key)
        if found is not None and (best is None or found[1] > best[1]):
            best = (found[0], found[1])
    return best, None


@given(runs=RUNS, anchor_at=st.integers(0, 5),
       memtable_keys=st.sets(st.sampled_from(UNIVERSE), max_size=10),
       cached=st.lists(st.booleans(), min_size=1, max_size=8),
       resume_at=st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_probe_matches_the_reference_walk(runs, anchor_at, memtable_keys,
                                          cached, resume_at):
    tree = _tree(runs, anchor_at, memtable_keys, cached)
    tables = tree.sstables
    false_positives = 0
    for key in UNIVERSE + OUTSIDE:
        # A fresh walk, and one resumed part-way down the run list (as
        # after a block load), with the newest version found so far.
        assert tree._probe(key) == reference_probe(tree, key)
        suffix = tables[resume_at:]
        best = ("earlier", 1.5)
        assert tree._probe(key, best, suffix) \
            == reference_probe(tree, key, best, suffix)
        false_positives += sum(
            key not in table._values and table._keys[0] <= key
            <= table._keys[-1] and table.bloom.might_contain(key)
            for table in tables)
    assert false_positives > 0


@given(added=st.sets(st.text(max_size=12), max_size=60),
       probed=st.sets(st.text(max_size=12), max_size=60))
def test_a_hashed_lookup_is_the_plain_one(added, probed):
    bloom = BloomFilter(len(added))
    bloom.add_all(added)
    for key in added | probed:
        data = key.encode()
        assert bloom.might_contain_hashed(crc32(data), adler32(data) | 1) \
            == bloom.might_contain(key)
