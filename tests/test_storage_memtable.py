"""Unit tests for the memtable."""

from repro.storage.memtable import Memtable


class TestMemtable:
    def test_put_get_roundtrip(self):
        table = Memtable()
        table.put("k1", "v1", 100, 1.0)
        assert table.get("k1") == ("v1", 1.0, 100)
        assert table.get("missing") is None

    def test_newer_timestamp_wins(self):
        table = Memtable()
        table.put("k", "old", 10, 1.0)
        table.put("k", "new", 10, 2.0)
        assert table.get("k")[0] == "new"

    def test_stale_timestamp_loses(self):
        table = Memtable()
        table.put("k", "new", 10, 5.0)
        table.put("k", "stale", 10, 1.0)
        assert table.get("k")[0] == "new"

    def test_size_accumulates_versions(self):
        table = Memtable()
        table.put("k", "a", 100, 1.0)
        table.put("k", "b", 100, 2.0)
        assert table.size_bytes == 200
        assert table.items_sorted() == [("k", "b", 2.0, 100)]

    def test_items_sorted_by_key(self):
        table = Memtable()
        for key in ("c", "a", "b"):
            table.put(key, key.upper(), 1, 1.0)
        assert [k for k, *_ in table.items_sorted()] == ["a", "b", "c"]

    def test_scan_from_respects_start_and_limit(self):
        table = Memtable()
        for i in range(10):
            table.put(f"k{i}", i, 1, 1.0)
        rows = table.scan_from("k3", 4)
        assert [k for k, *_ in rows] == ["k3", "k4", "k5", "k6"]

    def test_scan_from_missing_start_key(self):
        table = Memtable()
        table.put("b", 1, 1, 1.0)
        table.put("d", 2, 1, 1.0)
        rows = table.scan_from("c", 5)
        assert [k for k, *_ in rows] == ["d"]
