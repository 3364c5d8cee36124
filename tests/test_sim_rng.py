"""Unit tests for the named RNG streams."""

from repro.sim.rng import RngRegistry


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        rngs = RngRegistry(1)
        assert rngs.stream("a") is rngs.stream("a")

    def test_streams_are_independent(self):
        rngs = RngRegistry(1)
        first = [rngs.stream("a").random() for _ in range(5)]
        # Consuming "b" must not disturb "a"'s future draws.
        rngs2 = RngRegistry(1)
        rngs2.stream("b").random()
        second = [rngs2.stream("a").random() for _ in range(5)]
        assert first == second

    def test_same_seed_reproduces(self):
        a = [RngRegistry(7).stream("x").random() for _ in range(3)]
        b = [RngRegistry(7).stream("x").random() for _ in range(3)]
        assert a == b

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").random()
        b = RngRegistry(2).stream("x").random()
        assert a != b

    def test_different_names_differ(self):
        rngs = RngRegistry(1)
        assert rngs.stream("x").random() != rngs.stream("y").random()
