"""Named, seeded random-number streams.

Every stochastic component in the simulator (disk service jitter, workload
key choice, read-repair coin flips, ...) draws from its own named stream so
that changing one component's consumption pattern does not perturb the
others.  Streams are derived deterministically from a single experiment
seed, which makes whole experiments reproducible bit-for-bit.
"""

from __future__ import annotations

import random
import zlib

__all__ = ["RngRegistry"]


class RngRegistry:
    """A factory of independent :class:`random.Random` streams.

    >>> rngs = RngRegistry(seed=42)
    >>> a = rngs.stream("disk.node0")
    >>> b = rngs.stream("workload.keys")
    >>> a is rngs.stream("disk.node0")
    True
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            derived = (self.seed * 0x9E3779B97F4A7C15 + zlib.crc32(name.encode())) \
                & 0xFFFFFFFFFFFFFFFF
            rng = random.Random(derived)
            self._streams[name] = rng
        return rng
