"""Module path -> layer, and the cProfile roll-up built on it.

A layer is a package under ``src/repro/``.  Files directly under
``repro/`` (and any package this table does not name yet) count as
``core``; builtins, the standard library and the harness's own frames
count as ``python`` — time charged to no package.
"""

from __future__ import annotations

import os

PACKAGE_LAYERS = ("sim", "cluster", "storage", "cassandra", "hbase", "hdfs",
                  "ycsb", "clienttier", "consistency", "energy", "adaptive",
                  "core")
LAYERS = PACKAGE_LAYERS + ("python",)


def layer_of(filename: str, package_root: str) -> str:
    """The layer that owns ``filename`` (``package_root`` = ``.../repro``)."""
    prefix = package_root.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return "python"
    head, sep, _rest = filename[len(prefix):].partition(os.sep)
    return head if sep and head in PACKAGE_LAYERS else "core"


def roll_up(entries, package_root: str) -> dict:
    """Fold ``cProfile.Profile.getstats()`` entries into per-layer totals.

    Self time is cProfile's ``inlinetime`` (``tottime`` in pstats), which
    already excludes callees, so layers add up without double counting.
    Returns ``{"pycalls": int, "layers": {layer: {"self_s", "calls",
    "share"}}}``; shares sum to 1.
    """
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    for entry in entries:
        code = entry.code
        # Builtins are reported as a description string, not a code object.
        name = ("python" if isinstance(code, str)
                else layer_of(code.co_filename, package_root))
        layers[name]["self_s"] += entry.inlinetime
        layers[name]["calls"] += entry.callcount
    total_s = sum(layer["self_s"] for layer in layers.values())
    for layer in layers.values():
        layer["share"] = layer["self_s"] / total_s if total_s > 0 else 0.0
    return {"pycalls": sum(layer["calls"] for layer in layers.values()),
            "layers": layers}


def count_calls(entries, targets) -> int:
    """Total call count of the profile entries whose ``code`` is in
    ``targets`` (code objects for Python functions, cProfile's description
    strings for builtins)."""
    wanted = set(targets)
    return sum(entry.callcount for entry in entries if entry.code in wanted)
