"""Direct-drive layer stages: one layer, nothing else on the path.

Each stage builds the smallest thing that exercises one layer's public
surface, drives it in a loop the harness owns, and reports a host rate
(work items per host second).  They do not depend on the workload or the
seed, so a traced invocation runs them once.  Run as a child process:
prints one JSON line ``{"drive.<layer>.<what>_per_s": rate, ...}``.

The loops live here rather than being imported from ``repro.core.perf``
so the ruler does not move when that module is reworked.
"""

from __future__ import annotations

import json
import random
import sys
import time

from adapter import DRIVE as R

#: Work items per stage, sized for 0.3-0.5 host seconds each (puts: 0.1).
CHURN_EVENTS = 200_000
SWITCHES = 200_000
FANIN_ROUNDS = 16_000
FANIN_WIDTH = 5
RPCS = 30_000
STORAGE_KEYS = 10_000
SCANS = 4_000
KEYGEN_OPS = 120_000
SAMPLES = 400_000


def _rate(items: int, fn) -> float:
    started = time.perf_counter()
    fn()
    return items / (time.perf_counter() - started)


def sim_events() -> float:
    """Bare-timeout churn: heap push, pop and callback dispatch."""
    def run():
        env = R.Environment()

        def feeder(remaining):
            while remaining:
                yield env.timeout(0.001)
                remaining -= 1

        # A few concurrent feeders keep the heap non-trivial.
        for _ in range(4):
            env.process(feeder(CHURN_EVENTS // 4))
        env.run()

    return _rate(CHURN_EVENTS, run)


def sim_switches() -> float:
    """Two-process ping-pong: suspend/resume with no timer on the path
    except the producer's pacing."""
    def run():
        env = R.Environment()
        box = {"ping": env.event()}

        def producer(rounds):
            for _ in range(rounds):
                event = box["ping"]
                box["ping"] = env.event()
                event.succeed()
                yield env.timeout(0.001)

        def consumer(rounds):
            for _ in range(rounds):
                yield box["ping"]

        env.process(producer(SWITCHES // 2))
        env.process(consumer(SWITCHES // 2))
        env.run()

    return _rate(SWITCHES, run)


def sim_fanin() -> float:
    """AllOf / AnyOf over FANIN_WIDTH timeouts: the quorum fan-in shape."""
    def run():
        env = R.Environment()

        def quorum(rounds):
            for i in range(rounds):
                acks = [env.timeout(0.0001 * (j + 1))
                        for j in range(FANIN_WIDTH)]
                if i % 2:
                    yield R.AllOf(env, acks)
                else:
                    yield R.AnyOf(env, [R.AllOf(env, acks),
                                        env.timeout(1.0)])

        for _ in range(4):
            env.process(quorum(FANIN_ROUNDS // 4))
        env.run()

    return _rate(FANIN_ROUNDS, run)


def cluster_rpcs() -> float:
    """Echo RPC between two nodes: NIC + CPU models and the call path."""
    def run():
        env = R.Environment()
        cluster = R.Cluster(env, R.ClusterSpec(n_nodes=2), R.RngRegistry(1))
        src, dst = cluster.node(0), cluster.node(1)

        def echo(payload):
            yield from dst.cpu_work(0.00001)
            return payload

        dst.register("echo", echo)

        def caller(rounds):
            for i in range(rounds):
                reply = yield from cluster.call(
                    src, dst, "echo", i, request_bytes=100,
                    response_bytes=1000, timeout=1.0)
                if reply != i:
                    raise AssertionError("echo returned the wrong payload")

        for _ in range(4):
            env.process(caller(RPCS // 4))
        env.run()

    return _rate(RPCS, run)


def storage_rates() -> dict:
    """``LsmTree`` put, get and scan over a local disk on a one-node
    cluster, with memtables small enough that flushes, SSTable reads and
    compaction take part."""
    env = R.Environment()
    cluster = R.Cluster(env, R.ClusterSpec(n_nodes=1), R.RngRegistry(1))
    node = cluster.node(0)
    tree = R.LsmTree(env, node, R.LocalDiskMedium(node), R.StorageSpec(
        memtable_flush_bytes=256 * 1024, block_bytes=8 * 1024,
        block_cache_bytes=2 * 1024 * 1024))
    keys = [f"user{i:010d}" for i in range(STORAGE_KEYS)]
    order = list(keys)
    random.Random(1).shuffle(order)

    def puts():
        for i, key in enumerate(order):
            yield from tree.put(key, i, 1000, env.now)

    def gets():
        for key in order:
            found = yield from tree.get(key)
            if found is None:
                raise AssertionError(f"{key} was put but not found")

    def scans():
        for key in order[:SCANS]:
            rows = yield from tree.scan(key, 20)
            if not rows or rows[0][0] != key:
                raise AssertionError(f"scan from {key} missed its start")

    def drive(body):
        process = env.process(body())
        env.run(until=process)

    return {
        "drive.storage.puts_per_s": _rate(len(order), lambda: drive(puts)),
        "drive.storage.gets_per_s": _rate(len(order), lambda: drive(gets)),
        "drive.storage.scans_per_s": _rate(SCANS, lambda: drive(scans)),
    }


def ycsb_keys() -> float:
    """Operation + zipfian key choice: the client-side cost paid before
    any simulated work happens."""
    def run():
        workload = R.Workload(R.read_update, 100_000, random.Random(1))
        next_op, next_key = workload.next_operation, workload.next_read_key
        for _ in range(KEYGEN_OPS):
            next_op()
            next_key()

    return _rate(KEYGEN_OPS, run)


def ycsb_samples() -> float:
    """``Measurements.record`` plus the summaries a report takes."""
    def run():
        m = R.Measurements()
        record = m.record
        t = 0.0
        for i in range(SAMPLES):
            t += 0.0001
            record("read" if i % 3 else "update", t, 0.001 + (i % 97) * 1e-6)
        m.started_at, m.finished_at = 0.0, t
        m.stats("read")
        m.stats("update")
        if m.overall_stats().count != SAMPLES:
            raise AssertionError("measurements lost samples")

    return _rate(SAMPLES, run)


def main() -> int:
    rates = {
        "drive.sim.events_per_s": sim_events(),
        "drive.sim.switches_per_s": sim_switches(),
        "drive.sim.fanin_rounds_per_s": sim_fanin(),
        "drive.cluster.rpcs_per_s": cluster_rpcs(),
        **storage_rates(),
        "drive.ycsb.keys_per_s": ycsb_keys(),
        "drive.ycsb.samples_per_s": ycsb_samples(),
    }
    print(json.dumps(rates, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
