"""Unit tests for the hard-drive model."""

import random

import pytest

from repro.cluster.disk import (
    BACKGROUND, FLUSH_INTERVAL_S, FOREGROUND, Disk, DiskSpec)
from repro.sim.kernel import Environment


def make_disk(env, jitter=0.0, **kwargs):
    return Disk(env, DiskSpec(jitter=jitter, **kwargs), random.Random(0))


class TestDiskSpec:
    def test_random_access_includes_seek_and_rotation(self):
        spec = DiskSpec(jitter=0.0)
        t = spec.random_access_time(0)
        assert t == pytest.approx(spec.avg_seek_s + spec.rotation_s / 2)

    def test_sequential_access_is_much_cheaper(self):
        spec = DiskSpec(jitter=0.0)
        size = 64 * 1024
        assert spec.sequential_access_time(size) < spec.random_access_time(size) / 3

    def test_transfer_scales_with_size(self):
        spec = DiskSpec(jitter=0.0)
        small = spec.sequential_access_time(1024)
        large = spec.sequential_access_time(1024 * 1024)
        assert large > small


class TestDisk:
    def test_random_read_takes_service_time(self, env):
        disk = make_disk(env)

        def proc(env):
            yield from disk.read(4096)
            return env.now

        elapsed = env.run(until=env.process(proc(env)))
        assert elapsed == pytest.approx(disk.spec.random_access_time(4096))

    def test_reads_queue_on_one_spindle(self, env):
        disk = make_disk(env)
        finish = []

        def proc(env):
            yield from disk.read(4096)
            finish.append(env.now)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        one = disk.spec.random_access_time(4096)
        assert finish == pytest.approx([one, 2 * one])

    def test_foreground_preempts_background_queue(self, env):
        disk = make_disk(env)
        order = []

        def background(env):
            yield from disk.read(4096, priority=BACKGROUND)
            order.append("background")

        def foreground(env):
            yield from disk.read(4096, priority=FOREGROUND)
            order.append("foreground")

        def occupy(env):
            yield from disk.read(4096)

        env.process(occupy(env))

        def submit(env):
            yield env.timeout(0.001)
            env.process(background(env))
            env.process(foreground(env))

        env.process(submit(env))
        env.run()
        assert order == ["foreground", "background"]

    def test_buffered_append_costs_no_time_now(self, env):
        disk = make_disk(env)
        disk.append_buffered(10_000)
        assert env.now == 0.0
        assert disk.dirty_bytes == 10_000

    def test_flusher_drains_dirty_bytes(self, env):
        disk = make_disk(env)
        disk.append_buffered(50_000)
        env.run(until=FLUSH_INTERVAL_S / 2)
        assert disk.dirty_bytes == 50_000
        env.run(until=2.5 * FLUSH_INTERVAL_S)
        assert disk.dirty_bytes == 0
        assert disk.bytes_written == 50_000

    def test_flush_consumes_disk_bandwidth(self, env):
        disk = make_disk(env)
        disk.append_buffered(10 * 1024 * 1024)
        env.run(until=2.0 * FLUSH_INTERVAL_S)
        assert disk.busy_time > 0

    def test_utilization_tracks_busy_fraction(self, env):
        disk = make_disk(env)

        def proc(env):
            for _ in range(10):
                yield from disk.read(8192)

        env.process(proc(env))
        env.run()
        assert 0.9 < disk.busy_time / env.now <= 1.0

    def test_jitter_spreads_service_times(self):
        env = Environment()
        disk = Disk(env, DiskSpec(jitter=0.3), random.Random(1))
        times = []

        def proc(env):
            for _ in range(20):
                start = env.now
                yield from disk.read(4096)
                times.append(env.now - start)

        env.process(proc(env))
        env.run()
        assert len(set(round(t, 9) for t in times)) > 10

    def test_counters(self, env):
        disk = make_disk(env)

        def proc(env):
            yield from disk.read(1000)
            yield from disk.write(2000)

        env.process(proc(env))
        env.run()
        assert disk.bytes_read == 1000
        assert disk.bytes_written == 2000
