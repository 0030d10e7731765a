"""Tests for `native.workers`, the one way the package spreads work over threads, and
for `native.usable_cores`, which caps how many it starts."""

import os
import threading
import time

import numpy as np
import pytest

from sardist import native
from sardist.inference import SweepConfig, sweep_estimate
from sardist.native import workers

from conftest import ConstantStub


class TestWorkers:
    def test_one_worker_runs_on_the_caller_and_starts_no_thread(self, started):
        ran = []
        with workers(1) as run:
            run(lambda i: ran.append((i, threading.get_ident())))
        assert ran == [(0, threading.get_ident())]
        assert started == []

    def test_each_index_runs_once_index_zero_on_the_caller(self):
        # every worker waits for the others, so the three run at once on three threads
        together, ran = threading.Barrier(3, timeout=60), {}

        def work(i):
            together.wait()
            ran.setdefault(i, []).append(threading.get_ident())
        with workers(3) as run:
            run(work)
        assert sorted(ran) == [0, 1, 2] and all(len(ids) == 1 for ids in ran.values())
        assert ran[0] == [threading.get_ident()]
        assert len({ids[0] for ids in ran.values()}) == 3

    def test_lowest_numbered_error_raised_after_every_worker_ended(self):
        # worker 2 fails last: `run` must wait for it, then raise worker 1's error
        ended, one_failed = [], threading.Event()

        def work(i):
            try:
                if i == 1:
                    raise KeyError("worker 1")
                if i == 2:
                    time.sleep(0.2)
                    raise ValueError("worker 2")
            finally:
                ended.append(i)
                if i == 1:
                    one_failed.set()
        with workers(3) as run:
            with pytest.raises(KeyError, match="worker 1"):
                run(work)
            assert sorted(ended) == [0, 1, 2]
            assert one_failed.is_set()

    def test_no_thread_outlives_the_block(self):
        before = threading.active_count()
        with workers(4) as run:
            run(lambda i: None)
            run(lambda i: None)   # the pool's threads serve every call in the block
            assert threading.active_count() <= before + 3
        assert threading.active_count() == before

    def test_no_thread_outlives_a_raise(self):
        before = threading.active_count()

        def work(i):
            if i == 2:
                raise RuntimeError("worker 2")
        with pytest.raises(RuntimeError, match="worker 2"):
            with workers(4) as run:
                run(work)
        assert threading.active_count() == before

    def test_failed_sweep_forward_stops_every_worker(self):
        # the third forward fails: the sweep raises and leaves no thread. The failed
        # chunk is at most the fourth (chunk 3), so the sums never pass it, and no
        # chunk is taken 2 x threads past the sums: at most 7 forwards start.
        class ThirdFails(ConstantStub):
            def __init__(self):
                super().__init__(size=4)
                self.lock, self.started = threading.Lock(), 0

            def forward(self, x, train=False, rng=None):
                with self.lock:
                    self.started += 1
                    if self.started == 3:
                        raise MemoryError("third forward")
                return super().forward(x)

        stub, errors = ThirdFails(), []
        frames = np.zeros((2, 2, 40, 40), dtype=np.float32)   # 100 one-window chunks
        before = threading.active_count()

        def sweep():
            try:
                sweep_estimate(stub, frames, SweepConfig(stride=4, batch_size=1, threads=2))
            except MemoryError as exc:
                errors.append(exc)
        caller = threading.Thread(target=sweep)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert [str(e) for e in errors] == ["third forward"]
        assert stub.started <= 7
        assert threading.active_count() == before


class TestUsableCores:
    def test_counts_the_affinity_mask(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity mask on this platform")
        assert native.usable_cores() == len(os.sched_getaffinity(0))

    def test_without_affinity_counts_the_cpus(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert native.usable_cores() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert native.usable_cores() == 1

    @pytest.fixture
    def cgroup(self, tmp_path, monkeypatch):
        """`write(name, text)`: a file of a fake cgroup directory on 4 affinity cores."""
        monkeypatch.setattr(native, "_CGROUP", str(tmp_path))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        (tmp_path / "cpu").mkdir()

        def write(name: str, text: str) -> None:
            (tmp_path / name).write_text(text)
        return write

    @pytest.mark.parametrize("quota, cores", [("100000 100000", 1), ("150000 100000", 2),
                                              ("50000 100000", 1), ("400000 100000", 4),
                                              ("900000 100000", 4), ("max 100000", 4)])
    def test_v2_cpu_max(self, cgroup, quota, cores):
        cgroup("cpu.max", quota + "\n")
        assert native.usable_cores() == cores

    @pytest.mark.parametrize("quota, cores", [("100000", 1), ("150000", 2), ("-1", 4)])
    def test_v1_quota_and_period(self, cgroup, quota, cores):
        cgroup("cpu/cpu.cfs_quota_us", quota + "\n")
        cgroup("cpu/cpu.cfs_period_us", "100000\n")
        assert native.usable_cores() == cores

    def test_v2_read_before_v1(self, cgroup):
        cgroup("cpu.max", "200000 100000\n")
        cgroup("cpu/cpu.cfs_quota_us", "100000\n")
        cgroup("cpu/cpu.cfs_period_us", "100000\n")
        assert native.usable_cores() == 2

    @pytest.mark.parametrize("files", [{}, {"cpu/cpu.cfs_quota_us": "100000"},
                                       {"cpu.max": "abc"}, {"cpu.max": "100000"},
                                       {"cpu.max": "0 100000"}, {"cpu.max": "100000 0"},
                                       {"cpu.max": b"\xff 100000"}],
                             ids=["none", "quota without period", "garbage", "one word",
                                  "zero quota", "zero period", "not ascii"])
    def test_missing_or_unreadable_quota_is_no_quota(self, cgroup, tmp_path, files):
        for name, text in files.items():
            if isinstance(text, bytes):
                (tmp_path / name).write_bytes(text)
            else:
                cgroup(name, text)
        assert native.usable_cores() == 4

    def test_a_directory_in_place_of_a_file_is_no_quota(self, cgroup, tmp_path):
        (tmp_path / "cpu.max").mkdir()
        assert native.usable_cores() == 4
