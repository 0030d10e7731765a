"""Tests for `native.workers` and `native.in_order`, the two ways the package spreads
work over threads, and for `native.usable_cores`, which caps how many it starts."""

import ast
import glob
import os
import threading
import time

import numpy as np
import pytest

from sardist import native
from sardist.inference import SweepConfig, sweep_estimate
from sardist.native import in_order, workers

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


class TestInOrder:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_items_come_back_in_order_each_run_once(self, n):
        # later items finish first, so completion order is not k order
        ran, lock = [], threading.Lock()

        def fn(k):
            time.sleep(0.002 * (k % 4 == 0))
            with lock:
                ran.append(k)
            return k * k
        assert list(in_order(fn, 30, n)) == [k * k for k in range(30)]
        assert sorted(ran) == list(range(30))

    def test_one_worker_is_lazy_and_starts_no_thread(self, started):
        ran = []

        def fn(k):
            ran.append((k, threading.get_ident()))
            return k
        items = in_order(fn, 5, 1)
        assert ran == []
        assert next(items) == 0 and ran == [(0, threading.get_ident())]
        assert next(items) == 1 and len(ran) == 2
        assert list(items) == [2, 3, 4]
        assert started == []

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_stalled_item_lets_at_most_2n_start(self, n):
        release, lock, begun = threading.Event(), threading.Lock(), []

        def fn(k):
            with lock:
                begun.append(k)
            if k == 0:
                release.wait(timeout=60)
            return k
        items = in_order(fn, 40, n)
        waiter = threading.Thread(target=lambda: next(items))
        waiter.start()
        deadline = time.monotonic() + 60
        while len(begun) < 2 * n and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)   # time enough for an unbounded map to start more
        during_stall = len(begun)
        release.set()
        waiter.join(timeout=60)
        assert list(items) == list(range(1, 40))
        assert during_stall == 2 * n

    def test_error_stops_starts_and_is_raised_after_running_items_end(self):
        # item 1 fails while item 2 runs: items past 2 never start, and the
        # error comes only once item 2 has ended
        two_started, one_failed, lock = threading.Event(), threading.Event(), threading.Lock()
        begun, ended = [], []

        def fn(k):
            with lock:
                begun.append(k)
            if k == 1:
                two_started.wait(timeout=60)
                one_failed.set()
                raise KeyError("item 1")
            if k == 2:
                two_started.set()
                one_failed.wait(timeout=60)
                time.sleep(0.2)
                ended.append(k)
            return k
        before, yielded = threading.active_count(), []
        with pytest.raises(KeyError, match="item 1"):
            for item in in_order(fn, 20, 2):
                yielded.append(item)
        assert ended == [2]
        assert yielded == [0] and sorted(begun) == [0, 1, 2]
        assert threading.active_count() == before

    def test_closing_early_cancels_the_items_not_started(self):
        # items 1 and 2 hold both threads until after the close: item 3 never starts
        gate, begun, lock = threading.Event(), [], threading.Lock()

        def fn(k):
            with lock:
                begun.append(k)
            if k:
                gate.wait(timeout=60)
            return k
        before = threading.active_count()
        items = in_order(fn, 100, 2)
        assert next(items) == 0
        opener = threading.Timer(0.2, gate.set)
        opener.start()
        items.close()
        opener.join()
        assert set(begun) <= {0, 1, 2} and threading.active_count() == before


def test_only_native_starts_or_syncs_threads():
    # thread code stays in one module: elsewhere only a `threading.local` is allowed
    banned = {"Condition", "Lock", "RLock", "Thread", "Event", "Semaphore", "Barrier"}
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(native.__file__), "*.py"))):
        if os.path.basename(path) == "native.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            found += [f"{os.path.basename(path)}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "concurrent"
                      or (name.startswith("threading.") and name.split(".")[1] in banned)]
    assert found == []


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
