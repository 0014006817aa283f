"""WorkerPool mechanics: dispatch, ordering, crash containment.

The fault-injection tests arrange for worker processes to SIGKILL
themselves mid-chunk (guarded by a pid check so the parent never dies)
and assert the pool's retry / serial-fallback machinery returns exactly
the results an undisturbed run would.
"""

import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro
from repro.parallel import WorkerPool, fork_available, resolve_workers
from repro.parallel.pool import _run_chunk
from repro.resilience import CancelToken, DeadlineExceeded

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)

PARENT_PID = os.getpid()


def square_chunk(items):
    return [x * x for x in items]


def slow_square_chunk(items):
    time.sleep(0.01)
    return [x * x for x in items]


def short_chunk(items):
    return [x * x for x in items[:-1]] if len(items) > 1 else []


def _die_if_worker():
    if os.getpid() != PARENT_PID:
        os.kill(os.getpid(), signal.SIGKILL)


def make_kill_once_chunk(sentinel_path):
    """Chunk fn whose first worker execution kills its process.

    Removing the sentinel is the atomic claim: exactly one worker wins
    the removal and dies; racers get ``FileNotFoundError`` and proceed.
    """

    def chunk(items):
        try:
            os.remove(sentinel_path)
        except FileNotFoundError:
            pass
        else:
            _die_if_worker()
        return [x * x for x in items]

    return chunk


def make_kill_always_chunk(sentinel_path):
    """Chunk fn that kills every worker that ever runs it."""

    def chunk(items):
        if os.path.exists(sentinel_path):
            _die_if_worker()
        return [x * x for x in items]

    return chunk


class TestSerialPath:
    def test_workers_zero_and_one_run_inline(self):
        for workers in (0, 1):
            with WorkerPool(square_chunk, workers=workers) as pool:
                assert not pool.parallel
                assert pool.map(range(7)) == [x * x for x in range(7)]
                assert pool.chunks_dispatched == 0

    def test_resolve_workers(self):
        assert resolve_workers(None) == 0
        assert resolve_workers(0) == 0
        assert resolve_workers(1) == 0
        assert resolve_workers(-3) == 0
        assert resolve_workers(4) == 4

    def test_empty_input(self):
        with WorkerPool(square_chunk, workers=2) as pool:
            assert pool.map([]) == []

    def test_serial_length_mismatch_raises(self):
        with WorkerPool(short_chunk, workers=0) as pool:
            with pytest.raises(ValueError, match="results"):
                pool.map([1, 2, 3])


class TestParallelDispatch:
    def test_order_preserved(self):
        items = list(range(37))
        with WorkerPool(square_chunk, workers=2, chunk_size=3) as pool:
            assert pool.map(items) == [x * x for x in items]
            assert pool.chunks_dispatched == 13

    def test_matches_serial(self):
        items = list(range(101))
        with WorkerPool(square_chunk, workers=2) as pool:
            parallel = pool.map(items)
        with WorkerPool(square_chunk, workers=0) as pool:
            assert parallel == pool.map(items)

    def test_pool_reusable_across_maps(self):
        with WorkerPool(square_chunk, workers=2, chunk_size=5) as pool:
            for _ in range(3):
                assert pool.map(range(11)) == [x * x for x in range(11)]

    def test_inflight_window_bounds_dispatch(self):
        # 20 chunks, window = 2 workers x 1 chunk: the pool must drain
        # and refill rather than submitting everything at once.
        with WorkerPool(
            slow_square_chunk, workers=2, chunk_size=1, inflight_per_worker=1
        ) as pool:
            assert pool.map(range(20)) == [x * x for x in range(20)]
            assert pool.chunks_dispatched == 20

    def test_parallel_length_mismatch_raises(self):
        with WorkerPool(short_chunk, workers=2, chunk_size=2) as pool:
            with pytest.raises(ValueError, match="results"):
                pool.map([1, 2, 3, 4])

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(square_chunk, workers=2, chunk_size=0)
        with pytest.raises(ValueError):
            WorkerPool(square_chunk, workers=2, max_retries=-1)
        with pytest.raises(ValueError):
            WorkerPool(square_chunk, workers=2, inflight_per_worker=0)


class TestCrashContainment:
    def test_killed_worker_retried_with_identical_results(self, tmp_path):
        sentinel = tmp_path / "kill-once"
        sentinel.touch()
        items = list(range(24))
        with WorkerPool(
            make_kill_once_chunk(str(sentinel)), workers=2, chunk_size=4
        ) as pool:
            assert pool.map(items) == [x * x for x in items]
            assert pool.pool_rebuilds >= 1
            assert pool.chunk_retries >= 1
            assert pool.serial_fallbacks == 0
        assert not sentinel.exists()

    def test_pool_broken_at_submit_loses_no_chunk(self, monkeypatch):
        # A worker's death can surface from submit() itself, once the
        # executor has marked itself broken; the chunk being submitted
        # must be retried, not dropped. A dropped chunk would leave
        # map() spinning, so a deadline turns that into a failure.
        submit = ProcessPoolExecutor.submit
        calls = []

        def breaks_on_third_call(executor, *args):
            calls.append(args[1])
            if len(calls) == 3:
                raise BrokenProcessPool("a worker died")
            return submit(executor, *args)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", breaks_on_third_call)
        items = list(range(24))
        with WorkerPool(square_chunk, workers=2, chunk_size=4) as pool:
            pool.set_cancel(CancelToken(deadline_s=20))
            assert pool.map(items) == [x * x for x in items]
            assert pool.pool_rebuilds == 1
            assert sorted(set(calls)) == list(range(6))

    def test_always_killed_chunk_falls_back_to_parent(self, tmp_path):
        # The sentinel stays, so every retry dies too; after max_retries
        # the parent must evaluate the chunks itself (the pid guard makes
        # the chunk fn harmless in-parent) — results still identical.
        sentinel = tmp_path / "kill-always"
        sentinel.touch()
        items = list(range(10))
        with WorkerPool(
            make_kill_always_chunk(str(sentinel)),
            workers=2,
            chunk_size=5,
            max_retries=1,
        ) as pool:
            assert pool.map(items) == [x * x for x in items]
            assert pool.serial_fallbacks >= 1

    def test_restart_refreshes_forked_state(self):
        # Workers snapshot parent memory at fork; sync() must pick up
        # parent-side mutations for the next map().
        state = {"offset": 0}

        def chunk(items):
            return [x + state["offset"] for x in items]

        with WorkerPool(chunk, workers=2, chunk_size=2) as pool:
            assert pool.map(range(6)) == list(range(6))
            state["offset"] = 100
            # Without a restart, live workers keep the old snapshot (the
            # parent-side serial path would see the new value, so only
            # assert the restart contract, not the stale read).
            pool.sync()
            assert pool.map(range(6)) == [x + 100 for x in range(6)]


# A pool-owning process: starts two workers, prints their pids, waits.
_POOL_OWNER = """
import os, sys, time
from repro.parallel import WorkerPool
pool = WorkerPool(lambda items: [os.getpid() for _ in items], workers=2, chunk_size=1)
pool.map(list(range(8)))
print(" ".join(str(pid) for pid in pool._executor._processes), flush=True)
time.sleep(120)
"""


def _running(pid):
    """Whether ``pid`` is a live process (a zombie has already exited)."""
    if os.path.isdir("/proc/self"):
        try:
            with open(f"/proc/{pid}/stat") as stat:
                # The state field follows the parenthesized command name.
                return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def hang_chunk(items):
    time.sleep(300)
    return items  # pragma: no cover - killed first


class TestWorkersReaped:
    """Closing, restarting or leaving a pool returns only once its
    workers are gone."""

    def test_after_with_block(self):
        with WorkerPool(square_chunk, workers=2) as pool:
            assert pool.map(range(8)) == [x * x for x in range(8)]
            assert multiprocessing.active_children()
        assert multiprocessing.active_children() == []

    def test_after_close(self):
        pool = WorkerPool(square_chunk, workers=2)
        pool.map(range(8))
        pool.close()
        assert multiprocessing.active_children() == []
        pool.close()  # idempotent

    def test_after_restart(self):
        with WorkerPool(square_chunk, workers=2) as pool:
            pool.map(range(8))
            before = {child.pid for child in multiprocessing.active_children()}
            pool.sync()
            assert multiprocessing.active_children() == []
            assert pool.map(range(8)) == [x * x for x in range(8)]
            after = {child.pid for child in multiprocessing.active_children()}
            assert after and not after & before
        assert multiprocessing.active_children() == []

    def test_after_cancelled_map(self):
        token = CancelToken(deadline_s=0.3)
        with WorkerPool(hang_chunk, workers=2, chunk_size=1) as pool:
            pool.set_cancel(token)
            with pytest.raises(DeadlineExceeded):
                pool.map(range(8))
            assert multiprocessing.active_children() == []

    def test_busy_worker_killed_on_close(self):
        """A map abandoned mid-chunk leaves busy workers; closing waits
        out the join bound, then kills them."""
        pool = WorkerPool(hang_chunk, workers=2, chunk_size=1)
        future = pool._ensure_executor().submit(_run_chunk, 0, [1])
        started = time.monotonic()
        # Running = handed to the call queue, ahead of any sentinel.
        while not future.running():
            assert time.monotonic() - started < 10
            time.sleep(0.01)
        pool.close()
        assert multiprocessing.active_children() == []
        assert time.monotonic() - started < 10


class TestOrphanedWorkers:
    def test_workers_exit_when_their_parent_is_killed(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        owner = subprocess.Popen(
            [sys.executable, "-c", _POOL_OWNER],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            ready, _, _ = select.select([owner.stdout], [], [], 60)
            assert ready, "the pool owner never reported its workers"
            workers = [int(pid) for pid in owner.stdout.readline().split()]
            assert len(workers) == 2
            assert all(_running(pid) for pid in workers)
        finally:
            owner.kill()
            owner.wait(timeout=10)
            owner.stdout.close()
        deadline = time.monotonic() + 5.0
        while any(_running(pid) for pid in workers):
            assert time.monotonic() < deadline, (
                f"workers {[p for p in workers if _running(p)]} outlived "
                "their SIGKILLed parent"
            )
            time.sleep(0.05)
