"""The worker pool: a batch's results are the sequential ones, whoever works
each item, and a worker that dies, stops or lags cannot hold a batch up."""

import multiprocessing
import os
import signal
import time
from collections import Counter
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from potchain import pool

# =============================================================================
# Claims: a worker works its share from the front, the caller from the back
# =============================================================================

CALLER = os.getpid()


def logged(log: str, index: int, hit: bool, pauses: tuple, signum: int):
    """A pool task for these tests: in a worker, first send the worker
    `signum` unless it is 0; append "index pid" to `log`; pause for
    pauses[0] s in the caller or pauses[1] s in a worker; give (index, hit)."""
    in_caller = os.getpid() == CALLER
    if signum and not in_caller:
        os.kill(os.getpid(), signum)
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, b"%d %d\n" % (index, os.getpid()))
    finally:
        os.close(fd)
    pause = pauses[0] if in_caller else pauses[1]
    if pause:
        time.sleep(pause)
    return index, hit


@pytest.fixture(scope="module")
def claims(one_worker):
    """`logged` runs in the workers: it is registered before the pool restarts."""
    pool.stop()
    pool.TASKS["logged"] = logged
    yield
    del pool.TASKS["logged"]
    pool.stop()


@settings(max_examples=80, deadline=None)
@given(size=st.integers(0, 200), hits=st.sets(st.integers(0, 199), max_size=3),
       pause=st.sampled_from([0, 0.0001, 0.0004]))
@example(size=200, hits={0}, pause=0.0001)      # the first item the worker works
@example(size=200, hits={199}, pause=0.0001)    # the first item the caller claims
@example(size=200, hits={100, 101}, pause=0.0004)
@example(size=1, hits={0}, pause=0)
def test_map_is_the_sequential_result_whoever_works_each_item(claims, size, hits, pause):
    # Pauses from 0 to 0.4 ms an item move the point where the caller's
    # claims meet the worker's along the share; the hits are payload that
    # must come back at their own indices, on either side of it.
    items = [(os.devnull, i, i in hits, (pause, pause), 0) for i in range(size)]
    assert pool.map(logged, items) == [(i, i in hits) for i in range(size)]


def worked(log) -> list[tuple[int, int]]:
    """The (index, pid) pairs `logged` appended to `log`."""
    return [tuple(map(int, line.split())) for line in Path(log).read_text().splitlines()]


def test_a_healthy_batch_works_each_item_once_but_where_the_ends_meet(claims, tmp_path):
    # The worker is sent all 20 items and the caller claims from the back at
    # once. An item takes the caller 4 ms and the worker 1 ms, so they meet
    # near the back, and the worker's answer comes while the caller waits
    # for it there, or while it is on the one item both may have taken.
    for batch in range(4):
        log = tmp_path / f"batch{batch}"
        items = [(str(log), i, False, (0.004, 0.001), 0) for i in range(20)]
        assert pool.map(logged, items) == [(i, False) for i in range(20)]
        assert pool._workers[0].batch is None
        counts = Counter(index for index, _ in worked(log))
        assert sorted(counts) == list(range(20))
        assert sum(n - 1 for n in counts.values()) <= len(pool._workers)
        by_caller = {index for index, pid in worked(log) if pid == CALLER}
        assert 19 in by_caller and not by_caller & set(range(10))


def test_claims_hold_with_more_workers_than_cores(claims, monkeypatch):
    """Three workers and the caller share this host's cores, so a claim is
    often written while the worker that reads it is descheduled; every batch
    still gives the sequential results."""
    pool.stop()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    rng, deadline = Random(5), time.monotonic() + 60
    try:
        for _ in range(300):
            size = rng.randrange(120)
            hits = {rng.randrange(150) for _ in range(rng.randrange(3))}
            items = [(os.devnull, i, i in hits, (0, 0), 0) for i in range(size)]
            assert pool.map(logged, items) == [(i, i in hits) for i in range(size)]
            assert time.monotonic() < deadline
        assert len(pool._workers) == 3
        assert all(w.batch is not None or not w.conn.poll() for w in pool._workers)
    finally:
        pool.stop()


@pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGSTOP])
def test_a_worker_killed_or_stopped_mid_batch(claims, tmp_path, signum):
    def batch(poison):
        items = [(os.devnull, i, i == 17, (0.001, 0.0005), signum if i == poison else 0)
                 for i in range(20)]
        return pool.map(logged, items)

    expected = [(i, i == 17) for i in range(20)]
    assert batch(None) == expected
    worker = pool._workers[0]
    try:
        # the worker signals itself on item 3, long before the caller,
        # claiming from item 19 down, reaches it
        assert batch(3) == expected
        if signum == signal.SIGKILL:
            worker.process.join(timeout=10)
            assert not worker.process.is_alive() and pool._workers[0] is not worker
        else:
            assert pool._workers[0] is worker and worker.batch is not None
    finally:
        if worker.process.is_alive():
            os.kill(worker.process.pid, signal.SIGCONT)
    for _ in range(5):
        assert batch(None) == expected
        assert all(w.batch is not None or not w.conn.poll() for w in pool._workers)
    assert pool._workers[0].process.is_alive()


def test_a_stopped_worker_holds_a_batch_up_for_one_item_at_most(claims, tmp_path):
    """The worker stops itself on item 4, which the caller has not claimed:
    the caller claims down to it, waits there for the worker's answer as
    long as its own last item took, then works item 4 and the ones the
    worker had worked. The batch takes its sequential time and a few items
    more, not forever."""
    class Hung(Exception):
        """Not an OSError, which the pool takes for a dead worker."""

    def hang(signum, frame):
        os.kill(worker.process.pid, signal.SIGCONT)     # so that the pool can stop it
        raise Hung("the batch waited on a stopped worker")

    pause, size = 0.01, 12
    items = [(os.devnull, i, False, (pause, pause), signal.SIGSTOP if i == 4 else 0)
             for i in range(size)]
    expected = [(i, False) for i in range(size)]
    assert pool.map(logged, [(*item[:4], 0) for item in items]) == expected
    worker = pool._workers[0]
    log = tmp_path / "log"
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(30)
    try:
        started = time.monotonic()
        assert pool.map(logged, [(str(log), *item[1:]) for item in items]) == expected
        elapsed = time.monotonic() - started
        assert pool._workers[0] is worker and worker.batch is not None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        if worker.process.is_alive():
            os.kill(worker.process.pid, signal.SIGCONT)
    assert elapsed < (size + 6) * pause
    by_caller = {index for index, pid in worked(log) if pid == CALLER}
    assert by_caller == set(range(size))
    assert pool.map(logged, items[:4]) == expected[:4]


# =============================================================================
# Waits: an idle worker polls its pipe for at most SPIN_SECONDS, then sleeps
# =============================================================================

def cpu_seconds_and_state(pid: int) -> tuple[float, str]:
    """The process's user plus system CPU time in s, and its state letter,
    from /proc/<pid>/stat."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK"), fields[0]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_an_idle_worker_polls_for_the_bound_then_sleeps(claims):
    """Over an idle window 40 times the bound, the worker uses at most the
    bound of CPU, plus two clock ticks for the rounding of /proc's counts,
    and ends it asleep in `recv`; a worker that kept polling would use the
    whole window."""
    items = [(os.devnull, i, False, (0, 0), 0) for i in range(40)]
    assert pool.map(logged, items) == [(i, False) for i in range(40)]
    pid = pool._workers[0].process.pid
    before, _ = cpu_seconds_and_state(pid)
    time.sleep(40 * pool.SPIN_SECONDS)
    after, state = cpu_seconds_and_state(pid)
    assert after - before <= pool.SPIN_SECONDS + 2 / os.sysconf("SC_CLK_TCK")
    assert state == "S"


@pytest.mark.parametrize("how", ["pool-stopped", "pipe-closed"])
def test_a_worker_stopped_or_cut_off_while_it_polls_leaves_no_process(claims, how):
    """`pool.stop()` right after a batch, while the worker polls for the
    next, leaves no process running; a worker whose pipe closes while it
    polls returns from its loop, as it does from a blocked `recv`."""
    items = [(os.devnull, i, False, (0, 0), 0) for i in range(40)]
    expected = [(i, False) for i in range(40)]
    assert pool.map(logged, items) == expected
    worker = pool._workers[0]
    if how == "pipe-closed":
        worker.conn.close()
        worker.process.join(timeout=10)
        assert worker.process.exitcode == 0
    pool.stop()
    assert not worker.process.is_alive() and multiprocessing.active_children() == []
    with pytest.raises(ProcessLookupError):
        os.kill(worker.process.pid, 0)
    assert pool.map(logged, items) == expected


def test_an_unregistered_task_is_refused_before_anything_is_sent(claims):
    """A wrapper without `functools.wraps` is named after itself, which no
    worker could run: the batch raises in the caller and forks no worker,
    and the next batch runs as before."""
    def wrapper(*args):
        return logged(*args)

    items = [(os.devnull, i, False, (0, 0), 0) for i in range(6)]
    pool.stop()
    with pytest.raises(ValueError, match="'wrapper'"):
        pool.map(wrapper, items)
    assert pool._workers == []
    assert pool.map(logged, items) == [(i, False) for i in range(6)]
    assert len(pool._workers) == 1 and pool._workers[0].process.is_alive()
