"""A pool of forked workers: `map` works a batch of independent items on
every CPU this process may run on, cut into one contiguous share per CPU.
The caller works the first and one forked worker per extra CPU works each
of the others, running the task `TASKS` holds under the same name; the
module that defines the tasks fills the registry at import.

A worker gets its share over a pipe written by the caller itself; a pool's
feeder thread would wait for the GIL, which OpenSSL's verify holds, until
the caller's own share is done. The caller and a worker claim the worker's
items from opposite ends, as in the Cilk-5 work deque (Frigo, Leiserson and
Randall, PLDI 1998): the worker from the front, the caller from the back
once its own share is done. The caller writes its back to a page shared
across the fork and the worker stops there, so at worst both work the item
where they meet. No lock is taken that a dying or stopped worker could
leave held. The caller never waits on a worker, which a vCPU the host does
not run would hold up: until the answer comes, it goes on taking items from
the back, the worker's too. Workers are forked, not spawned: a spawned
worker re-imports the caller's __main__, which fails in a script that
builds a World without a main guard. potchain starts no threads, so the
fork is safe.
"""

from __future__ import annotations

import mmap
import os
import signal
from itertools import chain

# What a worker runs, by name: the functions as registered, so a wrapper
# later set on a module attribute never runs in a worker.
TASKS: dict = {}


def _serve(conn, parent_end, back) -> None:
    """Worker loop: for each (task name, share, stop) received on `conn`,
    answer with the results of the share's items in order, up to the
    caller's claims (index `back[0]` on) or the first r with stop(r)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # the caller handles Ctrl-C
    parent_end.close()
    for worker in _workers:                         # a sibling's pipe, inherited
        worker.conn.close()
    while True:
        try:
            name, share, stop = conn.recv()
            task, results = TASKS[name], []
            for i, item in enumerate(share):
                if i >= back[0]:
                    break
                results.append(task(*item))
                if stop is not None and stop(results[-1]):
                    break
            conn.send(results)
        except Exception:
            # The caller closed the pipe, or sent a share the task raises
            # on; in the second case the caller reruns the share and raises.
            return


# What a pipe raises when the worker at its other end has died. Any other
# error, such as a TimeoutError from an alarm, stops the batch.
_DEAD = (EOFError, BrokenPipeError, ConnectionResetError)


class _Worker:
    """A forked daemon process that works the shares sent to it."""

    def __init__(self):
        import multiprocessing          # paid for only by a process that runs a batch
        context = multiprocessing.get_context("fork")
        # the first item of the share sent that the caller has claimed
        self.back = memoryview(mmap.mmap(-1, 8)).cast("q")
        self.conn, child_end = context.Pipe()
        self.process = context.Process(target=_serve, args=(child_end, self.conn, self.back),
                                       daemon=True)
        self.process.start()
        child_end.close()
        self.unread = 0         # 1 from a send until its answer is read, never more

    def send(self, task: str, share: list, stop) -> bool:
        """Send a share, unless the answer to the last one is still to come
        (one that has come is read and dropped): whether it was sent. Raises
        one of _DEAD if the worker has died."""
        if self.unread and self.conn.poll():
            self.conn.recv()            # an answer nobody waited for
            self.unread = 0
        if self.unread:
            return False
        self.back[0] = len(share)
        self.conn.send((task, share, stop))
        self.unread = 1
        return True

    def answered(self) -> bool:
        """Whether `results` can return without waiting: the answer has come,
        or the worker has died."""
        try:
            return self.conn.poll()
        except _DEAD:
            return True

    def results(self) -> list | None:
        """The answer to the share sent, or None if the worker has died."""
        try:
            answer = self.conn.recv()
        except _DEAD:
            return None
        self.unread = 0
        return answer

    def stop(self) -> None:
        self.conn.close()
        self.process.terminate()
        self.process.join()


_workers: list[_Worker] = []    # this process's workers, one per CPU after the first
_workers_pid = 0                # the process they belong to


def start() -> list[_Worker]:
    """This process's workers, started now unless they are running; none
    on one CPU. A batch starts them itself; a caller that times its
    batches starts them first, so that no timed batch pays for the fork."""
    global _workers_pid
    if _workers_pid != os.getpid():
        _workers.clear()        # a forked child does not own its parent's workers
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        for _ in range(cpus - 1):
            _workers.append(_Worker())
        _workers_pid = os.getpid()
    return _workers


def stop() -> None:
    """Stop this process's workers; the next batch starts new ones."""
    global _workers_pid
    if _workers_pid == os.getpid():
        for worker in _workers:
            worker.stop()
    _workers.clear()
    _workers_pid = 0


_stop_pool = stop       # `map` takes a `stop` argument of its own


def _send(workers: list[_Worker], i: int, task: str, share: list, stop) -> bool:
    """Send worker i a share as in `_Worker.send`; a dead worker is replaced
    and the share sent to its replacement."""
    try:
        return workers[i].send(task, share, stop)
    except _DEAD:
        workers[i].stop()
        workers[i] = _Worker()
        return workers[i].send(task, share, stop)


def _collect(workers: list[_Worker], i: int, fn, share: list):
    """`fn(*item) for item in share`, in order, for the share sent to worker
    i: until the answer comes, the caller claims items from the back. An
    answer that comes after it took every item stays unread until the next
    send. A dead worker is replaced, and the caller works the items it held."""
    worker, back, tail = workers[i], len(share), []
    while back and not worker.answered():
        back -= 1
        worker.back[0] = back
        tail.append(fn(*share[back]))
    if back:
        answer = worker.results()
        if answer is None:              # never trust items nobody worked
            worker.stop()
            workers[i] = _Worker()
            answer = []
        yield from answer[:back]
        # items it gave no result for: all if it died, else only past a hit
        yield from (fn(*item) for item in share[len(answer):back])
    yield from reversed(tail)


def map(fn, items: list, stop=None) -> list:
    """`[fn(*item) for item in items]`, worked on every CPU this process may
    run on; with `stop`, only the results up to the first r with stop(r).

    The caller runs `fn` on its own share, on each share a worker still
    busy with an earlier batch was not sent, and on the items it claims. A
    worker runs the task registered under `fn.__name__`, and `stop`, which
    must pickle. At the end every item left is claimed, so a worker still on
    a share stops after its current item and its answer is dropped at its
    next send. Any exception stops every worker and propagates.
    """
    workers = start()
    size = max(1, -(-len(items) // (len(workers) + 1)))
    shares = [items[i:i + size] for i in range(0, len(items), size)]
    results = []
    try:
        sent = [False] + [_send(workers, i, fn.__name__, share, stop)
                          for i, share in enumerate(shares[1:])]
        for result in chain.from_iterable(
                _collect(workers, i - 1, fn, share) if sent[i]
                else (fn(*item) for item in share)
                for i, share in enumerate(shares)):
            results.append(result)
            if stop is not None and stop(result):
                break
    except BaseException:
        _stop_pool()                    # a pipe may be left in the middle of a message
        raise
    for worker in workers:
        worker.back[0] = 0
    return results
