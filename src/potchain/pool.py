"""A pool of forked workers: `submit` sends a batch of independent items to
one forked worker per extra CPU this process may run on, cut into one
contiguous share per worker, and returns a handle whose `results()` gives
the items' results in order; `map` is `submit(...).results()`. A worker
runs the task `TASKS` holds under the task's name; the module that defines
the tasks fills the registry at import, and `submit` refuses a name it
does not hold.

The caller owns no share. Between `submit` and `results()` it is free to
do other work (`ledger.import_chain` decodes the next record there); in
`results()` it claims each share's items from the back while the worker
works them from the front, as in the Cilk-5 work deque (Frigo, Leiserson
and Randall, PLDI 1998). The caller writes its back, and the worker the
item it is on (or, once it has stopped, the share's length), to a page
shared across the fork, and the worker stops at the back, so at worst both
work the item where they meet. No lock is taken that a dying or stopped
worker could leave held.

Between items the caller reads the worker's front, not its pipe. When it
reaches a worker that is on the last unclaimed item, or has stopped, it
polls for that worker's answer for at most as long as its own last item of
the task took, then takes the item itself; it never waits on that worker
again in the batch, but goes on taking items from the back, ones the
worker has worked included, until the answer comes. So a worker that is
stopped, has died or sits on a vCPU the host does not run holds a batch up
for one item at most.

A worker whose answer to an earlier batch is still to come is sent nothing,
and the caller works its share; an answer that has come is dropped, and a
batch whose answer was dropped before it read it works those items itself.
`abandon()` claims every item of a batch, so a worker still on it stops
after its current item.

Every item of a batch is worked: there is no early stop. The back claims,
the meeting wait and the spin below each stay because the benchmark reads
slower without them (README, `potchain.pool`). That a batch owns its
worker's answer (`_Worker.batch`) is for correctness: an answer that comes
after the caller took every item, or after `abandon()`, is never read as a
later batch's.

A worker waits for its next share as the caller waits for an answer: it
polls its pipe without sleeping for at most `SPIN_SECONDS`, and only then
blocks in `recv`. A round sends four batches (ring sign, ring verify,
Ed25519 sign and verify), and a worker woken from `recv` starts a share
0.1-0.2 ms later than one that polls: the time the host takes to wake an
idle vCPU. On a 2-vCPU host the idle gaps a worker saw between shares were
p50 1.9 ms and p90 4.3 ms in `sensing-n5`, 2.8 and 4.6 ms in `mining-n20`,
2.5 and 4.0 ms in `chain-replay` and 1.6 and 1.8 ms in `pow-search`, and
5 ms covers 94-100% of them. So an idle worker uses at most 5 ms of one
CPU after each share, then sleeps. The spin is bounded, as in Karlin, Li,
Manasse and Owicki (SOSP 1991), but sized from those gaps rather than from
the cost of a wake-up: a worker has a CPU to itself that the process would
otherwise leave idle.

Workers are forked, not spawned: a spawned worker re-imports the caller's
__main__, which fails in a script that builds a World without a main
guard. potchain starts no threads, so the fork is safe.
"""

from __future__ import annotations

import mmap
import os
import signal
from time import perf_counter

# What a worker runs, by name: the functions as registered, so a wrapper
# later set on a module attribute never runs in a worker.
TASKS: dict = {}

# How long an idle worker polls its pipe before it blocks in `recv`: longer
# than nine in ten of the gaps between a round's batches (see above).
SPIN_SECONDS = 0.005

# How long the caller's last item of each task took, by task name: the
# longest it waits for a worker on the last unclaimed item of a share.
_item_seconds: dict[str, float] = {}


def _poll(conn, timeout: float) -> bool:
    """Whether `conn` has something to read, or its other end has closed,
    within `timeout` s. Polls without sleeping: a process that sleeps in
    the poll wakes well after the message comes."""
    deadline = perf_counter() + timeout
    while not conn.poll():
        if perf_counter() >= deadline:
            return False
    return True


def _serve(conn, parent_end, back, front) -> None:
    """Worker loop: for each (task name, share) received on `conn`, answer
    with the results of the share's items in order, up to the caller's
    claims (index `back[0]` on), keeping the index of the item it is on in
    `front[0]`, and the share's length there once it has stopped. Waits for
    a share polling for up to `SPIN_SECONDS`, then blocking."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # the caller handles Ctrl-C
    parent_end.close()
    for worker in _workers:                         # a sibling's pipe, inherited
        worker.conn.close()
    while True:
        try:
            _poll(conn, SPIN_SECONDS)
            name, share = conn.recv()
            task, results = TASKS[name], []
            for i, item in enumerate(share):
                front[0] = i
                if i >= back[0]:
                    break
                results.append(task(*item))
            front[0] = len(share)       # done: the answer is on its way
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
        page = memoryview(mmap.mmap(-1, 16)).cast("q")
        # the first item of the share sent that the caller has claimed, and
        # the item the worker is on (-1 until it starts the share, the
        # share's length once it has stopped)
        self.back, self.front = page[:1], page[1:]
        self.conn, child_end = context.Pipe()
        self.process = context.Process(target=_serve,
                                       args=(child_end, self.conn, self.back, self.front),
                                       daemon=True)
        self.process.start()
        child_end.close()
        self.batch: Batch | None = None     # the batch whose answer is still to be read

    @property
    def unread(self) -> int:
        """Answers sent and not yet read: 1 or 0, never more."""
        return int(self.batch is not None)

    def send(self, batch: Batch, task: str, share: list) -> bool:
        """Send a share of `batch`, unless the answer to an earlier one is
        still to come (one that has come is read and dropped): whether it
        was sent. Raises one of _DEAD if the worker has died."""
        if self.batch is not None and self.conn.poll():
            self.conn.recv()            # an answer nobody waited for
            self.batch = None
        if self.batch is not None:
            return False
        self.back[0], self.front[0] = len(share), -1
        self.conn.send((task, share))
        self.batch = batch
        return True

    def answered(self, timeout: float = 0.0) -> bool:
        """Whether `results` can return without waiting: the answer has
        come, or the worker has died. Polls for up to `timeout` s, which
        is one item's time at most."""
        try:
            return _poll(self.conn, timeout)
        except _DEAD:
            return True

    def results(self) -> list | None:
        """The answer to the share sent, or None if the worker has died."""
        try:
            answer = self.conn.recv()
        except _DEAD:
            return None
        self.batch = None
        return answer

    def stop(self) -> None:
        self.batch = None
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


def _replace(worker: _Worker) -> _Worker:
    """Stop a worker that has died, and start its replacement in the pool."""
    worker.stop()
    replacement = _Worker()
    for i, other in enumerate(_workers):
        if other is worker:
            _workers[i] = replacement
    return replacement


class Batch:
    """A batch that `submit` has sent to the workers."""

    def __init__(self, fn, items: list):
        self.fn = fn
        workers = start()
        size = max(1, -(-len(items) // max(1, len(workers))))
        # [the worker sent the share, or None if the caller works it; the share]
        self.shares = [[None, items[lo:lo + size]] for lo in range(0, len(items), size)]
        for worker, share in zip(workers, self.shares):
            try:
                sent = worker.send(self, fn.__name__, share[1])
            except _DEAD:
                worker = _replace(worker)
                sent = worker.send(self, fn.__name__, share[1])
            share[0] = worker if sent else None

    def results(self) -> list:
        """`[fn(*item) for item in items]`. Any exception stops every worker
        and propagates."""
        try:
            return [result for worker, share in self.shares
                    for result in self._collect(worker, share)]
        except BaseException:
            stop()                      # a pipe may be left in the middle of a message
            raise

    def abandon(self) -> None:
        """Claim every item left, so a worker still on a share of this batch
        stops after its current item; its answer is read at its next send."""
        for worker, _ in self.shares:
            if worker is not None and worker.batch is self:
                worker.back[0] = 0

    def _answer(self, worker: _Worker) -> list:
        """The worker's answer to its share; [] if none will be read: it
        died, and is replaced, the pool was stopped, or a later batch's send
        dropped it."""
        if worker.batch is not self:
            return []
        answer = worker.results()
        if answer is None:              # never trust items nobody worked
            _replace(worker)
            return []
        return answer

    def _collect(self, worker: _Worker | None, share: list):
        """`fn(*item) for item in share`, in order. For a share sent to a
        worker, the caller claims items from the back until the answer
        comes. Between items it reads the worker's front, and looks for the
        answer only once the worker is on the last unclaimed item or has
        stopped; there it waits the first time as long as its last item
        took. An answer that comes after it took every item stays unread
        until the next send."""
        fn, name = self.fn, self.fn.__name__
        if worker is None:
            yield from (fn(*item) for item in share)
            return
        back, tail, waited = len(share), [], False
        while back and worker.batch is self:
            if worker.front[0] >= back - 1:
                if worker.answered(0.0 if waited else _item_seconds.get(name, 0.0)):
                    break
                waited = True
            back -= 1
            worker.back[0] = back
            started = perf_counter()
            tail.append(fn(*share[back]))
            _item_seconds[name] = perf_counter() - started
        answer = self._answer(worker) if back else []
        yield from answer[:back]
        # items it gave no result for: all, if it died or its answer was dropped
        yield from (fn(*item) for item in share[len(answer):back])
        yield from reversed(tail)


def submit(fn, items) -> Batch:
    """Send `[fn(*item) for item in items]` to the workers, one contiguous
    share each, and return the batch; its `results()` gives the results. A
    worker runs the task registered under `fn.__name__`; the caller runs
    `fn` on the items it claims and on each share a worker still busy with
    an earlier batch was not sent. A name `TASKS` does not hold raises
    ValueError before anything is sent."""
    if fn.__name__ not in TASKS:
        raise ValueError(f"no pool task is registered as {fn.__name__!r}")
    try:
        return Batch(fn, list(items))
    except BaseException:
        stop()                          # a pipe may be left in the middle of a message
        raise


def map(fn, items) -> list:
    """`[fn(*item) for item in items]`, worked on every CPU this process may
    run on."""
    return submit(fn, items).results()
