"""A map over worker processes made by ``os.fork``, with no process pool.

:func:`starmap` runs each ``func(*args)`` on up to ``jobs`` processes,
the caller's included, and returns the results in task order.
``sweep_alpha_tables`` runs its chunks through it.

There are min(jobs, tasks, CPUs) workers.  Worker w runs tasks w,
w + workers, ...: the caller runs share 0 itself and forks one child for
each other share.  A child writes its pickled results, or its pickled
exception, to a pipe of its own and leaves with ``os._exit``, so it runs
no exit handler and flushes none of the caller's buffers.  The caller
reads each pipe to EOF, reaps the child, and puts the results back in
task order; a child's exception is raised again in the caller.  With one
worker, or without ``os.fork``, the calls run in-process.  Fork copies
only the calling thread; strfn starts none.

Why no process pool: importing ``concurrent.futures`` and starting its
workers costs about 15 ms a call, more than the horizon-5 sweep saves by
running in parallel.  A forked child already holds ``func`` and its
arguments, so only the results are pickled.

Why no deadlock: a child waits on nothing but its own pipe.  One whose
results outgrow the pipe's buffer blocks until the caller, done with its
own share, reads that pipe; the caller reads the pipes in turn, and each
read returns data or EOF, since its writer is either still running or
gone.

Nothing is left behind and no partial result is returned: if the
caller's share or a read raises, KeyboardInterrupt included, every child
not yet reaped is killed and reaped, and every pipe is closed.  A child
that ends without sending its outcome raises WorkerError, which names
its exit status.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Callable, Sequence

from .errors import WorkerError


def starmap(func: Callable[..., Any], arg_tuples: Sequence[tuple], jobs: int) -> list[Any]:
    """Each ``func(*args)`` in task order, on up to ``jobs`` processes."""
    workers = min(jobs, len(arg_tuples), os.cpu_count() or 1)
    if workers <= 1 or not hasattr(os, "fork"):
        return [func(*args) for args in arg_tuples]
    children: list[tuple[int, int]] = []  # (pid, read end) of shares 1, 2, ...
    reaped: set[int] = set()
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if not pid:
                _run_share(func, arg_tuples[w::workers], write)
            os.close(write)
            children.append((pid, read))
        results: list[Any] = [None] * len(arg_tuples)
        results[::workers] = [func(*args) for args in arg_tuples[::workers]]
        for w, (pid, read) in enumerate(children, 1):
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped.add(pid)
            if status:
                raise WorkerError(f"worker process {pid} ended without its results "
                                  f"(exit status {os.waitstatus_to_exitcode(status)})")
            sent, payload = pickle.loads(data)
            if not sent:
                raise payload
            results[w::workers] = payload
        return results
    finally:
        for pid, read in children:
            os.close(read)
            if pid not in reaped:
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_share(func: Callable[..., Any], arg_tuples: Sequence[tuple], write: int) -> None:
    """In a forked child: send (True, results) or (False, exception); never returns.

    The exit status is 0 only once the whole outcome is written.  An
    exception that cannot cross the pipe (one whose pickle does not load
    back) is sent as a WorkerError naming it.
    """
    status = 1
    try:
        try:
            outcome = (True, [func(*args) for args in arg_tuples])
        except BaseException as exc:
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome)
            if not outcome[0]:
                pickle.loads(data)
        except Exception as exc:
            data = pickle.dumps((False, WorkerError(
                f"worker process {os.getpid()} could not send its outcome: {exc!r}")))
        with open(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
