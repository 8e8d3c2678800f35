"""Forked counting helpers: the processes behind ``--jobs N``, for one request.

``run(batches, n, count)`` forks min(n, len(batches)) helpers from the
process that owns the cache, after numpy has loaded, so every helper
shares the loaded modules, runs ``count`` as the parent has it and holds
``batches`` as they were at the fork.  The parent sends each idle helper
the index of the next batch, pickled on its task pipe, so each helper has
one batch in flight; the helper answers with every (k, N) of the batch in
one pickle, or with the exception the batch raised, and the parent reads
answers as they come (``select``).  Helpers only count: the parent keeps
every cache read and write.

Helpers live for one ``run``.  Its ``finally`` ends them with SIGKILL and
reaps them, which waits on no pipe, whether the run returns, raises, is
interrupted or is closed by its caller.  A helper closes, when it starts,
the parent's ends of the helpers forked before it, leaves by ``os._exit``
only, so it flushes none of the parent's buffers and runs none of its exit
hooks, and ignores SIGINT.  A helper that ends mid-batch is a
ChildProcessError.
"""

from __future__ import annotations

import os
import pickle
import select
import signal


def _serve(batches, count, tasks, results) -> None:
    """A helper's life: answer each batch index pickled on tasks with one pickle on results."""
    while True:
        try:
            k = pickle.load(tasks)
        except EOFError:  # the parent is gone
            return
        try:
            answer = (True, list(count(batches[k])))
        except Exception as exc:
            answer = (False, exc)
        pickle.dump(answer, results)
        results.flush()


def run(batches: list[list], n: int, count):
    """Yield (batch[k], N) for each (k, N) that ``count(batch)`` gives, a batch's answer at a time."""
    procs = []  # (pid, task pipe fd, result pipe), the parent's ends
    ends = []  # the fds of those ends, which each new helper closes
    try:
        for _ in range(min(n, len(batches))):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in (task_r, task_w, result_r, result_w):
                    os.close(fd)
                raise
            if pid == 0:
                code = 1
                try:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    for fd in (*ends, task_w, result_r):
                        os.close(fd)
                    _serve(batches, count, os.fdopen(task_r, "rb"), os.fdopen(result_w, "wb"))
                    code = 0
                finally:
                    os._exit(code)
            os.close(task_r)
            os.close(result_w)
            procs.append((pid, task_w, os.fdopen(result_r, "rb")))
            ends += task_w, result_r
        todo = iter(range(len(batches)))
        busy = {}  # result pipe -> (helper, the index of its batch)

        def give(proc) -> None:
            k = next(todo, None)
            if k is not None:
                os.write(proc[1], pickle.dumps(k))  # a few bytes: one atomic write
                busy[proc[2]] = proc, k

        for proc in procs:
            give(proc)
        while busy:
            for results in select.select(list(busy), [], [])[0]:
                proc, k = busy.pop(results)
                try:
                    ok, answer = pickle.load(results)
                except (EOFError, pickle.UnpicklingError):
                    raise ChildProcessError(f"counting helper {proc[0]} ended mid-batch") from None
                if not ok:
                    raise answer
                give(proc)
                for j, value in answer:
                    yield batches[k][j], value
    finally:
        for pid, _, _ in procs:
            os.kill(pid, signal.SIGKILL)
        for pid, task, results in procs:
            os.waitpid(pid, 0)
            os.close(task)
            results.close()
