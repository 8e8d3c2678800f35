"""Forked counting helpers: the processes behind ``--jobs N``.

``Helpers(n, count)`` forks a helper for each batch of a run, up to n
and keeping those it has, so a run of fewer batches forks fewer and later
runs grow the set.  It forks from the process that owns the cache, after
numpy has loaded, so every helper shares the loaded modules and runs
``count`` as the parent has it.  ``run`` sends each idle helper the next
batch, pickled on its task pipe; the helper answers with every (k, N) of
the batch in one pickle, or with the exception the batch raised, and the
parent reads answers as they come (``select``).  Helpers only count: the
parent keeps every cache read and write.

A helper closes, when it starts, every pipe end that the parent holds
for another helper, of any cache, so no helper keeps a task pipe open
that is not its own.  Helpers leave by ``os._exit`` only, so they flush
none of the parent's buffers and run none of its exit hooks, and they
ignore SIGINT: ``close`` ends them with SIGKILL and reaps them, which
waits on no pipe, and ``run`` closes them before anything it raises
leaves it, an interrupt included.  A helper that ends mid-batch is a
ChildProcessError.
"""

from __future__ import annotations

import os
import pickle
import select
import signal

# the parent's ends of every live helper's pipes, for each new helper to close
_PARENT_FDS: set[int] = set()


def _serve(count, tasks, results) -> None:
    """A helper's life: answer each batch pickled on tasks with one pickle on results."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            batch = pickle.load(tasks)
        except EOFError:
            return
        try:
            answer = (True, list(count(batch)))
        except Exception as exc:
            answer = (False, exc)
        pickle.dump(answer, results)
        results.flush()


def _fork(count) -> tuple:
    """Fork one helper; returns (pid, its task pipe, its result pipe) as binary files."""
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
            for fd in (*_PARENT_FDS, task_w, result_r):
                os.close(fd)
            _serve(count, os.fdopen(task_r, "rb"), os.fdopen(result_w, "wb"))
            code = 0
        finally:
            os._exit(code)
    os.close(task_r)
    os.close(result_w)
    _PARENT_FDS.update((task_w, result_r))
    return pid, os.fdopen(task_w, "wb"), os.fdopen(result_r, "rb")


class Helpers:
    """n forked processes that run ``count(batch)``, a generator of (k, N) pairs."""

    def __init__(self, n: int, count):
        self.n = n
        self.count = count
        self.procs: list[tuple] = []  # (pid, task pipe, result pipe)

    def run(self, batches: list[list]):
        """Yield (batch[k], N) for each (k, N) that count gives, a batch's answer at a time."""
        try:
            while len(self.procs) < min(self.n, len(batches)):
                self.procs.append(_fork(self.count))
            todo = iter(batches)
            busy = {}  # result pipe -> (helper, its batch)

            def give(proc) -> None:
                batch = next(todo, None)
                if batch is not None:
                    pickle.dump(batch, proc[1])
                    proc[1].flush()
                    busy[proc[2]] = proc, batch

            for proc in self.procs:
                give(proc)
            while busy:
                for results in select.select(list(busy), [], [])[0]:
                    proc, batch = busy.pop(results)
                    try:
                        ok, answer = pickle.load(results)
                    except (EOFError, pickle.UnpicklingError):
                        raise ChildProcessError(f"counting helper {proc[0]} ended mid-batch") from None
                    if not ok:
                        raise answer
                    give(proc)
                    for k, n in answer:
                        yield batch[k], n
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Kill and reap every helper; the next ``run`` forks new ones."""
        procs, self.procs = self.procs, []
        for pid, _, _ in procs:
            os.kill(pid, signal.SIGKILL)
        for pid, tasks, results in procs:
            os.waitpid(pid, 0)
            for pipe in (tasks, results):
                _PARENT_FDS.discard(pipe.fileno())
                try:
                    pipe.close()
                except BrokenPipeError:  # part of a task was left in the buffer
                    pass
