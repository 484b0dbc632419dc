"""Map a function over a list of cells in forked workers.

Worker i of w scores ``cells[i::w]``.  The caller is worker 0, and the other
w - 1 are children forked when the map starts, so they share the caller's
memory copy-on-write.  Each child pickles its list of results, or its
exception, into its own pipe and exits, and the caller puts the lists back
in cell order.  The deal is fixed, so a caller whose cells differ in cost
deals its costliest first (``kmeans.sweep`` does), and a cell's result never
depends on the number of workers.  Where ``os.fork`` or the CPU affinity is
missing, the caller scores every cell.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable, NoReturn

from .errors import PrefkitError


def workers(n: int) -> int:
    """The usable CPUs, at most ``n``, or 1 where the platform cannot fork a worker."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n)


def _child(parent: int, read: int, write: int, score: Callable, cells: list) -> NoReturn:
    """A forked worker: pickle the results of its cells, or its exception, into its pipe and exit.

    It exits before a cell once its ``parent`` is gone.  It never returns
    into its caller, so no atexit handler, inherited output buffer or
    caller's code runs twice.
    """
    code = 1
    try:
        os.close(read)  # so a write fails, not blocks, once the parent is gone
        try:
            results = []
            for cell in cells:
                if os.getppid() != parent:
                    os._exit(1)
                results.append(score(cell))
            message = (True, results)
        except BaseException as exc:
            try:  # the parent must be able to rebuild the exception it raises
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = PrefkitError(f"{type(exc).__name__}: {exc}")
            message = (False, exc)
        with os.fdopen(write, "wb") as fh:
            pickle.dump(message, fh)
        code = 0
    finally:
        os._exit(code)


def _received(data: bytes, status: int) -> list:
    """A reaped child's results, or its failure raised."""
    if os.WIFSIGNALED(status):
        raise PrefkitError(f"a sweep worker was killed by {signal.Signals(os.WTERMSIG(status)).name}")
    if not data:
        raise PrefkitError(f"a sweep worker exited with code {os.waitstatus_to_exitcode(status)} and sent no result")
    ok, payload = pickle.loads(data)
    if not ok:
        raise payload
    return payload


def map_cells(score: Callable, cells: list) -> list:
    """``[score(cell) for cell in cells]``, scored by ``workers(len(cells))`` workers.

    Every child is reaped and every pipe closed on every path: on any
    failure the children still running are killed and waited for before the
    failure is raised.
    """
    if not cells:
        return []
    w, parent, results = workers(len(cells)), os.getpid(), [None] * len(cells)
    running = {}  # child pid -> the read end of its pipe, in the order of the children's first cells
    try:
        for i in range(1, w):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(parent, read, write, score, cells[i::w])
            os.close(write)
            running[pid] = os.fdopen(read, "rb")
        results[::w] = [score(cell) for cell in cells[::w]]
        for i, (pid, pipe) in enumerate(list(running.items()), 1):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del running[pid]
            results[i::w] = _received(data, status)
    except BaseException:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in running.items():
            pipe.close()
            os.waitpid(pid, 0)
    return results
