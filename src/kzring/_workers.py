"""A second thread for the numpy work that releases the interpreter lock.

The closed-form kernels and the CSV writer spend their time in numpy
ufuncs, BLAS products and ``np.compress``, which all release the lock, so a
second thread runs them on a second CPU.  The work is shared by the calling
thread and one worker thread, so at most min(2, CPUs) threads work at once:
each thread that allocates keeps its own malloc arena, so a third would add
memory and no speed.  The worker is started at the first call that needs it,
and never when the process may run on one CPU only, so importing kzring,
and any work too small to split, starts no thread.

Work is counted in points: (config, time, domain) triples for a kernel.  A
batch of more than BLOCK_POINTS points is split into two halves; the dia
kernel also works through each half in blocks of about that many points.
Every row is computed by the same arithmetic whichever thread runs it, so
the results do not depend on the number of CPUs.

Standard library only; no other kzring module is imported here.
"""

from __future__ import annotations

import os
import threading

__all__ = ["BLOCK_POINTS", "in_halves", "ordered_map"]

# Largest batch, in points, that one thread works through at once.
BLOCK_POINTS = 1 << 15

_lock = threading.Lock()
_executor = None


def _worker():
    """The one-thread executor, created on first use; None on one CPU."""
    global _executor
    with _lock:
        if _executor is None:
            cpus = (
                len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1
            )
            if cpus < 2:
                return None
            from concurrent.futures import ThreadPoolExecutor

            _executor = ThreadPoolExecutor(1, thread_name_prefix="kzring")
        return _executor


def _both(fn, first, second) -> tuple:
    """fn(first) and fn(second), the second on the worker while the calling
    thread runs the first."""
    worker = _worker()
    if worker is None:
        return fn(first), fn(second)
    future = worker.submit(fn, second)
    try:
        done = fn(first)
    finally:
        # read the worker's result even when the first call raised
        rest = future.result()
    return done, rest


def in_halves(fn, items, points: int) -> list:
    """[fn(items)] for a batch of up to BLOCK_POINTS points, of one item or
    on one CPU; otherwise [fn(first half), fn(second half)], run at once."""
    if points <= BLOCK_POINTS or len(items) < 2 or _worker() is None:
        return [fn(items)]
    mid = (len(items) + 1) // 2
    return list(_both(fn, items[:mid], items[mid:]))


def ordered_map(fn, items):
    """Yield fn of each item, in order.

    The items are taken two at a time, the first of each pair run on the
    calling thread and the second on the worker, so no more than two are in
    progress at once.
    """
    items = list(items)
    for start in range(0, len(items) - 1, 2):
        yield from _both(fn, items[start], items[start + 1])
    if len(items) % 2:
        yield fn(items[-1])
