"""Large work cut into blocks, the blocks shared with one worker thread.

The closed-form kernels and the CSV writer spend their time in numpy
ufuncs, BLAS products and ``np.compress``, which all release the interpreter
lock, so a second thread runs them on a second CPU.  The work is shared by
the calling thread and one worker thread, so at most min(2, CPUs) threads
work at once: each thread that allocates keeps its own malloc arena, so a
third would add memory and no speed.  The worker is started at the first
call that needs it, and never when the process may run on one CPU only, so
importing kzring, and any work that fits in one block, starts no thread.

Work is a count of items of some points each, such as configs of (time,
domain) points or rows of cells.  :func:`ordered_map` cuts it into blocks
of at most BLOCK_POINTS points, which bounds a block's memory, runs them and
hands their results back in order.  Every item is computed alike in any
block and thread, so the results do not depend on the number of CPUs.

Standard library only; no other kzring module is imported here.
"""

from __future__ import annotations

import os
import threading

__all__ = ["BLOCK_POINTS", "ordered_map"]

# Most points one block holds, unless a single item holds more.
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


def _cut(count: int, points_each: int) -> list[slice]:
    """range(count) in the fewest near-equal blocks of at most BLOCK_POINTS
    points, an even number of them if more than one and no block empty."""
    per_block = max(1, BLOCK_POINTS // max(1, points_each))
    blocks = -(-count // per_block)
    if blocks > 1:
        blocks = min(blocks + blocks % 2, count)
    return [slice(k * count // blocks, (k + 1) * count // blocks) for k in range(blocks)]


def ordered_map(fn, count: int, points_each: int):
    """Yield fn(block) for each block of range(count), in order.

    Each block is a slice of the items, of at most BLOCK_POINTS points
    unless it holds a single item.  Work that fits in one block runs on the
    calling thread.  Otherwise the calling thread runs every other block,
    and the worker, where there is one, runs the rest from its queue, so
    neither waits for the other until a result is needed.
    """
    blocks = _cut(count, points_each)
    worker = _worker() if len(blocks) > 1 else None
    if worker is None:
        yield from map(fn, blocks)
        return
    queued = [worker.submit(fn, block) for block in blocks[1::2]]
    try:
        for k, block in enumerate(blocks[::2]):
            yield fn(block)
            if k < len(queued):
                yield queued[k].result()
    finally:
        for future in queued:  # after an error or an early close, run no more
            future.cancel()
