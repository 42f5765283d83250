"""The reference loop: fixed work, independent of kzring, that sets the `ref` unit.

The speed of a shared host can swing by up to 2x for tens of seconds at a
time.  The swing slows this loop and a kzring iteration alike, so the
iteration's wall divided by the mean wall of the loops timed just before and
just after it stays steady where the wall alone does not.  The gated timing metrics are in units
of this loop: changing the loop, or how a workload runs it, changes the unit
and makes earlier results incomparable.

The in-process workloads time `work(IN_PROCESS_ROUNDS)` in their own process.
`cli-cold` times this file run as a script in a fresh interpreter, from spawn
to reaped: start-up, the numpy and scipy.sparse.linalg imports a kzring command
also pays, and a shorter loop.
"""

import time

import numpy as np

IN_PROCESS_ROUNDS = 4
SCRIPT_ROUNDS = 1


def work(rounds: int) -> float:
    """Interpreter-bound float and dict work plus small numpy array work."""
    x = np.linspace(0.0, 1.0, 4096)
    acc = 0.0
    for i in range(40_000 * rounds):
        acc += float(np.cos(x[i & 4095])) * 0.5 + (i % 7) * 1e-3
    counts: dict[int, int] = {}
    for i in range(60_000 * rounds):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    for _ in range(200 * rounds):
        y = np.cos(x) ** 3 + np.sqrt(x + 1.0)
    return acc + sum(counts.values()) + float(y[-1])


def timed() -> float:
    """Wall seconds of one in-process run of the loop."""
    t0 = time.perf_counter()
    work(IN_PROCESS_ROUNDS)
    return time.perf_counter() - t0


if __name__ == "__main__":
    import scipy.sparse.linalg  # noqa: F401  # imported for its cost only

    work(SCRIPT_ROUNDS)
