"""The worker thread: same bytes whatever the CPU count, and no thread for small work.

The CPU-count and thread checks run in fresh interpreters, because this test
process may have started the worker already.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import kzring
from kzring import _workers

KZRING_ROOT = str(Path(kzring.__file__).resolve().parent.parent)

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the worker thread starts only when two CPUs are available",
)


def run_child(script, cwd, *args, **env_vars):
    """Run a script with arguments in a fresh interpreter, kzring first on the
    path; return its last stdout line."""
    env = dict(os.environ, **env_vars)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = KZRING_ROOT + (os.pathsep + rest if rest else "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def cut(count, points_each):
    """The blocks the mapping primitive hands its function, as slices."""
    return list(_workers.ordered_map(lambda block: block, count, points_each))


# (items, points per item): empty work, one block, one item above the bound,
# blocks of one item, and the kernel and CSV batches of the benchmark.
CUTS = [
    (0, 5), (1, 1), (3, _workers.BLOCK_POINTS // 3), (1, 10 * _workers.BLOCK_POINTS),
    (5, _workers.BLOCK_POINTS // 2 + 1), (33, 200 * 5), (164, 200), (201, 200),
    (200, 200 * 5), (100, 201 * 12), (40000, 10), (7, 1),
]


@pytest.mark.parametrize("count, points_each", CUTS)
def test_every_block_holds_at_most_the_block_points_unless_it_holds_one_item(count, points_each):
    for block in cut(count, points_each):
        items = block.stop - block.start
        assert items >= 1
        assert items == 1 or items * points_each <= _workers.BLOCK_POINTS


@pytest.mark.parametrize("count, points_each", CUTS)
def test_the_block_count_is_even_when_above_one(count, points_each):
    blocks = cut(count, points_each)
    # an odd count only where every block holds one item
    assert len(blocks) <= 1 or len(blocks) % 2 == 0 or len(blocks) == count
    assert len(blocks) == (count > 0) or count * points_each > _workers.BLOCK_POINTS


@pytest.mark.parametrize("count, points_each", CUTS)
def test_the_blocks_concatenate_back_to_the_input(count, points_each):
    items = list(range(count))
    blocks = [items[block] for block in cut(count, points_each)]
    assert [k for block in blocks for k in block] == items
    # near-equal blocks
    assert max(map(len, blocks), default=0) - min(map(len, blocks), default=0) <= 1


def test_a_small_batch_stays_on_the_calling_thread():
    seen = []
    blocks = _workers.ordered_map(
        lambda block: seen.append(threading.current_thread()) or sum(range(3)[block]),
        3, _workers.BLOCK_POINTS // 3,
    )
    assert list(blocks) == [3]
    assert seen == [threading.current_thread()]


@needs_two_cpus
def test_a_large_batch_runs_every_second_block_on_the_worker():
    seen = []
    blocks = _workers.ordered_map(
        lambda block: seen.append((block.start, threading.current_thread())) or block.start,
        8, _workers.BLOCK_POINTS // 2,
    )
    assert list(blocks) == [0, 2, 4, 6]
    caller = threading.current_thread()
    assert [start for start, thread in seen if thread is caller] == [0, 4]
    assert sorted(start for start, thread in seen if thread is not caller) == [2, 6]


def test_a_one_item_batch_is_never_split():
    assert cut(1, 10 * _workers.BLOCK_POINTS) == [slice(0, 1)]


@pytest.mark.parametrize("failing", [0, 1], ids=["caller", "worker"])
def test_a_failing_block_raises_on_the_caller(failing):
    def fail(block):
        if block.start == failing:
            raise ValueError(f"block {failing}")
        return block.start

    with pytest.raises(ValueError, match=f"block {failing}"):
        list(_workers.ordered_map(fail, 4, _workers.BLOCK_POINTS))


@pytest.mark.parametrize("count", [0, 1, 2, 9])
def test_the_ordered_map_keeps_the_order(count):
    squares = _workers.ordered_map(
        lambda block: [k * k for k in range(count)[block]], count, _workers.BLOCK_POINTS // 2
    )
    assert [k for block in squares for k in block] == [k * k for k in range(count)]


ONE_BLOCK = """
import json, threading
from kzring import _workers
out = list(_workers.ordered_map(lambda block: block.stop, 4, _workers.BLOCK_POINTS // 4))
print(json.dumps([out, threading.active_count(), _workers._executor is None]))
"""


def test_work_that_fits_in_one_block_starts_no_thread(tmp_path):
    assert json.loads(run_child(ONE_BLOCK, tmp_path)) == [[4], 1, True]


# The benchmark's sweep (fig5 scaled to 200 couplings x 200 times) and its
# fig4 fast quench at 100 realizations, every output file hashed; then the
# number of Python threads the runs left.
CPU_PROBE = """
import hashlib, json, os, sys, threading
if sys.argv[1] != "unpinned":
    os.sched_setaffinity(0, {int(sys.argv[1])})
from kzring.runner import ScenarioConfig, run_scenario, write_outputs
sweep = ScenarioConfig(
    mode="sweep-g", label="sweep", n=1000, h_para=5.0, h0=1.001, v=5e-5,
    t0_offset=0.0, t_points=200, g_sweep_points=200, g_sweep_max=0.3,
    g_max=0.3, g_to_h_max=0.3,
)
ensemble = ScenarioConfig(
    mode="dia", label="ensemble", n=120, v=2e-2, h0=1.09, t0_offset=0.5,
    t_points=201, realizations=100, seed=12345,
)
for cfg in (sweep, ensemble):
    write_outputs(run_scenario(cfg), cfg.label, cfg.mode, "out")
digests = {}
for name in sorted(os.listdir("out")):
    with open(os.path.join("out", name), "rb") as fh:
        digests[name] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps([digests, threading.active_count()]))
"""


@needs_two_cpus
def test_outputs_do_not_depend_on_the_cpu_count(tmp_path):
    # The BLAS thread count is held at 1 in both children: the last bits of
    # the exact-diagonalization magnetization follow it, and OpenBLAS takes
    # its default from the CPUs a process may run on.
    results = []
    for pin in ("unpinned", str(min(os.sched_getaffinity(0)))):
        cwd = tmp_path / pin
        cwd.mkdir()
        results.append(json.loads(run_child(CPU_PROBE, cwd, pin, OPENBLAS_NUM_THREADS="1")))
    (unpinned, threads_unpinned), (pinned, threads_pinned) = results
    assert sum(name.endswith(".csv") for name in unpinned) == 2
    assert sum(name.endswith("_ensemble.json") for name in unpinned) >= 100
    assert unpinned == pinned
    # the main thread, and the worker only where two CPUs are available
    assert (threads_unpinned, threads_pinned) == (2, 1)


SMALL_COMMANDS = """
import contextlib, io, json, threading
import kzring.cli
counts = [threading.active_count()]
for args in (["preset", "fig3"], ["preset", "fig4"], ["preset", "fig5"], ["para"], ["oracle-check"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert kzring.cli.main([*args, "--out", "out"]) == 0
    counts.append(threading.active_count())
print(json.dumps(counts))
"""


def test_importing_and_the_small_commands_start_no_thread(tmp_path):
    # Threads, not modules: scipy imports concurrent.futures itself.
    assert json.loads(run_child(SMALL_COMMANDS, tmp_path)) == [1] * 6
