"""kzring benchmark: one workload, measured for a fixed time, outputs checked.

Usage (from the root of a checkout):

    python3 bench/run.py --workload sweep|ensemble|cli-cold --seed N \
        --seconds S --trace 0|1

One process drives the load in a closed loop: each iteration starts when
the previous one has finished and its outputs have been checked.  Before
the loop the benchmark times several set-ups in fresh interpreters and runs
untimed warm-up iterations so that lazy caches are filled.

Before each timed iteration, and once after the last, it times the reference
loop (reference_loop.py).  The gated timing metrics divide each iteration's
wall by the mean of the two loops around it, which cancels the host's swings
in speed; the walls in seconds are printed beside them.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json.
--trace 1 alternates untraced and traced iterations on the same inputs and
reports the per-layer metrics; the spans are written to
.bench_runs/trace-<workload>.npz when the run ends.

Human-readable lines go first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  A full record, with
the environment, goes to .bench_runs/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import configs

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 4
# setup_s is in seconds at the speed at which the reference process takes
# this long: the median of each set-up's wall over the mean of the reference
# processes timed around it, times this constant.  It is close to that
# process's median wall on the machine described in README.md, so setup_s
# reads close to the wall there.
REF_PROCESS_S = 0.6
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Counts that must repeat exactly from one traced iteration to the next.
REPEATING = re.compile(r"\.(calls|distinct)$|^dia\.domain_evals$")
# Seconds-based figures printed beside the gated metrics, with their units.
SECONDS_UNITS = {"setup_wall_s": "s", "wall_s_p50": "s", "wall_s_tail": "s", "points_per_s": "1/s", "ref_s_p50": "s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=configs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _read(path: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def git_commit(root: Path) -> str:
    head = _read(str(root / ".git" / "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(str(root / ".git" / ref))
    if direct:
        return direct.strip()
    for line in (_read(str(root / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(root: Path) -> dict:
    """Versions and machine facts recorded beside every result."""
    import numpy
    import scipy

    import kzring

    cpuinfo = _read("/proc/cpuinfo") or ""

    def cpu_field(key: str) -> str | None:
        m = re.search(rf"^{key}\s*:\s*(.+)$", cpuinfo, re.M)
        return m.group(1).strip() if m else None

    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level.strip()} {kind.strip()}"] = size.strip()
    return {
        "kzring": getattr(kzring, "__version__", "unknown"),
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_field("model name") or platform.machine(),
        "cpu_cache_size": cpu_field("cache size"),
        "caches": caches,
        "blas_thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def measure_setup(workload: str, seed: int, src: Path, workdir: Path, importtime: bool):
    """Time SETUP_REPEATS set-ups, each in a fresh interpreter.

    The reference process runs before each set-up and once after the last.
    Returns (spawn-to-exit walls, reference-process walls, in-process import
    seconds, seconds spent importing scipy.sparse.linalg as -X importtime
    reports them, or [] when importtime is off).
    """
    from workloads import child_env, run_child, time_reference_process

    env = child_env(src)
    walls, refs, imports, sparse = [], [], [], []
    for i in range(SETUP_REPEATS):
        refs.append(time_reference_process(workdir, env))
        d = Path(tempfile.mkdtemp(dir=workdir, prefix="setup-"))
        flags = ["-X", "importtime"] if importtime else []
        argv = [sys.executable, *flags, str(BENCH / "setup_probe.py"), workload, str(seed)]
        wall, code, _ = run_child(argv, d, env, d / "stdout", d / "stderr")
        if code != 0:
            raise RuntimeError(
                f"set-up probe exited {code}: {(d / 'stderr').read_text()[-2000:]}"
            )
        walls.append(wall)
        imports.append(json.loads((d / "stdout").read_text().splitlines()[-1])["import_s"])
        if importtime:
            us = 0
            for line in (d / "stderr").read_text().splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() == "scipy.sparse.linalg":
                    us = int(parts[1])
            sparse.append(us / 1e6)
        shutil.rmtree(d)
    refs.append(time_reference_process(workdir, env))
    return walls, refs, imports, sparse


def run(args) -> int:
    root = BENCH.parent
    src = root / "src"
    if not (src / "kzring" / "__init__.py").is_file():
        print(f"error: no kzring sources under {src}; run from a kzring checkout",
              file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    runs = root / ".bench_runs"
    runs.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=runs, prefix=f"{args.workload}-"))
    try:
        return _run(args, root, src, spec, runs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, root, src, spec, runs, workdir) -> int:
    traced = bool(args.trace)
    setup_walls, setup_refs, import_s, sparse_s = measure_setup(
        args.workload, args.seed, src, workdir, importtime=traced
    )
    sys.path.insert(0, str(src))
    from tracing import Tracer
    from workloads import WORKLOAD_CLASSES

    env = environment(root)
    wl = WORKLOAD_CLASSES[args.workload](root, args.seed, workdir)
    attempted = failed = 0
    errors: list[str] = []

    def checked(inp, tracer=None):
        nonlocal attempted, failed
        attempted += 1
        wall, err = wl.iterate(inp, tracer)
        if err is not None:
            failed += 1
            errors.append(err)
        return wall, err

    for inp in wl.warmup_inputs():
        checked(inp)

    walls_ok: list[float] = []
    walls_all: list[float] = []
    ok: list[bool] = []
    refs: list[float] = []  # reference-loop walls, one before each timed iteration
    traced_walls: list[float] = []
    layers: list[dict] = []
    tracer = Tracer() if traced else None
    inputs = wl.inputs()
    deadline = time.perf_counter() + args.seconds
    for inp in inputs:
        refs.append(wl.time_reference_loop())
        wall, err = checked(inp)
        walls_all.append(wall)
        ok.append(err is None)
        if err is None:
            walls_ok.append(wall)
        if tracer is not None:
            untraced_digests = wl.last_digests
            tracer.iteration = len(layers)
            wall, err = checked(inp, tracer)
            metrics = tracer.layer_metrics(tracer.iteration)
            mismatch = None
            if err is None and wl.last_digests != untraced_digests:
                mismatch = "traced outputs differ from the untraced ones on the same inputs"
            elif err is None and layers:
                moved = sorted(k for k in metrics if REPEATING.search(k)
                               and metrics[k] != layers[0][k])
                if moved:
                    mismatch = f"traced call counts differ from the first traced iteration: {moved}"
            if mismatch is not None:
                failed += 1
                errors.append(mismatch)
            elif err is None:
                traced_walls.append(wall)
            layers.append(metrics)
        if time.perf_counter() >= deadline:
            break

    # One more reference loop closes the last iteration's bracket: each
    # iteration is measured against the mean of the loops on either side.
    refs.append(wl.time_reference_loop())
    brackets = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    ratios = [w / r for w, r, good in zip(walls_all, brackets, ok) if good]
    ref_units = sum(w / r for w, r in zip(walls_all, brackets))
    n = len(walls_ok)
    # With no successful iteration the run is not correct, and 0 keeps the
    # result line valid JSON.  A tail is the highest value with at least one
    # iteration beyond it (the slowest but one): ten beyond, the usual rule,
    # would need more iterations than one run has, and one beyond keeps a
    # single stall from setting the value.
    setup_ratios = [w / ((a + b) / 2)
                    for w, a, b in zip(setup_walls, setup_refs, setup_refs[1:])]
    e2e = {
        "setup_s": REF_PROCESS_S * statistics.median(setup_ratios),
        "wall_ref_p50": statistics.median(ratios) if n else 0.0,
        "wall_ref_tail": sorted(ratios)[max(n - 2, 0)] if n else 0.0,
        "points_per_ref": wl.points * n / ref_units if n else 0.0,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    seconds = {
        "setup_wall_s": statistics.median(setup_walls),
        "wall_s_p50": statistics.median(walls_ok) if n else 0.0,
        "wall_s_tail": sorted(walls_ok)[max(n - 2, 0)] if n else 0.0,
        "points_per_s": wl.points * n / sum(walls_all) if n else 0.0,
        "ref_s_p50": statistics.median(refs),
    }
    counts = {
        "setup_s": (f"{REF_PROCESS_S} s x median of {len(setup_walls)} set-ups, "
                    "each over the reference processes around it"),
        "setup_wall_s": f"median of {len(setup_walls)} set-ups",
        "wall_ref_p50": f"median of {n} iterations, each over the reference loops around it",
        "wall_ref_tail": f"slowest but one of {n} iterations, each over the reference loops around it",
        "points_per_ref": f"{wl.points} points x {n} iterations / {ref_units:.4f} ref",
        "peak_rss_mb": ("largest of the command processes" if args.workload == "cli-cold"
                        else "the process driving the load"),
        "wall_s_p50": f"median of {n} iterations",
        "wall_s_tail": f"slowest but one of {n} iterations",
        "points_per_s": f"{wl.points} points x {n} iterations / {sum(walls_all):.3f} s",
        "ref_s_p50": f"median of {len(refs)} reference loops",
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(SECONDS_UNITS)
    error_rate = failed / attempted if attempted else 1.0

    per_layer: dict[str, float] = {}
    if traced and layers:
        for key in layers[0]:
            per_layer[key] = statistics.median(m[key] for m in layers)
        per_layer["import.kzring_cli_s"] = statistics.median(import_s)
        per_layer["import.scipy_sparse_linalg_s"] = statistics.median(sparse_s)
        per_layer["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls_ok) - 1.0
            if traced_walls and walls_ok else 0.0
        )
        tracer.save(str(runs / f"trace-{args.workload}.npz"))

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} attempted={attempted} failed={failed}")
    for name, value in {**e2e, **seconds}.items():
        print(f"  {name:<14} {value:14.6g} {units.get(name, ''):<6} ({counts[name]})")
    print(f"  {'error_rate':<14} {error_rate:14.6g} {'ratio':<6} "
          f"({failed} failed of {attempted} checked iterations)")
    if traced:
        print(f"  traced iterations: {len(layers)} (untraced iterations alternate with them)")
        for name, value in per_layer.items():
            print(f"  {name:<45} {value:14.6g} {units.get(name, '')}")
    for err in errors[:10]:
        print(f"  FAILED: {err}")

    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    source = per_layer if traced else e2e
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(result, env=env, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, sample_counts=counts,
                  error_rate=error_rate, errors=errors, end_to_end=e2e,
                  in_seconds=seconds, per_layer_by_iteration=layers,
                  setup_walls=setup_walls, setup_refs=setup_refs,
                  walls=walls_all, refs=refs,
                  traced_walls=traced_walls)
    with open(runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
