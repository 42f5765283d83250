"""The three workloads: how each drives kzring and checks what it wrote.

`produce` is the timed part, exactly the program's work for one iteration.
`check` reads the outputs back from disk and raises CheckError on a wrong
one.  Children are started one at a time and always waited for.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import configs
import reference_loop
from checks import (
    MZ_TOL,
    CheckError,
    Table,
    columns_close,
    digests,
    require_close,
    require_mean_magnetization,
    require_same_bytes,
    require_unit_interval,
)

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"
CHILD_TIMEOUT_S = 150


def child_env(src: Path) -> dict[str, str]:
    """The caller's environment with an absolute src first on PYTHONPATH."""
    env = dict(os.environ)
    env.pop("KZRING_OUT", None)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + rest if rest else "")
    return env


def _timeout(signum, frame):
    raise TimeoutError


def run_child(argv, cwd, env, stdout_path, stderr_path):
    """Run one child to completion.

    Returns (wall seconds from spawn to reaped, exit code, peak RSS in MiB).
    The child is reaped with wait4 so its own peak RSS is known; a SIGALRM
    timer bounds the wait without starting a thread.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        previous = signal.signal(signal.SIGALRM, _timeout)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def time_reference_process(workdir: Path, env: dict[str, str]) -> float:
    """Wall seconds, spawn to reaped, of reference_loop.py run as a script."""
    d = Path(tempfile.mkdtemp(dir=workdir, prefix="ref-"))
    try:
        argv = [sys.executable, str(BENCH / "reference_loop.py")]
        wall, code, _ = run_child(argv, d, env, d / "stdout", d / "stderr")
        if code != 0:
            raise RuntimeError(
                f"reference loop exited {code}: {read_text(d / 'stderr')[-2000:]}"
            )
        return wall
    finally:
        shutil.rmtree(d, ignore_errors=True)


def read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class Workload:
    """One workload bound to a checkout, a seed and a working directory."""

    name = ""

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.root, self.seed, self.workdir = root, seed, workdir
        self.src = root / "src"
        self.points = configs.POINTS[self.name]
        self._first_digests: dict | None = None
        self.last_digests: dict | None = None

    def inputs(self):
        """Endless iterator of per-iteration inputs."""
        while True:
            yield None

    def warmup_inputs(self) -> list:
        """Untimed, checked iterations run before the timed loop."""
        return [None]

    def iterate(self, inp, tracer=None) -> tuple[float, str | None]:
        """One checked iteration: (timed wall seconds, error or None)."""
        out = Path(tempfile.mkdtemp(dir=self.workdir, prefix="it-"))
        try:
            span = tracer.span("bench.iteration") if tracer else contextlib.nullcontext()
            try:
                with span:
                    wall = self.produce(inp, out, tracer)
            except Exception as exc:  # noqa: BLE001 - a failed iteration is counted, not fatal
                return 0.0, f"{type(exc).__name__}: {exc}"
            try:
                self.last_digests = digests(self.results_dir(out))
                self.check(inp, out)
            except CheckError as exc:
                return wall, str(exc)
            except Exception as exc:  # noqa: BLE001 - unreadable output is a wrong output
                return wall, f"{type(exc).__name__} while checking: {exc}"
            return wall, None
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def results_dir(self, out: Path) -> Path:
        """Where an iteration's program outputs land inside `out`."""
        return out

    def repeat_check(self, where: str) -> None:
        """The outputs must repeat the first checked iteration's bytes."""
        if self._first_digests is None:
            self._first_digests = self.last_digests
        require_same_bytes(self.last_digests, self._first_digests, where)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def time_reference_loop(self) -> float:
        """Wall seconds of one run of the reference loop, the `ref` unit."""
        return reference_loop.timed()


class _InProcess(Workload):
    config: dict = {}

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        import kzring.runner

        self.runner = kzring.runner

    def make_config(self, scenario_seed: int):
        return self.runner.ScenarioConfig(**dict(self.config, seed=scenario_seed))

    def produce(self, cfg, out: Path, tracer=None) -> float:
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            result = self.runner.run_scenario(cfg)
            self.runner.write_outputs(result, cfg.label, cfg.mode, str(out))
            return time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()


class Sweep(_InProcess):
    name = "sweep"
    config = configs.SWEEP

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.reference = Table.read(str(REFERENCE / "sweep" / "sweep_sweep.csv.xz"))
        self.cfg = self.make_config(configs.SWEEP["seed"])

    def inputs(self):
        while True:
            yield self.cfg

    def warmup_inputs(self) -> list:
        return [self.cfg]

    def check(self, cfg, out: Path) -> None:
        table = Table.read(str(out / "sweep_sweep.csv"))
        require_close(table, self.reference, "sweep_sweep.csv")
        self.repeat_check("sweep")


class Ensemble(_InProcess):
    name = "ensemble"
    config = configs.ENSEMBLE

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.reference = Table.read(str(REFERENCE / "ensemble" / "ensemble_dia.csv.xz"))
        self.default_cfg = self.make_config(configs.ENSEMBLE_DEFAULT_SEED)

    def inputs(self):
        # The default seed once more first: its bytes must repeat the warm-up's.
        yield self.default_cfg
        for seed in configs.ensemble_seeds(self.seed):
            yield self.make_config(seed)

    def warmup_inputs(self) -> list:
        return [self.default_cfg]

    def check(self, cfg, out: Path) -> None:
        table = Table.read(str(out / "ensemble_dia.csv"))
        if cfg.seed == configs.ENSEMBLE_DEFAULT_SEED:
            require_close(table, self.reference, "ensemble_dia.csv")
            self.repeat_check("ensemble default seed")
            return
        self._check_other_seed(cfg, table, out)

    def _check_other_seed(self, cfg, table: Table, out: Path) -> None:
        where = f"ensemble seed {cfg.seed}"
        ref = self.reference
        if table.columns != ref.columns or table.n_rows != ref.n_rows:
            raise CheckError(f"{where}: table shape differs from the reference")
        for col in ("t_elapsed", "h_t"):
            if not columns_close(table.column(col), ref.column(col)):
                raise CheckError(f"{where}: column {col} differs from the reference")
        seed_dependent = ("seed", "config", "ensemble_mean_mz")
        for key in set(ref.metadata) | set(table.metadata):
            if key not in seed_dependent and table.metadata.get(key) != ref.metadata.get(key):
                raise CheckError(f"{where}: metadata {key} differs from the reference")
        if table.metadata.get("seed") != str(cfg.seed):
            raise CheckError(f"{where}: metadata seed is {table.metadata.get('seed')}")
        if json.loads(table.metadata["config"]) != dict(
            json.loads(ref.metadata["config"]), seed=cfg.seed
        ):
            raise CheckError(f"{where}: metadata config differs beyond the seed")
        require_unit_interval(table, where)
        lo, mean, hi = (table.column(c) for c in
                        ("concurrence_min", "concurrence", "concurrence_max"))
        if not ((lo <= mean + 1e-12).all() and (mean <= hi + 1e-12).all()):
            raise CheckError(f"{where}: ensemble mean outside [min, max]")
        names = sorted(os.listdir(out))
        ensembles = [n for n in names if n.endswith("_ensemble.json")]
        if len(ensembles) != cfg.realizations:
            raise CheckError(f"{where}: {len(ensembles)} ensembles for {cfg.realizations} realizations")
        clamped0 = False
        for name in ensembles:
            clamped = require_mean_magnetization(read_text(out / name), f"{where} {name}")
            if name == "ensemble_dia_ensemble.json":
                clamped0 = clamped
        if not clamped0:
            mean_mz = float(table.metadata["ensemble_mean_mz"])
            if abs(mean_mz - float(table.metadata["m0z_target"])) > MZ_TOL:
                raise CheckError(f"{where}: ensemble_mean_mz {mean_mz} != m0z_target")


class CliCold(Workload):
    name = "cli-cold"

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.env = child_env(self.src)
        self.references = {
            p.name[: -len(".xz")]: Table.read(str(p))
            for p in sorted((REFERENCE / "cli-cold").glob("*.csv.xz"))
        }
        self.child_rss_mb = 0.0
        self.last_exit_codes: list[int] = []

    def produce(self, inp, out: Path, tracer=None) -> float:
        """Run the commands in order, each in a fresh interpreter.

        The untraced run starts the real `python -m kzring.cli`; the traced
        run starts cli_entry.py, which wraps the layers and calls
        kzring.cli.main with the same arguments.
        """
        cwd = out / "cwd"
        results = self.results_dir(out)
        logs = out / "logs"
        for d in (cwd, results, logs):
            d.mkdir()
        codes = []
        t0 = time.perf_counter()
        for i, cmd in enumerate(configs.CLI_COMMANDS):
            args = [*cmd, "--out", str(results)]
            if tracer is None:
                argv = [sys.executable, "-m", "kzring.cli", *args]
            else:
                trace_file = logs / f"{i}.npz"
                argv = [sys.executable, str(BENCH / "cli_entry.py"), str(trace_file), *args]
            start_ns = time.perf_counter_ns()
            _, code, rss = run_child(argv, cwd, self.env, logs / f"{i}.out", logs / f"{i}.err")
            end_ns = time.perf_counter_ns()
            self.child_rss_mb = max(self.child_rss_mb, rss)
            codes.append(code)
            if tracer is not None:
                idx = tracer.record("cli.process", start_ns, end_ns)
                if code == 0:
                    tracer.merge(str(trace_file), parent=idx)
        wall = time.perf_counter() - t0
        self.last_exit_codes = codes
        return wall

    def check(self, inp, out: Path) -> None:
        logs = out / "logs"
        for i, (cmd, code) in enumerate(zip(configs.CLI_COMMANDS, self.last_exit_codes)):
            if code != 0:
                err = read_text(logs / f"{i}.err").strip().splitlines()
                last = err[-1] if err else ""
                raise CheckError(f"kzring {' '.join(cmd)} exited {code}: {last}")
        oracle_out = read_text(logs / f"{len(configs.CLI_COMMANDS) - 1}.out").splitlines()
        verdicts = [line for line in oracle_out if ": deviation " in line]
        if len(verdicts) != 4 or not all(line.endswith(" pass") for line in verdicts):
            raise CheckError(f"oracle-check verdicts: {verdicts}")
        results = self.results_dir(out)
        written = sorted(p.name for p in results.glob("*.csv"))
        if written != sorted(self.references):
            raise CheckError(f"cli-cold wrote {written}, reference has {sorted(self.references)}")
        points = 0
        for name in written:
            table = Table.read(str(results / name))
            require_close(table, self.references[name], name)
            if name != "oracle-check_oracle.csv":
                points += table.n_rows
        if points != self.points:
            raise CheckError(f"cli-cold delivered {points} points, expected {self.points}")
        self.repeat_check("cli-cold")

    def results_dir(self, out: Path) -> Path:
        return out / "out"

    def peak_rss_mb(self) -> float:
        return self.child_rss_mb

    def time_reference_loop(self) -> float:
        """The reference loop as a fresh interpreter, like the commands."""
        return time_reference_process(self.workdir, self.env)


WORKLOAD_CLASSES = {cls.name: cls for cls in (Sweep, Ensemble, CliCold)}
