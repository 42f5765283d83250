"""Run the commands whose bytes kzring keeps, and record everything they leave.

Usage, from anywhere:

    python3 tools/contract_runs.py OUT_DIR

Runs the kzring CLI of the checkout this script sits in, one fresh process
per run, in that run's own directory OUT_DIR/<run>/, and writes there:

    out/        every file the command wrote (its --out directory)
    stdout      what it printed, paths relative to OUT_DIR/<run>/
    stderr
    exit_code

The runs are the presets fig3, fig4 and fig5, `oracle-check`,
`dia --realizations 8 --seed 5`, and the benchmark's sweep and ensemble
scenarios (read from bench/configs.py) at seeds 1 and 12345.  Run it in two
checkouts with the same environment (OPENBLAS_NUM_THREADS included, which
it passes through) and compare with `diff -r`: no difference means the same
output files, printed lines and exit codes.  Standard library only.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_configs():
    """bench/configs.py of this checkout, loaded as a module."""
    spec = importlib.util.spec_from_file_location("bench_configs", ROOT / "bench" / "configs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs():
    """(name, CLI arguments, scenario config or None) of each run."""
    for name in ("fig3", "fig4", "fig5"):
        yield f"preset-{name}", ["preset", name], None
    yield "oracle-check", ["oracle-check"], None
    yield "dia-r8-seed5", ["dia", "--realizations", "8", "--seed", "5"], None
    configs = bench_configs()
    for name, config in (("sweep", configs.SWEEP), ("ensemble", configs.ENSEMBLE)):
        for seed in (1, 12345):
            yield f"bench-{name}-seed{seed}", [config["mode"]], dict(config, seed=seed)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out_dir = Path(args[0]).resolve()
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + rest if rest else "")
    for name, cli_args, config in runs():
        run_dir = out_dir / name
        run_dir.mkdir(parents=True)
        if config is not None:
            (run_dir / "config.json").write_text(json.dumps(config, sort_keys=True) + "\n")
            cli_args = [*cli_args, "--config", "config.json"]
        proc = subprocess.run(
            [sys.executable, "-m", "kzring.cli", *cli_args, "--out", "out"],
            cwd=run_dir, env=env, capture_output=True,
        )
        (run_dir / "stdout").write_bytes(proc.stdout)
        (run_dir / "stderr").write_bytes(proc.stderr)
        (run_dir / "exit_code").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
