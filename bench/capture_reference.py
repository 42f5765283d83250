"""Capture the reference tables the benchmark checks outputs against.

Usage (from the root of a checkout): python3 bench/capture_reference.py

Runs each workload's default inputs once and stores every CSV it writes,
xz-compressed, under bench/reference/<workload>/.  The references were
captured once, when the benchmark was defined; re-capturing them on a later
commit would make the benchmark accept whatever that commit computes.
"""

import lzma
import shutil
import sys
import tempfile
from pathlib import Path

import configs
from workloads import BENCH, REFERENCE, child_env, run_child


def store(csv: Path, workload: str) -> None:
    target = REFERENCE / workload / (csv.name + ".xz")
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(lzma.compress(csv.read_bytes(), preset=9))
    print(target.relative_to(BENCH.parent))


def main() -> int:
    src = BENCH.parent / "src"
    sys.path.insert(0, str(src))
    from kzring.runner import ScenarioConfig, run_scenario, write_outputs

    tmp = Path(tempfile.mkdtemp())
    try:
        for workload, fields in (("sweep", configs.SWEEP), ("ensemble", configs.ENSEMBLE)):
            cfg = ScenarioConfig(**fields)
            out = tmp / workload
            write_outputs(run_scenario(cfg), cfg.label, cfg.mode, str(out))
            for csv in sorted(out.glob("*.csv")):
                store(csv, workload)
        out = tmp / "cli-cold"
        env = child_env(src)
        for cmd in configs.CLI_COMMANDS:
            argv = [sys.executable, "-m", "kzring.cli", *cmd, "--out", str(out)]
            _, code, _ = run_child(argv, tmp, env, tmp / "stdout", tmp / "stderr")
            if code != 0:
                print(f"kzring {' '.join(cmd)} exited {code}", file=sys.stderr)
                return 1
        for csv in sorted(out.glob("*.csv")):
            store(csv, "cli-cold")
    finally:
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
