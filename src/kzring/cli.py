"""Command-line entry point.

One subcommand per scenario mode plus `preset` for the bundled figure
reproductions.  Every run writes CSV tables (and a gnuplot script) into the
output directory and prints the paths it wrote.

Exit codes: 0 on success, 2 for configuration problems, 1 for anything
else (including an oracle-check run whose deviations exceed tolerance).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .config import MODES, ScenarioConfig
from .errors import ConfigError
from .runner import (
    PRESET_NAMES,
    preset_config,
    run_preset,
    run_scenario,
    write_outputs,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kzring",
        description=(
            "Entanglement traces for a two-qubit register coupled to a "
            "transverse-field Ising ring, in the paramagnetic and "
            "frozen-domain regimes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for mode in MODES:
        p = sub.add_parser(mode, help=f"run the {mode} scenario")
        p.add_argument("--config", help="path to a scenario config JSON file")
        _add_run_options(p)

    p = sub.add_parser("preset", help="run a bundled figure reproduction")
    p.add_argument("name", choices=PRESET_NAMES)
    _add_run_options(p)
    return parser


def _add_run_options(p: argparse.ArgumentParser) -> None:
    """The options every run accepts, scenario or preset."""
    p.add_argument("--seed", type=int, help="override the RNG seed")
    p.add_argument("--out", help="output directory (default: $KZRING_OUT or .)")
    p.add_argument(
        "--realizations", type=int,
        help="number of domain-ensemble realizations to average",
    )


def _overrides(args) -> dict:
    """Config fields set on the command line."""
    given = {"seed": args.seed, "realizations": args.realizations}
    return {key: value for key, value in given.items() if value is not None}


def _load_config(args, mode: str) -> ScenarioConfig:
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        cfg = ScenarioConfig.from_json(text, mode=mode)
    else:
        cfg = ScenarioConfig(mode=mode)
    return dataclasses.replace(cfg, **_overrides(args))


def _out_dir(args, cfg: ScenarioConfig | None) -> str:
    if args.out is not None:
        return args.out
    if cfg is not None and cfg.out is not None:
        return cfg.out
    return os.environ.get("KZRING_OUT", ".")


def _run(args) -> int:
    if args.command == "preset":
        result = run_preset(args.name, **_overrides(args))
        label, mode = args.name, preset_config(args.name)[0].mode
        out = _out_dir(args, None)
    else:
        cfg = _load_config(args, args.command)
        result = run_scenario(cfg)
        label = cfg.label or cfg.mode
        mode = cfg.mode
        out = _out_dir(args, cfg)
    for path in write_outputs(result, label, mode, out):
        print(path)
    if mode == "oracle-check":
        table = result.tables["oracle"]
        checks = ("check", "max_deviation", "tolerance", "verdict")
        for name, dev, tol, verdict in zip(*map(table.column, checks)):
            print(f"{name}: deviation {dev:.3e} (tolerance {tol:g}) {verdict}")
        if any(verdict != "pass" for verdict in table.column("verdict")):
            return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
