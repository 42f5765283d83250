"""Scenario configuration: one frozen, JSON round-trippable record per run.

A ScenarioConfig describes one run of either closed-form regime (or a
comparison/sweep across both), carrying the quench schedule, the grid, the
RNG seed, and the guard overrides.  Each field is checked against its
annotation on construction, so a bad value fails here, not deep inside a
run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import unicodedata
from dataclasses import dataclass

from .errors import ConfigError
from .scaling import QuenchSchedule

__all__ = ["MODES", "ScenarioConfig"]

MODES = ("para", "dia", "compare", "sweep-g", "oracle-check")


def _finite_number(value) -> bool:
    """Whether value is an int or float, not a bool, with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


# What each ScenarioConfig annotation admits, and how an error names it.  A
# count is never a float or bool, which would be truncated or fail deep
# inside a run; a real number is never a bool, a string or non-finite, which
# would reach a solver or the CSV header; a path is never an int, which
# open() would take for a file descriptor.
_ANNOTATION_CHECKS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (_finite_number, "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one scenario run depends on; JSON round-trippable."""

    mode: str = "compare"
    label: str = ""
    n: int = 120
    g: float = 1.0 / 6.0
    h_para: float = 2.0
    h0: float = 1.01
    v: float = 6e-4
    hc: float = 1.0
    nu: float = 1.0
    z: float = 1.0
    xi0: float = 1.0
    tau0: float = 0.5
    t0_offset: float = 12.0
    t_start: float = 0.0
    t_stop: float = 1.0
    t_points: int = 201
    seed: int = 1
    realizations: int = 1
    n_ref: int = 14
    mz_field_scale: float = 0.5
    g_max: float = 0.25
    g_to_h_max: float = 0.25
    g_sweep_min: float = 0.02
    g_sweep_max: float = 0.25
    g_sweep_points: int = 50
    ensemble_json: str | None = None
    out: str | None = None

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            admits, expected = _ANNOTATION_CHECKS[f.type]
            value = getattr(self, f.name)
            if not admits(value):
                raise ConfigError(f"{f.name} must be {expected}, got {value!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # The label prefixes every output file name, so it must not leave
        # the output directory; it is also written into one-line gnuplot
        # strings and comments, which a control character would break.
        if self.label in (".", "..") or any(
            sep and sep in self.label for sep in ("/", os.sep, os.altsep)
        ) or any(unicodedata.category(ch) == "Cc" for ch in self.label):
            raise ConfigError(
                f"label must be a plain file-name prefix, got {self.label!r}"
            )
        if self.t_points < 2:
            raise ConfigError("a trace needs at least 2 grid points")
        if self.t_start < 0:
            raise ConfigError(
                f"t_start must be >= 0, the preparation instant, got {self.t_start}"
            )
        if self.t_stop <= self.t_start:
            raise ConfigError("grid must have t_stop > t_start")
        if self.realizations < 1:
            raise ConfigError("realizations must be >= 1")
        if self.ensemble_json is not None and self.realizations > 1:
            raise ConfigError(
                "a replayed ensemble fixes the domain directions, so "
                "realizations > 1 would repeat one realization; drop "
                "ensemble_json or set realizations to 1"
            )
        if self.g_sweep_points < 2 or self.g_sweep_max < self.g_sweep_min:
            raise ConfigError("sweep grid must be ordered with >= 2 points")
        if self.mode == "sweep-g" and self.realizations > 1:
            raise ConfigError(
                "sweep-g evaluates a single domain realization; set "
                "realizations to 1"
            )
        if self.mode == "sweep-g" and self.g_sweep_max > self.g_max:
            raise ConfigError(
                f"sweep reaches g={self.g_sweep_max} above the weak-coupling "
                f"guard g_max={self.g_max}; raise g_max (and g_to_h_max) "
                "deliberately if the stronger couplings are wanted"
            )

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str, mode: str | None = None) -> "ScenarioConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        if mode is not None:
            stated = data.get("mode")
            if stated is not None and stated != mode:
                raise ConfigError(
                    f"config says mode={stated!r} but the command requested {mode!r}"
                )
            data["mode"] = mode
        return cls(**data)

    def schedule(self) -> QuenchSchedule:
        return QuenchSchedule(
            h0=self.h0, v=self.v, hc=self.hc, nu=self.nu, z=self.z,
            xi0=self.xi0, tau0=self.tau0,
        )

