"""Closed-form register dynamics with the ring deep in the paramagnetic phase.

At constant field h well above the critical value, every ring spin starts
aligned with the field and is driven conditionally on the register parity
branch.  Each branch gamma displaces every spin by

    omega_gamma(t) = pi_gamma * l(t),      l(t) = (g/h) (1 - e^(-i t h)),

with pi_gamma in {+1, 0, 0, -1} across the register basis.  For the Bell
state only the +/- branches matter and the concurrence is the product of
single-spin overlap moduli:

    C(t) = cos^N(Theta(t)/2),

Theta(t) the angle between the two branch directions.  The motion is
periodic with period 2*pi/h, so the concurrence revives fully there.

:func:`concurrences` is the closed form's one entry point: it takes a batch
of configs that differ only in g and a scalar t or an array of times, and
runs one batched kernel that computes the time factors once and performs,
per coupling and time, the same floating-point operations as building the
two ScsDirection objects, dotting their Bloch vectors and raising the
half-angle cosine to N with Python's float ** int.  It makes no
Python call per point: the branch phases come from one
:func:`~kzring.scs.omega_angles` pass and the power from ``np.float_power``,
both the libm routines the scalar route calls.  The configs are cut into
blocks of (config, time) points by :func:`kzring._workers.ordered_map`,
which bounds a batch's memory and shares the blocks with the worker thread;
each row is computed alike in any block, so the bytes do not depend on the
number of CPUs.  Powers below the smallest normal double are written as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _workers
from .errors import ConfigError
from .scs import bloch_vectors, omega_angles

__all__ = [
    "ParaConfig",
    "displacement_parameter",
    "concurrences",
]


@dataclass(frozen=True)
class ParaConfig:
    """Ring size, coupling, and constant field for the paramagnetic regime.

    The closed form is derived for weak coupling far above criticality;
    both conditions are enforced as tunable guards g <= g_max and
    g <= g_to_h_max * h (defaults 0.25 and h/4).
    """

    n: int
    g: float
    h: float
    g_max: float = 0.25
    g_to_h_max: float = 0.25

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"ring needs at least one spin, got n={self.n}")
        if self.h <= 0:
            raise ConfigError(f"field must be positive, got h={self.h}")
        if self.g < 0:
            raise ConfigError(f"coupling must be >= 0, got g={self.g}")
        if self.g > self.g_max:
            raise ConfigError(
                f"weak-coupling guard: g={self.g} exceeds g_max={self.g_max}"
            )
        if self.g > self.g_to_h_max * self.h:
            raise ConfigError(
                f"detuning guard: g={self.g} exceeds {self.g_to_h_max} * h={self.h}"
            )


def displacement_parameter(g, h: float, t):
    """Accumulated per-spin displacement l(t) = (g/h)(1 - e^(-i t h)).

    Complex for scalar arguments, a complex array for an array of couplings
    or times, broadcast together; the time factors are computed once for
    all g.
    """
    ht = np.multiply(h, t)
    return (g / h) * (1.0 - (np.cos(ht) - 1j * np.sin(ht)))


def _overlaps(configs: tuple[ParaConfig, ...], times: np.ndarray) -> np.ndarray:
    """cos^N(Theta/2) of each config at each time, shape (configs,) + times.shape.

    The time factors are computed once for all couplings.
    """
    first = configs[0]
    g = np.array([c.g for c in configs])[:, None]
    ell = displacement_parameter(g, first.h, times.reshape(-1)).reshape(-1)
    plus, minus = bloch_vectors(*omega_angles(ell))
    out = (plus[:, None, :] @ minus[:, :, None])[:, 0, 0]
    del plus, minus
    # sqrt(clip(0.5 (1 + dot))) in place
    out += 1.0
    out *= 0.5
    np.clip(out, 0.0, 1.0, out=out)
    np.sqrt(out, out=out)
    # libm pow, as Python's float ** int calls it; np.power can differ from
    # it in the last bit
    np.float_power(out, float(first.n), out=out)
    out[out < np.finfo(float).tiny] = 0.0  # subnormal powers flush to 0
    return out.reshape((len(configs),) + times.shape)


def concurrences(configs, t) -> np.ndarray:
    """Concurrence of each config over the times t, shape (len(configs),) + t.shape.

    For the Bell state the concurrence is the modulus of the ring-state
    overlap between the two branches, cos^N(Theta/2), which is never
    negative.  One kernel call per block of configs; row k equals the
    one-config batch ``concurrences([configs[k]], t)[0]`` bit for bit.  A
    scalar t gives one value per config.  The configs may differ only in g,
    otherwise ValueError.
    """
    configs = tuple(configs)
    if len({(c.n, c.h, c.g_max, c.g_to_h_max) for c in configs}) != 1:
        raise ValueError("a batch needs one or more configs that differ only in g")
    times = np.asarray(t, dtype=float)
    blocks = _workers.ordered_map(
        lambda block: _overlaps(configs[block], times), len(configs), times.size
    )
    return np.concatenate(list(blocks))
