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

The dynamics functions take a scalar t (returning a float) or an array of
times; both run one batched kernel that performs, per time, the same
floating-point operations as building the two ScsDirection objects and
dotting their Bloch vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .scs import bloch_vectors, omega_angles

__all__ = ["ParaConfig", "displacement_parameter", "branch_overlap", "concurrence"]


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


# Python's float ** int applied elementwise: np.power can differ from it in
# the last bit.
_POW = np.frompyfunc(pow, 2, 1)


def displacement_parameter(cfg: ParaConfig, t):
    """Accumulated per-spin displacement l(t) = (g/h)(1 - e^(-i t h)).

    Complex for a scalar t, a complex array for an array of times.
    """
    ht = np.multiply(cfg.h, t)
    return (cfg.g / cfg.h) * (1.0 - (np.cos(ht) - 1j * np.sin(ht)))


def branch_overlap(cfg: ParaConfig, t):
    """Modulus of the ring-state overlap between the two branches, cos^N(Theta/2).

    A float for a scalar t, an array shaped like t otherwise.
    """
    times = np.asarray(t, dtype=float)
    ell = displacement_parameter(cfg, times.reshape(-1))
    plus = bloch_vectors(*omega_angles(ell))
    minus = bloch_vectors(*omega_angles(-ell))
    dot = (plus[:, None, :] @ minus[:, :, None])[:, 0, 0]
    cos_half = np.sqrt(np.clip(0.5 * (1.0 + dot), 0.0, 1.0))
    out = _POW(cos_half, cfg.n).astype(float)
    return float(out[0]) if times.ndim == 0 else out.reshape(times.shape)


def concurrence(cfg: ParaConfig, t):
    """Register concurrence cos^N(Theta(t)/2) for the Bell state.

    It equals :func:`branch_overlap`, which is never negative.
    """
    return branch_overlap(cfg, t)
