"""Closed-form register dynamics on a ring of frozen critical domains.

Past the freeze-out instant of a slow ramp the ring is a necklace of n_d
rigid domains, each a collective spin S_d = xi_d/2 pointing along a sampled
initial direction.  Near the critical field the effective domain-domain
coupling is negligible and each domain is driven conditionally on the
register branch: the branch-gamma propagator displaces domain delta by

    Omega_gamma(t) = pi_gamma * f(t),    f(t) = (g/h_t) (e^(i t h_t) - 1),

where t is the elapsed time since the preparation instant t0 and h_t is the
instantaneous field on the quench clock at t0 + t.  The concurrence of the
Bell-state register is

    C(t) = [prod_delta cos(Theta_delta(t)/2)]^(2 S_d),

with Theta_delta the angle between the two branch-evolved directions of
domain delta.

The dynamics functions take a scalar t (returning a float) or an array of
times; both run one batched kernel that performs, per time and domain, the
same floating-point operations as building the branch rotors' ScsDirection
objects and rotation matrices and rotating each domain's Bloch vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .sampler import DomainEnsemble
from .scaling import DomainPartition, QuenchSchedule, field_at, freeze_out_time
from .scs import bloch_vectors, omega_angles, rotation_matrices

__all__ = [
    "DiaConfig",
    "V_SPAN_MAX",
    "displacement_parameter",
    "branch_overlap",
    "concurrence",
    "validate_trace_span",
]

# Largest field drift v * span a trace may cover and still count as frozen.
V_SPAN_MAX = 0.05


@dataclass(frozen=True)
class DiaConfig:
    """Frozen-domain scenario: ring, coupling, ramp, start time, ensemble.

    t0 is absolute on the quench clock and must not precede the freeze-out
    instant; evolution times passed to the dynamics functions are elapsed
    times since t0.  Weak-coupling guards mirror the paramagnetic ones and
    are checked at t0 here and over a whole trace span by
    :func:`validate_trace_span`.
    """

    n: int
    g: float
    schedule: QuenchSchedule
    t0: float
    partition: DomainPartition
    ensemble: DomainEnsemble
    g_max: float = 0.25
    g_to_h_max: float = 0.25

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigError(f"ring needs at least 2 spins, got n={self.n}")
        if self.g < 0:
            raise ConfigError(f"coupling must be >= 0, got g={self.g}")
        if self.partition.xi_d * self.partition.n_d != self.n:
            raise ConfigError(
                f"partition {self.partition.n_d} x {self.partition.xi_d} "
                f"does not tile a ring of {self.n} spins"
            )
        if len(self.ensemble.directions) != self.partition.n_d:
            raise ConfigError(
                f"ensemble has {len(self.ensemble.directions)} directions, "
                f"partition expects {self.partition.n_d}"
            )
        t_bar = freeze_out_time(self.schedule)
        if self.t0 < t_bar - 1e-9:
            raise ConfigError(
                f"preparation time t0={self.t0} precedes freeze-out t_bar={t_bar}"
            )
        h_start = field_at(self.schedule, self.t0)
        if h_start < self.schedule.hc - 1e-12:
            raise ConfigError(
                f"field {h_start} at t0 already below the critical value "
                f"{self.schedule.hc}"
            )
        if self.g > self.g_max:
            raise ConfigError(
                f"weak-coupling guard: g={self.g} exceeds g_max={self.g_max}"
            )
        if self.g > self.g_to_h_max * h_start:
            raise ConfigError(
                f"detuning guard: g={self.g} exceeds {self.g_to_h_max} * h(t0)"
            )


def validate_trace_span(cfg: DiaConfig, span: float) -> None:
    """Check that a trace of the given elapsed length stays in the frozen window.

    The domain picture needs an essentially static field (v * span small)
    that has not yet crossed the critical value, and weak coupling relative
    to the field throughout.
    """
    if span < 0:
        raise ConfigError(f"trace span must be >= 0, got {span}")
    drift = cfg.schedule.v * span
    if drift > V_SPAN_MAX + 1e-15:
        raise ConfigError(
            f"field drifts by {drift} over the trace, above the "
            f"frozen-window bound {V_SPAN_MAX}"
        )
    h_end = field_at(cfg.schedule, cfg.t0 + span)
    if h_end < cfg.schedule.hc - 1e-12:
        raise ConfigError(
            f"field {h_end} at the end of the trace is below the critical "
            f"value {cfg.schedule.hc}"
        )
    if cfg.g > cfg.g_to_h_max * h_end:
        raise ConfigError(
            f"detuning guard: g={cfg.g} exceeds {cfg.g_to_h_max} * h at trace end"
        )


def displacement_parameter(g: float, h_t, t):
    """Accumulated per-domain displacement f(t) = (g/h_t)(e^(i t h_t) - 1).

    Its modulus obeys |f| = (2g/h_t) |sin(t h_t / 2)|.  Complex for scalar
    arguments, a complex array for arrays of fields and times.
    """
    if np.any(np.asarray(h_t) <= 0):
        raise ValueError(f"instantaneous field must be positive, got h_t={h_t}")
    th = np.multiply(t, h_t)
    return (g / h_t) * ((np.cos(th) - 1.0) + 1j * np.sin(th))


def branch_overlap(cfg: DiaConfig, t):
    """Modulus of the ring overlap between branches, prod_d cos^(2 S_d)(Theta_d/2).

    Swapping the branch labels leaves this unchanged (the two branch states
    trade places, conjugating the overlap).  A float for a scalar elapsed
    time t, an array shaped like t otherwise.
    """
    times = np.asarray(t, dtype=float)
    flat = times.reshape(-1)
    f = displacement_parameter(cfg.g, field_at(cfg.schedule, cfg.t0 + flat), flat)
    # (time, 1, 3, 3) rotors against (domain, 3, 1) initial Bloch vectors
    rot_plus = rotation_matrices(*omega_angles(f))[:, None]
    rot_minus = rotation_matrices(*omega_angles(-f))[:, None]
    dirs = cfg.ensemble.directions
    n0 = bloch_vectors(np.array([d.theta for d in dirs]), np.array([d.phi for d in dirs]))
    n0 = n0[:, :, None]
    dot = (np.swapaxes(rot_plus @ n0, -1, -2) @ (rot_minus @ n0))[..., 0, 0]
    cosines = np.sqrt(np.clip(0.5 * (1.0 + dot), 0.0, 1.0))
    out = np.prod(cosines ** (2.0 * cfg.partition.s_d), axis=-1)
    return float(out[0]) if times.ndim == 0 else out.reshape(times.shape)


def concurrence(cfg: DiaConfig, t):
    """Register concurrence [prod_d cos(Theta_d/2)]^(2 S_d) at elapsed t.

    It equals :func:`branch_overlap`, which is never negative.
    """
    return branch_overlap(cfg, t)
