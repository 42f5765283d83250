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

:func:`concurrences` is the closed form's one entry point: it takes a batch
of configs that differ only in g and ensemble and a scalar elapsed time or
an array of them.  :func:`kzring._workers.ordered_map` cuts the configs
into blocks of (config, time, domain) points, which bounds a block's
memory, and shares the blocks with the worker thread.  A block rotates each
domain's Bloch vector, built from the ensemble's angle tuples, by all the
rotors of its config in one matrix-vector product per (config, domain),
and still performs, per coupling, time and domain, the same floating-point
operations as building ScsDirection objects, 3 x 3 rotation matrices and
the rotation.  The branch rotors, 2 x T of shape 3 x 3 per coupling, are
built once when the whole batch has one coupling, as over an ensemble's
realizations, and every block reads them; otherwise each block builds its
own configs' rotors, so no rotor table spans the batch.  Their angles come
from one :func:`~kzring.scs.omega_angles` pass and their trigonometry of
theta from one :func:`~kzring.scs.rotation_matrices` call per build, with
no Python call per point.  Each row is computed alike in any block, so the
bytes do not depend on the number of CPUs.  Products below the smallest
normal double are written as 0.

The picture holds only inside the frozen window after freeze-out, and
:func:`concurrences` is the one place that checks it: once per batch, on
the elapsed times it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _workers
from .errors import ConfigError
from .sampler import DomainEnsemble
from .scaling import DomainPartition, QuenchSchedule, field_at, freeze_out_time
from .scs import bloch_vectors, omega_angles, rotation_matrices

__all__ = [
    "DiaConfig",
    "V_SPAN_MAX",
    "displacement_parameter",
    "concurrences",
]

# Largest field drift v * t a trace may cover and still count as frozen.
V_SPAN_MAX = 0.05


@dataclass(frozen=True)
class DiaConfig:
    """Frozen-domain scenario: coupling, ramp, start time, domains, ensemble.

    The ring is the partition's domains, n = xi_d * n_d spins.  t0 is
    absolute on the quench clock and must not precede the freeze-out
    instant; evolution times passed to :func:`concurrences` are elapsed
    times since t0.  The field-independent guards are checked here; the
    frozen window, which depends on the field and so on the times
    evaluated, is checked by :func:`concurrences`.
    """

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
        if len(self.ensemble.theta) != self.partition.n_d:
            raise ConfigError(
                f"ensemble has {len(self.ensemble.theta)} directions, "
                f"partition expects {self.partition.n_d}"
            )
        t_bar = freeze_out_time(self.schedule)
        if self.t0 < t_bar - 1e-9:
            raise ConfigError(
                f"preparation time t0={self.t0} precedes freeze-out t_bar={t_bar}"
            )
        if self.g > self.g_max:
            raise ConfigError(
                f"weak-coupling guard: g={self.g} exceeds g_max={self.g_max}"
            )

    @property
    def n(self) -> int:
        """Ring size, the spins of all domains."""
        return self.partition.xi_d * self.partition.n_d


def _check_frozen_window(configs: tuple[DiaConfig, ...], times: np.ndarray) -> None:
    """Check that the elapsed times keep every config in the frozen window.

    The domain picture needs elapsed times t >= 0, an essentially static
    field (v * t small) that has not yet crossed the critical value, and
    weak coupling relative to the field throughout.  The field falls with
    t (v >= 0), so each holds at every t once it holds at the latest one,
    t0 itself for an empty grid.
    """
    bad = times[~(np.isfinite(times) & (times >= 0))]
    if bad.size:
        raise ConfigError(f"elapsed times must be finite and >= 0, got t={bad[0]}")
    first = configs[0]
    t_max = float(times.max()) if times.size else 0.0
    drift = first.schedule.v * t_max
    if drift > V_SPAN_MAX + 1e-15:
        raise ConfigError(
            f"field drifts by {drift} over the trace, above the "
            f"frozen-window bound {V_SPAN_MAX}"
        )
    h_end = field_at(first.schedule, first.t0 + t_max)
    if h_end < first.schedule.hc - 1e-12:
        raise ConfigError(
            f"field {h_end} at the end of the trace is below the critical "
            f"value {first.schedule.hc}"
        )
    for c in configs:
        if c.g > c.g_to_h_max * h_end:
            raise ConfigError(
                f"detuning guard: g={c.g} exceeds {c.g_to_h_max} * h at trace end"
            )


def displacement_parameter(g: float, h_t, t):
    """Accumulated per-domain displacement f(t) = (g/h_t)(e^(i t h_t) - 1).

    Its modulus obeys |f| = (2g/h_t) |sin(t h_t / 2)|.  Complex for scalar
    arguments, a complex array for arrays of couplings, fields and times,
    broadcast together; the time factors are computed once for all g.
    """
    if np.any(np.asarray(h_t) <= 0):
        raise ValueError(f"instantaneous field must be positive, got h_t={h_t}")
    th = np.multiply(t, h_t)
    return (g / h_t) * ((np.cos(th) - 1.0) + 1j * np.sin(th))


def _rotors(g: np.ndarray, h_t: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The rotor of each g and time per branch, the T rotors of a g stacked
    row-wise: shape (2, g, 1, 3T, 3)."""
    rotors = rotation_matrices(*omega_angles(displacement_parameter(g[:, None], h_t, times)))
    return rotors.reshape(2, len(g), 1, 3 * len(times), 3)


def _overlaps(configs: tuple[DiaConfig, ...], rot_plus, rot_minus) -> np.ndarray:
    """prod_d cos^(2 S_d)(Theta_d/2) of each config at each time, shape
    (configs, T), given each config's rotors per branch, (configs, 1, 3T, 3),
    or one coupling's, (1, 1, 3T, 3), broadcast over the configs.
    """
    first = configs[0]
    n_d = first.partition.n_d
    n_t = rot_plus.shape[2] // 3
    thetas = np.ravel([c.ensemble.theta for c in configs])
    n0 = bloch_vectors(thetas, np.ravel([c.ensemble.phi for c in configs]))
    n0 = n0.reshape(len(configs), n_d, 3, 1)
    # The stacked rotors against (config, domain, 3, 1) initial Bloch
    # vectors: one (3T x 3) @ (3 x 1) matrix-vector product per (config,
    # domain) rounds each row as a 3 x 3 product per time does (measured;
    # tests/test_batched_kernels.py replays the per-time products).  One
    # (3T x 3) @ (3 x D) product per config would not: its kernels round
    # differently.
    plus = (rot_plus @ n0).reshape(-1, n_d, n_t, 1, 3)
    minus = (rot_minus @ n0).reshape(-1, n_d, n_t, 3, 1)
    cosines = (plus @ minus)[..., 0, 0]
    del plus, minus
    # sqrt(clip(0.5 (1 + dot))) ** 2 S_d, in place, (config, domain, time)
    cosines += 1.0
    cosines *= 0.5
    np.clip(cosines, 0.0, 1.0, out=cosines)
    np.sqrt(cosines, out=cosines)
    cosines **= 2.0 * first.partition.s_d
    # numpy's multiply reduction runs sequentially along any axis, so the
    # product over the domain axis takes each point's factors in domain order
    out = np.prod(cosines, axis=1)
    out[out < np.finfo(float).tiny] = 0.0  # subnormal products flush to 0
    return out


def concurrences(configs, t) -> np.ndarray:
    """Concurrence of each config over the elapsed times t, shape
    (len(configs),) + t.shape.

    For the Bell state the concurrence [prod_d cos(Theta_d/2)]^(2 S_d) is
    the modulus of the ring overlap between the two branches, which is never
    negative.  Swapping the branch labels leaves it unchanged (the two
    branch states trade places, conjugating the overlap).  One kernel call
    per block of configs, which builds its configs' rotors unless the batch
    has one coupling, whose rotors are built once; row k equals the
    one-config batch ``concurrences([configs[k]], t)[0]`` bit for bit.  A
    scalar t gives one value per config.  The configs may differ only in g
    and ensemble, otherwise ValueError.  Times that leave the frozen window
    of any config are a ConfigError naming the first failing guard (and,
    for the detuning guard, the first failing g in batch order).
    """
    configs = tuple(configs)
    shared = {(c.schedule, c.t0, c.partition, c.g_max, c.g_to_h_max) for c in configs}
    if len(shared) != 1:
        raise ValueError(
            "a batch needs one or more configs that differ only in g and ensemble"
        )
    times = np.asarray(t, dtype=float)
    _check_frozen_window(configs, times)
    first = configs[0]
    flat = times.reshape(-1)
    if not flat.size:
        return np.empty((len(configs),) + times.shape)
    h_t = field_at(first.schedule, first.t0 + flat)
    # One coupling, as over an ensemble's realizations: its rotors are built
    # once and every block broadcasts them.  Otherwise each block builds its
    # own configs' rotors, so no rotor table spans the batch.
    one_g = len({c.g for c in configs}) == 1
    rotors = _rotors(np.array([first.g]), h_t, flat) if one_g else None

    def block(b: slice) -> np.ndarray:
        own = rotors if one_g else _rotors(np.array([c.g for c in configs[b]]), h_t, flat)
        return _overlaps(configs[b], *own)

    blocks = _workers.ordered_map(block, len(configs), len(flat) * first.partition.n_d)
    return np.concatenate(list(blocks)).reshape((len(configs),) + times.shape)
