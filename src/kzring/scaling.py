"""Critical scaling of a linear field ramp and the frozen-domain partition.

The transverse field follows h(t) = h0 - v*t, crossing the critical value
hc at t_c = (h0 - hc)/v.  Distance from criticality is eps(t) = h(t) - hc.
Approaching the transition, the equilibrium correlation length grows as
xi0 / |eps|^nu and the relaxation (reaction) time as tau0 / |eps|^(nu*z).
The adiabatic-impulse picture freezes the state at the instant when the
time left before the crossing equals the reaction time; the correlation
length at that instant sets the size of the ordered domains the ring
carries into the impulse stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, CriticalPointError, NoFreezeOutError, PartitionError

__all__ = [
    "QuenchSchedule",
    "DomainPartition",
    "field_at",
    "epsilon_at",
    "correlation_length",
    "reaction_time",
    "freeze_out_time",
    "domain_partition",
]


@dataclass(frozen=True)
class QuenchSchedule:
    """Linear ramp h(t) = h0 - v*t with critical-scaling constants.

    Defaults carry the exact exponents and scales of the transverse-field
    Ising chain in one dimension: nu = z = 1, xi0 = 1, tau0 = 1/2, hc = 1.
    """

    h0: float
    v: float
    hc: float = 1.0
    nu: float = 1.0
    z: float = 1.0
    xi0: float = 1.0
    tau0: float = 0.5

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(x)
            for x in (self.h0, self.v, self.hc, self.nu, self.z, self.xi0, self.tau0)
        ):
            raise ConfigError("schedule parameters must be finite")
        if self.v < 0:
            raise ConfigError(f"ramp rate must be >= 0, got v={self.v}")
        if self.nu <= 0 or self.z <= 0:
            raise ConfigError("critical exponents nu, z must be positive")
        if self.xi0 <= 0 or self.tau0 <= 0:
            raise ConfigError("scales xi0, tau0 must be positive")


@dataclass(frozen=True)
class DomainPartition:
    """Ring of n_d equal domains of xi_d spins, each a collective spin s_d."""

    xi_d: int
    n_d: int

    def __post_init__(self) -> None:
        if self.xi_d < 1 or self.n_d < 1:
            raise ConfigError("partition sizes must be positive")

    @property
    def s_d(self) -> float:
        """Collective spin of one domain, xi_d / 2."""
        return self.xi_d / 2.0


def field_at(schedule: QuenchSchedule, t: float) -> float:
    """Instantaneous field h(t) = h0 - v*t."""
    return schedule.h0 - schedule.v * t


def epsilon_at(schedule: QuenchSchedule, t: float) -> float:
    """Signed distance from criticality, eps(t) = h(t) - hc."""
    return field_at(schedule, t) - schedule.hc


def correlation_length(schedule: QuenchSchedule, eps: float) -> float:
    """Equilibrium correlation length xi0 / |eps|^nu."""
    if eps == 0.0:
        raise CriticalPointError("correlation length diverges at eps = 0")
    return schedule.xi0 / abs(eps) ** schedule.nu


def reaction_time(schedule: QuenchSchedule, eps: float) -> float:
    """Equilibrium relaxation time tau0 / |eps|^(nu*z)."""
    if eps == 0.0:
        raise CriticalPointError("reaction time diverges at eps = 0")
    return schedule.tau0 / abs(eps) ** (schedule.nu * schedule.z)


def freeze_out_time(schedule: QuenchSchedule) -> float:
    """Instant t_bar at which the remaining time to t_c equals the reaction time.

    Solving t_c - t = tau0 / (v*(t_c - t))^(nu*z) gives
    t_bar = t_c - (tau0 * v**(-nu*z)) ** (1/(1 + nu*z)).
    With the default exponents this is (h0 - hc)/v - sqrt(1/(2 v)).
    """
    if schedule.v == 0.0:
        raise NoFreezeOutError("a static field never freezes out")
    if schedule.h0 < schedule.hc:
        raise ConfigError(
            "ramp must start on the disordered side: h0 >= hc, "
            f"got h0={schedule.h0} < hc={schedule.hc}"
        )
    nz = schedule.nu * schedule.z
    t_c = (schedule.h0 - schedule.hc) / schedule.v
    delta = (schedule.tau0 * schedule.v ** (-nz)) ** (1.0 / (1.0 + nz))
    return t_c - delta


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def domain_partition(n: int, schedule: QuenchSchedule) -> DomainPartition:
    """Partition an n-spin ring into domains of the frozen correlation length.

    The raw length xi(eps(t_bar)) is rounded to the nearest divisor of n so
    the domains tile the ring exactly (ties go to the larger divisor).  A
    divisor further than 50% from the raw value aborts instead of silently
    distorting the scaling regime.
    """
    if n < 2:
        raise ConfigError(f"ring needs at least 2 spins, got n={n}")
    t_bar = freeze_out_time(schedule)
    raw = correlation_length(schedule, epsilon_at(schedule, t_bar))
    xi_d = min(_divisors(n), key=lambda d: (abs(d - raw), -d))
    if abs(xi_d - raw) > 0.5 * raw:
        raise PartitionError(
            f"nearest divisor {xi_d} of n={n} is more than 50% away "
            f"from the frozen correlation length {raw:.6g}"
        )
    return DomainPartition(xi_d=xi_d, n_d=n // xi_d)
