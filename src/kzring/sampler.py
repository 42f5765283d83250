"""Initial domain orientations constrained by equilibrium magnetization.

Each frozen domain starts as a collective spin pointing at polar angle
theta_delta with azimuth 0 or pi (the ordered axis is x, broken two ways).
The polar cosines are drawn so that their ensemble mean reproduces the
equilibrium magnetization per spin at the preparation field: with
c0 = 2*m0 and half-width D0 = |2*md - 2*m0| (md the magnetization at the
freeze-out field), draw k-th cosine uniformly on [c_k - D_k, c_k + D_k],
recenter c_(k+1) = (n*c0 - sum so far)/(n - k - 1), shrink the width to the
distance to the nearest original endpoint, and set the last cosine
deterministically so the mean is exact.  Every draw is clamped to [-1, 1];
a clamp means the constraint was not exactly satisfiable and is reported
as a warning.

RNG streams: a sampler call derives its generator from
numpy.random.SeedSequence(seed, spawn_key=(realization,)), draws the n-1
free uniforms u in one random(n-1) call (lo + (hi - lo)*u is exactly
Generator.uniform(lo, hi) on the same stream), then all n azimuth bits at
once.  Equal (seed, realization) pairs therefore reproduce ensembles bit
for bit, as canonical theta and phi tuples (phi pinned to 0 at a pole).
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .exact import MAX_RING_SITES, lowest_eigenpairs, magnetization_diagonal, ring_hamiltonian
from .scs import ScsDirection

__all__ = [
    "DomainEnsemble",
    "equilibrium_magnetization",
    "sample_initial_directions",
    "ensemble_mean_magnetization",
]


@dataclass(frozen=True)
class DomainEnsemble:
    """Sampled tilts, domain d at (theta[d], phi[d]), plus what replays them."""

    theta: tuple[float, ...]
    phi: tuple[float, ...]
    seed: int
    m0z_target: float
    mdz_target: float
    realization: int = 0
    clamped: bool = False

    def to_json(self) -> str:
        """Serialize as a JSON document (angles as (theta, phi) pairs)."""
        return json.dumps(
            {
                "directions": [list(pair) for pair in zip(self.theta, self.phi)],
                "seed": self.seed,
                "realization": self.realization,
                "m0z_target": self.m0z_target,
                "mdz_target": self.mdz_target,
                "clamped": self.clamped,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "DomainEnsemble":
        data = json.loads(text)
        dirs = [ScsDirection(t, p) for t, p in data["directions"]]
        return cls(
            theta=tuple(d.theta for d in dirs), phi=tuple(d.phi for d in dirs),
            seed=int(data["seed"]),
            realization=int(data.get("realization", 0)),
            m0z_target=float(data["m0z_target"]),
            mdz_target=float(data["mdz_target"]),
            clamped=bool(data.get("clamped", False)),
        )


@lru_cache(maxsize=128)
def _ground_state_magnetization(h: float, n_ref: int) -> float:
    _, vecs = lowest_eigenpairs(ring_hamiltonian(n_ref, h), 1)
    vec = vecs[:, 0]
    mz = magnetization_diagonal(n_ref)
    return float(np.real(vec.conj() @ (mz * vec))) / n_ref


def equilibrium_magnetization(h: float, n_ref: int = 14) -> float:
    """Ground-state z-magnetization per spin of the n_ref-site ring at field h.

    Exact diagonalization, so values land in [0, 1/2] up to rounding; large
    h saturates to 1/2.  h = 0 gives 0.0 exactly: every state of the
    degenerate ground doublet has <sum sz> = 0 there, and which one the
    eigensolver returns is left to rounding.
    """
    if isinstance(n_ref, bool) or not isinstance(n_ref, numbers.Integral):
        raise ConfigError(f"reference ring size must be an integer, got {n_ref!r}")
    if not (2 <= n_ref <= MAX_RING_SITES):
        raise ConfigError(f"reference ring size must be in [2, {MAX_RING_SITES}], got {n_ref}")
    if not math.isfinite(h) or h < 0:
        raise ConfigError(f"field must be finite and >= 0, got h={h}")
    if h == 0:
        return 0.0
    return _ground_state_magnetization(float(h), int(n_ref))


_ULP_UNITS = 1 << 1074  # 2^1074, one over the smallest subnormal double


def sample_initial_directions(
    n_d: int, m0z: float, mdz: float, seed: int, realization: int = 0
) -> DomainEnsemble:
    """Draw n_d domain directions whose mean cosine is 2*m0z exactly.

    See the module docstring for the draw order and stream derivation.
    """
    for name, value in (("n_d", n_d), ("seed", seed), ("realization", realization)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if n_d < 1:
        raise ConfigError(f"need at least one domain, got n_d={n_d}")
    for name, value in (("seed", seed), ("realization", realization)):
        if value < 0:
            raise ConfigError(f"{name} must be >= 0, got {value}")
    for name, m in (("m0z", m0z), ("mdz", mdz)):
        if not math.isfinite(m) or abs(m) > 0.5 + 1e-12:
            raise ConfigError(f"{name}={m} outside the per-spin range [-1/2, 1/2]")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(realization,)))

    center0 = 2.0 * m0z
    width0 = abs(2.0 * mdz - 2.0 * m0z)
    # Original support endpoints; for the physical ordering mdz >= m0z the
    # upper one is exactly 2*mdz.
    lower0 = center0 - width0
    upper0 = center0 + width0

    cosines: list[float] = []
    # The exact sum of the cosines in units of 2^-1074, of which every double
    # is a whole number; int / int true division rounds it correctly, as
    # math.fsum does.
    total = 0
    clamped = False
    center, width = center0, width0
    for k, u in enumerate(rng.random(n_d - 1).tolist()):
        lo = center - width
        draw = lo + (center + width - lo) * u
        cosines.append(min(1.0, max(-1.0, draw)))
        clamped = clamped or cosines[-1] != draw
        num, den = cosines[-1].as_integer_ratio()
        total += num << (1075 - den.bit_length())
        center = (n_d * center0 - total / _ULP_UNITS) / (n_d - k - 1)
        width = min(abs(upper0 - center), abs(lower0 - center))
    last = n_d * center0 - total / _ULP_UNITS
    cosines.append(min(1.0, max(-1.0, last)))
    clamped = clamped or cosines[-1] != last
    if clamped:
        warnings.warn(
            "magnetization constraint not exactly satisfiable; "
            "cosines clamped to [-1, 1]",
            stacklevel=2,
        )

    theta = tuple(math.acos(c) for c in cosines)
    bits = rng.integers(0, 2, size=n_d).tolist()
    return DomainEnsemble(
        theta=theta,
        phi=tuple(0.0 if t in (0.0, math.pi) else math.pi * b for t, b in zip(theta, bits)),
        seed=int(seed),
        realization=int(realization),
        m0z_target=float(m0z),
        mdz_target=float(mdz),
        clamped=clamped,
    )


def ensemble_mean_magnetization(ensemble: DomainEnsemble) -> float:
    """Per-spin z-magnetization of the ensemble, mean(cos theta)/2."""
    return float(np.mean([math.cos(t) for t in ensemble.theta])) / 2.0
