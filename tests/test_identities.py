"""Metamorphic identities of the closed forms, exact in the physics.

Each compares the closed forms with themselves on transformed inputs, so it
needs no oracle.  All run on the fig4 fast quench (n = 120 spins, 12 domains
of 10) at three couplings, and each is bounded by N * eps = 2.7e-14 for
N = 120, stated before measuring.  The concurrences are at most 1, so
rounding in the 12 domain factors or the N-th power moves them by a few ulps
of 1; the largest difference measured is 4.3e-15.

What they cannot see: a phase convention of f that keeps its modulus, and,
where every azimuth is 0 or pi, as the sampler draws them, which domain an
azimuth belongs to.
"""

import dataclasses
import math

import numpy as np
import pytest

from kzring import dia, para
from kzring.runner import _dia_configs, _time_grid, preset_config
from kzring.scaling import DomainPartition, field_at

FAST = preset_config("fig4")[2]
TIMES = _time_grid(FAST)
BOUND = FAST.n * np.finfo(float).eps
# The sampler tilts each domain towards phi = 0 or pi, where C cannot tell
# one domain's azimuth from another's; these spread round the circle.
SPREAD = [0.3 + 0.5 * d for d in range(12)]
COUPLINGS = pytest.mark.parametrize("g", [0.05, 1 / 6, 0.25], ids=["0.05", "1/6", "0.25"])


def fast_config(g, theta=None, phi=None, partition=None):
    """The fast quench's config at g, with the given domain angles and partition."""
    base = next(_dia_configs(FAST, g=g))
    ensemble = dataclasses.replace(
        base.ensemble,
        theta=base.ensemble.theta if theta is None else tuple(theta),
        phi=base.ensemble.phi if phi is None else tuple(phi),
    )
    return dataclasses.replace(base, ensemble=ensemble, partition=partition or base.partition)


def trace(cfg):
    return dia.concurrences([cfg], TIMES)[0]


def test_the_fast_quench_has_twelve_tilted_domains():
    cfg = fast_config(0.05)
    assert (cfg.n, cfg.partition.n_d) == (120, 12)
    assert min(cfg.ensemble.theta) > 0
    assert set(cfg.ensemble.phi) == {0.0, math.pi}


@COUPLINGS
def test_domains_at_the_pole_are_the_paramagnetic_form_in_the_same_field(g):
    # N spin-1/2 coherent states along one direction are one spin-N/2 state
    cfg = fast_config(g, theta=[0.0] * 12, phi=[0.0] * 12)
    h_t = field_at(cfg.schedule, cfg.t0 + TIMES)
    want = [
        para.concurrences([para.ParaConfig(n=cfg.n, g=g, h=h)], t)[0]
        for h, t in zip(h_t.tolist(), TIMES.tolist())
    ]
    got = trace(cfg)
    assert np.abs(got - want).max() <= BOUND
    assert got.min() < 0.6  # the trace decays: the identity is not 1 == 1


@COUPLINGS
def test_domains_along_one_direction_are_one_merged_domain(g):
    sampled = fast_config(g).ensemble
    theta, phi = sampled.theta[0], sampled.phi[0]
    split = fast_config(g, theta=[theta] * 12, phi=[phi] * 12)
    merged = fast_config(g, theta=[theta], phi=[phi], partition=DomainPartition(xi_d=120, n_d=1))
    assert np.abs(trace(split) - trace(merged)).max() <= BOUND


@COUPLINGS
@pytest.mark.parametrize("phi", [None, SPREAD], ids=["sampled", "spread"])
def test_the_domain_order_does_not_matter(g, phi):
    # the ring's domains read the other way round
    cfg = fast_config(g, phi=phi)
    theta, phi = cfg.ensemble.theta, cfg.ensemble.phi
    reversed_ring = fast_config(g, theta=theta[::-1], phi=phi[::-1])
    assert np.abs(trace(cfg) - trace(reversed_ring)).max() <= BOUND


@COUPLINGS
@pytest.mark.parametrize("phi", [None, SPREAD], ids=["sampled", "spread"])
def test_turning_every_azimuth_by_pi_changes_nothing(g, phi):
    # C depends on the azimuths only through sin^2(phi_d - phi_f)
    cfg = fast_config(g, phi=phi)
    shifted = [(p + math.pi) % (2 * math.pi) for p in cfg.ensemble.phi]
    assert np.abs(trace(cfg) - trace(fast_config(g, phi=shifted))).max() <= BOUND
