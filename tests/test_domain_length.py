"""What carries criterion 3: the domains' tilts, not their length.

All domains have the same size, so S_d n_d = N/2 and the frozen-domain
closed form reads

    ln C = (N/2) mean_d ln(1 - sin^2(theta_f) w_d),
    w_d = 1 - sin^2(theta_d) sin^2(phi_d - phi_f),

with theta_f = (4g/h_t)|sin(t h_t/2)| and phi_f = t h_t/2 + pi/2.  The
domain length cancels; the partition enters only through how many tilts the
sampler draws.  A spin-S coherent state is 2S aligned spin-1/2 states, so in
this model a domain is xi_d independent spins sharing one tilt.  These tests
pin that, on the fig4 presets, and show that the tilt targets (the
equilibrium magnetization at the preparation and freeze-out fields) carry
criterion 3's order.
"""

import dataclasses
import math

import numpy as np
import pytest

from kzring import dia
from kzring.runner import _dia_configs, _time_grid, preset_config, reference_dia_config
from kzring.sampler import sample_initial_directions
from kzring.scaling import DomainPartition, field_at

FIG4 = preset_config("fig4")  # v = 6e-4, 2.2e-3, 2e-2: slowest first
BASES = [next(_dia_configs(cfg)) for cfg in FIG4]
GRIDS = [_time_grid(cfg) for cfg in FIG4]


def redrawn(base, xi_d, m0z, mdz):
    """base with N/xi_d domains of xi_d spins, tilts drawn for the targets
    with base's seed."""
    n_d = base.n // xi_d
    ensemble = sample_initial_directions(n_d, m0z, mdz, seed=base.ensemble.seed)
    return dataclasses.replace(
        base, partition=DomainPartition(xi_d=xi_d, n_d=n_d), ensemble=ensemble
    )


def trace(cfg, times):
    return dia.concurrences([cfg], times)[0]


@pytest.mark.parametrize("k", range(3), ids=[c.label for c in FIG4])
def test_the_partition_barely_moves_the_trace(k):
    # measured: at most 9.2e-6 over the whole 201-point trace
    base, times = BASES[k], GRIDS[k]
    targets = base.ensemble.m0z_target, base.ensemble.mdz_target
    preset = trace(base, times)
    for xi_d in (1, 2, 10, 30, 60, 120):
        moved = np.abs(trace(redrawn(base, xi_d, *targets), times) - preset).max()
        assert moved <= 1e-4, xi_d


# C(1) with each preset's schedule (rows: field and t0, with its partition)
# and each preset's tilt targets (columns), seed 1; the diagonal is what the
# presets write
C1_TABLE = (
    (0.03407, 0.03021, 0.02139),
    (0.03348, 0.02974, 0.02114),
    (0.03215, 0.02866, 0.02059),
)


def test_the_tilt_targets_carry_criterion_3():
    table = np.array([
        [
            trace(redrawn(row, row.partition.xi_d, col.ensemble.m0z_target,
                          col.ensemble.mdz_target), times)[-1]
            for col in BASES
        ]
        for row, times in zip(BASES, GRIDS)
    ])
    assert np.abs(table - C1_TABLE).max() <= 1e-5
    # slower quench, higher C(1), with either the tilts or the schedule fixed
    assert (np.diff(table, axis=0) < 0).all()
    assert (np.diff(table, axis=1) < 0).all()


def log_form(cfg, t):
    """exp((N/2) mean_d log1p(-sin^2(theta_f) w_d)) at the elapsed times t."""
    h_t = field_at(cfg.schedule, cfg.t0 + t)
    theta_f = (4.0 * cfg.g / h_t) * np.abs(np.sin(0.5 * t * h_t))
    phi_f = 0.5 * t * h_t + 0.5 * math.pi
    theta = np.array(cfg.ensemble.theta)[:, None]
    phi = np.array(cfg.ensemble.phi)[:, None]
    w = 1.0 - np.sin(theta) ** 2 * np.sin(phi - phi_f) ** 2
    return np.exp(0.5 * cfg.n * np.mean(np.log1p(-np.sin(theta_f) ** 2 * w), axis=0))


@pytest.mark.parametrize(
    "cfg, times",
    [(reference_dia_config(), np.linspace(0.0, 1.0, 201)), *zip(BASES, GRIDS)],
    ids=["reference"] + [c.label for c in FIG4],
)
def test_the_closed_form_is_its_log_form(cfg, times):
    # measured: 1.9e-15 relative on the reference config, at most 1.2e-14
    # on fig4
    closed = trace(cfg, times)
    assert np.abs(log_form(cfg, times) / closed - 1.0).max() <= 1e-13
