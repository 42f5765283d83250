"""Frozen-domain closed form: per-domain rotations and concurrence."""

import dataclasses
import math

import numpy as np
import pytest

from kzring.dia import (
    V_SPAN_MAX,
    DiaConfig,
    concurrences,
    displacement_parameter,
)
from kzring.errors import ConfigError
from kzring.sampler import DomainEnsemble, sample_initial_directions
from kzring.scaling import DomainPartition, QuenchSchedule, domain_partition
from kzring.scs import ScsDirection, rotation_matrix


def make_config(theta=1.0, phi=0.0, g=1.0 / 6.0, h0=1.09, t0=0.0):
    """Two domains of spin 5 on a 20-site ring, both tilted the same way."""
    schedule = QuenchSchedule(h0=h0, v=0.02)
    partition = domain_partition(20, schedule)
    ensemble = DomainEnsemble(
        theta=(theta,) * partition.n_d, phi=(phi,) * partition.n_d,
        seed=0, m0z_target=math.cos(theta) / 2.0,
        mdz_target=math.cos(theta) / 2.0,
    )
    return DiaConfig(
        g=g, schedule=schedule, t0=t0, partition=partition, ensemble=ensemble,
    )


def concurrence(cfg, t):
    """The closed form of one config at one elapsed time, as a one-config batch."""
    (c,) = concurrences([cfg], t)
    return c


def test_ring_size_is_the_partition_size():
    cfg = make_config()
    assert cfg.n == cfg.partition.xi_d * cfg.partition.n_d == 20
    single = DomainPartition(xi_d=1, n_d=1)
    with pytest.raises(ConfigError, match="at least 2 spins"):
        DiaConfig(
            g=cfg.g, schedule=cfg.schedule, t0=cfg.t0, partition=single,
            ensemble=cfg.ensemble,
        )


def test_config_rejects_start_before_freeze_out():
    with pytest.raises(ConfigError):
        make_config(t0=-2.0)  # freeze-out sits at -0.5


def test_config_rejects_strong_coupling():
    with pytest.raises(ConfigError):
        make_config(g=0.5)


def test_frozen_window_guards_the_times_evaluated():
    cfg = make_config()
    concurrences([cfg], 1.0)
    with pytest.raises(ConfigError, match=">= 0"):
        concurrences([cfg], -1.0)
    with pytest.raises(ConfigError):
        concurrences([cfg], 10.0)  # field would cross criticality
    concurrences([cfg], V_SPAN_MAX / cfg.schedule.v)  # drift at the bound
    with pytest.raises(ConfigError, match="frozen-window bound"):
        concurrences([cfg], 1.01 * V_SPAN_MAX / cfg.schedule.v)
    # the latest time decides, wherever it sits in the grid
    with pytest.raises(ConfigError, match="frozen-window bound"):
        concurrences([cfg], [[0.5, 3.0], [0.0, 0.1]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_elapsed_times_are_rejected(bad):
    with pytest.raises(ConfigError, match="finite"):
        concurrences([make_config()], [0.0, bad, 0.5])


def test_field_below_critical_at_t0_is_rejected_even_for_an_empty_grid():
    cfg = make_config(t0=5.0)  # h(t0) = 1.09 - 0.02 * 5 = 0.99 < hc
    with pytest.raises(ConfigError, match="below the critical value"):
        concurrences([cfg], [])
    assert concurrences([make_config()], []).shape == (1, 0)


def test_detuning_guard_names_the_first_failing_coupling():
    base = dataclasses.replace(make_config(), g_max=0.3)
    batch = [dataclasses.replace(base, g=g) for g in (0.1, 0.29, 0.28)]
    concurrences(batch[:1], 1.0)
    # h(t0 + 1) = 1.07, so the guard admits g <= 0.2675
    with pytest.raises(ConfigError, match=r"detuning guard: g=0\.29 "):
        concurrences(batch, 1.0)


def test_displacement_modulus_closed_form():
    g, h_t = 0.1, 1.05
    for t in (0.0, 0.3, 1.0):
        f = displacement_parameter(g, h_t, t)
        assert abs(f) == pytest.approx(
            (2.0 * g / h_t) * abs(math.sin(t * h_t / 2.0)), abs=1e-14
        )
    assert displacement_parameter(g, h_t, 0.0) == 0.0
    with pytest.raises(ValueError):
        displacement_parameter(g, 0.0, 1.0)


def test_branch_directions_mirror_each_other():
    f = displacement_parameter(0.1, 1.05, 0.7)
    d_plus = ScsDirection.from_omega(f)
    d_minus = ScsDirection.from_omega(-f)
    assert d_plus.omega == pytest.approx(f, abs=1e-14)
    assert d_minus.omega == pytest.approx(-f, abs=1e-14)
    # opposite branches rotate each domain by inverse rotations
    assert np.allclose(
        rotation_matrix(d_minus), rotation_matrix(d_plus).T, atol=1e-15
    )


def test_domain_rotor_is_an_invertible_rotation():
    rotor = ScsDirection(0.4, 1.1)
    start = ScsDirection(1.9, 5.0).bloch()
    moved = rotation_matrix(rotor) @ start
    assert np.linalg.norm(moved) == pytest.approx(1.0)
    # displacement by the inverse rotor must return to the start
    back = rotation_matrix(ScsDirection(rotor.theta, rotor.phi + math.pi)) @ moved
    assert np.allclose(back, start, atol=1e-10)


def test_concurrence_starts_at_one_and_stays_bounded():
    cfg = make_config()
    assert concurrence(cfg, 0.0) == pytest.approx(1.0, abs=1e-12)
    for t in np.linspace(0.0, 1.0, 41):
        c = concurrence(cfg, float(t))
        assert 0.0 <= c <= 1.0 + 1e-12


def test_equator_tilt_protects_concurrence():
    """Domains lying near the equator decohere slower than polar ones."""
    polar = make_config(theta=0.15)
    tilted = make_config(theta=math.pi / 2.0)
    for t in (0.3, 0.6, 1.0):
        assert concurrence(tilted, t) > concurrence(polar, t)


def test_field_is_frozen_at_the_sample_instant():
    """The drive uses the field at t0 + t, not an average over the span."""
    cfg = make_config()
    t = 0.8
    h_t = cfg.schedule.h0 - cfg.schedule.v * (cfg.t0 + t)
    f = displacement_parameter(cfg.g, h_t, t)
    rot_p = rotation_matrix(ScsDirection.from_omega(f))
    rot_m = rotation_matrix(ScsDirection.from_omega(-f))
    n0 = ScsDirection(cfg.ensemble.theta[0], cfg.ensemble.phi[0]).bloch()
    cos_half = math.sqrt(max(0.0, (1.0 + float((rot_p @ n0) @ (rot_m @ n0))) / 2.0))
    expected = cos_half ** (2.0 * cfg.partition.s_d * cfg.partition.n_d)
    assert concurrence(cfg, t) == pytest.approx(expected, rel=1e-12)
    assert abs(f) > 0


def test_regression_reference_scenario():
    ens = sample_initial_directions(2, m0z=0.32, mdz=0.33, seed=7)
    schedule = QuenchSchedule(h0=1.09, v=0.02)
    cfg = DiaConfig(
        g=1.0 / 6.0, schedule=schedule, t0=0.0,
        partition=domain_partition(20, schedule), ensemble=ens,
    )
    assert concurrence(cfg, 0.7) == pytest.approx(0.7764778108658457, rel=1e-12)
