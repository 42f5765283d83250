"""Paramagnetic-regime closed form: displacement, overlap, concurrence."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kzring.errors import ConfigError
from kzring.para import ParaConfig, concurrences, displacement_parameter
from kzring.scs import ScsDirection

FIG3 = ParaConfig(n=120, g=1.0 / 6.0, h=2.0)


def concurrence(cfg, t):
    """The closed form of one config at one time, as a one-config batch."""
    (c,) = concurrences([cfg], t)
    return c


def test_config_enforces_weak_coupling():
    with pytest.raises(ConfigError):
        ParaConfig(n=120, g=0.3, h=2.0)  # g above the absolute cap
    with pytest.raises(ConfigError):
        ParaConfig(n=120, g=0.2, h=0.5)  # g/h above the ratio cap
    with pytest.raises(ConfigError):
        ParaConfig(n=0, g=0.1, h=2.0)
    ParaConfig(n=1, g=0.0, h=1e-3)  # g = 0 passes any field


def test_displacement_starts_at_zero_and_peaks_at_half_period():
    cfg = ParaConfig(n=8, g=0.05, h=2.0)
    assert displacement_parameter(cfg.g, cfg.h, 0.0) == 0.0
    peak = displacement_parameter(cfg.g, cfg.h, math.pi / cfg.h)
    assert abs(peak) == pytest.approx(2.0 * cfg.g / cfg.h)


def test_branch_directions_are_opposite_displacements():
    cfg = ParaConfig(n=8, g=0.05, h=2.0)
    t = 0.37
    l = displacement_parameter(cfg.g, cfg.h, t)
    d_plus = ScsDirection.from_omega(l)
    d_minus = ScsDirection.from_omega(-l)
    assert d_plus.omega == pytest.approx(l)
    assert d_minus.omega == pytest.approx(-l)
    # the two branch spins sit at mirror points through the field axis
    assert np.allclose(d_minus.bloch()[:2], -d_plus.bloch()[:2], atol=1e-15)
    assert d_minus.bloch()[2] == d_plus.bloch()[2]


def test_concurrence_revives_at_the_drive_period():
    assert concurrence(FIG3, 2.0 * math.pi / FIG3.h) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_starts_at_one_and_stays_in_range():
    assert concurrence(FIG3, 0.0) == 1.0
    for t in np.linspace(0.0, 3.0, 61):
        c = concurrence(FIG3, float(t))
        assert 0.0 <= c <= 1.0


def test_concurrence_regression_values():
    assert concurrence(FIG3, 1.0) == pytest.approx(0.008364847590482529, rel=1e-12)
    assert concurrence(FIG3, 0.5) == pytest.approx(0.2146186178867437, rel=1e-12)


def test_overlap_shrinks_with_ring_size():
    small = ParaConfig(n=8, g=0.1, h=2.0)
    large = ParaConfig(n=64, g=0.1, h=2.0)
    t = 0.4
    assert concurrence(large, t) < concurrence(small, t)
    assert concurrence(large, t) == pytest.approx(concurrence(small, t) ** 8, rel=1e-9)


@given(
    g=st.floats(0.0, 0.25),
    h=st.floats(1.0, 5.0),
    t=st.floats(0.0, 2.0),
)
def test_concurrence_is_bounded(g, h, t):
    cfg = ParaConfig(n=16, g=g, h=h)
    c = concurrence(cfg, t)
    assert 0.0 <= c <= 1.0 + 1e-12


def test_zero_coupling_keeps_full_concurrence():
    cfg = ParaConfig(n=120, g=0.0, h=2.0)
    for t in (0.0, 0.3, 1.7):
        assert concurrence(cfg, t) == pytest.approx(1.0)
