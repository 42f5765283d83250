"""Quench schedule, freeze-out, and domain partition tests."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from kzring.errors import ConfigError, CriticalPointError, NoFreezeOutError, PartitionError
from kzring.scaling import (
    DomainPartition,
    QuenchSchedule,
    correlation_length,
    domain_partition,
    epsilon_at,
    field_at,
    freeze_out_time,
    reaction_time,
)


def test_field_is_linear_in_time():
    s = QuenchSchedule(h0=2.0, v=0.1)
    assert field_at(s, 0.0) == 2.0
    assert field_at(s, 5.0) == pytest.approx(1.5)
    assert epsilon_at(s, 10.0) == pytest.approx(0.0)


def test_schedule_rejects_bad_values():
    with pytest.raises(ConfigError):
        QuenchSchedule(h0=2.0, v=-1.0)
    with pytest.raises(ConfigError):
        QuenchSchedule(h0=2.0, v=0.1, nu=0.0)
    with pytest.raises(ConfigError):
        QuenchSchedule(h0=float("nan"), v=0.1)


def test_correlation_length_diverges_at_criticality():
    s = QuenchSchedule(h0=2.0, v=0.1)
    assert correlation_length(s, 0.5) == pytest.approx(2.0)
    with pytest.raises(CriticalPointError):
        correlation_length(s, 0.0)
    # a config problem for the command line, still a division by zero
    assert issubclass(CriticalPointError, ConfigError)
    assert issubclass(CriticalPointError, ZeroDivisionError)


def test_freeze_out_default_exponents():
    # (h0 - hc)/v - sqrt(1/(2 v)) at nu = z = 1, tau0 = 1/2
    s = QuenchSchedule(h0=1.01, v=6e-4)
    expected = 0.01 / 6e-4 - math.sqrt(1.0 / (2.0 * 6e-4))
    assert freeze_out_time(s) == pytest.approx(expected, rel=1e-14)
    assert freeze_out_time(s) == pytest.approx(-12.200846792814605, rel=1e-13)
    assert freeze_out_time(QuenchSchedule(h0=1.09, v=0.02)) == pytest.approx(-0.5)


def test_freeze_out_requires_motion_and_room():
    with pytest.raises(NoFreezeOutError):
        freeze_out_time(QuenchSchedule(h0=1.2, v=0.0))
    with pytest.raises(ConfigError):
        freeze_out_time(QuenchSchedule(h0=0.9, v=0.1))


@given(
    nu=st.floats(0.5, 2.0),
    z=st.floats(0.5, 2.0),
    v=st.floats(1e-4, 0.1),
    h0=st.floats(1.001, 3.0),
)
def test_freeze_out_balances_reaction_time(nu, z, v, h0):
    """At the freeze-out instant, time left to criticality equals the
    reaction time evaluated at the instantaneous distance from it."""
    s = QuenchSchedule(h0=h0, v=v, nu=nu, z=z)
    t_bar = freeze_out_time(s)
    t_c = (h0 - s.hc) / v
    eps = epsilon_at(s, t_bar)
    assert eps > 0
    assert reaction_time(s, eps) == pytest.approx(t_c - t_bar, rel=1e-9)


def test_partition_matches_quoted_domain_sizes():
    cases = [(6e-4, 120, 60), (2.2e-3, 120, 30), (2e-2, 120, 10), (5e-5, 1000, 200)]
    for v, n, xi in cases:
        s = QuenchSchedule(h0=1.01, v=v)
        p = domain_partition(n, s)
        assert p.xi_d == xi
        assert p.n_d == n // xi
        assert p.s_d == xi / 2.0
        raw = correlation_length(s, epsilon_at(s, freeze_out_time(s)))
        assert abs(p.xi_d - raw) / raw < 0.05


def test_partition_stores_only_the_domain_sizes():
    assert [f.name for f in dataclasses.fields(DomainPartition)] == ["xi_d", "n_d"]
    p = DomainPartition(xi_d=7, n_d=3)
    assert p.s_d == 3.5
    with pytest.raises(ConfigError):
        DomainPartition(xi_d=0, n_d=3)


def test_partition_prefers_larger_divisor_on_ties():
    # raw length exactly between divisors 4 and 6 of 12 -> pick 6
    s = QuenchSchedule(h0=1.01, v=2.0 / 25.0)  # xi_raw = sqrt(2/v) = 5
    p = domain_partition(12, s)
    assert p.xi_d == 6


def test_partition_rejects_hopeless_rings():
    # raw xi ~= 57.7 but n = 7 only offers divisors 1 and 7
    s = QuenchSchedule(h0=1.01, v=6e-4)
    with pytest.raises(PartitionError):
        domain_partition(7, s)


@given(
    n=st.integers(2, 400),
    v=st.sampled_from([6e-4, 2.2e-3, 2e-2, 0.5]),
)
def test_partition_always_tiles_the_ring(n, v):
    s = QuenchSchedule(h0=1.05, v=v)
    try:
        p = domain_partition(n, s)
    except PartitionError:
        return
    assert p.xi_d * p.n_d == n
    assert p.s_d == p.xi_d / 2.0
