"""Register density matrices and the Wootters concurrence."""

import math

import numpy as np
import pytest

from kzring import concurrence as concurrence_mod
from kzring.concurrence import (
    DeviceState,
    closed_form_check,
    device_density_matrix,
    wootters_concurrence,
)
from kzring.para import ParaConfig
from kzring.runner import reference_dia_config


def test_device_state_must_be_normalized():
    with pytest.raises(ValueError):
        DeviceState(amplitudes=(1.0, 1.0, 0.0, 0.0))
    bell = DeviceState.bell()
    assert np.linalg.norm(bell.vector()) == pytest.approx(1.0)


def test_trivial_overlaps_give_pure_bell_state():
    bell = DeviceState.bell()
    rho = device_density_matrix(bell, np.ones((4, 4)))
    vec = np.array(bell.vector())
    assert np.allclose(rho, np.outer(vec, vec.conj()), atol=1e-12)
    assert wootters_concurrence(rho) == pytest.approx(1.0)


def test_orthogonal_environments_kill_coherence():
    bell = DeviceState.bell()
    overlaps = np.eye(4)
    rho = device_density_matrix(bell, overlaps)
    assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-12)


def test_known_concurrence_values():
    # product state
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert wootters_concurrence(rho) == 0.0
    # maximally mixed
    assert wootters_concurrence(np.eye(4) / 4.0) == 0.0
    # Werner state: p |Phi+><Phi+| + (1-p) I/4 has C = max(0, (3p-1)/2)
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    proj = np.outer(bell, bell)
    for p in (0.2, 1.0 / 3.0, 0.6, 0.9):
        rho = p * proj + (1.0 - p) * np.eye(4) / 4.0
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert wootters_concurrence(rho) == pytest.approx(expected, abs=1e-12)


def test_partial_overlap_matches_cross_term():
    """For a Bell state the concurrence equals the magnitude of the
    surviving cross overlap between the two branch environments."""
    bell = DeviceState.bell()
    x = 0.37 * np.exp(0.9j)
    overlaps = np.array([
        [1.0, 0.5, 0.5, x],
        [0.5, 1.0, 0.5, 0.5],
        [0.5, 0.5, 1.0, 0.5],
        [np.conj(x), 0.5, 0.5, 1.0],
    ])
    rho = device_density_matrix(bell, overlaps)
    assert wootters_concurrence(rho) == pytest.approx(abs(x), rel=1e-12)


def test_density_matrix_validation():
    bell = DeviceState.bell()
    bad_diag = np.ones((4, 4)) * 0.9
    with pytest.raises(ValueError):
        device_density_matrix(bell, bad_diag)
    bad_sym = np.ones((4, 4), dtype=complex)
    bad_sym[0, 3] = 0.3 + 0.1j
    bad_sym[3, 0] = 0.3 + 0.1j  # should be the conjugate
    np.fill_diagonal(bad_sym, 1.0)
    with pytest.raises(ValueError):
        device_density_matrix(bell, bad_sym)


def test_wootters_rejects_malformed_input():
    with pytest.raises(ValueError):
        wootters_concurrence(np.eye(3))
    herm_broken = np.eye(4, dtype=complex)
    herm_broken[0, 1] = 0.2
    with pytest.raises(ValueError):
        wootters_concurrence(herm_broken)
    off_trace = np.eye(4) * 0.3
    with pytest.raises(ValueError):
        wootters_concurrence(off_trace)


def test_closed_form_check_para_small():
    cfg = ParaConfig(n=6, g=0.04, h=2.0)
    dev = closed_form_check(cfg, np.linspace(0.0, math.pi, 40))
    assert dev < 1e-11


def test_closed_form_check_dia_small():
    dev = closed_form_check(reference_dia_config(), np.linspace(0.0, 1.0, 40))
    assert dev < 1e-10


@pytest.mark.parametrize(
    "config, times, builds",
    [
        # 2 domains once, then 3 distinct parity weights per time
        (reference_dia_config(), np.linspace(0.0, 1.0, 200), 2 + 3 * 200),
        (ParaConfig(n=6, g=0.04, h=2.0), np.linspace(0.0, math.pi, 40), 3 * 40),
    ],
    ids=["dia", "para"],
)
def test_the_oracles_build_each_dicke_state_once(monkeypatch, config, times, builds):
    calls = []
    build = concurrence_mod.displacement_matrix
    monkeypatch.setattr(
        concurrence_mod, "displacement_matrix", lambda *a: calls.append(a) or build(*a)
    )
    closed_form_check(config, times)
    assert len(calls) == builds


def test_closed_form_check_rejects_unknown_setting():
    with pytest.raises(ValueError):
        closed_form_check("bogus", [0.0])
