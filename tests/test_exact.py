"""Exact-diagonalization oracle for the full model."""

import numpy as np
import pytest
import scipy.sparse as sp

from kzring import exact
from kzring.concurrence import DeviceState, wootters_concurrence
from kzring.errors import StepControlError
from kzring.exact import (
    HamiltonianSpec,
    build_hamiltonian,
    device_states_constant_field,
    ground_state_ring,
    magnetization_diagonal,
    propagate,
    reduced_device_state,
    ring_hamiltonian,
)
from kzring.para import ParaConfig, concurrences as para_concurrences
from kzring.scaling import QuenchSchedule


def bell_vector():
    return np.array(DeviceState.bell().vector())


def test_hamiltonian_is_hermitian():
    spec = HamiltonianSpec(n=5, g=0.13, field=1.7)
    h = build_hamiltonian(spec, 0.0)
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


def _coo_flips(n, masks, value):
    """scipy's COO -> CSR build of value * sum over masks of the bit flips."""
    idx = np.arange(1 << n, dtype=np.int64)
    rows = np.tile(idx, len(masks))
    cols = np.concatenate([idx ^ mask for mask in masks])
    return sp.csr_matrix((np.full(rows.shape, value), (rows, cols)), shape=(1 << n, 1 << n))


def _same_csr(built, ref):
    assert built.has_canonical_format
    for part in ("indptr", "indices", "data"):
        a, b = getattr(built, part), getattr(ref, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part


# h = 0 leaves out every diagonal entry, 1e-310 makes them subnormal
FIELDS = (0.0, 0.3, 0.5005, 0.545, 1.0, 2.5, 1e-310, 50.0)


def test_ring_hamiltonian_is_the_sparse_algebra_build_byte_for_byte():
    # The matvec sums each row in stored order, so eigsh keeps every m_z
    # bit only if indptr, indices and data are laid out exactly as the
    # bond matrix minus h * diags(m_z) lays them out.  n = 2 sums its two
    # coinciding bonds.
    for n in range(2, 15):
        bond = _coo_flips(n, [(1 << i) | (1 << ((i + 1) % n)) for i in range(n)], -0.25)
        for h in FIELDS:
            ref = (bond - h * sp.diags(magnetization_diagonal(n))).tocsr()
            _same_csr(ring_hamiltonian(n, h), ref)


def test_transverse_matrix_is_the_coo_build_byte_for_byte():
    for n in range(2, 13):
        _same_csr(exact._transverse_matrix(n), _coo_flips(n, [1 << i for i in range(n)], 0.5))


def test_zero_coupling_decouples_device_blocks():
    spec = HamiltonianSpec(n=4, g=0.0, field=2.0)
    h = build_hamiltonian(spec, 0.0)
    dim = 2**4
    for a in range(4):
        for b in range(4):
            block = h[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim]
            if a != b:
                assert np.max(np.abs(block)) == 0.0


def test_two_site_ring_ground_energy():
    # periodic two-site ring doubles the single bond: ground of -2 sx sx
    # at zero field is -1/2
    h = ring_hamiltonian(2, 0.0).toarray()
    assert np.min(np.linalg.eigvalsh(h)) == pytest.approx(-0.5, abs=1e-12)


def test_ground_state_polarizes_at_large_field():
    gs = ground_state_ring(HamiltonianSpec(n=8, g=0.0, field=50.0))
    # every spin up, basis index 0, is the h -> infinity ground state
    fidelity = abs(gs.vector[0]) ** 2
    assert fidelity > 0.999
    assert not gs.degenerate


def test_ground_state_flags_degeneracy_at_zero_field():
    gs = ground_state_ring(HamiltonianSpec(n=6, g=0.0, field=0.0))
    assert gs.degenerate
    h = ring_hamiltonian(6, 0.0)
    ritz = np.vdot(gs.vector, h @ gs.vector).real
    assert ritz == pytest.approx(gs.energy, abs=1e-10)


def test_ground_state_ring_matches_a_dense_reference():
    # At h = 0 the uniform start vector is itself a ground state, and eigsh
    # must still return both members of the doublet.
    for n in range(2, 9):
        for h in (0.0, 0.5, 1.0, 8.0):
            ham = ring_hamiltonian(n, h)
            vals, vecs = np.linalg.eigh(ham.toarray())
            gs = ground_state_ring(HamiltonianSpec(n=n, g=0.0, field=h))
            assert abs(gs.energy - vals[0]) <= 1e-12, (n, h)
            assert np.linalg.norm(ham @ gs.vector - gs.energy * gs.vector) <= 1e-12, (n, h)
            assert gs.degenerate == (h == 0.0), (n, h)
            if h > 0.0:
                assert abs(np.vdot(vecs[:, 0], gs.vector)) ** 2 >= 1.0 - 1e-12, (n, h)


def test_ground_state_energy_is_the_rayleigh_quotient():
    spec = HamiltonianSpec(n=7, g=0.0, field=1.3)
    gs = ground_state_ring(spec)
    h = ring_hamiltonian(7, 1.3)
    assert np.vdot(gs.vector, h @ gs.vector).real == pytest.approx(
        gs.energy, abs=1e-10
    )


def test_propagate_preserves_norm_and_matches_eigendecomposition():
    n, h, g = 6, 2.0, 0.05
    ring0 = ground_state_ring(HamiltonianSpec(n=n, g=0.0, field=h)).vector
    psi0 = np.kron(bell_vector(), ring0)
    spec = HamiltonianSpec(n=n, g=g, field=h)
    out = propagate(psi0, spec, (0.0, 0.5), dt=0.01)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10
    ref = device_states_constant_field(
        spec, bell_vector(), ring0, np.array([0.5])
    )[0].ravel()
    assert np.max(np.abs(reduced_device_state(out) - reduced_device_state(ref))) < 1e-10


def test_propagate_keeps_product_form_at_zero_coupling():
    n = 5
    ring0 = ground_state_ring(HamiltonianSpec(n=n, g=0.0, field=2.0)).vector
    psi0 = np.kron(bell_vector(), ring0)
    spec = HamiltonianSpec(n=n, g=0.0, field=2.0)
    out = propagate(psi0, spec, (0.0, 0.7), dt=0.01)
    rho = reduced_device_state(out)
    purity = np.trace(rho @ rho).real
    assert purity == pytest.approx(1.0, abs=1e-10)


def test_step_control_rejects_coarse_quench_steps():
    n, g = 4, 0.05
    ring0 = ground_state_ring(HamiltonianSpec(n=n, g=0.0, field=1.2)).vector
    psi0 = np.kron(bell_vector(), ring0)
    spec = HamiltonianSpec(n=n, g=g, field=QuenchSchedule(h0=1.2, v=0.04))
    with pytest.raises(StepControlError):
        propagate(psi0, spec, (0.0, 1.0), dt=0.1)


def test_quench_concurrence_converges_under_step_halving():
    n, g = 4, 0.05
    ring0 = ground_state_ring(HamiltonianSpec(n=n, g=0.0, field=1.2)).vector
    psi0 = np.kron(bell_vector(), ring0)
    spec = HamiltonianSpec(n=n, g=g, field=QuenchSchedule(h0=1.2, v=0.04))
    coarse = propagate(psi0, spec, (0.0, 1.0), dt=0.01, check_step=False)
    fine = propagate(psi0, spec, (0.0, 1.0), dt=0.005, check_step=False)
    c1 = wootters_concurrence(reduced_device_state(coarse))
    c2 = wootters_concurrence(reduced_device_state(fine))
    assert abs(c1 - c2) < 1e-6


def test_reduced_state_of_separable_input_is_pure():
    ring0 = np.eye(1, 1 << 6)[0]  # every spin up
    psi = np.kron(bell_vector(), ring0)
    rho = reduced_device_state(psi)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


def test_weak_coupling_concurrence_tracks_closed_form():
    """Scaled-down version of the validation sweep: deviation is small and
    drops by at least 2x when the coupling is halved."""
    n, h = 6, 5.0
    times = np.linspace(0.0, 1.0, 51)
    ring0 = ground_state_ring(HamiltonianSpec(n=n, g=0.0, field=h)).vector
    devs = {}
    for g in (0.02, 0.01):
        spec = HamiltonianSpec(n=n, g=g, field=h)
        states = device_states_constant_field(spec, bell_vector(), ring0, times)
        cfg = ParaConfig(n=n, g=g, h=h)
        exact = np.array([
            wootters_concurrence(reduced_device_state(states[i].ravel()))
            for i in range(len(times))
        ])
        closed = para_concurrences([cfg], times)[0]
        devs[g] = np.max(np.abs(exact - closed))
    assert devs[0.02] < 0.02
    assert devs[0.02] / devs[0.01] >= 2.0


def test_spec_validation():
    with pytest.raises(ValueError):
        HamiltonianSpec(n=13, g=0.1, field=2.0)
    with pytest.raises(ValueError):
        HamiltonianSpec(n=1, g=0.1, field=2.0)
