"""Spin-coherent-state directions, rotations, overlaps, Dicke expansions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kzring.scs import (
    ScsDirection,
    dicke_m_values,
    dicke_vector,
    displacement_matrix,
    ladder_matrices,
    omega_angles,
    overlap_exact,
    overlap_magnitude,
    rotation_matrix,
    scs_cross_check,
)

angles = st.floats(0.0, math.pi, allow_nan=False)
phases = st.floats(0.0, 2.0 * math.pi, exclude_max=True, allow_nan=False)


def test_direction_canonicalizes_angles():
    d = ScsDirection(-0.3, 0.0)
    assert d.theta == pytest.approx(0.3)
    assert d.phi == pytest.approx(math.pi)
    d = ScsDirection(math.pi + 0.5, 0.2)
    assert d.theta == pytest.approx(math.pi - 0.5)
    assert d.phi == pytest.approx(0.2 + math.pi)
    assert ScsDirection(0.0, 1.3).phi == 0.0  # pole pins the azimuth


def test_omega_round_trip():
    d = ScsDirection(1.1, 2.2)
    back = ScsDirection.from_omega(d.omega)
    assert back.theta == pytest.approx(d.theta)
    assert back.phi == pytest.approx(d.phi)


def awkward_omegas() -> np.ndarray:
    """Displacement parameters where a phase or a fold is easy to get wrong:
    signed zeros, both axes, subnormals, +-1e+-300, theta = 2|Omega| on and
    next to pi and 2pi, and seeded points within 1e-9 of |Omega| = 1."""
    tiny = 5e-324
    magnitudes = [
        0.0, tiny, 3 * tiny, 2.2250738585072014e-308, 1e-300, 1e-9, 0.5, 1.0,
        1e300, math.pi / 2, np.nextafter(math.pi / 2, 0.0), np.nextafter(math.pi / 2, 4.0),
        math.pi, np.nextafter(math.pi, 0.0), np.nextafter(math.pi, 4.0), 3.0 * math.pi / 2,
    ]
    parts = [(m, 0.0) for m in magnitudes] + [(0.0, m) for m in magnitudes]
    parts += [(m, m) for m in magnitudes] + [(tiny, m) for m in magnitudes]
    parts.append((1e300, tiny))  # atan2 underflows to a signed zero
    re_im = np.array(parts)
    signs = np.array([(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)])
    re_im = (re_im[None, :, :] * signs[:, None, :]).reshape(-1, 2)
    rng = np.random.default_rng(20240601)
    radius = 1.0 + 1e-9 * rng.uniform(-1.0, 1.0, 1000)
    angle = rng.uniform(-math.pi, math.pi, 1000)
    near_one = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    re_im = np.concatenate([re_im, near_one])
    # filled part by part: complex arithmetic would lose the zeros' signs
    omega = np.empty(len(re_im), dtype=complex)
    omega.real, omega.imag = re_im[:, 0], re_im[:, 1]
    return omega


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def test_omega_angles_equal_the_scalar_route_bit_for_bit():
    # omega_angles takes the phase from numpy's complex log, the scalar
    # route from math.atan2; both must be libm's atan2, sign of zero
    # included, or the kernels stop repeating the per-point arithmetic
    omega = awkward_omegas()
    assert np.signbit(omega.real).any() and np.signbit(omega.imag).any()
    theta, phases = omega_angles(omega)
    assert phases.shape == (2,) + omega.shape
    phi_plus, phi_minus = phases
    plus = [ScsDirection.from_omega(w) for w in omega]
    minus = [ScsDirection.from_omega(w) for w in -omega]
    assert np.array_equal(bits(theta), bits([d.theta for d in plus]))
    assert np.array_equal(bits(theta), bits([d.theta for d in minus]))
    assert np.array_equal(bits(phi_plus), bits([d.phi for d in plus]))
    assert np.array_equal(bits(phi_minus), bits([d.phi for d in minus]))
    with pytest.raises(ValueError):
        omega_angles(np.array([complex(math.inf, 0.0)]))


@given(theta=angles, phi=phases)
def test_bloch_round_trip(theta, phi):
    d = ScsDirection(theta, phi)
    v = d.bloch()
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    # the angles read back off the unit vector name the same direction
    back = ScsDirection(math.atan2(math.hypot(v[0], v[1]), v[2]), math.atan2(v[1], v[0]))
    assert np.allclose(back.bloch(), v, atol=1e-12)


@given(theta=angles, phi=phases)
def test_rotation_matrix_is_special_orthogonal(theta, phi):
    r = rotation_matrix(ScsDirection(theta, phi))
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_rotation_sends_pole_to_direction():
    d = ScsDirection(0.9, 4.0)
    pole = np.array([0.0, 0.0, 1.0])
    assert np.allclose(rotation_matrix(d) @ pole, d.bloch(), atol=1e-12)


def test_displacement_on_generic_target_matches_matrix_exponential():
    # rotor applied to an arbitrary direction, checked against the dense
    # (2S+1)-dimensional exponential for S = 2
    s = 2.0
    rotor = ScsDirection(0.7, 1.9)
    target = ScsDirection(2.0, 0.4)
    moved = rotation_matrix(rotor) @ target.bloch()
    u = displacement_matrix(rotor, s)
    psi = u @ dicke_vector(target, s)
    sp, sm, _ = ladder_matrices(s)
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    sz = np.diag(dicke_m_values(s))
    bloch = np.array([
        np.vdot(psi, op @ psi).real / s for op in (sx, sy, sz)
    ])
    assert np.allclose(moved, bloch, atol=1e-10)


def test_overlap_magnitude_closed_form():
    # antipodal points are orthogonal, coincident points have unit overlap
    up = ScsDirection(0.0)
    down = ScsDirection(math.pi)
    assert overlap_magnitude(up, down, 5.0) == 0.0
    assert overlap_magnitude(up, up, 5.0) == pytest.approx(1.0)
    # right angle: ((1+0)/2)^(2S)
    side = ScsDirection(math.pi / 2, 0.0)
    assert overlap_magnitude(up, side, 3.0) == pytest.approx(0.5**6)


@given(theta=angles, phi=phases, s=st.sampled_from([0.5, 1.0, 2.5, 7.0]))
def test_overlap_exact_matches_magnitude(theta, phi, s):
    d1 = ScsDirection(theta, phi)
    d2 = ScsDirection(0.4, 5.1)
    exact = abs(overlap_exact(d1, d2, s)) ** 2
    assert exact == pytest.approx(overlap_magnitude(d1, d2, s), abs=1e-12)


@given(theta=st.floats(0.01, math.pi - 0.01))
@settings(max_examples=50)
def test_overlap_decays_with_spin(theta):
    d1 = ScsDirection(0.0)
    d2 = ScsDirection(theta)
    small = overlap_magnitude(d1, d2, 1.0)
    large = overlap_magnitude(d1, d2, 8.0)
    assert large < small


def test_dicke_vector_is_normalized_and_matches_binomials():
    d = ScsDirection(1.2, 0.7)
    for s in (0.5, 1.5, 4.0):
        vec = dicke_vector(d, s)
        assert np.linalg.norm(vec) == pytest.approx(1.0)
        n = int(round(2 * s))
        c, sn = math.cos(d.theta / 2.0), math.sin(d.theta / 2.0)
        for k, m in enumerate(dicke_m_values(s)):
            expected = (
                math.sqrt(math.comb(n, k)) * c ** (n - k) * sn**k
                * complex(math.cos(k * d.phi), math.sin(k * d.phi))
            )
            assert vec[k] == pytest.approx(expected, abs=1e-12)
            assert m == s - k  # component k is |S, S - k>


def test_dicke_vector_handles_large_spin():
    # log-space binomials keep S = 100 finite
    d = ScsDirection(2.8, 0.1)
    vec = dicke_vector(d, 100.0)
    assert np.all(np.isfinite(vec.view(float)))
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_ladder_matrices_satisfy_su2_algebra():
    for s in (0.5, 1.0, 3.5):
        sp, sm, m = ladder_matrices(s)
        sz = np.diag(m)
        assert np.allclose(sp @ sm - sm @ sp, 2.0 * sz, atol=1e-12)
        assert np.allclose(sp.conj().T, sm, atol=1e-12)


def test_displacement_matrix_is_unitary():
    d = ScsDirection(0.9, 3.3)
    for s in (0.5, 2.0, 6.5):
        u = displacement_matrix(d, s)
        assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12)


def test_displacement_matrix_builds_the_coherent_state():
    d = ScsDirection(1.7, 0.6)
    s = 3.0
    u = displacement_matrix(d, s)
    assert np.allclose(u[:, 0], dicke_vector(d, s), atol=1e-12)


def test_spin_values_must_be_half_integers():
    d = ScsDirection(0.3)
    with pytest.raises(ValueError):
        dicke_vector(d, 0.7)
    with pytest.raises(ValueError):
        overlap_magnitude(d, d, -1.0)


def test_scs_cross_check_is_exact_at_the_pole():
    assert scs_cross_check(ScsDirection(0.0, 0.0), 2.0) < 1e-14


def test_scs_cross_check_random_directions():
    rng = np.random.default_rng(5)
    for s in (0.5, 5.0):
        for _ in range(5):
            d1 = ScsDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            d2 = ScsDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            assert scs_cross_check(d1, s, d2) < 1e-10
