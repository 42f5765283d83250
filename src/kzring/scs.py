"""Spin coherent states: directions, displacements, overlaps, Dicke expansion.

A spin-S coherent state is the displaced highest-weight state

    |Omega> = exp(Omega S- - conj(Omega) S+) |S, S>,   Omega = (theta/2) e^(i phi).

Directions on the unit sphere and displacement parameters are in one-to-one
correspondence; the displacement acts on expectation values as the SO(3)
rotation by theta about the in-plane axis (-sin phi, cos phi, 0), which maps
the north pole onto n(Omega) = (sin theta cos phi, sin theta sin phi,
cos theta).  Overlaps of two coherent states decay with the angle Theta
between their directions as cos^(2S)(Theta/2) in modulus.

The Dicke-basis expansion coefficients are binomially weighted; they are
accumulated in log space so spins in the hundreds stay finite.  scipy is
imported by `dicke_vector` and `displacement_matrix` at their first call, so
importing this module loads numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScsDirection",
    "rotation_matrix",
    "omega_angles",
    "bloch_vectors",
    "rotation_matrices",
    "overlap_magnitude",
    "dicke_m_values",
    "dicke_vector",
    "overlap_exact",
    "ladder_matrices",
    "displacement_matrix",
    "SPIN_CAP",
]

_TWO_PI = 2.0 * math.pi

# Largest spin accepted by the Dicke-basis routines.  Log-space magnitudes
# stay finite well beyond this, but the summation loses relative accuracy
# once 2S+1 terms with alternating phases span hundreds of orders.
SPIN_CAP = 200.0


@dataclass(frozen=True)
class ScsDirection:
    """Unit-sphere direction, canonicalized to theta in [0, pi], phi in [0, 2pi).

    Out-of-range angles are folded: a negative or reflex polar angle reflects
    through the pole and shifts phi by pi, so the direction (not the raw
    angle pair) is what the instance represents.  At either pole phi is
    gauge and is pinned to 0.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        theta = float(self.theta)
        phi = float(self.phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError("direction angles must be finite")
        if theta < 0.0:
            theta, phi = -theta, phi + math.pi
        theta = theta % _TWO_PI
        if theta > math.pi:
            theta = _TWO_PI - theta
            phi = phi + math.pi
        phi = phi % _TWO_PI
        if theta == 0.0 or theta == math.pi:
            phi = 0.0
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    @classmethod
    def from_omega(cls, omega: complex) -> "ScsDirection":
        """Direction of the displacement parameter Omega = (theta/2) e^(i phi)."""
        omega = complex(omega)
        return cls(2.0 * abs(omega), math.atan2(omega.imag, omega.real))

    @property
    def omega(self) -> complex:
        """Complex displacement parameter (theta/2) e^(i phi)."""
        return 0.5 * self.theta * complex(math.cos(self.phi), math.sin(self.phi))

    def bloch(self) -> np.ndarray:
        """Cartesian unit vector; a one-element call of :func:`bloch_vectors`."""
        return bloch_vectors(np.array([self.theta]), np.array([self.phi]))[0]


def rotation_matrix(d: ScsDirection) -> np.ndarray:
    """SO(3) matrix of the displacement labelled by `d`; a one-element call
    of :func:`rotation_matrices`."""
    return rotation_matrices(np.array([d.theta]), np.array([d.phi]))[0]


def omega_angles(omega) -> tuple[np.ndarray, np.ndarray]:
    """Canonical theta, and the phases of the directions of +Omega and
    -Omega stacked as one array of shape (2,) + theta.shape, for an array of
    displacement parameters, theta of its shape.

    Elementwise the same arithmetic, in the same order, as
    ``ScsDirection.from_omega(+-Omega)``: theta = 2|Omega| folded into
    [0, pi], phi = arg(+-Omega) shifted by pi on a fold, taken mod 2pi and
    pinned to 0 at either pole.  theta, the fold and the pole do not depend
    on the sign of Omega, so they are computed once for both.  Each phase
    row is written in place, so the stack is what the kernels pass to
    :func:`bloch_vectors` and :func:`rotation_matrices`.

    The phase is the imaginary part of the complex log, which glibc's
    ``clog`` sets to ``atan2(imag, real)``, signed zeros included: the value
    ``math.atan2`` returns.  ``np.arctan2`` and ``np.angle`` may run SIMD
    code that differs from libm in the last bit.
    """
    omega = np.asarray(omega, dtype=complex)
    theta = 2.0 * np.hypot(omega.real, omega.imag)
    # a finite theta implies finite parts, hence a finite phase
    if not np.isfinite(theta).all():
        raise ValueError("direction angles must be finite")
    theta %= _TWO_PI
    reflex = theta > math.pi
    theta[reflex] = _TWO_PI - theta[reflex]
    pole = (theta == 0.0) | (theta == math.pi)
    phases = np.empty((2,) + theta.shape)
    for row, branch in zip(phases, (omega, -omega)):
        with np.errstate(divide="ignore"):  # log(0) has real part -inf
            phi = np.log(branch).imag
        phi[reflex] += math.pi
        np.remainder(phi, _TWO_PI, out=row)
        row[pole] = 0.0
    return theta, phases


# The stacks below are filled in place, so every row and matrix is
# C-contiguous and matmul takes the same BLAS kernels for a stack as for one
# element.  A leading axis of phi gives one stack per row of phi, all
# sharing one pass of the trigonometry of theta.
def bloch_vectors(theta, phi) -> np.ndarray:
    """Unit vectors (sin t cos p, sin t sin p, cos t) of a 1-D canonical theta
    and a phi of shape (..., n), shape (..., n, 3)."""
    phi = np.asarray(phi)
    st = np.sin(theta)
    out = np.empty(phi.shape + (3,))
    out[..., 0] = st * np.cos(phi)
    out[..., 1] = st * np.sin(phi)
    out[..., 2] = np.cos(theta)
    return out


def rotation_matrices(theta, phi) -> np.ndarray:
    """SO(3) displacement matrices of a canonical theta and a phi of shape
    (...,) + theta.shape, shape phi.shape + (3, 3).

    Each is the displacement exp(Omega S- - conj(Omega) S+) acting on Bloch
    vectors: the Rodrigues rotation by theta about the in-plane axis
    u = (-sin phi, cos phi, 0).  Its third column is n(Omega), so the north
    pole is carried onto the direction itself.  Composition matches the
    matrix exponential acting on states (adjoint action), which the exact
    cross-check validates to near machine precision.
    """
    c, s = np.cos(theta), np.sin(theta)
    a, b = np.cos(phi), np.sin(phi)
    out = np.empty(a.shape + (3, 3))
    out[..., 0, 0] = c * a * a + b * b
    out[..., 0, 1] = out[..., 1, 0] = -a * b * (1.0 - c)
    out[..., 0, 2] = s * a
    out[..., 1, 1] = c * b * b + a * a
    out[..., 1, 2] = s * b
    out[..., 2, 0] = -s * a
    out[..., 2, 1] = -s * b
    out[..., 2, 2] = c
    return out


def _check_spin(s: float) -> int:
    """Validate a (half-)integer spin magnitude; return the integer 2S."""
    two_s = 2.0 * float(s)
    n = round(two_s)
    if n < 1 or abs(two_s - n) > 1e-9:
        raise ValueError(f"spin must be a positive multiple of 1/2, got s={s}")
    return int(n)


def overlap_magnitude(d1: ScsDirection, d2: ScsDirection, s: float) -> float:
    """Squared overlap |<Omega1|Omega2>|^2 = ((1 + n1.n2)/2)^(2S) = cos^(4S)(Theta/2)."""
    _check_spin(s)
    x = 0.5 * (1.0 + float(d1.bloch() @ d2.bloch()))
    x = min(1.0, max(0.0, x))
    return x ** (2.0 * s)


def dicke_m_values(s: float) -> np.ndarray:
    """Magnetic quantum numbers in descending order, S, S-1, ..., -S."""
    n = _check_spin(s)
    return float(s) - np.arange(n + 1)


def dicke_vector(d: ScsDirection, s: float) -> np.ndarray:
    """Dicke-basis expansion of |Omega>, ordered |S,S>, |S,S-1>, ..., |S,-S>.

    Component k (with M = S - k) is

        sqrt(C(2S, k)) cos^(2S-k)(theta/2) sin^k(theta/2) e^(i k phi),

    computed in log space.  The vector has unit norm; at theta = 0 it is the
    first basis vector.
    """
    from scipy.special import gammaln

    n = _check_spin(s)
    if s > SPIN_CAP:
        raise ValueError(f"spin {s} above the Dicke-path cap {SPIN_CAP}")
    k = np.arange(n + 1)
    ln_binom = 0.5 * (gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0))
    c = math.cos(0.5 * d.theta)
    si = math.sin(0.5 * d.theta)
    ln_mag = ln_binom.copy()
    falls = (n - k) > 0
    if c > 0.0:
        ln_mag[falls] += (n - k)[falls] * math.log(c)
    else:
        ln_mag[falls] = -np.inf
    rises = k > 0
    if si > 0.0:
        ln_mag[rises] += k[rises] * math.log(si)
    else:
        ln_mag[rises] = -np.inf
    return np.exp(ln_mag) * np.exp(1j * k * d.phi)


def overlap_exact(d1: ScsDirection, d2: ScsDirection, s: float) -> complex:
    """Full complex overlap <Omega1|Omega2> by direct Dicke-basis summation.

    Independent oracle for the closed-form overlap rules: its modulus must
    reproduce cos^(2S)(Theta/2) and its phase is physical (relative) phase.
    """
    return complex(np.vdot(dicke_vector(d1, s), dicke_vector(d2, s)))


def ladder_matrices(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (S+, S-, M diagonal) in the descending-M Dicke basis."""
    n = _check_spin(s)
    m = float(s) - np.arange(n + 1)
    sm = np.zeros((n + 1, n + 1))
    for k in range(n):
        sm[k + 1, k] = math.sqrt(s * (s + 1.0) - m[k] * (m[k] - 1.0))
    return sm.T.copy(), sm, m


def displacement_matrix(d: ScsDirection, s: float) -> np.ndarray:
    """Unitary exp(Omega S- - conj(Omega) S+) on the (2S+1)-dim Dicke space."""
    import scipy.linalg

    n = _check_spin(s)
    if n + 1 > 2001:
        raise ValueError(f"spin {s} too large for a dense displacement matrix")
    sp, sm, _ = ladder_matrices(s)
    omega = d.omega
    return scipy.linalg.expm(omega * sm - np.conj(omega) * sp)
