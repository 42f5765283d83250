"""Register density matrices, Wootters concurrence, closed-form cross-checks.

The register decoheres through which-branch information stored in the ring:
for register amplitudes c_gamma and branch ring states |R_gamma>, the
reduced density matrix is

    rho[gamma, gamma'] = c_gamma conj(c_gamma') <R_gamma'|R_gamma>.

Concurrence follows Wootters' spin-flip construction.  The closed-form
dynamics of the paramagnetic and frozen-domain regimes are validated here
against an independent route: exact Dicke-space branch states with all
complex phases kept, assembled into the overlap Gram matrix and pushed
through the same Wootters evaluation.  The oracle writes each branch
displacement itself, in the closed forms' arithmetic, so an error in a
closed form's displacement shows as a deviation instead of passing into
both routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dia as dia_mod
from . import para as para_mod
from .exact import DEVICE_PARITY
from .scaling import field_at
from .scs import ScsDirection, dicke_m_values, displacement_matrix

__all__ = [
    "DeviceState",
    "device_density_matrix",
    "wootters_concurrence",
    "closed_form_check",
]

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


@dataclass(frozen=True)
class DeviceState:
    """Pure register state as four amplitudes over |00>, |01>, |10>, |11>."""

    amplitudes: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) != 4:
            raise ValueError("register state needs exactly 4 amplitudes")
        norm = sum(abs(a) ** 2 for a in amps)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"register state not normalized: |c|^2 = {norm}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def bell(cls) -> "DeviceState":
        r = 1.0 / math.sqrt(2.0)
        return cls((r, 0.0, 0.0, r))

    def vector(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)


def device_density_matrix(state: DeviceState, overlaps) -> np.ndarray:
    """Register density matrix from branch ring-state overlaps.

    `overlaps[a, b]` must be the Gram entry <R_a|R_b>: unit diagonal and
    conjugate symmetry are required, anything else is a usage error.
    """
    o = np.asarray(overlaps, dtype=complex)
    if o.shape != (4, 4):
        raise ValueError(f"overlap matrix must be 4x4, got {o.shape}")
    if np.max(np.abs(np.diagonal(o) - 1.0)) > 1e-10:
        raise ValueError("overlap matrix must have unit diagonal")
    if np.max(np.abs(o - o.conj().T)) > 1e-10:
        raise ValueError("overlap matrix must be conjugate symmetric")
    c = state.vector()
    return np.outer(c, c.conj()) * o.T


def wootters_concurrence(rho) -> float:
    """Concurrence max{0, l1 - l2 - l3 - l4} of a two-qubit density matrix.

    The l_i are the decreasing square roots of the eigenvalues of
    rho (Y x Y) rho* (Y x Y).
    """
    r = np.asarray(rho, dtype=complex)
    if r.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got {r.shape}")
    if np.max(np.abs(r - r.conj().T)) > 1e-9:
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(r).real - 1.0) > 1e-9:
        raise ValueError(f"density matrix trace is {np.trace(r)}, expected 1")
    if float(np.min(np.linalg.eigvalsh(r))) < -1e-8:
        raise ValueError("density matrix has a significantly negative eigenvalue")
    flipped = _SPIN_FLIP @ r.conj() @ _SPIN_FLIP
    ev = np.linalg.eigvals(r @ flipped)
    lam = np.sqrt(np.clip(ev.real, 0.0, None))
    lam[::-1].sort()
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def _branch_displacements(omega: complex, s: float) -> list[np.ndarray]:
    """Each branch's displacement by pi_gamma * omega, one per distinct weight."""
    by_weight = {
        pi: displacement_matrix(ScsDirection.from_omega(pi * omega), s)
        for pi in set(DEVICE_PARITY.tolist())
    }
    return [by_weight[pi] for pi in DEVICE_PARITY.tolist()]


def _para_overlap_matrices(cfg: para_mod.ParaConfig, times):
    """Exact branch Gram matrix for the paramagnetic regime at each time.

    Branch ring states are products of identical spin-1/2 coherent states
    displaced by pi_gamma * l(t), l(t) = (g/h)(1 - e^(-i t h)); overlaps
    come from the Dicke summation with full phases and are raised to the
    ring power N.
    """
    for t in times:
        ht = np.multiply(cfg.h, t)
        ell = (cfg.g / cfg.h) * (1.0 - (np.cos(ht) - 1j * np.sin(ht)))
        vecs = [d[:, 0] for d in _branch_displacements(ell, 0.5)]
        yield np.array([[np.vdot(va, vb) ** cfg.n for vb in vecs] for va in vecs])


def _dia_overlap_matrices(cfg: dia_mod.DiaConfig, times):
    """Exact branch Gram matrix for the frozen-domain regime at each elapsed t.

    Every domain is evolved as a (2 S_d + 1)-dimensional Dicke-space vector:
    initial displacement (once per domain), branch displacement, and the
    field phase exp(i t h_t M) are all dense matrix operations, so composition
    phases survive into the Gram entries (they cancel only where they must).
    The branch displacement is f(t) = (g/h_t)(e^(i t h_t) - 1).
    """
    s_d = cfg.partition.s_d
    initial = [
        displacement_matrix(ScsDirection(theta, phi), s_d)[:, 0]
        for theta, phi in zip(cfg.ensemble.theta, cfg.ensemble.phi)
    ]
    for t in times:
        h_t = field_at(cfg.schedule, cfg.t0 + t)
        th = np.multiply(t, h_t)
        f = (cfg.g / h_t) * ((np.cos(th) - 1.0) + 1j * np.sin(th))
        field_phase = np.exp(1j * t * h_t * dicke_m_values(s_d))
        branches = [
            [field_phase * (rotor @ psi0) for psi0 in initial]
            for rotor in _branch_displacements(f, s_d)
        ]
        # the domain overlaps of each branch pair, multiplied in domain order
        yield np.array([
            [math.prod(map(np.vdot, a, b), start=1.0 + 0.0j) for b in branches]
            for a in branches
        ])


def closed_form_check(config, times) -> float:
    """Max |closed-form concurrence - Wootters-on-exact-overlaps| over a grid.

    The regime follows the config's type, a ParaConfig or a DiaConfig;
    anything else is a ValueError.  The oracle route never touches the
    closed-form angle algebra: it builds branch states by dense matrix
    exponentials, keeps every complex phase, and evaluates the concurrence
    from the Gram matrix of a Bell-state register, one time at a time.  The
    closed form is one call over the whole grid, as a one-config batch.
    """
    if isinstance(config, para_mod.ParaConfig):
        module, grams = para_mod, _para_overlap_matrices
    elif isinstance(config, dia_mod.DiaConfig):
        if config.partition.s_d > 60:
            raise ValueError(
                "dense Dicke-space oracle is limited to collective spins <= 60"
            )
        module, grams = dia_mod, _dia_overlap_matrices
    else:
        raise ValueError(
            f"expected a ParaConfig or a DiaConfig, got {type(config).__name__}"
        )
    times = np.asarray(times, dtype=float)
    bell = DeviceState.bell()
    worst = 0.0
    closed_forms = module.concurrences([config], times)[0]
    for closed, gram in zip(closed_forms.tolist(), grams(config, times.tolist())):
        rho = device_density_matrix(bell, gram)
        worst = max(worst, abs(closed - wootters_concurrence(rho)))
    return worst
