"""The spin-1/2 ring: its Hamiltonian, lowest eigenpairs and exact dynamics.

The ring alone serves the sampler's magnetization lookup; the ring coupled
to the register serves the exact-dynamics oracle.

The total Hamiltonian couples a two-qubit register (A, B) to a periodic
chain of N spin-1/2 sites:

    H = H_ring(h) - (g/2) (sz_A + sz_B) sum_i (s+_i + s-_i),
    H_ring(h) = - sum_i sx_i sx_(i+1) - h sum_i sz_i,

with spin-1/2 operators (Pauli/2) and site N+1 identified with site 1.
Because H commutes with both register sz operators, it is block diagonal
over the register basis |00>, |01>, |10>, |11> with parity weights
pi = (+1, 0, 0, -1):

    H_block(pi) = H_ring(h) - 2 g pi sum_i sx_i.

Everything here is assembled from that block structure; matrices are real
in the computational basis.  Intended for N up to 12 as an oracle, not for
production-size rings.  The ring Hamiltonian, which also serves the
magnetization lookup at up to 16 sites, is built at each call straight into
canonical CSR from one table of bit flips, laid out as scipy's sparse
algebra lays it out, and nothing is cached.  Its lowest eigenpairs, for the
lookup and for the oracle's ring ground state alike, come from one sparse
route, `lowest_eigenpairs`, at every ring size.  scipy is imported by the
functions that use it, at their first call, so importing this module loads
numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StepControlError
from .scaling import QuenchSchedule, field_at

__all__ = [
    "HamiltonianSpec",
    "RingGroundState",
    "DEVICE_PARITY",
    "ring_hamiltonian",
    "lowest_eigenpairs",
    "magnetization_diagonal",
    "build_hamiltonian",
    "ground_state_ring",
    "propagate",
    "reduced_device_state",
    "device_states_constant_field",
]

MAX_RING_SITES = 16
MAX_ORACLE_SITES = 12

# Register-parity weights over the basis |00>, |01>, |10>, |11>.
DEVICE_PARITY = np.array([1.0, 0.0, 0.0, -1.0])


@dataclass(frozen=True)
class HamiltonianSpec:
    """Ring size, register coupling, and field source for the oracle.

    `field` is either a constant or a :class:`QuenchSchedule` evaluated on
    the absolute quench clock.  The ring is always periodic.
    """

    n: int
    g: float
    field: float | QuenchSchedule

    def __post_init__(self) -> None:
        if not (2 <= self.n <= MAX_ORACLE_SITES):
            raise ConfigError(
                f"oracle ring size must satisfy 2 <= n <= {MAX_ORACLE_SITES}, "
                f"got n={self.n}"
            )
        if not isinstance(self.field, QuenchSchedule):
            h = float(self.field)
            if not math.isfinite(h):
                raise ConfigError("constant field must be finite")


def field_value(spec: HamiltonianSpec, t: float) -> float:
    """Instantaneous field for the given spec at absolute time t."""
    if isinstance(spec.field, QuenchSchedule):
        return field_at(spec.field, t)
    return float(spec.field)


def _bit_count(n: int) -> np.ndarray:
    """Popcount of every basis index of an n-site register."""
    idx = np.arange(1 << n, dtype=np.int64)
    counts = np.zeros(1 << n, dtype=np.int64)
    for bit in range(n):
        counts += (idx >> bit) & 1
    return counts


def magnetization_diagonal(n: int) -> np.ndarray:
    """Diagonal of sum_i sz_i in the computational basis (bit 0 = up = +1/2)."""
    if not (1 <= n <= MAX_RING_SITES):
        raise ConfigError(f"ring size must satisfy 1 <= n <= {MAX_RING_SITES}")
    return 0.5 * (n - 2 * _bit_count(n)).astype(float)


def _flip_operator(n: int, masks, off: float, diag) -> tuple[np.ndarray, ...]:
    """Canonical CSR arrays (data, indices, indptr) of the operator that
    takes basis index i to i ^ mask with weight `off`, for each mask, and to
    itself with weight diag[i].

    One field-independent flip table, each row the index and its flips
    sorted as int32: the layout scipy's sparse algebra gives, so a matvec
    sums every row in the same order.  Zero entries are left out.
    """
    idx = np.arange(1 << n, dtype=np.int32)
    cols = idx[:, None] ^ np.array([0, *masks], dtype=np.int32)
    cols.sort(axis=1)
    vals = np.where(cols == idx[:, None], np.expand_dims(diag, -1), off)
    keep = vals != 0
    indptr = np.zeros((1 << n) + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return vals[keep], cols[keep], indptr


def _ring_arrays(n: int, h: float) -> tuple[np.ndarray, ...]:
    """CSR arrays of - sum_i sx_i sx_(i+1) - h sum_i sz_i (bonds -1/4 each)."""
    if not (2 <= n <= MAX_RING_SITES):
        raise ConfigError(f"ring size must satisfy 2 <= n <= {MAX_RING_SITES}")
    # the 2-site ring's two bonds flip the same pair, so they sum
    off = -0.5 if n == 2 else -0.25
    masks = {(1 << i) | (1 << ((i + 1) % n)) for i in range(n)}
    return _flip_operator(n, masks, off, 0.0 - h * magnetization_diagonal(n))  # as scipy forms it


def _transverse_matrix(n: int) -> sp.csr_matrix:
    """sum_i sx_i (entries +1/2, single bit flipped)."""
    import scipy.sparse as sp

    arrays = _flip_operator(n, [1 << i for i in range(n)], 0.5, 0.0)
    return sp.csr_matrix(arrays, shape=(1 << n, 1 << n))


def ring_hamiltonian(n: int, h: float) -> sp.csr_matrix:
    """Sparse ring Hamiltonian - sum sx sx - h sum sz on n periodic sites."""
    arrays = _ring_arrays(n, h)
    import scipy.sparse as sp

    return sp.csr_matrix(arrays, shape=(1 << n, 1 << n))


def lowest_eigenpairs(ham: sp.csr_matrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenvalues of a sparse ring Hamiltonian, ascending, and
    their eigenvectors as columns.

    Lanczos (eigsh) from the uniform start vector, which keeps repeated runs
    bit-identical.
    """
    from scipy.sparse.linalg import eigsh

    dim = ham.shape[0]
    start = np.full(dim, 1.0 / math.sqrt(dim))
    vals, vecs = eigsh(ham, k=k, which="SA", v0=start)
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _block_hamiltonian(spec: HamiltonianSpec, parity: float, h: float) -> sp.csr_matrix:
    return (ring_hamiltonian(spec.n, h) - 2.0 * spec.g * parity * _transverse_matrix(spec.n)).tocsr()


def _full_sparse(spec: HamiltonianSpec, h: float) -> sp.csr_matrix:
    import scipy.sparse as sp

    blocks = [_block_hamiltonian(spec, pi, h) for pi in DEVICE_PARITY]
    return sp.block_diag(blocks, format="csr")


def build_hamiltonian(spec: HamiltonianSpec, t: float = 0.0) -> np.ndarray:
    """Dense H(t) on the 4 * 2^n product space (register major, ring minor)."""
    return _full_sparse(spec, field_value(spec, t)).toarray()


@dataclass(frozen=True)
class RingGroundState:
    """Ground state of the ring sector; `degenerate` flags a closed gap."""

    vector: np.ndarray
    energy: float
    degenerate: bool


def ground_state_ring(spec: HamiltonianSpec, t: float = 0.0) -> RingGroundState:
    """Ground state of H_ring(h(t)) on 2^n dimensions.

    For a (numerically) degenerate ground doublet, returns the combination
    of even parity under prod_i (2 sz_i), which is the symmetric one, and
    sets the flag.
    """
    (e0, e1), vecs = lowest_eigenpairs(ring_hamiltonian(spec.n, field_value(spec, t)), 2)
    v0, v1 = vecs.T
    gap = e1 - e0
    degenerate = gap <= 1e-10 * max(1.0, abs(e0))
    if degenerate:
        parity = 1.0 - 2.0 * (_bit_count(spec.n) % 2).astype(float)
        cands = [0.5 * (v + parity * v) for v in (v0, v1)]
        norms = [np.linalg.norm(c) for c in cands]
        best = cands[int(np.argmax(norms))]
        vector = best / np.linalg.norm(best)
    else:
        vector = v0
    return RingGroundState(vector=vector.astype(complex), energy=float(e0),
                           degenerate=bool(degenerate))


def propagate(
    state,
    spec: HamiltonianSpec,
    t_span: tuple[float, float],
    dt: float,
    step_tol: float = 1e-8,
    check_step: bool = True,
) -> np.ndarray:
    """Evolve a full-space state from t_span[0] to t_span[1] in steps of dt.

    Each step applies the exact propagator of H frozen at the step midpoint
    (Krylov series through expm_multiply), so constant fields are integrated
    exactly regardless of dt.  With check_step the run is repeated at dt/2;
    if the two final states differ by more than step_tol in norm the step is
    too coarse and StepControlError is raised, otherwise the finer result is
    returned.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    psi0 = np.asarray(state, dtype=complex).ravel()
    dim = 4 * (1 << spec.n)
    if psi0.shape != (dim,):
        raise ValueError(f"state has {psi0.shape[0]} components, expected {dim}")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("state must be normalized")
    if dt <= 0:
        raise ValueError(f"step must be positive, got dt={dt}")
    t_start, t_end = float(t_span[0]), float(t_span[1])
    if t_end < t_start:
        raise ValueError("t_span must be ordered")

    offdiag = _full_sparse(spec, 0.0).astype(complex)
    z_full = np.tile(magnetization_diagonal(spec.n), 4)

    def run(step: float) -> np.ndarray:
        psi = psi0.copy()
        t = t_start
        while t < t_end - 1e-15:
            this = min(step, t_end - t)
            h_mid = field_value(spec, t + 0.5 * this)
            ham = offdiag - h_mid * sp.diags(z_full)
            psi = expm_multiply(-1j * this * ham, psi)
            t += this
        return psi

    coarse = run(dt)
    if not check_step:
        return coarse
    fine = run(0.5 * dt)
    drift = float(np.linalg.norm(coarse - fine))
    if drift >= step_tol:
        raise StepControlError(
            f"halving dt={dt} moved the final state by {drift:.3e} "
            f"(tolerance {step_tol:.1e}); use a smaller step"
        )
    return fine


def reduced_device_state(state) -> np.ndarray:
    """4x4 register density matrix from a full-space pure state (ring traced out)."""
    psi = np.asarray(state, dtype=complex).ravel()
    if psi.size % 4 != 0:
        raise ValueError("state size is not a multiple of the register dimension")
    m = psi.reshape(4, -1)
    return m @ m.conj().T


def device_states_constant_field(
    spec: HamiltonianSpec, device_amplitudes, ring_state, times
) -> np.ndarray:
    """Full-space states at many times for a constant field, one eigh per block.

    Exploits the register-parity block structure: each 2^n block is
    diagonalized once and then evaluated at every requested time, which
    makes dense traces cheap.  Times are absolute on the quench clock only
    in the sense that a constant field has no clock; they are durations
    from the initial state.
    """
    if isinstance(spec.field, QuenchSchedule):
        raise ConfigError("constant-field trace requires a constant field spec")
    h = float(spec.field)
    d = np.asarray(device_amplitudes, dtype=complex).reshape(4)
    r = np.asarray(ring_state, dtype=complex).ravel()
    if r.shape != (1 << spec.n,):
        raise ValueError("ring state has the wrong dimension")
    times = np.asarray(times, dtype=float)
    out = np.empty((times.size, 4 * r.size), dtype=complex)
    eig_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    for a, pi in enumerate(DEVICE_PARITY):
        if pi not in eig_cache:
            dense = _block_hamiltonian(spec, pi, h).toarray()
            eig_cache[pi] = np.linalg.eigh(dense)
        vals, vecs = eig_cache[pi]
        coeff = vecs.T @ (d[a] * r)
        phases = np.exp(-1j * np.outer(times, vals))
        out[:, a * r.size : (a + 1) * r.size] = (phases * coeff) @ vecs.T
    return out
