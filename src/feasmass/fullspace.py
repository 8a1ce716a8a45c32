"""Dense statevector simulation of generic QAOA on N = n**2 qubits.

States are plain 1-D complex ndarrays of length 2**N indexed by the integer
basis label (bit k of the label = qubit k).  Gate application mutates the
array in place and returns it; the state is exclusively owned while mutated.
complex128 is the default; complex64 halves the N = 25 state to 256 MiB.
The feasible mass after the X mixer needs only the mixer's one-hot rows
(mixed_feasible_mass), so a grid search mixes no state per point.  The cost
phase, the mixer, that projection, the sampler's CDF and norms work on
bounded chunks: none makes a full-state temporary or depends on the BLAS
thread count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import CapacityError, as_cost, feasible_indices, feasible_subspace_indices

MAX_FULL_QUBITS = 25
_CHUNK = 1 << 20
_FUSE = 5   # qubits per fused mixer block: 2**5 x 2**5 matmuls

_DTYPES = {"f64": np.complex128, "f32": np.complex64}


@dataclass(frozen=True)
class AngleSchedule:
    """Depth-p angle lists (gammas for cost phases, betas for mixers)."""

    gammas: tuple
    betas: tuple

    def __post_init__(self):
        g = tuple(float(x) for x in self.gammas)
        b = tuple(float(x) for x in self.betas)
        if len(g) != len(b) or not g:
            raise ValueError("gammas and betas must have equal positive length")
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "betas", b)

    @property
    def depth(self) -> int:
        return len(self.gammas)

    @classmethod
    def single(cls, gamma: float, beta: float) -> "AngleSchedule":
        return cls(gammas=(gamma,), betas=(beta,))


def init_plus(num_qubits: int, dtype=np.complex128) -> np.ndarray:
    """|+>^N : every amplitude 2**(-N/2)."""
    if num_qubits > MAX_FULL_QUBITS:
        raise CapacityError(f"full space capped at {MAX_FULL_QUBITS} qubits, got {num_qubits}")
    return np.full(1 << num_qubits, 2.0 ** (-num_qubits / 2), dtype=dtype)


def apply_cost_phase(state: np.ndarray, table: np.ndarray, gamma: float) -> np.ndarray:
    """Multiply amplitude y by exp(-i*gamma*table[y]), _CHUNK entries at a time.

    An integer table with fewer levels (max - min + 1) than entries has each
    level exponentiated once, into a table of phase factors gathered per
    chunk; complex exp is elementwise, so both paths give the same bits.
    """
    if table.shape != state.shape:
        raise ValueError("cost table length does not match state size")
    levels = None
    if np.issubdtype(table.dtype, np.integer):
        low, high = int(table.min()), int(table.max())
        if high - low + 1 < table.size:
            levels = np.empty(high - low + 1, dtype=state.dtype)
            for lo in range(low, high + 1, _CHUNK):
                m = np.arange(lo, min(lo + _CHUNK, high + 1), dtype=np.int64)
                phase = (-1j * gamma) * m
                levels[lo - low:lo - low + _CHUNK] = np.exp(phase, out=phase)
    for lo in range(0, state.shape[0], _CHUNK):
        hi = lo + _CHUNK
        if levels is None:
            phase = (-1j * gamma) * table[lo:hi]
            state[lo:hi] *= np.exp(phase, out=phase).astype(state.dtype, copy=False)
        else:
            state[lo:hi] *= levels[table[lo:hi] - low]
    return state


def _block_rotation(beta: float, num_bits: int, dtype) -> np.ndarray:
    """R(beta)^{(x) num_bits}, R = [[cos b, -i sin b], [-i sin b, cos b]], by
    Kronecker products (independent of mixer_kernel_rows); it is symmetric."""
    c, ms = math.cos(beta), -1j * math.sin(beta)
    out = np.ones((1, 1))
    for _ in range(num_bits):
        out = np.kron(out, [[c, ms], [ms, c]])
    return out.astype(dtype)


def apply_x_mixer(state: np.ndarray, beta: float) -> np.ndarray:
    """exp(-i*beta*X) on every qubit, fused into blocks of _FUSE qubits.

    Qubits [q, q+k) are mixed by one matmul with R(beta)^{(x)k} on the
    (-1, 2**k, 2**q) view of the state, or by (-1, 2**k) @ U when q = 0;
    the last block is smaller when _FUSE does not divide N.  Each matmul
    covers at most about _CHUNK amplitudes, so no full-state temporary is
    made.  BLAS rounds by matmul shape, so the bits depend on _CHUNK through
    the q = 0 row count (_CHUNK >> k), though not on the thread count.  N
    comes from the last axis, so a C-contiguous (rows, 2**N) batch is mixed
    row by row: no view straddles a row boundary.  For N > _FUSE the batch
    equals row-by-row mixing bit for bit; for N <= _FUSE a lone row is
    a vector-matrix product and may differ from its batch at round-off.
    """
    num_qubits = int(math.log2(state.shape[-1]))
    for q in range(0, num_qubits, _FUSE):
        k = min(_FUSE, num_qubits - q)
        u = _block_rotation(beta, k, state.dtype)
        if q == 0:
            v = state.reshape(-1, 1 << k)
            step = max(1, _CHUNK >> k)
            for lo in range(0, v.shape[0], step):
                v[lo:lo + step] = v[lo:lo + step] @ u
            continue
        v = state.reshape(-1, 1 << k, 1 << q)
        step = max(1, _CHUNK >> (k + q))
        width = max(1, min(1 << q, _CHUNK >> k))
        for lo in range(0, v.shape[0], step):
            for col in range(0, 1 << q, width):
                blk = v[lo:lo + step, :, col:col + width]
                blk[...] = u @ blk
    return state


def mixer_kernel_rows(rows: np.ndarray, beta: float, num_bits: int) -> np.ndarray:
    """Closed-form product-mixer elements (cos b)^(N-d) (-i sin b)^d, d the
    Hamming distance, for the given row labels against every column."""
    cols = np.arange(1 << num_bits, dtype=np.int64)
    d = np.bitwise_count(np.bitwise_xor.outer(rows.astype(np.int64), cols))
    return (math.cos(beta) ** (num_bits - d)) * ((-1j * math.sin(beta)) ** d)


def run_generic(instance, schedule: AngleSchedule, precision: str = "f64") -> np.ndarray:
    """Depth-p generic QAOA: alternate cost phase and X mixer from |+>^N."""
    cost = as_cost(instance)
    table = cost.cost_vector()
    state = init_plus(cost.num_qubits, dtype=_DTYPES[precision])
    for gamma, beta in zip(schedule.gammas, schedule.betas):
        apply_cost_phase(state, table, gamma)
        apply_x_mixer(state, beta)
    return state


def feasible_mass(state: np.ndarray, n: int) -> float:
    """Total probability on the n! permutation labels."""
    idx = feasible_indices(n)
    return float(np.sum(np.abs(state[idx]) ** 2))


def mixed_feasible_mass(state: np.ndarray, beta: float, n: int) -> float:
    """feasible_mass(apply_x_mixer(state.copy(), beta), n) without the mixer.

    Only the n one-hot rows of R(beta)^{(x)n} reach a feasible row.  Each row
    block in turn, the contiguous one first, meets that n x 2**n slice in
    matmuls under 2**16 multiply-adds (OpenBLAS runs those on one thread),
    and its n results go first, so the next row is contiguous.  Row 0 ends
    least significant in the n**n result; digit reversal maps permutations
    onto themselves, so the manifold's index map picks the n! amplitudes.
    """
    s = mixer_kernel_rows(1 << np.arange(n), beta, n).astype(state.dtype).T
    step = max(1, ((1 << 16) - 1) // (n << n))
    t = state
    for _ in range(n):
        v = t.reshape(-1, 1 << n)
        t = np.empty((n, v.shape[0]), dtype=state.dtype)
        for lo in range(0, v.shape[0], step):
            t[:, lo:lo + step] = (v[lo:lo + step] @ s).T
    return float(np.sum(np.abs(t.reshape(-1)[feasible_subspace_indices(n)]) ** 2))


def fourth_moment(state: np.ndarray) -> float:
    """sum_x |amps[x]|**4."""
    total = 0.0
    for lo in range(0, state.shape[0], _CHUNK):
        a = np.abs(state[lo:lo + _CHUNK]) ** 2
        total += float(np.sum(a * a))
    return total


def sample_counts(state: np.ndarray, shots: int, seed: int) -> tuple:
    """Inverse-CDF sampling with a counter-based (Philox) generator.

    Deterministic for a given seed across runs and platforms; returns the
    labels that occurred, ascending, and their counts, as int64 arrays.
    The uniforms are sorted, so each _CHUNK slice of the CDF, accumulated in
    place from the running total of the slices before it, serves the run of
    uniforms that falls in it.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    size = state.shape[0]
    u = np.random.Generator(np.random.Philox(seed)).random(shots)
    u.sort()
    idx = np.empty(shots, dtype=np.int64)
    cdf = np.empty(min(_CHUNK, size), dtype=np.float64)
    total, start = 0.0, 0
    for lo in range(0, size, _CHUNK):
        if start == shots:
            break
        c = cdf[:size - lo]
        c[:] = np.abs(state[lo:lo + _CHUNK]) ** 2
        c[0] += total
        np.cumsum(c, out=c)
        total = c[-1]
        if lo + _CHUNK >= size:
            c[-1] = 1.0
        stop = start + int(np.searchsorted(u[start:], c[-1], side="left"))
        idx[start:stop] = lo + np.searchsorted(c, u[start:stop], side="right")
        start = stop
    labels, counts = np.unique(idx, return_counts=True)
    return labels, counts


def norm_squared(state: np.ndarray) -> float:
    """sum_x |amps[x]|**2, summed chunk by chunk in a fixed order, so the
    result does not depend on the BLAS thread count (np.vdot's does)."""
    total = 0.0
    for lo in range(0, state.shape[0], _CHUNK):
        total += float(np.sum(np.abs(state[lo:lo + _CHUNK]) ** 2))
    return total
