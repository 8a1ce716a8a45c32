"""Dense statevector simulation of generic QAOA on N = n**2 qubits.

States are plain 1-D complex ndarrays of length 2**N indexed by the integer
basis label (bit k of the label = qubit k).  Gate application mutates the
array in place and returns it; the state is exclusively owned while mutated.
Double precision is the default; complex64 halves the N = 25 state to
256 MiB (a whole `run hist` on wi5 in f32 peaks near 936 MiB, see README).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import CapacityError, as_cost, feasible_indices

MAX_FULL_QUBITS = 25
_CHUNK = 1 << 20

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
    """Multiply amplitude y by exp(-i*gamma*table[y]); chunked to bound temporaries."""
    if table.shape != state.shape:
        raise ValueError("cost table length does not match state size")
    for lo in range(0, state.shape[0], _CHUNK):
        hi = lo + _CHUNK
        phase = np.exp((-1j * gamma) * table[lo:hi])
        state[lo:hi] *= phase.astype(state.dtype, copy=False)
    return state


def apply_x_mixer(state: np.ndarray, beta: float) -> np.ndarray:
    """exp(-i*beta*X) on every qubit, as N stride-2**q butterfly passes.

    N comes from the last axis, so a C-contiguous (rows, 2**N) batch is mixed
    row by row: the (-1, 2, 2**q) view never straddles a row boundary.
    """
    num_qubits = int(math.log2(state.shape[-1]))
    c = state.dtype.type(math.cos(beta))
    ms = state.dtype.type(-1j * math.sin(beta))
    for q in range(num_qubits):
        v = state.reshape(-1, 2, 1 << q)
        a0 = v[:, 0, :].copy()
        v[:, 0, :] = c * a0 + ms * v[:, 1, :]
        v[:, 1, :] = ms * a0 + c * v[:, 1, :]
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


def fourth_moment(state: np.ndarray) -> float:
    """sum_x |amps[x]|**4."""
    total = 0.0
    for lo in range(0, state.shape[0], _CHUNK):
        a = np.abs(state[lo:lo + _CHUNK]) ** 2
        total += float(np.sum(a * a))
    return total


def probabilities(state: np.ndarray) -> np.ndarray:
    out = np.empty(state.shape[0], dtype=np.float64)
    for lo in range(0, state.shape[0], _CHUNK):
        out[lo:lo + _CHUNK] = np.abs(state[lo:lo + _CHUNK]) ** 2
    return out


def sample_counts(state: np.ndarray, shots: int, seed: int) -> dict:
    """Inverse-CDF sampling with a counter-based (Philox) generator.

    Deterministic for a given seed across runs and platforms; returns a
    {label: count} dict over the labels that occurred.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if shots == 0:
        return {}
    cdf = np.cumsum(probabilities(state))
    cdf[-1] = 1.0
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.random(shots)
    idx = np.searchsorted(cdf, u, side="right")
    labels, counts = np.unique(idx, return_counts=True)
    return {int(l): int(c) for l, c in zip(labels, counts)}


def norm_error(state: np.ndarray) -> float:
    total = 0.0
    for lo in range(0, state.shape[0], _CHUNK):
        total += float(np.vdot(state[lo:lo + _CHUNK], state[lo:lo + _CHUNK]).real)
    return abs(1.0 - total)
