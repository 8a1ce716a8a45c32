"""Brute-force reference implementations for closed forms in ``feasmass``.

Each oracle computes its quantity from the definition, the slow way, so the
closed forms in ``src`` are compared against something they do not share.
"""
import itertools
import math

import numpy as np

from feasmass.fullspace import apply_x_mixer, fourth_moment, mixer_kernel_rows
from feasmass.instance import CapacityError, feasible_indices
from feasmass.subspace import block_mixer_eigenvalues, subspace_to_full_labels

MAX_EMBED_SIZE = 4   # embedding needs the 2**(n*n) space too


def pauli_block_sector(n: int, normalized: bool) -> np.ndarray:
    """Single-excitation sector of sum_{a<b} (X_a X_b + Y_a Y_b), restricted
    from the dense 2**n Pauli sum (qubit 0 = least significant bit)."""
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    dim = 1 << n
    H = np.zeros((dim, dim), dtype=np.complex128)

    def one_site(op, q):
        out = np.eye(1)
        for k in range(n):
            out = np.kron(op if k == q else np.eye(2), out)
        return out

    for a in range(n):
        for b in range(a + 1, n):
            H += one_site(X, a) @ one_site(X, b) + one_site(Y, a) @ one_site(Y, b)
    if normalized:
        H /= (n - 1)
    weight1 = [1 << j for j in range(n)]
    return H[np.ix_(weight1, weight1)].real.copy()


def block_mixer_unitary(n: int, beta: float, normalized: bool = True) -> np.ndarray:
    """Dense n x n sector unitary (for oracle comparisons)."""
    lam_u, lam_p = block_mixer_eigenvalues(n, normalized)
    proj = np.full((n, n), 1.0 / n)
    return (np.exp(-1j * beta * lam_p) * (np.eye(n) - proj)
            + np.exp(-1j * beta * lam_u) * proj)


def embed_to_full(state: np.ndarray, n: int) -> np.ndarray:
    """Copy amplitudes to their bijective full-space labels, zero elsewhere."""
    if n > MAX_EMBED_SIZE:
        raise CapacityError(f"embedding capped at n={MAX_EMBED_SIZE}")
    full = np.zeros(1 << (n * n), dtype=np.complex128)
    full[subspace_to_full_labels(n)] = state
    return full


def enumerated_twirl(state: np.ndarray, target) -> tuple:
    """(mean, max) of |<target|P|state>|^2 over all (n!)**n blockwise
    relabelings P, each applied to the state by moving its amplitudes."""
    n = len(target)
    if n > 3:
        raise ValueError("relabeling enumeration is capped at n=3")
    arr = np.asarray(state).reshape([n] * n)
    probs = []
    for combo in itertools.product(itertools.permutations(range(n)), repeat=n):
        moved = arr
        for axis, perm in enumerate(combo):
            # the amplitude at symbol j moves to symbol perm[j]
            moved = np.take(moved, np.argsort(perm), axis=axis)
        probs.append(abs(moved[tuple(target)]) ** 2)
    return float(np.mean(probs)), float(max(probs))


def parse_bitstring(s: str) -> int:
    """Basis label with bit k set where character k is '1' (left to right)."""
    return sum(1 << k for k, ch in enumerate(s) if ch == "1")


def bits_to_matrix(x: int, n: int) -> np.ndarray:
    """The n x n 0/1 matrix of a label: entry (i, j) is bit i*n + j."""
    return np.array([[(x >> (i * n + j)) & 1 for j in range(n)] for i in range(n)],
                    dtype=np.int64)


def is_permutation_feasible(x: int, n: int) -> bool:
    """True iff every row and every column of the n x n bit matrix sums to 1,
    by row masks (independent of bits_to_matrix)."""
    row_mask = (1 << n) - 1
    cols = 0
    for i in range(n):
        row = (x >> (i * n)) & row_mask
        if row.bit_count() != 1 or cols & row:
            return False
        cols |= row
    return cols == row_mask


def inverse_walsh_transform(spectrum) -> np.ndarray:
    """f(x) = sum_S f_hat(S) (-1)**|S & x|, as one dense character matrix."""
    spec = np.asarray(spectrum, dtype=np.complex128)
    labels = np.arange(spec.shape[0])
    signs = 1.0 - 2.0 * (np.bitwise_count(np.bitwise_and.outer(labels, labels)) & 1)
    return signs @ spec


def tuple_to_label(symbols, n: int) -> int:
    """Full-space basis label with bit b*n + j_b set per block."""
    return sum(1 << (b * n + int(j)) for b, j in enumerate(symbols))


def broadcast_dense_cost(n, dist, A, include_penalty, dtype):
    """Dense cost table from one int64 [2**n]*n tensor, one broadcast term
    at a time, cast to ``dtype`` at the end."""
    # One axis per row block, axis k holding row (n-1-k) so that C-order
    # flattening reproduces the integer label y = sum_i r_i << (i*n).
    m = 1 << n
    bits = ((np.arange(m)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int64)
    popc = bits.sum(axis=1)
    row_pen = (popc - 1) ** 2
    and_popc = bits @ bits.T
    tour = bits @ np.asarray(dist, dtype=np.int64) @ bits.T

    def on_row(vec1d, i):
        shape = [1] * n
        shape[n - 1 - i] = m
        return vec1d.reshape(shape)

    def on_pair(mat, i, j):
        # mat is indexed [r_i, r_j]; C-order reshape feeds the lower axis first
        ai, aj = n - 1 - i, n - 1 - j
        shape = [1] * n
        shape[ai] = m
        shape[aj] = m
        return mat.reshape(shape) if ai < aj else mat.T.reshape(shape)

    total = np.zeros([m] * n, dtype=np.int64)
    if include_penalty:
        for i in range(n):
            total += A * on_row(row_pen, i)
        # column part: A * (n - sum_i |r_i| + 2 sum_{i<i'} |r_i & r_i'|)
        total += A * n
        for i in range(n):
            total -= A * on_row(popc, i)
        for i in range(n):
            for j in range(i + 1, n):
                total += 2 * A * on_pair(and_popc, i, j)
    for t in range(n):
        total += on_pair(tour, t, (t + 1) % n)
    return total.reshape(-1).astype(dtype, copy=False)


def cumsum_copy_sample_counts(state: np.ndarray, shots: int, seed: int) -> dict:
    """Inverse-CDF sampling through a separate cumulative-sum array."""
    cdf = np.cumsum((np.abs(state) ** 2).astype(np.float64))
    cdf[-1] = 1.0
    u = np.random.Generator(np.random.Philox(seed)).random(shots)
    labels, counts = np.unique(np.searchsorted(cdf, u, side="right"), return_counts=True)
    return {int(l): int(c) for l, c in zip(labels, counts)}


def phase_matmul_lattice_masses(cost, betas, L=None, tie_break=True) -> np.ndarray:
    """Feasible mass at every gamma_k = 2 pi k / L from the phase matrix
    exp(-2 pi i k h_y / L), gathered from a table of L roots of unity and
    multiplied into the kernel columns, 2**22 phases at a time."""
    n = cost.n
    N = cost.num_qubits
    scalar = np.isscalar(betas)
    beta_list = [float(betas)] if scalar else [float(b) for b in betas]
    h = cost.tie_broken_vector() if tie_break else cost.cost_vector().astype(np.int64)
    h = h - h.min()
    if L is None:
        L = int(h.max()) + 1
    rows = feasible_indices(n)
    nfeas = len(rows)
    B = np.concatenate([mixer_kernel_rows(rows, b, N).T for b in beta_list],
                       axis=1) * 2.0 ** (-N / 2)
    roots = np.exp((-2j * math.pi / L) * np.arange(L))
    masses = np.empty((len(beta_list), L), dtype=np.float64)
    chunk = max(1, (1 << 22) // (1 << N))
    for lo in range(0, L, chunk):
        ks = np.arange(lo, min(lo + chunk, L), dtype=np.int64)
        units = (ks[:, None] * h[None, :]) % L
        amps = roots[units] @ B
        p = np.abs(amps) ** 2
        for bi in range(len(beta_list)):
            masses[bi, lo:lo + len(ks)] = p[:, bi * nfeas:(bi + 1) * nfeas].sum(axis=1)
    return masses[0] if scalar else masses


def phase_block_l4_means(cost, betas, L) -> list:
    """Grid mean of sum_x |a_x|**4 over gamma_k = 2 pi k / L per beta, from
    (angles x 2**N) phase blocks of the raw lattice costs run through the
    batched X mixer, 2**22 amplitudes at a time."""
    N = cost.num_qubits
    h = cost.cost_vector().astype(np.int64)
    h = h - h.min()
    ks = np.arange(L, dtype=np.int64)
    means = []
    for beta in betas:
        total = 0.0
        chunk = max(1, (1 << 22) // (1 << N))
        for lo in range(0, L, chunk):
            kb = ks[lo:lo + chunk]
            units = (kb[:, None] * h[None, :]) % L
            amps = np.exp((-2j * math.pi / L) * units) * 2.0 ** (-N / 2)
            apply_x_mixer(amps, beta)
            total += fourth_moment(amps)
        means.append(total / L)
    return means
