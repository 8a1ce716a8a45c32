"""Brute-force reference implementations for closed forms in ``feasmass``.

Each oracle computes its quantity from the definition, the slow way, so the
closed forms in ``src`` are compared against something they do not share.
"""
import functools
import itertools
import math

import numpy as np

from feasmass.experiments import _smooth_length
from feasmass.fullspace import apply_x_mixer, cost_levels, mixer_kernel_rows
from feasmass.instance import CapacityError, feasible_indices, feasible_subspace_indices
from feasmass.subspace import (apply_block_xy_mixer, apply_subspace_cost_phase,
                               block_mixer_eigenvalues, init_w_product, subspace_cost_table,
                               subspace_feasible_mass, subspace_to_full_labels)

MAX_EMBED_SIZE = 4   # embedding needs the 2**(n*n) space too


def kron_mixer(beta: float, num_bits: int) -> np.ndarray:
    """R(beta)^{(x) num_bits}, R = [[cos b, -i sin b], [-i sin b, cos b]], by
    Kronecker products (independent of mixer_kernel_rows)."""
    c, ms = math.cos(beta), -1j * math.sin(beta)
    out = np.ones((1, 1))
    for _ in range(num_bits):
        out = np.kron(out, [[c, ms], [ms, c]])
    return out


def mp_phases(values, gamma: float) -> np.ndarray:
    """exp(-i*gamma*c) per value c at 40 digits (mpmath, exact int or float c and gamma),
    rounded once to complex128: the cost phase's oracle.  One evaluation per distinct value."""
    import mpmath
    distinct, inverse = np.unique(np.asarray(values), return_inverse=True)
    exact = int if distinct.dtype.kind in "iu" else float
    with mpmath.workdps(40):
        g = mpmath.mpf(float(gamma))
        phases = np.array([complex(mpmath.expj(-g * mpmath.mpf(exact(v)))) for v in distinct],
                          dtype=np.complex128)
    return phases[inverse].reshape(np.shape(values))


def phase_error(got: np.ndarray, state: np.ndarray, values, gamma: float) -> float:
    """Largest |got - state * exp(-i*gamma*c)| / |state| over entries, against mp_phases."""
    want = state.astype(np.complex128) * mp_phases(values, gamma)
    return float(np.max(np.abs(got.astype(np.complex128) - want) / np.abs(state)))


def cost_value(cost, y: int) -> int:
    """Cost of one label by bit arithmetic over rows and columns; exact integer."""
    n = cost.n
    row_mask = (1 << n) - 1
    rows = [(y >> (i * n)) & row_mask for i in range(n)]
    value = 0
    if cost.include_penalty:
        pen = sum((r.bit_count() - 1) ** 2 for r in rows)
        for j in range(n):
            col = sum((r >> j) & 1 for r in rows)
            pen += (col - 1) ** 2
        value += cost.penalty_weight * pen
    d = cost.dist
    for t in range(n):
        rt, rt1 = rows[t], rows[(t + 1) % n]
        for u in range(n):
            if not (rt >> u) & 1:
                continue
            for v in range(n):
                if (rt1 >> v) & 1:
                    value += int(d[u, v])
    return value


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


def block_mixer_sector(n: int, normalized: bool) -> np.ndarray:
    """Single-excitation sector of sum_{a<b} (X_a X_b + Y_a Y_b) on one block:
    each term hops the excitation with amplitude 2, so 2(J - I) [/(n-1)]."""
    scale = 1.0 / (n - 1) if normalized else 1.0
    return (2.0 * scale) * (np.ones((n, n)) - np.eye(n))


def subspace_mixer_hamiltonian(n: int) -> np.ndarray:
    """Unnormalized block mixer on the n**n manifold: the Kronecker sum of
    the block sectors."""
    if n > 3:
        raise CapacityError("dense subspace operator capped at n=3")
    sector = block_mixer_sector(n, normalized=False)
    H = np.zeros((n ** n, n ** n))
    for b in range(n):
        H += functools.reduce(np.kron, [sector if k == b else np.eye(n) for k in range(n)])
    return H


def dense_leakage_gram(n: int) -> np.ndarray:
    """2 P H (I-P) H P on the manifold from the dense Hamiltonian, P the
    projector onto the all-distinct tuples."""
    H = subspace_mixer_hamiltonian(n)
    P = np.zeros((n ** n, n ** n))
    P[feasible_subspace_indices(n), feasible_subspace_indices(n)] = 1.0
    return 2.0 * P @ H @ (np.eye(n ** n) - P) @ H @ P


def block_mixer_unitary(n: int, beta: float, normalized: bool = True) -> np.ndarray:
    """Dense n x n sector unitary (for oracle comparisons)."""
    lam_u, lam_p = block_mixer_eigenvalues(n, normalized)
    proj = np.full((n, n), 1.0 / n)
    return (np.exp(-1j * beta * lam_p) * (np.eye(n) - proj)
            + np.exp(-1j * beta * lam_u) * proj)


def axiswise_block_mixer(state: np.ndarray, n: int, beta: float,
                         normalized: bool = True) -> np.ndarray:
    """The block mixer on one whole n**n state, one block axis after another
    (axis 0 first), each as one mean and two whole-array updates: the
    per-element operations of the batched kernel, in its order, unchunked."""
    lam_u, lam_p = block_mixer_eigenvalues(n, normalized)
    eu = complex(np.exp(-1j * beta * lam_u))
    ep = complex(np.exp(-1j * beta * lam_p))
    arr = state.reshape([n] * n)
    for axis in range(n):
        m = np.add.reduce(arr, axis, keepdims=True) / n
        arr *= ep
        arr += (eu - ep) * m
    return state


def per_state_depth_walk(cost, p_max: int, grid, normalized: bool) -> list:
    """(best mass, angles) per depth 1..p_max by the depth-first walk over
    single states: each gamma phases a copy of its parent, each beta mixes a
    copy of that and takes its feasible mass; the first maximum in grid order
    wins."""
    levels = cost_levels(subspace_cost_table(cost))
    gammas, betas = grid.axes()
    best = [(-1.0, None)] * p_max

    def walk(parent, prefix):
        for g in gammas:
            phased = apply_subspace_cost_phase(parent.copy(), levels, g)
            for b in betas:
                state = apply_block_xy_mixer(phased.copy(), cost.n, b, normalized)
                angles = prefix + ((g, b),)
                mass = subspace_feasible_mass(state)
                if mass > best[len(angles) - 1][0]:
                    best[len(angles) - 1] = (mass, angles)
                if len(angles) < p_max:
                    walk(state, angles)

    walk(init_w_product(cost.n), ())
    return best


def project_to_subspace(full_state: np.ndarray, n: int) -> np.ndarray:
    """Gather the one-hot-sector amplitudes of a full state (subspace order)."""
    return np.array(full_state[subspace_to_full_labels(n)], dtype=np.complex128)


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


def bitstring_str(x: int, n: int) -> str:
    """Render a basis label with bit k=i*n+j at string position k (left to right)."""
    return "".join("1" if (x >> k) & 1 else "0" for k in range(n * n))


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


def low_degree_mass(spectrum, d: int) -> float:
    """Spectral energy on frequency masks of popcount <= d, mask by mask."""
    return float(sum(abs(c) ** 2 for mask, c in enumerate(spectrum) if mask.bit_count() <= d))


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


def x_frame(state: np.ndarray, conj: bool) -> np.ndarray:
    """state times P = diag((-i)**popcount(x)), or conj(P), the X mixer's
    frame: in place, 2**16 labels at a time, from the table [1, -i, -1, i]."""
    phases = np.array([1, -1j, -1, 1j], dtype=state.dtype)
    phases = phases.conj() if conj else phases
    flat = state.reshape(-1)
    for lo in range(0, flat.size, 1 << 16):
        part = flat[lo:lo + (1 << 16)]
        part *= phases[np.bitwise_count(np.arange(lo, lo + part.size)) % 4]
    return state


def fourth_moment(state: np.ndarray) -> float:
    """sum_x |amps[x]|**4 as a*a, a = |amps[x]|**2, in one numpy sum."""
    a = np.abs(state) ** 2
    return float(np.sum(a * a))


def label_lattice_costs(cost, tie_break: bool, order: int) -> tuple:
    """Costs shifted onto the lattice 0..spread, and the least 5-smooth grid
    length L > order * spread (no cap)."""
    h = cost.tie_broken_vector() if tie_break else cost.cost_vector().astype(np.int64)
    h = h - h.min()
    return h, _smooth_length(order * int(h.max()) + 1)


def label_lattice_spectra(h: np.ndarray, rows, beta: float, L: int):
    """Per row x, a_x at every gamma_k = 2 pi k / L: the scaled kernel row
    scattered onto the length-L lattice label by label (one bincount over all
    2**N labels per part), then one in-place FFT, in one reused buffer."""
    N = h.size.bit_length() - 1
    w = np.empty(L, dtype=np.complex128)
    for col in mixer_kernel_rows(rows, beta, N) * 2.0 ** (-N / 2):
        w.real = np.bincount(h, weights=col.real, minlength=L)
        w.imag = np.bincount(h, weights=col.imag, minlength=L)
        np.fft.fft(w, out=w)
        yield w


def label_lattice_masses(cost, beta: float, tie_break: bool) -> np.ndarray:
    """Feasible mass at every lattice angle, summed over label-scattered spectra."""
    h, L = label_lattice_costs(cost, tie_break, 1)
    masses = np.zeros(L, dtype=np.float64)
    for a in label_lattice_spectra(h, feasible_indices(cost.n), float(beta), L):
        masses += a.real ** 2 + a.imag ** 2
    return masses


def label_lattice_l4_mean(cost, beta: float) -> float:
    """Grid mean of sum_x |a_x|**4 over the raw lattice at L > 2 * spread."""
    h, L = label_lattice_costs(cost, False, 2)
    return sum(fourth_moment(a) for a in label_lattice_spectra(h, np.arange(h.size), beta, L)) / L


def unscaled_level_average(cost, beta: float, tie_break: bool) -> float:
    """2**-N sum over feasible x and cost levels of |sum_{y in level} K_xy|**2,
    the unscaled kernel rows binned by an np.unique level index."""
    h = cost.tie_broken_vector() if tie_break else cost.cost_vector()
    level = np.unique(h, return_inverse=True)[1]
    mean = sum(float(np.sum(np.bincount(level, row.real) ** 2 + np.bincount(level, row.imag) ** 2))
               for row in mixer_kernel_rows(feasible_indices(cost.n), float(beta), cost.num_qubits))
    return mean / 2.0 ** cost.num_qubits


def phase_matmul_lattice_masses(cost, betas, L=None, tie_break=True) -> np.ndarray:
    """Feasible mass at every gamma_k = 2 pi k / L, one row per beta, from
    the phase matrix exp(-2 pi i k h_y / L), gathered from a table of L roots
    of unity and multiplied into the kernel columns of every beta at once,
    2**22 phases at a time."""
    n = cost.n
    N = cost.num_qubits
    h = cost.tie_broken_vector() if tie_break else cost.cost_vector().astype(np.int64)
    h = h - h.min()
    if L is None:
        L = int(h.max()) + 1
    rows = feasible_indices(n)
    nfeas = len(rows)
    B = np.concatenate([mixer_kernel_rows(rows, b, N).T for b in betas],
                       axis=1) * 2.0 ** (-N / 2)
    roots = np.exp((-2j * math.pi / L) * np.arange(L))
    masses = np.empty((len(betas), L), dtype=np.float64)
    chunk = max(1, (1 << 22) // (1 << N))
    for lo in range(0, L, chunk):
        ks = np.arange(lo, min(lo + chunk, L), dtype=np.int64)
        units = (ks[:, None] * h[None, :]) % L
        amps = roots[units] @ B
        p = np.abs(amps) ** 2
        for bi in range(len(betas)):
            masses[bi, lo:lo + len(ks)] = p[:, bi * nfeas:(bi + 1) * nfeas].sum(axis=1)
    return masses


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
