"""Dense statevector simulation of generic QAOA on N = n**2 qubits.

States are 1-D complex ndarrays of length 2**N indexed by the basis label
(bit k = qubit k), mutated in place and returned; complex64 halves N = 25 to
256 MiB.  A cost phase gathers one complex128 exp per level (level_phases).
The X mixer is P M P, P = diag((-i)**popcount) exact (_p) and M = conj(P) K
conj(P) real, K from mixer_kernel_rows (real_mixer_rows); the feasible mass
after it takes M's one-hot rows for a group of betas on a state already times
P, such as P|+> refilled by _p (mixed_feasible_mass).  Shots are counted at given
labels only (sample_counts).  Passes take _CHUNK entries, so none makes a full-state
temporary; the fills, the cost phase, the X mixer, the projection, the sampler's masses
and the norm spread their chunks over the CPUs (_chunks).  No result depends on either
thread count.  A run checks its predicted peak first."""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .instance import DiagonalCost, check_run, feasible_indices, feasible_subspace_indices

_CHUNK = 1 << 16   # 512 KiB of complex64: one chunk stays in a 2 MiB L2
_FUSE = 5   # qubits per fused mixer block: 2**5 x 2**5 matmuls
_GEMM = 1 << 17   # m*n*k per mixer matmul: OpenBLAS threads real gemm from 2**20
_DTYPES = {"f64": np.complex128, "f32": np.complex64}


@dataclass(frozen=True)
class AngleSchedule:
    """Depth-p angle lists (gammas for cost phases, betas for mixers)."""

    gammas: tuple
    betas: tuple

    def __post_init__(self):
        g, b = tuple(map(float, self.gammas)), tuple(map(float, self.betas))
        if len(g) != len(b) or not g:
            raise ValueError("gammas and betas must have equal positive length")
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "betas", b)

    @classmethod
    def single(cls, gamma: float, beta: float) -> "AngleSchedule":
        return cls(gammas=(gamma,), betas=(beta,))


def init_plus(num_qubits: int, dtype=np.complex128) -> np.ndarray:
    """|+>^N : every amplitude 2**(-N/2)."""
    state = np.empty(1 << num_qubits, dtype=dtype)   # np.full's bits, filled chunk by chunk
    _chunks(lambda lo: state[lo:lo + _CHUNK].fill(2.0 ** (-num_qubits / 2)), state.size)
    return state


def _p(out: np.ndarray, scale: float) -> np.ndarray:
    """Fill out (2**k entries) with scale * P, P = diag((-i)**popcount) the X mixer's
    frame, with the bits of np.full(scale) * [1, -i, -1, i][popcount & 3], P|+>^k at
    2**(-k/2): rows of the (-1, 2**low) view copy the low row turned popcount(row) times."""
    low = min((out.size.bit_length() - 1) // 2, _CHUNK.bit_length() - 1)
    quarter = np.full(4, scale, out.dtype) * np.array([1, -1j, -1, 1j], out.dtype)
    turns = quarter[(np.arange(4)[:, None] + np.bitwise_count(np.arange(1 << low))) & 3]
    high, rows = np.bitwise_count(np.arange(out.size >> low)) & 3, out.reshape(-1, 1 << low)
    part = lambda x, lo: x[lo >> low:(lo + _CHUNK) >> low]   # "clip": take buffers out on "raise"
    _chunks(lambda lo: turns.take(part(high, lo), 0, part(rows, lo), "clip"), out.size)
    return out


@functools.cache
def _pool():
    from concurrent.futures import ThreadPoolExecutor   # 9 ms to import: on first use
    return ThreadPoolExecutor(len(os.sched_getaffinity(0)))


def _chunks(fn, size: int) -> list:
    """[fn(lo) for lo in range(0, size, _CHUNK)] in chunk order, on the pool
    when there is more than one chunk (numpy releases the GIL); an exception
    in any chunk propagates; the CE block mixer's items call it too.  fn calls
    no traced public function, and each of its matmuls stays below OpenBLAS's
    threading size (m*n*k = 2**16 complex, 2**20 real), so no pool thread
    wakes a BLAS thread."""
    starts = range(0, size, _CHUNK)
    return [fn(lo) for lo in starts] if len(starts) < 2 else list(_pool().map(fn, starts))


def cost_levels(table: np.ndarray) -> tuple:
    """(index, levels), built once per table for apply_cost_phase.  An integer
    table with fewer levels (max - min + 1) than entries indexes (low, high) itself;
    any other, its sorted distinct values by the least unsigned dtype, from one argsort."""
    low, high = (int(table.min()), int(table.max())) if table.dtype.kind in "iu" else (0, math.inf)
    if high - low + 1 < table.size:
        return table, (low, high)
    ranked = table[order := np.argsort(table)]
    new = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    index = np.empty(table.size, np.min_scalar_type(np.count_nonzero(new) - 1))
    index[order] = np.cumsum(new, dtype=index.dtype) - 1   # wraps in step with the dtype
    return index, ranked[new]


def level_phases(levels: tuple, gamma: float, dtype) -> tuple:
    """(phases, low): exp(-i*gamma*level) for every level of cost_levels, one
    complex128 exp each cast to dtype, in chunks on the pool; index entry j
    reads phases[j - low], and low is 0 for distinct values."""
    values = levels[1]
    low, high = values if isinstance(values, tuple) else (0, values.size - 1)
    level = ((lambda lo: np.arange(low + lo, min(low + lo + _CHUNK, high + 1)))
             if isinstance(values, tuple) else (lambda lo: values[lo:lo + _CHUNK]))
    phases = np.empty(high - low + 1, dtype=dtype)
    _chunks(lambda lo: np.exp((-1j * gamma) * level(lo), out=phases[lo:lo + _CHUNK]), phases.size)
    return phases, low


def apply_cost_phase(state: np.ndarray, levels: tuple, gamma: float) -> np.ndarray:
    """Multiply amplitude y by exp(-i*gamma*cost[y]), levels from cost_levels."""
    index = levels[0]
    if index.shape != state.shape:
        raise ValueError("cost table length does not match state size")
    phases, low = level_phases(levels, gamma, state.dtype)   # no index copy at low 0
    _chunks(lambda lo: np.multiply(state[lo:lo + _CHUNK], phases.take(
        index[lo:lo + _CHUNK] - low if low else index[lo:lo + _CHUNK]), out=state[lo:lo + _CHUNK]),
        state.size)
    return state


def apply_x_mixer(state: np.ndarray, beta: float) -> np.ndarray:
    """exp(-i*beta*X) on every qubit as P M P: P = diag((-i)**popcount(x)) is
    exact to apply, M = [[cos b, sin b], [sin b, -cos b]]^{(x)N} is real.
    N splits into ceil(N/_FUSE) near-equal blocks (4+4+4+4 at N = 16), each M from
    conj(P) mixer_kernel_rows conj(P).  A pass mixes qubits [a, a+k), as many
    blocks as fit in _CHUNK, in _CHUNK-entry items of the (-1, 2**k, 2**a) view:
    times P, a real matmul per block on the float view, times P.  A C-contiguous
    (rows, 2**N) batch is mixed row by row.  No bit depends on either thread
    count, nor on _CHUNK from 2**13 up (narrower stripes round differently).
    """
    if _CHUNK & (_CHUNK - 1) or _CHUNK < 1 << _FUSE:
        raise ValueError(f"_CHUNK must be a power of two of at least 2**{_FUSE}, got {_CHUNK}")
    num_qubits, real, flat = int(math.log2(state.shape[-1])), state.real.dtype, state.reshape(-1)
    sizes = [len(b) for b in np.array_split(range(num_qubits), -(-num_qubits // _FUSE))]
    per_pass = (_CHUNK.bit_length() - 1) // sizes[0]   # whole blocks per pass: the largest first
    m = {q: real_mixer_rows(np.arange(1 << q), beta, q) for q in set(sizes)}
    m = {q: (u.astype(real), np.kron(u, np.eye(2)).astype(real)) for q, u in m.items()}
    for i in range(0, len(sizes), per_pass):   # m is ready: pool callbacks call nothing traced
        a, k = sum(sizes[:i]), sum(sizes[i:i + per_pass])
        p = _p(np.empty(1 << k, np.complex64), 1.0)   # exact in complex64, half the bytes
        v, p = flat.reshape(-1, 1 << k, 1 << a), p[:, None] if a else p
        rows, width = max(1, _CHUNK >> (k + a)), min(1 << a, _CHUNK >> k)   # per item

        def item(lo):
            o, c = divmod(lo // _CHUNK, (1 << a) // width)
            src = v[o * rows:(o + 1) * rows, :, c * width:(c + 1) * width]
            src = src if a else src[..., 0]   # p broadcast over a trailing 1 is slow
            x = np.multiply(src, p, out=src if width == 1 << a else None)   # a stripe: copied
            y, cols = np.empty_like(x), 2 * width   # floats below the block's qubits
            for q in sizes[i:i + per_pass]:
                f, g = x.reshape(-1).view(real), y.reshape(-1).view(real)
                if cols == 2:   # re/im pairs fastest: (rows, 2**(q+1)) @ (M (x) I2)
                    shape = (-1, math.gcd(f.size >> (q + 1), _GEMM >> (2 * q + 2)), 2 << q)
                    np.matmul(f.reshape(shape), m[q][1], out=g.reshape(shape))
                else:
                    shape = (-1, 1 << q, cols // (span := min(cols, _GEMM >> (2 * q))), span)
                    np.matmul(m[q][0], f.reshape(shape).swapaxes(1, 2),
                              out=g.reshape(shape).swapaxes(1, 2))
                x, y, cols = y, x, cols << q
            np.multiply(x, p, out=src)
        _chunks(item, flat.size)
    return state


def mixer_kernel_rows(rows: np.ndarray, beta: float, num_bits: int) -> np.ndarray:
    """Closed-form product-mixer elements (cos b)^(N-d) (-i sin b)^d, d the
    Hamming distance, for the given row labels against every column."""
    cols = np.arange(1 << num_bits, dtype=np.int64)
    d = np.bitwise_count(np.bitwise_xor.outer(np.asarray(rows, dtype=np.int64), cols))
    return (math.cos(beta) ** (num_bits - d)) * ((-1j * math.sin(beta)) ** d)


def real_mixer_rows(rows: np.ndarray, beta: float, num_bits: int) -> np.ndarray:
    """These rows of the X mixer's real factor M = conj(P) K conj(P), K = mixer_kernel_rows."""
    cp = _p(np.empty(1 << num_bits, np.complex128), 1.0).conj()
    return (cp[rows, None] * cp * mixer_kernel_rows(rows, beta, num_bits)).real


def run_generic(cost: DiagonalCost, schedule: AngleSchedule, precision: str = "f64") -> np.ndarray:
    """Depth-p generic QAOA: alternate cost phase and X mixer from |+>^N."""
    check_run(cost, False, _DTYPES[precision], 0, f"a generic run at n={cost.n}")
    levels = cost_levels(cost.cost_vector())
    state = init_plus(cost.num_qubits, dtype=_DTYPES[precision])
    for gamma, beta in zip(schedule.gammas, schedule.betas):
        apply_cost_phase(state, levels, gamma)
        apply_x_mixer(state, beta)
    return state


def feasible_mass(state: np.ndarray, n: int) -> float:
    """Total probability on the n! permutation labels."""
    return float(np.sum(np.abs(state[feasible_indices(n)]) ** 2))


def mixed_feasible_mass(state: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """feasible_mass(apply_x_mixer(conj(P) state, beta), n) for G betas, no mixer: the
    state in the mixer's frame (_p), a (G, n, 2**n) stack of M's one-hot rows (P only
    phases; no other row reaches a feasible label).  Row n-1 goes first: per beta, a real
    (n, 2**n) @ (2**n, rest) matmul on the float view, in slabs under _GEMM and _CHUNK
    items on the pool, its n results leading; the first stage reads each slab once for
    all G, and no bit depends on G.  Row 0 ends least significant for the n! index map."""
    real, t, group = state.real.dtype, state.reshape(-1).view(state.real.dtype), len(rows)
    m, span = rows.astype(real)[:, None, None], 1 << ((_GEMM // (n << n)).bit_length() - 1)
    for stage in range(n):   # (G or 1, b, 2**n, w) @ -> (G, b, n, w), w floats per row
        v = t.reshape(group if stage else 1, -1, 1 << n, 2 << n * (n - 1 - stage))
        t = np.empty((group, v.shape[1], n, w := v.shape[3]), dtype=real)
        slabs = lambda x: x.reshape(*x.shape[:3], -1, min(span, x.shape[3])).swapaxes(2, 3)
        _chunks(lambda lo: np.matmul(m, slabs(v[..., 2 * lo:2 * (lo + _CHUNK)]),
                                     out=slabs(t[..., 2 * lo:2 * (lo + _CHUNK)])), w // 2)
    amps, feasible = t.reshape(group, -1).view(state.dtype), feasible_subspace_indices(n)
    return np.array([float(np.sum(np.abs(a[feasible]) ** 2)) for a in amps])   # 1-D sums


def sample_counts(state: np.ndarray, shots: int, seed: int, labels) -> np.ndarray:
    """Shots on each of the distinct ``labels``, in their order (int64), by inverse-CDF
    sampling of Philox uniforms, the same for a seed on every run and platform: label x
    takes the uniforms in [sum_{y<x} |a_y|**2, sum_{y<=x} |a_y|**2), up to 1.0 at
    x = size - 1.  One pass over the chunks sums |a|**2 (the real dtype, in float64) between
    cuts at the labels' edges and the chunk starts, added up in label order: one-label pieces
    give one sequential cumsum's bits, and a longer piece moves at round-off with _CHUNK (as a
    norm does) but with no thread count.  The sorted uniforms take 8 B per shot."""
    size, labels = state.shape[0], np.asarray(labels, dtype=np.int64)
    top = int(labels.max(initial=-1)) + 1
    if np.unique(labels).size < labels.size or labels.min(initial=0) < 0 or top > size:
        raise ValueError(f"labels must be distinct and in [0, {size})")
    u = np.random.Generator(np.random.Philox(seed)).random(shots)   # ValueError if shots < 0
    u.sort()
    cuts = np.union1d(np.union1d(labels, labels + 1), range(0, top, _CHUNK))

    def pieces(lo):   # the sums between this chunk's cuts
        hi = min(lo + _CHUNK, top)
        starts = cuts[np.searchsorted(cuts, lo):np.searchsorted(cuts, hi)] - lo
        return np.add.reduceat(np.abs(state[lo:hi]) ** 2, starts, dtype=np.float64)
    edges = np.cumsum(np.concatenate([[0.0], *_chunks(pieces, top)]))   # the mass below each cut
    if top == size:
        edges[-1] = 1.0
    below, at = np.searchsorted(u, edges), np.searchsorted(cuts, labels)
    return below[at + 1] - below[at]


def norm_squared(state: np.ndarray) -> float:
    """sum_x |amps[x]|**2: one numpy sum per chunk, added in chunk order, so
    no thread count changes it (np.vdot's result follows BLAS's)."""
    return sum(_chunks(lambda lo: float(np.sum(np.abs(state[lo:lo + _CHUNK]) ** 2)), state.size))
