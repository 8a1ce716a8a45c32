"""Dense statevector simulation of generic QAOA on N = n**2 qubits.

States are 1-D complex ndarrays of length 2**N indexed by the basis label (bit k = qubit k),
mutated in place and returned; complex64 halves N = 25 to 256 MiB.  Each is P times the lab
state, P = diag((-i)**popcount) exact (_p), so moduli, masses and shots are the lab's: a run
starts from P|+> (init_plus), and the X mixer is the real R = P K conj(P), K from
mixer_kernel_rows (real_mixer_rows).  A cost phase commutes with P; it gathers exact exps (_exp)
from one small table, or over a wide level range from digit tables (level_phases).  The feasible
mass after a mixer takes R's one-hot rows for a group of betas (mixed_feasible_mass).  Shots are
counted at given labels only (sample_counts).  Passes take _CHUNK entries, so none makes a
full-state temporary; the fills, the cost phase, the X mixer (4-qubit blocks), the projection,
the sampler's masses and the norm run on one pool item per CPU, each with one workspace
(_items).  No bit depends on either thread count.  A run checks its peak first."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .instance import DiagonalCost, _pool, check_run, feasible_indices, feasible_subspace_indices

_CHUNK = 1 << 16   # 512 KiB of complex64: one chunk stays in a 2 MiB L2
_DIGIT = 16   # bits per digit table: a wider level range is gathered digit by digit
_FUSE = 4   # qubits per fused mixer block: 2**4 x 2**4 matmuls
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


def init_plus(num_qubits: int, dtype) -> np.ndarray:
    """|+>^N in the X mixer's frame: P|+>, amplitude 2**(-N/2) (-i)**popcount (_p)."""
    return _p(np.empty(1 << num_qubits, dtype), 2.0 ** (-num_qubits / 2))


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


def _chunks(fn, size: int) -> list:
    """[fn(lo) for lo in range(0, size, _CHUNK)]: _items with no workspace."""
    return _items(lambda ws, lo: fn(lo), size, lambda: None)


def _items(fn, size: int, space) -> list:
    """[fn(ws, lo) for lo in range(0, size, _CHUNK)] in chunk order, ws = space() made once per
    item.  Past one chunk, at most one item per usable CPU runs on the pool (numpy releases the
    GIL), each storing fn(ws, lo) at the index it takes from one shared iterator, so no bit
    depends on which item runs a chunk; all items end, then an exception in a chunk propagates.
    fn calls no traced public function, and each of its matmuls stays below OpenBLAS's threading
    size (m*n*k = 2**16 complex, 2**20 real), so no pool thread wakes a BLAS thread."""
    starts = range(0, size, _CHUNK)
    out, at = [None] * len(starts), enumerate(starts)   # next(at) is one C call: atomic
    def item():
        ws = space()
        for i, lo in at:
            out[i] = fn(ws, lo)
    if len(starts) < 2:
        item()
        return out
    items = [_pool().submit(item) for _ in range(min(len(starts), len(os.sched_getaffinity(0))))]
    _ = [f.exception() for f in items], [f.result() for f in items]   # all end, then any raises
    return out


def cost_levels(table: np.ndarray) -> tuple:
    """(index, levels), built once per integer cost table for apply_cost_phase.  A table with
    fewer levels (max - min + 1) than entries indexes (low, high) itself; any other, its sorted
    distinct values by the least unsigned dtype, from one argsort."""
    low, high = int(table.min()), int(table.max())
    if high - low + 1 < table.size:
        return table, (low, high)
    ranked = table[order := np.argsort(table)]
    new = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    index = np.empty(table.size, np.min_scalar_type(np.count_nonzero(new) - 1))
    index[order] = np.cumsum(new, dtype=index.dtype) - 1   # wraps in step with the dtype
    return index, ranked[new]


def _exp(values: np.ndarray, gamma: float, dtype) -> np.ndarray:
    """exp(-i*gamma*c) per value, right to round-off in complex128 (see the README's cost phase)."""
    halves = lambda x: (h := x * 134217729.0 - (x * 134217729.0 - x), x - h)   # 2**27 + 1
    (gh, gl), out = halves(float(gamma)), 1
    big = np.abs(values).max(initial=0) >= 2**32   # in two parts
    for x in (values - np.fmod(values, 2**32), np.fmod(values, 2**32)) if big else (values,):
        p, (xh, xl) = gamma * (x := x.astype(np.float64)), halves(x)   # gamma*c = p + e exactly
        e = ((gh * xh - p) + gh * xl + gl * xh) + gl * xl   # |e| < 2**-27: 1 - ie = exp(-ie)
        out = out * np.exp(-1j * p) * (1 - 1j * e if abs(e).max() < 2**-27 else np.exp(-1j * e))
    return out.astype(dtype, copy=False)


def level_phases(levels: tuple, gamma: float, dtype) -> tuple:
    """(tables, low): _exp's phases for index entry i at level i + low: over 2**_DIGIT levels one
    table per digit of i, to multiply; else one (for wide distinct integers, low 0, via digits)."""
    ranged, values = isinstance(levels[1], tuple), levels[1]
    low, high = values if ranged else (int(values[0]), int(values[-1]))
    bits = (high - low).bit_length()
    if not ranged and not _DIGIT < bits < 63:
        return [_exp(values, gamma, dtype)], 0
    width = -(-bits // (digits := max(1, -(-bits // _DIGIT))))   # d digits of ceil(bits / d)
    tables = [_exp((np.arange(min(1 << width, ((high - low) >> width * k) + 1)) << width * k)
                   + (0 if k else low), gamma, dtype if ranged else complex) for k in range(digits)]
    return (tables, low) if ranged else ([_gather(np.ones(values.size, complex), values, tables,
                                                  low).astype(dtype, copy=False)], 0)


def apply_cost_phase(state: np.ndarray, levels: tuple, gamma: float) -> np.ndarray:
    """Multiply amplitude y by exp(-i*gamma*cost[y]), levels from cost_levels."""
    if levels[0].shape != state.shape:
        raise ValueError("cost table length does not match state size")
    return _gather(state, levels[0], *level_phases(levels, gamma, state.dtype))


def _gather(state: np.ndarray, index: np.ndarray, tables: list, low: int) -> np.ndarray:
    """state times prod_k tables[k][digit k of index - low], in one workspace per pool item."""
    width, top = tables[0].size.bit_length() - 1, len(tables) - 1
    def item(ws, lo):
        j, phase, digit, factor = (w[:min(_CHUNK, state.size - lo)] for w in (ws * 2)[:4])
        np.subtract(index[lo:lo + _CHUNK], low, out=j)
        for k in range(top, -1, -1):   # "clip": take fills out unbuffered; digits are in range
            if k:   # digit k leaves j, which keeps the digits below it
                np.right_shift(j, width * k, out=digit)
                np.bitwise_and(j, (1 << width * k) - 1, out=j)
            tables[k].take(digit if k else j, 0, factor if k < top else phase, "clip")
            _ = k < top and np.multiply(phase, factor, out=phase)
        np.multiply(state[lo:lo + _CHUNK], phase, out=state[lo:lo + _CHUNK])
    _items(item, state.size, lambda: [np.empty(min(_CHUNK, state.size), d)
                                      for d in (np.intp, state.dtype) * (2 if top else 1)])
    return state


def apply_x_mixer(state: np.ndarray, beta: float) -> np.ndarray:
    """exp(-i*beta*X) on every qubit of a state in its frame, with no phase multiply: the real
    product R = [[cos b, sin b], [-sin b, cos b]]^{(x)N}, in ceil(N/_FUSE) near-equal blocks,
    each from real_mixer_rows.  A pass mixes qubits [a, a+k), as many blocks as fit in _CHUNK,
    in _CHUNK-entry chunks of the (-1, 2**k, 2**a) view: a real matmul per block on the float
    view, from the state for whole rows, on a copy for a column stripe (N = 16: 4+4+4+4 in one
    pass; N = 25: 4+4+4+4, then 3+3+3).  A C-contiguous (rows, 2**N) batch is mixed row by row.
    No bit depends on either thread count, nor on _CHUNK from 2**10 up (measured from 2**6 to
    2**18 at N = 6..20 in c64 and c128, and at N = 25 in c64 from 2**10: only c128 stripes two
    entries wide, at 2**8 or 2**9, round differently)."""
    if _CHUNK & (_CHUNK - 1) or _CHUNK < 1 << _FUSE:
        raise ValueError(f"_CHUNK must be a power of two of at least 2**{_FUSE}, got {_CHUNK}")
    num_qubits, real, flat = int(math.log2(state.shape[-1])), state.real.dtype, state.reshape(-1)
    sizes = [len(b) for b in np.array_split(range(num_qubits), -(-num_qubits // _FUSE))]
    per_pass = (_CHUNK.bit_length() - 1) // sizes[0]   # whole blocks per pass: the largest first
    r = {q: real_mixer_rows(np.arange(1 << q), beta, q) for q in set(sizes)}
    r = {q: (u.astype(real), np.kron(u.T, np.eye(2)).astype(real)) for q, u in r.items()}
    for i in range(0, len(sizes), per_pass):   # r is ready: pool callbacks call nothing traced
        a, k = sum(sizes[:i]), sum(sizes[i:i + per_pass])
        v, n = flat.reshape(-1, 1 << k, 1 << a), min(_CHUNK, flat.size)
        rows, width = max(1, _CHUNK >> (k + a)), min(1 << a, _CHUNK >> k)   # per item

        def item(ws, lo):   # ws holds y, and x for a stripe
            o, c = divmod(lo // _CHUNK, (1 << a) // width)
            src = v[o * rows:(o + 1) * rows, :, c * width:(c + 1) * width]
            x = ws[n:n + src.size].reshape(src.shape) if width < 1 << a else src   # a stripe: copy
            y, cols = ws[:x.size].reshape(x.shape), 2 * width   # floats below the block's qubits
            _ = x is src or np.copyto(x, src)
            for q in sizes[i:i + per_pass]:
                f, g = x.reshape(-1).view(real), y.reshape(-1).view(real)
                if cols == 2:   # re/im pairs fastest: (rows, 2**(q+1)) @ (R.T (x) I2)
                    shape = (-1, math.gcd(f.size >> (q + 1), _GEMM >> (2 * q + 2)), 2 << q)
                    np.matmul(f.reshape(shape), r[q][1], out=g.reshape(shape))
                else:
                    shape = (-1, 1 << q, cols // (span := min(cols, _GEMM >> (2 * q))), span)
                    np.matmul(r[q][0], f.reshape(shape).swapaxes(1, 2),
                              out=g.reshape(shape).swapaxes(1, 2))
                x, y, cols = y, x, cols << q
            _ = x is src or np.copyto(src, x)
        _items(item, flat.size, lambda: np.empty((1 + (width < 1 << a)) * n, flat.dtype))
    return state


def mixer_kernel_rows(rows: np.ndarray, beta: float, num_bits: int) -> np.ndarray:
    """Closed-form product-mixer elements (cos b)^(N-d) (-i sin b)^d, d the
    Hamming distance, for the given row labels against every column."""
    cols = np.arange(1 << num_bits, dtype=np.int64)
    d = np.bitwise_count(np.bitwise_xor.outer(np.asarray(rows, dtype=np.int64), cols))
    return (math.cos(beta) ** (num_bits - d)) * ((-1j * math.sin(beta)) ** d)


def real_mixer_rows(rows: np.ndarray, beta: float, num_bits: int) -> np.ndarray:
    """These rows of the X mixer in its frame, R = P K conj(P), K = mixer_kernel_rows."""
    p = _p(np.empty(1 << num_bits, np.complex128), 1.0)
    return (p[rows, None] * p.conj() * mixer_kernel_rows(rows, beta, num_bits)).real


def run_generic(cost: DiagonalCost, schedule: AngleSchedule, precision: str) -> np.ndarray:
    """Depth-p generic QAOA in the X mixer's frame: alternate cost phase and X mixer from |+>^N."""
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
    """feasible_mass(apply_x_mixer(state, beta), n) for G betas, no mixer: a (G, n, 2**n)
    stack of R's one-hot rows, from real_mixer_rows (no other row reaches a feasible
    label).  Row n-1 goes first: per beta, a real (n, 2**n) @ (2**n, rest) matmul on the
    float view, in slabs under _GEMM and _CHUNK items on the pool, its n results leading;
    the first stage reads each slab once for all G, and no bit depends on G.  Row 0 ends
    least significant for the n! index map."""
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
