"""The problem instance with its diagonal cost, and the permutation set.

A problem of size ``n`` is encoded on ``N = n**2`` binary variables laid out
row-major: bit ``i*n + j`` of a basis label says whether city ``j`` sits at
tour position ``i``.  A label is feasible exactly when that 0/1 matrix is a
permutation matrix: a row of permutation_table, as an int64 label up to n = 7.

Instance files are plain text: the first non-comment line holds ``n``, the
next ``n`` lines hold ``n`` non-negative integers each.  Lines starting with
``#`` are ignored anywhere in the file.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

MAX_BYTES = 2 ** 31   # the memory budget: a constant, so no host decides what is refused
MAX_LABEL_BITS = 63   # full-space labels are int64


class CapacityError(ValueError):
    """A run needs more memory than MAX_BYTES, or more than a fixed width or run time allows."""


def check_bytes(nbytes: int, what: str) -> int:
    """The one memory cap: refuse a predicted peak (arrays at their largest) over MAX_BYTES."""
    if nbytes > MAX_BYTES:
        raise CapacityError(f"{what} needs {nbytes} bytes; memory capped at {MAX_BYTES} bytes")
    return nbytes


@lru_cache(maxsize=None)
def _pool():
    """The thread pool of fullspace._chunks and _dense_cost, one worker per usable CPU."""
    from concurrent.futures import ThreadPoolExecutor   # 9 ms to import: on first use
    return ThreadPoolExecutor(len(os.sched_getaffinity(0)))


def check_label_bits(n: int) -> None:
    """The one label-width cap: labels carry n*n bits, so they fit int64 up to n = 7."""
    if n * n > MAX_LABEL_BITS:
        raise CapacityError(f"full-space labels need {n * n} bits; capped at {MAX_LABEL_BITS} "
                            "(labels are int64)")


class InstanceFormatError(ValueError):
    """Instance file could not be parsed."""


class InstanceDimensionError(InstanceFormatError):
    """Distance matrix is not square / does not match the declared size."""


def default_penalty_weight(dist) -> int:
    """Big-M weight n*max(dist)+1: any constraint violation outweighs any tour.
    Python ints, so a large entry cannot wrap it."""
    d = np.asarray(dist)
    return d.shape[0] * int(d.max()) + 1


@dataclass(frozen=True, eq=False)
class DiagonalCost:
    """A permutation-constrained instance and its diagonal cost
    C(y) = A*(one-hot penalties) + cyclic bilinear tour length.

    ``dist`` is held as a read-only int64 array, the penalty weight A as a
    Python int.  The spectrum lies on the unit integer lattice, which is what
    makes exact finite-grid angle averaging possible.  The dense table is
    built on first use (build_cost); dataclasses.replace starts without one.
    """

    dist: np.ndarray
    penalty_weight: int
    name: str
    include_penalty: bool = True
    _vector: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        d = np.asarray(self.dist)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InstanceDimensionError(f"distance matrix must be square, got shape {d.shape}")
        if d.shape[0] < 2:
            raise ValueError("need at least two cities")
        if (d < 0).any():
            raise ValueError("distances must be non-negative integers")
        if np.diag(d).any():
            raise ValueError("distance matrix must have a zero diagonal")
        if self.penalty_weight < 1:
            raise ValueError("penalty weight must be positive")
        d = np.array(d, dtype=np.int64)
        d.flags.writeable = False
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "penalty_weight", int(self.penalty_weight))

    @property
    def n(self) -> int:
        return len(self.dist)

    @property
    def num_qubits(self) -> int:
        return self.n * self.n

    def cost_vector(self) -> np.ndarray:
        """Dense table C over all 2**(n*n) labels (see build_cost)."""
        return build_cost(self)._vector

    def tie_broken_vector(self) -> np.ndarray:
        """Injective lattice refinement C*2**N + y.

        Degenerate cost levels defeat exact angle averaging (equal-cost pairs
        keep phase 1 under every average); spacing the lattice by 2**N and
        adding the label index splits every level while staying on an integer
        lattice, so the finite-grid average is exact again.  Entries past
        int64 are refused before the multiply.
        """
        N = self.num_qubits
        base = self.cost_vector().astype(np.int64)
        if (top := (int(base.max()) + 1) << N) > np.iinfo(np.int64).max:
            raise CapacityError(f"tie-broken costs reach {top - 1}, past int64 at n={self.n}; "
                                "use smaller distances")
        return base * (1 << N) + np.arange(1 << N, dtype=np.int64)

    @property
    def spread(self) -> int:
        """Max pairwise cost difference, by an exact scan of the dense table.  No src code
        calls it: benchmark/workloads.py:lattice_instance_seed picks its instances by it."""
        vec = self.cost_vector()
        return int(vec.max() - vec.min())


def make_instance(dist, name: str) -> DiagonalCost:
    return DiagonalCost(dist=dist, penalty_weight=default_penalty_weight(dist), name=name)


def synthetic_instance(n: int, seed: int = 0, high: int = 9) -> DiagonalCost:
    """Deterministic symmetric instance with integer entries in [1, high]."""
    rng = np.random.default_rng(seed + 1009 * n)
    d = rng.integers(1, high + 1, size=(n, n))
    d = np.maximum((d + d.T) // 2, 1)
    np.fill_diagonal(d, 0)
    return make_instance(d, name=f"synthetic-n{n}-s{seed}")


def load_instance(path) -> DiagonalCost:
    """Parse an instance file (format documented in the module docstring).

    Raises InstanceFormatError with the offending line number on bad input and
    InstanceDimensionError when the matrix does not match the declared size.
    """
    path = Path(path)
    tokens = []  # (line_number, value)
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            for tok in body.split():
                try:
                    val = int(tok)
                except ValueError:
                    raise InstanceFormatError(
                        f"{path}:{lineno}: expected an integer, got {tok!r}") from None
                if abs(val) >= 1 << 63:
                    raise InstanceFormatError(f"{path}:{lineno}: {tok} does not fit in int64")
                tokens.append((lineno, val))
    if not tokens:
        raise InstanceFormatError(f"{path}: empty instance file")
    (first, n), body = tokens[0], tokens[1:]
    if n < 2:
        raise InstanceFormatError(f"{path}:{first}: city count must be >= 2, got {n}")
    if len(body) != n * n:   # named at the last number read
        raise InstanceDimensionError(
            f"{path}:{tokens[-1][0]}: expected {n}x{n}={n * n} matrix entries, got {len(body)}")
    for k, (lineno, v) in enumerate(body):   # make_instance's entry checks, with the line
        if v < 0 or v and k % (n + 1) == 0:
            raise InstanceFormatError(f"{path}:{lineno}: entry {divmod(k, n)} is {v}; distances "
                                      "are non-negative, with a zero diagonal")
    d = np.array([v for _, v in body], dtype=np.int64).reshape(n, n)
    return make_instance(d, name=path.stem)


# ---------------------------------------------------------------------------
# the permutation set

@lru_cache(maxsize=None)
def permutation_table(n: int) -> np.ndarray:
    """The n! permutations as a read-only lexicographic (n!, n) table: row k sends i to [k, i]."""
    table = np.fromiter(itertools.permutations(range(n)), dtype=(np.int64, n))
    table.flags.writeable = False
    return table


def feasible_indices(n: int) -> np.ndarray:
    """The n! feasible int64 labels, in permutation_table's order; a width past int64 is refused."""
    check_label_bits(n)
    return (np.int64(1) << (permutation_table(n) + n * np.arange(n))).sum(axis=1)


@lru_cache(maxsize=None)
def feasible_subspace_indices(n: int) -> np.ndarray:
    """permutation_table's rows as C-order indices of the [n]*n one-hot tensor, in its order."""
    return np.ravel_multi_index(permutation_table(n).T, (n,) * n)


# ---------------------------------------------------------------------------
# dense cost tables

def _cost_terms(cost: DiagonalCost, one_hot: bool) -> tuple:
    """(dtype, top, row, overlap, tour) for _dense_cost, nothing allocated: over every row
    pattern (np.arange(2**n)), or with ``one_hot`` the n one-hot rows over dist.T.  The column
    penalty A*(n - sum_i |r_i| + 2 sum_{i<i'} |r_i & r_i'|) joins the row term,
    A*(|r_i|-1)*(|r_i|-2), and the pair terms, so no term is negative.  The n row, n(n-1)/2
    overlap and n tour terms' largest values summed in Python ints (on the full table at n >= 3,
    the all-ones cost) are ``top``, which bounds every cost: the table is int32 when top fits
    it, else int64, and a top past int64 is refused."""
    n = cost.n
    patterns, dist = (1 << np.arange(n), cost.dist.T) if one_hot else (np.arange(1 << n), cost.dist)
    bits = ((patterns[:, None] >> np.arange(n)) & 1).astype(object)   # Python ints
    popc = bits.sum(axis=1)
    pen = cost.penalty_weight if cost.include_penalty else 0
    row = pen * (popc - 1) * (popc - 2)
    overlap = 2 * pen * (bits @ bits.T)
    tour = bits @ dist.astype(object) @ bits.T   # [r_t, r_{t+1}]
    top = n * row.max() + n * (n - 1) // 2 * overlap.max() + n * tour.max()
    if top > np.iinfo(np.int64).max:
        raise CapacityError(f"largest cost {top} overflows the int64 cost table at n={n}; "
                            "use smaller distances")
    dtype = np.int32 if top <= np.iinfo(np.int32).max else np.int64
    return dtype, top, row.astype(dtype), overlap.astype(np.int64), tour.astype(np.int64)


def _dense_cost(cost: DiagonalCost, one_hot: bool) -> np.ndarray:
    """Cost table over every choice of one of _cost_terms' row patterns per
    row, row 0 the least significant digit: every pattern gives the full
    table indexed by label, ``one_hot`` the one-hot manifold's (subspace_cost_table).
    The table over rows 0..k-1 is the first m**k entries of the table over
    rows 0..k (m patterns), so each row block extends it in place by m slabs,
    one per pattern of the new row, built straight in _cost_terms' dtype (any order: integers)."""
    dtype, _, row, overlap, tour = _cost_terms(cost, one_hot)
    n, m = cost.n, len(row)

    def pair(j, k, r):
        # terms coupling row k (= r) to row j < k, over r_j on axis k-1-j: the
        # overlap, the tour step j -> k, and for j = 0, k = n-1 the step back
        vec = overlap[r] + (tour[:, r] if j == k - 1 else 0) + (tour[r] if k - j == n - 1 else 0)
        return vec.astype(dtype).reshape([m if a == k - 1 - j else 1 for a in range(k)])

    table = np.empty(m ** n, dtype=dtype)
    table[:m] = row
    for k in range(1, n):   # slabs m-1..1, on the pool from 2**14 entries, then slab 0 (prev)
        prev, slabs = table[:m ** k].reshape([m] * k), table[:m ** (k + 1)].reshape([m] * (k + 1))
        fill = lambda r: np.add(np.add(prev, pair(k - 1, k, r) + row[r], out=slabs[r]),
                                sum(pair(j, k, r) for j in range(k - 1)), out=slabs[r])
        list((_pool().map if m ** k >= 1 << 14 else map)(fill, range(m - 1, 0, -1)))
        fill(0)
    return table


def build_cost(cost: DiagonalCost) -> DiagonalCost:
    """Build and keep ``cost``'s dense table over all 2**(n*n) labels (index =
    integer label) and return ``cost``: int32 or int64 by _cost_terms' bound,
    and a cost past int64 is refused."""
    if cost._vector is None:
        object.__setattr__(cost, "_vector", _dense_cost(cost, False))
    return cost


def check_run(cost: DiagonalCost, one_hot: bool, dtype, extra: int, what: str) -> int:
    """Check and return run_generic's, or with ``one_hot`` run_ce's, peak with ``dtype`` amplitudes
    plus ``extra`` B: table (_cost_terms' width), state, CE means, phase (README); state first."""
    from .fullspace import _CHUNK, _DIGIT
    size, itemsize = (cost.n if one_hot else 1 << cost.n) ** cost.n, np.dtype(dtype).itemsize
    check_bytes(size * itemsize, f"the state of {what}")   # first: before any term is summed
    width, top = _cost_terms(cost, one_hot)[:2]
    phase = min(top + 1, 4 << _DIGIT) * itemsize if top + 1 < size else size * (20 + itemsize)
    spaces = min(len(os.sched_getaffinity(0)), -(-size // _CHUNK)) * min(_CHUNK, size)   # at once
    state = size * itemsize * (cost.n + 1) // cost.n if one_hot else size * itemsize
    return check_bytes(size * np.dtype(width).itemsize + state + phase + extra + (spaces * (
        8 + itemsize) << (min(top + 1, size - 1) > 1 << _DIGIT)), what)
