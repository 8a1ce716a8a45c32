"""The problem instance with its diagonal cost, and the permutation-feasibility test.

A problem of size ``n`` is encoded on ``N = n**2`` binary variables laid out
row-major: bit ``i*n + j`` of a basis label says whether city ``j`` sits at
tour position ``i``.  A label is feasible exactly when that 0/1 matrix is a
permutation matrix.

Instance files are plain text: the first non-comment line holds ``n``, the
next ``n`` lines hold ``n`` non-negative integers each.  Lines starting with
``#`` are ignored anywhere in the file.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

MAX_ENUM_SIZE = 8          # factorial enumeration guard
MAX_DENSE_COST_SIZE = 5    # full 2**(n*n) cost tables


class CapacityError(ValueError):
    """Requested size exceeds the configured desk-scale budget."""


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
        """Max pairwise cost difference, by an exact scan of the dense table."""
        vec = self.cost_vector()
        return int(vec.max() - vec.min())


def make_instance(dist, name="unnamed") -> DiagonalCost:
    return DiagonalCost(dist=dist, penalty_weight=default_penalty_weight(dist), name=name)


def synthetic_instance(n: int, seed: int = 0, high: int = 9) -> DiagonalCost:
    """Deterministic symmetric instance with integer entries in [1, high]."""
    rng = np.random.default_rng(seed + 1009 * n)
    d = rng.integers(1, high + 1, size=(n, n))
    d = (d + d.T) // 2
    d = np.maximum(d, 1)
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
    n = tokens[0][1]
    if n < 2:
        raise InstanceFormatError(f"{path}:{tokens[0][0]}: city count must be >= 2, got {n}")
    body = tokens[1:]
    if len(body) != n * n:
        lineno = body[-1][0] if body else tokens[0][0]
        raise InstanceDimensionError(
            f"{path}:{lineno}: expected {n}x{n}={n * n} matrix entries, got {len(body)}")
    d = np.array([v for _, v in body], dtype=np.int64).reshape(n, n)
    return make_instance(d, name=path.stem)


# ---------------------------------------------------------------------------
# bit-layout helpers

@lru_cache(maxsize=None)
def enumerate_feasible(n: int) -> tuple:
    """All n! feasible labels, in lexicographic permutation order."""
    if n > MAX_ENUM_SIZE:
        raise CapacityError(f"feasible enumeration capped at n={MAX_ENUM_SIZE}, got {n}")
    return tuple(sum(1 << (pos * n + city) for pos, city in enumerate(perm))
                 for perm in itertools.permutations(range(n)))


def feasible_indices(n: int) -> np.ndarray:
    return np.array(enumerate_feasible(n), dtype=np.int64)


@lru_cache(maxsize=None)
def feasible_subspace_indices(n: int) -> np.ndarray:
    """Indices of the n! all-distinct symbol tuples (lexicographic order) in
    the C-order [n]*n one-hot tensor."""
    perms = np.fromiter(itertools.permutations(range(n)), dtype=(np.int64, n))
    return np.ravel_multi_index(perms.T, (n,) * n)


# ---------------------------------------------------------------------------
# dense cost tables

def _dense_cost(patterns, dist, A, include_penalty, dtypes):
    """Cost table over every choice of one bit pattern from ``patterns`` per
    row, row 0 the least significant digit: ``np.arange(2**n)`` gives the
    full table indexed by label, ``1 << np.arange(n)`` the one-hot manifold.

    The table over rows 0..k-1 is the first m**k entries of the table over
    rows 0..k (m patterns), so each row block extends it in place by m slabs,
    one per pattern of the new row, built straight in ``dtype``.

    The column penalty is A*(n - sum_i |r_i| + 2 sum_{i<i'} |r_i & r_i'|):
    the constant and the |r_i| part join the row term, the overlap part the
    pair terms.  Before anything is allocated, the sum of each term's largest
    value (n row terms, n(n-1)/2 overlaps, n tour steps, in Python ints; on the
    full table at n >= 3, the all-ones cost) picks the first of ``dtypes`` that
    holds it.  Every term then fits, and a partial sum that wraps still ends exact.
    """
    n, m = len(dist), len(patterns)
    bits = ((patterns[:, None] >> np.arange(n)) & 1).astype(object)   # Python ints
    popc = bits.sum(axis=1)
    pen = int(A) if include_penalty else 0
    row = pen * ((popc - 1) ** 2 - popc)
    overlap = 2 * pen * (bits @ bits.T)
    tour = bits @ np.asarray(dist, dtype=object) @ bits.T   # [r_t, r_{t+1}]
    top = pen * n + n * row.max() + n * (n - 1) // 2 * overlap.max() + n * tour.max()
    if top > np.iinfo(dtypes[-1]).max:
        raise CapacityError(f"largest cost {top} overflows the {np.dtype(dtypes[-1]).name} "
                            f"cost table at n={n}; use smaller distances")
    dtype = next(t for t in dtypes if top <= np.iinfo(t).max)
    row, overlap, tour = row.astype(dtype), overlap.astype(np.int64), tour.astype(np.int64)

    def pair(j, k, r):
        # terms coupling row k (= r) to row j < k, over r_j on axis k-1-j: the
        # overlap, the tour step j -> k, and for j = 0, k = n-1 the step back
        vec = overlap[r] + (tour[:, r] if j == k - 1 else 0) + (tour[r] if k - j == n - 1 else 0)
        shape = [1] * k
        shape[k - 1 - j] = m
        return vec.astype(dtype).reshape(shape)

    table = np.empty(m ** n, dtype=dtype)
    table[:m] = row + dtype(pen * n)
    for k in range(1, n):
        prev = table[:m ** k].reshape([m] * k)
        for r in range(m - 1, -1, -1):   # slab 0 is prev: extended last, in place
            slab = table[r * m ** k:(r + 1) * m ** k].reshape([m] * k)
            np.add(prev, pair(k - 1, k, r) + row[r], out=slab)
            for j in range(k - 1):
                slab += pair(j, k, r)
    return table


def build_cost(cost: DiagonalCost) -> DiagonalCost:
    """Build and keep ``cost``'s dense table over all 2**(n*n) labels (index =
    integer label), int32 at n = 5 to halve the 2**25 table, int64 below, and
    return ``cost``.  A table whose largest cost could pass the dtype is
    refused (see _dense_cost)."""
    if cost._vector is None:
        n = cost.n
        if n > MAX_DENSE_COST_SIZE:
            raise CapacityError(f"dense cost table capped at n={MAX_DENSE_COST_SIZE}, got {n}")
        object.__setattr__(cost, "_vector", _dense_cost(
            np.arange(1 << n), cost.dist, cost.penalty_weight, cost.include_penalty,
            (np.int32 if n == 5 else np.int64,)))
    return cost
