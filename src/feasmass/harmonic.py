"""Boolean-cube harmonic analysis: Walsh transform, Krawtchouk polynomials,
sphere and permutation-indicator spectra.

Normalization is fixed once for the whole package: the forward transform is
f_hat(S) = 2**-N * sum_x f(x) * (-1)^(S.x), so Parseval reads
sum_x |f|^2 = 2**N * sum_S |f_hat|^2.
"""
from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .instance import CapacityError, feasible_indices

MAX_TRANSFORM_BITS = 20


def popcounts(num_bits: int) -> np.ndarray:
    """Popcount of every value in [0, 2**num_bits)."""
    return np.bitwise_count(np.arange(1 << num_bits, dtype=np.uint32)).astype(np.int64)


def num_bits_of(length: int) -> int:
    n = length.bit_length() - 1
    if length <= 0 or (1 << n) != length:
        raise ValueError(f"table length {length} is not a power of two")
    return n


def _fwht_inplace(a: np.ndarray) -> np.ndarray:
    """Unnormalized in-place Walsh-Hadamard butterfly; applied twice = 2**N * I."""
    h = 1
    size = a.shape[0]
    while h < size:
        v = a.reshape(-1, 2, h)
        x = v[:, 0, :].copy()
        v[:, 0, :] = x + v[:, 1, :]
        v[:, 1, :] = x - v[:, 1, :]
        h *= 2
    return a


def walsh_transform(values) -> np.ndarray:
    """Forward transform under the 2**-N normalization."""
    a = np.array(values, dtype=np.complex128)
    n = num_bits_of(a.shape[0])
    if n > MAX_TRANSFORM_BITS:
        raise CapacityError(f"transform capped at {MAX_TRANSFORM_BITS} bits, got {n}")
    _fwht_inplace(a)
    a *= 2.0 ** (-n)
    return a


# ---------------------------------------------------------------------------
# Krawtchouk polynomials (exact integers)

def krawtchouk(n: int, w: int, r: int) -> int:
    """K_w(r) on n bits via the alternating binomial sum."""
    if not (0 <= w <= n and 0 <= r <= n):
        raise ValueError(f"indices out of range: n={n}, w={w}, r={r}")
    return sum((-1) ** j * math.comb(r, j) * math.comb(n - r, w - j)
               for j in range(0, w + 1))


@lru_cache(maxsize=None)
def krawtchouk_table(n: int) -> tuple:
    """(n+1)x(n+1) integer table indexed [w][r]."""
    return tuple(tuple(krawtchouk(n, w, r) for r in range(n + 1))
                 for w in range(n + 1))


def krawtchouk_orthogonality_check(n: int, table=None) -> bool:
    """Exact check of sum_r C(n,r) K_w(r) K_w'(r) = 2**n C(n,w) delta_ww'."""
    if n > 12:
        raise CapacityError("orthogonality check uses exact integers up to n=12")
    K = table if table is not None else krawtchouk_table(n)
    binom = [math.comb(n, r) for r in range(n + 1)]
    for w in range(n + 1):
        for wp in range(n + 1):
            s = sum(binom[r] * K[w][r] * K[wp][r] for r in range(n + 1))
            expect = (1 << n) * binom[w] if w == wp else 0
            if s != expect:
                return False
    return True


def sphere_spectrum(n: int, w: int) -> np.ndarray:
    """Spectrum of the Hamming-sphere indicator |x|=w: radially 2**-n K_w(|S|)."""
    if n > 16:
        raise CapacityError("sphere spectrum capped at n=16")
    K = krawtchouk_table(n)[w]
    profile = np.array(K, dtype=np.float64) * 2.0 ** (-n)
    return profile[popcounts(n)].astype(np.complex128)


def sphere_indicator(n: int, w: int) -> np.ndarray:
    return (popcounts(n) == w).astype(np.float64)


def low_degree_mass(spectrum: np.ndarray, d: int) -> float:
    """Spectral energy on frequency masks of popcount <= d."""
    n = num_bits_of(len(spectrum))
    sel = popcounts(n) <= d
    return float(np.sum(np.abs(spectrum[sel]) ** 2))


# ---------------------------------------------------------------------------
# permutation indicator

class PermutationSpectra(NamedTuple):
    full: np.ndarray   # spectrum of the permutation indicator
    row: np.ndarray    # spectrum of the all-rows-one-hot indicator
    col: np.ndarray    # spectrum of the all-columns-one-hot indicator


def row_indicator(n: int) -> np.ndarray:
    N = n * n
    pc = popcounts(n)
    ok = np.ones(1 << N, dtype=bool)
    idx = np.arange(1 << N)
    row_mask = (1 << n) - 1
    for i in range(n):
        ok &= pc[(idx >> (i * n)) & row_mask] == 1
    return ok.astype(np.float64)


def col_indicator(n: int) -> np.ndarray:
    N = n * n
    idx = np.arange(1 << N)
    ok = np.ones(1 << N, dtype=bool)
    for j in range(n):
        col = np.zeros(1 << N, dtype=np.int64)
        for i in range(n):
            col += (idx >> (i * n + j)) & 1
        ok &= col == 1
    return ok.astype(np.float64)


def permutation_indicator(n: int) -> np.ndarray:
    out = np.zeros(1 << (n * n), dtype=np.float64)
    out[feasible_indices(n)] = 1.0
    return out


def permutation_spectrum(n: int) -> PermutationSpectra:
    """Spectra of the permutation, row-one-hot and column-one-hot indicators."""
    if n > 4:
        raise CapacityError("permutation spectrum capped at n=4 (N=16)")
    return PermutationSpectra(full=walsh_transform(permutation_indicator(n)),
                              row=walsh_transform(row_indicator(n)),
                              col=walsh_transform(col_indicator(n)))


def row_spectrum_closed_form(n: int) -> np.ndarray:
    """2**-N prod_i (n - 2|S_i|) where S_i is the mask restricted to row i."""
    N = n * n
    pc = popcounts(n)
    idx = np.arange(1 << N)
    row_mask = (1 << n) - 1
    prod = np.ones(1 << N, dtype=np.float64)
    for i in range(n):
        prod *= n - 2 * pc[(idx >> (i * n)) & row_mask]
    return (prod * 2.0 ** (-N)).astype(np.complex128)


def dyadic_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a*b)(S) = sum_T a(T) b(S xor T), via the transform pair."""
    n = num_bits_of(len(a))
    fa = _fwht_inplace(np.array(a, dtype=np.complex128))
    fb = _fwht_inplace(np.array(b, dtype=np.complex128))
    return _fwht_inplace(fa * fb) * 2.0 ** (-n)


# ---------------------------------------------------------------------------
# mixer action in the Walsh basis

def mixer_walsh_multiplier(num_bits: int, s: int, beta: float) -> complex:
    """Unit-modulus eigenvalue exp(-i beta (N - 2s)) of the product-X kernel."""
    if not 0 <= s <= num_bits:
        raise ValueError(f"degree {s} out of range for {num_bits} bits")
    return cmath.exp(-1j * beta * (num_bits - 2 * s))


def feasible_mass_via_plancherel(state: np.ndarray, n: int) -> float:
    """P over the permutation set from the spectra of 1_perm and |amps|^2."""
    if n > 4:
        raise CapacityError("Plancherel route capped at n=4")
    N = n * n
    p = np.abs(np.asarray(state)) ** 2
    p_hat = walsh_transform(p)
    pi_hat = permutation_spectrum(n).full
    return float(np.real((1 << N) * np.sum(np.conj(pi_hat) * p_hat)))
