"""Boolean-cube harmonic analysis: Walsh transform, Krawtchouk polynomials,
sphere and permutation-indicator spectra.

Normalization is fixed once for the whole package: the forward transform is
f_hat(S) = 2**-N * sum_x f(x) * (-1)^(S.x), so Parseval reads
sum_x |f|^2 = 2**N * sum_S |f_hat|^2.  What makes 2**N entries checks its bytes first.
"""
from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .instance import CapacityError, check_bytes, feasible_indices


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
    for k in range(a.shape[0].bit_length() - 1):   # both sides are made before either lands
        v = a.reshape(-1, 2, 1 << k)
        v[:, 0], v[:, 1] = v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]
    return a


def walsh_transform(values) -> np.ndarray:
    """Forward transform under the 2**-N normalization."""
    n = num_bits_of(len(values))
    check_bytes(32 << n, f"a {n}-bit transform")   # a complex copy, two half-length sums
    a = np.array(values, dtype=np.complex128)
    return np.multiply(_fwht_inplace(a), 2.0 ** (-n), out=a)


# ---------------------------------------------------------------------------
# Krawtchouk polynomials (exact integers)

def krawtchouk(n: int, w: int, r: int) -> int:
    """K_w(r) on n bits via the alternating binomial sum."""
    if not (0 <= w <= n and 0 <= r <= n):
        raise ValueError(f"indices out of range: n={n}, w={w}, r={r}")
    return sum((-1) ** j * math.comb(r, j) * math.comb(n - r, w - j) for j in range(w + 1))


@lru_cache(maxsize=None)
def krawtchouk_table(n: int) -> tuple:
    """(n+1)x(n+1) integer table indexed [w][r]."""
    return tuple(tuple(krawtchouk(n, w, r) for r in range(n + 1)) for w in range(n + 1))


def krawtchouk_orthogonality_check(n: int) -> bool:
    """Exact check of sum_r C(n,r) K_w(r) K_w'(r) = 2**n C(n,w) delta_ww'."""
    if n > 12:
        raise CapacityError("orthogonality check uses exact integers up to n=12 (run time)")
    K = krawtchouk_table(n)
    binom = [math.comb(n, r) for r in range(n + 1)]
    return all(sum(binom[r] * K[w][r] * K[wp][r] for r in range(n + 1))
               == ((1 << n) * binom[w] if w == wp else 0)
               for w in range(n + 1) for wp in range(n + 1))


def sphere_spectrum(n: int, w: int) -> np.ndarray:
    """Spectrum of the Hamming-sphere indicator |x|=w: radially 2**-n K_w(|S|)."""
    check_bytes(32 << n, f"the sphere spectrum at n={n}")   # int64 popcounts, floats, result
    profile = np.array(krawtchouk_table(n)[w], dtype=np.float64) * 2.0 ** (-n)
    return profile[popcounts(n)].astype(np.complex128)


def sphere_indicator(n: int, w: int) -> np.ndarray:
    return (popcounts(n) == w).astype(np.float64)


# ---------------------------------------------------------------------------
# permutation indicator

class PermutationSpectra(NamedTuple):
    full: np.ndarray   # spectrum of the permutation indicator
    row: np.ndarray    # spectrum of the all-rows-one-hot indicator
    col: np.ndarray    # spectrum of the all-columns-one-hot indicator


def _one_bit_each(n: int, masks) -> np.ndarray:
    """Indicator of the N-bit labels with exactly one bit set in each mask."""
    labels = np.arange(1 << (n * n))
    return np.logical_and.reduce([np.bitwise_count(labels & m) == 1 for m in masks]).astype(float)


def permutation_indicator(n: int) -> np.ndarray:
    out = np.zeros(1 << (n * n), dtype=np.float64)
    out[feasible_indices(n)] = 1.0
    return out


def permutation_spectrum(n: int) -> PermutationSpectra:
    """Spectra of the permutation, row-one-hot and column-one-hot indicators."""
    check_bytes(72 << n * n, f"the permutation spectra at n={n}")   # 2 kept, 1 transforming
    rows = [((1 << n) - 1) << (i * n) for i in range(n)]
    cols = [sum(1 << (i * n + j) for i in range(n)) for j in range(n)]
    return PermutationSpectra(full=walsh_transform(permutation_indicator(n)),
                              row=walsh_transform(_one_bit_each(n, rows)),
                              col=walsh_transform(_one_bit_each(n, cols)))


def row_spectrum_closed_form(n: int) -> np.ndarray:
    """2**-N prod_i (n - 2|S_i|) where S_i is the mask restricted to row i."""
    labels = np.arange(1 << (n * n))
    prod = np.prod([n - 2 * np.bitwise_count(labels & (((1 << n) - 1) << (i * n))).astype(np.int64)
                    for i in range(n)], axis=0, dtype=np.float64)
    return (prod * 2.0 ** (-n * n)).astype(np.complex128)


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
    check_bytes(64 << n * n, f"the Plancherel route at n={n}")   # 2 spectra, a conj, a product
    pi_hat = walsh_transform(permutation_indicator(n))
    p_hat = walsh_transform(np.abs(np.asarray(state)) ** 2)
    return float(np.real((1 << n * n) * np.sum(np.conj(pi_hat) * p_hat)))
