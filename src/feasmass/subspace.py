"""CE-QAOA simulation inside the n**n block-one-hot manifold.

A subspace state is a 1-D complex ndarray of length n**n, passed with its n as a full-space
state is (a relabeling target's length is its n); the block mixer and the feasible mass also
take a (rows, n**n) batch, one state per row (the mixer runs more than one _CHUNK in slabs on
the thread pool).  Flat index and symbol tuple are related by C-order ravel over shape (n,)*n:
block 0 is the most significant digit, index(j_1..j_n) = sum_b j_b * n**(n-1-b).  Block b maps
to full-space bits [b*n, (b+1)*n); symbol j in block b sets bit b*n + j: an int64 label up to
n = 7 (instance.check_label_bits).  The permutations are instance.permutation_table's.

The cost table is the full-space cost builder run over one-hot rows
(instance._dense_cost), so both tables come from one formula and one width rule, and
a run checks its predicted peak (instance.check_run) before the table is built.  The block mixer
sector, the relabeling twirl and the leakage spectrum are closed forms; their
brute-force versions (dense Pauli sum, relabeling enumeration, dense sector
unitary, manifold mixer and per-axis pass, full-space embedding) are test oracles.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import fullspace
from .fullspace import (AngleSchedule, apply_cost_phase, apply_x_mixer, cost_levels, init_plus,
                        norm_squared)
from .instance import (DiagonalCost, _dense_cost, check_label_bits, check_run,
                       feasible_subspace_indices, permutation_table)


@functools.lru_cache(maxsize=None)
def subspace_to_full_labels(n: int) -> np.ndarray:
    """Bijection subspace index -> full-space label, as an index array."""
    check_label_bits(n)
    out = np.zeros([n] * n, dtype=np.int64)
    for b in range(n):   # block b sets bit b*n + j_b, j_b on axis b (trailing 1s put it there)
        bits = np.int64(1) << (b * n + np.arange(n, dtype=np.int64))
        out += bits.reshape((-1,) + (1,) * (n - 1 - b))
    return out.reshape(-1)


def init_w_product(n: int) -> np.ndarray:
    """Product of per-block uniform single-excitation states: all amps n**(-n/2)."""
    return np.full(n ** n, float(n) ** (-n / 2), dtype=np.complex128)


# ---------------------------------------------------------------------------
# cost on the manifold

def subspace_cost_table(cost: DiagonalCost) -> np.ndarray:
    """C restricted to one-hot tuples: the dense-cost builder over the n
    one-hot row patterns, so it agrees with the full table on embedded
    labels, int32 or int64 by the same bound (instance._cost_terms).

    The builder's row 0 is its least significant digit and the manifold's
    block 0 its most significant, so builder row i is block n-1-i and the
    tour, block b to b+1, runs from builder row i+1 to i: the builder's
    forward tour over dist.T.
    """
    return _dense_cost(cost, True)


def apply_subspace_cost_phase(state: np.ndarray, levels: tuple, gamma: float) -> np.ndarray:
    """Multiply amplitude k by exp(-i*gamma*cost[k]): the full-space kernel."""
    return apply_cost_phase(state, levels, gamma)


# ---------------------------------------------------------------------------
# block XY mixer

def block_mixer_eigenvalues(n: int, normalized: bool) -> tuple:
    """Eigenvalues of the block-XY sector 2(J - I): 2(n-1) on the uniform
    vector and -2 on its complement, both divided by n-1 when normalized."""
    scale = 1.0 / (n - 1) if normalized else 1.0
    return 2.0 * (n - 1) * scale, -2.0 * scale


def apply_block_xy_mixer(state: np.ndarray, n: int, beta, normalized: bool) -> np.ndarray:
    """Per-block sector exponential via the two-eigenspace closed form on a
    C-contiguous (rows, n**n) batch, one beta per row (or a 1-D state).

    exp(-i b H_sec) = e^{-i b l_perp} I + (e^{-i b l_unif} - e^{-i b l_perp}) P_unif,
    so one mean along each block axis suffices, axis 0 first.  Through
    fullspace._chunks, the t trailing axes (n**t <= _CHUNK) go in slabs of
    whole rows, after any leading ones in stripes of two or more columns (one
    reduces in another order): the same bits at any _CHUNK and thread count.
    The means go to one array made here, so no pool thread allocates them.
    """
    b = -1j * np.asarray(beta, dtype=np.float64).reshape(-1, 1)
    eu, ep = (np.exp(b * lam) for lam in block_mixer_eigenvalues(n, normalized))
    de, chunk, means = eu - ep, fullspace._CHUNK, np.empty(state.size // n, dtype=state.dtype)
    t = max(t for t in range(1, n + 1) if n ** t <= chunk)
    lead, tail = n ** (n - t), n ** t

    def mix(block, e, d, axes, at):   # block's means in means[at:at + block.size // n]
        for axis in axes:
            m = means[at:at + block.size // n].reshape(
                block.shape[:axis] + (1,) + block.shape[axis + 1:])
            np.add.reduce(block, axis, keepdims=True, out=m)
            block *= e
            block += np.multiply(d, np.divide(m, n, out=m), out=m)   # arr.mean's sum and divide
    if t < n:   # leading axes: each row in s column stripes
        v, s = state.reshape((-1,) + (n,) * (n - t) + (tail,)), tail // max(2, chunk // lead)

        def stripe(lo):
            r, c = divmod(lo // chunk, s)
            cols = slice(c * tail // s, (c + 1) * tail // s)
            at = (r * tail + cols.start) * lead // n   # after the stripes before it
            mix(v[r, ..., cols], ep[r, 0], de[r, 0], range(n - t), at)
        fullspace._chunks(stripe, len(v) * s * chunk)
    rows, h = state.reshape((-1,) + (n,) * t), chunk // tail
    e, d = (np.repeat(x, lead).reshape((-1,) + (1,) * t) for x in (ep, de))
    fullspace._chunks(lambda lo: mix(rows[(i := lo // chunk * h):i + h], e[i:i + h], d[i:i + h],
                                     range(1, t + 1), i * tail // n), -(-len(rows) // h) * chunk)
    return state


def run_ce(cost: DiagonalCost, schedule: AngleSchedule, normalized: bool) -> np.ndarray:
    """Depth-p CE-QAOA: alternate cost phase and block mixer from the W product."""
    check_run(cost, True, np.complex128, 0, f"a CE run at n={cost.n}")
    levels = cost_levels(subspace_cost_table(cost))
    state = init_w_product(cost.n)
    for gamma, beta in zip(schedule.gammas, schedule.betas):
        apply_subspace_cost_phase(state, levels, gamma)
        apply_block_xy_mixer(state, cost.n, beta, normalized)
    return state


def subspace_feasible_mass(state: np.ndarray, n: int):
    """Probability on all-distinct symbol tuples: a float, or per batch row, each row summed as
    alone (take's rows are C-contiguous, where state[..., index]'s are not from n! = 8)."""
    mass = np.sum(np.abs(state.take(feasible_subspace_indices(n), -1)) ** 2, axis=-1)
    return float(mass) if state.ndim == 1 else mass


# ---------------------------------------------------------------------------
# blockwise relabelings

def twirl_average(state: np.ndarray, n: int) -> float:
    """Mean target-overlap probability over all blockwise relabelings.

    A relabeling P permutes symbols per block and |<t|P^dag|state>|^2 =
    |state[(P_b(t_b))_b]|^2.  Over all (n!)**n of them each block sends t_b
    to every symbol equally often, so the mean is ||state||**2 / n**n for
    every target and every n.
    """
    return norm_squared(state) / float(n) ** n


def best_block_relabeling(state: np.ndarray, target):
    """Relabeling maximizing the target-overlap probability, and that probability.

    The maximum is max_j |state_j|**2 (at least the mean 1/n**n for a unit
    state), reached by the per-block transposition of t_b and j_b; n is len(target).
    """
    n = len(target)
    k = int(np.argmax(np.abs(state)))
    at = map(int, np.unravel_index(k, (n,) * n))   # j_b per block
    perms = tuple(tuple({t: j, j: t}.get(s, s) for s in range(n)) for t, j in zip(target, at))
    return perms, float(abs(state[k]) ** 2)


# ---------------------------------------------------------------------------
# bridge to the full space

def overlap_generic_ce(cost: DiagonalCost, gamma: float, beta: float) -> complex:
    """Subspace-projected overlap between one CE layer and one generic layer.

    Each side applies its mixer to its own initial state first and the
    diagonal cost phase second.  Both initial states are mixer eigenstates,
    and the two cost phases meet across the diagonal one-hot projector and
    cancel, so the modulus is pinned at n**(n/2) / 2**(n**2/2) for every
    angle pair.  (With the cost phase first, as in the layered circuits, the
    cancellation is broken and the overlap depends on the angles.)

    The CE side uses the unnormalized block mixer.
    """
    n = cost.n   # both runs, the label map and the gathered sector
    ce = check_run(cost, True, np.complex128, 24 * n ** n, what := f"the overlap at n={n}")
    check_run(cost, False, np.complex128, ce, what)
    gen = init_plus(cost.num_qubits, np.complex128)   # in the X mixer's frame
    apply_x_mixer(gen, beta)
    apply_cost_phase(gen, cost_levels(cost.cost_vector()), gamma)
    ce = init_w_product(n)
    apply_block_xy_mixer(ce, n, beta, normalized=False)
    apply_subspace_cost_phase(ce, cost_levels(subspace_cost_table(cost)), gamma)
    return complex(np.vdot(ce, gen[subspace_to_full_labels(n)]) * 1j ** n)   # P = (-i)**n there


# ---------------------------------------------------------------------------
# mixer leakage across the permutation set

def leakage_spectrum(n: int) -> list:
    """(partition lam, eigenvalue, multiplicity) of leakage_gram, (n) first and
    (1**n) last: T acts on the isotypic component of lam as its content sum,
    with multiplicity (f^lam)**2, f^lam = n! over the hook lengths (Diaconis
    and Shahshahani 1981).  The uniform state leaks 16n(n-1), the sign state 0."""
    out = []
    for lam in (lam for k in range(1, n + 1)
                for lam in itertools.combinations_with_replacement(range(n, 0, -1), k)
                if sum(lam) == n):
        cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
        height = [sum(row > j for row in lam) for j in range(lam[0])]
        hooks = math.prod(lam[i] - j + height[j] - i - 1 for i, j in cells)
        content = sum(j - i for i, j in cells)
        out.append((lam, 8 * n * (n - 1) + 16 * content, (math.factorial(n) // hooks) ** 2))
    return out


def leakage_gram(n: int) -> np.ndarray:
    """2 P H (I-P) H P on the permutations (order of feasible_subspace_indices),
    H the unnormalized block mixer, P the projector onto the permutations.
    Every block move from a permutation makes a collision, so it is
    8n(n-1) I + 16 T, T linking permutations one transposition apart."""
    perms = permutation_table(n)
    T = (perms[:, None] != perms).sum(axis=2) == 2
    return 8.0 * n * (n - 1) * np.eye(len(perms)) + 16.0 * T
