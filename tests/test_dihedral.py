"""Dihedral symmetry of the cyclic tour.

Moving every tour position by t -> t+k (rotation) or t -> k-t (reversal)
permutes the qubits row block by row block, and on the manifold it permutes
the blocks.  |+>, the X mixer, the W product, the block mixer and the
permutation set are invariant under any such move.  A rotation also fixes
both cost tables, because the tour is cyclic, so every generic and CE state
is rotation invariant.  A reversal runs the tour backwards, which is the
same as transposing ``dist``: it maps each table and state to those of the
transposed instance, and so fixes them when ``dist`` is symmetric.  On the
full table it fixes them only then (from n = 3; at n = 2 a reversal is a
rotation).
"""
import math
from dataclasses import replace

import hypothesis.strategies as hs
import numpy as np
from hypothesis import given, settings

from feasmass.fullspace import AngleSchedule, run_generic
from feasmass.instance import DiagonalCost, make_instance
from feasmass.subspace import run_ce, subspace_cost_table


def _positions(n: int, k: int, reverse: bool) -> np.ndarray:
    """Where each tour position goes: t -> k - t or t -> k + t, mod n."""
    t = np.arange(n)
    return (k - t) % n if reverse else (k + t) % n


def full_label_map(n: int, k: int, reverse: bool) -> np.ndarray:
    """For every label, the label whose row at position _positions(t) is
    row t of the original (row t = bits [t*n, (t+1)*n))."""
    labels = np.arange(1 << (n * n), dtype=np.int64)
    out = np.zeros_like(labels)
    for t, moved in enumerate(_positions(n, k, reverse)):
        out |= ((labels >> (t * n)) & ((1 << n) - 1)) << (int(moved) * n)
    return out


def manifold_index_map(n: int, k: int, reverse: bool) -> np.ndarray:
    """For every subspace index, the index of the tuple whose block at
    position _positions(b) holds the symbol of block b."""
    symbols = np.unravel_index(np.arange(n ** n), (n,) * n)
    moved = [None] * n
    for b, to in enumerate(_positions(n, k, reverse)):
        moved[to] = symbols[b]
    return np.ravel_multi_index(moved, (n,) * n)


def transposed(cost: DiagonalCost) -> DiagonalCost:
    return replace(cost, dist=cost.dist.T)


@hs.composite
def costs_and_moves(draw, sizes):
    """A cost with random small distances, symmetric about half the time
    and with the penalty on or off, plus a move (k, reverse)."""
    n = draw(hs.sampled_from(sizes))
    dist = np.array(draw(hs.lists(hs.integers(0, 9), min_size=n * n,
                                  max_size=n * n))).reshape(n, n)
    if draw(hs.booleans()):
        dist = dist + dist.T
    np.fill_diagonal(dist, 0)
    cost = replace(make_instance(dist, "unnamed"), include_penalty=draw(hs.booleans()))
    return cost, draw(hs.integers(0, n - 1)), draw(hs.booleans())


def _symmetric(cost: DiagonalCost) -> bool:
    return bool(np.array_equal(cost.dist, cost.dist.T))


@settings(max_examples=80, deadline=None, database=None)
@given(costs_and_moves([2, 3]))
def test_full_cost_table_is_dihedral(case):
    cost, k, reverse = case
    table = cost.cost_vector()
    moved = table[full_label_map(cost.n, k, reverse)]
    if not reverse:
        assert np.array_equal(moved, table)
        return
    assert np.array_equal(moved, transposed(cost).cost_vector())
    assert np.array_equal(moved, table) == (_symmetric(cost) or cost.n == 2)


@settings(max_examples=80, deadline=None, database=None)
@given(costs_and_moves([2, 3, 4, 5]))
def test_ce_cost_table_is_dihedral(case):
    # only one way round: on the manifold a reversal also fixes the table of
    # some asymmetric dist, those whose antisymmetric part d - d.T is
    # f(v) - f(u), because the tour's circulation of it then vanishes
    cost, k, reverse = case
    table = subspace_cost_table(cost)
    moved = table[manifold_index_map(cost.n, k, reverse)]
    if not reverse:
        assert np.array_equal(moved, table)
        return
    assert np.array_equal(moved, subspace_cost_table(transposed(cost)))
    if _symmetric(cost):
        assert np.array_equal(moved, table)


angles = hs.lists(hs.floats(0.0, math.pi), min_size=4, max_size=4).map(
    lambda a: AngleSchedule(gammas=a[:2], betas=a[2:]))


@settings(max_examples=40, deadline=None, database=None)
@given(costs_and_moves([2, 3]), angles)
def test_generic_states_are_dihedral(case, schedule):
    cost, k, reverse = case
    state = run_generic(cost, schedule, "f64")
    moved = state[full_label_map(cost.n, k, reverse)]
    want = run_generic(transposed(cost), schedule, "f64") if reverse else state
    assert np.abs(moved - want).max() <= 1e-13
    if _symmetric(cost):
        assert np.abs(moved - state).max() <= 1e-13


@settings(max_examples=40, deadline=None, database=None)
@given(costs_and_moves([2, 3, 4, 5]), angles, hs.booleans())
def test_ce_states_are_dihedral(case, schedule, normalized):
    cost, k, reverse = case
    state = run_ce(cost, schedule, normalized)
    moved = state[manifold_index_map(cost.n, k, reverse)]
    want = run_ce(transposed(cost), schedule, normalized) if reverse else state
    assert np.abs(moved - want).max() <= 1e-13
    if _symmetric(cost):
        assert np.abs(moved - state).max() <= 1e-13


def test_ce_reversal_fixes_a_gradient_asymmetric_table():
    # d[u, v] = v - u above the diagonal: d - d.T = f(v) - f(u) with f = id,
    # so every tour's circulation of it vanishes on the manifold, while a
    # label with only two nonempty rows still tells the directions apart
    dist = np.array([[0, 1, 2], [0, 0, 1], [0, 0, 0]])
    cost = make_instance(dist, "unnamed")
    table, full = subspace_cost_table(cost), cost.cost_vector()
    for k in range(3):
        assert np.array_equal(table[manifold_index_map(3, k, True)], table)
        assert not np.array_equal(full[full_label_map(3, k, True)], full)
