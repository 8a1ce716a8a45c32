import functools
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import hypothesis.strategies as hs
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import expm

from feasmass.fullspace import AngleSchedule, cost_levels, feasible_mass, run_generic
from feasmass.instance import (CapacityError, _dense_cost, feasible_indices,
                               feasible_subspace_indices, make_instance,
                               synthetic_instance)
from feasmass.subspace import (apply_block_xy_mixer, apply_subspace_cost_phase,
                               best_block_relabeling, block_mixer_eigenvalues,
                               init_w_product, leakage_gram, leakage_spectrum,
                               overlap_generic_ce, run_ce,
                               subspace_cost_table, subspace_feasible_mass,
                               subspace_to_full_labels, twirl_average)

from oracles import (axiswise_block_mixer, block_mixer_sector, block_mixer_unitary, cost_value,
                     dense_leakage_gram, embed_to_full, enumerated_twirl,
                     pauli_block_sector, phase_error, project_to_subspace, tuple_to_label)


def index(symbols, n: int) -> int:
    """Subspace index of a symbol tuple: C order over shape (n,)*n."""
    return int(np.ravel_multi_index(tuple(symbols), (n,) * n))


def label(k: int, n: int) -> int:
    """Full-space label of subspace index k, in Python ints (any n)."""
    return tuple_to_label(np.unravel_index(k, (n,) * n), n)


def test_label_map_matches_per_tuple_labels():
    for n in range(2, 8):
        labels = subspace_to_full_labels(n)
        assert labels.dtype == np.int64 and labels.shape == (n ** n,)
        ks = (range(n ** n) if n <= 5
              else np.random.default_rng(n).integers(0, n ** n, 2000))
        for k in ks:
            assert labels[k] == label(int(k), n)


def test_init_w_product_values(monkeypatch):
    assert np.allclose(init_w_product(2), 0.5)
    assert np.allclose(init_w_product(3), 3.0 ** -1.5)
    st = init_w_product(5)
    assert st.shape == (3125,)
    assert abs(np.vdot(st, st).real - 1) < 1e-12
    # the subspace is capped by the memory budget, which the run checks
    # before it makes its W product or its cost table: n = 9 is refused
    import feasmass.subspace as sub
    def unreachable(*args, **kwargs):
        raise AssertionError("allocated before the budget check")
    monkeypatch.setattr(sub, "init_w_product", unreachable)
    monkeypatch.setattr(sub, "_dense_cost", unreachable)
    with pytest.raises(CapacityError, match=r"^a CE run at n=9 needs \d+ bytes; memory capped"):
        run_ce(synthetic_instance(9, seed=1), AngleSchedule.single(0.1, 0.1))


def test_subspace_cost_matches_full_cost():
    for n in (2, 3):
        cost = synthetic_instance(n, seed=1, high=5)
        table = subspace_cost_table(cost)
        labels = subspace_to_full_labels(n)
        full = cost.cost_vector()
        assert np.array_equal(full[labels], table)


@hs.composite
def one_hot_costs(draw):
    """Random asymmetric distances with a zero diagonal, penalty on or off."""
    n = draw(hs.sampled_from([2, 3, 4]))
    dist = np.array(draw(hs.lists(hs.integers(0, 10 ** 12), min_size=n * n,
                                  max_size=n * n))).reshape(n, n)
    np.fill_diagonal(dist, 0)
    return replace(make_instance(dist), include_penalty=draw(hs.booleans()))


@settings(max_examples=60, deadline=None, database=None)
@given(one_hot_costs())
def test_subspace_cost_table_is_full_table_on_one_hot_labels(cost):
    # a tour term read the wrong way round (dist for dist.T) only shows on
    # an asymmetric matrix
    table = subspace_cost_table(cost)
    labels = subspace_to_full_labels(cost.n)
    assert table.dtype == np.int64
    assert np.array_equal(table, cost.cost_vector()[labels])
    assert table.tolist() == [cost_value(cost, int(y)) for y in labels]


@pytest.mark.parametrize("n", [6, 7, 8])
def test_subspace_cost_table_sampled_asymmetric(n):
    rng = np.random.default_rng(n)
    dist = rng.integers(0, 10 ** 9, size=(n, n))
    np.fill_diagonal(dist, 0)
    cost = make_instance(dist)
    table = subspace_cost_table(cost)
    ks = rng.integers(0, n ** n, size=300).tolist()
    assert [int(table[k]) for k in ks] == [cost_value(cost, label(k, n)) for k in ks]


@pytest.mark.parametrize("n, d", [(4, 10 ** 18), (7, 10 ** 17)])
def test_subspace_cost_table_refuses_int64_overflow(n, d):
    # the bound A*n*(n-1) + n*max(d) passes int64 max; unguarded, these
    # tables wrapped negative at n=4 and held wrong entries at n=7
    dist = np.full((n, n), d)
    np.fill_diagonal(dist, 0)
    cost = make_instance(dist)
    top = cost.penalty_weight * n * (n - 1) + n * d
    with pytest.raises(CapacityError, match=f"largest cost {top} overflows the int64 "
                                            f"cost table at n={n}"):
        subspace_cost_table(cost)


def test_subspace_cost_table_refused_before_allocation():
    import tracemalloc
    dist = np.full((8, 8), 10 ** 17)
    np.fill_diagonal(dist, 0)
    cost = make_instance(dist)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            subspace_cost_table(cost)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20   # the refused table would be 128 MiB


# 21*d + 6 = A*n*(n-1) + n*d at n = 3 with A = 3d + 1: the largest d that fits
UNDER_BOUND = (np.iinfo(np.int64).max - 6) // 21


def test_subspace_cost_table_just_under_the_bound_is_exact():
    for d, fits in ((UNDER_BOUND, True), (UNDER_BOUND + 1, False)):
        dist = np.array([[0, d, 1], [2, 0, d], [d, 3, 0]])
        cost = make_instance(dist)
        if not fits:
            with pytest.raises(CapacityError, match="overflows"):
                subspace_cost_table(cost)
            continue
        table = subspace_cost_table(cost)
        assert table.tolist() == [cost_value(cost, int(y)) for y in subspace_to_full_labels(3)]
        assert int(table.max()) == 6 * cost.penalty_weight   # 86% of the int64 max


# 456*d + 56 = A*n*(n-1) + n*d at n = 8 with A = 8d + 1: the largest d whose
# CE table is int32 (64 MiB); one more takes the int64 table (128 MiB)
INT32_BOUND_N8 = (np.iinfo(np.int32).max - 56) // 456


def uniform_dist(n: int, d: int) -> np.ndarray:
    dist = np.full((n, n), d)
    np.fill_diagonal(dist, 0)
    return dist


@pytest.mark.parametrize("dist, dtype", [(synthetic_instance(8, seed=1).dist, np.int32),
                                         (uniform_dist(8, INT32_BOUND_N8), np.int32),
                                         (uniform_dist(8, INT32_BOUND_N8 + 1), np.int64)])
def test_subspace_cost_table_n8_int32_equals_int64_build(dist, dtype):
    cost = make_instance(dist)
    table = subspace_cost_table(cost)
    assert table.dtype == dtype
    wide = _dense_cost(1 << np.arange(8), np.asarray(cost.dist, dtype=np.int64).T,
                       cost.penalty_weight, True, (np.int64,))
    assert np.array_equal(table, wide)


def test_subspace_cost_phase_feasible_is_tour_only():
    cost = synthetic_instance(3, seed=2, high=5)
    bare = replace(cost, include_penalty=False)
    table = subspace_cost_table(cost)
    gamma = 0.9
    st = init_w_product(3)
    apply_subspace_cost_phase(st, cost_levels(table), gamma)
    for perm in itertools.permutations(range(3)):
        idx = index(perm, 3)
        expected = 3.0 ** -1.5 * np.exp(-1j * gamma * cost_value(bare, tuple_to_label(perm, 3)))
        assert abs(st[idx] - expected) < 1e-12


def test_subspace_cost_phase_norm_exact():
    cost = synthetic_instance(3, seed=1, high=5)
    st = init_w_product(3)
    before = np.abs(st.copy())
    apply_subspace_cost_phase(st, cost_levels(subspace_cost_table(cost)), 1.7)
    assert np.allclose(np.abs(st), before, rtol=0, atol=1e-15)


def test_subspace_cost_phase_partition_independent(monkeypatch):
    # chunked processing must be bitwise identical to one whole-array pass
    import feasmass.fullspace as fs
    levels = cost_levels(subspace_cost_table(synthetic_instance(4, seed=3, high=7)))
    rng = np.random.default_rng(8)
    st = rng.standard_normal(4 ** 4) + 1j * rng.standard_normal(4 ** 4)
    whole = apply_subspace_cost_phase(st.copy(), levels, 0.61)
    monkeypatch.setattr(fs, "_CHUNK", 37)
    chunked = apply_subspace_cost_phase(st.copy(), levels, 0.61)
    assert np.array_equal(whole, chunked)


@pytest.mark.parametrize("n, tabled", [(3, False), (7, True)])
def test_subspace_cost_phase_is_direct_exp_bitwise(n, tabled):
    # n = 3 has more cost levels than its 27 entries (distinct values); n = 7
    # has 2,372 levels for 7**7 entries (one level-range table): both give the
    # exact exp per amplitude, within 4 ulp of mpmath at 40 digits (4,096
    # sampled entries at n = 7)
    table = subspace_cost_table(synthetic_instance(n, seed=1))
    assert (int(table.max() - table.min()) + 1 < table.size) == tabled
    rng = np.random.default_rng(n)
    st = rng.standard_normal(n ** n) + 1j * rng.standard_normal(n ** n)
    got = apply_subspace_cost_phase(st.copy(), cost_levels(table), 0.4)
    at = rng.choice(table.size, min(table.size, 4096), replace=False)
    assert phase_error(got[at], st[at], table[at], 0.4) <= 4 * np.finfo(np.float64).eps


def test_block_mixer_zero_angle():
    st = init_w_product(3)
    ref = st.copy()
    apply_block_xy_mixer(st, 3, 0.0, normalized=True)
    assert np.allclose(st, ref, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("normalized", [True, False])
def test_block_mixer_batch_is_single_calls_bitwise(n, normalized):
    # one beta per row; 30 rows of n = 5 are two slabs of 20 and 10 rows
    rng = np.random.default_rng(n)
    betas = rng.uniform(-1.0, 3.0, 30)
    batch = rng.standard_normal((30, n ** n)) + 1j * rng.standard_normal((30, n ** n))
    want = np.stack([apply_block_xy_mixer(row.copy(), n, b, normalized)
                     for row, b in zip(batch, betas)])
    got = apply_block_xy_mixer(batch.copy(), n, betas, normalized)
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk", [None, 64])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_block_mixer_slabs_match_axiswise_oracle_bitwise(monkeypatch, n, chunk, workers):
    # in slabs of whole rows (and, at n = 7 or at 64-entry chunks, leading
    # axes in column stripes first) on the pool, against one whole-array
    # pass per axis: the same bits at either chunk size and worker count.
    # A two-row batch, one beta per row, is checked at the default chunk
    # (at 64 entries n = 7 makes 16,807 slabs per row)
    from concurrent.futures import ThreadPoolExecutor
    import feasmass.fullspace as fs
    if chunk:
        monkeypatch.setattr(fs, "_CHUNK", chunk)
    rng = np.random.default_rng(n)
    st = rng.standard_normal(n ** n) + 1j * rng.standard_normal(n ** n)
    pair = rng.standard_normal((2, n ** n)) + 1j * rng.standard_normal((2, n ** n))
    normalized = workers == 1
    used = []
    with ThreadPoolExecutor(workers) as pool:
        monkeypatch.setattr(fs, "_pool", lambda: used.append(1) or pool)
        want = axiswise_block_mixer(st.copy(), n, 0.37, normalized)
        got = apply_block_xy_mixer(st.copy(), n, 0.37, normalized)
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
        if not chunk:
            want = np.stack([axiswise_block_mixer(row.copy(), n, b, normalized)
                             for row, b in zip(pair, (2.1, -0.6))])
            got = apply_block_xy_mixer(pair.copy(), n, [2.1, -0.6], normalized)
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
    # the pool runs exactly the batches of more than one chunk
    assert bool(used) == (n ** n > fs._CHUNK or (not chunk and 2 * n ** n > fs._CHUNK))


def test_block_mixer_batch_of_one_chunk_stays_on_the_caller(monkeypatch):
    # a depth walk's largest batch (36 rows of 4**4) and a 6**6 state each fit
    # in one chunk: the pool is never asked for
    import feasmass.fullspace as fs

    def no_pool():
        raise AssertionError("pool started")
    monkeypatch.setattr(fs, "_pool", no_pool)
    apply_block_xy_mixer(np.ones((36, 4 ** 4), dtype=complex), 4, np.linspace(0, 3, 36))
    apply_block_xy_mixer(init_w_product(6), 6, 0.4)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("beta", [0.1, 0.7, 2.0])
@pytest.mark.parametrize("normalized", [True, False])
def test_block_mixer_matches_expm_oracle(n, beta, normalized):
    oracle = expm(-1j * beta * pauli_block_sector(n, normalized))
    closed = block_mixer_unitary(n, beta, normalized)
    assert np.abs(closed - oracle).max() <= 1e-9


@pytest.mark.parametrize("normalized", [True, False])
def test_block_mixer_sector_matches_pauli_build(normalized):
    for n in range(2, 9):
        oracle = pauli_block_sector(n, normalized)
        assert np.abs(block_mixer_sector(n, normalized) - oracle).max() <= 1e-15
        lam_u, lam_p = block_mixer_eigenvalues(n, normalized)
        assert np.abs(np.linalg.eigvalsh(oracle)
                      - sorted([lam_p] * (n - 1) + [lam_u])).max() <= 1e-12


def test_block_mixer_application_matches_dense():
    n = 3
    rng = np.random.default_rng(5)
    st = rng.normal(size=27) + 1j * rng.normal(size=27)
    st /= np.linalg.norm(st)
    beta = 1.3
    U = block_mixer_unitary(n, beta, normalized=True)
    expect = st.reshape(3, 3, 3)
    expect = np.einsum("ab,bjk->ajk", U, expect)
    expect = np.einsum("jb,abk->ajk", U, expect)
    expect = np.einsum("kb,ajb->ajk", U, expect)
    got = st.copy()
    apply_block_xy_mixer(got, n, beta, normalized=True)
    assert np.abs(got - expect.reshape(-1)).max() < 1e-12


def test_unnormalized_mixer_fixes_w_product_up_to_phase():
    # the uniform vector is a sector eigenvector; its eigenvalue is 2(n-1)
    # per block, so the product state only picks up exp(-i*beta*2n(n-1))
    for n in (2, 3, 4):
        beta = 0.37
        st = init_w_product(n)
        ref = st.copy()
        apply_block_xy_mixer(st, n, beta, normalized=False)
        phase = st[0] / ref[0]
        assert abs(abs(phase) - 1) < 1e-12
        assert np.allclose(st, phase * ref, atol=1e-12)
        expected = np.exp(-1j * beta * 2 * n * (n - 1))
        assert abs(phase - expected) < 1e-12


def test_run_ce_zero_angles_uniform():
    for n in (2, 3):
        inst = synthetic_instance(n, seed=1, high=5)
        st = run_ce(inst, AngleSchedule.single(0.0, 0.0))
        assert subspace_feasible_mass(st) == pytest.approx(
            float(Fraction(math.factorial(n), n ** n)), abs=1e-14)


def test_run_ce_norm():
    inst = synthetic_instance(3, seed=1, high=5)
    st = run_ce(inst, AngleSchedule(gammas=(0.4, 1.9), betas=(0.2, 0.9)))
    assert abs(1 - np.vdot(st, st).real) < 1e-9


def test_run_ce_coarse_grid_beats_lower_bound():
    # the coarse grid {j*pi/n} contains zero angles, so some pair reaches
    # at least the uniform value n!/n^n >= 1/n^n
    inst = synthetic_instance(3, seed=3, high=5)
    best = 0.0
    for g in np.linspace(0, math.pi, 4):
        for b in np.linspace(0, math.pi, 4):
            st = run_ce(inst, AngleSchedule.single(g, b))
            best = max(best, subspace_feasible_mass(st))
    assert best >= 1 / 27


def test_subspace_feasible_mass_values():
    assert subspace_feasible_mass(init_w_product(3)) == pytest.approx(2 / 9, abs=1e-14)
    assert subspace_feasible_mass(init_w_product(5)) == pytest.approx(120 / 3125, abs=1e-13)
    st = np.zeros(27, dtype=complex)
    st[index((0, 1, 2), 3)] = 1.0
    assert subspace_feasible_mass(st) == 1.0


def _ce_state(n, seed, high, gamma, beta):
    return run_ce(synthetic_instance(n, seed=seed, high=high), AngleSchedule.single(gamma, beta))


def test_twirl_mean_is_inverse_dimension():
    for gamma, beta in ((0.4, 0.3), (1.2, 0.9), (2.5, 1.7)):
        st = _ce_state(2, 1, 3, gamma, beta)
        assert twirl_average(st) == pytest.approx(0.25, abs=1e-14)
    st3 = _ce_state(3, 1, 5, 0.8, 0.6)
    assert abs(twirl_average(st3) - 1 / 27) <= 1e-12
    assert abs(twirl_average(st3) - enumerated_twirl(st3, (0, 1, 2))[0]) <= 1e-12


def test_twirl_identity_circuit_terms_uniform():
    # uniform state: every relabeled target already carries exactly 1/D
    st = init_w_product(3)
    mean, best = enumerated_twirl(st, (0, 1, 2))
    assert mean == pytest.approx(1 / 27, abs=1e-15)
    assert best == pytest.approx(1 / 27, abs=1e-15)
    assert best_block_relabeling(st, (0, 1, 2))[1] == pytest.approx(1 / 27, abs=1e-15)


def test_best_relabeling_exact_mode():
    for n, high, target, (gamma, beta) in ((2, 3, (0, 1), (0.7, 0.4)),
                                           (3, 5, (2, 0, 1), (math.pi / 3, math.pi / 3))):
        st = _ce_state(n, 2, high, gamma, beta)
        perms, prob = best_block_relabeling(st, target)
        assert prob == pytest.approx(enumerated_twirl(st, target)[1], abs=1e-15)
        assert prob >= n ** -n - 1e-15
        assert all(sorted(p) == list(range(n)) for p in perms)
        moved = tuple(p[t] for p, t in zip(perms, target))
        assert abs(st[index(moved, n)]) ** 2 == prob


def test_best_relabeling_identity_circuit():
    st = _ce_state(2, 2, 3, 0.0, 0.0)
    _, prob = best_block_relabeling(st, (0, 1))
    assert prob == pytest.approx(0.25, abs=1e-14)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_twirl_closed_form_beyond_enumeration(n):
    # a product of per-block unit vectors: the twirl mean is 1/n**n, and the
    # best relabeling reaches the product of the per-block maxima
    rng = np.random.default_rng(n)
    blocks = [v / np.linalg.norm(v) for v in rng.normal(size=(n, n))]
    st = functools.reduce(np.multiply.outer, blocks).reshape(-1)
    assert twirl_average(st) == pytest.approx(float(n) ** -n, rel=1e-12)
    target = tuple(range(n))[::-1]
    perms, prob = best_block_relabeling(st, target)
    assert prob == pytest.approx(math.prod(float(np.max(v ** 2)) for v in blocks),
                                 rel=1e-12)
    moved = tuple(p[t] for p, t in zip(perms, target))
    assert st[index(moved, n)] ** 2 == prob


def test_embed_uniform():
    full = embed_to_full(init_w_product(2), 2)
    assert np.count_nonzero(full) == 4
    assert np.allclose(full[full != 0], 0.5)
    assert abs(np.vdot(full, full).real - 1) < 1e-12


def test_embed_preserves_feasible_mass():
    rng = np.random.default_rng(4)
    for _ in range(3):
        st = rng.normal(size=27) + 1j * rng.normal(size=27)
        st /= np.linalg.norm(st)
        full = embed_to_full(st, 3)
        assert feasible_mass(full, 3) == pytest.approx(subspace_feasible_mass(st), abs=1e-12)


def test_embed_round_trip_and_subspace_invariance():
    inst = synthetic_instance(3, seed=6, high=5)
    st = run_ce(inst, AngleSchedule.single(1.1, 0.8))
    full = embed_to_full(st, 3)
    # all mass stays on the one-hot sector and projects back unchanged
    assert np.vdot(full, full).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(project_to_subspace(full, 3) - st).max() < 1e-15


def test_overlap_modulus_pinned_in_commuting_order():
    rng = np.random.default_rng(9)
    for n in (2, 3):
        inst = synthetic_instance(n, seed=1, high=5)
        target = n ** (n / 2) / 2 ** (n * n / 2)
        mods = []
        for _ in range(5):
            g, b = rng.uniform(0, math.pi, size=2)
            mods.append(abs(overlap_generic_ce(inst, g, b)))
        assert max(abs(m - target) for m in mods) < 1e-10
        assert np.std(mods) <= 1e-10


def test_overlap_zero_angles_real_positive():
    for n in (2, 3):
        inst = synthetic_instance(n, seed=1, high=5)
        ov = overlap_generic_ce(inst, 0.0, 0.0)
        assert abs(ov.imag) < 1e-12
        assert ov.real == pytest.approx(math.sqrt(n ** n / 2 ** (n * n)), abs=1e-12)


def test_overlap_standard_order_depends_on_angles():
    # with the cost phase applied first on both sides the cancellation across
    # the projector is broken; the modulus genuinely moves with gamma
    inst = synthetic_instance(2, seed=1, high=3)
    vals = []
    for g in (0.0, 0.7, 1.9):
        sched = AngleSchedule.single(g, 0.9)
        ce = run_ce(inst, sched, normalized=False)
        vals.append(abs(np.vdot(ce, project_to_subspace(run_generic(inst, sched), 2))))
    assert max(vals) - min(vals) > 1e-3


def _closed_spectrum(n: int) -> list:
    return sorted(e for _, e, m in leakage_spectrum(n) for _ in range(m))


@pytest.mark.parametrize("n", [2, 3])
def test_dense_leakage_gram_is_transposition_operator_on_permutations(n):
    # the dense 2 P H (I-P) H P from the n**n Hamiltonian: zero off the
    # permutations, 8n(n-1) I + 16 T on them, and its spectrum the closed form
    G = dense_leakage_gram(n)
    feas = feasible_subspace_indices(n)
    off = np.ones(n ** n, dtype=bool)
    off[feas] = False
    assert not G[off].any() and not G[:, off].any()
    assert np.abs(G[np.ix_(feas, feas)] - leakage_gram(n)).max() <= 1e-12
    assert np.abs(np.linalg.eigvalsh(G[np.ix_(feas, feas)]) - _closed_spectrum(n)).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_leakage_spectrum_is_transposition_operator_spectrum(n):
    spec = leakage_spectrum(n)
    assert sum(m for _, _, m in spec) == math.factorial(n)
    gram = leakage_gram(n)
    assert np.abs(np.linalg.eigvalsh(gram) - _closed_spectrum(n)).max() <= 1e-9
    # (n) is the uniform state, the most leaking; (1**n) the sign state,
    # which leaks nothing
    (top, e_top, _), (bottom, e_bottom, _) = spec[0], spec[-1]
    assert top == (n,) and bottom == (1,) * n
    assert (e_top, e_bottom) == (16 * n * (n - 1), 0)
    assert np.abs(gram @ np.ones(len(gram)) - e_top).max() == 0
    sign = np.array([(-1) ** sum(a > b for a, b in itertools.combinations(p, 2))
                     for p in itertools.permutations(range(n))])
    assert np.abs(gram @ sign).max() == 0


def test_feasible_subspace_indices_match_permutations():
    idx = feasible_subspace_indices(3)
    assert len(idx) == 6
    labels = subspace_to_full_labels(3)[idx]
    assert sorted(int(x) for x in labels) == sorted(feasible_indices(3).tolist())
