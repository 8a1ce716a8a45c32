import math
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as hs
import numpy as np
import pytest
from hypothesis import given, settings

from feasmass.fullspace import (AngleSchedule, apply_cost_phase, apply_x_mixer, cost_levels,
                                feasible_mass, init_plus, level_phases,
                                mixed_feasible_mass, mixer_kernel_rows, norm_squared,
                                real_mixer_rows, run_generic, sample_counts)
from feasmass.instance import CapacityError, feasible_indices, load_instance, synthetic_instance

from oracles import (cumsum_copy_sample_counts, fourth_moment, kron_mixer, lab_x_mixer,
                     phase_error, x_frame)


@pytest.mark.parametrize("num_bits", [1, 2, 3, 4, 5])
def test_mixer_kernel_rows_match_kronecker_product(num_bits):
    # the closed form that every mixer block comes from, entry by entry
    for beta in np.linspace(0.0, math.pi, 13).tolist() + [0.2, 0.3, 0.4, 0.7, -1.3]:
        closed = mixer_kernel_rows(np.arange(1 << num_bits), beta, num_bits)
        assert np.abs(closed - kron_mixer(beta, num_bits)).max() <= 1e-15


def test_schedule_validation():
    with pytest.raises(ValueError):
        AngleSchedule(gammas=(0.1,), betas=(0.1, 0.2))
    s = AngleSchedule.single(0.4, 0.3)
    assert s.gammas == (0.4,) and s.betas == (0.3,)


def test_init_plus_values():
    # |+> in the X mixer's frame: conj(P) takes it to 2**(-N/2) everywhere
    st = x_frame(init_plus(2, np.complex128), True)
    assert np.allclose(st, 0.5)
    st = x_frame(init_plus(9, np.complex128), True)
    assert st.shape == (512,)
    assert np.allclose(st, 2.0 ** -4.5)
    assert abs(1 - norm_squared(st)) < 1e-12


def test_chunks_keep_chunk_order_and_raise(monkeypatch):
    # later chunks finish first on the pool; results still come in chunk
    # order, a state of one chunk runs on the calling thread, and an
    # exception in any chunk reaches the caller
    import threading
    import time
    import feasmass.fullspace as fs
    monkeypatch.setattr(fs, "_CHUNK", 4)
    threads = set()

    def slow(lo):
        threads.add(threading.get_ident())
        time.sleep(0.002 * (40 - lo) / 4)
        return lo

    assert fs._chunks(slow, 4) == [0] and threads == {threading.get_ident()}
    assert fs._chunks(slow, 38) == list(range(0, 38, 4))
    assert len(threads) > 1

    def fail_at(bad):
        def fn(lo):
            if lo == bad:
                raise ZeroDivisionError(lo)
            return lo
        return fn

    for bad in (0, 16, 36):
        with pytest.raises(ZeroDivisionError, match=f"^{bad}$"):
            fs._chunks(fail_at(bad), 38)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_chunked_init_plus_is_np_full_bitwise(dtype, monkeypatch):
    # np.full's bits times P, at chunks that are no power of two
    import feasmass.fullspace as fs
    monkeypatch.setattr(fs, "_CHUNK", 100)
    for num_qubits in (1, 9, 12):
        want = x_frame(np.full(1 << num_qubits, 2.0 ** (-num_qubits / 2), dtype=dtype), False)
        assert np.array_equal(init_plus(num_qubits, dtype).view(np.uint8), want.view(np.uint8))


def test_init_plus_capacity(monkeypatch):
    # the full space is capped by the memory budget, which the run checks
    # before it makes its |+> state or its cost table: n = 6 is refused
    import feasmass.fullspace as fs
    import feasmass.instance as ins
    def unreachable(*args, **kwargs):
        raise AssertionError("allocated before the budget check")
    monkeypatch.setattr(fs, "init_plus", unreachable)
    monkeypatch.setattr(ins, "_dense_cost", unreachable)
    with pytest.raises(CapacityError, match=r"^the state of a generic run at n=6 needs \d+ bytes; "
                                            r"memory capped at 2147483648 bytes$"):
        run_generic(synthetic_instance(6, seed=1, high=3), AngleSchedule.single(0.1, 0.1), "f64")


def test_cost_phase_identity_cases():
    cost = synthetic_instance(2, seed=0, high=3)
    st = init_plus(4, np.complex128)
    ref = st.copy()
    apply_cost_phase(st, cost_levels(cost.cost_vector()), 0.0)
    assert np.array_equal(st, ref)
    apply_cost_phase(st, cost_levels(np.zeros(16, dtype=np.int64)), 1.3)
    assert np.allclose(st, ref, atol=1e-15)


def test_cost_phase_rejects_wrong_table_length():
    st = init_plus(4, np.complex128)
    ref = st.copy()
    with pytest.raises(ValueError, match="length"):
        apply_cost_phase(st, cost_levels(np.zeros(8, dtype=np.int64)), 0.5)
    with pytest.raises(ValueError, match="length"):
        apply_cost_phase(st, cost_levels(synthetic_instance(3).cost_vector()), 0.5)
    assert np.array_equal(st, ref)


def test_cost_phase_preserves_moduli_exactly():
    cost = synthetic_instance(3, seed=1, high=5)
    rng = np.random.default_rng(2)
    st = rng.normal(size=512) + 1j * rng.normal(size=512)
    before = np.abs(st.copy())
    apply_cost_phase(st, cost_levels(cost.cost_vector()), 0.73)
    assert np.allclose(np.abs(st), before, rtol=0, atol=1e-15)


WI3 = Path(__file__).resolve().parent.parent / "instances" / "wi3.txt"


PHASE_TOL = {np.complex128: 4 * np.finfo(np.float64).eps, np.complex64: 2e-7}


def phase_tables():
    """(label, table, indexes a level range): integer tables with fewer and
    with more levels than entries, minima other than 0, ranges of over 2**16
    levels (two digit tables) and costs past 2**53."""
    few = synthetic_instance(4, high=1).cost_vector()
    many = load_instance(WI3).cost_vector().astype(np.int64)   # the table itself is int32
    wide = np.random.default_rng(17).integers(0, 100_000, size=1 << 17)
    return [("few-levels", few, True), ("few-levels-shifted-up", few + 1000, True),
            ("few-levels-negative", few - 700, True), ("many-levels", many, False),
            ("many-levels-int32", many.astype(np.int32) - 5, False),
            ("two-digits", wide, True),
            ("two-digits-past-2**53", wide + 2 ** 60, True),
            ("many-levels-past-2**53", 2 ** 62 - many, False)]


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("gamma", [0.4, 2.5952287138350463, 1e-3, -37.1])
def test_cost_phase_paths_match_direct_exp_bitwise(dtype, gamma):
    # every path (one table of a range or of the distinct values, or digit
    # tables) must give the exact exp per amplitude to round-off: within 4 ulp
    # in f64 and 2e-7 in f32 of mpmath at 40 digits, at 4,096 sampled entries
    # and the extremes.  The direct np.exp((-1j*gamma)*c), whose bits this
    # test once asked for, rounds gamma*c first and errs by |gamma*c|*2**-53
    for label, table, tabled in phase_tables():
        levels = int(table.max() - table.min()) + 1
        assert (levels < table.size) == tabled, label
        assert isinstance(cost_levels(table)[1], tuple) == tabled, label
        rng = np.random.default_rng(table.size)
        st = (rng.normal(size=table.size) + 1j * rng.normal(size=table.size)).astype(dtype)
        got = apply_cost_phase(st.copy(), cost_levels(table), gamma)
        assert got.dtype == dtype
        at = np.union1d(rng.choice(table.size, min(table.size, 4096), replace=False),
                        [table.argmin(), table.argmax()])
        assert phase_error(got[at], st[at], table[at], gamma) <= PHASE_TOL[dtype], label


def test_cost_phase_level_range_spans_first_and_last_chunk(monkeypatch):
    # the level range comes from one (min, max) scan of the whole table; the
    # extremes sit in the first and in the ragged last chunk, either way
    # round, so a range from any one chunk indexes past the level table or
    # off its start
    import feasmass.fullspace as fs
    monkeypatch.setattr(fs, "_CHUNK", 64)
    rng = np.random.default_rng(3)
    st = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    for first, last in ((-40, 77), (77, -40)):
        table = rng.integers(0, 30, size=1000)
        table[5], table[-3] = first, last
        got = apply_cost_phase(st.copy(), cost_levels(table), 0.7)
        assert phase_error(got, st, table, 0.7) <= PHASE_TOL[np.complex128], (first, last)


def two_digit_table(rng, first, last):
    """2**17 costs in [0, 100,000) with ``first`` and ``last`` in the first and
    the ragged last 64-entry chunk: a range of over 2**16 levels."""
    table = rng.integers(0, 100_000, size=1 << 17)
    table[5], table[-3] = first, last
    return table


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_two_digit_phase_independent_of_chunk_and_workers(monkeypatch, dtype):
    # 100,118 levels: j = c + 40 has 17 bits, two digits of 9 bits, so two
    # tables of 512 and 196 entries; no bit depends on _CHUNK or on 1 against
    # 2 pool workers, and the phases are mpmath's to round-off
    import feasmass.fullspace as fs
    from concurrent.futures import ThreadPoolExecutor
    rng = np.random.default_rng(11)
    for first, last in ((-40, 100_077), (100_077, -40)):
        table = two_digit_table(rng, first, last)
        levels = cost_levels(table)
        tables, low = level_phases(levels, 0.7, dtype)
        assert low == -40 and [t.size for t in tables] == [512, 196]
        st = (rng.standard_normal(table.size) + 1j * rng.standard_normal(table.size)).astype(dtype)
        runs = []
        for workers, chunk in ((2, 1 << 16), (1, 1 << 16), (2, 64), (1, 64)):
            with ThreadPoolExecutor(workers) as pool:
                monkeypatch.setattr(fs, "_pool", lambda: pool)
                monkeypatch.setattr(fs, "_CHUNK", chunk)
                runs.append(apply_cost_phase(st.copy(), levels, 0.7))
        monkeypatch.undo()   # the default pool and _CHUNK again
        for run in runs[1:]:
            assert np.array_equal(run.view(np.uint8), runs[0].view(np.uint8)), (first, last)
        at = np.union1d(rng.choice(table.size, 4096, replace=False), [5, table.size - 3])
        assert phase_error(runs[0][at], st[at], table[at], 0.7) <= PHASE_TOL[dtype]


def test_two_digit_phase_allocates_its_tables_and_workspaces_only(monkeypatch):
    # at 2**10-entry chunks on two workers the call's traced peak is its two
    # digit tables (708 complex128 entries), their build's temporaries, one
    # workspace per worker (two intp and two complex128 entries per chunk
    # entry) and the pool's bookkeeping for its 128 items (measured on items
    # that do nothing): far below one array as long as the 100,118-level range,
    # and none of it outlives the call
    import tracemalloc
    import feasmass.fullspace as fs
    from concurrent.futures import ThreadPoolExecutor
    table = two_digit_table(np.random.default_rng(12), -40, 100_077)
    levels, st = cost_levels(table), np.ones(table.size, np.complex128)
    monkeypatch.setattr(fs, "_CHUNK", 1 << 10)

    def traced(fn):   # (peak, kept) bytes over the start
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return [m - base for m in tracemalloc.get_traced_memory()[::-1]]
        finally:
            tracemalloc.stop()
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(fs, "_pool", lambda: pool)
        apply_cost_phase(st, levels, 0.7)   # both workers started
        bookkeeping = traced(lambda: fs._chunks(lambda lo: None, st.size))[0]
        peak, kept = traced(lambda: apply_cost_phase(st, levels, 0.7))
    tables, workspaces = (512 + 196) * 16, 2 * (1 << 10) * (8 + 8 + 16 + 16)
    build = 16 * 512 * 16   # at most 16 temporaries of the larger table at once
    assert peak <= tables + workspaces + build + bookkeeping, (peak, bookkeeping)
    assert peak < 100_118 * 16 // 2 and kept <= 4096, (peak, kept)


def test_cost_phase_wi4_wi5_labels_match_mpmath():
    # 2,000 sampled labels of each bundled table, through its own levels:
    # wi4's 5,049 distinct values (one table) and wi5's 3.5 million-level
    # range (two digit tables of 2,048 and 1,713 entries); the direct exp
    # erred on wi5 by up to 8.9e-10
    rng = np.random.default_rng(4)
    for name, digits in (("wi4.txt", 1), ("wi5.txt", 2)):
        table = load_instance(WI3.with_name(name)).cost_vector()
        levels = cost_levels(table)
        at = rng.choice(table.size, 2000, replace=False)
        for dtype in (np.complex128, np.complex64):
            st = np.ones(at.size, dtype)
            for gamma in (0.4, 2.5952287138350463):
                assert len(level_phases(levels, gamma, dtype)[0]) == digits
                got = apply_cost_phase(st.copy(), (levels[0][at], levels[1]), gamma)
                assert phase_error(got, st, table[at], gamma) <= PHASE_TOL[dtype], (name, gamma)


def test_cost_levels_keep_a_range_or_the_distinct_values():
    # a range table is its own index, not a copy, and of its range keeps only
    # (low, high): no array of the range's length (3.5 million levels on
    # wi5).  Any other table keeps its sorted distinct values and the inverse
    # index in the least unsigned dtype that counts them.
    for label, table, tabled in phase_tables():
        index, levels = cost_levels(table)
        if tabled:
            assert index is table and np.shares_memory(index, table), label
            assert levels == (int(table.min()), int(table.max())), label
            assert [type(v) for v in levels] == [int, int], label
        else:
            assert np.array_equal(levels, np.unique(table)), label
            assert np.array_equal(levels[index], table), label
            assert index.dtype == np.min_scalar_type(levels.size - 1), label
            assert index.dtype.kind == "u" and not np.shares_memory(index, table), label


def test_x_mixer_blocks_are_real_p_m_p():
    # K = conj(P) R P with P = diag((-i)**popcount(x)): R = P K conj(P) is
    # real, equals [[c, s], [-s, c]]^{(x)k}, and multiplying by P only swaps
    # re and im with a sign
    import feasmass.fullspace as fs
    for k in range(1, 6):
        p = fs._p(np.empty(1 << k, np.complex128), 1.0)
        for beta in (0.0, 0.37, 1.2, math.pi / 2, 2.9, -0.8):
            blk = np.outer(p, p.conj()) * mixer_kernel_rows(np.arange(1 << k), beta, k)
            assert np.all(blk.imag == 0), (k, beta)
            assert np.array_equal(real_mixer_rows(np.arange(1 << k), beta, k), blk.real)
            one_hot = 1 << np.arange(k)
            assert np.array_equal(real_mixer_rows(one_hot, beta, k), blk.real[one_hot])
            c, s = math.cos(beta), math.sin(beta)
            m = np.ones((1, 1))
            for _ in range(k):
                m = np.kron(m, [[c, s], [-s, c]])
            assert np.abs(blk.real - m).max() <= 1e-15, (k, beta)
    rng = np.random.default_rng(4)
    for dtype in (np.complex64, np.complex128):
        st = (rng.standard_normal(1 << 10) + 1j * rng.standard_normal(1 << 10)).astype(dtype)
        d = np.bitwise_count(np.arange(1 << 10)) % 4
        re, im = st.real, st.imag
        want = np.empty_like(st)
        want.real = np.choose(d, [re, im, -re, -im])
        want.imag = np.choose(d, [im, -re, -im, re])
        got = st * fs._p(np.empty(1 << 10, dtype), 1.0)
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), dtype


def test_x_mixer_refuses_chunks_it_cannot_split(monkeypatch):
    import feasmass.fullspace as fs
    for chunk in (40, 3000, 8):
        monkeypatch.setattr(fs, "_CHUNK", chunk)
        with pytest.raises(ValueError, match=f"power of two of at least 2\\*\\*4, got {chunk}$"):
            apply_x_mixer(init_plus(6, np.complex128), 0.3)


def test_x_mixer_zero_angle():
    st = init_plus(4, np.complex128)
    ref = st.copy()
    apply_x_mixer(st, 0.0)
    assert np.allclose(st, ref, atol=1e-15)


def test_x_mixer_half_turn_flips():
    N = 3
    st = np.zeros(1 << N, dtype=complex)
    st[0] = 1.0
    lab_x_mixer(st, math.pi / 2)
    expect = np.zeros(1 << N, dtype=complex)
    expect[-1] = (-1j) ** N
    assert np.allclose(st, expect, atol=1e-12)


@pytest.mark.parametrize("num_bits", [2, 3, 4])
@pytest.mark.parametrize("beta", [0.3, 0.9, 2.4])
def test_x_mixer_matches_dense_kernel(num_bits, beta):
    rng = np.random.default_rng(num_bits)
    st = rng.normal(size=1 << num_bits) + 1j * rng.normal(size=1 << num_bits)
    st /= np.linalg.norm(st)
    K = kron_mixer(beta, num_bits)
    expect = K @ st
    lab_x_mixer(st, beta)
    assert np.abs(st - expect).max() < 1e-12
    # operator-level check: columns of the mixer equal the kernel columns
    dim = 1 << num_bits
    op = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[col] = 1.0
        op[:, col] = lab_x_mixer(basis, beta)
    assert np.abs(op - K).max() < 1e-12


def test_mixer_kernel_closed_form():
    beta = 0.7
    assert mixer_kernel_rows(np.array([5]), beta, 3)[0, 5] == pytest.approx(math.cos(beta) ** 3)
    val = mixer_kernel_rows(np.array([0]), beta, 4)[0, 0b1111]
    assert val == pytest.approx((-1j * math.sin(beta)) ** 4)
    # unitarity of one kernel row
    row = np.sum(np.abs(mixer_kernel_rows(np.array([3]), beta, 4)) ** 2)
    assert row == pytest.approx(1.0, abs=1e-12)


def unit_state(rng, shape):
    st = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return st / math.sqrt(float(np.sum(np.abs(st) ** 2)))


def kernel_apply(st, beta, num_bits):
    """mixer_kernel_rows @ st, built 256 rows at a time."""
    out = np.empty(1 << num_bits, dtype=np.complex128)
    for lo in range(0, out.shape[0], 256):
        rows = np.arange(lo, min(lo + 256, out.shape[0]))
        out[rows] = mixer_kernel_rows(rows, beta, num_bits) @ st
    return out


@pytest.mark.parametrize("num_bits", range(1, 13))
def test_fused_mixer_matches_kernel_oracle(num_bits, monkeypatch):
    # N < 4, whole 4-qubit blocks (N = 4, 8, 12), a smaller last block (4+3 at
    # N = 7) and smaller blocks only (3+3+3 at N = 9); chunks of 2**6 and 2**11
    # force passes of at most 6 and 11 qubits (one 4-qubit block, two) and
    # several column-stripe items per pass
    import feasmass.fullspace as fs
    st = unit_state(np.random.default_rng(num_bits), 1 << num_bits)
    beta = 0.37 + 0.1 * num_bits
    expect = kernel_apply(st, beta, num_bits)
    for chunk in (fs._CHUNK, 1 << 6, 1 << 11):
        monkeypatch.setattr(fs, "_CHUNK", chunk)
        for dtype, tol in ((np.complex128, 1e-12), (np.complex64, 1e-6)):
            out = lab_x_mixer(st.astype(dtype), beta)
            assert out.dtype == dtype
            assert np.abs(out - expect).max() < tol, (chunk, dtype)


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_x_mixer_batch_matches_rows(dtype, monkeypatch):
    # one chunk spans several rows (all of them at the default chunk size);
    # N > 4, so every matmul has at least two rows in the batch and alone
    import feasmass.fullspace as fs
    for rows, num_bits, chunk in ((7, 6, fs._CHUNK), (131, 9, fs._CHUNK), (131, 9, 1 << 12)):
        monkeypatch.setattr(fs, "_CHUNK", chunk)
        batch = unit_state(np.random.default_rng(11), (rows, 1 << num_bits)).astype(dtype)
        for beta in (0.0, 0.4, 2.3):
            single = np.array([apply_x_mixer(r.copy(), beta) for r in batch])
            out = apply_x_mixer(batch.copy(), beta)
            assert out.shape == batch.shape and out.dtype == dtype
            assert np.array_equal(out, single), (rows, num_bits, chunk, beta)


PROJECTION_TOL = {np.complex128: 1e-13, np.complex64: 1e-5}   # relative


def one_hot(betas, n):
    """The stacked one-hot rows of R for these betas, shape (G, n, 2**n)."""
    return np.stack([real_mixer_rows(1 << np.arange(n), b, n) for b in betas])


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_projection_matches_full_mixer(n, dtype, monkeypatch):
    # the projection takes the state in the mixer's frame, P times the lab
    # state, and all five betas at once; at 64-entry chunks its stages run in
    # many items of narrow slabs
    import feasmass.fullspace as fs
    default = fs._CHUNK
    cost = synthetic_instance(n, seed=3, high=5)
    plus = np.full(1 << (n * n), 2.0 ** (-n * n / 2), dtype)
    states = {"random": unit_state(np.random.default_rng(n), 1 << (n * n)).astype(dtype),
              "phased": apply_cost_phase(plus, cost_levels(cost.cost_vector()), 0.7)}
    for label, st in states.items():
        framed = x_frame(st.copy(), False)
        before = framed.copy()
        betas = (0.0, 0.3, math.pi / 4, math.pi / 2, 3.0)
        want = [feasible_mass(lab_x_mixer(st.copy(), beta), n) for beta in betas]
        for chunk in (default, 1 << 6):
            monkeypatch.setattr(fs, "_CHUNK", chunk)
            got = mixed_feasible_mass(framed, one_hot(betas, n), n)
            assert got.shape == (len(betas),), (label, chunk)
            for beta, g, w in zip(betas, got, want):
                assert abs(g - w) <= PROJECTION_TOL[dtype] * w, (label, beta, chunk)
        monkeypatch.setattr(fs, "_CHUNK", default)
        assert np.array_equal(framed, before), label   # the input is left as it was


def test_projection_matches_full_mixer_n5_f32():
    # 2**25 complex64 amplitudes (256 MiB) in the mixer's frame, mixed in
    # place: the second sampled beta is checked through R(b1) = R(b1 - b0) R(b0)
    cost = synthetic_instance(5, seed=1, high=9)
    st = apply_cost_phase(init_plus(25, np.complex64), cost_levels(cost.cost_vector()), 0.4)
    del cost
    b0, b1 = np.random.default_rng(5).uniform(0.0, math.pi, size=2).tolist()
    want0, want1 = mixed_feasible_mass(st, one_hot((b0, b1), 5), 5)
    apply_x_mixer(st, b0)
    assert abs(feasible_mass(st, 5) - want0) <= 1e-5 * want0
    assert abs(mixed_feasible_mass(st, one_hot([b1 - b0], 5), 5)[0] - want1) <= 1e-5 * want1


@settings(max_examples=40, deadline=None, database=None)
@given(n=hs.sampled_from([2, 3, 4]), beta=hs.floats(-2 * math.pi, 2 * math.pi),
       seed=hs.integers(0, 2 ** 32 - 1), dtype=hs.sampled_from([np.complex128, np.complex64]))
def test_projection_equals_full_mixer_property(n, beta, seed, dtype):
    st = unit_state(np.random.default_rng(seed), 1 << (n * n)).astype(dtype)
    want = feasible_mass(lab_x_mixer(st.copy(), beta), n)
    got, = mixed_feasible_mass(x_frame(st, False), one_hot([beta], n), n)
    assert abs(got - want) <= PROJECTION_TOL[dtype] * want


@pytest.mark.parametrize("n,dtype", [(4, np.complex128), (5, np.complex64)])
def test_grouped_projection_is_per_beta_bitwise(n, dtype):
    # a beta's mass does not depend on the group it is projected in: alone,
    # in the grid's groups (2 betas at n = 4, 3 at n = 5) or all six at once.
    # N = 25 runs its first stage in column slabs on the pool
    rng = np.random.default_rng(n)
    st = np.tile(unit_state(rng, 1 << 16).astype(dtype), 1 << (n * n - 16))
    betas = rng.uniform(0.0, math.pi, size=6).tolist()
    single = [mixed_feasible_mass(st, one_hot([b], n), n)[0] for b in betas]
    for group in (max(1, (1 << n) // (2 * n)), 6):
        got = np.concatenate([mixed_feasible_mass(st, one_hot(betas[i:i + group], n), n)
                              for i in range(0, len(betas), group)])
        assert got.dtype == np.float64 and np.array_equal(got, single), group


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("num_qubits", [1, 4, 9, 16, 17])
def test_p_plus_is_plus_times_p_bitwise(dtype, num_qubits, monkeypatch):
    # exactly np.full(2**(-N/2)) * (-i)**popcount, signed zeros too, at odd
    # and even N, one chunk or several
    import feasmass.fullspace as fs
    want = x_frame(np.full(1 << num_qubits, 2.0 ** (-num_qubits / 2), dtype), False)
    for chunk in (fs._CHUNK, 1 << 12):
        monkeypatch.setattr(fs, "_CHUNK", chunk)
        got = fs._p(np.empty(1 << num_qubits, dtype), 2.0 ** (-num_qubits / 2))
        assert got.dtype == dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), chunk


def test_run_generic_zero_angles_is_uniform():
    for n in (2, 3, 4):
        inst = synthetic_instance(n, seed=1, high=5)
        st = run_generic(inst, AngleSchedule.single(0.0, 0.0), "f64")
        mass = feasible_mass(st, n)
        ref = float(Fraction(math.factorial(n), 2 ** (n * n)))
        if n % 2 == 0:
            # even N: the uniform amplitude is a dyadic rational, exact in fp
            assert mass == ref
        else:
            # odd N: 2**(-N/2) itself rounds, costing one ulp in the square
            assert abs(mass - ref) <= 4 * np.finfo(float).eps * ref


def test_run_generic_norm():
    inst = synthetic_instance(3, seed=1, high=5)
    st = run_generic(inst, AngleSchedule(gammas=(0.4, 1.1), betas=(0.3, 0.8)), "f64")
    assert abs(1 - norm_squared(st)) < 1e-9


def test_run_generic_matches_direct_sum_n2():
    cost = synthetic_instance(2, seed=7, high=3)
    gamma, beta = 0.4, 0.3
    st = x_frame(run_generic(cost, AngleSchedule.single(gamma, beta), "f64"), True)
    table = cost.cost_vector()
    phases = np.exp(-1j * gamma * table) * 0.25
    direct = kron_mixer(beta, 4) @ phases
    assert np.abs(st - direct).max() < 1e-10


def test_feasible_mass_concentrated():
    st = np.zeros(512, dtype=complex)
    st[feasible_indices(3).tolist()[0]] = 1.0
    assert feasible_mass(st, 3) == 1.0


def test_fourth_moment_extremes():
    st = init_plus(6, np.complex128)
    assert fourth_moment(st) == pytest.approx(2.0 ** -6, abs=1e-15)
    basis = np.zeros(64, dtype=complex)
    basis[17] = 1.0
    assert fourth_moment(basis) == 1.0


def counts_dict(state, shots, seed):
    """The sampler's counts over every label, as the oracle's {label: count} of those seen."""
    counts = sample_counts(state, shots, seed, np.arange(state.size))
    return {x: c for x, c in enumerate(counts.tolist()) if c}


def assert_matches_oracle(state, shots, seed, subset_seed):
    # every label: one-label pieces give the oracle's cumsum bits, so the
    # counts are equal; then a random subset of labels in shuffled order
    want = cumsum_copy_sample_counts(state, shots, seed)
    assert counts_dict(state, shots, seed) == want
    rng = np.random.default_rng(subset_seed)
    subset = rng.permutation(state.size)[:rng.integers(1, state.size + 1)]
    got = sample_counts(state, shots, seed, subset)
    assert got.tolist() == [want.get(x, 0) for x in subset.tolist()]


def test_sampling_basis_state():
    st = np.zeros(8, dtype=complex)
    st[5] = 1.0
    counts = counts_dict(st, 100, seed=3)
    assert counts == {5: 100}
    assert_matches_oracle(st, 100, 3, 0)


def test_sampling_uniform_within_5_sigma():
    st = init_plus(2, np.complex128)
    shots = 400_000
    counts = counts_dict(st, shots, seed=1)
    sigma = math.sqrt(shots * 0.25 * 0.75)
    for x in range(4):
        assert abs(counts.get(x, 0) - shots * 0.25) <= 5 * sigma
    assert_matches_oracle(st, shots, 1, 0)


def test_sampling_deterministic():
    inst = synthetic_instance(2, seed=1, high=3)
    st = run_generic(inst, AngleSchedule.single(0.9, 0.6), "f64")
    a = counts_dict(st, 10_000, seed=42)
    b = counts_dict(st, 10_000, seed=42)
    c = counts_dict(st, 10_000, seed=43)
    assert a == b
    assert a != c
    assert counts_dict(st, 0, seed=1) == {}
    for seed in (42, 43):
        assert_matches_oracle(st, 10_000, seed, seed)


def test_sampling_returns_sorted_int64_arrays():
    # one int64 count per label, in the order the labels are given
    st = unit_state(np.random.default_rng(8), 1 << 6)
    counts = sample_counts(st, 5_000, 4, np.arange(64))
    assert counts.dtype == np.int64 and counts.shape == (64,)
    assert counts.min() >= 0 and counts.sum() == 5_000
    order = np.random.default_rng(1).permutation(64)
    assert np.array_equal(sample_counts(st, 5_000, 4, order), counts[order])
    assert np.array_equal(sample_counts(st, 5_000, 4, [9]), counts[[9]])
    counts = sample_counts(st, 0, 4, np.arange(64))
    assert counts.dtype == np.int64 and not counts.any()
    assert sample_counts(st, 5_000, 4, []).shape == (0,)
    with pytest.raises(ValueError):   # numpy's own refusal of a negative count
        sample_counts(st, -1, 4, np.arange(64))
    assert_matches_oracle(st, 5_000, 4, 4)


@pytest.mark.parametrize("labels", [[-1], [0, 64], [3, 5, 3], [2**62]])
def test_sampling_refuses_labels_out_of_range_or_repeated(labels):
    st = unit_state(np.random.default_rng(8), 1 << 6)
    with pytest.raises(ValueError, match=r"^labels must be distinct and in \[0, 64\)$"):
        sample_counts(st, 10, 1, labels)


def test_sampling_in_place_cdf_matches_copying_cdf():
    st = unit_state(np.random.default_rng(5), 1 << 10)
    for seed in (1, 2, 3):
        assert counts_dict(st, 20_000, seed) == cumsum_copy_sample_counts(st, 20_000, seed)
        assert_matches_oracle(st, 20_000, seed, seed)


def sampler_states():
    rng = np.random.default_rng(9)
    st = unit_state(rng, 1 << 10)
    first, last = np.zeros(1 << 10, dtype=complex), np.zeros(1 << 10, dtype=complex)
    first[0] = last[-1] = 1.0
    return {"unit": st, "norm+1e-6": st * math.sqrt(1 + 1e-6),
            "norm-1e-6": st * math.sqrt(1 - 1e-6), "basis-first": first,
            "basis-last": last, "f32": st.astype(np.complex64)}


@pytest.mark.parametrize("chunk", [1, 37, 1024])
@pytest.mark.parametrize("shots", [0, 1, 30_000])
def test_chunked_sampler_matches_copying_cdf_oracle(monkeypatch, chunk, shots):
    import feasmass.fullspace as fs
    monkeypatch.setattr(fs, "_CHUNK", chunk)
    for label, st in sampler_states().items():
        for seed in (1, 2):
            want = cumsum_copy_sample_counts(st, shots, seed)
            assert counts_dict(st, shots, seed) == want, (label, seed)
            assert_matches_oracle(st, shots, seed, chunk + seed)


def test_sampler_counts_independent_of_pool_workers(monkeypatch):
    # a c64 state of 2**20 amplitudes, 16 chunks, summed over the feasible
    # labels of n = 4 and a random subset: the same counts at 1 and 2 workers
    from concurrent.futures import ThreadPoolExecutor
    import feasmass.fullspace as fs
    st = unit_state(np.random.default_rng(3), 1 << 20).astype(np.complex64)
    labels = np.concatenate([feasible_indices(4),
                             np.random.default_rng(4).choice(1 << 20, 500, replace=False)])
    labels = np.unique(labels)
    counts, used = {}, []
    for workers in (1, 2):
        with ThreadPoolExecutor(workers) as pool:
            monkeypatch.setattr(fs, "_pool", lambda: used.append(1) or pool)
            counts[workers] = sample_counts(st, 200_000, 5, labels)
    assert used and np.array_equal(counts[1], counts[2])
    assert counts[1].sum() > 0


@pytest.mark.parametrize("workers", [1, 3])
def test_chunks_run_one_item_per_cpu_in_chunk_order(monkeypatch, workers):
    # 40 chunks on a pool of one worker per usable CPU: at most that many items
    # are submitted, each making one workspace; every chunk runs once, uneven
    # chunk times still give the results in chunk order, and a chunk's
    # exception propagates once every item has ended
    import os
    import time
    from concurrent.futures import ThreadPoolExecutor
    import feasmass.fullspace as fs
    monkeypatch.setattr(fs, "_CHUNK", 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))

    class Counting(ThreadPoolExecutor):
        def submit(self, *args):
            submitted.append(1)
            return super().submit(*args)

    def chunk(ws, lo):
        time.sleep(0.001 * (lo % 3))
        ran.append(lo)
        if lo == fail:
            raise ValueError(f"chunk at {lo}")
        return ws, lo // 8

    def space():
        spaces.append(object())
        return spaces[-1]
    with Counting(workers) as pool:
        monkeypatch.setattr(fs, "_pool", lambda: pool)
        for fail in (None, 8 * 17):
            submitted, ran, spaces = [], [], []
            if fail is None:
                out = fs._items(chunk, 320, space)
                assert [i for _, i in out] == list(range(40))
                assert sorted(ran) == list(range(0, 320, 8))
                assert {id(ws) for ws, _ in out} <= set(map(id, spaces))
            else:
                with pytest.raises(ValueError, match="chunk at 136"):
                    fs._items(chunk, 320, space)
                done = len(ran)
                time.sleep(0.05)
                assert len(ran) == done and len(set(ran)) == done and fail in ran
            assert len(submitted) == len(spaces) == workers
        submitted = []
        assert fs._chunks(lambda lo: lo, 320) == list(range(0, 320, 8))
        assert len(submitted) == workers


@settings(max_examples=60, deadline=None, database=None)
@given(bits=hs.integers(0, 9), seed=hs.integers(0, 2 ** 32 - 1), shots=hs.integers(0, 3_000),
       chunk=hs.sampled_from([1, 7, 64, 1 << 16]), data=hs.data())
def test_sampler_subset_counts_are_the_all_label_counts_property(bits, seed, shots, chunk, data):
    # on any subset of labels, in any order, the counts are the all-label
    # counts at those labels; the all-label counts sum to shots; one seed
    # gives one histogram
    import feasmass.fullspace as fs
    st = unit_state(np.random.default_rng(seed), 1 << bits)
    subset = data.draw(hs.lists(hs.integers(0, (1 << bits) - 1), unique=True))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fs, "_CHUNK", chunk)
        every = sample_counts(st, shots, seed, np.arange(1 << bits))
        assert every.sum() == shots
        assert np.array_equal(sample_counts(st, shots, seed, np.arange(1 << bits)), every)
        assert sample_counts(st, shots, seed, subset).tolist() == every[subset].tolist()


def test_single_precision_mode_tracks_double():
    inst = synthetic_instance(3, seed=2, high=5)
    sched = AngleSchedule.single(0.8, 0.5)
    lo = run_generic(inst, sched, precision="f32")
    hi = run_generic(inst, sched, precision="f64")
    assert lo.dtype == np.complex64
    assert np.abs(lo.astype(np.complex128) - hi).max() < 1e-5
    assert abs(1 - norm_squared(lo)) < 1e-5


def test_init_plus_full_scale_norm():
    # the largest supported register: 2**25 amplitudes, norm exact to 1e-9
    st = init_plus(25, np.complex128)
    assert abs(1 - norm_squared(st)) < 1e-9
    del st


def test_run_generic_capacity_guard():
    inst = synthetic_instance(6, seed=1, high=3)
    with pytest.raises(CapacityError):
        run_generic(inst, AngleSchedule.single(0.1, 0.1), "f64")


def test_cost_phase_partition_independent(monkeypatch):
    # chunked processing must be bitwise identical to one whole-array pass
    import feasmass.fullspace as fs
    cost = synthetic_instance(3, seed=1, high=5)
    rng = np.random.default_rng(6)
    st = rng.normal(size=512) + 1j * rng.normal(size=512)
    whole = st.copy()
    apply_cost_phase(whole, cost_levels(cost.cost_vector()), 0.83)
    tabled = np.tile(st, 128)   # 2**16 amplitudes for the n = 4 level range
    few = cost_levels(synthetic_instance(4, high=1).cost_vector())
    tabled_whole = apply_cost_phase(tabled.copy(), few, 0.83)
    chunked = st.copy()
    monkeypatch.setattr(fs, "_CHUNK", 37)
    apply_cost_phase(chunked, cost_levels(cost.cost_vector()), 0.83)
    assert np.array_equal(whole, chunked)
    # the level table is built and gathered 37 entries at a time too
    assert np.array_equal(apply_cost_phase(tabled, few, 0.83), tabled_whole)
