import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from feasmass.instance import (CapacityError, DiagonalCost, InstanceDimensionError,
                               InstanceFormatError, _cost_terms, build_cost, check_run,
                               default_penalty_weight, feasible_indices,
                               feasible_subspace_indices, load_instance, make_instance,
                               synthetic_instance)
from feasmass.subspace import leakage_gram, subspace_to_full_labels

from oracles import (bits_to_matrix, bitstring_str, broadcast_dense_cost, cost_value,
                     is_permutation_feasible, parse_bitstring)


def write_instance(tmp_path, text, name="inst.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_simple(tmp_path):
    p = write_instance(tmp_path, "3\n0 1 2\n1 0 3\n2 3 0\n")
    inst = load_instance(p)
    assert inst.n == 3
    assert inst.dist[0][1] == 1
    assert inst.dist[1][2] == 3
    assert inst.penalty_weight == 3 * 3 + 1


def test_load_with_comments(tmp_path):
    p = write_instance(tmp_path, "# header\n2\n0 5\n# interior comment\n5 0\n")
    inst = load_instance(p)
    assert inst.n == 2
    assert inst.dist[0][1] == 5


def test_load_dimension_error(tmp_path):
    p = write_instance(tmp_path, "3\n0 1 2\n1 0 3\n")
    with pytest.raises(InstanceDimensionError):
        load_instance(p)


def test_load_parse_error_names_line(tmp_path):
    p = write_instance(tmp_path, "2\n0 x\n5 0\n")
    with pytest.raises(InstanceFormatError, match=":2:"):
        load_instance(p)


INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def test_load_shipped_instances():
    for name, n in (("wi3", 3), ("wi4", 4), ("wi5", 5)):
        inst = load_instance(INSTANCES / f"{name}.txt")
        assert inst.n == n
        assert inst.num_qubits == n * n
        d = inst.dist
        assert (d == d.T).all() and (np.diag(d) == 0).all()
        assert d.dtype == np.int64 and not d.flags.writeable
        assert type(inst.penalty_weight) is int   # the config JSON writes it


def test_make_instance_validation():
    with pytest.raises(InstanceDimensionError):
        make_instance([[0, 1, 2], [1, 0, 3]], "unnamed")
    with pytest.raises(ValueError):
        make_instance([[1, 2], [2, 1]], "unnamed")  # nonzero diagonal


def test_default_penalty_weight():
    assert default_penalty_weight([[0, 7], [7, 0]]) == 15
    # Python ints: an int64 product would wrap negative here
    assert default_penalty_weight([[0, 4 * 10 ** 18], [1, 0]]) == 8 * 10 ** 18 + 1


def test_feasibility_n2():
    assert is_permutation_feasible(parse_bitstring("1001"), 2)
    assert not is_permutation_feasible(parse_bitstring("1100"), 2)
    assert bitstring_str(parse_bitstring("1001"), 2) == "1001"


def test_feasibility_matches_brute_force():
    for n in (2, 3):
        brute = [x for x in range(1 << (n * n))
                 if (bits_to_matrix(x, n).sum(axis=0) == 1).all()
                 and (bits_to_matrix(x, n).sum(axis=1) == 1).all()]
        assert sorted(feasible_indices(n).tolist()) == brute
        assert all(is_permutation_feasible(x, n) for x in brute)
        others = set(range(1 << (n * n))) - set(brute)
        assert not any(is_permutation_feasible(x, n) for x in list(others)[:200])


def test_enumerate_counts():
    assert set(feasible_indices(2).tolist()) == {parse_bitstring("1001"), parse_bitstring("0110")}
    assert len(feasible_indices(3).tolist()) == 6
    assert len(feasible_indices(5).tolist()) == 120
    with pytest.raises(CapacityError, match=r"^full-space labels need 64 bits; capped at 63 "
                                            r"\(labels are int64\)$"):
        feasible_indices(8)


def test_enumerate_order_is_lexicographic():
    for n in range(2, 8):
        feas = feasible_indices(n).tolist()
        perms = []
        for x in feas:
            m = bits_to_matrix(x, n)
            perms.append(tuple(int(np.argmax(row)) for row in m))
        assert perms == sorted(perms)
        # the subspace indices and the label map give the same labels, element for element
        assert feas == subspace_to_full_labels(n)[feasible_subspace_indices(n)].tolist()
        if n <= 6:   # the n = 7 Gram is 5040 x 5040 floats, about 200 MB
            # the Gram's rows: permutations one transposition apart, in this order
            p = np.array(perms)
            moves = (p[:, None] != p).sum(axis=2) == 2
            assert (leakage_gram(n) == 8.0 * n * (n - 1) * np.eye(len(p)) + 16.0 * moves).all()


def test_cost_all_zero_dist():
    cost = make_instance([[0, 0], [0, 0]], "unnamed")
    assert cost_value(cost, 0) == 4  # all four one-hot sums are off by one


def test_cost_identity_tour():
    cost = make_instance([[0, 5], [5, 0]], "unnamed")
    y = parse_bitstring("1001")
    assert cost_value(cost, y) == 10  # zero penalty, tour 5 + 5


def test_cost_feasible_has_zero_penalty():
    cost = synthetic_instance(3, seed=4, high=5)
    bare = replace(cost, include_penalty=False)
    for x in feasible_indices(3).tolist():
        assert cost_value(cost, x) == cost_value(bare, x)


def test_replaced_cost_builds_its_own_table():
    # dataclasses.replace must not carry over a table built for other fields
    cost = build_cost(synthetic_instance(3, seed=1))
    cost.cost_vector()
    bare = replace(cost, include_penalty=False)
    assert np.array_equal(bare.cost_vector(), broadcast_dense_cost(
        np.arange(8), cost.dist, cost.penalty_weight, False))
    doubled = replace(cost, dist=cost.dist * 2)
    assert np.array_equal(doubled.cost_vector(), broadcast_dense_cost(
        np.arange(8), cost.dist * 2, cost.penalty_weight, True))


def test_cost_vector_matches_scalar():
    for n in (2, 3):
        cost = synthetic_instance(n, seed=1, high=5)
        vec = cost.cost_vector()
        for y in range(1 << (n * n)):
            assert int(vec[y]) == cost_value(cost, y)


def test_cost_vector_matches_scalar_n4_sampled():
    cost = synthetic_instance(4, seed=2, high=9)
    vec = cost.cost_vector()
    rng = np.random.default_rng(0)
    for y in rng.integers(0, 1 << 16, size=300):
        assert int(vec[y]) == cost_value(cost, int(y))


def test_cost_nonnegative_integer_lattice():
    inst = synthetic_instance(3, seed=5, high=5)
    vec = inst.cost_vector()
    assert vec.min() >= 0
    assert np.issubdtype(vec.dtype, np.integer)


def test_tie_broken_vector_is_injective():
    inst = synthetic_instance(2, seed=3, high=3)
    tb = inst.tie_broken_vector()
    assert len(np.unique(tb)) == len(tb)


def test_spread_exact_small():
    cost = synthetic_instance(3, seed=1, high=5)
    vec = cost.cost_vector()
    assert cost.spread == int(vec.max() - vec.min())


INT32_MAX, INT64_MAX = np.iinfo(np.int32).max, np.iinfo(np.int64).max


def uniform_cost(n: int, d: int, include_penalty: bool = True):
    dist = np.full((n, n), d)
    np.fill_diagonal(dist, 0)
    return replace(make_instance(dist, "unnamed"), include_penalty=include_penalty)


def test_n5_cost_past_int32_takes_the_int64_table():
    # off-diagonal distances of 3e6 put the all-ones cost at 2,700,000,160,
    # past int32: the full table at n = 5 is int64 (256 MiB), and a generic
    # run's predicted peak counts it so, with no 2**25 build here.  Distances
    # of 2,385,000 put the all-ones cost just under the int32 maximum
    cost, narrow = uniform_cost(5, 3_000_000), uniform_cost(5, 2_385_000)
    assert cost_value(cost, (1 << 25) - 1) == 2_700_000_160
    assert _cost_terms(cost, False)[:2] == (np.int64, 2_700_000_160)
    assert _cost_terms(narrow, False)[:2] == (np.int32, 2_146_500_160)
    run = lambda c: check_run(c, False, np.complex64, 0, "a generic run at n=5")
    assert run(cost) - run(narrow) == 4 << 25   # 4 more bytes per entry, nothing else
    assert cost._vector is None and narrow._vector is None


@pytest.mark.parametrize("n, d", [(3, 10 ** 18), (4, 10 ** 17), (5, 3_000_000), (5, 10 ** 17)])
def test_full_table_guard_reports_the_all_ones_cost(n, d):
    # for n >= 3 the guard's sum of largest terms is the all-ones cost: past
    # int64 the table is refused with it, before any build; 3e6 at n = 5 is
    # past int32 only, so the bound picks the int64 table
    cost = uniform_cost(n, d)
    top = cost_value(cost, (1 << (n * n)) - 1)
    if top <= INT64_MAX:
        assert _cost_terms(cost, False)[:2] == (np.int64, top)
    else:
        with pytest.raises(CapacityError, match=f"largest cost {top} overflows the int64 "
                                                f"cost table at n={n}; use smaller distances"):
            cost.cost_vector()
        with pytest.raises(CapacityError):
            cost.spread
    assert cost._vector is None


def boundary_distance(n: int, one_hot: bool, include_penalty: bool, limit: int) -> int:
    """The largest uniform distance whose table bound stays at most ``limit``:
    _cost_terms' top grows strictly with the distance, so a bisection finds it."""
    def fits(d):
        try:
            return _cost_terms(uniform_cost(n, d, include_penalty), one_hot)[1] <= limit
        except CapacityError:   # past int64
            return False
    lo, hi = 1, 2
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("one_hot, n", [(False, n) for n in (2, 3, 4, 5)]
                         + [(True, n) for n in range(2, 9)])
@pytest.mark.parametrize("include_penalty", [True, False])
def test_table_width_is_int32_exactly_when_the_bound_fits(one_hot, n, include_penalty):
    # one rule for both tables at every n: int32 when top <= int32 max, else
    # int64, and refused past int64; checked at both boundaries from
    # _cost_terms alone, with no table built
    for limit, inside, outside in ((INT32_MAX, np.int32, np.int64), (INT64_MAX, np.int64, None)):
        d = boundary_distance(n, one_hot, include_penalty, limit)
        dtype, top = _cost_terms(uniform_cost(n, d, include_penalty), one_hot)[:2]
        assert dtype == inside and top <= limit, (d, top)
        over = uniform_cost(n, d + 1, include_penalty)
        if outside is None:
            with pytest.raises(CapacityError, match=f"overflows the int64 cost table at n={n}"):
                _cost_terms(over, one_hot)
        else:
            dtype, top = _cost_terms(over, one_hot)[:2]
            assert dtype == outside and top > limit, (d, top)


def test_ce_bound_at_int64_max_is_admitted():
    # int32's maximum is prime, so no bound lands on it, but 2**63 - 1 is
    # 7 * 1,317,624,576,693,539,401: the n = 7 CE bound 7*(6A + max(dist))
    # reaches it with A = 1, and one more is refused
    edge = (INT64_MAX // 7) - 6
    cost = DiagonalCost(uniform_cost(7, edge).dist, penalty_weight=1, name="edge")
    assert _cost_terms(cost, True)[:2] == (np.int64, INT64_MAX)
    with pytest.raises(CapacityError, match="overflows the int64 cost table at n=7"):
        _cost_terms(DiagonalCost(uniform_cost(7, edge + 1).dist, 1, "over"), True)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("include_penalty", [True, False])
def test_slab_cost_build_matches_broadcast_oracle(n, seed, include_penalty):
    cost = replace(synthetic_instance(n, seed=seed), include_penalty=include_penalty)
    want = broadcast_dense_cost(np.arange(1 << n), cost.dist, cost.penalty_weight,
                                include_penalty)
    got = cost.cost_vector()
    assert _cost_terms(cost, False)[1] <= INT32_MAX and got.dtype == np.int32
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_slab_cost_build_matches_broadcast_oracle_asymmetric(n):
    # synthetic distances are symmetric; a tour term read the wrong way
    # round only shows on an asymmetric matrix
    dist = np.random.default_rng(n).integers(1, 50, size=(n, n))
    np.fill_diagonal(dist, 0)
    cost = make_instance(dist, "unnamed")
    want = broadcast_dense_cost(np.arange(1 << n), cost.dist, cost.penalty_weight, True)
    assert np.array_equal(cost.cost_vector(), want)


@pytest.mark.parametrize("off_diagonal", [None, 2_385_000])
def test_slab_cost_build_n5_int32_sampled(off_diagonal):
    # 2,385,000 puts the all-ones cost at 2,146,500,160, just under the int32
    # maximum, so partial sums wrap; the finished table must still be exact
    if off_diagonal is None:
        cost = synthetic_instance(5, seed=3)
    else:
        dist = np.full((5, 5), off_diagonal)
        np.fill_diagonal(dist, 0)
        cost = make_instance(dist, "unnamed")
    vec = cost.cost_vector()
    assert vec.dtype == np.int32
    top = (1 << 25) - 1
    labels = np.append(np.random.default_rng(11).integers(0, 1 << 25, size=300), top)
    assert [int(vec[y]) for y in labels] == [cost_value(cost, int(y)) for y in labels]
    if off_diagonal is not None:
        assert int(vec[top]) == 2_146_500_160


def test_baseline_fraction_arithmetic():
    assert Fraction(math.factorial(3), 2 ** 9) == Fraction(6, 512)


def test_big_m_separates_infeasible_strings():
    # with the default weight every infeasible label costs strictly more
    # than its bare tour value, and more than any feasible tour
    cost = synthetic_instance(2, seed=6, high=3)
    bare = replace(cost, include_penalty=False)
    max_tour = max(cost_value(cost, x) for x in feasible_indices(2).tolist())
    for y in range(16):
        if is_permutation_feasible(y, 2):
            assert cost_value(cost, y) == cost_value(bare, y)
        else:
            assert cost_value(cost, y) > cost_value(bare, y)
            assert cost_value(cost, y) > max_tour
