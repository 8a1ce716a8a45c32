import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from feasmass.instance import (CapacityError, InstanceDimensionError,
                               InstanceFormatError, build_cost,
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
        make_instance([[0, 1, 2], [1, 0, 3]])
    with pytest.raises(ValueError):
        make_instance([[1, 2], [2, 1]])  # nonzero diagonal


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
    cost = make_instance([[0, 0], [0, 0]])
    assert cost_value(cost, 0) == 4  # all four one-hot sums are off by one


def test_cost_identity_tour():
    cost = make_instance([[0, 5], [5, 0]])
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
        3, cost.dist, cost.penalty_weight, False, np.int64))
    doubled = replace(cost, dist=cost.dist * 2)
    assert np.array_equal(doubled.cost_vector(), broadcast_dense_cost(
        3, cost.dist * 2, cost.penalty_weight, True, np.int64))


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


def test_int32_cost_table_refuses_overflow_n5():
    # off-diagonal distances of 3e6 put the all-ones cost at 2,700,000,160,
    # past the int32 table; the guard fires before the 2**25 build
    dist = np.full((5, 5), 3_000_000)
    np.fill_diagonal(dist, 0)
    cost = make_instance(dist)
    assert cost_value(cost, (1 << 25) - 1) == 2_700_000_160
    with pytest.raises(CapacityError, match="overflows"):
        cost.cost_vector()
    with pytest.raises(CapacityError):
        cost.spread
    assert cost._vector is None


@pytest.mark.parametrize("n, d", [(3, 10 ** 18), (4, 10 ** 17), (5, 3_000_000)])
def test_full_table_guard_reports_the_all_ones_cost(n, d):
    # for n >= 3 the guard's sum of largest terms is the all-ones cost
    dist = np.full((n, n), d)
    np.fill_diagonal(dist, 0)
    cost = make_instance(dist)
    top = cost_value(cost, (1 << (n * n)) - 1)
    dtype = "int32" if n == 5 else "int64"
    with pytest.raises(CapacityError, match=f"largest cost {top} overflows the {dtype} "
                                            f"cost table at n={n}; use smaller distances"):
        cost.cost_vector()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("include_penalty", [True, False])
def test_slab_cost_build_matches_broadcast_oracle(n, seed, include_penalty):
    cost = replace(synthetic_instance(n, seed=seed), include_penalty=include_penalty)
    want = broadcast_dense_cost(n, cost.dist, cost.penalty_weight, include_penalty, np.int64)
    got = cost.cost_vector()
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_slab_cost_build_matches_broadcast_oracle_asymmetric(n):
    # synthetic distances are symmetric; a tour term read the wrong way
    # round only shows on an asymmetric matrix
    dist = np.random.default_rng(n).integers(1, 50, size=(n, n))
    np.fill_diagonal(dist, 0)
    cost = make_instance(dist)
    want = broadcast_dense_cost(n, cost.dist, cost.penalty_weight, True, np.int64)
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
        cost = make_instance(dist)
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
