import math

import numpy as np
import pytest

from feasmass import harmonic
from feasmass.fullspace import AngleSchedule, feasible_mass, mixer_kernel_rows, run_generic
from feasmass.harmonic import (dyadic_convolve, feasible_mass_via_plancherel, krawtchouk,
                               krawtchouk_orthogonality_check, krawtchouk_table,
                               low_degree_mass, mixer_walsh_multiplier,
                               permutation_spectrum, popcounts,
                               row_spectrum_closed_form, sphere_indicator,
                               sphere_spectrum, walsh_transform, _fwht_inplace)
from feasmass.instance import synthetic_instance

from oracles import inverse_walsh_transform


def test_constant_function_is_dc():
    spec = walsh_transform(np.ones(8))
    assert spec[0] == pytest.approx(1.0)
    assert np.abs(spec[1:]).max() < 1e-15


def test_character_transforms_to_delta():
    T = 0b101
    n = 3
    chi = np.array([(-1) ** ((x & T).bit_count()) for x in range(8)], dtype=float)
    spec = walsh_transform(chi)
    expect = np.zeros(8)
    expect[T] = 1.0
    assert np.abs(spec - expect).max() < 1e-15


def test_one_hot_spectrum_closed_form():
    n = 3
    spec = walsh_transform(sphere_indicator(n, 1))
    expect = (n - 2 * popcounts(n)) * 2.0 ** (-n)
    assert np.abs(spec - expect).max() < 1e-15


def test_involution_and_round_trip():
    rng = np.random.default_rng(1)
    f = rng.normal(size=1 << 10) + 1j * rng.normal(size=1 << 10)
    twice = _fwht_inplace(_fwht_inplace(f.copy()))
    assert np.abs(twice - (1 << 10) * f).max() < 1e-9
    back = inverse_walsh_transform(walsh_transform(f))
    assert np.abs(back - f).max() < 1e-10


def test_parseval():
    rng = np.random.default_rng(2)
    f = rng.normal(size=256) + 1j * rng.normal(size=256)
    spec = walsh_transform(f)
    lhs = float(np.sum(np.abs(f) ** 2))
    rhs = 256 * float(np.sum(np.abs(spec) ** 2))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_non_power_of_two_rejected():
    with pytest.raises(ValueError):
        walsh_transform(np.ones(12))


def test_krawtchouk_linear_level():
    for n in (3, 4, 7):
        for r in range(n + 1):
            assert krawtchouk(n, 1, r) == n - 2 * r
    assert krawtchouk(4, 1, 1) == 2


def test_krawtchouk_at_zero_shell():
    assert krawtchouk(5, 2, 0) == 10
    for n in (2, 6):
        for w in range(n + 1):
            assert krawtchouk(n, w, 0) == math.comb(n, w)


def test_krawtchouk_generating_function():
    # sum_w K_w(r) z^w = (1+z)^(n-r) (1-z)^r at z=1, n=2, r=1 -> 0
    n, r, z = 2, 1, 1
    total = sum(krawtchouk(n, w, r) * z ** w for w in range(n + 1))
    assert total == 0
    for n, r, z in ((5, 2, 2), (6, 3, -1)):
        total = sum(krawtchouk(n, w, r) * z ** w for w in range(n + 1))
        assert total == (1 + z) ** (n - r) * (1 - z) ** r


@pytest.mark.parametrize("n", [3, 10, 12])
def test_krawtchouk_orthogonality(n):
    assert krawtchouk_orthogonality_check(n)


def test_orthogonality_detects_perturbation(monkeypatch):
    table = [list(row) for row in krawtchouk_table(3)]
    table[1][2] += 1
    monkeypatch.setattr(harmonic, "krawtchouk_table", lambda n: tuple(map(tuple, table)))
    assert not krawtchouk_orthogonality_check(3)


def test_krawtchouk_reciprocity():
    for n in range(2, 11):
        for w in range(n + 1):
            for r in range(n + 1):
                assert (krawtchouk(n, w, r) * math.comb(n, r)
                        == krawtchouk(n, r, w) * math.comb(n, w))


def test_sphere_spectrum_values():
    spec = sphere_spectrum(3, 1)
    assert spec[0] == pytest.approx(3 / 8)
    energy = 8 * float(np.sum(np.abs(spec) ** 2))
    assert energy == pytest.approx(3.0)  # ||one-hot indicator||^2 = n
    spec0 = sphere_spectrum(4, 0)
    assert np.allclose(spec0, 2.0 ** -4)


@pytest.mark.parametrize("n", [4, 8, 12])
def test_sphere_spectrum_matches_transform(n):
    for w in (0, 1, 2, n // 2, n):
        got = sphere_spectrum(n, w)
        ref = walsh_transform(sphere_indicator(n, w))
        assert np.abs(got - ref).max() < 1e-10


def test_low_degree_mass_one_hot():
    spec = walsh_transform(sphere_indicator(3, 1))
    assert low_degree_mass(spec, 0) == pytest.approx(9 / 64)
    total = low_degree_mass(spec, 3)
    assert total == pytest.approx(2.0 ** -3 * 3.0)  # 2^-N ||g1||^2


@pytest.mark.parametrize("n", range(4, 13))
@pytest.mark.parametrize("d", [0, 1, 2])
def test_low_degree_mass_cap(n, d):
    # sum_{r<=d} C(n,r)(n-2r)^2 <= 2(d+1) n^(d+2), scaled by 2^-2n
    mass = sum(math.comb(n, r) * (n - 2 * r) ** 2 for r in range(d + 1)) * 4.0 ** -n
    cap = 4.0 ** -n * 2 * (d + 1) * n ** (d + 2)
    assert mass <= cap


def test_permutation_spectrum_factorization_and_mass():
    for n in (2, 3):
        N = n * n
        spectra = permutation_spectrum(n)
        closed = row_spectrum_closed_form(n)
        assert np.abs(spectra.row - closed).max() < 1e-12
        # ||row_hat||^2 = 2^-N n^n
        energy = float(np.sum(np.abs(spectra.row) ** 2))
        assert energy == pytest.approx(2.0 ** -N * n ** n, rel=1e-12)
        total = (1 << N) * float(np.sum(np.abs(spectra.full) ** 2))
        assert total == pytest.approx(math.factorial(n), rel=1e-12)


def test_permutation_spectrum_is_convolution():
    for n in (2, 3):
        spectra = permutation_spectrum(n)
        conv = dyadic_convolve(spectra.row, spectra.col)
        assert np.abs(spectra.full - conv).max() < 1e-12


def test_mixer_multiplier_modulus_and_midpoint():
    for s in range(5):
        assert abs(abs(mixer_walsh_multiplier(4, s, 0.9)) - 1) < 1e-15
    assert mixer_walsh_multiplier(4, 2, 1.234) == pytest.approx(1.0)


def test_mixer_multiplier_diagonalizes_kernel():
    rng = np.random.default_rng(3)
    f = rng.normal(size=16) + 1j * rng.normal(size=16)
    beta = 0.77
    K = mixer_kernel_rows(np.arange(16), beta, 4)
    lhs = walsh_transform(K @ f)
    lam = np.array([mixer_walsh_multiplier(4, int(s), beta) for s in popcounts(4)])
    rhs = lam * walsh_transform(f)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_plancherel_uniform_baseline():
    from feasmass.fullspace import init_plus
    assert feasible_mass_via_plancherel(init_plus(4), 2) == pytest.approx(2 / 16, abs=1e-12)


def test_plancherel_matches_direct_random_state():
    inst = synthetic_instance(3, seed=8, high=5)
    st = run_generic(inst, AngleSchedule.single(1.3, 0.6))
    assert feasible_mass_via_plancherel(st, 3) == pytest.approx(
        feasible_mass(st, 3), abs=1e-9)


def test_plancherel_matches_direct_on_grid_n2():
    cost = synthetic_instance(2, seed=8, high=3)
    worst = 0.0
    for g in np.linspace(0, math.pi, 6):
        for b in np.linspace(0, math.pi, 6):
            st = run_generic(cost, AngleSchedule.single(g, b))
            worst = max(worst, abs(feasible_mass_via_plancherel(st, 2)
                                   - feasible_mass(st, 2)))
    assert worst <= 1e-10


def test_injective_ratio_and_control_inequalities():
    from feasmass.bounds import (control_inequality_holds,
                                 control_threshold_start,
                                 injective_ratio_inequality_holds)
    assert all(injective_ratio_inequality_holds(n) for n in range(2, 51))
    for c_t in (0.1, 0.5, 1.0):
        start = control_threshold_start(c_t)
        assert all(control_inequality_holds(c_t, n)
                   for n in range(start, 201))


def test_transform_capacity_guard():
    from feasmass.instance import CapacityError
    with pytest.raises(CapacityError):
        walsh_transform(np.ones(1 << 21))
