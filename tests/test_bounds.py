import math

import mpmath
import pytest

from feasmass import bounds


def test_uniform_baseline_values():
    assert bounds.uniform_baseline(3) == pytest.approx(math.log(6 / 512), abs=1e-12)
    assert bounds.uniform_baseline(2) == pytest.approx(math.log(1 / 8), abs=1e-12)
    assert bounds.uniform_baseline(5) == pytest.approx(
        math.log(120) - 25 * math.log(2), abs=1e-12)


def test_l4_envelope_values():
    assert bounds.l4_envelope(9, math.pi / 4) == pytest.approx(9 * math.log(0.75))
    assert bounds.l4_envelope(4, 0.0) == pytest.approx(4 * math.log(0.5))
    assert bounds.l4_envelope(9, math.pi / 8) == pytest.approx(9 * math.log(0.625))


def test_lightcone_1d_values():
    assert bounds.lightcone_1d_bound(3, 1) == pytest.approx(3 * math.log(3 / 4))
    assert bounds.lightcone_1d_bound(4, 0) == pytest.approx(-12 * math.log(2))
    assert bounds.lightcone_1d_bound(5, 2) == pytest.approx(5 * (math.log(5) - 4 * math.log(2)))


def test_lightcone_degree_values():
    assert bounds.lightcone_degree_bound(4, 0, 1.0, 1.0) == pytest.approx(-12 * math.log(2))
    assert bounds.lightcone_degree_bound(4, 1, 3.0, 1.0) == pytest.approx(
        4 * (math.log(3) - 3 * math.log(2)))


def test_lightcone_degree_exponent_form():
    # [C d^p 2^-(n-1)]^n at p = alpha*n matches -n^2[ln2 - a*ln(d)] + n*lnC + n*ln2
    n, alpha, d = 10, 0.2, 3.0
    p = int(alpha * n)
    got = bounds.lightcone_degree_bound(n, p, d, 1.0)
    leading = -n * n * (math.log(2) - alpha * math.log(d))
    assert abs(got - leading) <= n * math.log(n) + n * math.log(2) + 1


def test_lightcone_degree_reduces_to_1d():
    for p in (0, 1, 2):
        c = (2 * p + 1) / 2.0 ** p
        assert bounds.lightcone_degree_bound(6, p, 2.0, c) == pytest.approx(
            bounds.lightcone_1d_bound(6, p), abs=1e-12)


def test_transfer_factor_values():
    exact, floor = bounds.transfer_factor(3)
    assert exact == pytest.approx(math.log(512 / 27), abs=1e-12)
    exact5, _ = bounds.transfer_factor(5)
    assert exact5 == pytest.approx(math.log(2 ** 25 / 3125), abs=1e-12)
    exact2, _ = bounds.transfer_factor(2)
    assert exact2 == pytest.approx(math.log(4), abs=1e-12)


def test_ratio_master():
    assert bounds.ratio_master(4, 0.0, 7.0, 1.0) == pytest.approx(
        16 * math.log(2) - 4 * math.log(4))
    base = bounds.ratio_master(4, 0.0, 7.0, 1.0)
    assert bounds.ratio_master(4, 0.0, 7.0, math.e) == pytest.approx(base + 1.0)
    got = bounds.ratio_master(10, 0.2, 3.0, 1.0)
    assert got == pytest.approx(100 * (math.log(2) - 0.2 * math.log(3))
                                - 10 * math.log(10))


def test_stirling_floor_violations_are_exactly_small_n():
    failing = [rep.params["n"] for rep in bounds.verify_bounds()
               if rep.name == "stirling_floor" and not rep.satisfied]
    assert failing == [2, 3, 4]


def test_log_space_against_arbitrary_precision():
    mpmath.mp.dps = 60
    for n in range(2, 11):
        exact = float(mpmath.log(mpmath.mpf(2) ** (n * n) / mpmath.mpf(n) ** n))
        assert abs(bounds.transfer_factor(n)[0] - exact) <= 1e-12 * abs(exact)
        base = float(mpmath.log(mpmath.factorial(n) / mpmath.mpf(2) ** (n * n)))
        assert abs(bounds.uniform_baseline(n) - base) <= 1e-12 * abs(base)
        env = float((n * n) * mpmath.log(mpmath.mpf(3) / 4))
        assert abs(bounds.l4_envelope(n * n, math.pi / 4) - env) <= 1e-12 * abs(env)


def test_verify_bounds_reports():
    reports = bounds.verify_bounds()
    names = {r.name for r in reports}
    assert {"injective_ratio_inequality", "control_threshold", "stirling_floor"} <= names
    stirling = {r.params["n"]: r.satisfied for r in reports if r.name == "stirling_floor"}
    assert not stirling[2] and not stirling[3] and not stirling[4]
    assert all(stirling[n] for n in range(5, 61))
