"""Hypothesis properties of whole runs and of the instance parser, on bounded
examples at n <= 3: the norm, the feasible mass, seeded histograms and the
parser's errors."""
import math
import re

import hypothesis.strategies as hs
import numpy as np
from hypothesis import HealthCheck, given, settings

from feasmass.experiments import feasible_histogram
from feasmass.fullspace import AngleSchedule, feasible_mass, norm_squared, run_generic
from feasmass.instance import (InstanceDimensionError, InstanceFormatError, load_instance,
                               synthetic_instance)
from feasmass.subspace import run_ce, subspace_feasible_mass

PROPERTY = settings(max_examples=30, deadline=None, database=None)

costs = hs.builds(synthetic_instance, hs.sampled_from([2, 3]), hs.integers(0, 1000),
                  hs.integers(1, 9))
schedules = hs.integers(1, 3).flatmap(lambda p: hs.builds(
    AngleSchedule, hs.lists(hs.floats(-2 * math.pi, 2 * math.pi), min_size=p, max_size=p),
    hs.lists(hs.floats(-2 * math.pi, 2 * math.pi), min_size=p, max_size=p)))


@PROPERTY
@given(costs, schedules, hs.booleans())
def test_runs_keep_the_norm(cost, schedule, normalized):
    # the generic state in the X mixer's frame and the CE state, in complex128
    assert abs(1 - norm_squared(run_generic(cost, schedule, "f64"))) <= 1e-12
    assert abs(1 - norm_squared(run_ce(cost, schedule, normalized))) <= 1e-12


@PROPERTY
@given(costs, schedules, hs.sampled_from(["f64", "f32"]), hs.booleans())
def test_feasible_masses_lie_in_the_unit_interval(cost, schedule, precision, normalized):
    assert 0.0 <= feasible_mass(run_generic(cost, schedule, precision), cost.n) <= 1.0
    assert 0.0 <= subspace_feasible_mass(run_ce(cost, schedule, normalized), cost.n) <= 1.0


@PROPERTY
@given(costs, schedules, hs.sampled_from(["generic", "ce"]), hs.integers(0, 2000),
       hs.integers(0, 2 ** 32 - 1))
def test_one_seed_gives_one_histogram(cost, schedule, method, shots, seed):
    runs = [feasible_histogram(cost, method, schedule, shots, seed, True, "f64") for _ in range(2)]
    assert runs[0].table == runs[1].table
    assert runs[0].metrics == runs[1].metrics


VALID = "# three cities\n3\n0 2 9  # row 0\n2 0 6\n\n9 6 0\n"
edits = hs.lists(hs.tuples(hs.integers(0, len(VALID)), hs.integers(0, 3),
                           hs.text("0123456789-+#x. \n", max_size=4)), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits)
def test_mutated_instance_files_raise_format_errors_with_a_line(tmp_path, edits):
    # a mutated file either loads or raises InstanceFormatError (or its
    # InstanceDimensionError) naming a line; only a file with no number left
    # has no line to name
    text = VALID
    for at, cut, insert in edits:
        text = text[:at] + insert + text[at + cut:]
    path = tmp_path / "mutated.txt"
    path.write_text(text)
    try:
        cost = load_instance(path)
    except InstanceFormatError as exc:   # InstanceDimensionError is one
        empty = not any(line.split("#", 1)[0].split() for line in text.splitlines())
        assert (re.match(rf"{re.escape(str(path))}:\d+: ", str(exc))
                or empty and str(exc) == f"{path}: empty instance file"), str(exc)
        assert type(exc) in (InstanceFormatError, InstanceDimensionError)
    else:
        assert cost.n >= 2 and np.all(cost.dist >= 0) and not np.diag(cost.dist).any()
