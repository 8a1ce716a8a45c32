"""The memory budget: every memory cap is one ``instance.check_bytes`` call on
a run's predicted peak, made before its first large allocation.

The predictions are checked against the measured ``ru_maxrss`` rise of one
run per process, and the refusals against fakes of the functions that would
allocate, so no test here touches more than a few tens of MiB.
"""
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from feasmass import experiments, instance, subspace
from feasmass.cli import main
from feasmass.experiments import GridSpec
from feasmass.fullspace import AngleSchedule
from feasmass.instance import MAX_BYTES, CapacityError, load_instance, synthetic_instance

ROOT = Path(__file__).resolve().parent.parent
WI4 = str(ROOT / "instances" / "wi4.txt")
WI5 = str(ROOT / "instances" / "wi5.txt")
MIB = 1 << 20

_MEASURE = """
import json, os, resource, sys, tempfile
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])   # the thread pool's size
from feasmass import cli, instance
check, calls = instance.check_bytes, []
def record(nbytes, what):
    calls.append(nbytes)
    return check(nbytes, what)
for name, mod in list(sys.modules.items()):
    if name.startswith("feasmass") and getattr(mod, "check_bytes", None) is check:
        mod.check_bytes = record
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with tempfile.TemporaryDirectory() as out:
    rc = cli.main(sys.argv[1:] + ["--out", out])
rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base
print(json.dumps([rc, rise * 1024, max(calls)]))
"""


@pytest.mark.parametrize("argv", [
    ["grid", "--instance", WI4, "--grid", "24x24"],
    ["hist", "--n", "7", "--method", "ce", "--gamma", "0.4,0.5", "--beta-list", "0.3,0.2",
     "--shots", "500000"],
    ["markov", "--n", "3", "--beta", "0.7", "--t", "4", "--seed", "7921"],   # L = 270,000
])
def test_predicted_peak_matches_measured_rss(argv):
    # the largest prediction a run checks against the ru_maxrss rise over the
    # post-import baseline, one run per process; the pool threads' malloc
    # arenas and lazily imported modules add a few MiB beside the arrays.
    # The tolerance was measured with 2 pool threads and 2 BLAS threads, so
    # the run is held to 2 CPUs: each thread adds arenas and buffers.
    # Linux keeps ru_maxrss across exec, so a child of this large process
    # would start at its size: a small interpreter in between forks the run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="2",
               OMP_NUM_THREADS="2")
    spawn = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", spawn, sys.executable, "-c", _MEASURE, "run",
                           *argv], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rc, rise, predicted = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    assert abs(rise - predicted) <= max(0.25 * predicted, 8 * MIB), (rise / MIB, predicted / MIB)


def _unreachable(*args, **kwargs):
    raise AssertionError("allocated before the budget check")


@pytest.mark.parametrize("argv, what", [
    (["twirl", "--n", "9"], "a twirl at n=9"),
    (["hist", "--n", "6", "--method", "generic", "--shots", "10"],
     "10 shots of a generic run at n=6"),
])
def test_oversized_run_is_refused_before_its_table(tmp_path, capsys, monkeypatch, argv, what):
    # at n = 9 the int64 CE table alone is 3.1 GB, at n = 6 the full one 512 GiB;
    # the run's state alone is refused, and the message says so
    monkeypatch.setattr(instance, "_dense_cost", _unreachable)
    monkeypatch.setattr(subspace, "_dense_cost", _unreachable)
    out = tmp_path / "out"
    assert main(["run", *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: the state of {what} needs ") and err.count("\n") == 1
    assert err.endswith(f" bytes; memory capped at {MAX_BYTES} bytes\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, what", [
    (["grid", "--n", "14"], "a 10x10 grid"),
    (["hist", "--n", "12", "--method", "generic"], "0 shots of a generic run at n=12"),
    (["l4", "--n", "5"], "a 33554432 x 2**25 kernel row block"),
    (["avg", "--n", "5"], "a 120 x 2**25 kernel row block"),
])
def test_far_oversized_run_is_refused_before_any_large_array(tmp_path, capsys, monkeypatch,
                                                              argv, what):
    # the state or the kernel rows alone are checked first: _cost_terms' object
    # matrices (2**n x 2**n: 2 x 268M entries at n = 14) and an index array of
    # 2**25 rows are large allocations of their own; a run's state is named so
    state = "the state of " if argv[0] in ("grid", "hist") else ""
    monkeypatch.setattr(instance, "_cost_terms", _unreachable)
    monkeypatch.setattr(instance, "_dense_cost", _unreachable)
    monkeypatch.setattr(experiments, "mixer_kernel_rows", _unreachable)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        rc = main(["run", *argv, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {state}{what} needs ") and err.count("\n") == 1
    assert err.endswith(f" bytes; memory capped at {MAX_BYTES} bytes\n")
    assert peak < 4 * MIB, peak
    assert not out.exists()


def test_oversized_shots_are_refused_before_the_circuit(tmp_path, capsys, monkeypatch):
    # 8 B per shot for the sampler's uniforms: 1e11 shots are 800 GB, refused
    # before the circuit runs, not by numpy after it
    monkeypatch.setattr(experiments, "run_ce", _unreachable)
    out = tmp_path / "out"
    rc = main(["run", "hist", "--n", "2", "--method", "ce", "--shots", "100000000000",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 100000000000 shots of a ce run at n=2 needs 8000")
    assert err.endswith(f" bytes; memory capped at {MAX_BYTES} bytes\n")
    assert not out.exists()


class _Admitted(Exception):
    """Raised by a fake of the first large allocation: the budget let the run in."""


def _admit(*args, **kwargs):
    raise _Admitted


@pytest.mark.parametrize("owner, name, run", [
    (experiments, "run_generic", lambda: experiments.feasible_histogram(
        load_instance(WI5), "generic", AngleSchedule.single(0.4, 0.3), 500_000, 1, True, "f64")),
    (instance, "build_cost", lambda: experiments.grid_search_generic(
        load_instance(WI5), GridSpec(2, 2), precision="f64")),
    (experiments, "run_ce", lambda: experiments.twirl_existence_experiment(
        synthetic_instance(8, seed=1), AngleSchedule.single(0.4, 0.3), normalized=True)),
    (experiments, "run_ce", lambda: experiments.feasible_histogram(
        synthetic_instance(7, seed=1), "ce", AngleSchedule.single(0.4, 0.3), 500_000, 1, True,
        "f64")),
])
def test_largest_runs_fit_the_budget(monkeypatch, owner, name, run):
    # wi5 f64 hist with 500k shots (measured rise 700 MiB), the wi5 f64 grid
    # (831 MiB at 2x2), twirl at n = 8 (392 MiB) and CE hist at n = 7 all
    # pass their checks; the fake stops each before anything large is made
    monkeypatch.setattr(owner, name, _admit)
    with pytest.raises(_Admitted):
        run()


def test_budget_is_the_one_byte_comparison():
    # a prediction one byte over the budget is refused, one at it is not
    instance.check_bytes(MAX_BYTES, "at the budget")
    with pytest.raises(CapacityError, match="^over it needs 2147483649 bytes; memory capped at "
                                            "2147483648 bytes$"):
        instance.check_bytes(MAX_BYTES + 1, "over it")
