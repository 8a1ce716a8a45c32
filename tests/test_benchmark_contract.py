"""The benchmark's tracing contract with ``src``.

``benchmark/spans.py`` times the layers by rebinding ``src`` names in every
feasmass module that holds them, so every name it wraps must exist, and the
sweeps must call the layer functions through those module globals at call
time.  The benchmark files are only read here: they are executed from their
source text, and the subprocess runs with ``-B``, so nothing is written
under ``benchmark/``.
"""
import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from feasmass.instance import DiagonalCost

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"


def _load(name: str) -> types.ModuleType:
    path = BENCH / f"{name}.py"
    mod = types.ModuleType(f"benchmark_{name}")
    mod.__file__ = str(path)
    sys.modules[mod.__name__] = mod     # dataclasses look their module up
    try:
        exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    finally:
        del sys.modules[mod.__name__]
    return mod


def _resolves(span: str) -> bool:
    modname, _, name = span.partition(".")
    owner = DiagonalCost if modname == "instance" else importlib.import_module(f"feasmass.{modname}")
    return callable(getattr(owner, name, None))


def test_every_traced_and_predicted_name_resolves_in_src():
    spans, workloads = _load("spans"), _load("workloads")
    names = [f"{mod}.{fn}" for mod, fns in spans.WRAPPED.items() for fn in fns]
    names += [f"instance.{meth}" for meth in spans.COST_METHODS]
    names += [span for predicted in workloads.PREDICTED_SPANS.values() for span in predicted]
    assert [name for name in names if not _resolves(name)] == []


_TRACED_RUNS = """
import collections, json, sys, tempfile, threading
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from feasmass import cli, fullspace   # imported before install, as benchmark/worker.py does
import spans
tracer = spans.Tracer()
spans.install(tracer)
default_chunk, calls = fullspace._CHUNK, []
for chunk, argv in json.loads(sys.argv[3]):
    fullspace._CHUNK = chunk or default_chunk
    start = len(tracer.spans)
    with tempfile.TemporaryDirectory() as out:
        rc = cli.main(argv + ["--out", out])
    calls.append([rc, collections.Counter(s[0] for s in tracer.spans[start:]),
                  len(tracer.stack), threading.active_count()])
print(json.dumps(calls))
"""

HIST_WI3 = ["run", "hist", "--instance", str(ROOT / "instances" / "wi3.txt"), "--method",
            "generic", "--precision", "f32", "--gamma", "0.4", "--beta-list", "0.3",
            "--shots", "2000"]


@pytest.fixture(scope="module")
def traced_runs():
    """(exit code, span counts, tracer stack depth after, live threads after)
    of ``grid`` on wi3, ``depth``, ``transfer``, ``grid`` on wi4 (n = 4: two
    betas per projection), then ``hist`` as generic-n5 runs it but on wi3, at
    the default chunk size and at 64 entries (so the chunk passes go to the
    thread pool, which then stays), then ``markov``, each run under the
    benchmark's tracer in one subprocess."""
    commands = [[None, ["run", "grid", "--instance", str(ROOT / "instances" / "wi3.txt"),
                        "--grid", "2x2"]],
                [None, ["run", "depth", "--n", "2", "--depth", "2", "--grid", "2x2"]],
                [None, ["run", "transfer", "--n", "2", "--grid", "2x2"]],
                [None, ["run", "grid", "--instance", str(ROOT / "instances" / "wi4.txt"),
                        "--grid", "2x3"]],
                [None, HIST_WI3], [64, HIST_WI3],
                [None, ["run", "markov", "--n", "2", "--beta", "0.7", "--t", "4"]]]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_RUNS, str(BENCH), str(ROOT / "src"),
         json.dumps(commands)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_sweeps_fire_the_layer_spans(traced_runs):
    (grid_rc, grid, *_), (depth_rc, depth, *_) = traced_runs[:2]
    assert grid_rc == 0 and depth_rc == 0
    # a 2x2 grid: one cost phase per gamma and a projection per point, then
    # the argmax check's phase, mixer and mass
    assert (grid.get("fullspace.apply_cost_phase"), grid.get("fullspace.apply_x_mixer"),
            grid.get("fullspace.feasible_mass")) == (3, 1, 1)
    # depth 2 on 2x2: one batched mixer and one batched mass for the W
    # product's 4 children, then one each for every child's 4; the phase
    # rows are built once per gamma, by one cost phase on a row of ones
    assert (depth.get("subspace.apply_subspace_cost_phase"),
            depth.get("fullspace.apply_cost_phase"),
            depth.get("subspace.apply_block_xy_mixer"),
            depth.get("subspace.subspace_feasible_mass")) == (None, 2, 5, 5)


def test_grid_n4_analogue_fires_its_predicted_spans(traced_runs):
    # grid plus transfer, as the grid-n4 workload runs them: a grid search
    # that stopped calling a predicted layer fails the traced benchmark run
    (grid_rc, grid, *_), _, (transfer_rc, transfer, *_) = traced_runs[:3]
    assert grid_rc == 0 and transfer_rc in (0, 2)
    fired = set(grid) | set(transfer)
    predicted = _load("workloads").PREDICTED_SPANS["grid-n4"]
    assert [span for span in predicted if span not in fired] == []
    # states of one chunk never start the pool
    assert [threads for *_, threads in traced_runs[:3]] == [1, 1, 1]


def test_grouped_grid_fires_the_grid_n4_spans(traced_runs):
    # the wi3 and n = 2 analogues project one beta per call; wi4 is the
    # grid-n4 workload's instance, whose projections take two betas at once.
    # With transfer's subspace.run_ce it fires every predicted span, its betas
    # (0, pi/2, pi) are all quarter turns, so one whole circuit is re-run, and
    # its one-chunk state starts no pool thread
    rc, grid, stack, threads = traced_runs[3]
    assert rc == 0 and stack == 0 and threads == 1
    predicted = _load("workloads").PREDICTED_SPANS["grid-n4"]
    assert [span for span in predicted if span not in set(grid) | set(traced_runs[2][1])] == []
    assert (grid.get("fullspace.apply_cost_phase"), grid.get("fullspace.apply_x_mixer"),
            grid.get("fullspace.feasible_mass")) == (3, 1, 1)


def test_generic_n5_analogue_fires_its_predicted_spans(traced_runs):
    # hist on wi3 as the generic-n5 workload runs it on wi5; a worker that
    # crashed, a predicted span that never fired or a tracer left with open
    # spans each fail the traced benchmark run
    (rc, hist, stack, threads), (pooled_rc, pooled, pooled_stack, pooled_threads) = traced_runs[4:6]
    assert rc == 0 and stack == 0 and threads == 1
    predicted = _load("workloads").PREDICTED_SPANS["generic-n5"]
    assert [span for span in predicted if span not in hist] == []
    # at 64-entry chunks the same run goes through the thread pool and fires
    # the same spans, each as often
    assert pooled_rc == 0 and pooled_stack == 0 and pooled_threads > 1
    assert pooled == hist


def test_traced_markov_runs_the_lattice_probe(traced_runs):
    # markov is the only command whose traced run reads the cost through the
    # lattice probe (its n, penalty weight, dist bytes and penalty flag)
    rc, markov, stack, _ = traced_runs[6]
    assert rc == 0 and stack == 0
    assert markov["experiments.lattice_feasible_masses"] >= 1
    assert markov["instance.tie_broken_vector"] >= 1


def test_lattice_instance_seed_as_the_benchmark_parent_picks_it():
    # the benchmark's parent process builds synthetic n=3 costs and reads
    # their spread to choose the lattice instances
    assert _load("workloads").lattice_instance_seed(1) == 7921
