"""Layer tracing for the benchmark's traced run.

Public functions of the feasmass modules are wrapped from outside: the name
is rebound in every feasmass module that holds it (``experiments`` imports
``from .fullspace import ...``), and ``DiagonalCost`` methods are wrapped on
the class.  Nothing under ``src/`` changes.  Spans (name, start, end, parent)
stay in memory and are written when the run ends.

Hot leaf helpers (``tuple_to_label``, ``relabeled_target_probability``, ...)
are deliberately not wrapped: they run up to 7**7 times per operation and a
wrapper there would cost more than the work it times.  Their time counts as
self time of the wrapped caller.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import resource
import sys
import time
from collections import defaultdict

WRAPPED = {
    "fullspace": ("init_plus", "apply_cost_phase", "apply_x_mixer", "run_generic",
                  "feasible_mass", "sample_counts", "mixer_kernel_rows"),
    "subspace": ("subspace_cost_table", "apply_subspace_cost_phase", "apply_block_xy_mixer",
                 "run_ce", "subspace_feasible_mass", "subspace_to_full_labels",
                 "twirl_average", "best_block_relabeling"),
    "experiments": ("lattice_feasible_masses", "exact_angle_average", "markov_fraction",
                    "l4_sweep", "grid_search_generic", "parameter_transfer",
                    "feasible_histogram", "ce_depth_sweep", "twirl_existence_experiment",
                    "envelope_excess_report"),
    "bounds": ("verify_bounds",),
    "cli": ("main",),
}
COST_METHODS = ("cost_vector", "tie_broken_vector")

# Per-layer metrics, named <module>.<function>.<quantity>, and their units.
PER_LAYER_UNITS = {
    "instance.cost_vector.calls": "count",
    "instance.cost_vector.builds": "count",
    "instance.cost_vector.self_s": "s",
    "instance.cost_vector.rss_rise_mib": "MiB",
    "instance.tie_broken_vector.self_s": "s",
    "fullspace.apply_x_mixer.calls": "count",
    "fullspace.apply_x_mixer.self_s": "s",
    "fullspace.apply_x_mixer.amp_updates_per_s": "1/s",
    "fullspace.apply_x_mixer.bytes_computed": "B",
    "fullspace.apply_cost_phase.calls": "count",
    "fullspace.apply_cost_phase.self_s": "s",
    "fullspace.init_plus.self_s": "s",
    "fullspace.feasible_mass.self_s": "s",
    "fullspace.sample_counts.calls": "count",
    "fullspace.sample_counts.self_s": "s",
    "fullspace.sample_counts.rss_rise_mib": "MiB",
    "subspace.subspace_cost_table.calls": "count",
    "subspace.subspace_cost_table.self_s": "s",
    "subspace.apply_block_xy_mixer.calls": "count",
    "subspace.apply_block_xy_mixer.self_s": "s",
    "subspace.subspace_to_full_labels.self_s": "s",
    "subspace.twirl_average.self_s": "s",
    "subspace.best_block_relabeling.self_s": "s",
    "subspace.run_ce.calls": "count",
    "experiments.lattice_feasible_masses.calls": "count",
    "experiments.lattice_feasible_masses.self_s": "s",
    "experiments.lattice_feasible_masses.points": "count",
    "experiments.grid_search_generic.self_s": "s",
    "experiments.ce_depth_sweep.self_s": "s",
    "experiments.l4_sweep.self_s": "s",
    "experiments.grid.cost_phase_per_gamma": "ratio",
    "experiments.lattice.repeat_ratio": "ratio",
    "harmonic.self_s": "s",
    "bounds.verify_bounds.self_s": "s",
    "cli.main.self_s": "s",
    # measured by run.py: traced minus untraced wall_s, and the failure share
    "trace.overhead_s": "s",
    "failed_ops": "share",
}


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = defaultdict(float)
        self.grid_gammas = set()     # (grid span index, gamma)
        self.lattice_keys = set()    # (cost identity, betas, L, tie_break)

    def wrap(self, name: str, fn, probe=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            before = probe(self, idx, args, kwargs, None, None) if probe else None
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if probe:
                probe(self, idx, args, kwargs, before, result)
            return result
        return traced

    def ancestor(self, idx: int, name: str) -> int:
        idx = self.spans[idx][3]
        while idx >= 0 and self.spans[idx][0] != name:
            idx = self.spans[idx][3]
        return idx

    # -- per-layer metrics --------------------------------------------------

    def per_span(self) -> dict:
        """{span name: (calls, self seconds)}; self = duration - children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0])
        for (name, t0, t1, _), c in zip(self.spans, child):
            out[name][0] += 1
            out[name][1] += (t1 - t0) - c
        return {k: tuple(v) for k, v in out.items()}

    def metrics(self) -> dict:
        """Every per-layer metric this tracer measures (see PER_LAYER_UNITS)."""
        per = self.per_span()
        c = self.counters
        mixer_s = per.get("fullspace.apply_x_mixer", (0, 0.0))[1]
        lattice_calls = per.get("experiments.lattice_feasible_masses", (0, 0.0))[0]
        out = {
            "instance.cost_vector.builds": c["cost_vector.builds"],
            "instance.cost_vector.rss_rise_mib": c["cost_vector.rss_rise_mib"],
            "fullspace.apply_x_mixer.amp_updates_per_s":
                c["x_mixer.amp_updates"] / mixer_s if mixer_s > 0 else 0.0,
            "fullspace.apply_x_mixer.bytes_computed": c["x_mixer.bytes_computed"],
            "fullspace.sample_counts.rss_rise_mib": c["sample_counts.rss_rise_mib"],
            "experiments.lattice_feasible_masses.points": c["lattice.points"],
            "experiments.grid.cost_phase_per_gamma":
                c["grid.cost_phase_calls"] / len(self.grid_gammas) if self.grid_gammas else 0.0,
            "experiments.lattice.repeat_ratio":
                lattice_calls / len(self.lattice_keys) if self.lattice_keys else 0.0,
            "harmonic.self_s":
                sum((v[1] for k, v in per.items() if k.startswith("harmonic.")), 0.0),
        }
        for name in PER_LAYER_UNITS:
            span, _, quantity = name.rpartition(".")
            if name not in out and quantity in ("calls", "self_s"):
                out[name] = per.get(span, (0, 0.0))[quantity == "self_s"]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")


# ---------------------------------------------------------------------------
# probes: called before the span (result None) and after it (result set)

def _probe_cost_vector(tr, idx, args, kwargs, before, result):
    if before is None:
        cost = args[0]
        dtype = args[1] if len(args) > 1 else kwargs.get("dtype")
        miss = cost._vector is None or (dtype is not None and cost._vector.dtype != dtype)
        return (miss, _maxrss_mib())
    tr.counters["cost_vector.builds"] += before[0]
    tr.counters["cost_vector.rss_rise_mib"] += _maxrss_mib() - before[1]


def _probe_sample_counts(tr, idx, args, kwargs, before, result):
    if before is None:
        return _maxrss_mib()
    tr.counters["sample_counts.rss_rise_mib"] += _maxrss_mib() - before


def _probe_x_mixer(tr, idx, args, kwargs, before, result):
    if before is None:
        return ()
    state = args[0]
    passes = int(math.log2(state.shape[0]))
    tr.counters["x_mixer.amp_updates"] += passes * state.shape[0]
    # computed, not measured: one read and one write of the state per pass
    tr.counters["x_mixer.bytes_computed"] += 2 * passes * state.nbytes


def _probe_cost_phase(tr, idx, args, kwargs, before, result):
    if before is None:
        return ()
    grid = tr.ancestor(idx, "experiments.grid_search_generic")
    if grid >= 0:
        gamma = args[2] if len(args) > 2 else kwargs["gamma"]
        tr.counters["grid.cost_phase_calls"] += 1
        tr.grid_gammas.add((grid, float(gamma)))


def _probe_lattice(tr, idx, args, kwargs, before, result):
    if before is None:
        return ()
    cost = args[0]
    betas = args[1] if len(args) > 1 else kwargs["betas"]
    key = (cost.n, cost.penalty_weight, cost.dist.tobytes(), cost.include_penalty,
           tuple(betas) if not isinstance(betas, (int, float)) else float(betas),
           kwargs.get("L"), kwargs.get("tie_break", True))
    tr.lattice_keys.add(key)
    tr.counters["lattice.points"] += result.size


PROBES = {
    "instance.cost_vector": _probe_cost_vector,
    "fullspace.sample_counts": _probe_sample_counts,
    "fullspace.apply_x_mixer": _probe_x_mixer,
    "fullspace.apply_cost_phase": _probe_cost_phase,
    "experiments.lattice_feasible_masses": _probe_lattice,
}


def _public_functions(mod) -> tuple:
    return tuple(name for name, val in vars(mod).items()
                 if not name.startswith("_") and callable(val) and not inspect.isclass(val)
                 and getattr(val, "__module__", None) == mod.__name__)


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever a feasmass module holds it."""
    from feasmass import instance
    harmonic = importlib.import_module("feasmass.harmonic")
    targets = dict(WRAPPED, harmonic=_public_functions(harmonic))
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "feasmass" or name.startswith("feasmass."))]
    for modname, names in targets.items():
        mod = importlib.import_module(f"feasmass.{modname}")
        for fname in names:
            orig = getattr(mod, fname)
            span = f"{modname}.{fname}"
            wrapped = tracer.wrap(span, orig, PROBES.get(span))
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is orig]:
                    setattr(m, attr, wrapped)
    for meth in COST_METHODS:
        span = f"instance.{meth}"
        setattr(instance.DiagonalCost, meth,
                tracer.wrap(span, getattr(instance.DiagonalCost, meth), PROBES.get(span)))
