"""Experiment orchestration: lattice angle averages, moment sweeps, grid
searches, parameter transfer, shot histograms, depth sweeps and the twirl
existence check.

The lattice grids (markov, l4) share one kernel: a mixer kernel row
scattered onto the integer cost lattice transforms by one FFT to that label's
amplitude at every grid angle; avg takes the energy of the scattered rows
(Parseval) instead.  Both angle grids, the generic grid search and the CE
depth sweep, share one depth-first walk (``_sweep``) that phases once per
gamma.  The generic grid ends each walk in the one-hot row projection
(fullspace.mixed_feasible_mass) and re-runs its argmax as a whole circuit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .fullspace import (_DTYPES, AngleSchedule, apply_cost_phase, apply_x_mixer,
                        feasible_mass, fourth_moment, init_plus, mixed_feasible_mass,
                        mixer_kernel_rows, run_generic, sample_counts)
from .instance import (CapacityError, DiagonalCost, enumerate_feasible, feasible_indices,
                       feasible_subspace_indices)
from .subspace import (_check_label_bits, apply_block_xy_mixer, apply_subspace_cost_phase,
                       best_block_relabeling, init_w_product, run_ce, subspace_cost_table,
                       subspace_feasible_mass, twirl_average)

MAX_LATTICE_POINTS = 3_000_000
"""Largest lattice grid.  Grid lengths are 5-smooth; an n=4 run peaks near
47 MiB + 68 B per point of RSS, 243 MiB at L = 3,000,000."""


@dataclass(frozen=True)
class GridSpec:
    """Angle grid: point counts and closed ranges (radians) per axis."""

    gamma_points: int
    beta_points: int
    gamma_range: tuple = (0.0, math.pi)
    beta_range: tuple = (0.0, math.pi)

    def __post_init__(self):
        if self.gamma_points < 1 or self.beta_points < 1:
            raise ValueError("point counts must be >= 1")
        for count, (lo, hi) in ((self.gamma_points, self.gamma_range),
                                (self.beta_points, self.beta_range)):
            if hi < lo:
                raise ValueError("ranges must be ordered")
            if count > 1 and hi == lo:
                raise ValueError("range must have positive length for more than one point")

    def gammas(self) -> np.ndarray:
        lo, hi = self.gamma_range
        return np.linspace(lo, hi, self.gamma_points)

    def betas(self) -> np.ndarray:
        lo, hi = self.beta_range
        return np.linspace(lo, hi, self.beta_points)


@dataclass
class ExperimentResult:
    """Named metrics of one experiment run."""

    name: str
    instance: str
    params: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    seed: int | None = None

    def to_json_dict(self) -> dict:
        out = {"experiment": self.name, "instance": self.instance,
               "params": self.params, "metrics": self.metrics}
        if self.seed is not None:
            out["seed"] = self.seed
        return out


# ---------------------------------------------------------------------------
# exact lattice averaging

def _smooth_length(span: int) -> int:
    """Least integer >= span with no prime factor above 5 (no Bluestein FFT):
    the least power-of-two multiple of some 3**b * 5**c that reaches span."""
    odd = [3 ** b * 5 ** c for b in range(span.bit_length()) for c in range(span.bit_length())]
    return min(p << (-(-span // p) - 1).bit_length() for p in odd)


def _lattice_costs(cost: DiagonalCost, tie_break: bool, order: int) -> tuple:
    """Costs shifted onto the lattice 0..spread, and the grid length L: the
    least 5-smooth L > order * spread (exact for phases that sum ``order``
    cost differences), checked against the cap."""
    h = cost.tie_broken_vector() if tie_break else cost.cost_vector().astype(np.int64)
    h = h - h.min()
    L = _smooth_length(order * int(h.max()) + 1)
    if L > MAX_LATTICE_POINTS:
        hint = " - consider --tie-break false" if tie_break else ""
        raise CapacityError(f"lattice grid needs {L} points (cap {MAX_LATTICE_POINTS}); "
                            f"large-spread instances are out of exact-averaging reach{hint}")
    return h, L


def _lattice_spectra(h: np.ndarray, rows: np.ndarray, beta: float, L: int):
    """Per row x, the amplitude a_x after one layer from |+> at every grid
    angle gamma_k = 2 pi k / L, k = 0..L-1 (one reused buffer).

    The kernel row scattered onto the lattice (w_x(m) sums its entries over
    labels of cost m) transforms by one length-L FFT to a_x, so memory
    beside the kernel rows is O(L).
    """
    N = h.size.bit_length() - 1
    w = np.empty(L, dtype=np.complex128)
    for col in mixer_kernel_rows(rows, beta, N) * 2.0 ** (-N / 2):
        w.real = np.bincount(h, weights=col.real, minlength=L)
        w.imag = np.bincount(h, weights=col.imag, minlength=L)
        np.fft.fft(w, out=w)
        yield w


def lattice_feasible_masses(cost: DiagonalCost, beta: float, tie_break: bool = True) -> np.ndarray:
    """Feasible mass at every grid angle gamma_k = 2 pi k / L, k = 0..L-1, on
    the integer cost lattice, split into single labels with ``tie_break``
    (DiagonalCost.tie_broken_vector): any L > spread averages every nonzero
    cost difference to zero exactly (L: see _lattice_costs)."""
    if cost.n > 4:
        raise ValueError("lattice averaging capped at n=4")
    h, L = _lattice_costs(cost, tie_break, 1)
    masses = np.zeros(L, dtype=np.float64)
    for a in _lattice_spectra(h, feasible_indices(cost.n), float(beta), L):
        masses += a.real ** 2 + a.imag ** 2
    return masses


def exact_angle_average(cost: DiagonalCost, beta: float,
                        tie_break: bool = True) -> ExperimentResult:
    """Angle mean of the single-layer feasible mass (contract: n!/2**(n**2)
    within 1e-10 on the tie-broken lattice).  Terms between distinct cost levels
    average out (Parseval): 2**-N sum_{x feasible, level} |sum_{y in level} K_xy|**2."""
    if cost.n > 4:
        raise ValueError("angle averaging capped at n=4")
    h = cost.tie_broken_vector() if tie_break else cost.cost_vector()
    level = np.unique(h, return_inverse=True)[1]
    mean = sum(float(np.sum(np.bincount(level, row.real) ** 2 + np.bincount(level, row.imag) ** 2))
               for row in mixer_kernel_rows(feasible_indices(cost.n), float(beta), cost.num_qubits))
    mean /= 2.0 ** cost.num_qubits
    base = math.factorial(cost.n) / 2.0 ** cost.num_qubits
    return ExperimentResult(
        name="exact_angle_average", instance=cost.name,
        params={"beta": beta, "tie_break": tie_break},
        metrics={"mean": mean, "baseline": base, "deviation": abs(mean - base)})


def markov_fraction(cost: DiagonalCost, beta: float, t: float,
                    tie_break: bool = True) -> ExperimentResult:
    """Exact grid measure of {gamma : P >= t * baseline}; contract <= 1/t."""
    if t <= 0:
        raise ValueError("t must be positive")
    masses = lattice_feasible_masses(cost, beta, tie_break=tie_break)
    base = math.factorial(cost.n) / 2.0 ** cost.num_qubits
    frac = float(np.mean(masses >= t * base))
    return ExperimentResult(
        name="markov_fraction", instance=cost.name,
        params={"beta": beta, "t": t, "L": len(masses), "tie_break": tie_break},
        metrics={"fraction": frac, "bound": 1.0 / t,
                 "satisfied": frac <= 1.0 / t + 1e-12})


def l4_sweep(cost: DiagonalCost, betas) -> ExperimentResult:
    """Exact angle average of sum_x |a_x|^4 per beta against the analytic envelope.

    Fourth powers pair cost differences twice, so every grid with
    L >= 2*spread+1 points on the raw lattice gives the continuous angle
    average, degenerate quadruples included.  L is the least 5-smooth
    length there (wi3: 675,000), as for the feasible mass.
    """
    if cost.n > 3:
        raise ValueError("fourth-moment sweep capped at n=3")
    h, L = _lattice_costs(cost, False, 2)
    rows = np.arange(h.size)
    per_beta = {}
    for beta in betas:
        mean = sum(fourth_moment(a) for a in _lattice_spectra(h, rows, beta, L)) / L
        envelope = math.exp(bounds.l4_envelope(cost.num_qubits, beta))
        per_beta[float(beta)] = {"mean": mean, "envelope": envelope,
                                 "satisfied": mean <= envelope + 1e-9}
    return ExperimentResult(
        name="l4_sweep", instance=cost.name,
        params={"L": L, "betas": [float(b) for b in betas]},
        metrics={"per_beta": per_beta})


# ---------------------------------------------------------------------------
# angle sweeps, grid search and parameter transfer

def _sweep(fresh, phase, mix, mass, final, grid: GridSpec, p_max: int):
    """Yield (angles, mass) for every circuit of depth 1..p_max whose layers
    take their (gamma, beta) from ``grid``, depth first in grid order.

    ``fresh()`` makes a parent state: the initial state, or a copy of the
    mixed state one layer up; ``phase`` and ``mix`` act in place.  Each gamma
    phases one parent.  Above the last layer each beta mixes a copy of it for
    ``mass`` and the layers below, so a walk holds two states per layer; on
    the last, ``final(phased, beta)`` gives the mass after the mixer and
    leaves ``phased`` unchanged.  Deeper layers recurse through the module
    name: a closure that calls itself is a reference cycle, which would keep
    the caller's cost table alive until the next garbage collection.
    """
    for g in grid.gammas().tolist():
        phased = phase(fresh(), g)
        for b in grid.betas().tolist():
            if p_max == 1:
                yield ((g, b),), final(phased, b)
                continue
            state = mix(phased.copy(), b)
            yield ((g, b),), mass(state)
            for angles, deeper in _sweep(state.copy, phase, mix, mass, final, grid, p_max - 1):
                yield ((g, b),) + angles, deeper
            del state   # before the next beta's copy: one mixed state at a time
        del phased   # before the next gamma's fresh state


@dataclass
class GridSearchResult:
    gammas: np.ndarray
    betas: np.ndarray
    surface: np.ndarray      # shape (len(gammas), len(betas))
    best_gamma: float
    best_beta: float
    best_mass: float


def grid_search_generic(cost: DiagonalCost, grid: GridSpec,
                        precision: str = "f64") -> GridSearchResult:
    """Single-layer feasible mass at every grid point by the one-hot row
    projection; lexicographically-first argmax by (gamma index, beta index).
    The argmax is re-run as a whole circuit, an independent oracle: masses
    over 1e-12 apart, relative (1e-5 in f32), raise ValueError."""
    gammas, betas = grid.gammas(), grid.betas()
    table = cost.cost_vector()
    fresh = lambda: init_plus(cost.num_qubits, dtype=_DTYPES[precision])
    phase = lambda state, g: apply_cost_phase(state, table, g)
    walk = _sweep(fresh, phase, None, None,
                  lambda phased, b: mixed_feasible_mass(phased, b, cost.n), grid, 1)
    surface = np.reshape([mass for _, mass in walk], (len(gammas), len(betas)))
    gi, bi = np.unravel_index(int(np.argmax(surface)), surface.shape)
    best, g, b = float(surface[gi, bi]), float(gammas[gi]), float(betas[bi])
    check = feasible_mass(apply_x_mixer(phase(fresh(), g), b), cost.n)
    if abs(check - best) > {"f64": 1e-12, "f32": 1e-5}[precision] * abs(check):
        raise ValueError(f"grid argmax ({g}, {b}): projected mass {best!r}, circuit {check!r}")
    return GridSearchResult(gammas=gammas, betas=betas, surface=surface,
                            best_gamma=g, best_beta=b, best_mass=best)


def parameter_transfer(cost: DiagonalCost, grid: GridSpec,
                       precision: str = "f64") -> ExperimentResult:
    """Reuse the generic grid argmax inside the manifold (unnormalized mixer).

    Reports the measured ratio against the dimension factor 2**(n**2)/n**n;
    the ``satisfied`` metric records whether the ratio clears the factor.
    In this layered order (cost phase first) the ratio is a measurement, not
    a theorem, and ``satisfied`` must be False whenever factor * p_gen_max > 1.
    """
    search = grid_search_generic(cost, grid, precision)
    ce_state = run_ce(cost, AngleSchedule.single(search.best_gamma, search.best_beta),
                      normalized=False)
    p_ce = subspace_feasible_mass(ce_state)
    n = cost.n
    factor = 2.0 ** (n * n) / float(n) ** n
    ratio = p_ce / search.best_mass if search.best_mass > 0 else math.inf
    return ExperimentResult(
        name="parameter_transfer", instance=cost.name,
        params={"grid": [grid.gamma_points, grid.beta_points],
                "gamma_range": list(grid.gamma_range),
                "beta_range": list(grid.beta_range), "precision": precision},
        metrics={"p_gen_max": search.best_mass, "gamma_star": search.best_gamma,
                 "beta_star": search.best_beta, "p_ce": p_ce, "ratio": ratio,
                 "factor": factor, "satisfied": ratio >= factor})


# ---------------------------------------------------------------------------
# shot histograms

def binomial_consistent(count: int, shots: int, p: float) -> bool:
    """Whether ``count`` lies within 5 sigma of the binomial mean shots*p."""
    sigma = math.sqrt(max(p * (1 - p), 1e-300) * shots)
    return abs(count - shots * p) <= 5.0 * sigma


def feasible_histogram(cost: DiagonalCost, method: str, schedule: AngleSchedule,
                       shots: int, seed: int, normalized: bool = True,
                       precision: str = "f64") -> ExperimentResult:
    """Sample the chosen ansatz and count feasible outcomes per tour label."""
    n = cost.n
    if method == "generic":
        state = run_generic(cost, schedule, precision)
        p_exact = feasible_mass(state, n)
        feasible = feasible_indices(n)
    elif method == "ce":
        _check_label_bits(n)   # int64 labels: refused before simulating
        state = run_ce(cost, schedule, normalized=normalized)
        p_exact = subspace_feasible_mass(state)
        feasible = feasible_subspace_indices(n)   # enumerate_feasible(n), in order
    else:
        raise ValueError(f"unknown method {method!r}")
    labels, counts = sample_counts(state, shots, seed)
    # labels ascend; a feasible label above the last one meets the -1 pad
    at = np.searchsorted(labels, feasible)
    seen = np.append(labels, -1)[at] == feasible
    feas_counts = dict(zip(enumerate_feasible(n),
                           np.where(seen, np.append(counts, 0)[at], 0).tolist()))
    feas_total = sum(feas_counts.values())
    frac = feas_total / shots if shots else 0.0
    return ExperimentResult(
        name="feasible_histogram", instance=cost.name,
        params={"method": method, "shots": shots,
                "gammas": list(schedule.gammas), "betas": list(schedule.betas),
                "normalized_mixer": normalized},
        metrics={"statevector_mass": p_exact, "feasible_fraction": frac,
                 "feasible_total": feas_total,
                 "consistent_5sigma": (binomial_consistent(feas_total, shots, p_exact)
                                       if shots else True),
                 "counts": feas_counts},
        seed=seed)


# ---------------------------------------------------------------------------
# depth sweep and twirl existence

def ce_depth_sweep(cost: DiagonalCost, p_max: int, grid: GridSpec,
                   normalized: bool = True) -> ExperimentResult:
    """Best CE feasible mass per depth p = 1..p_max on the per-layer ``grid``.

    The per-layer grid starts at zero angles, so depth p+1 contains every
    depth-p circuit extended by an identity layer; the maxima are
    non-decreasing by construction.  The walk visits circuits in grid order,
    which keeps the lexicographically-first argmax.
    """
    if not 1 <= p_max <= 3:
        raise ValueError(f"depth sweep needs 1 <= p_max <= 3, got {p_max}")
    if max(grid.gamma_points, grid.beta_points) > 6:
        raise ValueError(f"depth sweep grid capped at 6 points per angle, got "
                         f"--grid {grid.gamma_points}x{grid.beta_points}")
    if cost.n > 4:
        raise ValueError("depth sweep capped at n=4")
    if grid.gammas()[0] != 0.0 or grid.betas()[0] != 0.0:
        raise ValueError("per-layer grids must contain the zero angle")
    table = subspace_cost_table(cost)
    mix = lambda state, b: apply_block_xy_mixer(state, cost.n, b, normalized)
    best = [(-1.0, None)] * p_max
    for angles, mass in _sweep(lambda: init_w_product(cost.n),
                               lambda state, g: apply_subspace_cost_phase(state, table, g),
                               mix, subspace_feasible_mass,
                               lambda phased, b: subspace_feasible_mass(mix(phased.copy(), b)),
                               grid, p_max):
        if mass > best[len(angles) - 1][0]:
            best[len(angles) - 1] = (mass, angles)
    per_depth = [{"p": p, "best_mass": mass, "angles": [list(a) for a in angles]}
                 for p, (mass, angles) in enumerate(best, start=1)]
    return ExperimentResult(
        name="ce_depth_sweep", instance=cost.name,
        params={"p_max": p_max, "grid": [grid.gamma_points, grid.beta_points],
                "normalized_mixer": normalized},
        metrics={"per_depth": per_depth,
                 "monotone": all(per_depth[i + 1]["best_mass"] >= per_depth[i]["best_mass"] - 1e-15
                                 for i in range(len(per_depth) - 1))})


def twirl_existence_experiment(cost: DiagonalCost, schedule: AngleSchedule,
                               normalized: bool = True) -> ExperimentResult:
    """Mean of the probability of the target tuple (0, 1, ..., n-1) over all
    blockwise relabelings of the CE state (must equal 1/n**n) and its maximum
    (must reach 1/n**n).

    Both come from closed forms (see subspace.twirl_average), exact for every
    n up to the subspace cap.
    """
    n = cost.n
    target = tuple(range(n))
    state = run_ce(cost, schedule, normalized=normalized)
    mean = twirl_average(state)
    _, best_p = best_block_relabeling(state, target)
    bound = 1.0 / float(n) ** n
    return ExperimentResult(
        name="twirl_existence", instance=cost.name,
        params={"target": list(target), "gammas": list(schedule.gammas),
                "betas": list(schedule.betas), "normalized_mixer": normalized},
        metrics={"mean": mean, "best": best_p, "bound": bound,
                 "mean_error": abs(mean - bound),
                 "satisfied": abs(mean - bound) <= 1e-12 and best_p >= bound - 1e-12})


def envelope_excess_report(cost: DiagonalCost, grid: GridSpec) -> ExperimentResult:
    """Measured max of P * 2**N / n! over the grid (strict-envelope excess).
    The single-layer envelope P <= n!/2**N is an equality at beta = 0, so a
    grid holding beta = 0 has a max >= 1, but tuned angles exceed it on small
    instances."""
    if cost.n > 3:
        raise ValueError("envelope report capped at n=3")
    search = grid_search_generic(cost, grid)
    base = math.factorial(cost.n) / 2.0 ** cost.num_qubits
    return ExperimentResult(
        name="envelope_excess", instance=cost.name,
        params={"grid": [grid.gamma_points, grid.beta_points]},
        metrics={"max_over_baseline": search.best_mass / base,
                 "best_gamma": search.best_gamma, "best_beta": search.best_beta})
