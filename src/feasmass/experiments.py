"""Experiment orchestration: lattice angle averages, moment sweeps, grid
searches, parameter transfer, shot histograms, depth sweeps and the twirl
existence check.  Each checks its predicted peak (instance.check_run, its arrays) first.

The angle averages (avg, markov, l4) bin every mixer kernel row onto the
distinct costs in one place (``_binned_rows``).  avg sums the energy of the
bins (Parseval); the lattice grids (markov, l4) lay each binned row on the
integer cost lattice, where one FFT gives that label's amplitude at every grid
angle.  The generic grid search and the CE depth sweep share one depth-first
walker (``_walk``).  The generic layer refills one P|+> buffer (the X mixer's
frame) per gamma, phases it and projects it onto the betas' real rows, a group at
a time (fullspace.mixed_feasible_mass); its argmax and best point off the quarter
turns are re-run from |+> as whole circuits.  The CE layer mixes children at once."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .fullspace import (_CHUNK, _DTYPES, AngleSchedule, _p, apply_cost_phase, apply_x_mixer,
                        cost_levels, feasible_mass, init_plus, mixed_feasible_mass,
                        mixer_kernel_rows, real_mixer_rows, run_generic, sample_counts)
from .instance import (CapacityError, DiagonalCost, check_bytes, check_label_bits, check_run,
                       feasible_indices, feasible_subspace_indices)
from .subspace import (apply_block_xy_mixer, best_block_relabeling, init_w_product, run_ce,
                       subspace_cost_table, subspace_feasible_mass, twirl_average)


@dataclass(frozen=True)
class GridSpec:
    """Angle grid: point counts and closed ranges (radians) per axis, listed by axes()."""

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

    def axes(self) -> tuple:
        return (np.linspace(*self.gamma_range, self.gamma_points).tolist(),
                np.linspace(*self.beta_range, self.beta_points).tolist())


@dataclass
class ExperimentResult:
    """What one run writes: the record (name, instance, params, metrics and
    seed), the CSV ``table`` as (header, rows), or () for no CSV, and whether
    the run ``violated`` its contract."""

    name: str
    instance: str
    params: dict
    metrics: dict
    table: tuple
    violated: bool
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {"experiment": self.name, "instance": self.instance, "params": self.params,
                "metrics": self.metrics, **({} if self.seed is None else {"seed": self.seed})}


# ---------------------------------------------------------------------------
# exact lattice averaging

def _smooth_length(span: int) -> int:
    """Least integer >= span with no prime factor above 5 (no Bluestein FFT):
    the least power-of-two multiple of some 3**b * 5**c that reaches span."""
    odd = [3 ** b * 5 ** c for b in range(span.bit_length()) for c in range(span.bit_length())]
    return min(p << (-(-span // p) - 1).bit_length() for p in odd)


def _binned_rows(cost: DiagonalCost, tie_break: bool, rows, beta: float) -> tuple:
    """(at, bins): the distinct tie-broken or raw costs less the least, and a generator building
    each kernel row 2**(-N/2) K[x], x in ``rows``, when iterated, binned onto them as (Re, Im)."""
    N = cost.num_qubits   # uint8 distances, a float and a complex power per entry
    check_label_bits(cost.n)   # before len(rows): l4's range(2**N) has no length past 63 bits
    check_bytes(25 * len(rows) << N, f"a {len(rows)} x 2**{N} kernel row block")   # then the table
    h = cost.tie_broken_vector() if tie_break else cost.cost_vector()
    values, level = np.unique(h, return_inverse=True)
    def bins():
        for row in mixer_kernel_rows(rows, float(beta), N) * 2.0 ** (-N / 2):
            yield np.bincount(level, row.real), np.bincount(level, row.imag)
    return values - values[0], bins()


def _lattice_spectra(cost: DiagonalCost, tie_break: bool, rows, beta: float, order: int) -> tuple:
    """(L, spectra): per row x, a_x after one layer from |+> at every gamma_k = 2 pi k / L, its
    row binned, laid at its costs in one reused buffer and FFTed; L > order * spread, 5-smooth."""
    at, bins = _binned_rows(cost, tie_break, rows, beta)
    L = _smooth_length(order * int(at[-1]) + 1)
    try:   # 72 B per point: the buffer, the FFT's, the masses and their squares
        check_bytes((25 * len(rows) << cost.num_qubits) + 72 * L, f"a lattice grid of {L} points")
    except CapacityError as exc:   # with the flag that shrinks the spread
        raise CapacityError(str(exc) + " - consider --tie-break false" * tie_break) from None
    def spectra():
        w = np.empty(L, dtype=np.complex128)
        for re, im in bins:
            w.fill(0)
            w.real[at], w.imag[at] = re, im
            yield np.fft.fft(w, out=w)
    return L, spectra()


def lattice_feasible_masses(cost: DiagonalCost, beta: float, tie_break: bool = True) -> np.ndarray:
    """Feasible mass at every grid angle gamma_k = 2 pi k / L, k < L, on the integer cost
    lattice, split into single labels with ``tie_break`` (DiagonalCost.tie_broken_vector):
    any L > spread averages every nonzero cost difference to zero exactly."""
    L, spectra = _lattice_spectra(cost, tie_break, feasible_indices(cost.n), beta, 1)
    masses = np.zeros(L, dtype=np.float64)
    for a in spectra:
        masses += a.real ** 2 + a.imag ** 2
    return masses


def exact_angle_average(cost: DiagonalCost, beta: float,
                        tie_break: bool = True) -> ExperimentResult:
    """Angle mean of the single-layer feasible mass (contract: n!/2**(n**2)
    within 1e-10 on the tie-broken lattice).  Terms between distinct cost levels
    average out (Parseval): 2**-N sum_{x feasible, level} |sum_{y in level} K_xy|**2."""
    bins = _binned_rows(cost, tie_break, feasible_indices(cost.n), beta)[1]
    mean = sum(float(np.sum(re ** 2 + im ** 2)) for re, im in bins)
    base = math.factorial(cost.n) / 2.0 ** cost.num_qubits
    return ExperimentResult(
        name="exact_angle_average", instance=cost.name,
        params={"beta": beta, "tie_break": tie_break},
        metrics={"mean": mean, "baseline": base, "deviation": abs(mean - base)},
        table=(), violated=tie_break and abs(mean - base) > 1e-10)


def markov_fraction(cost: DiagonalCost, beta: float, t: float,
                    tie_break: bool = True) -> ExperimentResult:
    """Exact grid measure of {gamma : P >= t * baseline}; contract <= 1/t."""
    if t <= 0:
        raise ValueError("t must be positive")
    masses = lattice_feasible_masses(cost, beta, tie_break=tie_break)
    base = math.factorial(cost.n) / 2.0 ** cost.num_qubits
    frac = float(np.mean(masses >= t * base))
    satisfied = frac <= 1.0 / t + 1e-12
    return ExperimentResult(
        name="markov_fraction", instance=cost.name,
        params={"beta": beta, "t": t, "L": len(masses), "tie_break": tie_break},
        metrics={"fraction": frac, "bound": 1.0 / t, "satisfied": satisfied},
        table=(), violated=not satisfied)


def l4_sweep(cost: DiagonalCost, betas) -> ExperimentResult:
    """Exact angle average of sum_x |a_x|^4 per beta against the analytic envelope.

    Fourth powers pair cost differences twice, so every grid with
    L >= 2*spread+1 points on the raw lattice gives the continuous angle
    average, degenerate quadruples included.  L is the least 5-smooth
    length there (wi3: 675,000), as for the feasible mass.
    """
    per_beta, L = {}, None
    for beta in betas:
        L, spectra = _lattice_spectra(cost, False, range(1 << cost.num_qubits), beta, 2)
        # |a|**4 in _CHUNK slices, so no temporary is as long as the spectrum
        mean = sum(sum(float(np.sum((q := np.abs(a[lo:lo + _CHUNK]) ** 2) * q))
                       for lo in range(0, L, _CHUNK)) for a in spectra) / L
        envelope = math.exp(bounds.l4_envelope(cost.num_qubits, beta))
        per_beta[float(beta)] = {"mean": mean, "envelope": envelope,
                                 "satisfied": mean <= envelope + 1e-9}
    return ExperimentResult(
        name="l4_sweep", instance=cost.name,
        params={"L": L, "betas": [float(b) for b in betas]},
        metrics={"per_beta": per_beta},
        table=("beta,mean_l4,envelope,satisfied",
               [(b, d["mean"], d["envelope"], int(d["satisfied"])) for b, d in per_beta.items()]),
        violated=not all(d["satisfied"] for d in per_beta.values()))


# ---------------------------------------------------------------------------
# angle sweeps, grid search and parameter transfer

def _walk(layer, parent, p_max: int):
    """(angles, mass) of every circuit of depth 1..p_max, depth first in grid order, from
    ``layer(parent)``'s ((gamma, beta), mass, child) in grid order.  It recurses by module
    name: a closure calling itself would be a cycle keeping the caller's tables alive."""
    for angles, mass, child in layer(parent):
        yield (angles,), mass
        for deeper, m in _walk(layer, child, p_max - 1) if p_max > 1 else ():
            yield (angles,) + deeper, m


def grid_search_generic(cost: DiagonalCost, grid: GridSpec,
                        precision: str = "f64") -> ExperimentResult:
    """Single-layer feasible mass at every grid point by the one-hot row projection,
    one table row per point in walk order; the argmax is the first maximum in that
    order.  It is re-run as a whole circuit, an independent oracle, and so is the best
    point off the quarter turns of beta, where a wrong frame reads the right masses:
    masses over 1e-12 apart, relative (1e-5 in f32), raise ValueError."""
    n, N, dtype = cost.n, cost.num_qubits, _DTYPES[precision]
    gammas, betas = grid.axes()
    group = max(1, (1 << n) // (2 * n))   # betas per projection: its stages <= half a state
    check_run(cost, False, dtype, (8 * len(betas) * n << n) + dtype().itemsize
              * (min(group, len(betas)) * n << N - n), f"a {len(gammas)}x{len(betas)} grid")
    levels = cost_levels(cost.cost_vector())   # above: one-hot rows, first projection stage
    one_hot = np.stack([real_mixer_rows(1 << np.arange(n), b, n) for b in betas])   # once per grid
    state = np.empty(1 << N, dtype)

    def layer(_):   # p = 1: each gamma phases P|+>, refilled in one buffer, and projects it
        for g in gammas:
            apply_cost_phase(_p(state, 2.0 ** (-N / 2)), levels, g)
            masses = np.concatenate([mixed_feasible_mass(state, one_hot[i:i + group], n)
                                     for i in range(0, len(betas), group)]).tolist()
            yield from (((g, b), mass, None) for b, mass in zip(betas, masses))
    rows = [(g, b, mass) for ((g, b),), mass in _walk(layer, None, 1)]
    del state   # before the whole circuits
    best = max(rows, key=lambda row: row[2])
    off = [row for row in rows if abs(math.sin(2 * row[1])) > 1e-9]   # sin 2b above round-off
    for g, b, mass in dict.fromkeys([best, max(off or [best], key=lambda row: row[2])]):
        check = feasible_mass(apply_x_mixer(apply_cost_phase(init_plus(N, dtype), levels, g), b), n)
        if abs(check - mass) > {"f64": 1e-12, "f32": 1e-5}[precision] * abs(check):
            raise ValueError(f"grid {'argmax' if (g, b, mass) == best else 'point'} ({g}, {b}): "
                             f"projected mass {mass!r}, circuit {check!r}")
    g, b, best = best
    return ExperimentResult(
        name="grid_search", instance=cost.name,
        params={"grid": [grid.gamma_points, grid.beta_points]},
        metrics={"best_gamma": g, "best_beta": b, "p_max": best},
        table=("gamma,beta,p_feas", rows), violated=False)


def parameter_transfer(cost: DiagonalCost, grid: GridSpec,
                       precision: str = "f64") -> ExperimentResult:
    """Reuse the generic grid argmax inside the manifold (unnormalized mixer).

    Reports the measured ratio against the dimension factor 2**(n**2)/n**n;
    the ``satisfied`` metric records whether the ratio clears the factor.
    In this layered order (cost phase first) the ratio is a measurement, not
    a theorem, and ``satisfied`` must be False whenever factor * p_gen_max > 1.
    """
    best = grid_search_generic(cost, grid, precision).metrics
    ce_state = run_ce(cost, AngleSchedule.single(best["best_gamma"], best["best_beta"]),
                      normalized=False)
    p_ce = subspace_feasible_mass(ce_state)
    n = cost.n
    factor = 2.0 ** (n * n) / float(n) ** n
    ratio = p_ce / best["p_max"] if best["p_max"] > 0 else math.inf
    satisfied = ratio >= factor
    return ExperimentResult(
        name="parameter_transfer", instance=cost.name,
        params={"grid": [grid.gamma_points, grid.beta_points],
                "gamma_range": list(grid.gamma_range),
                "beta_range": list(grid.beta_range), "precision": precision},
        metrics={"p_gen_max": best["p_max"], "gamma_star": best["best_gamma"],
                 "beta_star": best["best_beta"], "p_ce": p_ce, "ratio": ratio,
                 "factor": factor, "satisfied": satisfied},
        table=(), violated=not satisfied)


# ---------------------------------------------------------------------------
# shot histograms

def _bitstrings(labels, N: int) -> list:
    """Basis labels rendered with bit k at string position k (left to right)."""
    bits = ((np.array(labels, dtype=np.int64)[:, None] >> np.arange(N)) & 1) + ord("0")
    return bits.astype(np.uint8).view(f"S{N}").ravel().astype(str).tolist()


def feasible_histogram(cost: DiagonalCost, method: str, schedule: AngleSchedule,
                       shots: int, seed: int, normalized: bool = True,
                       precision: str = "f64") -> ExperimentResult:
    """Sample the chosen ansatz and count feasible outcomes per tour, keyed
    by bitstring in ascending label order."""
    n, what = cost.n, f"{shots} shots of a {method} run at n={cost.n}"   # sampling: 8 B a shot
    if method == "generic":
        check_run(cost, False, _DTYPES[precision], 8 * shots, what)
        state = run_generic(cost, schedule, precision)   # rechecks, for direct callers
        p_exact = feasible_mass(state, n)
        feasible = full = feasible_indices(n)
    elif method == "ce":
        full = feasible_indices(n)   # int64 labels: refused before simulating
        check_run(cost, True, np.complex128, 8 * shots, what)
        state = run_ce(cost, schedule, normalized=normalized)   # rechecks, for direct callers
        p_exact = subspace_feasible_mass(state)
        feasible = feasible_subspace_indices(n)   # in the order of full
    else:
        raise ValueError(f"unknown method {method!r}")
    counts = sample_counts(state, shots, seed, feasible)
    del state   # the largest array: freed before the labels are rendered
    tours, tour_counts = zip(*sorted(zip(full.tolist(), counts.tolist())))
    feas_counts = dict(zip(_bitstrings(tours, n * n), tour_counts))
    feas_total = sum(tour_counts)
    frac = feas_total / shots if shots else 0.0
    sigma = math.sqrt(max(p_exact * (1 - p_exact), 1e-300) * shots)   # binomial
    consistent = abs(feas_total - shots * p_exact) <= 5.0 * sigma   # True at 0 shots
    return ExperimentResult(
        name="feasible_histogram", instance=cost.name,
        params={"method": method, "shots": shots,
                "gammas": list(schedule.gammas), "betas": list(schedule.betas),
                "normalized_mixer": normalized},
        metrics={"statevector_mass": p_exact, "feasible_fraction": frac,
                 "feasible_total": feas_total, "consistent_5sigma": consistent,
                 "counts": feas_counts},
        table=("bitstring,count", list(feas_counts.items())), violated=not consistent,
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
        raise ValueError(f"depth sweep needs 1 <= p_max <= 3, got {p_max} (over 3: run time)")
    if max(grid.gamma_points, grid.beta_points) > 6:
        raise ValueError(f"depth sweep grid capped at 6 points per angle, got "
                         f"--grid {grid.gamma_points}x{grid.beta_points} (run time)")
    if cost.n > 4:
        raise ValueError(f"depth sweep capped at n=4, got n={cost.n} (run time)")
    if grid.gamma_range[0] != 0.0 or grid.beta_range[0] != 0.0:   # each axis's first point
        raise ValueError("per-layer grids must contain the zero angle")
    levels = cost_levels(subspace_cost_table(cost))
    gammas, betas = grid.axes()
    phases = np.stack([apply_cost_phase(np.ones(levels[0].size, complex), levels, g)
                       for g in gammas])   # one row per gamma, by run_ce's own phase
    points, beta_rows = [(g, b) for g in gammas for b in betas], np.tile(betas, len(gammas))

    def layer(parent):   # every child of parent: one (G*B, n**n) batch, one mixer, one mass
        batch = np.repeat(parent * phases, len(betas), axis=0)
        apply_block_xy_mixer(batch, cost.n, beta_rows, normalized)
        return zip(points, subspace_feasible_mass(batch).tolist(), batch)
    best = [(-1.0, None)] * p_max
    for angles, mass in _walk(layer, init_w_product(cost.n), p_max):
        if mass > best[len(angles) - 1][0]:
            best[len(angles) - 1] = (mass, angles)
    per_depth = [{"p": p, "best_mass": mass, "angles": [list(a) for a in angles]}
                 for p, (mass, angles) in enumerate(best, start=1)]
    monotone = all(deeper[0] >= shallower[0] - 1e-15 for shallower, deeper in zip(best, best[1:]))
    return ExperimentResult(
        name="ce_depth_sweep", instance=cost.name,
        params={"p_max": p_max, "grid": [grid.gamma_points, grid.beta_points],
                "normalized_mixer": normalized},
        metrics={"per_depth": per_depth, "monotone": monotone},
        table=("p,best_p_feas", [(d["p"], d["best_mass"]) for d in per_depth]),
        violated=not monotone)


def twirl_existence_experiment(cost: DiagonalCost, schedule: AngleSchedule,
                               normalized: bool = True) -> ExperimentResult:
    """Mean of the probability of the target tuple (0, 1, ..., n-1) over all
    blockwise relabelings of the CE state (must equal 1/n**n) and its maximum
    (must reach 1/n**n).

    Both come from closed forms (see subspace.twirl_average), exact at every n.
    """
    n = cost.n   # the run's peak and best_block_relabeling's |state|
    check_run(cost, True, np.complex128, 8 * n ** n, f"a twirl at n={n}")
    target = tuple(range(n))
    state = run_ce(cost, schedule, normalized=normalized)
    mean = twirl_average(state)
    _, best_p = best_block_relabeling(state, target)
    bound = 1.0 / float(n) ** n
    satisfied = abs(mean - bound) <= 1e-12 and best_p >= bound - 1e-12
    return ExperimentResult(
        name="twirl_existence", instance=cost.name,
        params={"target": list(target), "gammas": list(schedule.gammas),
                "betas": list(schedule.betas), "normalized_mixer": normalized},
        metrics={"mean": mean, "best": best_p, "bound": bound,
                 "mean_error": abs(mean - bound), "satisfied": satisfied},
        table=(), violated=not satisfied)


def envelope_excess_report(cost: DiagonalCost, grid: GridSpec) -> ExperimentResult:
    """Measured max of P * 2**N / n! over the grid (strict-envelope excess).
    The single-layer envelope P <= n!/2**N is an equality at beta = 0, so a
    grid holding beta = 0 has a max >= 1, but tuned angles exceed it on small
    instances."""
    best = grid_search_generic(cost, grid).metrics
    base = math.factorial(cost.n) / 2.0 ** cost.num_qubits
    return ExperimentResult(
        name="envelope_excess", instance=cost.name,
        params={"grid": [grid.gamma_points, grid.beta_points]},
        metrics={"max_over_baseline": best["p_max"] / base,
                 "best_gamma": best["best_gamma"], "best_beta": best["best_beta"]},
        table=(), violated=False)
