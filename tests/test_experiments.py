import functools
import gc
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from feasmass import experiments
from feasmass.experiments import (GridSpec, _bitstrings, ce_depth_sweep,
                                  envelope_excess_report, exact_angle_average, feasible_histogram,
                                  grid_search_generic, l4_sweep,
                                  lattice_feasible_masses, markov_fraction,
                                  parameter_transfer, twirl_existence_experiment)
from feasmass.fullspace import (AngleSchedule, apply_cost_phase, cost_levels, feasible_mass,
                                init_plus, mixed_feasible_mass, real_mixer_rows, run_generic)
from feasmass.instance import load_instance, synthetic_instance
from feasmass.subspace import run_ce, subspace_feasible_mass, subspace_to_full_labels

from oracles import (fourth_moment, label_lattice_l4_mean, label_lattice_masses,
                     per_state_depth_walk, phase_block_l4_means, phase_matmul_lattice_masses,
                     unscaled_level_average, x_frame)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 3)
    with pytest.raises(ValueError):
        GridSpec(3, 3, gamma_range=(0.5, 0.5))
    g = GridSpec(3, 2, gamma_range=(0.0, 1.0))
    assert g.axes()[0] == [0.0, 0.5, 1.0]
    assert GridSpec(1, 1, (0.3, 0.3), (0.0, 0.0)).axes()[0] == [0.3]


def test_exact_average_matches_baseline():
    inst = synthetic_instance(2, seed=1, high=3)
    res = exact_angle_average(inst, 0.7)
    assert res.metrics["deviation"] <= 1e-10
    assert res.metrics["baseline"] == 2 / 16


def test_exact_average_zero_beta_trivial():
    inst = synthetic_instance(2, seed=1, high=3)
    res = exact_angle_average(inst, 0.0, tie_break=False)
    # with no mixing the moduli never move, so every grid point is baseline
    assert res.metrics["deviation"] <= 1e-15
    masses = lattice_feasible_masses(inst, 0.0, tie_break=False)
    assert np.abs(masses - res.metrics["baseline"]).max() <= 1e-15


def test_exact_average_degenerate_spectrum_drifts():
    # without tie-breaking, equal-cost pairs survive the average and the
    # mean genuinely leaves the baseline on penalty-structured costs
    inst = synthetic_instance(2, seed=1, high=3)
    res = exact_angle_average(inst, 0.7, tie_break=False)
    assert res.metrics["deviation"] > 1e-3


@pytest.mark.parametrize("tie_break", [True, False])
@pytest.mark.parametrize("n,seed,high,pad", [(2, 1, 3, 0), (2, 2, 3, 0), (2, 3, 3, 0),
                                             (3, 1, 5, 0)])
def test_lattice_fft_matches_phase_matmul_oracle(n, seed, high, pad, tie_break):
    # pad is 0 in every case: the grid is the least 5-smooth length >= spread+1,
    # and padded grids are covered by test_l4_sweep_matches_phase_block_oracle
    cost = synthetic_instance(n, seed=seed, high=high)
    h = cost.tie_broken_vector() if tie_break else cost.cost_vector()
    L = experiments._smooth_length(int(h.max() - h.min()) + 1)
    betas = [0.0, 0.3, 1.1, 0.7]
    want = phase_matmul_lattice_masses(cost, betas, L=L, tie_break=tie_break)
    for beta, expect in zip(betas, want):
        masses = lattice_feasible_masses(cost, beta, tie_break=tie_break)
        assert masses.shape == (L,)
        assert np.abs(masses - expect).max() <= 1e-14
        # Parseval: the grid mean is the level-binned energy that avg sums
        mean = exact_angle_average(cost, beta, tie_break=tie_break).metrics["mean"]
        assert abs(masses.mean() - mean) <= 1e-15


def _is_5_smooth(L):
    return L // math.gcd(L, 30 ** 40) == 1


@pytest.mark.parametrize("span", [269_740, 1_000_003, 2_985_985])
def test_smooth_length_is_least_5_smooth_at_or_above_span(span):
    # the benchmark's lattice span, a prime, and one past 2**12 * 3**6
    L = experiments._smooth_length(span)
    assert L >= span and _is_5_smooth(L)
    assert not any(_is_5_smooth(k) for k in range(span, L))


def test_smooth_length_matches_brute_force_below_5000():
    smooth = [k for k in range(1, 5200) if _is_5_smooth(k)]
    for span in range(1, 5000):
        assert experiments._smooth_length(span) == next(k for k in smooth if k >= span)


@pytest.mark.parametrize("tie_break", [True, False])
@pytest.mark.parametrize("n,seed,high", [(2, 2, 5), (2, 7, 5), (3, 1, 5)])
def test_smooth_grid_mean_equals_spread_plus_one_grid_mean(n, seed, high, tie_break):
    # any L > spread is an exact grid: the mean on the smooth grid is the
    # phase-matmul oracle's mean on the L = spread + 1 grid
    cost = synthetic_instance(n, seed=seed, high=high)
    h = cost.tie_broken_vector() if tie_break else cost.cost_vector()
    span = int(h.max() - h.min()) + 1
    assert experiments._smooth_length(span) > span
    want = phase_matmul_lattice_masses(cost, [0.7], L=span, tie_break=tie_break)[0].mean()
    masses = lattice_feasible_masses(cost, 0.7, tie_break=tie_break)
    assert len(masses) == experiments._smooth_length(span)
    assert abs(masses.mean() - want) <= 1e-15


WI4 = Path(__file__).resolve().parent.parent / "instances" / "wi4.txt"
# lattice-ce's n = 3 instances (benchmark seeds 1 and 2) are synthetic seeds 7921 and 15847
LEVEL_CASES = [(2, 1, 3), (2, 2, 5), (3, 1, 5), (3, 7921, 9), (3, 15847, 9)]


@pytest.mark.parametrize("n,seed,high,tie_break",   # tie-broken n = 4 is past the lattice cap
                         [(*c, t) for c in LEVEL_CASES for t in (True, False)] + [(4, 1, 9, False)])
def test_lattice_masses_match_label_scatter_oracle_bitwise(n, seed, high, tie_break):
    # each level bin sums its labels' kernel entries in label order, as the
    # scatter of every label onto the lattice did, so the FFT sees the same bits
    cost = synthetic_instance(n, seed=seed, high=high)
    for beta in (0.0, 0.3, 0.7, 1.1):
        got = lattice_feasible_masses(cost, beta, tie_break=tie_break)
        assert got.tobytes() == label_lattice_masses(cost, beta, tie_break).tobytes()


@pytest.mark.parametrize("n,seed,high", LEVEL_CASES)
def test_l4_sweep_matches_label_scatter_oracle_bitwise(n, seed, high):
    cost = synthetic_instance(n, seed=seed, high=high)
    betas = [0.0, math.pi / 8, 0.392699, 0.9]
    res = l4_sweep(cost, betas)
    assert [res.metrics["per_beta"][b]["mean"] for b in betas] == [
        label_lattice_l4_mean(cost, b) for b in betas]


@pytest.mark.parametrize("tie_break", [True, False])
@pytest.mark.parametrize("case", LEVEL_CASES + [(4, 1, 9), "wi4"])
def test_angle_average_matches_unscaled_level_binning(case, tie_break):
    # the rows are scaled by 2**(-N/2) before binning; at even N that is a
    # power of two and moves no bit, at odd N it rounds within 4 ulp of the mean
    cost = load_instance(WI4) if case == "wi4" else synthetic_instance(*case)
    for beta in (0.0, 0.3, 0.7, 1.1):
        got = exact_angle_average(cost, beta, tie_break=tie_break).metrics["mean"]
        want = unscaled_level_average(cost, beta, tie_break)
        if cost.num_qubits % 2 == 0:
            assert got == want
        else:
            assert abs(got - want) <= 4 * np.spacing(want)


def test_markov_fraction_bounds():
    inst = synthetic_instance(2, seed=1, high=3)
    res = markov_fraction(inst, 0.7, 1.0)
    assert res.metrics["fraction"] <= 1.0
    for t in (2.0, 4.0):
        res = markov_fraction(inst, 0.7, t)
        assert res.metrics["fraction"] <= 1 / t + 1e-12
        assert res.metrics["satisfied"]


def test_l4_sweep_zero_beta_exact():
    inst = synthetic_instance(2, seed=1, high=3)
    res = l4_sweep(inst, [0.0])
    d = res.metrics["per_beta"][0.0]
    assert d["mean"] == pytest.approx(2.0 ** -4, abs=1e-12)
    assert d["satisfied"]


def test_l4_sweep_under_envelope():
    inst = synthetic_instance(2, seed=3, high=3)
    res = l4_sweep(inst, [math.pi / 8, math.pi / 4])
    for d in res.metrics["per_beta"].values():
        assert d["mean"] <= d["envelope"] + 1e-9


def test_l4_envelope_breach_at_small_beta_is_measured():
    # a measurement, not a contract: l4 averages over the raw, degenerate
    # lattice, where coinciding cost differences keep resonant quadruples,
    # and the envelope is the average of independent one-qubit phases.  Every
    # synthetic n = 3 seed from 1 to 12 (and wi3) passes it at beta = 0.05 and
    # 0.1, which criterion 05's betas (0, pi/8, pi/4, 3 pi/8) do not sample
    res = l4_sweep(synthetic_instance(3, seed=1), [0.05, 0.1])
    per = res.metrics["per_beta"]
    assert res.violated and not any(d["satisfied"] for d in per.values())
    assert per[0.1]["mean"] == pytest.approx(0.002451742235, rel=1e-9)
    assert per[0.1]["envelope"] == pytest.approx(0.002328707907, rel=1e-9)
    assert per[0.05]["mean"] == pytest.approx(0.002096732693, rel=1e-9)
    assert per[0.05]["envelope"] == pytest.approx(0.002042489632, rel=1e-9)


def test_grid_search_degenerate_grid_is_baseline():
    inst = synthetic_instance(3, seed=1, high=5)
    res = grid_search_generic(inst, GridSpec(1, 1, (0.0, 0.0), (0.0, 0.0)))
    assert res.metrics["p_max"] == pytest.approx(6 / 512, abs=1e-15)
    assert res.metrics["best_gamma"] == 0.0 and res.metrics["best_beta"] == 0.0


def test_grid_search_deterministic_and_lexicographic():
    inst = synthetic_instance(2, seed=4, high=3)
    a = grid_search_generic(inst, GridSpec(5, 5))
    b = grid_search_generic(inst, GridSpec(5, 5))
    assert np.array_equal(a.table[1], b.table[1])
    assert (a.metrics["best_gamma"], a.metrics["best_beta"]) == (b.metrics["best_gamma"],
                                                                 b.metrics["best_beta"])
    # the mixer at beta=pi is (-1)^N times the identity, exactly like beta=0,
    # so a {0, pi} beta grid produces tied maxima and the first index wins
    tied = grid_search_generic(inst, GridSpec(1, 2, (0.9, 0.9), (0.0, math.pi)))
    (_, _, first), (_, _, second) = tied.table[1]
    assert first == pytest.approx(second, abs=1e-15)
    assert tied.metrics["best_beta"] == 0.0


def test_parameter_transfer_equality_case():
    inst = synthetic_instance(3, seed=1, high=5)
    res = parameter_transfer(inst, GridSpec(1, 1, (0.0, 0.0), (0.0, 0.0)))
    assert res.metrics["ratio"] == pytest.approx(res.metrics["factor"], rel=1e-12)
    assert res.metrics["satisfied"]


def test_parameter_transfer_reports_measured_ratio():
    inst = synthetic_instance(3, seed=1, high=5)
    res = parameter_transfer(inst, GridSpec(6, 6))
    m = res.metrics
    assert m["p_gen_max"] > 0
    assert m["ratio"] == pytest.approx(m["p_ce"] / m["p_gen_max"], rel=1e-12)
    assert m["satisfied"] == (m["ratio"] >= m["factor"])


def test_histogram_generic_consistency():
    inst = synthetic_instance(2, seed=1, high=3)
    sched = AngleSchedule.single(0.9, 0.4)
    res = feasible_histogram(inst, "generic", sched, shots=200_000, seed=1)
    assert res.metrics["consistent_5sigma"]
    assert sum(res.metrics["counts"].values()) == res.metrics["feasible_total"]


def test_histogram_ce_consistency_and_keys():
    from feasmass.instance import feasible_indices
    inst = synthetic_instance(3, seed=1, high=5)
    sched = AngleSchedule.single(0.4, 0.3)
    res = feasible_histogram(inst, "ce", sched, shots=100_000, seed=2)
    assert res.metrics["consistent_5sigma"]
    assert set(res.metrics["counts"]) == set(_bitstrings(feasible_indices(3).tolist(), 9))


def test_histogram_ce_builds_no_label_map():
    # the n <= 7 label-width refusal needs no n**n label map (6.6 MB at n = 7,
    # kept for the rest of the process by its cache)
    subspace_to_full_labels.cache_clear()
    feasible_histogram(synthetic_instance(3, seed=1, high=5), "ce",
                       AngleSchedule.single(0.4, 0.3), shots=100, seed=2)
    assert subspace_to_full_labels.cache_info().currsize == 0


def test_histogram_zero_shots():
    inst = synthetic_instance(2, seed=1, high=3)
    res = feasible_histogram(inst, "generic", AngleSchedule.single(0.4, 0.3),
                             shots=0, seed=1)
    assert res.metrics["feasible_total"] == 0
    assert res.metrics["consistent_5sigma"]


def test_histogram_seed_determinism():
    inst = synthetic_instance(2, seed=1, high=3)
    sched = AngleSchedule.single(0.9, 0.4)
    a = feasible_histogram(inst, "generic", sched, shots=50_000, seed=7)
    b = feasible_histogram(inst, "generic", sched, shots=50_000, seed=7)
    assert a.metrics["counts"] == b.metrics["counts"]


def test_depth_sweep_monotone():
    inst = synthetic_instance(2, seed=1, high=3)
    res = ce_depth_sweep(inst, 2, GridSpec(4, 4))
    per = res.metrics["per_depth"]
    assert res.metrics["monotone"]
    # the per-layer grid contains zero angles, so depth 1 at least matches
    # the uniform value n!/n**n = 1/2
    assert per[0]["best_mass"] >= 0.5 - 1e-12


@pytest.mark.parametrize("normalized", [True, False])
def test_depth_sweep_matches_per_circuit_run_ce(normalized):
    # oracle: every circuit run from the W product, argmax taken in
    # lexicographic order of the angle tuples
    inst = synthetic_instance(3, seed=2, high=5)
    res = ce_depth_sweep(inst, 2, GridSpec(3, 3), normalized=normalized)
    grid = np.linspace(0.0, math.pi, 3)
    choices = [(float(g), float(b)) for g in grid for b in grid]
    for p, got in zip((1, 2), res.metrics["per_depth"]):
        best = (-1.0, None)
        for combo in itertools.product(choices, repeat=p):
            sched = AngleSchedule(gammas=[c[0] for c in combo], betas=[c[1] for c in combo])
            mass = subspace_feasible_mass(run_ce(inst, sched, normalized=normalized))
            if mass > best[0]:
                best = (mass, combo)
        assert got["best_mass"] == best[0]
        assert got["angles"] == [list(c) for c in best[1]]


def test_depth_sweep_zero_grid_constant():
    inst = synthetic_instance(2, seed=1, high=3)
    res = ce_depth_sweep(inst, 2, GridSpec(1, 1, (0.0, 0.0), (0.0, 0.0)))
    masses = [d["best_mass"] for d in res.metrics["per_depth"]]
    assert masses == pytest.approx([0.5, 0.5], abs=1e-14)


@pytest.mark.parametrize("p_max", [0, 4])
def test_depth_sweep_rejects_depth_out_of_range(p_max):
    with pytest.raises(ValueError, match="p_max"):
        ce_depth_sweep(synthetic_instance(2, seed=1), p_max, GridSpec(2, 2))


def _count_calls(monkeypatch, *names):
    """Wrap the named ``experiments`` globals with call counters."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(experiments, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counted)
    return counts


@pytest.mark.parametrize("gp,bp", [(1, 1), (3, 2)])
def test_grid_search_phases_once_per_gamma(monkeypatch, gp, bp):
    # one projection per point; the argmax check adds one phase, the only
    # mixer and the only full feasible mass; every phase reads one build of
    # the cost levels
    counts = _count_calls(monkeypatch, "cost_levels", "apply_cost_phase", "apply_x_mixer",
                          "feasible_mass", "mixed_feasible_mass")
    grid_search_generic(synthetic_instance(2, seed=1, high=3), GridSpec(gp, bp))
    assert counts == {"cost_levels": 1, "apply_cost_phase": gp + 1, "apply_x_mixer": 1,
                      "feasible_mass": 1, "mixed_feasible_mass": gp * bp}


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_grid_search_refuses_a_projection_off_the_circuit(monkeypatch, precision):
    # the argmax check is the full circuit; a projection off by more than
    # round-off (1e-12 relative in f64, 1e-5 in f32) is refused, within it not
    tol = {"f64": 1e-12, "f32": 1e-5}[precision]
    inst, grid = synthetic_instance(2, seed=1, high=3), GridSpec(3, 2)
    exact = grid_search_generic(inst, grid, precision).metrics["p_max"]
    for scale, refused in ((1 + tol / 4, False), (1 + 4 * tol, True)):
        monkeypatch.setattr(experiments, "mixed_feasible_mass",
                            lambda st, b, n, s=scale: s * mixed_feasible_mass(st, b, n))
        if refused:
            with pytest.raises(ValueError, match="projected mass .* circuit"):
                grid_search_generic(inst, grid, precision)
        else:
            assert grid_search_generic(inst, grid, precision).metrics["p_max"] == pytest.approx(
                exact, rel=tol)


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_grid_search_refuses_a_wrong_frame_off_the_quarter_turns(monkeypatch, precision):
    # phasing |+> in place of P|+> reads the right mass wherever beta is a
    # multiple of pi/2.  On GridSpec(4, 3) every beta is one, so no check can
    # see it; on GridSpec(3, 5) the wrong frame's argmax sits at beta = 0, and
    # the best point off the quarter turns, re-run as a whole circuit, refuses it
    monkeypatch.setattr(experiments, "_p", lambda state, scale: (state.fill(scale), state)[1])
    with pytest.raises(ValueError, match=r"^grid point \(.*: projected mass .*, circuit "):
        grid_search_generic(synthetic_instance(2, seed=5, high=3), GridSpec(3, 5), precision)


def test_depth_sweep_phases_once_per_gamma(monkeypatch):
    # one build of the cost levels and one phase vector per gamma for the
    # whole walk; one batched mixer and one batched mass per parent: the W
    # product, then each of the 9 depth-1 children
    counts = _count_calls(monkeypatch, "cost_levels", "apply_cost_phase", "apply_block_xy_mixer",
                          "subspace_feasible_mass")
    ce_depth_sweep(synthetic_instance(3, seed=2, high=5), 2, GridSpec(3, 3))
    assert counts == {"cost_levels": 1, "apply_cost_phase": 3, "apply_block_xy_mixer": 10,
                      "subspace_feasible_mass": 10}


DEPTH_GRIDS = {"zero": (1, 1, (0.0, 0.0), (0.0, 0.0)), "4x4": (4, 4), "6x5": (6, 5)}


@functools.cache
def _per_state_walk(n, grid, normalized):
    return per_state_depth_walk(synthetic_instance(n, seed=2, high=5), 3,
                                GridSpec(*DEPTH_GRIDS[grid]), normalized)


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("grid", DEPTH_GRIDS)
@pytest.mark.parametrize("p_max", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_depth_sweep_matches_per_state_walk(n, p_max, grid, normalized):
    # the batched walk against the depth-first walk over single states: the
    # same argmax angles, and the same masses bit for bit up to n = 3.  At
    # n = 4 a batch sums its 24 feasible entries per row in another order
    # than the 1-D sum, which moves a mass by an ulp or two
    got = ce_depth_sweep(synthetic_instance(n, seed=2, high=5), p_max,
                         GridSpec(*DEPTH_GRIDS[grid]), normalized).metrics["per_depth"]
    want = _per_state_walk(n, grid, normalized)[:p_max]
    assert [d["angles"] for d in got] == [[list(a) for a in angles] for _, angles in want]
    for d, (mass, _) in zip(got, want):
        if n <= 3:
            assert d["best_mass"] == mass
        else:
            assert abs(d["best_mass"] - mass) <= 1e-15 * mass


def test_depth_walk_holds_one_batch_per_layer():
    # n = 4, 6x6: each layer keeps its (36, 256) batch while the children
    # below it are walked, so each layer past the first adds one batch (and
    # the walk's frames and angle tuples) to the peak: 2.4, 3.4 and 4.4
    # batches at p = 1, 2, 3.  At p = 1 that is the batch, the phase rows and
    # the mixer's means plus numpy's reduction buffer of 8,192 entries
    cost = synthetic_instance(4, seed=1)
    ce_depth_sweep(cost, 1, GridSpec(1, 1, (0.0, 0.0), (0.0, 0.0)))   # index caches
    peaks = []
    for p_max in (1, 3):
        tracemalloc.start()
        try:
            ce_depth_sweep(cost, p_max, GridSpec(6, 6))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    batch = 36 * 4 ** 4 * 16
    assert peaks[0] < 3 * batch, f"p = 1: peak {peaks[0] / batch:.2f} batches"
    assert peaks[1] - peaks[0] < 2.1 * batch, f"p = 3: {(peaks[1] - peaks[0]) / batch:.2f} more"


WI4 = Path(__file__).resolve().parent.parent / "instances" / "wi4.txt"


def test_grid_search_holds_under_four_states():
    # one state plus the cost phase's or the mixer's chunk temporaries: every
    # gamma refills one P|+> buffer, freed before the whole circuits, and a
    # projection of two betas (24 betas: twelve groups) adds half a state for
    # its first stage (about 2.65 states; 3.6 with a mixed copy).  wi4's costs
    # take the distinct-values path: its levels (a uint16 index and 5,049
    # values) and their gather add about 0.15 states
    for cost, grid in itertools.product((synthetic_instance(4, seed=1), load_instance(WI4)),
                                        (GridSpec(3, 2), GridSpec(2, 24))):
        cost.cost_vector()
        tracemalloc.start()
        try:
            grid_search_generic(cost, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 16 * 16, (f"{cost.name} {grid.beta_points} betas: "
                                         f"peak {peak / (2 ** 16 * 16):.2f} states")


def test_grid_search_frees_its_cost_on_return():
    # a reference cycle in the sweep would keep the cost table (0.5 MiB at
    # n = 4) alive until the next garbage collection
    gc.disable()
    tracemalloc.start()
    try:
        grid_search_generic(synthetic_instance(4, seed=1), GridSpec(2, 2))
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert current < 2 ** 16, f"{current} B still held"


def test_twirl_experiment_exact():
    # exact beyond the n <= 3 enumeration range as well
    for n in (2, 4, 6):
        inst = synthetic_instance(n, seed=1, high=3)
        res = twirl_existence_experiment(inst, AngleSchedule.single(0.9, 0.6))
        assert res.metrics["mean_error"] <= 1e-12
        assert res.metrics["best"] >= res.metrics["bound"] - 1e-12
        assert res.metrics["satisfied"]


def test_twirl_identity_circuit_equality():
    inst = synthetic_instance(2, seed=1, high=3)
    res = twirl_existence_experiment(inst, AngleSchedule.single(0.0, 0.0))
    assert res.metrics["best"] == pytest.approx(res.metrics["bound"], abs=1e-14)


def test_envelope_excess_at_least_one():
    inst = synthetic_instance(2, seed=1, high=3)
    res = envelope_excess_report(inst, GridSpec(4, 4))
    assert res.metrics["max_over_baseline"] >= 1.0 - 1e-12


def test_result_json_excludes_wall_clock():
    inst = synthetic_instance(2, seed=1, high=3)
    res = exact_angle_average(inst, 0.3)
    payload = res.to_json_dict()
    assert "wall_clock" not in payload
    assert payload["experiment"] == "exact_angle_average"


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("n", [2, 3])
def test_grid_surface_matches_run_generic(n, precision):
    # phasing once per gamma must not change a single bit of any grid point:
    # each is the projection of a freshly phased P|+>; the projection matches
    # run_generic's mixer in test_fullspace.test_projection_matches_full_mixer
    cost = synthetic_instance(n, seed=5, high=3)
    grid = GridSpec(4, 3)
    res = grid_search_generic(cost, grid, precision)
    dtype = {"f64": np.complex128, "f32": np.complex64}[precision]
    levels = cost_levels(cost.cost_vector())
    one_hot = np.stack([real_mixer_rows(1 << np.arange(n), b, n) for b in grid.axes()[1]])
    expected = [mixed_feasible_mass(apply_cost_phase(x_frame(init_plus(n * n, dtype), False),
                                                     levels, g), one_hot, n)
                for g in grid.axes()[0]]
    assert np.array_equal([mass for _, _, mass in res.table[1]], np.ravel(expected))


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_wi4_grid_surface_matches_per_entry_exp(precision):
    # wi4 has 5,049 distinct costs over a range of 1.3 million, so its phases
    # gather from the distinct values; every grid point must keep the bits of
    # exp taken per entry of the table, as the phase computed it before levels
    cost = load_instance(WI4)
    table = cost.cost_vector()
    assert cost_levels(table)[0].dtype == np.uint16
    grid = GridSpec(3, 3)
    res = grid_search_generic(cost, grid, precision)
    dtype = {"f64": np.complex128, "f32": np.complex64}[precision]
    gammas, betas = grid.axes()
    expected = []
    for g in gammas:
        phase = np.exp((-1j * g) * table).astype(dtype)
        phased = x_frame(init_plus(16, dtype), False) * phase
        expected += mixed_feasible_mass(phased, np.stack(
            [real_mixer_rows(1 << np.arange(4), b, 4) for b in betas]), 4).tolist()
    assert np.array_equal([mass for _, _, mass in res.table[1]], expected)


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_grid_surface_matches_whole_circuits_off_quarter_turns(precision):
    # every point against feasible_mass(run_generic(...)), the whole circuit
    # from |+>: on [0, pi] grids with integer costs the phases at multiples of
    # pi/2 are real or imaginary, and there a projection in the wrong frame
    # can read the same masses, so these ranges avoid them
    tol = {"f64": 1e-12, "f32": 1e-5}[precision]
    grid = GridSpec(3, 3, gamma_range=(0.1, 0.9), beta_range=(0.2, 1.3))
    for cost in (synthetic_instance(2, seed=5, high=3), synthetic_instance(3, seed=5, high=3),
                 load_instance(WI4)):
        res = grid_search_generic(cost, grid, precision)
        for g, b, mass in res.table[1]:
            want = feasible_mass(run_generic(cost, AngleSchedule.single(g, b), precision), cost.n)
            assert abs(mass - want) <= tol * want, (cost.name, g, b)


def test_lattice_cap_names_size():
    from feasmass.instance import CapacityError, load_instance
    from pathlib import Path
    cost = load_instance(Path(__file__).resolve().parent.parent / "instances" / "wi4.txt")
    with pytest.raises(CapacityError, match="consider --tie-break false$"):
        lattice_feasible_masses(cost, 0.7, tie_break=True)


def test_lattice_cap_is_checked_before_any_kernel_row(monkeypatch):
    # L comes from the level values; the kernel rows are built only when the
    # binned rows are read, so an over-cap grid builds none
    from feasmass.instance import CapacityError
    def unreachable(*a):
        raise AssertionError("kernel rows built")
    monkeypatch.setattr(experiments, "mixer_kernel_rows", unreachable)
    with pytest.raises(CapacityError, match="85429687500 points"):
        lattice_feasible_masses(load_instance(WI4), 0.7, tie_break=True)


def test_l4_grid_mean_is_grid_size_independent():
    # any L >= 2*spread+1 reproduces the same (continuous) angle average
    cost = synthetic_instance(2, seed=3, high=3)
    a = phase_block_l4_means(cost, [0.4, 0.9], 2 * cost.spread + 1)
    b = phase_block_l4_means(cost, [0.4, 0.9], 4 * cost.spread + 3)
    assert a == pytest.approx(b, abs=1e-14)


@pytest.mark.parametrize("n,seed,high", [(2, 1, 3), (2, 2, 3), (2, 3, 3), (3, 1, 5)])
@pytest.mark.parametrize("scale,pad", [(2, 1), (4, 3)], ids=["2spread+1", "4spread+3"])
def test_l4_sweep_matches_phase_block_oracle(n, seed, high, scale, pad):
    cost = synthetic_instance(n, seed=seed, high=high)
    L = scale * cost.spread + pad
    betas = [0.0, math.pi / 8, 0.9]
    res = l4_sweep(cost, betas)
    assert res.params["L"] >= 2 * cost.spread + 1
    for beta, ref in zip(betas, phase_block_l4_means(cost, betas, L)):
        assert abs(res.metrics["per_beta"][beta]["mean"] - ref) <= 1e-13 * ref


def test_l4_sweep_matches_simulated_grid_mean():
    # independent of both lattice kernels: full circuits at every grid angle
    inst = synthetic_instance(2, seed=2, high=3)
    L = 2 * inst.spread + 1
    for beta in (0.4, 1.2):
        direct = np.mean([fourth_moment(run_generic(
            inst, AngleSchedule.single(2 * math.pi * k / L, beta))) for k in range(L)])
        got = l4_sweep(inst, [beta]).metrics["per_beta"][beta]["mean"]
        assert abs(got - direct) <= 1e-13 * direct
