"""Workload definitions for the feasmass benchmark: the CLI operations each
workload runs, the oracle each operation's output must meet, and the layer
spans a traced run must see.

Every operation is an existing ``feasmass`` command.  The workload seed is
passed as ``--seed`` to every operation, so it drives shot sampling and every
synthetic instance; the bundled ``instances/wi*.txt`` files stay fixed.

Oracles are closed forms from the paper where one exists, reference values
recorded at the seed commit (compared within a stated tolerance, so a kernel
that reorders floating-point sums still passes) where the input does not
depend on the seed, and structural checks on the artifact files otherwise.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class OracleMiss(Exception):
    """An operation's output missed its oracle."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise OracleMiss(msg)


@dataclass
class Outcome:
    """What one operation returned: exit code, captured stdout, artifacts."""

    rc: int | None          # None when cli.main raised
    stdout: str
    out_dir: Path

    def _one(self, pattern: str) -> Path:
        found = sorted(self.out_dir.glob(pattern))
        require(len(found) == 1, f"expected one {pattern} artifact, found {len(found)}")
        return found[0]

    @property
    def metrics(self) -> dict:
        return json.loads(self._one("*.jsonl").read_text())["metrics"]

    def csv_rows(self) -> list:
        lines = self._one("*.csv").read_text().splitlines()
        require(lines and lines[0].startswith("# config "), "csv lacks its config line")
        return list(csv.DictReader(lines[1:]))


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``expect_rc`` None means the check judges the verdict.

    ``check`` raises OracleMiss on a wrong output and returns True when the
    output reproduces a recorded program defect (a contract breach the
    benchmark expects, see KNOWN_DEFECTS).
    """

    argv: tuple
    check: Callable[[Outcome], bool]
    expect_rc: int | None = 0


# Reference values recorded at the seed commit (inputs independent of --seed).
REFERENCE = {
    # run hist --instance instances/wi5.txt --method generic ... --precision f32
    "wi5_generic_mass": 5.93383902014466e-06,
    # run grid --instance instances/wi4.txt --grid 24x24
    "wi4_grid_p_max": 0.0030036994389491716,
    "wi4_grid_best_gamma": 2.5952287138350463,
    "wi4_grid_best_beta": 2.7318196987737329,
    # run grid --instance instances/wi3.txt --grid 3x3 (smoke workload)
    "wi3_grid3_p_max": 0.011718750000000017,
    # verify all: verdict line counts
    "verify_all_pass": 116,
    "verify_all_warn": 5,
}
# f32 statevector: a reordered kernel may move the mass in its 5th digit.
F32_REL_TOL = 1e-3
F64_REL_TOL = 1e-9
# The n=4 twirl mean is a 100k-sample Monte Carlo estimate of 1/n**n; its
# standard error is about 2e-5 on these instances.
TWIRL_MC_TOL = 1e-4

KNOWN_DEFECTS = {
    "twirl-n4": "run twirl --n 4 exits 2: its Monte Carlo mean misses the "
                "1e-12 contract (mean_error ~1e-5)",
    "hist-n8-ce": "run hist --n 8 --method ce raises OverflowError (label bit 63 "
                  "does not fit int64) and exits 1; not run here, n=7 is the largest",
    "wi5-rss": "generic-n5 peaks near 936 MiB RSS, against the README's "
               "'fits in 256 MB' for the f32 state",
}

# lattice ops: the lattice size L = spread*2**9 + O(2**9), and the lattice
# kernel's time is linear in L.  Synthetic n=3 spreads range 357..762 over
# seeds (a 2x spread in run time), so this workload takes, for each workload
# seed, the first synthetic instance seed at or after seed*7919 whose spread
# is the most common value.  Every seed then does the same lattice work.
LATTICE_SPREAD = 526
LATTICE_SEED_STRIDE = 7919


def lattice_instance_seed(seed: int) -> int:
    from feasmass.instance import build_cost, synthetic_instance
    s = seed * LATTICE_SEED_STRIDE
    while build_cost(synthetic_instance(3, seed=s)).spread != LATTICE_SPREAD:
        s += 1
    return s


# ---------------------------------------------------------------------------
# oracles

def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def _is_permutation(bits: str, n: int) -> bool:
    rows = [bits[i * n:(i + 1) * n] for i in range(n)]
    cols = ["".join(r[j] for r in rows) for j in range(n)]
    return all(r.count("1") == 1 for r in rows + cols)


def _check_histogram(o: Outcome, n: int) -> None:
    m = o.metrics
    require(m["consistent_5sigma"] is True, "feasible count outside 5 sigma of the statevector mass")
    require(0.0 < m["statevector_mass"] <= 1.0 + 1e-9, f"mass {m['statevector_mass']} not in (0,1]")
    rows = o.csv_rows()
    require(all(_is_permutation(r["bitstring"], n) for r in rows), "histogram holds an infeasible label")
    require(sum(int(r["count"]) for r in rows) == m["feasible_total"], "histogram counts do not sum to feasible_total")


def check_generic_hist(o: Outcome) -> bool:
    _check_histogram(o, 5)
    mass = o.metrics["statevector_mass"]
    require(_close(mass, REFERENCE["wi5_generic_mass"], F32_REL_TOL),
            f"wi5 mass {mass} vs reference {REFERENCE['wi5_generic_mass']}")
    return False


def check_ce_hist(o: Outcome) -> bool:
    _check_histogram(o, 7)
    return False


def check_grid_wi4(o: Outcome) -> bool:
    rows = o.csv_rows()
    require(len(rows) == 24 * 24, f"grid csv has {len(rows)} rows, not 576")
    m = o.metrics
    require(_close(m["p_max"], REFERENCE["wi4_grid_p_max"], F64_REL_TOL),
            f"p_max {m['p_max']} vs reference {REFERENCE['wi4_grid_p_max']}")
    require(_close(m["best_gamma"], REFERENCE["wi4_grid_best_gamma"], 1e-12)
            and _close(m["best_beta"], REFERENCE["wi4_grid_best_beta"], 1e-12),
            "grid argmax moved off the reference grid point")
    require(max(float(r["p_feas"]) for r in rows) == m["p_max"], "p_max is not the csv maximum")
    # zero angles leave |+>^N: the feasible mass is exactly n!/2**N
    require(abs(float(rows[0]["p_feas"]) - 24 / 2 ** 16) <= 1e-15, "P(0,0) is not 4!/2**16")
    return False


def check_transfer_n4(o: Outcome) -> bool:
    # criterion 03 fails by design: exit 2 with satisfied == False
    m = o.metrics
    require(m["satisfied"] is False, "transfer unexpectedly satisfied")
    require(m["factor"] == 2.0 ** 16 / 4 ** 4, "transfer factor is not 2**16/4**4")
    require(_close(m["ratio"], m["p_ce"] / m["p_gen_max"], 1e-12), "ratio != p_ce/p_gen_max")
    # the grid contains zero angles, where P = 4!/2**16
    require(m["p_gen_max"] >= 24 / 2 ** 16 - 1e-15, "p_gen_max below the zero-angle mass")
    return False


def check_avg_n3(o: Outcome) -> bool:
    m = o.metrics
    require(abs(m["mean"] - 6 / 2 ** 9) <= 1e-10, f"lattice mean {m['mean']} != 3!/2**9")
    return False


def check_markov_n3(o: Outcome) -> bool:
    m = o.metrics
    require(m["fraction"] <= 1 / 4 + 1e-12, f"markov fraction {m['fraction']} > 1/t")
    return False


def check_l4_n3(o: Outcome) -> bool:
    rows = o.csv_rows()
    require(len(rows) == 1, "l4 csv should hold one beta")
    require(all(float(r["mean_l4"]) <= float(r["envelope"]) + 1e-9 for r in rows), "l4 mean above envelope")
    return False


def check_verify_all(o: Outcome) -> bool:
    verdicts = [line.split()[0] for line in o.stdout.splitlines() if line.strip()]
    require("FAIL" not in verdicts, "verify all printed a FAIL line")
    require(verdicts.count("PASS") == REFERENCE["verify_all_pass"]
            and verdicts.count("WARN") == REFERENCE["verify_all_warn"],
            f"verify all: {verdicts.count('PASS')} PASS / {verdicts.count('WARN')} WARN")
    return False


def check_twirl(n: int) -> Callable[[Outcome], bool]:
    def check(o: Outcome) -> bool:
        m = o.metrics
        bound = 1.0 / n ** n
        require(abs(m["mean"] - bound) <= TWIRL_MC_TOL, f"twirl mean {m['mean']} vs 1/{n}^{n}")
        require(m["best"] >= bound - 1e-12, "best relabeling below 1/n**n")
        if o.rc == 0:
            require(m["satisfied"] is True and m["mean_error"] <= 1e-12, "exit 0 without the contract")
            return False
        require(o.rc == 2 and m["mean_error"] > 1e-12, f"unexpected twirl verdict rc={o.rc}")
        return True
    return check


def check_depth(o: Outcome) -> bool:
    require(o.metrics["monotone"] is True, "depth sweep not monotone")
    best = [float(r["best_p_feas"]) for r in o.csv_rows()]
    require(len(best) == 3 and all(b2 >= b1 - 1e-15 for b1, b2 in zip(best, best[1:])),
            f"best masses not non-decreasing: {best}")
    # zero angles leave the W product, whose feasible mass is 3!/3**3
    require(best[0] >= 6 / 27 - 1e-12, "depth-1 best below the zero-angle mass")
    return False


def check_grid_wi3(o: Outcome) -> bool:
    p_max = o.metrics["p_max"]
    require(_close(p_max, REFERENCE["wi3_grid3_p_max"], F64_REL_TOL),
            f"p_max {p_max} vs reference {REFERENCE['wi3_grid3_p_max']}")
    return False


def check_smoke_hist(o: Outcome) -> bool:
    _check_histogram(o, 3)
    return False


def check_verify_bounds(o: Outcome) -> bool:
    require("FAIL" not in o.stdout.split(), "verify bounds printed a FAIL line")
    return False


# ---------------------------------------------------------------------------
# workloads

def _run(*args) -> tuple:
    return ("run",) + args


def ops(name: str, seed: int) -> list:
    """The workload's operations for one seed (same seed, same inputs)."""
    s = str(seed)
    if name == "generic-n5":
        return [Op(_run("hist", "--instance", "instances/wi5.txt", "--method", "generic",
                        "--gamma", "0.4", "--beta-list", "0.3", "--shots", "500000",
                        "--precision", "f32", "--seed", s), check_generic_hist)]
    if name == "grid-n4":
        return [Op(_run("grid", "--instance", "instances/wi4.txt", "--grid", "24x24", "--seed", s),
                   check_grid_wi4),
                Op(_run("transfer", "--n", "4", "--grid", "10x10", "--seed", s),
                   check_transfer_n4, expect_rc=2)]
    if name == "lattice-ce":
        ls = str(lattice_instance_seed(seed))
        return [Op(_run("avg", "--n", "3", "--beta", "0.7", "--seed", ls), check_avg_n3),
                Op(_run("markov", "--n", "3", "--beta", "0.7", "--t", "4", "--seed", ls),
                   check_markov_n3),
                Op(_run("l4", "--n", "3", "--beta-list", "0.392699", "--seed", ls), check_l4_n3),
                Op(("verify", "all"), check_verify_all),
                Op(_run("hist", "--n", "7", "--method", "ce", "--gamma", "0.4,0.5",
                        "--beta-list", "0.3,0.2", "--shots", "500000", "--seed", s), check_ce_hist),
                Op(_run("twirl", "--n", "4", "--gamma", "0.9", "--beta-list", "0.4", "--seed", s),
                   check_twirl(4), expect_rc=None),
                Op(_run("depth", "--n", "3", "--depth", "3", "--grid", "4x4", "--seed", s),
                   check_depth)]
    if name == "smoke":
        return [Op(_run("grid", "--instance", "instances/wi3.txt", "--grid", "3x3", "--seed", s),
                   check_grid_wi3),
                Op(_run("hist", "--n", "3", "--method", "ce", "--shots", "2000", "--seed", s),
                   check_smoke_hist),
                Op(_run("twirl", "--n", "2", "--gamma", "0.9", "--beta-list", "0.4", "--seed", s),
                   check_twirl(2), expect_rc=None),
                Op(("verify", "bounds"), check_verify_bounds)]
    raise ValueError(f"unknown workload {name!r}")


# The lattice-n3 and ce-n7 operations share one workload, lattice-ce.  Run
# alone, the ce-n7 operations (pure-Python loops: label map, Monte Carlo
# twirl, 4368 small circuits) spread 0.21-0.27 (IQR/median of ten seeds)
# because interpreter speed drifts by up to 1.6x within minutes on a shared
# 2-vCPU host; beside the BLAS-bound lattice kernel they stay within bounds.
WORKLOADS = ("generic-n5", "grid-n4", "lattice-ce")

# Spans each workload must fire in a traced run; a missing one means the
# workload no longer exercises the layer it was chosen for.
PREDICTED_SPANS = {
    "generic-n5": ("instance.cost_vector", "fullspace.init_plus", "fullspace.apply_cost_phase",
                   "fullspace.apply_x_mixer", "fullspace.feasible_mass", "fullspace.sample_counts"),
    "grid-n4": ("experiments.grid_search_generic", "fullspace.apply_cost_phase",
                "fullspace.apply_x_mixer", "fullspace.feasible_mass", "instance.cost_vector",
                "subspace.run_ce"),
    "lattice-ce": ("experiments.lattice_feasible_masses", "instance.tie_broken_vector",
                   "experiments.l4_sweep", "harmonic.walsh_transform", "bounds.verify_bounds",
                   "subspace.subspace_cost_table", "subspace.apply_block_xy_mixer",
                   "subspace.subspace_to_full_labels", "subspace.twirl_average",
                   "subspace.best_block_relabeling", "subspace.run_ce",
                   "experiments.ce_depth_sweep", "fullspace.sample_counts"),
    "smoke": ("cli.main",),
}

# Largest state per operation: (operation, amplitudes, bytes per amplitude).
STATE_SIZES = {
    "generic-n5": [("hist wi5 f32 full space", 2 ** 25, 8)],
    "grid-n4": [("grid wi4 f64 full space", 2 ** 16, 16),
                ("transfer n=4 f64 full space", 2 ** 16, 16)],
    "lattice-ce": [("lattice phase block (8192 angles x 2**9)", 2 ** 22, 16),
                   ("hist n=7 subspace", 7 ** 7, 16), ("twirl n=4 subspace", 4 ** 4, 16),
                   ("depth n=3 subspace", 3 ** 3, 16)],
    "smoke": [("grid wi3 f64 full space", 2 ** 9, 16)],
}
