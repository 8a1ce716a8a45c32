"""Command-line entry point.

Three subcommands: ``baseline`` prints the bound table for an instance,
``run`` executes a named experiment and writes JSON-lines plus CSV artifacts,
``verify`` runs the identity batteries.

Exit codes: 0 success, 1 usage or I/O error, 2 contract violation.  Every
output file embeds the hash of the resolved configuration, and re-running the
same configuration reproduces the files byte for byte (wall-clock times are
printed, never written).
"""
from __future__ import annotations

import argparse
import errno
import hashlib
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds, experiments, harmonic
from .experiments import ExperimentResult, GridSpec
from .fullspace import AngleSchedule, feasible_mass, mixer_kernel_rows, run_generic
from .instance import DiagonalCost, InstanceFormatError, load_instance, synthetic_instance
from .subspace import block_mixer_eigenvalues, leakage_gram, leakage_spectrum, overlap_generic_ce

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTRACT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _parse_grid(text: str) -> tuple:
    try:
        g, b = text.lower().split("x")
        return int(g), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 10x10, got {text!r}")


def _parse_finite(text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return val


def _parse_count(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _parse_n(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 2:
        raise argparse.ArgumentTypeError(f"expected an integer >= 2, got {text!r}")
    return int(text)


def _parse_range(text: str) -> tuple:
    try:
        lo, hi = text.split(":")
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must look like LO:HI, got {text!r}")
    return _parse_finite(lo), _parse_finite(hi)


def _parse_list(text: str) -> str:
    """Comma-separated finite numbers, kept as the text (the config hashes it)."""
    for item in text.split(","):
        _parse_finite(item)
    return text


def _parse_bool(text: str) -> bool:
    val = {"1": True, "true": True, "yes": True, "on": True,
           "0": False, "false": False, "no": False, "off": False}.get(text.strip().lower())
    if val is None:
        raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")
    return val


def _resolve_instance(args) -> DiagonalCost:
    if getattr(args, "instance", None):
        return load_instance(args.instance)
    if getattr(args, "n", None):
        return synthetic_instance(args.n, seed=getattr(args, "seed", 0) or 0)
    raise _usage_error("pass --instance PATH or --n K")


def _usage_error(msg) -> SystemExit:
    sys.stderr.write(f"error: {msg}\n")
    return SystemExit(EXIT_USAGE)


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _write_jsonl(path: Path, config: dict, chash: str, result: ExperimentResult):
    record = dict(result.to_json_dict(), config=config, config_hash=chash)
    path.write_text(json.dumps(record, sort_keys=True) + "\n")


def _write_csv(path: Path, chash: str, header: str, rows):
    lines = [f"# config {chash}", header] + [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# baseline

def cmd_baseline(args) -> int:
    inst = _resolve_instance(args)
    n, (exact, floor) = inst.n, bounds.transfer_factor(inst.n)
    for label, value in (("instance", inst.name), ("n", n), ("qubits", n * n),
                         ("feasible |Pi|", math.factorial(n)),
                         ("ln baseline", _fmt(bounds.uniform_baseline(n))),
                         ("ln transfer", f"{_fmt(exact)}   (stirling floor {_fmt(floor)})")):
        print(f"{label:<15s} {value}")
    for p in sorted({1, n // 2, n}):   # n >= 2, so every p >= 1
        print(f"ln lightcone 1d p={p:<3d} {_fmt(bounds.lightcone_1d_bound(n, p))}"
              "   (path-coupled rows)")   # its hypothesis; the penalty couples all rows
    return EXIT_OK


# ---------------------------------------------------------------------------
# run

def _schedule_from(args) -> AngleSchedule:
    return AngleSchedule(gammas=args.gamma.split(","), betas=args.beta_list.split(","))


def cmd_run(args) -> int:
    inst = _resolve_instance(args)
    method = {"hist": args.method or "ce", "depth": "ce", "twirl": "ce"}.get(args.experiment)
    if args.method not in (None, method):   # depth and twirl run CE only, the others neither
        why = "simulates CE-QAOA only" if method else "reads no --method"
        raise _usage_error(f"run {args.experiment} {why}, got --method {args.method}")
    grid = GridSpec(gamma_points=args.grid[0], beta_points=args.grid[1],
                    gamma_range=args.range_gamma, beta_range=args.range_beta)
    config = {
        "command": args.experiment, "instance": inst.name,
        "n": inst.n, "dist": inst.dist.tolist(),
        "penalty_weight": inst.penalty_weight,
        "grid": list(args.grid), "range_gamma": list(args.range_gamma),
        "range_beta": list(args.range_beta), "shots": args.shots,
        "seed": args.seed, "depth": args.depth,
        "normalized_mixer": args.normalized_mixer, "precision": args.precision,
        "beta": args.beta, "t": args.t, "tie_break": args.tie_break,
        "method": method, "gamma": args.gamma, "beta_list": args.beta_list,
    }
    chash = _config_hash(config)
    # --out is made with the first file written, so a run that fails leaves
    # none behind; a file in its place is refused before the run
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise FileExistsError(errno.EEXIST, "File exists", str(out))
    stem = f"{args.experiment}_{chash}"
    run = {
        "avg": lambda: experiments.exact_angle_average(inst, args.beta, tie_break=args.tie_break),
        "markov": lambda: experiments.markov_fraction(inst, args.beta, args.t,
                                                      tie_break=args.tie_break),
        "l4": lambda: experiments.l4_sweep(inst, [float(x) for x in args.beta_list.split(",")]),
        "grid": lambda: experiments.grid_search_generic(inst, grid, precision=args.precision),
        "transfer": lambda: experiments.parameter_transfer(inst, grid, precision=args.precision),
        "hist": lambda: experiments.feasible_histogram(
            inst, method, _schedule_from(args), args.shots, args.seed,
            normalized=args.normalized_mixer, precision=args.precision),
        "depth": lambda: experiments.ce_depth_sweep(inst, args.depth, grid,
                                                    normalized=args.normalized_mixer),
        "twirl": lambda: experiments.twirl_existence_experiment(
            inst, _schedule_from(args), normalized=args.normalized_mixer),
    }[args.experiment]

    t0 = time.perf_counter()
    res = run()
    wall_clock = time.perf_counter() - t0

    out.mkdir(parents=True, exist_ok=True)
    if res.table:
        _write_csv(out / f"{stem}.csv", chash, *res.table)
    _write_jsonl(out / f"{stem}.jsonl", config, chash, res)
    print(f"wall clock      {_fmt(wall_clock)} s")
    print(f"config hash     {chash}")
    for key, val in res.metrics.items():
        if isinstance(val, (int, float, bool, str)):
            print(f"{key:<15s} {_fmt(val)}")
    if res.violated:
        print("CONTRACT VIOLATION (see metrics above)")
        return EXIT_CONTRACT
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify batteries

class _Battery:
    def __init__(self):
        self.lines, self.failed = [], False

    def record(self, name: str, ok: bool, detail: str = "", warn_only: bool = False):
        status = "PASS" if ok else "WARN" if warn_only else "FAIL"
        self.failed |= status == "FAIL"
        self.lines.append(f"{status:<5s} {name:<58s} {detail}")

    def close(self, name: str, got, want, tol: float):
        err = float(np.abs(got - want).max())
        self.record(name, err <= tol, f"max err {_fmt(err)}")


def _verify_harmonic(bat: _Battery):
    for n in range(2, 13):
        bat.record(f"krawtchouk orthogonality n={n}", harmonic.krawtchouk_orthogonality_check(n))
    for n in (2, 6, 12):
        spec = harmonic.walsh_transform(harmonic.sphere_indicator(n, 1))
        expect = (n - 2 * harmonic.popcounts(n)) * 2.0 ** (-n)
        bat.close(f"one-hot spectrum closed form n={n}", spec, expect, 1e-12)
    for n in (4, 9, 12):
        for w in (0, 1, 2, n):
            ref = harmonic.walsh_transform(harmonic.sphere_indicator(n, w))
            bat.close(f"sphere spectrum vs transform n={n} w={w}", harmonic.sphere_spectrum(n, w),
                      ref, 1e-10)
    # walsh multiplier against the dense kernel on 4 bits
    rng = np.random.default_rng(7)
    f = rng.normal(size=16) + 1j * rng.normal(size=16)
    beta = 0.83
    K = mixer_kernel_rows(np.arange(16), beta, 4)
    lhs = harmonic.walsh_transform(K @ f)
    lam = np.array([harmonic.mixer_walsh_multiplier(4, s, beta) for s in harmonic.popcounts(4)])
    bat.close("mixer walsh multiplier N=4", lhs, lam * harmonic.walsh_transform(f), 1e-10)
    for n in (2, 3):
        spectra = harmonic.permutation_spectrum(n)
        bat.close(f"row-indicator spectrum factorization n={n}", spectra.row,
                  harmonic.row_spectrum_closed_form(n), 1e-12)
        bat.close(f"permutation spectrum = row (*) col n={n}", spectra.full,
                  harmonic.dyadic_convolve(spectra.row, spectra.col), 1e-12)
        total = (1 << (n * n)) * float(np.sum(np.abs(spectra.full) ** 2))
        bat.record(f"permutation spectral mass = n! (n={n})",
                   abs(total - math.factorial(n)) <= 1e-9, f"mass {_fmt(total)}")
    for n in (2, 3):
        state = run_generic(synthetic_instance(n, seed=1, high=5), AngleSchedule.single(0.9, 0.4))
        diff = abs(feasible_mass(state, n) - harmonic.feasible_mass_via_plancherel(state, n))
        bat.record(f"plancherel feasible mass n={n}", diff <= 1e-9, f"|diff| {_fmt(diff)}")
    top = experiments.envelope_excess_report(   # >= 1: the grid holds beta = 0
        synthetic_instance(2, seed=1, high=5), GridSpec(8, 8)).metrics["max_over_baseline"]
    bat.record("strict-envelope excess: grid max P*2^N/n! >= 1 (n=2)", top >= 1 - 1e-12,
               f"max P*2^N/n! = {_fmt(top)}")


def _verify_twirl(bat: _Battery):
    for n in (2, 3):
        inst = synthetic_instance(n, seed=2, high=5)
        bound = 1.0 / float(n) ** n
        for gamma, beta in ((0.4, 0.3), (1.1, 0.7), (2.0, 1.9)):
            res = experiments.twirl_existence_experiment(inst, AngleSchedule.single(gamma, beta))
            bat.record(f"twirl mean = 1/{n}^{n} at angles ({gamma},{beta})",
                       res.metrics["mean_error"] <= 1e-12, f"err {_fmt(res.metrics['mean_error'])}")
            bat.record(f"best relabeling >= 1/{n}^{n} at ({gamma},{beta})",
                       res.metrics["best"] >= bound - 1e-12, f"best {_fmt(res.metrics['best'])}")
    for n in (3, 4):   # eigvalsh at n = 5 (120 x 120) wakes a BLAS thread that spins on
        spec, gram = leakage_spectrum(n), leakage_gram(n)
        closed = np.sort(np.repeat([e for _, e, _ in spec], [m for _, _, m in spec]))
        got = np.linalg.eigvalsh(gram)
        # the uniform vector's eigenvalue, that of (n), fixes the content's sign
        err = max(float(np.abs(closed - got).max()) if closed.size == got.size else math.inf,
                  float(np.abs(gram.sum(axis=1) - spec[0][1]).max()))
        bat.record(f"leakage gram spectrum closed form n={n}", err <= 1e-10, f"max err {_fmt(err)}")
    # documented discrepancy: the per-block uniform eigenvalue is 2(n-1),
    # not (n-1); flagged as WARN, never FAIL.
    for n in (2, 3):
        lam_u, _ = block_mixer_eigenvalues(n, False)
        bat.record(f"documented sector eigenvalue convention n={n}", abs(lam_u - (n - 1)) <= 1e-12,
                   f"measured {_fmt(lam_u)} vs documented {n - 1}", warn_only=True)
    for n in (2, 3):
        inst = synthetic_instance(n, seed=3, high=5)
        target = float(n) ** (n / 2) / 2.0 ** (n * n / 2)
        rng = np.random.default_rng(5)
        worst = max(abs(abs(overlap_generic_ce(inst, *rng.uniform(0, math.pi, size=2))) - target)
                    for _ in range(5))
        bat.record(f"projector overlap modulus n={n}", worst <= 1e-10, f"max err {_fmt(worst)}")


def _verify_bounds(bat: _Battery):
    for rep in bounds.verify_bounds():
        if rep.name == "stirling_floor":
            n = rep.params["n"]
            bat.record(f"stirling floor n={n}", rep.satisfied,
                       f"exact-floor {_fmt(rep.value)}", warn_only=n < 5)
        else:
            bat.record(f"{rep.name} {rep.params}", bool(rep.satisfied))
    for p in (0, 1, 2):   # n = 6, C = (2p + 1) / 2**p
        diff = abs(bounds.lightcone_degree_bound(6, p, 2.0, (2 * p + 1) / 2.0 ** p)
                   - bounds.lightcone_1d_bound(6, p))
        bat.record(f"lightcone degree bound reduces to 1d at p={p}",
                   diff <= 1e-12, f"|diff| {_fmt(diff)}")
    try:
        import mpmath
        mpmath.mp.dps = 60
        worst = 0.0
        for n in range(2, 11):
            exact = float(mpmath.log(mpmath.mpf(2) ** (n * n) / mpmath.mpf(n) ** n))
            got, _ = bounds.transfer_factor(n)
            worst = max(worst, abs(got - exact) / abs(exact))
            base = float(mpmath.log(mpmath.factorial(n) / mpmath.mpf(2) ** (n * n)))
            worst = max(worst, abs(bounds.uniform_baseline(n) - base) / abs(base))
        bat.record("log-space vs arbitrary precision (n<=10)", worst <= 1e-12,
                   f"worst rel err {_fmt(worst)}")
    except ImportError:
        bat.record("log-space vs arbitrary precision", True, "mpmath unavailable, skipped")


def cmd_verify(args) -> int:
    bat = _Battery()
    for suite, battery in (("harmonic", _verify_harmonic), ("twirl", _verify_twirl),
                           ("bounds", _verify_bounds)):
        if args.suite in (suite, "all"):
            battery(bat)
    print(*bat.lines, sep="\n")
    return EXIT_CONTRACT if bat.failed else EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="feasmass",
                     description="Feasible-mass experiments for generic and "
                                 "constraint-enhanced QAOA")
    sub = parser.add_subparsers(dest="command", required=True)

    base = sub.add_parser("baseline", help="print the bound table for an instance")
    base.set_defaults(func=cmd_baseline)

    run = sub.add_parser("run", help="execute one experiment")
    run.add_argument("experiment",
                     choices=["avg", "markov", "l4", "grid", "transfer",
                              "hist", "depth", "twirl"])
    for command in (base, run):   # an instance from a file or a synthetic one of size n
        command.add_argument("--instance", help="instance file path")
        command.add_argument("--n", type=_parse_n, help="synthetic instance size")
    run.add_argument("--grid", type=_parse_grid, default=(10, 10),
                     metavar="GxB", help="grid points per axis (default 10x10)")
    run.add_argument("--range-gamma", type=_parse_range, default=(0.0, math.pi), metavar="LO:HI")
    run.add_argument("--range-beta", type=_parse_range, default=(0.0, math.pi), metavar="LO:HI")
    run.add_argument("--shots", type=_parse_count, default=0)
    run.add_argument("--seed", type=_parse_count, default=1)
    run.add_argument("--depth", type=int, default=1)
    run.add_argument("--normalized-mixer", type=_parse_bool, default=True, metavar="BOOL")
    run.add_argument("--precision", choices=["f64", "f32"], default="f64")
    run.add_argument("--beta", type=_parse_finite, default=0.7,
                     help="single mixer angle (avg/markov)")
    run.add_argument("--t", type=_parse_finite, default=4.0, help="markov threshold")
    run.add_argument("--tie-break", type=_parse_bool, default=True, metavar="BOOL",
                     help="refine the cost lattice to split degenerate levels")
    run.add_argument("--method", choices=["generic", "ce"], help="hist's ansatz (default ce)")
    run.add_argument("--gamma", type=_parse_list, default="0.4",
                     help="comma-separated gammas (hist/twirl)")
    run.add_argument("--beta-list", type=_parse_list, default="0.3",
                     help="comma-separated betas (hist/twirl/l4)")
    run.add_argument("--out", default="results")
    # a token that starts like a number (-1:1, -0.4,0.5, -.5) is a value, not an option
    run._negative_number_matcher = re.compile(r"-\.?\d")
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="run an identity battery")
    ver.add_argument("suite", choices=["harmonic", "twirl", "bounds", "all"])
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        rc = args.func(args)
    except (OSError, InstanceFormatError, ValueError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return rc


if __name__ == "__main__":
    sys.exit(main())
