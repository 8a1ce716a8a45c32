import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from feasmass import experiments
from feasmass.cli import main
from feasmass.experiments import GridSpec, _bitstrings
from feasmass.instance import enumerate_feasible, load_instance, synthetic_instance

from oracles import bitstring_str

ROOT = Path(__file__).resolve().parent.parent
WI3 = str(ROOT / "instances" / "wi3.txt")
WI4 = str(ROOT / "instances" / "wi4.txt")


def run_cli(args):
    return main(args)


def baseline_value(out):
    line = next(l for l in out.splitlines() if l.startswith("ln baseline"))
    return float(line.split()[-1])


def test_baseline_table(capsys):
    rc = run_cli(["baseline", "--instance", WI3])
    out = capsys.readouterr().out
    assert rc == 0
    assert baseline_value(out) == pytest.approx(math.log(6 / 512), abs=1e-12)
    assert "qubits          9" in out


def test_baseline_synthetic(capsys):
    rc = run_cli(["baseline", "--n", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert baseline_value(out) == pytest.approx(math.log(2 / 16), abs=1e-12)


def test_missing_instance_file(capsys):
    rc = run_cli(["baseline", "--instance", "no/such/file.txt"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "no/such/file.txt" in err


@pytest.mark.parametrize("command", [["run", "avg"], ["baseline"]])
def test_instance_directory_exits_1(command, capsys):
    rc = run_cli(command + ["--instance", str(ROOT / "instances")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "Is a directory" in err


def test_out_is_existing_file_exits_1(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    rc = run_cli(["run", "avg", "--n", "2", "--out", str(taken)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "File exists" in err


def test_bad_grid_is_usage_error(capsys):
    rc = run_cli(["run", "grid", "--n", "2", "--grid", "oops"])
    assert rc == 1


def test_run_avg_contract(tmp_path, capsys):
    rc = run_cli(["run", "avg", "--n", "2", "--beta", "0.7",
                  "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0.125" in out
    files = list(tmp_path.glob("avg_*.jsonl"))
    assert len(files) == 1
    record = json.loads(files[0].read_text())
    assert record["metrics"]["deviation"] <= 1e-10
    assert record["config_hash"] in files[0].name
    assert "wall_clock" not in record


def test_run_grid_reproducible_bytes(tmp_path):
    args = ["run", "grid", "--n", "2", "--grid", "4x4", "--out", str(tmp_path)]
    assert run_cli(args) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run_cli(args) == 0
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second
    csvs = [n for n in first if n.endswith(".csv")]
    assert len(csvs) == 1
    header = first[csvs[0]].decode().splitlines()
    assert header[0].startswith("# config ")
    assert header[1] == "gamma,beta,p_feas"


def test_run_markov(tmp_path, capsys):
    rc = run_cli(["run", "markov", "--n", "2", "--beta", "0.7", "--t", "4",
                  "--out", str(tmp_path)])
    assert rc == 0


def test_run_l4(tmp_path):
    rc = run_cli(["run", "l4", "--n", "2", "--beta-list", "0,0.3926990816987241",
                  "--out", str(tmp_path)])
    assert rc == 0
    csv = next(tmp_path.glob("l4_*.csv")).read_text().splitlines()
    assert csv[1] == "beta,mean_l4,envelope,satisfied"
    assert len(csv) == 4


def test_run_transfer_equality_case(tmp_path, capsys):
    rc = run_cli(["run", "transfer", "--n", "3", "--grid", "1x1",
                  "--range-gamma", "0:0", "--range-beta", "0:0",
                  "--out", str(tmp_path)])
    assert rc == 0


def test_run_transfer_violation_exits_2(tmp_path, capsys):
    # tuned generic angles overtake the transferred manifold run on this
    # instance; the contract breach must surface as exit code 2
    rc = run_cli(["run", "transfer", "--n", "2", "--grid", "10x10",
                  "--out", str(tmp_path)])
    out = capsys.readouterr().out
    record = json.loads(next(tmp_path.glob("transfer_*.jsonl")).read_text())
    if record["metrics"]["satisfied"]:
        assert rc == 0
    else:
        assert rc == 2
        assert "CONTRACT VIOLATION" in out


def _one_over_call_count():
    # one mass per row of a batch: 1 for every child of the first parent,
    # then 1/2, 1/3, ... for each later parent's children
    calls = []
    def mass(state):
        calls.append(None)
        return np.full(state.shape[:-1], 1.0 / len(calls))
    return mass


_real_kernel_rows = experiments.mixer_kernel_rows
_only_label_0 = lambda state, shots, seed: (np.array([0]), np.array([1000]))


@pytest.mark.parametrize("argv,name,fake,patched_rc", [
    (["avg"], "mixer_kernel_rows", lambda *a: _real_kernel_rows(*a) * (1 + 1e-6), 2),
    (["avg", "--tie-break", "false"], "mixer_kernel_rows",
     lambda *a: _real_kernel_rows(*a) * (1 + 1e-6), 0),
    (["markov"], "lattice_feasible_masses", lambda *a, **k: np.ones(8), 2),
    (["l4"], "mixer_kernel_rows", lambda *a: _real_kernel_rows(*a) * 10, 2),
    (["hist", "--method", "ce", "--shots", "1000"], "sample_counts", _only_label_0, 2),
    (["hist", "--method", "ce", "--shots", "0"], "sample_counts", _only_label_0, 0),
    (["depth", "--depth", "2", "--grid", "2x2"], "subspace_feasible_mass", None, 2),
    (["twirl"], "twirl_average", lambda state: 0.0, 2),
])
def test_run_exits_2_exactly_on_its_contract_verdict(tmp_path, capsys, monkeypatch,
                                                     argv, name, fake, patched_rc):
    # each run's contract holds at n = 2; one experiments global faked to
    # break it must turn exit 0 into exit 2, except where the contract waives
    # the check (no tie-break for avg, no shots for hist)
    args = ["run", *argv, "--n", "2"]
    assert run_cli(args + ["--out", str(tmp_path / "real")]) == 0
    assert "CONTRACT VIOLATION" not in capsys.readouterr().out
    monkeypatch.setattr(experiments, name, fake or _one_over_call_count())
    assert run_cli(args + ["--out", str(tmp_path / "fake")]) == patched_rc
    assert ("CONTRACT VIOLATION" in capsys.readouterr().out) == (patched_rc == 2)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_bitstrings_match_scalar_oracle(n):
    labels = sorted(enumerate_feasible(n))
    assert _bitstrings(labels, n * n) == [bitstring_str(x, n) for x in labels]


def test_run_hist_ce(tmp_path):
    rc = run_cli(["run", "hist", "--n", "3", "--method", "ce",
                  "--gamma", "0.4", "--beta-list", "0.3",
                  "--shots", "20000", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    csv = next(tmp_path.glob("hist_*.csv")).read_text().splitlines()
    assert csv[1] == "bitstring,count"
    assert len(csv) == 2 + 6  # header lines plus one row per tour
    total = sum(int(line.split(",")[1]) for line in csv[2:])
    assert total <= 20000


def test_run_depth(tmp_path):
    rc = run_cli(["run", "depth", "--n", "2", "--depth", "2", "--grid", "4x4",
                  "--out", str(tmp_path)])
    assert rc == 0
    csv = next(tmp_path.glob("depth_*.csv")).read_text().splitlines()
    assert csv[1] == "p,best_p_feas"


def _depth_record(tmp_path, *flags):
    out = tmp_path / "_".join(flags).replace(":", "-")
    rc = run_cli(["run", "depth", "--n", "2", "--depth", "2", *flags, "--out", str(out)])
    assert rc == 0
    return json.loads(next(out.glob("depth_*.jsonl")).read_text())


def test_run_depth_uses_both_grid_axes(tmp_path):
    record = _depth_record(tmp_path, "--grid", "3x2")
    assert record["params"]["grid"] == [3, 2]
    gammas, betas = [0.0, math.pi / 2, math.pi], [0.0, math.pi]
    for layer in record["metrics"]["per_depth"]:
        assert all(g in gammas and b in betas for g, b in layer["angles"])
    direct = experiments.ce_depth_sweep(synthetic_instance(2, seed=1), 2, GridSpec(3, 2))
    assert record["metrics"] == direct.metrics


def test_run_depth_uses_ranges(tmp_path):
    wide = _depth_record(tmp_path, "--grid", "4x4")
    narrow = _depth_record(tmp_path, "--grid", "4x4", "--range-beta", "0:1")
    assert narrow["metrics"] != wide["metrics"]
    assert all(0.0 <= b <= 1.0 for layer in narrow["metrics"]["per_depth"]
               for _, b in layer["angles"])


@pytest.mark.parametrize("flags,message", [
    (["--grid", "7x7"], "capped at 6 points per angle, got --grid 7x7"),
    (["--grid", "3x7"], "capped at 6 points per angle, got --grid 3x7"),
    ([], "capped at 6 points per angle, got --grid 10x10"),
    (["--grid", "4x4", "--range-gamma", "0.1:1"], "zero angle"),
    (["--grid", "4x4", "--range-beta", "0.1:1"], "zero angle"),
])
def test_run_depth_bad_grid_exits_1(tmp_path, capsys, flags, message):
    out = tmp_path / "new"
    rc = run_cli(["run", "depth", "--n", "2", "--depth", "2", *flags, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_run_depth_zero_exits_1(tmp_path, capsys):
    # the --out directory is made with the first file, so none is left behind
    out = tmp_path / "new"
    rc = run_cli(["run", "depth", "--n", "2", "--depth", "0", "--out", str(out)])
    assert rc == 1
    assert "p_max" in capsys.readouterr().err
    assert not out.exists()


def test_run_twirl(tmp_path):
    for n in (2, 4):
        out = tmp_path / str(n)
        rc = run_cli(["run", "twirl", "--n", str(n), "--gamma", "0.9",
                      "--beta-list", "0.4", "--out", str(out)])
        assert rc == 0
        metrics = json.loads(next(out.glob("twirl_*.jsonl")).read_text())["metrics"]
        assert metrics["mean_error"] <= 1e-12
        assert metrics["best"] >= 1 / n ** n


def test_run_files_independent_of_blas_threads(tmp_path):
    # the BLAS thread count is read at numpy import, so each count needs its
    # own interpreter; every written file must match byte for byte
    commands = [
        ["run", "hist", "--instance", WI4, "--method", "generic", "--precision", "f32"],
        ["run", "hist", "--instance", WI4, "--method", "generic"],
        ["run", "grid", "--instance", WI4, "--grid", "4x4"],
        ["run", "grid", "--instance", WI4, "--grid", "4x4", "--precision", "f32"],
        ["run", "transfer", "--n", "4", "--grid", "4x4"],   # exits 2 by design
        ["run", "twirl", "--n", "6"],
        ["run", "twirl", "--n", "7"],
        ["run", "avg", "--n", "3", "--beta", "0.7"],
        ["run", "markov", "--n", "3", "--beta", "0.7", "--t", "4"],
    ]
    script = ("import json, sys\n"
              "from feasmass.cli import main\n"
              "print(json.dumps([main(args + ['--out', f'{sys.argv[1]}/{i}'])\n"
              "                  for i, args in enumerate(json.loads(sys.argv[2]))]))\n")
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", script, str(out), json.dumps(commands)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        codes = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [2 if args[1] == "transfer" else 0 for args in commands], codes
        written[threads] = {str(p.relative_to(out)): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()}
    assert len(written["1"]) >= len(commands)
    assert written["1"] == written["2"]


def test_x_mixer_bits_independent_of_blas_threads_and_pool_workers():
    # at N = 20 both mixer passes spread their items over the pool, unlike the
    # 2**16 states above; every mix at 1 and 2 BLAS threads (one interpreter
    # each) and 1 and 2 pool workers must give the same bytes.  The threads
    # that exist after numpy's import are OpenBLAS's; once their start-up spin
    # has settled, no mixer or projection matmul may be large enough to wake
    # them (read from Linux /proc, where it exists).  The projections run at
    # N = 16 in f64 (one item) and N = 25 in f32 (column slabs on the pool),
    # one beta alone and three in one group
    script = ("import hashlib, json, os, time, numpy as np\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "import feasmass.fullspace as fs\n"
              "task = f'/proc/{os.getpid()}/task'\n"
              "blas = [t for t in os.listdir(task) if t != str(os.getpid())] "
              "if os.path.isdir(task) else []\n"
              "ticks = lambda: sum(sum(map(int, open(f'{task}/{t}/stat').read()"
              ".rsplit(')', 1)[1].split()[11:13])) for t in blas)\n"
              "rng = np.random.default_rng(20)\n"
              "st = rng.standard_normal(1 << 20) + 1j * rng.standard_normal(1 << 20)\n"
              "framed = {4: st[:1 << 16].copy(), 5: np.tile(st.astype('complex64'), 32)}\n"
              "before = -1\n"
              "while before != (before := ticks()):\n"
              "    time.sleep(0.2)\n"
              "out, used = {}, []\n"
              "for workers in (1, 2):\n"
              "    with ThreadPoolExecutor(workers) as pool:\n"
              "        fs._pool = lambda: used.append(1) or pool\n"
              "        for dtype in ('complex64', 'complex128'):\n"
              "            mixed = fs.apply_x_mixer(st.astype(dtype), 0.83)\n"
              "            out[f'{dtype} {workers}'] = hashlib.sha256(mixed.tobytes()).hexdigest()\n"
              "        for n, x in framed.items():\n"
              "            rows = np.stack([fs.real_mixer_rows(1 << np.arange(n), b, n)\n"
              "                             for b in (0.83, 0.2, 2.9)])\n"
              "            out[f'mass {n} {workers}'] = fs.mixed_feasible_mass(x, rows[:1], n)[0]\n"
              "            out[f'grouped {n} {workers}'] = fs.mixed_feasible_mass(x, rows, n).tolist()\n"
              "print(json.dumps([out, len(used), ticks() - before]))\n")
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out, pooled, blas_ticks = json.loads(proc.stdout)
        assert pooled >= 8   # two passes per mix, four mixes
        assert blas_ticks <= 1, (threads, blas_ticks)   # CPU ticks of OpenBLAS's threads
        digests.update({f"{key} {threads}": val for key, val in out.items()})
    for dtype in ("complex64", "complex128", "mass 4", "mass 5", "grouped 4", "grouped 5"):
        assert len({str(val) for key, val in digests.items() if key.startswith(dtype)}) == 1, digests
    assert all(digests[f"grouped {n} 1 1"][0] == digests[f"mass {n} 1 1"] for n in (4, 5))
    assert digests["complex64 1 1"] != digests["complex128 1 1"]


def test_run_files_independent_of_pool_workers(tmp_path, monkeypatch):
    # at 512-entry chunks every run spreads chunks over the pool; one worker
    # and two must write the same bytes (l4 sums its spectra on the calling
    # thread, off the pool: test_l4_sweep_matches_label_scatter_oracle_bitwise)
    from concurrent.futures import ThreadPoolExecutor
    import feasmass.fullspace as fs
    monkeypatch.setattr(fs, "_CHUNK", 512)
    commands = [
        ["run", "hist", "--instance", WI4, "--method", "generic", "--precision", "f32"],
        ["run", "hist", "--instance", WI4, "--method", "generic", "--precision", "f64"],
        ["run", "hist", "--n", "5", "--method", "ce"],
        ["run", "twirl", "--n", "6"],
    ]
    written = {}
    for workers in (1, 2):
        out, used = tmp_path / str(workers), []
        with ThreadPoolExecutor(workers) as pool:
            monkeypatch.setattr(fs, "_pool", lambda: used.append(1) or pool)
            for i, args in enumerate(commands):
                before = len(used)
                assert run_cli(args + ["--out", str(out / str(i))]) == 0
                assert len(used) > before, args
        written[workers] = {str(p.relative_to(out)): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()}
    assert len(written[1]) >= len(commands)
    assert written[1] == written[2]


def test_run_markov_lattice_cap_names_the_flag(tmp_path, capsys):
    # tie-broken wi4 needs 85,429,687,500 grid points; the hint is a CLI flag
    out = tmp_path / "out"
    assert run_cli(["run", "markov", "--instance", WI4, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: lattice grid needs 85429687500 points (cap 3000000); large-spread instances "
        "are out of exact-averaging reach - consider --tie-break false\n")
    assert not out.exists()


def test_run_hist_ce_beyond_label_width_exits_1(tmp_path, capsys):
    # n=8 labels need 64 bits; the run stops before simulating anything
    rc = run_cli(["run", "hist", "--n", "8", "--method", "ce", "--shots", "10",
                  "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "64 bits" in err
    assert not list(tmp_path.iterdir())


def test_run_hist_int32_overflow_exits_1(tmp_path, capsys):
    # a 5-city cost past the int32 table is refused before the state is built
    inst = tmp_path / "big5.txt"
    rows = [" ".join("0" if i == j else "3000000" for j in range(5)) for i in range(5)]
    inst.write_text("5\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    rc = run_cli(["run", "hist", "--instance", str(inst), "--method", "generic",
                  "--precision", "f32", "--shots", "10", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == ("error: largest cost 2700000160 overflows the int32 cost "
                                       "table at n=5; use smaller distances\n")
    assert not out.exists()


def write_instance(path, dist) -> str:
    path.write_text(f"{len(dist)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in dist))
    return str(path)


def constant_dist(n, d) -> list:
    return [[0 if i == j else d for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n, d, command", [
    (4, 10 ** 18, ["depth", "--depth", "1", "--grid", "2x2"]),
    (4, 10 ** 18, ["hist", "--method", "ce", "--shots", "10"]),
    (7, 10 ** 17, ["hist", "--method", "ce", "--shots", "10"]),
    (7, 10 ** 17, ["twirl"]),
    (8, 10 ** 17, ["twirl"]),   # an int32 table at n = 8 only when the costs fit it
])
def test_run_ce_int64_overflow_exits_1(tmp_path, capsys, n, d, command):
    # the manifold table's bound A*n*(n-1) + n*d passes int64; unguarded, it
    # wrapped silently and the run exited 0
    inst = write_instance(tmp_path / "big.txt", constant_dist(n, d))
    out = tmp_path / "out"
    rc = run_cli(["run", *command, "--instance", inst, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: largest cost {(n * d + 1) * n * (n - 1) + n * d} "
                          f"overflows the int64 cost table at n={n}")
    assert not out.exists()


@pytest.mark.parametrize("command", [["depth", "--depth", "2", "--grid", "2x2"],
                                     ["hist", "--method", "ce", "--shots", "10"]])
def test_run_ce_just_under_int64_bound_runs(tmp_path, capsys, command):
    # 21*d + 6 = A*n*(n-1) + n*d at n = 3: the largest d whose table fits
    d = (2 ** 63 - 1 - 6) // 21
    for dd, want in ((d, 0), (d + 1, 1)):
        inst = write_instance(tmp_path / f"edge{dd}.txt", constant_dist(3, dd))
        rc = run_cli(["run", *command, "--instance", inst, "--out", str(tmp_path / str(dd))])
        assert rc == want
    assert "overflows the int64" in capsys.readouterr().err


def test_instance_entry_past_int64_exits_1(tmp_path, capsys):
    dist = constant_dist(3, 5)
    dist[1][2] = 2 ** 63
    inst = write_instance(tmp_path / "huge.txt", dist)
    rc = run_cli(["run", "avg", "--instance", inst, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {inst}:3: {2 ** 63} does not fit in int64\n"


@pytest.mark.parametrize("command", [["grid", "--grid", "2x2"],
                                     ["depth", "--grid", "2x2"]])
def test_huge_entry_meets_the_overflow_guard(tmp_path, capsys, command):
    # the default weight 3*4e18 + 1 is past int64; computed in int64 it
    # wrapped negative and the run exited with "penalty weight must be positive"
    dist = constant_dist(3, 5)
    dist[0][1] = 4 * 10 ** 18
    inst = write_instance(tmp_path / "big.txt", dist)
    out = tmp_path / "out"
    rc = run_cli(["run", *command, "--instance", inst, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: largest cost ") and "overflows the int64 cost table at n=3" in err
    assert not out.exists()


def test_run_avg_tie_broken_past_int64_exits_1(tmp_path, capsys):
    # every distance 1e15: the table fits (largest cost 9.0e16), but the
    # tie-broken lattice C*2**9 + label does not fit int64; it used to wrap
    # and report "lattice grid needs 8704000000000002534 points"
    inst = write_instance(tmp_path / "wide.txt", constant_dist(3, 10 ** 15))
    top = int(load_instance(inst).cost_vector().max())
    out = tmp_path / "out"
    rc = run_cli(["run", "avg", "--instance", inst, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"error: tie-broken costs reach {((top + 1) << 9) - 1}, past int64 "
                   f"at n=3; use smaller distances\n")
    assert ((top + 1) << 9) - 1 > 2 ** 63
    assert not out.exists()


def test_run_grid_refuses_a_corrupted_projection(tmp_path, capsys, monkeypatch):
    # the argmax is re-run as a full circuit; a projection that doubles every
    # mass is caught there, before any file is written
    true = experiments.grid_search_generic(load_instance(WI3), GridSpec(3, 3)).metrics["p_max"]
    real = experiments.mixed_feasible_mass
    monkeypatch.setattr(experiments, "mixed_feasible_mass",
                        lambda st, b, n: 2 * real(st, b, n))
    out = tmp_path / "out"
    rc = run_cli(["run", "grid", "--instance", WI3, "--grid", "3x3", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: grid argmax (") and f"projected mass {2 * true!r}," in err
    assert float(err.split("circuit ")[1]) == pytest.approx(true, rel=1e-12)
    assert not out.exists()


def test_failed_allocation_exits_1(tmp_path, capsys, monkeypatch):
    # numpy raises MemoryError (as _ArrayMemoryError) when a request such as
    # --shots 100000000000 cannot be allocated; it is bad input like any other
    def refuse(state, shots, seed):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                          "(100000000000,) and data type float64")
    monkeypatch.setattr(experiments, "sample_counts", refuse)
    out = tmp_path / "out"
    rc = run_cli(["run", "hist", "--n", "2", "--method", "ce", "--shots", "1000",
                  "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: Unable to allocate 745. GiB") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["depth", "twirl"])
def test_run_ce_only_experiment_refuses_generic(tmp_path, capsys, experiment):
    # the config hash records --method, so a CE run must not be filed as generic
    out = tmp_path / "out"
    rc = run_cli(["run", experiment, "--n", "2", "--grid", "2x2", "--method", "generic",
                  "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: run {experiment} simulates CE-QAOA only, "
                                       f"got --method generic\n")
    assert not out.exists()


def test_run_hist_files_independent_of_chunk(tmp_path, monkeypatch, capsys):
    # whole runs through the level-table phase (all distances 1: 409 levels
    # for 2**16 labels), the direct phase (wi4) and CE write the same bytes
    # when the cost phase and the sampler take 64 entries at a time.  The X
    # mixer keeps its default blocks: BLAS rounds a 2-row matmul differently.
    import feasmass.fullspace as fs
    mixer, default_chunk = fs.apply_x_mixer, fs._CHUNK

    def mixer_at_default_chunk(state, beta):
        with monkeypatch.context() as m:
            m.setattr(fs, "_CHUNK", default_chunk)
            return mixer(state, beta)

    few = tmp_path / "ones4.txt"
    few.write_text("4\n" + "\n".join(" ".join("0" if i == j else "1" for j in range(4))
                                      for i in range(4)) + "\n")
    hist = ["run", "hist", "--gamma", "0.4,0.9", "--beta-list", "0.3,0.2",
            "--shots", "20000", "--seed", "5"]
    runs = [["--instance", path, "--method", "generic", "--precision", precision]
            for path in (str(few), WI4) for precision in ("f32", "f64")]
    runs.append(["--n", "4", "--method", "ce"])

    def files(label):
        out = tmp_path / label
        for i, extra in enumerate(runs):
            assert run_cli(hist + extra + ["--out", str(out / str(i))]) == 0
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.*"))}

    default = files("default")
    monkeypatch.setattr(fs, "_CHUNK", 64)
    monkeypatch.setattr(fs, "apply_x_mixer", mixer_at_default_chunk)
    assert files("chunk64") == default
    assert len(default) == 2 * len(runs)


def test_run_grid_prints_one_wall_clock(tmp_path, capsys):
    rc = run_cli(["run", "grid", "--n", "2", "--grid", "2x2", "--out", str(tmp_path)])
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("wall clock")]
    assert rc == 0
    assert len(lines) == 1
    assert float(lines[0].split()[2]) >= 0.0


def test_verify_bounds_passes(capsys):
    rc = run_cli(["verify", "bounds"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "WARN" in out          # stirling floor below n=5
    assert "FAIL" not in out


def test_verify_twirl_passes(capsys):
    rc = run_cli(["verify", "twirl"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert "sector eigenvalue convention" in out


def test_verify_all_verdict_counts(capsys):
    rc = run_cli(["verify", "all"])
    verdicts = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                if line.strip()]
    assert rc == 0
    assert verdicts.count("PASS") == 116
    assert verdicts.count("WARN") == 5
    assert "FAIL" not in verdicts


def test_verify_harmonic_passes(capsys):
    rc = run_cli(["verify", "harmonic"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert "strict-envelope excess" in out


def test_precondition_failure_exits_1(capsys):
    # fourth-moment sweeps are capped at n=3; the precondition surfaces as a
    # usage error, not a traceback
    rc = run_cli(["run", "l4", "--n", "4", "--beta-list", "0.3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "capped" in err


def test_mismatched_schedule_exits_1(capsys):
    rc = run_cli(["run", "hist", "--n", "2", "--gamma", "0.1,0.2",
                  "--beta-list", "0.3", "--shots", "10"])
    assert rc == 1


@pytest.mark.parametrize("flag,args", [
    ("beta", ["avg", "--beta", "nan"]),
    ("t", ["markov", "--t", "inf"]),
    ("range-gamma", ["grid", "--grid", "3x3", "--range-gamma", "0:nan"]),
    ("range-beta", ["grid", "--grid", "3x3", "--range-beta", "0:inf"]),
    ("gamma", ["hist", "--method", "generic", "--gamma", "nan", "--shots", "10"]),
    ("beta-list", ["twirl", "--gamma", "0.4,0.9", "--beta-list", "0.3,inf"]),
])
def test_run_non_finite_value_exits_1(tmp_path, capsys, flag, args):
    out = tmp_path / "new"
    rc = run_cli(["run", *args, "--n", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: argument --{flag}: expected a finite number" in err.splitlines()[-1]
    assert not out.exists()


@pytest.mark.parametrize("flag,args", [
    ("shots", ["hist", "--instance", WI4, "--method", "generic", "--shots", "-1"]),
    ("shots", ["hist", "--n", "2", "--shots", "1.5"]),
    ("seed", ["hist", "--instance", WI4, "--method", "generic", "--shots", "10", "--seed", "-1"]),
    ("seed", ["avg", "--n", "2", "--seed", "-3000"]),
    ("seed", ["twirl", "--n", "3", "--seed", "-1"]),
    ("seed", ["avg", "--n", "2", "--seed=x"]),
])
def test_run_negative_count_exits_1_before_any_instance(tmp_path, capsys, monkeypatch, flag, args):
    # shots and seeds are refused while the arguments are parsed, naming the
    # flag, so no instance, table or state is built for them
    import feasmass.cli as cli
    def unreachable(*a, **k):
        raise AssertionError("instance built")
    monkeypatch.setattr(cli, "load_instance", unreachable)
    monkeypatch.setattr(cli, "synthetic_instance", unreachable)
    out = tmp_path / "new"
    assert run_cli(["run", *args, "--out", str(out)]) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"error: argument --{flag}: expected a non-negative integer, got ")
    assert not out.exists()


def test_run_zero_seed_and_shots_still_run(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["run", "hist", "--n", "2", "--seed", "0", "--shots", "0",
                    "--out", str(out)]) == 0
    assert any(out.glob("hist_*.csv"))


@pytest.mark.parametrize("flag,value,args", [
    ("--range-gamma", "-1:1", ["grid", "--grid", "2x2"]),
    ("--range-beta", "-1:1", ["grid", "--grid", "2x2"]),
    ("--gamma", "-0.4,0.5", ["hist", "--beta-list", "0.3,0.2", "--shots", "10"]),
    ("--beta-list", "-.3", ["hist", "--gamma", "0.4", "--shots", "10"]),
])
def test_run_value_starting_with_minus(tmp_path, capsys, flag, value, args):
    # "FLAG VALUE" and "FLAG=VALUE" are the same configuration, byte for byte
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert run_cli(["run", *args, "--n", "2", flag, value, "--out", str(spaced)]) == 0
    assert run_cli(["run", *args, "--n", "2", f"{flag}={value}", "--out", str(joined)]) == 0
    files = sorted(p.name for p in spaced.iterdir())
    assert files == sorted(p.name for p in joined.iterdir())
    assert all((spaced / f).read_bytes() == (joined / f).read_bytes() for f in files)
