"""feasmass benchmark: run one workload for a fixed time and print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all --seed N --seconds S

Run from the repository root (or anywhere: paths resolve from this file).
Load is a closed loop with one caller: each workload run is a fresh Python
process (``worker.py``) that imports feasmass and runs the workload's CLI
operations in-process through ``feasmass.cli.main``; runs go one after
another until the next would overrun ``--seconds`` (at least one run, two
with ``--trace 1``).  Set-up is also probed in a few processes that only
import feasmass.

With ``--trace 0`` the last stdout line reports the end-to-end metrics (the
median over runs); with ``--trace 1`` it reports the per-layer metrics of the
traced runs, and untraced runs in between give the tracing overhead.  Every
operation's output is checked against its oracle (see workloads.py); a
details file with environment facts goes to
``.benchmark_out/results/<workload>-seed<N>-trace<T>.json``, and the spans
of the first traced run to ``<workload>-seed<N>-spans.jsonl`` beside it.

Exit codes: 0 measured, 1 the benchmark itself failed, 2 no feasmass
sources next to the benchmark.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".benchmark_out"
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(ROOT / "src"))  # workloads.lattice_instance_seed imports feasmass

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
RUN_DEADLINE_S = 170      # a workload run must end well inside 180 s

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to an op failing)."""


# ---------------------------------------------------------------------------
# environment facts

def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(list((ROOT / "src" / "feasmass").glob("*.py"))
                       + list((ROOT / "instances").glob("*"))):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _llc_bytes() -> int | None:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10)
        return int(out.stdout.strip()) or None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def child_env() -> dict:
    """Environment of every worker: BLAS threads capped at nproc, serial grid."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    try:
        blas = min(int(env.get("OPENBLAS_NUM_THREADS", nproc)), nproc)
    except ValueError:
        blas = nproc
    env["OPENBLAS_NUM_THREADS"] = str(max(1, blas))
    env.pop("FEASMASS_THREADS", None)
    return env


def environment(name: str, env: dict) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    llc = _llc_bytes()
    sizes = []
    for label, amps, width in workloads.STATE_SIZES[name]:
        nbytes = amps * width
        sizes.append({"state": label, "amplitudes": amps, "bytes": nbytes,
                      "share_of_llc": nbytes / llc if llc else None,
                      # a bandwidth figure needs an array of at least 4x LLC
                      "bandwidth_ratio_claimed": bool(llc and nbytes >= 4 * llc)})
    return {"git_sha": _git_sha(), "source_digest": source_digest(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "openblas_num_threads": int(env["OPENBLAS_NUM_THREADS"]),
            "feasmass_threads": env.get("FEASMASS_THREADS", "unset (serial default)"),
            "llc_bytes": llc, "state_sizes": sizes}


# ---------------------------------------------------------------------------
# one worker process

def spawn(plan: dict, rep_dir: Path, env: dict, deadline: float) -> dict:
    rep_dir.mkdir(parents=True)
    plan_path, result_path = rep_dir / "plan.json", rep_dir / "result.json"
    plan_path.write_text(json.dumps(plan))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another worker")
    cmd = [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)]
    env["BENCH_SPAWN_T"] = repr(time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    if not Path(result["feasmass_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"worker imported feasmass from {result['feasmass_file']}")
    return result


# ---------------------------------------------------------------------------
# correctness

class DigestStore:
    """Artifact digests per (source digest, argv): a re-run must match."""

    def __init__(self, path: Path, source: str):
        self.path, self.source = path, source
        data = json.loads(path.read_text()) if path.is_file() else {}
        self.ops = data.get("ops", {}) if data.get("source") == source else {}

    def check(self, argv: list, out_dir: Path) -> str | None:
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out_dir.iterdir())} if out_dir.is_dir() else {}
        key = json.dumps(argv)
        seen = self.ops.setdefault(key, digests)
        if seen != digests:
            return "artifacts differ from an earlier run of the same operation"
        return None

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"source": self.source, "ops": self.ops}))
        tmp.replace(self.path)


def judge(op: workloads.Op, record: dict, out_dir: Path, store: DigestStore) -> tuple:
    """(status, detail): status is 'ok', 'defect' (a recorded breach) or 'failed'."""
    if record["error"] is not None:
        return "failed", record["error"].strip().splitlines()[-1]
    if op.expect_rc is not None and record["rc"] != op.expect_rc:
        said = (record["stderr"].strip().splitlines() or [""])[-1]
        return "failed", f"exit {record['rc']}, expected {op.expect_rc}: {said}"
    outcome = workloads.Outcome(rc=record["rc"], stdout=record["stdout"], out_dir=out_dir)
    try:
        breach = op.check(outcome)
    except workloads.OracleMiss as exc:
        return "failed", str(exc)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return "failed", f"unreadable output: {exc!r}"
    problem = store.check(list(op.argv), out_dir)
    if problem:
        return "failed", problem
    return ("defect", "recorded contract breach") if breach else ("ok", "")


# ---------------------------------------------------------------------------
# one workload

def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Measure one workload, write its details file and return the details
    (the result line is ``details["result"]``)."""
    begin = time.monotonic()
    deadline = begin + RUN_DEADLINE_S
    env = child_env()
    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    store = DigestStore(OUT / "digests.json", source_digest())
    plan_ops = workloads.ops(name, seed)

    setups = [spawn({"ops": [], "trace": False}, work / f"probe{i}", env, deadline)["setup_s"]
              for i in range(SETUP_PROBES)]
    reps = []
    while True:
        k = len(reps)
        traced = trace and k % 2 == 0
        rep_dir = work / f"rep{k}"
        argvs = []
        for i, op in enumerate(plan_ops):
            extra = ["--out", str(rep_dir / f"op{i}")] if op.argv[0] == "run" else []
            argvs.append(list(op.argv) + extra)
        t0 = time.monotonic()
        res = spawn({"ops": argvs, "trace": traced}, rep_dir, env, deadline)
        res["traced"], res["span_s"] = traced, time.monotonic() - t0
        res["verdicts"] = [judge(op, rec, rep_dir / f"op{i}", store)
                           for i, (op, rec) in enumerate(zip(plan_ops, res["ops"]))]
        reps.append(res)
        setups.append(res["setup_s"])
        typical = statistics.median(r["span_s"] for r in reps)
        enough = len(reps) >= (2 if trace else 1)
        if enough and time.monotonic() - begin + typical > seconds:
            break
    store.save()

    verdicts = [v for r in reps for v in r["verdicts"]]
    attempted = len(verdicts)
    failed = sum(status == "failed" for status, _ in verdicts)
    defects = sum(status == "defect" for status, _ in verdicts)
    plain = [r for r in reps if not r["traced"]]
    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        missing = sorted({s for r in traced_reps for s in workloads.PREDICTED_SPANS[name]
                          if s not in r["self_s_by_span"]})
        if missing:
            raise BenchError(f"{name}: predicted spans never fired: {', '.join(missing)}")
        values = {k: statistics.median(r["per_layer"][k] for r in traced_reps)
                  for k in traced_reps[0]["per_layer"]}
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced_reps)
                                      - statistics.median(r["wall_s"] for r in plain))
        values["failed_ops"] = (failed + defects) / attempted
        units = spans.PER_LAYER_UNITS
    else:
        values = {"wall_s": statistics.median(r["wall_s"] for r in plain),
                  "cpu_s": statistics.median(r["cpu_s"] for r in plain),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain)}
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(name, env),
        "known_defects": workloads.KNOWN_DEFECTS,
        "failed_ops": (failed + defects) / attempted,
        "setup_s_samples": setups,
        "runs": [{"traced": r["traced"], "setup_s": r["setup_s"], "wall_s": r["wall_s"],
                  "cpu_s": r["cpu_s"], "peak_rss_mib": r["peak_rss_mib"],
                  "ops": [{"argv": rec["argv"], "rc": rec["rc"], "wall_s": rec["wall_s"],
                           "status": st, "detail": det}
                          for rec, (st, det) in zip(r["ops"], r["verdicts"])],
                  "self_s_by_span": r.get("self_s_by_span")} for r in reps],
        "result": line,
    }
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(details, indent=1))
    if trace:
        shutil.copy(work / "rep0" / "spans.jsonl", results / f"{name}-seed{seed}-spans.jsonl")
    shutil.rmtree(work, ignore_errors=True)
    return details


def _report(details: dict) -> None:
    line = details["result"]
    for key, m in line["metrics"].items():
        print(f"{key:<45s} {m['value']:.6g} {m['unit']}")
    for run in details["runs"]:
        for op in run["ops"]:
            if op["status"] != "ok":
                print(f"{op['status']:<7s} {' '.join(op['argv'][:4])} ...: {op['detail']}")
    if details["trace"]:
        by_span = details["runs"][0]["self_s_by_span"]
        total = sum(by_span.values())
        top = sorted(by_span.items(), key=lambda kv: -kv[1])[:6]
        print("self time: " + ", ".join(f"{k} {v / total:.0%}" for k, v in top))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["smoke", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all" and args.trace:
        parser.error("--workload all prints the end-to-end table; use --trace 0")
    if not (ROOT / "src" / "feasmass" / "cli.py").is_file() or not (ROOT / "instances").is_dir():
        sys.stderr.write(f"error: no feasmass sources under {ROOT}\n")
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        rows = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if args.workload == "all":
        units = dict(END_TO_END_UNITS, failed_ops="share")
        print(f"{'workload':<12s}" + "".join(f"{f'{k} ({u})':>20s}" for k, u in units.items())
              + f"{'failed/attempted':>18s}")
        for d in rows:
            vals = {k: v["value"] for k, v in d["result"]["metrics"].items()}
            vals["failed_ops"] = d["failed_ops"]
            print(f"{d['workload']:<12s}" + "".join(f"{vals[k]:>20.4f}" for k in units)
                  + f"{d['result']['failed']:>11d}/{d['result']['attempted']:<6d}")
        return 0
    _report(rows[0])
    print(json.dumps(rows[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
