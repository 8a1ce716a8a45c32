"""One workload run in a fresh process: import feasmass, run the planned CLI
operations in-process through ``feasmass.cli.main``, and write what happened.

Usage: python3 benchmark/worker.py PLAN.json RESULT.json
The plan holds the operations' argv lists (each ``run`` with its own
``--out`` directory) and whether to trace.  ``run.py`` writes the plan, sets BENCH_SPAWN_T to its
``time.monotonic()`` just before starting this process, and reads the result.
A plan with no operations measures set-up only.
"""
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from feasmass import cli
    setup_s = time.monotonic() - float(os.environ["BENCH_SPAWN_T"])
    plan_path, result_path = sys.argv[1:3]
    plan = json.loads(Path(plan_path).read_text())
    tracer = None
    if plan["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    records = []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for argv in plan["ops"]:
        out, err = io.StringIO(), io.StringIO()
        error = None
        ts = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # an op that raises is a failed op, not a failed run
            rc, error = None, traceback.format_exc()
        records.append({"argv": argv, "rc": rc, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "error": error,
                        "wall_s": time.perf_counter() - ts})
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "ops": records, "feasmass_file": cli.__file__}
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        result["self_s_by_span"] = {k: v[1] for k, v in tracer.per_span().items()}
        tracer.write(Path(result_path).with_name("spans.jsonl"))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
