"""coughscreen benchmark: one seeded workload, timed or traced, with its outputs checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <ingest|lr_nested|gbdt_grid> --seed <n> \
        --seconds <s> --trace <0|1>

``--trace 0`` sets the workload up several times, each in a fresh process
(``setup_s`` is the median), then times closed-loop calls for ``--seconds`` in
another fresh process (``run_s`` is the median call, ``peak_rss_mb`` that
process's peak RSS). ``--trace 1`` runs the traced rounds of ``workloads.trace``
and reports the per-layer metrics. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units come from BENCHMARK.json. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
DEADLINE_S = 170.0  # the whole run, all child processes included
# One caller in one process: BLAS stays on one thread so that runs are steady.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkError(RuntimeError):
    pass


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(role: str, args, work: Path, deadline: float) -> tuple:
    """Run ``workloads.py`` in a fresh process; returns its (wall, CPU) seconds."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "workloads.py"), role, args.workload,
           str(args.seed), str(args.seconds), str(work)]
    t0, cpu0 = time.perf_counter(), _children_cpu_s()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{role} child exceeded the {DEADLINE_S:.0f} s budget") from exc
    elapsed = time.perf_counter() - t0, _children_cpu_s() - cpu0
    if proc.returncode != 0:
        raise BenchmarkError(f"{role} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return elapsed


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "lr_nested", "gbdt_grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coughscreen" / "__init__.py").is_file():
        print(f"no coughscreen sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            run_child("trace", args, work, deadline)
        else:
            setups = [run_child("setup", args, work, deadline) for _ in range(SETUPS)]
            run_child("timed", args, work, deadline)
        result = json.loads((work / "result.json").read_text())
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for child in work.iterdir():  # keep only result.json and spans.json
            if child.is_dir():
                shutil.rmtree(child)

    attempted = len(result["problems"])
    failed = sum(1 for p in result["problems"] if p)
    for problems in result["problems"]:
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    if args.trace:
        values = result["layers"]
        print(f"{args.workload} seed={args.seed} traced: untraced call "
              f"{result['untraced_cpu_s']:.3f} CPU s, traced call "
              f"{result['traced_cpu_s']:.3f} CPU s; spans in {work / 'spans.json'}")
    else:
        values = {"setup_s": statistics.median(cpu for _, cpu in setups),
                  "run_s": statistics.median(result["cpu_s"]),
                  "peak_rss_mb": result["peak_rss_mb"]}
        name, count = result["throughput"]
        summary = [f"setup_s={values['setup_s']:.4f} s",
                   f"run_s={values['run_s']:.4f} s",
                   f"peak_rss_mb={values['peak_rss_mb']:.2f} MB",
                   f"error_rate={failed / attempted:.4f} ({failed}/{attempted} calls)",
                   f"{name}={count / values['run_s']:.3f} 1/s",
                   f"setup_wall_s={statistics.median(wall for wall, _ in setups):.4f} s",
                   f"run_wall_s={statistics.median(result['wall_s']):.4f} s"]
        summary += [f"cougher_auc[{k}]={v:.3f}" for k, v in sorted(result["auc"].items())]
        print(f"{args.workload} seed={args.seed}: " + "  ".join(summary))
    units = declared_metrics(bool(args.trace))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
