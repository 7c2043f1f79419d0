"""Record a baseline: every workload, untraced and traced, plus the machine.

    python3 bench/record_baseline.py [--seeds 1,2,3] [--seconds 40]

Runs ``bench/run.py`` once per (workload, seed) untraced and once per
workload traced, prints every end-to-end and per-layer metric with its
unit, and writes ``bench/baseline.json``: the end-to-end medians over seeds
with their quartile spread (distance between the first and third quartile,
over the median), every run's result line, and the environment the figures
belong to (core count, memory, CPU model, Python, numpy and scipy versions,
BLAS thread count).
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli-quadrature", "cli-montecarlo", "lib-sweep")


def blas_threads():
    """OpenBLAS thread count of the numpy in use, or None if unknown."""
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                return int(fn())
    return None


def environment():
    import numpy
    import scipy
    meminfo = Path("/proc/meminfo")
    mem_kb = None
    if meminfo.is_file():
        for line in meminfo.read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    return {
        "program_commit": commit or None,
        "nproc": os.cpu_count(),
        "mem_total_mb": mem_kb // 1024 if mem_kb else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
    }


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=40)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    out = {"environment": environment(), "seeds": seeds,
           "seconds": args.seconds, "workloads": {}}
    for w in WORKLOADS:
        runs = [bench(w, s, args.seconds, 0) for s in seeds]
        traced = bench(w, seeds[0], args.seconds, 1)
        summary = {}
        for name, spec in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": median, "unit": spec["unit"],
                             "quartile_spread": (q3 - q1) / median}
        out["workloads"][w] = {"end_to_end": summary,
                               "untraced_runs": runs, "traced_run": traced}
        print(f"== {w}: median of {len(runs)} seeds (quartile spread)")
        for name, row in summary.items():
            print(f"{name:48s} {row['median']:>16.6g} {row['unit']:6s} "
                  f"({row['quartile_spread']:.4f})")
        print(f"== {w}: traced run, seed {seeds[0]}")
        for name, row in sorted(traced["metrics"].items()):
            print(f"{name:48s} {row['value']:>16.6g} {row['unit']}")
        sys.stdout.flush()
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
