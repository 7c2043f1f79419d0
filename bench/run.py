"""The emergolab benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout; the program is imported from ``src/``.
The load is a closed loop with concurrency 1: jobs run one at a time, each
CLI job in a fresh process, and BLAS keeps its default thread count.

``--trace 0`` measures for S seconds.  It first times fresh-process
imports, then repeats whole workload passes while the next one is due to
end inside the window.  It reports the median pass wall time (``wall_s``),
the median import time over every fresh process of the run (``setup_s``)
and the largest peak RSS of any one process (``peak_rss_mb``, from
``os.wait4``).  ``--trace 1`` runs two untraced and two traced passes,
reports the per-layer metrics of the traced passes (medians of the two),
the tracing overhead (traced minus untraced pass wall time), and fails when
the exact counts of the two traced passes differ.

Every job goes through a correctness gate (see ``workloads.py``); the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (jobs) and ``metrics``.  ``--smoke`` runs all three workloads at
tiny sizes, traced and untraced, and exits 0 only if all of them pass.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-quadrature", "cli-montecarlo", "lib-sweep")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 2
JOB_TIMEOUT_S = 150


class Failure(Exception):
    """The benchmark cannot run here; no result is printed."""


class Pass:
    """Measurements of one workload pass."""

    def __init__(self):
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.stat_misses = 0
        self.problems: list[str] = []
        self.rss_mb: list[float] = []
        self.import_s: list[float] = []
        self.cpu_s = 0.0
        self.csv_bytes = 0
        self.oracle: list[float] = []
        self.spans: list = []


def spawn(argv, workdir: Path, name: str):
    """Run a child to completion; returns (status, wall, peak RSS MB, cpu s)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(workdir / f"{name}.stdout", "wb") as out, \
            open(workdir / f"{name}.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, stdout=out,
                                stderr=err, env=env, cwd=workdir)
        deadline = t0 + JOB_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            usage.ru_utime + usage.ru_stime)


def stderr_tail(workdir: Path, name: str) -> str:
    path = workdir / f"{name}.stderr"
    lines = path.read_text(errors="replace").strip().splitlines()
    return " | ".join(lines[-3:])


def import_sample(module: str, workdir: Path, pass_: Pass, name: str):
    side = workdir / f"{name}.json"
    status, _, rss, _ = spawn([str(BENCH / "child.py"), str(side), "0", module],
                              workdir, name)
    if status != 0 or not side.is_file():
        raise Failure(f"cannot import {module} from {SRC}: "
                      f"{stderr_tail(workdir, name)}")
    pass_.rss_mb.append(rss)
    pass_.import_s.append(json.loads(side.read_text())["import_s"])


def check_program(workdir: Path):
    """Untimed warm-up import; also proves the checkout's own src is used."""
    if not (SRC / "emergolab" / "__init__.py").is_file():
        raise Failure(f"no emergolab package under {SRC}")
    probe = ("import emergolab, pathlib, sys; "
             "sys.exit(0 if pathlib.Path(emergolab.__file__).resolve()"
             f".is_relative_to(pathlib.Path({str(SRC)!r}).resolve()) else 4)")
    status, *_ = spawn(["-c", probe], workdir, "warmup")
    if status != 0:
        raise Failure(f"emergolab does not import from {SRC}: "
                      f"{stderr_tail(workdir, 'warmup')}")


def run_cli_pass(jobs, workdir: Path, trace: bool) -> Pass:
    p = Pass()
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        name = f"{i}-{job.sub}"
        out = workdir / job.sub
        cfg = workdir / f"{job.sub}.ini"
        if job.config is not None:
            cfg.write_text(job.config)
        side = workdir / f"{name}.json"
        status, _, rss, cpu = spawn(
            [str(BENCH / "child.py"), str(side), "1" if trace else "0",
             "emergolab.cli"] + job.argv(cfg, out), workdir, name)
        p.attempted += 1
        p.rss_mb.append(rss)
        p.cpu_s += cpu
        try:
            problems, misses = job.gate(status, out, p.oracle)
            record = json.loads(side.read_text())
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems, misses, record = [f"unreadable output: {exc!r}"], 0, {}
        if "import_s" in record:
            p.import_s.append(record["import_s"])
        p.spans += record.get("spans", [])
        p.stat_misses += misses
        if problems:
            p.failed += 1
            p.problems.append(f"{job.sub}: {'; '.join(problems)} "
                              f"[{stderr_tail(workdir, name)}]")
    p.wall = time.perf_counter() - t0
    p.csv_bytes = sum(f.stat().st_size for f in workdir.rglob("*.csv"))
    return p


def run_sweep_pass(params: dict, workdir: Path, trace: bool) -> Pass:
    p = Pass()
    param_file = workdir / "sweep-params.json"
    param_file.write_text(json.dumps(params))
    result = workdir / "sweep-result.json"
    status, p.wall, rss, cpu = spawn(
        [str(BENCH / "sweep.py"), str(param_file), str(result),
         "1" if trace else "0"], workdir, "sweep")
    p.rss_mb.append(rss)
    p.cpu_s = cpu
    try:
        record = json.loads(result.read_text())
    except (OSError, ValueError):
        p.attempted, p.failed = 1, 1
        p.problems.append(f"sweep exited {status} without a result "
                          f"[{stderr_tail(workdir, 'sweep')}]")
        return p
    p.import_s.append(record["import_s"])
    p.oracle.append(record.get("oracle_tv_max", 0.0))
    p.spans = record.get("spans", [])
    p.attempted = len(record["jobs"])
    for name, ok, detail in record["jobs"]:
        if not ok:
            p.failed += 1
            p.problems.append(f"{name}: {detail}")
    if status != 0:
        p.failed += 1
        p.problems.append(f"sweep exit status {status}")
    return p


def make_pass(workload: str, seed: int, smoke: bool):
    """A function running one pass of the workload in a fresh directory."""
    counter = itertools.count()

    def one(workdir: Path, trace: bool) -> Pass:
        passdir = workdir / f"pass{next(counter)}"
        passdir.mkdir()
        try:
            if workload == "lib-sweep":
                return run_sweep_pass(workloads.lib_sweep(seed, smoke),
                                      passdir, trace)
            jobs = (workloads.cli_quadrature if workload == "cli-quadrature"
                    else workloads.cli_montecarlo)(seed, smoke)
            return run_cli_pass(jobs, passdir, trace)
        finally:
            shutil.rmtree(passdir, ignore_errors=True)
    return one


def untraced_run(workload, seed, seconds, workdir, smoke=False):
    start = time.perf_counter()
    module = "emergolab" if workload == "lib-sweep" else "emergolab.cli"
    setup = Pass()
    for i in range(SETUP_SAMPLES):
        import_sample(module, workdir, setup, f"setup{i}")
    one = make_pass(workload, seed, smoke)
    passes = [one(workdir, False)]
    while True:
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() + typical > start + seconds:
            break
        passes.append(one(workdir, False))
    imports = setup.import_s + [s for p in passes for s in p.import_s]
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": statistics.median(imports),
        "peak_rss_mb": max(setup.rss_mb + [r for p in passes for r in p.rss_mb]),
    }
    return passes, metrics


def traced_run(workload, seed, workdir, smoke=False):
    one = make_pass(workload, seed, smoke)
    # plain, traced, traced, plain: a drift in machine speed cancels out of
    # the overhead estimate
    plain = [one(workdir, False)]
    traced = [one(workdir, True), one(workdir, True)]
    plain.append(one(workdir, False))
    per_pass = []
    for p in traced:
        m = tracer.layer_metrics(p.spans)
        m["cli.import_s"] = (statistics.median(p.import_s or [0.0]), "s")
        m["cli.cpu_s"] = (p.cpu_s, "s")
        m["cli.csv_bytes"] = (p.csv_bytes, "bytes")
        m["kernel.oracle_tv_max"] = (max(p.oracle, default=0.0), "prob")
        per_pass.append(m)
    problems = [f"exact count {name} differs between traced passes: "
                f"{per_pass[0][name][0]} vs {per_pass[1][name][0]}"
                for name in tracer.EXACT_COUNTS + ("cli.csv_bytes",)
                if per_pass[0][name][0] != per_pass[1][name][0]]
    metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced)
        - statistics.median(p.wall for p in plain), "s")
    return plain + traced, metrics, problems


def report(workload, passes, metrics, extra_problems=()):
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    misses = sum(p.stat_misses for p in passes)
    problems = [q for p in passes for q in p.problems] + list(extra_problems)
    print(f"# workload {workload}: {len(passes)} passes, "
          f"ops_failed = {failed}/{attempted} jobs, "
          f"statistical check lines missed at 3 sigma / 95% = {misses} "
          f"(all held at the 1e-7 family level)")
    print("# pass wall times (s): " + " ".join(f"{p.wall:.3f}" for p in passes))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name:48s} {value!r:>24} {unit}")
    for q in problems:
        print(f"# FAILED {q}", file=sys.stderr)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return result["correct"]


def run(workload, seed, seconds, trace, smoke=False) -> bool:
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        check_program(workdir)
        if trace:
            passes, metrics, problems = traced_run(workload, seed, workdir,
                                                   smoke)
            return report(workload, passes, metrics, problems)
        passes, e2e = untraced_run(workload, seed, seconds, workdir, smoke)
        return report(workload, passes,
                      {k: (v, E2E_UNITS[k]) for k, v in e2e.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny run of every workload, traced and untraced")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    try:
        if not args.smoke:
            run(args.workload, args.seed, args.seconds, args.trace == 1)
            return 0
        # the traced run also makes untraced passes; the untraced loop
        # is the same for every workload, so one workload covers it
        ok = [run(w, args.seed, 1.0, True, smoke=True) for w in WORKLOADS]
        ok.append(run("lib-sweep", args.seed, 1.0, False, smoke=True))
    except Failure as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
