"""The three workloads: seeded inputs and the correctness gate of each job.

Every input the program sees (INI files, CLI ``--seed`` values, library
seeds and starting points) is drawn from the workload seed, so the same
seed gives the same inputs.  Sizes are chosen so that one workload pass
takes a few seconds on a 2-core machine while each job keeps the property
it is there for (see ``WHY``).
"""

from __future__ import annotations

import math
import random
import statistics
from pathlib import Path

import oracle

WHY = {
    "cli-quadrature": "kernel and rates do the work in fresh CLI processes "
                      "that build each operator once and reuse it for "
                      "hundreds of matvecs; simulate and splitting are idle",
    "cli-montecarlo": "splitting, simulate and CSV writing do the work in "
                      "fresh CLI processes; import is near half the wall "
                      "time, so import and setup changes show most here",
    "lib-sweep": "one library process steps through distinct settings, so "
                 "operators are cold on every call: build cost, the "
                 "matrix-free fine grid and cache footprint dominate",
}

ORACLE_TOL = 1e-6   # the acceptance tolerance for OU oracle TVs
# pi(C) comes from the piecewise-linear interpolant, whose error is near
# 1e-6 here; the acceptance suite pins this value to five digits
PROB_TOL = 1e-5
# The program's own statistical check lines are calibrated at 3 sigma or a
# 95% interval, so a correct program misses one of them in a few percent of
# seeds.  A miss counts as a failure only when the reported estimate also
# misses the same comparison at a false-alarm rate near 1e-7.
Z_FAMILY = statistics.NormalDist().inv_cdf(1.0 - 1e-7)     # 5.20
T29_975 = 2.045229642132703      # t quantile at 0.975, 29 df (the CI width)
T29_FAMILY = 6.1700561014489566  # t quantile at 1 - 5e-7, 29 df


def ini(drift: dict, experiment: dict, grid: dict | None = None) -> str:
    parts = []
    for name, items in (("drift", drift), ("grid", grid or {}),
                        ("experiment", experiment)):
        if items:
            parts.append(f"[{name}]")
            parts.extend(f"{k} = {v}" for k, v in items.items())
            parts.append("")
    return "\n".join(parts)


def read_report(path: Path) -> tuple[dict, dict]:
    values, checks = {}, {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        if key.startswith("check:"):
            checks[key[6:]] = value
        else:
            values[key] = value
    return values, checks


def csv_rows(path: Path) -> list[list[str]]:
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    return rows[1:]


class CliJob:
    """One CLI subcommand with its config and its expected outcome."""

    def __init__(self, sub, config=None, seed=None, needs=(), stat=(),
                 extra=None, run_dir=None):
        self.sub = sub
        self.config = config
        self.seed = seed
        self.needs = set(needs)     # check lines that must be present
        self.stat = set(stat)       # statistical check lines, see above
        self.extra = extra          # (out, values, oracle_max) -> problems
        self.run_dir = run_dir      # emit-plotdata works on another job's dir

    def argv(self, cfg_path: Path, out: Path) -> list[str]:
        if self.sub == "emit-plotdata":
            return [self.sub, "--out", str(out.parent / self.run_dir)]
        return [self.sub, "--config", str(cfg_path), "--out", str(out),
                "--seed", str(self.seed)]

    def gate(self, status: int, out: Path, oracle_max: list) -> tuple[list, int]:
        """Problems found in a finished job, and its count of statistical misses."""
        if self.sub == "emit-plotdata":
            bad = [] if status == 0 else [f"exit status {status}"]
            return bad + self.extra(out.parent / self.run_dir, {}, oracle_max), 0
        if status not in (0, 1):
            return [f"exit status {status}"], 0
        report = out / "report.txt"
        if not report.is_file():
            return ["no report.txt"], 0
        values, checks = read_report(report)
        bad = [f"missing check:{c}" for c in sorted(self.needs - set(checks))]
        failing = [name for name, result in checks.items() if result != "PASS"]
        misses = 0
        for name in failing:
            if self._stat_family(name) and self._recheck(name, values, out):
                misses += 1
            else:
                bad.append(f"check:{name}={checks[name]}")
        if status != (1 if failing else 0):
            bad.append(f"exit status {status} disagrees with the check lines")
        if self.extra is not None:
            bad += self.extra(out, values, oracle_max)
        return bad, misses

    def _stat_family(self, name):
        return any(name.startswith(s) for s in self.stat)

    def _recheck(self, name, v, out) -> bool:
        """True when a missed statistical check holds at the family level."""
        if name.startswith("atom_identity_k"):
            k = name[len("atom_identity_k"):]
            for row in csv_rows(out / "atom_check.csv"):
                if row[0] == k:
                    emp, exact, se = map(float, row[1:])
                    return abs(emp - exact) <= Z_FAMILY * max(se, 1e-12)
            return False
        if name == "regenerative_matches_quadrature":
            lo, hi = map(float, v["pi_C_regenerative_ci"].strip("[]").split(","))
            half = (hi - lo) / 2.0 * T29_FAMILY / T29_975
            est = float(v["pi_C_regenerative"])
            return abs(float(v["pi_C_quadrature"]) - est) <= half
        if name == "d_frequency_matches_eps":
            eps = float(v["epsilon_split"])
            n = len(csv_rows(out / "trace.csv")) - 1
            se = math.sqrt(eps * (1.0 - eps) / n)
            return abs(float(v["d_frequency"]) - eps) <= Z_FAMILY * se
        return False


def _invariant_oracle(eta):
    def extra(out, values, oracle_max):
        rows = csv_rows(out / "invariant_density.csv")
        x = [float(r[0]) for r in rows]
        d = [float(r[1]) for r in rows]
        tv = oracle.density_tv(x, d, *oracle.ar1_law(eta))
        oracle_max.append(tv)
        return [] if tv <= ORACLE_TOL else [f"invariant oracle tv={tv!r}"]
    return extra


def _study_outputs(etas, n_steps):
    def extra(out, values, oracle_max):
        rows = csv_rows(out / "study.csv")
        bad = [] if len(rows) == len(etas) and all(r[1] for r in rows) \
            else ["study.csv lacks a fitted rate per eta"]
        for eta in etas:
            if len(csv_rows(out / f"curve_eta_{eta!r}.csv")) != n_steps:
                bad.append(f"curve at eta={eta!r} is not {n_steps} rows")
        return bad
    return extra


def _plotdata_rows(n_rows):
    def extra(run_dir, values, oracle_max):
        rows = csv_rows(run_dir / "curves.csv")
        return [] if len(rows) == n_rows else [f"curves.csv has {len(rows)} rows"]
    return extra


def _split_oracle(eta, c_lo, c_hi, min_blocks):
    def extra(out, values, oracle_max):
        exact = oracle.normal_prob(c_lo, c_hi, *oracle.ar1_law(eta))
        err = abs(float(values["pi_C_quadrature"]) - exact)
        bad = [] if err <= PROB_TOL else [f"pi(C) oracle error {err!r}"]
        if int(values["n_blocks"]) < min_blocks:
            bad.append(f"only {values['n_blocks']} regeneration blocks")
        return bad
    return extra


def _row_count(name, n):
    def extra(out, values, oracle_max):
        rows = len(csv_rows(out / name))
        return [] if rows == n else [f"{name} has {rows} rows, not {n}"]
    return extra


def cli_quadrature(seed: int, smoke: bool = False) -> list[CliJob]:
    rnd = random.Random(seed)
    ou = {"kind": "ou", "kappa": 1.0, "sigma": 1.0}
    bounded = {"kind": "bounded", "kappa": 1.0, "a": 0.5, "sigma": 1.0}
    inv_eta, inv_nodes = (0.3, 257) if smoke else (0.05, 2049)
    etas = [0.5, 0.2] if smoke else [0.5, 0.2, 0.1, 0.05]
    n_steps = 10 if smoke else 40
    study_nodes = 257 if smoke else 2049
    n_list = range(1, 6 if smoke else 21)
    span = round(rnd.uniform(4.0, 6.0), 6)
    x0 = round(rnd.uniform(2.5, 3.5), 6)

    def seed_():
        return rnd.randrange(2 ** 31)
    return [
        CliJob("constants", ini(ou, {"eta": 0.1}), seed_(),
               needs=("beta_valid", "drift_condition")),
        CliJob("verify-assumptions", ini(bounded, {"eta": 0.1}), seed_(),
               needs=("lipschitz", "dissipativity", "quadratic_bound")),
        CliJob("invariant", ini(ou, {"eta": inv_eta}, {"n_nodes": inv_nodes}),
               seed_(), needs=("fixed_point",),
               extra=_invariant_oracle(inv_eta)),
        CliJob("uniform-sup", ini(bounded, {
            "eta": 0.5, "n_list": ",".join(map(str, n_list)),
            "x_grid_points": 11 if smoke else 101, "x_grid_span": span}),
            seed_(), needs=("doeblin_envelope",)),
        CliJob("study", ini(ou, {
            "eta_list": ",".join(map(repr, etas)), "x0": x0,
            "n_steps": n_steps}, {"n_nodes": study_nodes}), seed_(),
            extra=_study_outputs(etas, n_steps)),
        CliJob("emit-plotdata", run_dir="study",
               extra=_plotdata_rows(len(etas) * n_steps)),
    ]


def cli_montecarlo(seed: int, smoke: bool = False) -> list[CliJob]:
    rnd = random.Random(seed)
    ou = {"kind": "ou", "kappa": 1.0, "sigma": 1.0}
    split_steps, min_blocks = (3000, 30) if smoke else (30000, 1000)
    n_mc = 2000 if smoke else 200000
    n_rep, horizon = (2000, 1000) if smoke else (100000, 10000)
    ks = "1,2,3" if smoke else "1,2,3,5,8"
    split_x0 = round(rnd.uniform(-1.0, 1.0), 6)
    return_x0 = round(rnd.uniform(-0.5, 0.5), 6)

    def seed_():
        return rnd.randrange(2 ** 31)
    return [
        CliJob("split-sim", ini(ou, {"eta": 0.5, "x0": split_x0,
                                     "n_steps": split_steps}), seed_(),
               needs=("d_frequency_matches_eps",
                      "regenerative_matches_quadrature"),
               stat=("d_frequency_matches_eps",
                     "regenerative_matches_quadrature"),
               extra=_split_oracle(0.5, -1.0, 1.0, min_blocks)),
        CliJob("atom-check", ini(ou, {"eta": 0.5, "k_list": ks,
                                      "n_mc": n_mc}), seed_(),
               needs=tuple(f"atom_identity_k{k}" for k in ks.split(",")),
               stat=("atom_identity_k",)),
        CliJob("return-times", ini(ou, {"eta": 0.1, "x0": return_x0,
                                        "n_rep": n_rep, "horizon": horizon}),
               seed_(), needs=("exp_moment_below_bound",),
               extra=_row_count("return_times.csv", n_rep)),
    ]


def lib_sweep(seed: int, smoke: bool = False) -> dict:
    rnd = random.Random(seed)
    return {
        "x0": round(rnd.uniform(2.5, 3.5), 6),
        "path_seed": rnd.randrange(2 ** 31),
        "etas": [0.5, 0.2] if smoke else [0.5, 0.3, 0.2, 0.1],
        "nodes": [257, 513] if smoke else [1025, 2049],
        "n_curve": 20,
        "fine_nodes": 8193,
        "fine_eta": 0.2,
        "fine_steps": 2 if smoke else 3,
        "n_paths": 2000 if smoke else 10000,
        "path_steps": 20,
    }
