"""Configuration-driven command line front end.

Experiments are described by an INI-style config (``[section]`` headers,
``key = value`` lines) and dispatched by subcommand.  Every run writes a
resolved-config echo, a plain-text report with all computed constants and
pass/fail lines, and CSV artifacts.  Exit status: 0 all checks pass,
1 a check failed, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import drifts, kernel as ke, rates, simulate, splitting
from .errors import (ApplicabilityError, ConfigError, ConvergenceError,
                     GridTooSmallError, MinorizationError)

EXPERIMENTS = ("verify-assumptions", "constants", "invariant", "tv-decay",
               "uniform-sup", "split-sim", "atom-check", "return-times",
               "study")


class _Number(NamedTuple):
    """Parser of a finite int or float in an interval written like
    "(0.0, 1.0)" or "[16, inf)"; with many=True, of a comma-separated list."""

    cast: type
    interval: str
    many: bool = False

    def __call__(self, raw):
        if self.many:
            return [self._replace(many=False)(v) for v in str(raw).split(",")]
        lo, hi = (float(b) for b in self.interval[1:-1].split(","))
        try:
            v = self.cast(raw)
        except ValueError:
            v = math.nan
        if not ((lo < v if self.interval[0] == "(" else lo <= v)
                and (v < hi if self.interval[-1] == ")" else v <= hi)):
            raise ValueError(f"must be {'an int' if self.cast is int else 'a float'}"
                             f" in {self.interval}")
        return v


def _drift_kind(raw: str) -> str:
    if raw.lower() not in ("ou", "bounded"):
        raise ValueError("CLI drifts are 'ou' or 'bounded'")
    return raw.lower()


# Every accepted key, with the parser that types it and checks its range.
# The counts are capped so that no single array of a run outgrows about 1 GB.
_SCHEMA = {
    ("drift", "kind"): _drift_kind,
    ("drift", "kappa"): _Number(float, "(0.0, inf)"),
    ("drift", "a"): _Number(float, "(-inf, inf)"),
    ("drift", "sigma"): _Number(float, "(0.0, inf)"),
    ("drift", "l"): _Number(float, "(0.0, inf)"),
    ("drift", "k1"): _Number(float, "(0.0, inf)"),
    ("drift", "k2"): _Number(float, "[0.0, inf)"),
    ("drift", "c_offset"): _Number(float, "[0.0, inf)"),
    ("grid", "lower"): _Number(float, "(-inf, inf)"),
    ("grid", "upper"): _Number(float, "(-inf, inf)"),
    ("grid", "n_nodes"): _Number(int, "[16, 65537]"),
    ("grid", "invariant_tol"): _Number(float, "(0.0, inf)"),
    ("experiment", "kind"): str,
    ("experiment", "eta"): _Number(float, "(0.0, 1.0)"),
    ("experiment", "eta_list"): _Number(float, "(0.0, 1.0)", many=True),
    ("experiment", "x0"): _Number(float, "(-inf, inf)"),
    ("experiment", "n_steps"): _Number(int, "[1, 10000000]"),
    ("experiment", "n_list"): _Number(int, "[0, inf)", many=True),
    ("experiment", "x_grid_points"): _Number(int, "[2, 1000]"),
    ("experiment", "x_grid_span"): _Number(float, "[0.0, inf)"),
    ("experiment", "c_lower"): _Number(float, "(-inf, inf)"),
    ("experiment", "c_upper"): _Number(float, "(-inf, inf)"),
    ("experiment", "k_list"): _Number(int, "[1, 100]", many=True),
    ("experiment", "n_mc"): _Number(int, "[1, 1000000]"),
    ("experiment", "n_rep"): _Number(int, "[1, 1000000]"),
    ("experiment", "horizon"): _Number(int, "[1, 1000000000]"),
    ("experiment", "beta"): _Number(float, "(1.0, inf)"),
    ("experiment", "seed"): _Number(int, "[0, inf)"),
}


def _typed(section: str, key: str, raw):
    try:
        return _SCHEMA[section, key](raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key} = {raw!r}: {exc}") from None


def load_config(path: str) -> tuple[dict, dict]:
    """Parse and validate a config file into (typed values, raw strings);
    unknown sections or keys and values outside _SCHEMA reject."""
    parser = configparser.ConfigParser()
    raw = {s: {} for s, _ in _SCHEMA}
    try:
        if not parser.read(path):
            raise ConfigError(f"config file {path!r} not found or unreadable")
        for section in parser.sections():
            if section.lower() not in raw:
                raise ConfigError(f"unknown section [{section}]")
            for key, value in parser.items(section):
                if (section.lower(), key) not in _SCHEMA:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                raw[section.lower()][key] = value
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from None
    return {s: {k: _typed(s, k, v) for k, v in d.items()} for s, d in raw.items()}, raw


def build_drift(cfg: dict) -> drifts.DriftSpec:
    d = cfg["drift"]
    kw = {"kappa": d.get("kappa", 1.0), "sigma": d.get("sigma", 1.0)}
    try:
        spec = (drifts.ornstein_uhlenbeck(**kw) if d.get("kind", "ou") == "ou"
                else drifts.bounded_perturbation(a=d.get("a", 0.5), **kw))
        spec = dataclasses.replace(spec, **{attr: d[key] for key, attr in (
            ("l", "L"), ("k1", "K1"), ("k2", "K2"), ("c_offset", "c_offset"))
            if key in d})
    except ValueError as exc:
        raise ConfigError(f"[drift]: {exc}") from None
    return spec


def _required(cfg: dict, key: str):
    if key not in cfg["experiment"]:
        raise ConfigError(f"experiment.{key} is required")
    return cfg["experiment"][key]


def build_grid(cfg: dict, spec, eta) -> ke.Grid:
    g = cfg["grid"]
    n_nodes = g.get("n_nodes", ke.Grid.n_nodes)
    if "lower" not in g and "upper" not in g:
        return ke.default_grid(spec, eta, n_nodes=n_nodes)
    if not g.get("lower", math.inf) < g.get("upper", -math.inf):
        raise ConfigError("grid.lower and grid.upper must be given together, "
                          "with lower < upper")
    return ke.Grid(g["lower"], g["upper"], n_nodes)


def _echo_config(raw: dict, experiment: str, seed: int, out: Path) -> None:
    parser = configparser.ConfigParser()
    resolved = dict(raw, experiment={**raw["experiment"], "kind": experiment,
                                     "seed": str(seed)})
    parser.read_dict({section: dict(sorted(items.items()))
                      for section, items in resolved.items() if items})
    with open(out / "config.resolved.ini", "w") as fh:
        parser.write(fh)


class Report:
    def __init__(self):
        self.lines: list[str] = []
        self.checks: list[tuple[str, bool]] = []

    def add(self, key, value):
        self.lines.append(f"{key}={float(value)!r}" if isinstance(value, float)
                          else f"{key}={value}")

    def check(self, name, ok):
        self.checks.append((name, bool(ok)))

    @property
    def all_ok(self):
        return all(ok for _, ok in self.checks)

    def write(self, out: Path):
        with open(out / "report.txt", "w") as fh:
            for line in self.lines:
                fh.write(line + "\n")
            for name, ok in self.checks:
                fh.write(f"check:{name}={'PASS' if ok else 'FAIL'}\n")


def _add_constants(rep: Report, dc) -> None:
    rep.add("lambda_eta", dc.lambda_eta)
    rep.add("b_eta", dc.b_eta)
    rep.add("beta_eta", dc.beta_eta)
    rep.add("radius", dc.radius)
    rep.add("eta1", dc.eta1)
    rep.add("eta2", dc.eta2)
    rep.add("eta0", dc.eta0)


def run_verify_assumptions(cfg, spec, out, seed, rep):
    eta = cfg["experiment"].get("eta", 0.1)
    radius = abs(drifts.radius_of(spec, eta))
    span = max(10.0 * radius, 10.0)
    probes = np.linspace(-span, span, 4001)
    report = drifts.check_assumptions(spec, probes)
    for line in report.to_text().splitlines():
        rep.lines.append(line)
    rep.check("lipschitz", report.lipschitz_ok)
    rep.check("dissipativity", report.dissipativity_ok)
    rep.check("quadratic_bound", report.quadratic_ok)


def run_constants(cfg, spec, out, seed, rep):
    eta = _required(cfg, "eta")
    dc = drifts.derive_constants(spec, eta)
    _add_constants(rep, dc)
    rep.check("beta_valid", dc.beta_valid)
    if dc.beta_valid:
        span = 10.0 * abs(dc.radius)
        cond = drifts.verify_drift_condition(spec, eta,
                                             np.linspace(-span, span, 10 ** 4))
        rep.add("drift_condition_worst_margin", cond.worst_margin)
        rep.add("drift_condition_worst_x", cond.worst_x)
        rep.check("drift_condition", cond.all_pass)


def run_invariant(cfg, spec, out, seed, rep):
    eta = _required(cfg, "eta")
    grid = build_grid(cfg, spec, eta)
    tol = cfg["grid"].get("invariant_tol", ke.INVARIANT_TOL)
    result = ke.invariant_measure(spec, eta, grid, tol=tol)
    pi = result.measure
    pi.write_csv(out / "invariant_density.csv")
    rep.add("iterations", result.iterations)
    rep.add("mean", pi.mean())
    rep.add("variance", pi.variance())
    rep.add("tail_bound", pi.tail_bound)
    fixed = ke.tv_distance(pi, ke.apply_kernel(spec, eta, pi))
    rep.add("fixed_point_tv", fixed)
    rep.check("fixed_point", fixed <= 10.0 * tol)


def run_tv_decay(cfg, spec, out, seed, rep):
    eta = _required(cfg, "eta")
    grid = build_grid(cfg, spec, eta)
    tol = cfg["grid"].get("invariant_tol", ke.INVARIANT_TOL)
    x0 = cfg["experiment"].get("x0", 0.0)
    N = cfg["experiment"].get("n_steps", 30)
    curve = rates.tv_decay_curve(spec, eta, x0, N, grid=grid, tol=tol)
    curve.write_csv(out / "curve_main.csv", experiment="tv-decay")
    rep.add("eta", eta)
    rep.add("x0", x0)
    try:
        fit = rates.fit_geometric_rate(curve)
        rep.add("delta_hat", fit.delta_hat)
        rep.add("fit_window", f"{fit.fit_window[0]}..{fit.fit_window[1]}")
        rep.add("residual_rms", fit.residual_rms)
    except ValueError:
        rep.add("delta_hat", "undefined (curve at numeric floor)")
    mono = bool(np.all(np.diff(curve.values) <= 10.0 * tol))
    rep.check("tv_monotone", mono)


def run_uniform_sup(cfg, spec, out, seed, rep):
    eta = _required(cfg, "eta")
    grid = build_grid(cfg, spec, eta)
    tol = cfg["grid"].get("invariant_tol", ke.INVARIANT_TOL)
    pts = cfg["experiment"].get("x_grid_points", 201)
    radius = drifts.radius_of(spec, eta)
    default_span = 5.0 * radius if radius > 0 else 10.0 * spec.sigma / math.sqrt(spec.K1)
    span = min(cfg["experiment"].get("x_grid_span", default_span), 0.6 * grid.upper)
    n_list = cfg["experiment"].get("n_list", list(range(1, 11)))
    table = rates.uniform_sup_tv(spec, eta, np.linspace(-span, span, pts),
                                 n_list, grid=grid, tol=tol)
    table.write_csv(out / "uniform_sup.csv")
    rep.add("m", table.m)
    if table.m is not None:
        rep.add("doeblin_delta", ke.doeblin_rate(table.m))
        rep.check("doeblin_envelope", table.envelope_ok)


def _smallset(cfg, spec, eta):
    c_lo = cfg["experiment"].get("c_lower", -1.0)
    c_hi = cfg["experiment"].get("c_upper", 1.0)
    if not c_lo < c_hi:
        raise ConfigError("experiment.c_lower must be < experiment.c_upper")
    smallset = ke.minorization_epsilon(spec, eta, c_lo, c_hi)
    if smallset.epsilon == 0.0:
        raise ConfigError(
            f"small set [c_lower, c_upper] = [{c_lo!r}, {c_hi!r}] is too wide: "
            "its minorization constant underflows to 0; narrow it")
    return smallset


def run_split_sim(cfg, spec, out, seed, rep):
    eta = _required(cfg, "eta")
    grid = build_grid(cfg, spec, eta)
    tol = cfg["grid"].get("invariant_tol", ke.INVARIANT_TOL)
    smallset = _smallset(cfg, spec, eta)
    n_steps = cfg["experiment"].get("n_steps", 20000)
    x0 = cfg["experiment"].get("x0", 0.0)
    eps = splitting.resolve_split_epsilon(spec, eta, smallset)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    blocks = splitting.run_split(spec, eta, smallset, x0, n_steps, rng, eps=eps)
    blocks.write_trace_csv(out / "trace.csv")
    in_c_vals = blocks.in_c.astype(float)
    blocks.write_blocks_csv(out / "blocks.csv", values=in_c_vals)
    rep.add("epsilon_minorization", smallset.epsilon)
    rep.add("epsilon_split", eps)
    rep.add("n_blocks", blocks.n_blocks)
    d_freq = float(blocks.ds[1:].mean())
    rep.add("d_frequency", d_freq)
    se = math.sqrt(eps * (1.0 - eps) / n_steps)
    rep.check("d_frequency_matches_eps", abs(d_freq - eps) <= 4.0 * se)
    if blocks.n_blocks >= 30:
        est = splitting.regenerative_pi_estimate(blocks, values=in_c_vals)
        pi = rates.invariant_cached(spec, eta, grid, tol)
        oracle = pi.prob_interval(smallset.c_lower, smallset.c_upper)
        rep.add("pi_C_regenerative", est.value)
        rep.add("pi_C_regenerative_ci", f"[{est.ci_low!r},{est.ci_high!r}]")
        rep.add("pi_C_quadrature", oracle)
        rep.check("regenerative_matches_quadrature",
                  est.ci_low <= oracle <= est.ci_high)


def run_atom_check(cfg, spec, out, seed, rep):
    eta = _required(cfg, "eta")
    grid = build_grid(cfg, spec, eta)
    smallset = _smallset(cfg, spec, eta)
    checks = splitting.atom_return_check(
        spec, eta, smallset, cfg["experiment"].get("k_list", [1, 2, 3, 5]),
        cfg["experiment"].get("n_mc", 20000), grid, seed=seed)
    with open(out / "atom_check.csv", "w") as fh:
        fh.write("k,empirical,exact,se\n")
        for c in checks:
            fh.write(f"{c.k},{float(c.empirical)!r},{float(c.exact)!r},"
                     f"{float(c.se)!r}\n")
    rep.add("epsilon_split", splitting.resolve_split_epsilon(spec, eta, smallset))
    for c in checks:
        rep.add(f"k{c.k}_empirical", c.empirical)
        rep.add(f"k{c.k}_exact", c.exact)
        rep.check(f"atom_identity_k{c.k}",
                  abs(c.empirical - c.exact) <= 3.0 * max(c.se, 1e-12))


def run_return_times(cfg, spec, out, seed, rep):
    eta = _required(cfg, "eta")
    dc = drifts.derive_constants(spec, eta)
    if not dc.beta_valid:
        raise ConfigError(
            f"lambda(eta)={dc.lambda_eta!r} not in (0,1); "
            f"return-time experiments need eta <= eta0={dc.eta0!r}")
    x0 = cfg["experiment"].get("x0", 0.0)
    n_rep = cfg["experiment"].get("n_rep", 100000)
    horizon = cfg["experiment"].get("horizon", 1000000)
    beta = cfg["experiment"].get("beta", dc.beta_eta)
    D = (-dc.radius, dc.radius)
    x0s, sigmas, censored = simulate.return_times_ensemble(
        spec, eta, x0, D, horizon, n_rep, seed)
    samples = [simulate.ReturnTimeSample(float(a), D[0], D[1], int(s),
                                         bool(c), horizon)
               for a, s, c in zip(x0s, sigmas, censored)]
    simulate.write_return_times_csv(samples, out / "return_times.csv")
    est = simulate._exp_moment(sigmas, censored, beta, horizon)
    bound = drifts.lyapunov(x0) + dc.b_eta * dc.beta_eta
    _add_constants(rep, dc)
    rep.add("beta", beta)
    rep.add("exp_moment_estimate", est.mean)
    rep.add("exp_moment_ci_high", est.ci_high)
    rep.add("censored", est.n_censored)
    rep.add("censor_bias_bound", est.censor_bias_bound)
    rep.add("moment_bound", bound)
    rep.check("exp_moment_below_bound",
              est.usable and est.ci_high <= bound)


def run_study(cfg, spec, out, seed, rep):
    rows = rates.step_size_study(spec, _required(cfg, "eta_list"),
                                 cfg["experiment"].get("x0", 3.0),
                                 cfg["experiment"].get("n_steps", 40),
                                 n_nodes=cfg["grid"].get("n_nodes", ke.Grid.n_nodes),
                                 tol=cfg["grid"].get("invariant_tol", ke.INVARIANT_TOL))
    rates.write_study_csv(rows, out / "study.csv")
    for r in rows:
        r.curve.write_csv(out / f"curve_eta_{r.eta!r}.csv", experiment="study")
        rep.add(f"delta_hat[eta={r.eta!r}]",
                "undefined" if r.delta_hat is None else repr(r.delta_hat))


_RUNNERS = {
    "verify-assumptions": run_verify_assumptions,
    "constants": run_constants,
    "invariant": run_invariant,
    "tv-decay": run_tv_decay,
    "uniform-sup": run_uniform_sup,
    "split-sim": run_split_sim,
    "atom-check": run_atom_check,
    "return-times": run_return_times,
    "study": run_study,
}


def run(experiment: str, config_path: str, out_dir: str, seed=None) -> int:
    """Execute one experiment; returns the process exit status."""
    cfg, raw = load_config(config_path)
    kind = cfg["experiment"].get("kind") or experiment
    if kind != experiment:
        raise ConfigError(f"config declares experiment.kind={kind!r} but the "
                          f"{experiment!r} subcommand was invoked")
    spec = build_drift(cfg)
    resolved_seed = (cfg["experiment"].get("seed", 0) if seed is None
                     else _typed("experiment", "seed", seed))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(raw, experiment, resolved_seed, out)
    rep = Report()
    rep.add("experiment", experiment)
    rep.add("seed", resolved_seed)
    _RUNNERS[experiment](cfg, spec, out, resolved_seed, rep)
    rep.write(out)
    return 0 if rep.all_ok else 1


def emit_plotdata(run_dir: str) -> int:
    """Consolidate per-curve CSVs of a run directory into curves.csv."""
    run_path = Path(run_dir)
    curve_files = sorted(p.name for p in run_path.glob("curve_*.csv"))
    if not curve_files:
        print(f"no curve artifacts found in {run_dir}", file=sys.stderr)
        return 3
    rows = []
    for name in curve_files:
        experiment, eta = "", ""
        with open(run_path / name) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if line.startswith("#"):
                    for tok in line[1:].split():
                        if tok.startswith("experiment="):
                            experiment = tok.split("=", 1)[1]
                        elif tok.startswith("eta="):
                            eta = tok.split("=", 1)[1]
                    continue
                if line.startswith("n,") or not line:
                    continue
                try:
                    n, d_tv, env = line.split(",")
                    rows.append((experiment, eta, int(n), d_tv, env))
                except ValueError:
                    raise ConfigError(
                        f"{run_path / name}, line {lineno}: {line!r} is not "
                        "an n,d_tv,envelope row with an integer n") from None
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    with open(run_path / "curves.csv", "w") as fh:
        fh.write("experiment,eta,n,d_tv,envelope\n")
        for experiment, eta, n, d_tv, env in rows:
            fh.write(f"{experiment},{eta},{n},{d_tv},{env}\n")
    return 0


def _default_out(experiment: str) -> str:
    root = os.environ.get("EMERGOLAB_OUT", "out")
    return str(Path(root) / experiment)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="emergolab",
        description="Euler-Maruyama ergodicity laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", default=None)
    p = sub.add_parser("emit-plotdata")
    p.add_argument("--out", required=True, help="completed run directory")
    args = parser.parse_args(argv)

    try:
        if args.command == "emit-plotdata":
            return emit_plotdata(args.out)
        out_dir = args.out or _default_out(args.command)
        return run(args.command, args.config, out_dir, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GridTooSmallError, ConvergenceError, ApplicabilityError,
            MinorizationError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
