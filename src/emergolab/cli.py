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
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import drifts, kernel as ke, rates, simulate, splitting
from .errors import (ApplicabilityError, ConfigError, ConvergenceError,
                     GridTooSmallError, MinorizationError)

EXPERIMENTS = ("verify-assumptions", "constants", "invariant", "tv-decay",
               "uniform-sup", "split-sim", "atom-check", "return-times",
               "study")

_KNOWN_KEYS = {
    "drift": {"kind", "kappa", "a", "sigma", "l", "k1", "k2", "c_offset"},
    "grid": {"lower", "upper", "n_nodes", "invariant_tol"},
    "experiment": {"kind", "eta", "eta_list", "x0", "n_steps", "n_list",
                   "x_grid_points", "x_grid_span", "c_lower", "c_upper",
                   "k_list", "n_mc", "n_rep", "horizon", "beta", "seed"},
}


def _parse_float(raw: str, field: str, lo=None, hi=None, open_interval=False):
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"{field}: {raw!r} is not a number") from None
    if open_interval and lo is not None and hi is not None:
        if not (lo < val < hi):
            raise ConfigError(f"{field}={raw} violates the ({lo}, {hi}) constraint")
    else:
        if lo is not None and val < lo:
            raise ConfigError(f"{field}={raw} must be >= {lo}")
        if hi is not None and val > hi:
            raise ConfigError(f"{field}={raw} must be <= {hi}")
    return val


def _parse_int(raw: str, field: str, lo=None):
    try:
        val = int(raw)
    except ValueError:
        raise ConfigError(f"{field}: {raw!r} is not an integer") from None
    if lo is not None and val < lo:
        raise ConfigError(f"{field}={raw} must be >= {lo}")
    return val


def _parse_list(raw: str, field: str, parse, **bounds) -> list:
    """Comma-separated values, each parsed and bounded by parse."""
    return [parse(v, field, **bounds) for v in raw.split(",")]


def load_config(path: str) -> dict:
    """Parse and validate a config file; unknown sections or keys reject."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    cfg = {"drift": {}, "grid": {}, "experiment": {}}
    for section in parser.sections():
        s = section.lower()
        if s not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in parser.items(section):
            if key not in _KNOWN_KEYS[s]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            cfg[s][key] = value
    return cfg


def build_drift(cfg: dict) -> drifts.DriftSpec:
    d = cfg["drift"]
    kind = d.get("kind", "ou").lower()
    sigma = _parse_float(d.get("sigma", "1.0"), "drift.sigma")
    kappa = _parse_float(d.get("kappa", "1.0"), "drift.kappa")
    if kind not in ("ou", "bounded"):
        raise ConfigError(f"drift.kind={kind!r}: CLI drifts are 'ou' or 'bounded'")
    a = _parse_float(d.get("a", "0.5"), "drift.a") if kind == "bounded" else None
    overrides = {}
    for key, attr in (("l", "L"), ("k1", "K1"), ("k2", "K2"),
                      ("c_offset", "c_offset")):
        if key in d:
            overrides[attr] = _parse_float(d[key], f"drift.{key}")
    try:
        if kind == "ou":
            spec = drifts.ornstein_uhlenbeck(kappa=kappa, sigma=sigma)
        else:
            spec = drifts.bounded_perturbation(kappa=kappa, a=a, sigma=sigma)
        if overrides:
            import dataclasses
            spec = dataclasses.replace(spec, **overrides)
    except ValueError as exc:
        raise ConfigError(f"[drift]: {exc}") from None
    return spec


def _resolve_eta(cfg: dict) -> float:
    if "eta" not in cfg["experiment"]:
        raise ConfigError("experiment.eta is required")
    return _parse_float(cfg["experiment"]["eta"], "experiment.eta",
                        0.0, 1.0, open_interval=True)


def build_grid(cfg: dict, spec, eta) -> ke.Grid:
    g = cfg["grid"]
    n_nodes = _parse_int(g.get("n_nodes", "4097"), "grid.n_nodes", lo=16)
    if "lower" in g or "upper" in g:
        if not ("lower" in g and "upper" in g):
            raise ConfigError("grid.lower and grid.upper must be given together")
        lower = _parse_float(g["lower"], "grid.lower")
        upper = _parse_float(g["upper"], "grid.upper")
        if not lower < upper:
            raise ConfigError("grid.lower must be < grid.upper")
        return ke.Grid(lower, upper, n_nodes)
    return ke.default_grid(spec, eta, n_nodes=n_nodes)


def _invariant_tol(cfg: dict) -> float:
    return _parse_float(cfg["grid"].get("invariant_tol", "1e-9"),
                        "grid.invariant_tol", lo=0.0)


def _seed(cfg: dict, cli_seed) -> int:
    if cli_seed is not None:
        return int(cli_seed)
    return _parse_int(cfg["experiment"].get("seed", "0"), "experiment.seed", lo=0)


def _echo_config(cfg: dict, experiment: str, seed: int, out: Path) -> None:
    parser = configparser.ConfigParser()
    resolved = {k: dict(v) for k, v in cfg.items()}
    resolved["experiment"]["kind"] = experiment
    resolved["experiment"]["seed"] = str(seed)
    for section, items in resolved.items():
        if items:
            parser[section] = {k: items[k] for k in sorted(items)}
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
    eta = _parse_float(cfg["experiment"].get("eta", "0.1"), "experiment.eta",
                       0.0, 1.0, open_interval=True)
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
    eta = _resolve_eta(cfg)
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
    eta = _resolve_eta(cfg)
    grid = build_grid(cfg, spec, eta)
    tol = _invariant_tol(cfg)
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
    eta = _resolve_eta(cfg)
    grid = build_grid(cfg, spec, eta)
    tol = _invariant_tol(cfg)
    x0 = _parse_float(cfg["experiment"].get("x0", "0.0"), "experiment.x0")
    N = _parse_int(cfg["experiment"].get("n_steps", "30"), "experiment.n_steps", lo=1)
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
    eta = _resolve_eta(cfg)
    grid = build_grid(cfg, spec, eta)
    tol = _invariant_tol(cfg)
    pts = _parse_int(cfg["experiment"].get("x_grid_points", "201"),
                     "experiment.x_grid_points", lo=2)
    radius = drifts.radius_of(spec, eta)
    default_span = 5.0 * radius if radius > 0 else 10.0 * spec.sigma / math.sqrt(spec.K1)
    span = _parse_float(cfg["experiment"].get("x_grid_span", repr(default_span)),
                        "experiment.x_grid_span", lo=0.0)
    span = min(span, 0.6 * grid.upper)
    n_list = _parse_list(cfg["experiment"].get("n_list", "1,2,3,4,5,6,7,8,9,10"),
                         "experiment.n_list", _parse_int, lo=0)
    table = rates.uniform_sup_tv(spec, eta, np.linspace(-span, span, pts),
                                 n_list, grid=grid, tol=tol)
    table.write_csv(out / "uniform_sup.csv")
    rep.add("m", table.m)
    if table.m is not None:
        rep.add("doeblin_delta", ke.doeblin_rate(table.m))
        rep.check("doeblin_envelope", table.envelope_ok)


def _smallset(cfg, spec, eta):
    c_lo = _parse_float(cfg["experiment"].get("c_lower", "-1.0"),
                        "experiment.c_lower")
    c_hi = _parse_float(cfg["experiment"].get("c_upper", "1.0"),
                        "experiment.c_upper")
    if not c_lo < c_hi:
        raise ConfigError("experiment.c_lower must be < experiment.c_upper")
    smallset = ke.minorization_epsilon(spec, eta, c_lo, c_hi)
    if smallset.epsilon == 0.0:
        raise ConfigError(
            f"small set [c_lower, c_upper] = [{c_lo!r}, {c_hi!r}] is too wide: "
            "its minorization constant underflows to 0; narrow it")
    return smallset


def run_split_sim(cfg, spec, out, seed, rep):
    eta = _resolve_eta(cfg)
    grid = build_grid(cfg, spec, eta)
    tol = _invariant_tol(cfg)
    smallset = _smallset(cfg, spec, eta)
    n_steps = _parse_int(cfg["experiment"].get("n_steps", "20000"),
                         "experiment.n_steps", lo=1)
    x0 = _parse_float(cfg["experiment"].get("x0", "0.0"), "experiment.x0")
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
    eta = _resolve_eta(cfg)
    grid = build_grid(cfg, spec, eta)
    smallset = _smallset(cfg, spec, eta)
    ks = _parse_list(cfg["experiment"].get("k_list", "1,2,3,5"),
                     "experiment.k_list", _parse_int, lo=1)
    n_mc = _parse_int(cfg["experiment"].get("n_mc", "20000"),
                      "experiment.n_mc", lo=1)
    checks = splitting.atom_return_check(spec, eta, smallset, ks, n_mc, grid,
                                         seed=seed)
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
    eta = _resolve_eta(cfg)
    dc = drifts.derive_constants(spec, eta)
    if not dc.beta_valid:
        raise ConfigError(
            f"lambda(eta)={dc.lambda_eta!r} not in (0,1); "
            f"return-time experiments need eta <= eta0={dc.eta0!r}")
    x0 = _parse_float(cfg["experiment"].get("x0", "0.0"), "experiment.x0")
    n_rep = _parse_int(cfg["experiment"].get("n_rep", "100000"),
                       "experiment.n_rep", lo=1)
    horizon = _parse_int(cfg["experiment"].get("horizon", "1000000"),
                         "experiment.horizon", lo=1)
    beta = _parse_float(cfg["experiment"].get("beta", repr(dc.beta_eta)),
                        "experiment.beta", 1.0, math.inf, open_interval=True)
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
    raw = cfg["experiment"].get("eta_list")
    if not raw:
        raise ConfigError("experiment.eta_list is required for study runs")
    eta_list = _parse_list(raw, "experiment.eta_list", _parse_float,
                           lo=0.0, hi=1.0, open_interval=True)
    x0 = _parse_float(cfg["experiment"].get("x0", "3.0"), "experiment.x0")
    N = _parse_int(cfg["experiment"].get("n_steps", "40"),
                   "experiment.n_steps", lo=1)
    tol = _invariant_tol(cfg)
    n_nodes = _parse_int(cfg["grid"].get("n_nodes", "4097"),
                         "grid.n_nodes", lo=16)
    rows = rates.step_size_study(spec, eta_list, x0, N, n_nodes=n_nodes, tol=tol)
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
    cfg = load_config(config_path)
    kind = cfg["experiment"].get("kind")
    if kind and kind != experiment:
        raise ConfigError(
            f"config declares experiment.kind={kind!r} but the "
            f"{experiment!r} subcommand was invoked")
    spec = build_drift(cfg)
    resolved_seed = _seed(cfg, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(cfg, experiment, resolved_seed, out)
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
            for line in fh:
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
                n, d_tv, env = line.split(",")
                rows.append((experiment, eta, int(n), d_tv, env))
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
        p.add_argument("--seed", type=int, default=None)
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
            MinorizationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
