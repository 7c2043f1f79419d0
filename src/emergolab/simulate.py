"""Monte Carlo engine for the Euler-Maruyama recursion.

Path ensembles, first return times to intervals, and the exponential return
moment E_x[beta^sigma_D].  Randomness comes from numpy's SeedSequence
spawning, so per-path streams are independent and bit-reproducible
regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .drifts import DriftSpec
from .kernel import Chain, GridMeasure

Initial = Union[float, GridMeasure]


@dataclass(frozen=True)
class PathConfig:
    eta: float
    n_steps: int
    seed: int
    x0: Initial = 0.0

    def __post_init__(self):
        if not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta={self.eta!r} outside (0, 1)")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


def em_step(spec: DriftSpec, eta: float, x, noise):
    """One Euler-Maruyama update x + eta*g(x) + sqrt(eta)*sigma*noise."""
    out = Chain(spec, eta, eta).step(np.asarray(x, dtype=float),
                                     np.asarray(noise, dtype=float))
    return out if out.ndim else float(out)


def _initial_states(x0: Initial, n: int, rng) -> np.ndarray:
    if isinstance(x0, GridMeasure):
        return x0.sample(n, rng)
    return np.full(n, float(x0))


def sample_paths(spec: DriftSpec, config: PathConfig, n_paths: int) -> np.ndarray:
    """Ensemble of trajectories, shape (n_paths, n_steps + 1).

    Path i uses its own generator spawned from config.seed, so any subset of
    paths can be regenerated independently and the ensemble is identical no
    matter how replicates are scheduled.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(n_paths + 1)
    init_rng = np.random.default_rng(children[n_paths])
    noise = np.empty((n_paths, config.n_steps))
    for i in range(n_paths):
        noise[i] = np.random.default_rng(children[i]).standard_normal(config.n_steps)
    paths = np.empty((n_paths, config.n_steps + 1))
    paths[:, 0] = _initial_states(config.x0, n_paths, init_rng)
    x = paths[:, 0].copy()
    for k in range(config.n_steps):
        x = em_step(spec, config.eta, x, noise[:, k])
        paths[:, k + 1] = x
    return paths


@dataclass(frozen=True)
class ReturnTimeSample:
    x0: float
    d_lower: float
    d_upper: float
    sigma: int
    censored: bool
    horizon: int


def return_time(spec: DriftSpec, eta: float, x0: float, D: tuple[float, float],
                horizon: int, rng) -> ReturnTimeSample:
    """First return time sigma_D = inf{n >= 1 : theta_n in D}, censored at horizon.

    Interval membership is closed on both sides, matching D = {|x| <= radius}.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    sigmas, censored = _first_returns(Chain(spec, eta, eta),
                                      np.array([float(x0)]), D, horizon, rng)
    return ReturnTimeSample(float(x0), D[0], D[1], int(sigmas[0]),
                            bool(censored[0]), horizon)


def return_times_ensemble(spec: DriftSpec, eta: float, x0: Initial,
                          D: tuple[float, float], horizon: int, n_rep: int,
                          seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized batch of return times.

    Returns (x0s, sigmas, censored); paths that have returned stop consuming
    randomness, so the draw order is deterministic for a given seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x0s = _initial_states(x0, n_rep, rng)
    sigmas, censored = _first_returns(Chain(spec, eta, eta), x0s, D, horizon,
                                      rng)
    return x0s, sigmas, censored


def _first_returns(chain: Chain, x0s: np.ndarray, D: tuple[float, float],
                   horizon: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """(sigmas, censored) of chains started at x0s; censored ones read horizon."""
    lo, hi = D
    x = x0s.copy()
    sigmas = np.full(x.size, horizon, dtype=np.int64)
    active = np.ones(x.size, dtype=bool)
    for n in range(1, horizon + 1):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        x[idx] = chain.step(x[idx], rng.standard_normal(idx.size))
        returned = idx[(x[idx] >= lo) & (x[idx] <= hi)]
        sigmas[returned] = n
        active[returned] = False
    return sigmas, active


@dataclass(frozen=True)
class ExpMomentEstimate:
    """Monte Carlo estimate of E[beta^sigma_D] with normal-theory CI."""

    mean: float
    se: float
    ci_low: float
    ci_high: float
    n_rep: int
    n_censored: int
    censor_bias_bound: float
    usable: bool


def exp_beta_sigma(spec: DriftSpec, eta: float, x0: Initial, beta: float,
                   D: tuple[float, float], n_rep: int, horizon: int = 10 ** 6,
                   seed: int = 0) -> ExpMomentEstimate:
    """Estimate E[beta^sigma_D] over n_rep replicates.

    Censored replicates are excluded from the mean; their possible
    contribution is reported as the explicit bound beta^horizon * censored
    fraction (infinite in practice when any replicate censors at a large
    horizon) rather than imputed.
    """
    if beta <= 1.0:
        raise ValueError("beta must exceed 1")
    _, sigmas, censored = return_times_ensemble(
        spec, eta, x0, D, horizon, n_rep, seed)
    return _exp_moment(sigmas, censored, beta, horizon)


def _exp_moment(sigmas: np.ndarray, censored: np.ndarray, beta: float,
                horizon: int) -> ExpMomentEstimate:
    """E[beta^sigma] over the uncensored replicates of a return-time ensemble."""
    n_rep = sigmas.size
    ok = ~censored
    n_cens = int(censored.sum())
    if n_cens == n_rep:
        return ExpMomentEstimate(math.nan, math.nan, math.nan, math.nan,
                                 n_rep, n_cens, math.inf, usable=False)
    vals = beta ** sigmas[ok].astype(float)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    if n_cens == 0:
        bias = 0.0
    else:
        log_bias = horizon * math.log(beta) + math.log(n_cens / n_rep)
        bias = math.exp(log_bias) if log_bias < 700 else math.inf
    return ExpMomentEstimate(mean, se, mean - 1.96 * se, mean + 1.96 * se,
                             n_rep, n_cens, bias, usable=True)


def write_paths_csv(paths: np.ndarray, path) -> None:
    """Serialize a path ensemble as replicate,step,x rows."""
    with open(path, "w") as fh:
        fh.write("replicate,step,x\n")
        for r in range(paths.shape[0]):
            for k in range(paths.shape[1]):
                fh.write(f"{r},{k},{float(paths[r, k])!r}\n")


def write_return_times_csv(samples, path) -> None:
    """Serialize return-time samples as replicate,x0,sigma,censored rows."""
    with open(path, "w") as fh:
        fh.write("replicate,x0,sigma,censored\n")
        for r, s in enumerate(samples):
            fh.write(f"{r},{float(s.x0)!r},{int(s.sigma)},{int(s.censored)}\n")
