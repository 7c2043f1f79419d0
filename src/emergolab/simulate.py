"""Monte Carlo engine for the Euler-Maruyama recursion.

Path ensembles, first return times to intervals, and the exponential return
moment E_x[beta^sigma_D].  Randomness comes from numpy's SeedSequence
spawning, so the streams of path chunks are independent and bit-reproducible
regardless of scheduling.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from .drifts import Chain, DriftSpec

if TYPE_CHECKING:  # only a measure start needs the quadrature layer
    from .kernel import GridMeasure

Initial = Union[float, "GridMeasure"]
PATH_CHUNK = 1024


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


def _initial_states(x0: Initial, n: int, rng) -> np.ndarray:
    if isinstance(x0, numbers.Real):
        return np.full(n, float(x0))
    return x0.sample(n, rng)  # a GridMeasure


def sample_paths(spec: DriftSpec, config: PathConfig, n_paths: int) -> np.ndarray:
    """Ensemble of trajectories, shape (n_paths, n_steps + 1).

    Initial states and noise come from two streams spawned from config.seed;
    each chunk of PATH_CHUNK paths takes its noise, row by row, from its own
    child of the noise stream.  So the first k paths of any ensemble equal a
    k-path ensemble, and a chunk can be regenerated from its stream alone.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    init_ss, noise_ss = np.random.SeedSequence(config.seed).spawn(2)
    paths = np.empty((n_paths, config.n_steps + 1))
    paths[:, 0] = _initial_states(config.x0, n_paths, np.random.default_rng(init_ss))
    for c, ss in enumerate(noise_ss.spawn(-(-n_paths // PATH_CHUNK))):
        rows = paths[c * PATH_CHUNK:(c + 1) * PATH_CHUNK, 1:]
        rows[...] = np.random.default_rng(ss).standard_normal(rows.shape)
    chain = Chain(spec, config.eta, config.eta)
    for k in range(config.n_steps):  # column k + 1 holds step k's noise
        paths[:, k + 1] = chain.step(paths[:, k], paths[:, k + 1])
    return paths


def return_times_ensemble(spec: DriftSpec, eta: float, x0: Initial,
                          D: tuple[float, float], horizon: int, n_rep: int,
                          seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized batch of first return times
    sigma_D = inf{n >= 1 : theta_n in D}, censored at horizon.

    Returns (x0s, sigmas, censored); paths that have returned stop consuming
    randomness, so the draw order is deterministic for a given seed.
    Interval membership is closed on both sides, matching D = {|x| <= radius}.
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
    """Monte Carlo estimate of E[beta^sigma_D] with its normal-theory upper
    95 % bound."""

    mean: float
    ci_high: float
    n_censored: int
    censor_bias_bound: float
    usable: bool


def exp_moment(sigmas: np.ndarray, censored: np.ndarray, beta: float,
               horizon: int) -> ExpMomentEstimate:
    """E[beta^sigma] over the uncensored replicates of a return-time ensemble.

    Censored replicates are excluded from the mean; their possible
    contribution is reported as the explicit bound beta^horizon * censored
    fraction (infinite in practice when any replicate censors at a large
    horizon) rather than imputed.  A beta^sigma beyond the float range makes
    the mean and its bound inf.
    """
    if beta <= 1.0:
        raise ValueError("beta must exceed 1")
    n_rep = sigmas.size
    ok = ~censored
    n_cens = int(censored.sum())
    if n_cens == n_rep:
        return ExpMomentEstimate(math.nan, math.nan, n_cens, math.inf,
                                 usable=False)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = beta ** sigmas[ok].astype(float)
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    if n_cens == 0:
        bias = 0.0
    else:
        log_bias = horizon * math.log(beta) + math.log(n_cens / n_rep)
        bias = math.exp(log_bias) if log_bias < 700 else math.inf
    # an overflowed beta^sigma leaves the spread inf - inf = nan
    ci_high = math.inf if math.isinf(mean) else mean + 1.96 * se
    return ExpMomentEstimate(mean, ci_high, n_cens, bias, usable=True)
