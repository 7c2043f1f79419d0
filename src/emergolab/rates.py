"""TV decay curves, fitted geometric rates, and uniform-ergodicity tables,
each read against the invariant measure solved to kernel.INVARIANT_TOL."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import kernel as ke
from .drifts import DriftSpec
from .errors import ApplicabilityError, _distinct
from .kernel import Grid, GridMeasure


def invariant_cached(spec: DriftSpec, eta: float, grid: Grid) -> GridMeasure:
    """The EM chain's invariant measure from the solve cache it shares with
    kernel.invariant_measure; warns about lambda(eta) as that does."""
    ke._warn_lambda(spec, eta)
    return ke._invariant(ke.Chain(spec, eta, eta), grid).measure


@dataclass
class DecayCurve:
    """d_n = d_TV(xi P^n, pi) for n = 1..N; floor is the numeric floor,
    10*INVARIANT_TOL on a computed curve."""

    initial: str
    eta: float
    values: np.ndarray
    tail_uncertainty: float
    floor: float

    def usable(self) -> np.ndarray:
        """Indices n (1-based) with d_n above the numeric floor."""
        return np.flatnonzero(self.values >= self.floor) + 1


def tv_decay_curve(spec: DriftSpec, eta: float, initial: Union[float, GridMeasure],
                   N: int, grid: Optional[Grid] = None) -> DecayCurve:
    """Quadrature decay curve from a point mass or a density.

    A density is stepped from the grid it lives on, and grid (that grid when
    None) must be it; a point's grid is default_grid(spec, eta, x0=initial)
    when None.  The curve is the one-start read of the TV table that
    uniform_sup_tv reads for many starts (_tv_table).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    measure = isinstance(initial, GridMeasure)
    if grid is None:
        grid = initial.grid if measure else ke.default_grid(spec, eta, x0=float(initial))
    elif measure and grid != initial.grid:
        raise ValueError(f"the initial measure lives on {initial.grid!r}, "
                         f"not on grid={grid!r}")
    pi = invariant_cached(spec, eta, grid)
    start = initial if measure else [float(initial)]
    # rows n = 1..N, each (tv, tail) of the one start
    table = np.array(list(_tv_table(ke.Chain(spec, eta, eta), grid, start,
                                    range(1, N + 1), pi)))
    return DecayCurve(initial="measure" if measure else f"point:{float(initial)!r}",
                      eta=eta, values=table[:, 0, 0],
                      tail_uncertainty=float(table[:, 1, 0].max()),
                      floor=10.0 * ke.INVARIANT_TOL)


def _tv_table(chain: ke.Chain, grid: Grid, start, n_list, pi: GridMeasure):
    """Yield (tv, tail) after each n of the ascending n_list (n >= 1), one
    entry per start: the TV distance from pi (kernel._tv) of its law after
    n steps (kernel._laws), and that distance's off-grid bound 0.5*(tail +
    pi.tail_bound).  Each law's mass is checked as a GridMeasure's is.  The
    laws are reduced one piece of rows at a time, about kernel.READ_CHUNK
    entries, so the table holds the coarse laws and one piece, never the
    laws of every start on grid."""
    for pieces, tails in ke._laws(chain, grid, start, n_list, ke.READ_CHUNK):
        mass, tv = ke._tv(pieces, pi.density, grid.weights)
        tail = tails(mass)
        ke._check_mass(mass, tail)
        yield tv, 0.5 * (tail + pi.tail_bound)


@dataclass(frozen=True)
class RateFit:
    delta_hat: float
    fit_window: tuple[int, int]
    residual_rms: float


def fit_geometric_rate(curve: DecayCurve) -> RateFit:
    """Log-linear least squares on the asymptotic tail of a decay curve.

    The pre-asymptotic head is dropped: the window starts at the first index
    where a 5-point sliding line fits log d_n within RMS 0.05.  Points
    at or below the numeric floor are excluded.
    """
    ns = curve.usable()
    if ns.size < 5:
        raise ValueError(
            f"only {ns.size} points above the floor {curve.floor!r}; "
            "increase N or refine the grid")
    logd = np.log(curve.values[ns - 1])
    start = 0
    for h in range(0, ns.size - 4):
        w_n = ns[h:h + 5].astype(float)
        w_l = logd[h:h + 5]
        coef = np.polyfit(w_n, w_l, 1)
        resid = w_l - np.polyval(coef, w_n)
        if math.sqrt(float(np.mean(resid ** 2))) <= 0.05:
            start = h
            break
    fit_n = ns[start:].astype(float)
    fit_l = logd[start:]
    slope, intercept = np.polyfit(fit_n, fit_l, 1)
    resid = fit_l - (slope * fit_n + intercept)
    return RateFit(
        delta_hat=math.exp(-float(slope)),
        fit_window=(int(fit_n[0]), int(fit_n[-1])),
        residual_rms=math.sqrt(float(np.mean(resid ** 2))),
    )


@dataclass(frozen=True)
class SummabilityReport:
    partial_sum: float
    consistent: bool


def summability_check(curve: DecayCurve, delta: float) -> SummabilityReport:
    """Partial sums and ratio test for sum_n delta^n d_n.

    Consistent with finiteness when the tail ratios delta*d_{n+1}/d_n stay
    below 0.95.
    """
    if delta <= 1.0:
        raise ValueError("delta must exceed 1")
    ns = curve.usable()
    d = curve.values[ns - 1]
    log_terms = ns * math.log(delta) + np.log(d)
    partial = math.inf if np.max(log_terms) > 700 else float(np.sum(np.exp(log_terms)))
    ratios = delta * d[1:] / d[:-1]
    consistent = ratios.size > 0 and float(np.max(ratios[ratios.size // 2:])) < 0.95
    return SummabilityReport(partial_sum=partial, consistent=consistent)


@dataclass
class UniformSupReport:
    n_list: list[int]
    sup_tv: np.ndarray
    spread: np.ndarray
    m: Optional[float]
    envelope: Optional[np.ndarray]
    envelope_ok: Optional[bool]
    solve_nodes: int  # nodes of the grid the invariant solve ran on
    tail_uncertainty: float  # largest off-grid bound of a reported d_TV


def uniform_sup_tv(spec: DriftSpec, eta: float, x_grid, n_list,
                   grid: Optional[Grid] = None) -> UniformSupReport:
    """sup over x of d_TV(P^n(x,.), pi) for each n, with the Doeblin envelope.

    When the whole-space minorization applies, propagation runs under the
    uniformly ergodic chain whose one-step mean is the bounded map x + g(x)
    (noise variance eta*sigma^2), against that chain's invariant measure;
    the rigorous bound is then sup_x d_TV <= (1-m)^n and the finite x-grid
    sup is a witness.  On that path a grid of None is sized from the mean
    range [inf, sup] of x + g(x).  Without the minorization the table falls
    back to the plain kernel on grid (default_grid when None) and is
    exploratory (a warning is emitted, m is None).  A repeated n, or an
    empty n_list or x_grid, raises ValueError.
    """
    n_list = sorted(_distinct((int(n) for n in n_list), "n_list"))
    if n_list[0] < 0:
        raise ValueError("n must be >= 0")
    if not np.size(x_grid):
        raise ValueError("x_grid must hold at least one point")
    chain = ke.Chain(spec, eta, 1.0)
    try:
        lo, hi = ke._mean_range(chain)
    except ApplicabilityError:
        warnings.warn(
            "whole-space minorization does not apply; the uniform-sup table "
            "is exploratory and carries no Doeblin envelope", stacklevel=2)
        m = None
        chain = ke.Chain(spec, eta, eta)
        if grid is None:
            grid = ke.default_grid(spec, eta)
    else:
        m = ke._doeblin_mass(chain, lo, hi)
        if grid is None:
            grid = Grid(lo - 12.0 * chain.sd - 1.0, hi + 12.0 * chain.sd + 1.0, 2049)
    solve = ke._invariant(chain, grid)
    reported = [n for n in n_list if n > 0]
    by_n = {0: (1.0, 0.0)}  # point mass against a density
    worst_tail = 0.0
    for n, (d, tail) in zip(reported, _tv_table(chain, grid, x_grid, reported,
                                                solve.measure)):
        by_n[n] = (float(d.max()), float(d.max() - d.min()))
        worst_tail = max(worst_tail, float(tail.max()))
    sup_tv, spread = np.array([by_n[n] for n in n_list]).T
    envelope = None
    env_ok = None
    if m is not None:
        envelope = (1.0 - m) ** np.array(n_list, dtype=float)
        env_ok = bool(np.all(sup_tv <= envelope + 1e-6))
    return UniformSupReport(n_list=n_list, sup_tv=sup_tv, spread=spread,
                            m=m, envelope=envelope, envelope_ok=env_ok,
                            solve_nodes=solve.solve_nodes,
                            tail_uncertainty=worst_tail)


@dataclass(frozen=True)
class StudyRow:
    eta: float
    delta_hat: Optional[float]
    delta_per_unit_time: Optional[float]
    m: Optional[float]
    curve: DecayCurve


def step_size_study(spec: DriftSpec, eta_list, initial, N: int,
                    n_nodes: int = Grid.n_nodes,
                    grid: Optional[Grid] = None) -> list[StudyRow]:
    """Per-step and per-unit-time fitted rates across step sizes, each curve
    read on grid (None: a density initial's grid, else default_grid(spec,
    eta, n_nodes, x0=initial) per eta).  The table juxtaposes delta_hat(eta); no
    equality claim across eta is made.  Rows where the curve floors
    immediately carry delta_hat None, a per-unit-time rate past the float
    range reads inf, and m is the whole-space Doeblin mass (None where it
    does not apply).  An empty eta_list or a repeated eta raises
    ValueError."""
    rows = []
    for eta in _distinct(eta_list, "eta_list"):
        g = grid if grid is not None or isinstance(initial, GridMeasure) \
            else ke.default_grid(spec, eta, n_nodes=n_nodes, x0=float(initial))
        curve = tv_decay_curve(spec, eta, initial, N, grid=g)
        try:
            delta_hat = fit_geometric_rate(curve).delta_hat
        except ValueError:
            delta_hat = per_unit = None
        else:
            try:
                per_unit = delta_hat ** (1.0 / eta)
            except OverflowError:  # a float power raises, not inf
                per_unit = math.inf
        try:
            m = ke.whole_space_minorization(spec, eta)
        except ApplicabilityError:
            m = None
        rows.append(StudyRow(eta=eta, delta_hat=delta_hat,
                             delta_per_unit_time=per_unit, m=m, curve=curve))
    return rows
