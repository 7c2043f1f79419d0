"""Deterministic quadrature representation of the one-step Markov kernel.

Densities live on a uniform grid and are integrated by the trapezoid rule.
The one-step law x -> N(x + h*g(x), eta*sigma^2) is owned by :class:`Chain`;
it acts on densities through a row-stochastic quadrature matrix.  Only its
band |y_i - mean(x_j)| <= BAND_SD*sd is built, as dense blocks of 128 rows
(cached for grids up to DENSE_MATRIX_LIMIT nodes, built one at a time beyond
that).  All results carry an additive, conservative bound on the probability
mass that has leaked off the grid, plus a bound on the quadrature mass the
band drops (below 2e-16 per unit mass and step when the spacing is at most
sd).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import drifts
from .drifts import DriftSpec, eval_drift
from .errors import ConvergenceError, GridTooSmallError, ApplicabilityError

Q_TOL = 1e-8
LEAK_TOL = 1e-8
INVARIANT_TOL = 1e-9
MAX_ITERS = 10 ** 5
DENSE_MATRIX_LIMIT = 8192
BAND_SD = 8.5


@dataclass(frozen=True)
class Chain:
    """The one-step Gaussian law x -> N(x + h*g(x), eta*sigma^2).

    h = eta gives the Euler-Maruyama chain; h = 1 gives the chain with the
    bounded mean x + g(x) that the uniform-ergodicity statements use.
    """

    spec: DriftSpec
    eta: float
    h: float

    def __post_init__(self):
        if not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta={self.eta!r} outside (0, 1)")

    @property
    def var(self) -> float:
        return self.eta * self.spec.sigma ** 2

    @property
    def sd(self) -> float:
        # computed apart from var: sqrt(eta)**2 != eta in floating point
        return math.sqrt(self.eta) * self.spec.sigma

    def mean(self, x):
        return x + self.h * eval_drift(self.spec, x)

    def step(self, x, noise):
        """The chain's update driven by standard normal noise."""
        return self.mean(x) + self.sd * noise


@dataclass(frozen=True)
class Grid:
    """Uniform quadrature grid on [lower, upper]."""

    lower: float
    upper: float
    n_nodes: int = 4097

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("need lower < upper")
        if self.n_nodes < 16:
            raise ValueError("need at least 16 nodes")

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.n_nodes - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.n_nodes)

    @property
    def weights(self) -> np.ndarray:
        w = np.full(self.n_nodes, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        return w


def default_grid(spec: DriftSpec, eta: float, n_nodes: int = Grid.n_nodes) -> Grid:
    """Grid sized to cover both the return set and the stationary bulk."""
    radius = drifts.radius_of(spec, eta)
    std_est = spec.sigma / math.sqrt(spec.K1)
    half = max(4.0 * radius, 10.0 * std_est)
    return Grid(-half, half, n_nodes)


@dataclass
class GridMeasure:
    """A probability density tabulated on a grid, with certified tail mass."""

    grid: Grid
    density: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        self.density = np.asarray(self.density, dtype=float)
        if self.density.shape != (self.grid.n_nodes,):
            raise ValueError("density length must match the grid")
        if np.any(self.density < 0):
            raise ValueError("density must be nonnegative")
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be nonnegative")
        total = self.integral()
        if not (1.0 - self.tail_bound - Q_TOL <= total <= 1.0 + Q_TOL):
            raise ValueError(
                f"density integrates to {total!r}, outside "
                f"[1 - {self.tail_bound!r} - {Q_TOL}, 1 + {Q_TOL}]")

    def integral(self) -> float:
        return float(np.trapezoid(self.density, dx=self.grid.spacing))

    def mean(self) -> float:
        return float(np.trapezoid(self.grid.nodes * self.density, dx=self.grid.spacing))

    def variance(self) -> float:
        m = self.mean()
        return float(np.trapezoid((self.grid.nodes - m) ** 2 * self.density,
                              dx=self.grid.spacing))

    def prob_interval(self, a: float, b: float) -> float:
        """Exact integral of the piecewise-linear density over [a, b]."""
        if b < a:
            raise ValueError("need a <= b")
        lo, hi = self.cdf_at([a, b])
        return float(hi - lo)

    def cdf_at(self, points) -> np.ndarray:
        """CDF of the tabulated density at arbitrary points."""
        x, d, h = self.grid.nodes, self.density, self.grid.spacing
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (d[1:] + d[:-1]) * h)])
        pts = np.clip(np.asarray(points, dtype=float), self.grid.lower, self.grid.upper)
        idx = np.minimum(((pts - self.grid.lower) / h).astype(int), self.grid.n_nodes - 2)
        s = pts - x[idx]
        slope = (d[idx + 1] - d[idx]) / h
        return cum[idx] + d[idx] * s + 0.5 * slope * s * s

    def sample(self, n: int, rng) -> np.ndarray:
        """Inverse-CDF draws from the normalized tabulated density."""
        cdf = self.cdf_at(self.grid.nodes)
        cdf = cdf / cdf[-1]
        u = rng.uniform(0.0, 1.0, size=n)
        return np.interp(u, cdf, self.grid.nodes)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"# lower={self.grid.lower!r} upper={self.grid.upper!r} "
                     f"n={self.grid.n_nodes} tail_bound={self.tail_bound!r}\n")
            fh.write("x,density\n")
            for x, d in zip(self.grid.nodes, self.density):
                fh.write(f"{float(x)!r},{float(d)!r}\n")


def _upper_tail(z: float) -> float:
    """Standard normal upper tail P(Z > z) by libm erfc, without the
    cancellation of 1 - Phi(z).  Its relative error is that of rounding
    z/sqrt(2), about z*z*1e-16; it underflows to 0 beyond z = 38.5."""
    return 0.5 * math.erfc(z * math.sqrt(0.5))


def _outside(grid: Grid, means: np.ndarray, sd: float) -> np.ndarray:
    """Mass of N(m, sd^2) beyond [lower, upper] for each m in means, the
    two sides' tails summed (not 1 - inside, which cancels to 0)."""
    return np.array([_upper_tail((grid.upper - m) / sd) + _upper_tail((m - grid.lower) / sd)
                     for m in means.tolist()])


def _normal_pdf(d, var: float = 1.0):
    """N(0, var) density at d, var = 1 giving phi: the package's one normal
    density.  A float ndarray d is overwritten with the result (so a kernel
    block holds one array of its size at a time); a scalar gives a float."""
    if not isinstance(d, np.ndarray):
        return math.exp(d * d / (-2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    np.square(d, out=d)
    d /= -2.0 * var
    np.exp(d, out=d)
    d /= math.sqrt(2.0 * math.pi * var)
    return d


def _start_laws(grid: Grid, means, var: float, chain: Chain | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """The laws N(m, var), m in means, as the columns of an (n_nodes, k)
    array, and each column's tail bound: its exact outside mass, or the
    trapezoid rule's shortfall from 1 where that is larger (coarse grids),
    so that every column validates as a GridMeasure.  When the laws are the
    first steps of chain, one whose outside mass exceeds LEAK_TOL rejects
    the grid, as every later step does (_reject_leak)."""
    means = np.asarray(means, dtype=float)
    columns = _normal_pdf(grid.nodes[:, None] - means[None, :], var)
    deficit = 1.0 - grid.weights @ columns
    outside = _outside(grid, means, math.sqrt(var))
    if chain is not None:
        _reject_leak(chain, grid, outside, means)
    return columns, np.maximum(outside, deficit)


def gaussian_on_grid(grid: Grid, mean: float, variance: float) -> GridMeasure:
    """Normal density sampled on the grid; tail bound is the exact outside
    mass, or the trapezoid deficit where larger (see _start_laws)."""
    columns, tails = _start_laws(grid, [mean], variance)
    return GridMeasure(grid, columns[:, 0], tail_bound=float(tails[0]))


def transition_density(spec: DriftSpec, eta: float, x, y):
    """Kernel density p(x, y): normal in y with mean x + eta*g(x), var eta*sigma^2."""
    chain = Chain(spec, eta, eta)
    return _normal_pdf(np.asarray(y, dtype=float) - chain.mean(x), chain.var)


def _kernel_blocks(chain: Chain, grid: Grid):
    """The banded quadrature matrix K[i, j] = p(x_j, y_i) * w_j, 128 rows at
    a time, as (lo, jlo, block) for the rows lo..lo+127.

    block covers the columns jlo..jlo+c-1: the span of the nodes whose mean
    lies within BAND_SD*sd of one of its rows, so every entry of the band
    |y_i - mean_j| <= BAND_SD*sd is in it.
    """
    nodes, w = grid.nodes, grid.weights
    mean = chain.mean(nodes)
    reach = BAND_SD * chain.sd
    for lo in range(0, grid.n_nodes, 128):
        y = nodes[lo:lo + 128]
        cols = np.flatnonzero((mean >= y[0] - reach) & (mean <= y[-1] + reach))
        jlo, jhi = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 0)
        block = _normal_pdf(y[:, None] - mean[None, jlo:jhi], chain.var)
        block *= w[None, jlo:jhi]
        yield lo, jlo, block


@functools.lru_cache(maxsize=8)
def _kernel_matrix(chain: Chain, grid: Grid) -> tuple:
    """The blocks of the banded quadrature matrix, held for reuse."""
    return tuple(_kernel_blocks(chain, grid))


def _matvec(chain: Chain, grid: Grid, v: np.ndarray) -> np.ndarray:
    """K @ v over the band: cached blocks up to DENSE_MATRIX_LIMIT nodes,
    else the same blocks built one at a time, so K is never held whole."""
    if grid.n_nodes <= DENSE_MATRIX_LIMIT:
        blocks = _kernel_matrix(chain, grid)
    else:
        blocks = _kernel_blocks(chain, grid)
    out = np.empty((grid.n_nodes,) + v.shape[1:])
    for lo, jlo, block in blocks:
        rows, cols = block.shape
        out[lo:lo + rows] = block @ v[jlo:jlo + cols]
    return out


@functools.lru_cache(maxsize=8)
def _off_grid(chain: Chain, grid: Grid) -> np.ndarray:
    """Gaussian mass that one step from each node puts beyond [lower, upper]."""
    out = _outside(grid, chain.mean(grid.nodes), chain.sd)
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def _leak(chain: Chain, grid: Grid, density: np.ndarray) -> tuple:
    """Certified mass that one step from density loses, (off grid, off band),
    per column when density is an (n, k) block.

    Off the grid: the exact Gaussian mass beyond [lower, upper] from each
    node.  Off the band: each column drops at most 2*(h/sd*phi(BAND_SD) +
    Phi(-BAND_SD)) of quadrature mass (trapezoid weights are <= h and the
    density decreases beyond the band), times the density's mass.
    """
    band = 2.0 * (grid.spacing / chain.sd * _normal_pdf(BAND_SD) + _upper_tail(BAND_SD))
    w = grid.weights
    return (w * _off_grid(chain, grid)) @ density, band * (w @ density)


def _reject_leak(chain: Chain, grid: Grid, leak, starts=()) -> None:
    """Raise GridTooSmallError when the off-grid mass of one step (a float,
    or one per column) exceeds LEAK_TOL.  The suggested bounds reach 10 sd
    beyond every node's one-step mean and every mean in starts (the centres
    of first-step laws)."""
    if np.max(leak) > LEAK_TOL:
        mean = np.concatenate([chain.mean(grid.nodes), starts])
        pad = 10.0 * chain.sd
        lo, hi = float(mean.min() - pad), float(mean.max() + pad)
        raise GridTooSmallError(
            f"one-step leakage {float(np.max(leak))!r} exceeds {LEAK_TOL!r}; "
            f"grid should cover [{lo!r}, {hi!r}]",
            suggested_lower=lo, suggested_upper=hi)


def _step(chain: Chain, grid: Grid, density: np.ndarray, tail):
    """One kernel step of a density or an (n, k) block of density columns:
    returns the new density and tail, the tail (a float, or one per column)
    plus each column's certified leakage and band term (see _leak).  A column
    that leaks more than LEAK_TOL rejects the grid (_reject_leak)."""
    leak, band = _leak(chain, grid, density)
    _reject_leak(chain, grid, leak)
    new = _matvec(chain, grid, density)
    return np.maximum(new, 0.0, out=new), tail + leak + band


def apply_kernel(spec: DriftSpec, eta: float, xi: GridMeasure) -> GridMeasure:
    """One adjoint kernel step (xi P)(y) = integral xi(x) p(x, y) dx.  The
    certified off-grid leakage and the mass the band drops are added to the
    tail bound; a grid that leaks more than LEAK_TOL per step is rejected
    with suggested bounds."""
    density, tail = _step(Chain(spec, eta, eta), xi.grid, xi.density, xi.tail_bound)
    return GridMeasure(xi.grid, density, tail_bound=float(tail))


def n_step_from_point(spec: DriftSpec, eta: float, x0: float, n: int,
                      grid: Grid) -> GridMeasure:
    """The n-step distribution P^n(x0, .) on the grid.

    The first step is the exact Gaussian law of one step from x0, sampled on
    the grid; remaining steps go through apply_kernel.  Every step, the
    first included, rejects a grid it leaks off by more than LEAK_TOL.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    chain = Chain(spec, eta, eta)
    columns, tails = _start_laws(grid, [chain.mean(x0)], chain.var, chain)
    out = GridMeasure(grid, columns[:, 0], tail_bound=float(tails[0]))
    for _ in range(n - 1):
        out = apply_kernel(spec, eta, out)
    return out


@dataclass(frozen=True)
class InvariantResult:
    measure: GridMeasure
    iterations: int


def invariant_measure(spec: DriftSpec, eta: float, grid: Grid,
                      tol: float = INVARIANT_TOL, max_iters: int = MAX_ITERS,
                      seed_measure: GridMeasure | None = None) -> InvariantResult:
    """Invariant density by power iteration, to TV increment below tol.

    The iterate is renormalized to unit mass each step; the returned tail
    bound is the one-step leakage of the converged density plus the bound on
    the mass the band drops.  A converged density that leaks more than
    LEAK_TOL rejects the grid.
    """
    lam = drifts.lambda_of(spec, eta)
    if not (0.0 < lam < 1.0):
        warnings.warn(
            f"lambda(eta)={lam!r} outside (0,1); the drift-condition "
            "guarantee does not apply, power iteration may still converge",
            stacklevel=2)
    return _power_iteration(Chain(spec, eta, eta), grid, tol, max_iters,
                            seed_measure)


def _power_iteration(chain: Chain, grid: Grid, tol: float = INVARIANT_TOL,
                     max_iters: int = MAX_ITERS,
                     seed_measure: GridMeasure | None = None) -> InvariantResult:
    if tol <= 0:
        raise ValueError("tol must be positive")
    if seed_measure is None:
        seed_measure = gaussian_on_grid(grid, 0.0, 1.0)
    w = grid.weights
    dens = seed_measure.density / float(np.sum(w * seed_measure.density))
    increment = math.inf
    for it in range(1, max_iters + 1):
        new = np.maximum(_matvec(chain, grid, dens), 0.0)
        new /= float(np.sum(w * new))
        increment = 0.5 * float(np.sum(w * np.abs(new - dens)))
        dens = new
        if increment < tol:
            leak, band = _leak(chain, grid, dens)
            _reject_leak(chain, grid, leak)
            return InvariantResult(
                GridMeasure(grid, dens, tail_bound=float(leak + band)), it)
    raise ConvergenceError(
        f"power iteration did not reach tol={tol!r} in {max_iters} steps",
        last_increment=increment)


def tv_distance(a: GridMeasure, b: GridMeasure) -> float:
    """Half the integrated absolute density difference."""
    if a.grid != b.grid:
        raise ValueError("measures live on different grids")
    return 0.5 * float(np.trapezoid(np.abs(a.density - b.density), dx=a.grid.spacing))


def tv_uncertainty(a: GridMeasure, b: GridMeasure) -> float:
    """Off-grid contribution bound accompanying tv_distance."""
    return 0.5 * (a.tail_bound + b.tail_bound)


@dataclass(frozen=True)
class SmallSetSpec:
    """An interval C with its one-step minorization constant epsilon.

    The minorizing measure nu is uniform on C, so p(x, y) >= epsilon * nu(y)
    for all x, y in C.
    """

    c_lower: float
    c_upper: float
    epsilon: float

    @property
    def length(self) -> float:
        return self.c_upper - self.c_lower

    def nu_pdf(self, y):
        y = np.asarray(y, dtype=float)
        out = np.where((y >= self.c_lower) & (y <= self.c_upper),
                       1.0 / self.length, 0.0)
        return out if out.ndim else float(out)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        out = (x >= self.c_lower) & (x <= self.c_upper)
        return out if out.ndim else bool(out)


def minorization_epsilon(spec: DriftSpec, eta: float, c_lower: float,
                         c_upper: float) -> SmallSetSpec:
    """Minorization constant of a compact interval C.

    epsilon = Leb(C)/(sqrt(eta)*sigma) * inf over C^2 of the standard normal
    pdf at (y - x - eta*g(x))/(sqrt(eta)*sigma).  The infimum is located by
    nested grid refinement (not assumed at a corner) until stable to a
    relative 1e-6.
    """
    chain = Chain(spec, eta, eta)
    if not c_lower < c_upper:
        raise ValueError("degenerate interval")
    sd = chain.sd
    xlo, xhi = c_lower, c_upper
    ylo, yhi = c_lower, c_upper
    prev = None
    best = None
    for _ in range(60):
        xs = np.linspace(xlo, xhi, 65)
        ys = np.linspace(ylo, yhi, 65)
        zs = (ys[None, :] - chain.mean(xs[:, None])) / sd
        vals = zs ** 2
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        best = float(vals[i, j])
        if prev is not None and abs(best - prev) <= 1e-6 * max(1.0, abs(best)) / 10.0:
            break
        prev = best
        dx = (xhi - xlo) / 64
        dy = (yhi - ylo) / 64
        xlo = max(c_lower, xs[i] - 2 * dx)
        xhi = min(c_upper, xs[i] + 2 * dx)
        ylo = max(c_lower, ys[j] - 2 * dy)
        yhi = min(c_upper, ys[j] + 2 * dy)
    eps = (c_upper - c_lower) / sd * _normal_pdf(float(zs[i, j]))
    if eps >= 1.0:
        warnings.warn(
            f"epsilon={eps!r} >= 1: the interval behaves as an atom; "
            "clamping to 1", stacklevel=2)
        eps = 1.0
    return SmallSetSpec(c_lower, c_upper, eps)


def whole_space_minorization(spec: DriftSpec, eta: float) -> float:
    """Common mass m of all kernel rows when x + g(x) is bounded.

    Raises ApplicabilityError when x + g(x) looks unbounded on a wide scan.
    """
    chain = Chain(spec, eta, 1.0)
    return _doeblin_mass(chain, *_mean_range(chain))


def _doeblin_mass(chain: Chain, i: float, s: float) -> float:
    """Doeblin mass m of a chain whose one-step mean ranges over [i, s].

    Every row dominates the sub-probability density f(y) = N-density at the
    farther of the two shifted means i and s; m is its total mass.
    """
    y = np.linspace(i - 10.0 * chain.sd, s + 10.0 * chain.sd, 20001)
    f = _normal_pdf(np.maximum(np.abs(y - i), np.abs(y - s)), chain.var)
    return min(float(np.trapezoid(f, y)), 1.0)


def _mean_range(chain: Chain) -> tuple[float, float]:
    """(inf, sup) of the one-step mean over a scan of [-100, 100].

    Raises ApplicabilityError when the mean still grows beyond the inner
    half of the scan, i.e. looks unbounded.
    """
    xs = np.linspace(-100.0, 100.0, 20001)
    h = chain.mean(xs)
    half = np.abs(xs) <= 50.0
    grow_hi = float(h.max() - h[half].max())
    grow_lo = float(h[half].min() - h.min())
    tol = 1e-6 * (1.0 + float(np.abs(h).max()))
    if grow_hi > tol or grow_lo > tol:
        raise ApplicabilityError(
            "x + g(x) appears unbounded; the uniform-ergodicity hypothesis "
            "'the function g satisfies |x+g(x)|<c' fails for this drift")
    return float(h.min()), float(h.max())


def doeblin_rate(m: float) -> float:
    """Geometric rate delta = 1/(1-m) implied by a Doeblin mass m."""
    if not (0.0 < m <= 1.0):
        raise ValueError(f"Doeblin mass m={m!r} outside (0, 1]")
    if m == 1.0:
        return math.inf
    return 1.0 / (1.0 - m)
