"""Deterministic quadrature representation of the one-step Markov kernel.

Densities live on a uniform grid and are integrated by the trapezoid rule.
The one-step law x -> N(x + h*g(x), eta*sigma^2) is owned by :class:`Chain`;
it acts on densities through a row-stochastic quadrature matrix
(materialized and cached for grids up to DENSE_MATRIX_LIMIT nodes, applied
in row blocks beyond that).  All results carry an additive, conservative
bound on the probability mass that has leaked off the grid.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import drifts
from .drifts import DriftSpec, eval_drift
from .errors import ConvergenceError, GridTooSmallError, ApplicabilityError

Q_TOL = 1e-8
LEAK_TOL = 1e-8
INVARIANT_TOL = 1e-9
MAX_ITERS = 10 ** 5
DENSE_MATRIX_LIMIT = 8192


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


def default_grid(spec: DriftSpec, eta: float, n_nodes: int = 4097) -> Grid:
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


def gaussian_on_grid(grid: Grid, mean: float, variance: float) -> GridMeasure:
    """Normal density sampled on the grid; tail bound is the exact outside mass.

    On coarse grids the trapezoid integral can fall slightly short of the
    exact inside mass; the tail bound absorbs that deficit so the measure
    still validates.
    """
    sd = math.sqrt(variance)
    z = (grid.nodes - mean) / sd
    dens = np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
    inside = ndtr((grid.upper - mean) / sd) - ndtr((grid.lower - mean) / sd)
    total = float(np.trapezoid(dens, dx=grid.spacing))
    tail = max(1.0 - inside, 1.0 - total, 0.0)
    return GridMeasure(grid, dens, tail_bound=float(tail))


def _normal_pdf(d: np.ndarray, var: float) -> np.ndarray:
    """N(0, var) density at d, computed in d's buffer so that building a
    dense matrix holds one n x n array at a time."""
    np.square(d, out=d)
    d /= -2.0 * var
    np.exp(d, out=d)
    d /= math.sqrt(2.0 * math.pi * var)
    return d


def transition_density(spec: DriftSpec, eta: float, x, y):
    """Kernel density p(x, y): normal in y with mean x + eta*g(x), var eta*sigma^2."""
    chain = Chain(spec, eta, eta)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = _normal_pdf(np.asarray(y - chain.mean(x)), chain.var)
    return out if out.ndim else float(out)


def _kernel_rows(chain: Chain, grid: Grid, mean: np.ndarray,
                 lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of K[i, j] = p(x_j, y_i) * w_j; mean holds the node means."""
    K = _normal_pdf(grid.nodes[lo:hi, None] - mean[None, :], chain.var)
    K *= grid.weights[None, :]
    return K


@functools.lru_cache(maxsize=8)
def _kernel_matrix(chain: Chain, grid: Grid) -> np.ndarray:
    """Dense quadrature matrix K with K[i, j] = p(x_j, y_i) * w_j."""
    return _kernel_rows(chain, grid, chain.mean(grid.nodes), 0, grid.n_nodes)


def _matvec(chain: Chain, grid: Grid, v: np.ndarray) -> np.ndarray:
    """K @ v: the cached dense matrix up to DENSE_MATRIX_LIMIT nodes, else
    512-row blocks, so the matrix is never held whole."""
    n = grid.n_nodes
    if n <= DENSE_MATRIX_LIMIT:
        return _kernel_matrix(chain, grid) @ v
    mean = chain.mean(grid.nodes)
    out = np.empty((n,) + v.shape[1:])
    for lo in range(0, n, 512):
        out[lo:lo + 512] = _kernel_rows(chain, grid, mean, lo, lo + 512) @ v
    return out


def _inside_mass(chain: Chain, grid: Grid) -> np.ndarray:
    """For each node x_j, the mass of one step from x_j that stays on the grid."""
    mean = chain.mean(grid.nodes)
    return ndtr((grid.upper - mean) / chain.sd) - ndtr((grid.lower - mean) / chain.sd)


def apply_kernel(spec: DriftSpec, eta: float, xi: GridMeasure,
                 leak_tol: float = LEAK_TOL) -> GridMeasure:
    """One adjoint kernel step (xi P)(y) = integral xi(x) p(x, y) dx.

    The certified one-step leakage (density-weighted off-grid Gaussian mass)
    is added to the tail bound; if it exceeds leak_tol the grid is rejected
    with suggested bounds.
    """
    chain = Chain(spec, eta, eta)
    grid = xi.grid
    inside = _inside_mass(chain, grid)
    leak = float(np.sum(grid.weights * xi.density * (1.0 - inside)))
    if leak > leak_tol:
        mean = chain.mean(grid.nodes)
        pad = 10.0 * chain.sd
        lo, hi = float(mean.min() - pad), float(mean.max() + pad)
        raise GridTooSmallError(
            f"one-step leakage {leak!r} exceeds {leak_tol!r}; "
            f"grid should cover [{lo!r}, {hi!r}]",
            suggested_lower=lo, suggested_upper=hi)
    new = np.maximum(_matvec(chain, grid, xi.density), 0.0)
    return GridMeasure(grid, new, tail_bound=xi.tail_bound + leak)


def n_step_from_point(spec: DriftSpec, eta: float, x0: float, n: int,
                      grid: Grid) -> GridMeasure:
    """The n-step distribution P^n(x0, .) on the grid.

    The first step is the exact Gaussian law of one step from x0, sampled on
    the grid; remaining steps go through apply_kernel.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    chain = Chain(spec, eta, eta)
    out = gaussian_on_grid(grid, chain.mean(x0), chain.var)
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
    bound is the one-step leakage of the converged density.
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
            leak = float(np.sum(w * dens * (1.0 - _inside_mass(chain, grid))))
            return InvariantResult(GridMeasure(grid, dens, tail_bound=leak), it)
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


def tv_norm(a: GridMeasure, b: GridMeasure) -> float:
    """Total variation norm of the difference (twice the distance)."""
    return 2.0 * tv_distance(a, b)


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
                         c_upper: float, rel_tol: float = 1e-6) -> SmallSetSpec:
    """Minorization constant of a compact interval C.

    epsilon = Leb(C)/(sqrt(eta)*sigma) * inf over C^2 of the standard normal
    pdf at (y - x - eta*g(x))/(sqrt(eta)*sigma).  The infimum is located by
    nested grid refinement (not assumed at a corner) until stable to rel_tol.
    """
    chain = Chain(spec, eta, eta)
    if not c_lower < c_upper:
        raise ValueError("degenerate interval")
    sd = chain.sd

    def z2(x, y):
        return ((y - chain.mean(x)) / sd) ** 2

    xlo, xhi = c_lower, c_upper
    ylo, yhi = c_lower, c_upper
    prev = None
    best = None
    for _ in range(60):
        xs = np.linspace(xlo, xhi, 65)
        ys = np.linspace(ylo, yhi, 65)
        vals = z2(xs[:, None], ys[None, :])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        best = float(vals[i, j])
        if prev is not None and abs(best - prev) <= rel_tol * max(1.0, abs(best)) / 10.0:
            break
        prev = best
        dx = (xhi - xlo) / 64
        dy = (yhi - ylo) / 64
        xlo = max(c_lower, xs[i] - 2 * dx)
        xhi = min(c_upper, xs[i] + 2 * dx)
        ylo = max(c_lower, ys[j] - 2 * dy)
        yhi = min(c_upper, ys[j] + 2 * dy)
    phi_min = math.exp(-0.5 * best) / math.sqrt(2.0 * math.pi)
    eps = (c_upper - c_lower) / sd * phi_min
    if eps >= 1.0:
        warnings.warn(
            f"epsilon={eps!r} >= 1: the interval behaves as an atom; "
            "clamping to 1", stacklevel=2)
        eps = 1.0
    return SmallSetSpec(c_lower, c_upper, eps)


def whole_space_minorization(spec: DriftSpec, eta: float,
                             scan_half_width: float = 100.0,
                             scan_points: int = 20001,
                             quad_points: int = 20001) -> float:
    """Common mass m of all kernel rows when x + g(x) is bounded.

    With i = inf(x + g(x)) and s = sup(x + g(x)), every row dominates the
    sub-probability density f(y) = N-density at the farther of the two
    shifted means; m is its total mass.  Raises ApplicabilityError when
    x + g(x) looks unbounded on a wide scan.
    """
    chain = Chain(spec, eta, 1.0)
    i, s = _mean_range(chain, scan_half_width, scan_points)
    sd = chain.sd
    y = np.linspace(i - 10.0 * sd, s + 10.0 * sd, quad_points)
    far = np.maximum((y - i) ** 2, (y - s) ** 2)
    f = np.exp(-far / (2.0 * sd * sd)) / (sd * math.sqrt(2.0 * math.pi))
    m = float(np.trapezoid(f, y))
    return min(m, 1.0)


def _mean_range(chain: Chain, scan_half_width: float = 100.0,
                scan_points: int = 20001) -> tuple[float, float]:
    """(inf, sup) of the one-step mean over a wide scan.

    Raises ApplicabilityError when the mean still grows beyond the inner
    half of the scan, i.e. looks unbounded.
    """
    xs = np.linspace(-scan_half_width, scan_half_width, scan_points)
    h = chain.mean(xs)
    half = np.abs(xs) <= scan_half_width / 2.0
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
