"""Deterministic quadrature representation of the one-step Markov kernel.

Densities live on a uniform grid and are integrated by the trapezoid rule.
The one-step law x -> N(x + h*g(x), eta*sigma^2) is owned by drifts.Chain;
it acts on densities through a quadrature matrix K[i, j] = p(x_j, y_i) w_j
from the nodes x_j of one grid to the nodes y_i of a read-out grid (the
same grid by default).  Only its band |y_i - mean(x_j)| <= BAND_SD*sd is
built, as dense blocks of the rows that span one band width 2*BAND_SD*sd
(34 on an sd/2 grid, at most 128), so a block's columns are the nodes
whose mean lies within twice the band width.  Only the operators that get
reused are cached: those from a grid that is its own coarse grid (spacing
sd/2 or coarser, see below) with both grids of up to DENSE_MATRIX_LIMIT
nodes.  The cache holds 3, one chain's reuse: its sd/2 operator and its
read-outs onto two requested grids (_off_grid keeps as many off-grid
vectors).  Callers finish with one chain before the next, so a request
from a chain other than the last one first drops the other chains'
read-outs, before anything is built, and their sd/2 operators leave by
least recent use (a chain that comes back still finds its own).  So 3
entries build no operator twice and hold no finished chain's read-out
while the next chain builds its own: the bench's library sweep makes 25
builds, as with 8 entries, where 2 entries make 33 builds.  A step from
a finer grid is a one-off (the first step of a density, a fixed-point
check) and streams its blocks, so it holds one block of at most 128 rows
at a time, never the operator.
A cached operator's columns are the nodes of a grid no finer than sd/2,
so its size follows the kernel and the interval, not the requested node
count: a row holds about 70 entries where the mean map moves nodes
little (OU at small eta), and a read-out onto 8192 rows at most 8192
times the coarse node count where it gathers them all into one band.

Solves and propagation run on two grids of one interval: the GMRES solve
for pi and every step but the last run on _coarse, the grid at spacing
sd/2, where the trapezoid rule integrates a kernel step to about
2*exp(-8*pi^2); each reported law is then read on the requested nodes by
one more step (Nystrom; pi = pi P for the invariant measure).  A grid no
finer than sd/2 is its own coarse grid.  Every propagated law comes from
one entry, _laws, from points or from a density on any interval, and every
TV distance from one rule, _tv, which overwrites the law block it is given
so that a TV step holds one block.  All results carry an additive,
conservative bound on the probability mass that has leaked off the grid,
plus a bound on the quadrature mass the band drops (below 2e-16 per unit
mass and step when the spacing is at most sd).
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import OrderedDict, namedtuple
from dataclasses import dataclass

import numpy as np

from . import drifts
from .drifts import Chain, DriftSpec
from .errors import ConvergenceError, GridTooSmallError, ApplicabilityError

Q_TOL = 1e-8
LEAK_TOL = 1e-8
INVARIANT_TOL = 1e-9
MAX_ITERS = 10 ** 5
DENSE_MATRIX_LIMIT = 8192
BAND_SD = 8.5
# GMRES basis vectors per array: OpenBLAS threads a matrix-vector product
# only from 460800 entries, and a 4001-node solve in arrays of 64 vectors
# ran about a quarter slower on 2 vCPUs
KRYLOV_CHUNK = 128


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
    half = max(4.0 * radius, _bulk_half_width(spec))
    return Grid(-half, half, n_nodes)


def _bulk_half_width(spec: DriftSpec) -> float:
    """Half-width 10 sigma/sqrt(K1) that both grids give the stationary bulk."""
    return 10.0 * (spec.sigma / math.sqrt(spec.K1))


def _resolved_nodes(width: float, sd: float) -> int:
    """The fewest nodes (and at least a Grid's 16) that put a span of width
    at spacing sd/2 or finer."""
    return max(math.ceil(width / (0.5 * sd)) + 1, 16)


def resolution_grid(spec: DriftSpec, eta: float) -> Grid:
    """Grid on the stationary bulk +-10 sigma/sqrt(K1), its spacing at most
    half the kernel sd: the trapezoid rule on such a grid integrates one
    kernel step to within 2*exp(-8*pi^2), so the node count follows the
    kernel, not a fixed default.  A bulk the bound misjudges still meets
    the leakage check (_reject_leak)."""
    half = _bulk_half_width(spec)
    return Grid(-half, half, _resolved_nodes(2.0 * half, Chain(spec, eta, eta).sd))


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
        _check_mass(self.integral(), self.tail_bound)

    def integral(self) -> float:
        return float(np.trapezoid(self.density, dx=self.grid.spacing))

    def mean(self) -> float:
        return float(np.trapezoid(self.grid.nodes * self.density, dx=self.grid.spacing))

    def variance(self) -> float:
        m = self.mean()
        return float(np.trapezoid((self.grid.nodes - m) ** 2 * self.density,
                              dx=self.grid.spacing))

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


def _check_mass(total, tail) -> None:
    """Raise ValueError unless the mass total of a density with tail bound
    tail (floats, or arrays of one per column) is in [1 - tail - Q_TOL,
    1 + Q_TOL]: the check of every GridMeasure and every tabulated law."""
    if not (np.all(1.0 - tail - Q_TOL <= total) and np.all(total <= 1.0 + Q_TOL)):
        raise ValueError(f"density integrates to {total!r}, outside "
                         f"[1 - {tail!r} - {Q_TOL}, 1 + {Q_TOL}]")


def _upper_tail(z: float) -> float:
    """Standard normal upper tail P(Z > z) by libm erfc, without the
    cancellation of 1 - Phi(z).  Its relative error is that of rounding
    z/sqrt(2), about z*z*1e-16; it underflows to 0 beyond z = 38.5."""
    return 0.5 * math.erfc(z * math.sqrt(0.5))


# _upper_tail is exactly 0.0 from z = 38.476 up and exactly 1.0 from
# z = -8.293 down (the first z of each is 38.47537 and -8.29236)
_TAIL_ZERO, _TAIL_ONE = 38.476, -8.293


def _upper_tails(z: np.ndarray) -> np.ndarray:
    """_upper_tail of every entry of z, bit for bit: libm is called only
    between _TAIL_ONE and _TAIL_ZERO, the entries beyond are filled (and a
    NaN stays NaN)."""
    one = z <= _TAIL_ONE
    out = one.astype(float)
    mid = ~(one | (z >= _TAIL_ZERO))
    out[mid] = [_upper_tail(v) for v in z[mid].tolist()]
    return out


def _outside(lower: float, upper: float, means: np.ndarray, sd: float) -> np.ndarray:
    """Mass of N(m, sd^2) beyond [lower, upper] for each m in means, the
    two sides' tails summed (not 1 - inside, which cancels to 0)."""
    return _upper_tails((upper - means) / sd) + _upper_tails((means - lower) / sd)


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
    the grid, as every later step does (_reject_leak), and so does a grid
    too coarse for chain's kernel (_reject_coarse)."""
    means = np.asarray(means, dtype=float)
    columns = _normal_pdf(grid.nodes[:, None] - means[None, :], var)
    deficit = 1.0 - grid.weights @ columns
    outside = _outside(grid.lower, grid.upper, means, math.sqrt(var))
    if chain is not None:
        _reject_coarse(chain, grid)
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


def _kernel_blocks(chain: Chain, grid: Grid, rows: Grid | None = None):
    """The banded quadrature matrix K[i, j] = p(x_j, y_i) * w_j, x_j and w_j
    the nodes and weights of grid, y_i the nodes of rows (grid when None),
    r rows at a time, as (lo, jlo, block) for the rows lo..lo+r-1.

    r is the number of rows that span one band width 2*BAND_SD*sd at the
    spacing of rows, at most 128 (34 on an sd/2 grid), so a block's rows
    reach no further than its band and it spans about twice the band.
    block covers the columns jlo..jlo+c-1: the span of the nodes whose mean
    lies within BAND_SD*sd of one of its rows, so every entry of the band
    |y_i - mean_j| <= BAND_SD*sd is in it.
    """
    w = grid.weights
    mean = chain.mean(grid.nodes)
    rows = grid if rows is None else rows
    ys = rows.nodes
    reach = BAND_SD * chain.sd
    r = min(128, int(2.0 * reach / rows.spacing))
    for lo in range(0, ys.size, r):
        y = ys[lo:lo + r]
        cols = np.flatnonzero((mean >= y[0] - reach) & (mean <= y[-1] + reach))
        jlo, jhi = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 0)
        block = _normal_pdf(y[:, None] - mean[None, jlo:jhi], chain.var)
        block *= w[None, jlo:jhi]
        yield lo, jlo, block
        del block  # not held while the next block is built


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _OperatorCache:
    """The blocks of banded quadrature matrices, held for reuse: called as
    (chain, grid, rows), it returns tuple(_kernel_blocks(chain, grid, rows)),
    rows None meaning grid.  _matvec asks for it only when grid is its own
    coarse grid, so that the columns are nodes no finer than sd/2.  It holds
    maxsize operators, least recently used first out, and a request first
    drops the other chains' read-outs (rows != grid; see the module
    docstring).  cache_info() and cache_clear() are those of
    functools.lru_cache."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.cache_clear()

    def __call__(self, chain: Chain, grid: Grid, rows: Grid | None = None) -> tuple:
        key = (chain, grid, grid if rows is None else rows)
        for old in [k for k in self._held if k[0] != chain and k[2] != k[1]]:
            del self._held[old]
        if key in self._held:
            self._hits += 1
            self._held.move_to_end(key)
            return self._held[key]
        self._misses += 1
        if len(self._held) == self.maxsize:  # dropped before the build
            self._held.popitem(last=False)
        self._held[key] = blocks = tuple(_kernel_blocks(*key))
        return blocks

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, self.maxsize, len(self._held))

    def cache_clear(self) -> None:
        self._held = OrderedDict()
        self._hits = self._misses = 0


_kernel_matrix = _OperatorCache(maxsize=3)


def _matvec(chain: Chain, grid: Grid, v: np.ndarray,
            rows: Grid | None = None) -> np.ndarray:
    """K @ v over the band, v on grid and the result on rows (grid when
    None).  The blocks are cached when grid is its own coarse grid and both
    grids have up to DENSE_MATRIX_LIMIT nodes: the solve, propagation and
    Nystrom read-out operators, which are reused.  Otherwise, for a step
    from a finer grid or a grid past the limit, the same blocks are built
    one at a time and dropped, so that K is never held whole."""
    rows = grid if rows is None else rows
    if (_coarse(chain, grid) == grid
            and max(grid.n_nodes, rows.n_nodes) <= DENSE_MATRIX_LIMIT):
        blocks = _kernel_matrix(chain, grid, rows)
    else:
        blocks = _kernel_blocks(chain, grid, rows)
    out = np.empty((rows.n_nodes,) + v.shape[1:])
    for lo, jlo, block in blocks:
        r, c = block.shape
        out[lo:lo + r] = block @ v[jlo:jlo + c]
        del block  # a streamed block is freed before the next is built
    return out


@functools.lru_cache(maxsize=3)
def _off_grid(chain: Chain, grid: Grid, lower: float, upper: float) -> np.ndarray:
    """Gaussian mass that one step from each node of grid puts beyond
    [lower, upper], the interval the step is read on."""
    out = _outside(lower, upper, chain.mean(grid.nodes), chain.sd)
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def _leak(chain: Chain, grid: Grid, density: np.ndarray,
          rows: Grid | None = None) -> tuple:
    """Certified mass that one step from density loses, (off grid, off band),
    per column when density is an (n, k) block; the step is read on rows
    (grid when None), which may span another interval.

    Off the grid: the exact Gaussian mass beyond rows' [lower, upper] from
    each node of grid.  Off the band: each column drops at most
    2*(h/sd*phi(BAND_SD) + Phi(-BAND_SD)) of quadrature mass (h the spacing
    of rows, whose trapezoid weights are <= h, and the density decreases
    beyond the band), times the density's mass.
    """
    rows = grid if rows is None else rows
    band = 2.0 * (rows.spacing / chain.sd * _normal_pdf(BAND_SD) + _upper_tail(BAND_SD))
    w = grid.weights
    off = _off_grid(chain, grid, rows.lower, rows.upper)
    return (w * off) @ density, band * (w @ density)


def _reject_leak(chain: Chain, grid: Grid, leak, starts=()) -> None:
    """Raise GridTooSmallError when the off-grid mass of one step (a float,
    or one per column) exceeds LEAK_TOL.  The suggested bounds reach 10 sd
    beyond every node's one-step mean and every mean in starts (the centres
    of first-step laws).  When the mean map sends those bounds beyond both
    of their ends, the chain expands and no grid holds it: that raises
    ApplicabilityError instead."""
    if np.max(leak) > LEAK_TOL:
        mean = np.concatenate([chain.mean(grid.nodes), starts])
        pad = 10.0 * chain.sd
        lo, hi = float(mean.min() - pad), float(mean.max() + pad)
        a, b = sorted(chain.mean(np.array([lo, hi])).tolist())
        if a < lo and b > hi:
            raise ApplicabilityError(
                f"the mean map x + {chain.h!r}*g(x) sends [{lo!r}, {hi!r}] onto [{a!r}, "
                f"{b!r}], beyond both ends: the chain expands, and no grid holds it")
        raise GridTooSmallError(
            f"one-step leakage {float(np.max(leak))!r} exceeds {LEAK_TOL!r}; "
            f"grid should cover [{lo!r}, {hi!r}]",
            suggested_lower=lo, suggested_upper=hi)


def _reject_coarse(chain: Chain, grid: Grid) -> None:
    """Raise GridTooSmallError when the grid spacing exceeds the kernel sd.
    Beyond it the trapezoid rule's error on one step, about
    2*exp(-2*pi^2*(sd/h)^2), is no longer negligible and yet passes every
    mass check; the message names the n_nodes that gives h <= sd/2."""
    if grid.spacing > chain.sd:
        n = _resolved_nodes(grid.upper - grid.lower, chain.sd)
        raise GridTooSmallError(
            f"grid spacing {grid.spacing!r} exceeds the kernel sd {chain.sd!r}; "
            f"n_nodes = {n} on [{grid.lower!r}, {grid.upper!r}] resolves it",
            suggested_lower=grid.lower, suggested_upper=grid.upper)


def _step(chain: Chain, grid: Grid, density: np.ndarray, tail,
          rows: Grid | None = None):
    """One kernel step of a density or an (n, k) block of density columns on
    grid, read on rows (grid when None; possibly on another interval):
    returns the new density and tail, the tail (a float, or one per column)
    plus each column's certified leakage and band term (see _leak).  A column
    that leaks more than LEAK_TOL rejects the grid (_reject_leak), as does
    either grid when too coarse for the kernel (_reject_coarse)."""
    _reject_coarse(chain, grid)
    _reject_coarse(chain, grid if rows is None else rows)
    leak, band = _leak(chain, grid, density, rows)
    _reject_leak(chain, grid, leak)
    new = _matvec(chain, grid, density, rows)
    return np.maximum(new, 0.0, out=new), tail + leak + band


def _coarse(chain: Chain, grid: Grid) -> Grid:
    """The grid on grid's interval at spacing sd/2 or finer (_resolved_nodes),
    or grid itself when that has no fewer nodes: the grid that solves and
    propagation step on before each reported law is read on grid."""
    n = _resolved_nodes(grid.upper - grid.lower, chain.sd)
    return Grid(grid.lower, grid.upper, n) if n < grid.n_nodes else grid


def _laws(chain: Chain, grid: Grid, start, n_list):
    """Yield (columns, tails), the laws after each n of the ascending n_list
    (all n >= 1) from start, read on grid, a column and tail per start.
    start is an array of points, whose first laws are the exact one-step
    Gaussians (_start_laws), or a GridMeasure, stepped from its own grid,
    which may span another interval (nu on C).  Later steps run on
    _coarse(chain, grid); the law after n steps is one step from the coarse
    laws after n - 1, read on grid (Nystrom), so its node values are those
    of a step on grid itself to the trapezoid rule's accuracy at spacing
    sd/2.  Each step rejects a grid as _step does.  Each yielded block is
    the caller's: it may write to it (_tv does)."""
    coarse = _coarse(chain, grid)
    n_max = n_list[-1] if n_list else 0
    if isinstance(start, GridMeasure):
        laws = (start.grid, start.density[:, None], start.tail_bound)
    else:
        laws, means = None, chain.mean(np.asarray(start, dtype=float))

    def step(g):  # the laws after one more step, read on g
        return _start_laws(g, means, chain.var, chain) if laws is None \
            else _step(chain, *laws, g)
    for n in range(1, n_max + 1):
        if coarse == grid:  # no coarser grid: step and report on grid
            laws = (grid, *step(grid))
            if n in n_list:
                yield laws[1].copy(), laws[2]
            continue
        if n in n_list:
            yield step(grid)  # not bound here while the next law is built
        if n < n_max:
            laws = (coarse, *step(coarse))


def _step_mass(chain: Chain, grid: Grid, density: np.ndarray, a: float,
               b: float) -> float:
    """Mass that one step from a node density puts in [a, b], exactly in y:
    sum_j w_j xi_j (Q((a - m_j)/sd) - Q((b - m_j)/sd)), m_j the one-step
    mean at node j and Q the normal upper tail (Nystrom).  No interpolant
    between nodes enters, so for an invariant density (pi = pi P) it is
    pi([a, b]) to the trapezoid rule's accuracy on a smooth integrand."""
    if b < a:
        raise ValueError("need a <= b")
    mean = chain.mean(grid.nodes)
    prob = _upper_tails((a - mean) / chain.sd) - _upper_tails((b - mean) / chain.sd)
    return float((grid.weights * density) @ prob)


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
    the grid; for n >= 2 the steps run on the coarse grid and the last one
    is read on grid (_laws).  Every step, the first included, rejects a
    grid it leaks off by more than LEAK_TOL.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    columns, tails = next(_laws(Chain(spec, eta, eta), grid, [x0], [n]))
    return GridMeasure(grid, columns[:, 0], tail_bound=float(tails[0]))


@dataclass(frozen=True)
class InvariantResult:
    measure: GridMeasure
    iterations: int
    solve_nodes: int  # nodes of the grid the GMRES solve ran on


def invariant_measure(spec: DriftSpec, eta: float, grid: Grid,
                      tol: float = INVARIANT_TOL) -> InvariantResult:
    """Invariant density by GMRES from N(0, 1) to an estimated TV error
    below tol (see _gmres), on the coarse grid of grid's interval and read
    on grid by one step (see _solved); iterations counts Krylov vectors.
    The tail bound is the one-step leakage of the solved density plus the
    bound on the mass the band drops.  A solved density that leaks more
    than LEAK_TOL rejects the grid.  Solves go through the cache (_invariant).
    """
    _warn_lambda(spec, eta)
    return _invariant(Chain(spec, eta, eta), grid, tol)


def _warn_lambda(spec: DriftSpec, eta: float) -> None:
    lam = drifts.lambda_of(spec, eta)
    if not (0.0 < lam < 1.0):
        warnings.warn(
            f"lambda(eta)={lam!r} outside (0,1); the drift-condition "
            "guarantee does not apply, though the invariant solve may succeed",
            stacklevel=3)  # at the public solver's caller


def _invariant(chain: Chain, grid: Grid, tol: float) -> InvariantResult:
    """The solve, cached with its failures (_solved): a hit returns the same
    result (density read-only) or raises the same error."""
    out = _solved(chain, grid, tol)
    if isinstance(out, Exception):
        raise out.with_traceback(None)  # not the last caller's frames
    return out


@functools.lru_cache(maxsize=8)
def _solved(chain: Chain, grid: Grid, tol: float):
    """The GMRES solve on _coarse(chain, grid), its density read on grid
    by one step (pi = pi P) and normalized there, with the tail bound and
    leakage check of that density on grid."""
    coarse = _coarse(chain, grid)
    try:
        dens, iterations = _gmres(chain, coarse, tol)
        if coarse != grid:
            dens = np.maximum(_matvec(chain, coarse, dens, grid), 0.0)
        dens /= float(np.sum(grid.weights * dens))
        leak, band = _leak(chain, grid, dens)
        _reject_leak(chain, grid, leak)
    except (GridTooSmallError, ConvergenceError, ApplicabilityError) as err:
        return err
    dens.flags.writeable = False  # shared by every caller
    return InvariantResult(GridMeasure(grid, dens, tail_bound=float(leak + band)),
                           iterations, coarse.n_nodes)


def _gmres(chain: Chain, grid: Grid, tol: float) -> tuple:
    """GMRES from pi = u on (I - K + u w^T) pi = u, u the N(0, 1) start with
    w @ u = 1 (w the trapezoid weights): the u w^T term lifts I - K's
    eigenvalue 0 to 1 and fixes w @ pi = 1.  Classical Gram-Schmidt, twice
    over, builds the basis in arrays of KRYLOV_CHUNK vectors, each allocated
    when the basis reaches it, so the basis is never copied to grow; Givens
    rotations track the residual r.  It stops once 0.5*||w||*||r|| / g_hat
    < tol, g_hat the smallest |Ritz value| (about 1 - lambda2), computed
    when the bound passes with the last g_hat (1 at first).  Returns pi,
    clipped at 0, and the vector count."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    _reject_coarse(chain, grid)
    w, n = grid.weights, grid.n_nodes
    u = gaussian_on_grid(grid, 0.0, 1.0).density
    u = u / float(w @ u)
    z = _matvec(chain, grid, u) - u  # the residual at pi = u
    res = norm = beta = float(np.linalg.norm(z))
    scale, gap, cols, rots = 0.5 * float(np.linalg.norm(w)), 1.0, [], []
    budget = min(MAX_ITERS, 2 ** 23 // n)  # a basis under 64 MB
    chunks = []  # the basis, KRYLOV_CHUNK vectors to an array
    for k in range(budget):
        i = k % KRYLOV_CHUNK
        if i == 0:
            chunks.append(np.empty((min(KRYLOV_CHUNK, budget - k), n)))
        last = chunks[-1]
        last[i] = z / norm
        z = last[i] - _matvec(chain, grid, last[i]) + u * float(w @ last[i])
        v = chunks[:-1] + [last[:i + 1]]  # views of the k + 1 vectors
        h = np.zeros(k + 2)
        for _ in range(2):
            proj = np.concatenate([c @ z for c in v])
            z -= _combine(proj, v)
            h[:-1] += proj
        h[-1] = norm = float(np.linalg.norm(z))
        cols.append(h.copy())
        for i, (c, s) in enumerate(rots):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        rots.append(h[k:] / math.hypot(h[k], h[k + 1]))
        res *= abs(rots[-1][1])
        if scale * res < tol * gap:
            hess = np.column_stack([np.pad(c, (0, k - j)) for j, c in enumerate(cols)])
            gap = float(np.min(np.abs(np.linalg.eigvals(hess[:-1]))))
            if scale * res < tol * gap:
                y = np.linalg.lstsq(hess, np.r_[beta, np.zeros(k + 1)], rcond=None)[0]
                return np.maximum(u + _combine(y, v), 0.0), k + 1
    raise ConvergenceError(f"GMRES did not reach tol={tol!r} in {budget} Krylov "
                           "vectors", residual_bound=scale * res)


def _combine(coef: np.ndarray, chunks: list) -> np.ndarray:
    """sum_i coef_i v_i over the basis vectors v_i, KRYLOV_CHUNK of them to
    each array of chunks; for one array it is coef @ chunks[0], bit for bit."""
    out = coef[:KRYLOV_CHUNK] @ chunks[0]
    for j, c in enumerate(chunks[1:], 1):
        out += coef[j * KRYLOV_CHUNK:(j + 1) * KRYLOV_CHUNK] @ c
    return out


def _tv(laws: np.ndarray, density: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The package's one TV rule: 0.5 * |p - q| @ w for each column p of the
    (n, k) block laws against q = density, w the trapezoid weights, capped
    at 1 (rounding can pass it).  |p - q| is written over laws, so a caller
    passes a block of its own, and no second array of its size is held;
    the sum is halved after the product."""
    np.subtract(laws, density[:, None], out=laws)
    return np.minimum(0.5 * (np.abs(laws, out=laws).T @ w), 1.0)


def tv_distance(a: GridMeasure, b: GridMeasure) -> float:
    """Half the integrated absolute density difference, at most 1 (_tv)."""
    if a.grid != b.grid:
        raise ValueError("measures live on different grids")
    return float(_tv(a.density[:, None].copy(), b.density, a.grid.weights)[0])


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
    """Minorization constant of a compact interval C, in closed form.

    epsilon = Leb(C)/sd * phi(z), z = max(sup mean - c_lower, c_upper - inf
    mean)/sd being the largest |y - mean(x)|/sd on C^2.  The mean's extremes
    come from one scan of C at 20001 nodes, ends included: exact for a
    monotone mean, within h^2*sup|mean''|/8 (h = Leb(C)/20000) otherwise.
    """
    chain = Chain(spec, eta, eta)
    if not c_lower < c_upper:
        raise ValueError("degenerate interval")
    mean = chain.mean(np.linspace(c_lower, c_upper, 20001))
    z = max(float(mean.max()) - c_lower, c_upper - float(mean.min())) / chain.sd
    # z >= Leb(C)/(2*sd) gives epsilon <= 2*phi(1) < 0.484
    eps = (c_upper - c_lower) / chain.sd * _normal_pdf(z)
    return SmallSetSpec(c_lower, c_upper, eps)


def whole_space_minorization(spec: DriftSpec, eta: float) -> float:
    """Common mass m of all kernel rows when x + g(x) is bounded.

    Raises ApplicabilityError when x + g(x) looks unbounded on a wide scan.
    """
    chain = Chain(spec, eta, 1.0)
    return _doeblin_mass(chain, *_mean_range(chain))


def _doeblin_mass(chain: Chain, i: float, s: float) -> float:
    """Doeblin mass m of a chain whose one-step mean ranges over [i, s].

    Every row dominates min(N(i, var), N(s, var)), the overlap of the laws
    at the two extreme means; its mass is 2*Phi(-(s - i)/(2*sd)).
    """
    return 2.0 * _upper_tail((s - i) / (2.0 * chain.sd))


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
