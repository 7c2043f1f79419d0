"""Split chain on R x {0,1} built from a one-step small set.

The split kernel moves the x-coordinate with the residual kernel or the
minorizing uniform law while the bit is refreshed i.i.d. Bernoulli(eps)
every step.  Visits to the atom C x {1} are regeneration times; the block
statistics between visits drive the regenerative estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .drifts import DriftSpec
from .errors import MinorizationError, _distinct
from .kernel import (Chain, Grid, GridMeasure, SmallSetSpec, _coarse, _laws,
                     _normal_pdf, _step_mass, minorization_epsilon)

N_BATCHES = 30
# Student-t 0.975 quantile with N_BATCHES - 1 = 29 degrees of freedom: the
# half-width factor of the 95 % batch-means interval.  Change it with N_BATCHES.
T_975 = 2.045229642132703
# split chains per chunk of atom_return_check's ensemble: (k_max + 1) rows
# of 9 bytes per chain, about 1.3 MB per chunk at k_max = 8
MC_CHUNK = 2 ** 14


@dataclass(frozen=True)
class SplitState:
    x: float
    d: int

    def __post_init__(self):
        if self.d not in (0, 1):
            raise ValueError("d must be 0 or 1")


def resolve_split_epsilon(spec: DriftSpec, eta: float, smallset: SmallSetSpec,
                          use_full_epsilon: bool = False) -> float:
    """Success probability used by the splitting.

    The default halves the minorization constant so that C is a
    (1, 2*eps*nu)-small set verbatim.  With use_full_epsilon the sharper
    constant is used; it needs p >= 2*eps*nu on C^2, so it is rejected unless
    the exact minorization_epsilon of C reaches 2*eps - 1e-12*Leb(C).
    """
    if use_full_epsilon:
        exact = minorization_epsilon(spec, eta, smallset.c_lower,
                                     smallset.c_upper).epsilon
        if exact < 2.0 * smallset.epsilon - 1e-12 * smallset.length:
            raise MinorizationError(
                "p < 2*eps*nu somewhere on C^2: the full minorization "
                "constant cannot drive the splitting for this set")
        return smallset.epsilon
    return 0.5 * smallset.epsilon


def sample_nu(smallset: SmallSetSpec, rng, size=None):
    """Draw from nu, the uniform law on C."""
    return rng.uniform(smallset.c_lower, smallset.c_upper, size=size)


_EPS_TOO_LARGE = ("kernel density below eps*nu on the small set; "
                  "eps is too large for this interval")


def _residual_draws(chain: Chain, x: np.ndarray, smallset: SmallSetSpec,
                    eps: float, rng) -> np.ndarray:
    """Vectorized rejection sampler for the residual kernel on C.

    Proposes one EM step and accepts with probability 1 - eps*nu(y)/p(x,y);
    the acceptance rate is exactly 1 - eps.  A proposal with p < eps*nu
    indicates a wrong eps and raises.
    """
    mean = chain.mean(x)
    sd = chain.sd
    out = np.empty_like(mean)
    pending = np.arange(mean.size)
    while pending.size:
        z = rng.standard_normal(pending.size)
        y = mean[pending] + sd * z
        # eps*nu(y)/p(x, y), with p(x, y) = phi(z)/sd
        ratio = eps * sd * np.asarray(smallset.nu_pdf(y)) / _normal_pdf(z)
        if np.any(ratio > 1.0 + 1e-12):
            raise MinorizationError(_EPS_TOO_LARGE)
        u = rng.uniform(size=pending.size)
        accept = u >= ratio
        out[pending[accept]] = y[accept]
        pending = pending[~accept]
    return out


def sample_residual(spec: DriftSpec, eta: float, x: float,
                    smallset: SmallSetSpec, eps: float, rng) -> float:
    """One draw from the residual kernel (p - eps*nu)/(1 - eps) at x in C."""
    if not smallset.contains(x):
        raise ValueError("residual kernel is only defined for x in C")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    return float(_residual_draws(
        Chain(spec, eta, eta), np.array([float(x)]), smallset, eps, rng)[0])


def _advance_x(chain: Chain, smallset: SmallSetSpec, eps: float,
               x: np.ndarray, d: np.ndarray, rng) -> np.ndarray:
    """x-update of the split kernel for a whole ensemble.

    Groups are processed in a fixed order (atom, residual, off-C) so the
    stream of random draws is deterministic for a given rng state.
    """
    in_c = np.asarray(smallset.contains(x))
    new = np.empty_like(x)
    m_atom = in_c & (d == 1)
    m_res = in_c & (d == 0)
    m_out = ~in_c
    if m_atom.any():
        new[m_atom] = sample_nu(smallset, rng, size=int(m_atom.sum()))
    if m_res.any():
        new[m_res] = _residual_draws(chain, x[m_res], smallset, eps, rng)
    if m_out.any():
        new[m_out] = chain.step(x[m_out], rng.standard_normal(int(m_out.sum())))
    return new


def _residual_draw(chain: Chain, x: float, smallset: SmallSetSpec,
                   eps: float, rng) -> float:
    """_residual_draws for one Python float x, on floats."""
    lo, hi = smallset.c_lower, smallset.c_upper
    nu = 1.0 / smallset.length
    mean, sd = chain.mean(x), chain.sd
    while True:
        z = rng.standard_normal()
        y = mean + sd * z
        ratio = eps * sd * (nu if lo <= y <= hi else 0.0) / _normal_pdf(z)
        if ratio > 1.0 + 1e-12:
            raise MinorizationError(_EPS_TOO_LARGE)
        if rng.random() >= ratio:
            return y


def _split_path(chain: Chain, smallset: SmallSetSpec, eps: float, x: float,
                d: int, n_steps: int, rng) -> tuple[list, list]:
    """One split chain from (x, d) stepped on Python floats: the lists
    x_0..x_n and d_0..d_n.

    A single chain makes the array bookkeeping of split_ensemble cost more
    than its arithmetic, so it gets this loop.  It draws the stream that
    split_ensemble draws for one replicate, in the same order: an atom step
    is one uniform on C, a residual proposal a normal then a uniform, an
    off-C step one normal, and every step ends with its Bernoulli(eps) bit.
    The residual ratio takes phi from libm exp, which can differ from
    numpy's by an ulp; an acceptance could only differ if the uniform fell
    in that ulp.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    lo, hi = smallset.c_lower, smallset.c_upper
    xs, ds = [x], [d]
    for _ in range(n_steps):
        if not lo <= x <= hi:
            x = chain.step(x, rng.standard_normal())
        elif d:
            x = rng.uniform(lo, hi)
        else:
            x = _residual_draw(chain, x, smallset, eps, rng)
        d = int(rng.random() < eps)
        xs.append(x)
        ds.append(d)
    return xs, ds


def step_split(spec: DriftSpec, eta: float, smallset: SmallSetSpec,
               state: SplitState, rng, eps: Optional[float] = None) -> SplitState:
    """One transition of the split kernel from (x, d)."""
    if eps is None:
        eps = resolve_split_epsilon(spec, eta, smallset)
    xs, ds = _split_path(Chain(spec, eta, eta), smallset, eps, float(state.x),
                         state.d, 1, rng)
    return SplitState(xs[1], ds[1])


@dataclass
class RegenerationBlocks:
    """A split-chain trajectory with its regeneration structure.

    atom_visit_times are the indices t with x_t in C and d_t = 1; block j
    covers steps atom_visit_times[j]+1 .. atom_visit_times[j+1] (the state
    at an atom visit starts the next block).
    """

    xs: np.ndarray
    ds: np.ndarray
    in_c: np.ndarray
    atom_visit_times: np.ndarray
    eps: float

    @property
    def n_blocks(self) -> int:
        return max(0, self.atom_visit_times.size - 1)

    def block_lengths(self) -> np.ndarray:
        return np.diff(self.atom_visit_times)

    def block_sums(self, values: np.ndarray) -> np.ndarray:
        cum = np.concatenate([[0.0], np.cumsum(values)])
        t = self.atom_visit_times
        return cum[t[1:] + 1] - cum[t[:-1] + 1]


def _initial_bits(d0) -> np.ndarray:
    if not np.all(np.isin(d0, (0, 1))):
        raise ValueError(f"d0={d0!r}: every initial bit must be 0 or 1")
    return np.asarray(d0, dtype=np.int8)


def run_split(spec: DriftSpec, eta: float, smallset: SmallSetSpec, x0, n_steps: int,
              rng, eps: Optional[float] = None, d0: Optional[int] = None
              ) -> RegenerationBlocks:
    """Simulate one split-chain trajectory of n_steps transitions.

    Steps on Python floats (_split_path) and draws the same stream as a
    one-replicate split_ensemble run.  x0 may be a float or a GridMeasure
    (one draw); d0 defaults to a Bernoulli(eps) draw, matching an initial
    law xi (x) b_eps.
    """
    if eps is None:
        eps = resolve_split_epsilon(spec, eta, smallset)
    x = float(x0.sample(1, rng)[0]) if isinstance(x0, GridMeasure) else float(x0)
    d = int(rng.random() < eps) if d0 is None else int(_initial_bits(d0))
    xs, ds = _split_path(Chain(spec, eta, eta), smallset, eps, x, d, n_steps, rng)
    xs, ds = np.array(xs), np.array(ds, dtype=np.int8)
    in_c = np.asarray(smallset.contains(xs))
    visits = np.flatnonzero(in_c & (ds == 1))
    return RegenerationBlocks(xs=xs, ds=ds, in_c=in_c,
                              atom_visit_times=visits, eps=eps)


def split_ensemble(spec: DriftSpec, eta: float, smallset: SmallSetSpec,
                   x0: np.ndarray, n_steps: int, rng,
                   eps: Optional[float] = None,
                   d0: Optional[np.ndarray] = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Many independent split chains advanced in lockstep.

    Returns (xs, ds) with shape (n_steps + 1, n_replicates).
    """
    if eps is None:
        eps = resolve_split_epsilon(spec, eta, smallset)
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    xs = np.empty((n_steps + 1, n))
    ds = np.empty((n_steps + 1, n), dtype=np.int8)
    xs[0] = x0
    ds[0] = (rng.uniform(size=n) < eps).astype(np.int8) if d0 is None \
        else _initial_bits(d0)
    chain = Chain(spec, eta, eta)
    for t in range(1, n_steps + 1):
        xs[t] = _advance_x(chain, smallset, eps, xs[t - 1], ds[t - 1], rng)
        ds[t] = (rng.uniform(size=n) < eps).astype(np.int8)
    return xs, ds


@dataclass(frozen=True)
class AtomReturnCheck:
    k: int
    empirical: float
    exact: float
    se: float
    n_mc: int


def _c_grid(smallset: SmallSetSpec) -> Grid:
    """The 2001 trapezoid nodes over C that average over nu."""
    return Grid(smallset.c_lower, smallset.c_upper, 2001)


def atom_return_check(spec: DriftSpec, eta: float, smallset: SmallSetSpec,
                      ks, n_mc: int, grid: Grid, seed: int = 0,
                      eps: Optional[float] = None) -> list[AtomReturnCheck]:
    """Compare empirical k-step atom-to-atom mass with eps * (nu P^{k-1})(C).

    Empirical: n_mc split chains started at the atom (x ~ nu, d = 1); the
    statistic at k is the fraction sitting in C x {1} after exactly k steps.
    The chains run in chunks of MC_CHUNK, each chunk on its own child of
    SeedSequence(seed), and only their atom-hit counts are kept.
    Exact: k = 1 is eps * nu(C) = eps; every other k takes (nu P^{k-2})
    one exact step into C (kernel._step_mass), k = 2 straight from the
    nodes of C and k >= 3 from nu P^{k-2} on the coarse grid of grid's
    interval (kernel._coarse), stepped from nu on C's nodes (kernel._laws),
    so that no block of laws from C is held whole.  A k listed twice raises
    ValueError.
    """
    ks = sorted(_distinct((int(k) for k in ks), "ks"))
    if ks[0] < 1:
        raise ValueError("k must be >= 1")
    if eps is None:
        eps = resolve_split_epsilon(spec, eta, smallset)
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    hits = dict.fromkeys(ks, 0)
    chunks = np.random.SeedSequence(seed).spawn(-(-n_mc // MC_CHUNK))
    for i, ss in enumerate(chunks):
        rng = np.random.default_rng(ss)
        m = min(MC_CHUNK, n_mc - i * MC_CHUNK)
        x0 = sample_nu(smallset, rng, size=m)
        xs, ds = split_ensemble(spec, eta, smallset, x0, max(ks), rng, eps=eps,
                                d0=np.ones(m, dtype=np.int8))
        for k in ks:
            hits[k] += int(np.count_nonzero(smallset.contains(xs[k]) & (ds[k] == 1)))
        del xs, ds  # freed before the next chunk and the quadrature below
    p_hats = {k: hits[k] / n_mc for k in ks}

    chain, c = Chain(spec, eta, eta), _c_grid(smallset)
    grid = _coarse(chain, grid)
    lo, hi = smallset.c_lower, smallset.c_upper
    nu = GridMeasure(c, np.full(c.n_nodes, 1.0 / smallset.length))
    exact_by_k = {1: eps, 2: eps * _step_mass(chain, c, nu.density, lo, hi)}
    for k, (columns, _) in enumerate(_laws(chain, grid, nu, range(1, max(ks) - 1)), 3):
        exact_by_k[k] = eps * _step_mass(chain, grid, columns[:, 0], lo, hi)

    out = []
    for k in ks:
        se = math.sqrt(max(p_hats[k] * (1.0 - p_hats[k]), 1e-300) / n_mc)
        out.append(AtomReturnCheck(k, p_hats[k], exact_by_k[k], se, n_mc))
    return out


@dataclass(frozen=True)
class RegenEstimate:
    value: float
    ci_low: float
    ci_high: float
    n_blocks: int
    n_batches: int


def regenerative_pi_estimate(blocks: RegenerationBlocks,
                             values: np.ndarray) -> RegenEstimate:
    """Ratio estimator sum(block sums)/sum(block lengths) with batch CI.

    values are per-step numbers aligned with the trace, e.g. f(xs) for a
    test function f, or the d-bits.  Needs at least N_BATCHES complete
    blocks, one per batch of the CI.
    """
    if blocks.n_blocks < N_BATCHES:
        raise ValueError(
            f"only {blocks.n_blocks} complete blocks; need >= {N_BATCHES} "
            "(run a longer trajectory)")
    values = np.asarray(values, dtype=float)
    sums = blocks.block_sums(values)
    lengths = blocks.block_lengths().astype(float)
    ratio = float(sums.sum() / lengths.sum())

    nb = N_BATCHES
    edges = np.linspace(0, sums.size, nb + 1).astype(int)
    batch = np.array([sums[a:b].sum() / lengths[a:b].sum()
                      for a, b in zip(edges[:-1], edges[1:])])
    sd = float(batch.std(ddof=1))
    if sd == 0.0:
        return RegenEstimate(ratio, ratio, ratio, blocks.n_blocks, nb)
    half = T_975 * sd / math.sqrt(nb)
    return RegenEstimate(ratio, ratio - half, ratio + half, blocks.n_blocks, nb)


@dataclass(frozen=True)
class AtomTailFit:
    slope: float
    decay_factor: float
    gamma_max: float
    n_blocks: int
    low_confidence: bool


def atom_return_tail(blocks: RegenerationBlocks) -> AtomTailFit:
    """Geometric tail fit of the atom return time sigma.

    Least squares on log P(sigma > n) against n, over the n where the
    empirical survival still rests on at least 5 observations.
    Also reports the largest gamma whose empirical E[gamma^sigma] looks
    stable across the two trajectory halves.
    """
    if blocks.n_blocks < 100:
        raise ValueError("need at least 100 complete blocks for a tail fit")
    sigma = blocks.block_lengths().astype(float)
    n_obs = sigma.size
    n_max = int(sigma.max())
    ns, logs = [], []
    for n in range(0, n_max):
        cnt = int(np.sum(sigma > n))
        if cnt < 5:
            break
        ns.append(n)
        logs.append(math.log(cnt / n_obs))
    low_conf = len(ns) < 3
    if len(ns) >= 2:
        slope, _ = np.polyfit(ns, logs, 1)
        slope = float(slope)
    else:
        slope = -math.inf
        low_conf = True
    decay = math.exp(slope) if math.isfinite(slope) else 0.0

    gamma_max = 1.0
    if math.isfinite(slope) and slope < 0:
        half = n_obs // 2
        for frac in np.linspace(0.95, 0.1, 18):
            gamma = math.exp(-slope * frac)
            e1 = float(np.mean(gamma ** sigma[:half]))
            e2 = float(np.mean(gamma ** sigma[half:]))
            if abs(e1 - e2) / max(e1, e2) < 0.2:
                gamma_max = gamma
                break
    return AtomTailFit(slope=slope, decay_factor=decay, gamma_max=gamma_max,
                       n_blocks=n_obs, low_confidence=low_conf)
