"""Split chain on R x {0,1} built from a one-step small set.

The x-coordinate is the plain EM chain, and each move x -> y is marked
after it is made (Mykland, Tierney & Yu, JASA 1995): from C the bit is 1
with probability eps*nu(y)/p(x, y), elsewhere with probability eps, eps
being half the set's minorization constant.  That is the law of (x, d)
under the split kernel, which draws the bit first and moves from the atom
C x {1} by nu and from the rest of C by the residual kernel.  Visits to the
atom are regeneration times; the block statistics between visits drive the
regenerative estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drifts import DriftSpec
from .errors import MinorizationError, _distinct
from .kernel import (Chain, Grid, GridMeasure, SmallSetSpec, _coarse, _laws,
                     _normal_pdf, _step_mass, minorization_epsilon)

N_BATCHES = 30
# Student-t 0.975 quantile with N_BATCHES - 1 = 29 degrees of freedom: the
# half-width factor of the 95 % batch-means interval.  Change it with N_BATCHES.
T_975 = 2.045229642132703
# split chains per chunk of atom_return_check's ensemble: k_max rows of 9
# bytes per chain, and one step's draws and marks (z, u, the ratio and its
# masks) of about 41 bytes per chain, about 1.8 MB per chunk at k_max = 8
MC_CHUNK = 2 ** 14
# chain-steps per block of the split chain's draws (_split_path): one chain
# draws STEP_DRAWS steps at a time, an ensemble of n chains STEP_DRAWS // n
# steps (at least one)
STEP_DRAWS = 4096


def resolve_split_epsilon(smallset: SmallSetSpec) -> float:
    """Success probability of the splitting: half the set's minorization
    constant, so that C is a (1, 2*eps*nu)-small set verbatim; one outside
    (0, 1) raises ValueError."""
    eps = 0.5 * smallset.epsilon
    if not 0.0 < eps < 1.0:
        raise ValueError(f"split constant eps={eps!r} must lie in (0, 1)")
    return eps


def sample_nu(smallset: SmallSetSpec, rng, size=None):
    """Draw from nu, the uniform law on C."""
    return rng.uniform(smallset.c_lower, smallset.c_upper, size=size)


_EPS_TOO_LARGE = ("kernel density below eps*nu on the small set; "
                  "eps is too large for this interval")


def _split_constant(spec: DriftSpec, eta: float, smallset: SmallSetSpec) -> float:
    """The eps of resolve_split_epsilon, checked against the exact constant
    of C (minorization_epsilon): a hand-built set that claims more than the
    kernel's constant raises MinorizationError before any draw."""
    eps = resolve_split_epsilon(smallset)
    lo, hi = smallset.c_lower, smallset.c_upper
    exact = minorization_epsilon(spec, eta, lo, hi).epsilon
    if eps > exact:
        raise MinorizationError(
            f"split constant eps={eps!r} exceeds the exact constant {exact!r} "
            f"of [{lo!r}, {hi!r}]: " + _EPS_TOO_LARGE)
    return eps


def _marks(chain: Chain, smallset: SmallSetSpec, eps: float, x: np.ndarray,
           y: np.ndarray, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The split bits (int8) of the moves x -> y = mean(x) + sd*z.

    From C the bit is 1{u < eps*nu(y)/p(x, y)}, with p(x, y) = phi(z)/sd,
    and elsewhere 1{u < eps}.  A ratio above 1 on a move from C into C
    means p < eps*nu there, so eps is too large: it raises.
    """
    lo, hi = smallset.c_lower, smallset.c_upper
    ratio = _normal_pdf(z.copy())
    np.divide(eps * chain.sd / smallset.length, ratio, out=ratio)
    ratio = np.where((x >= lo) & (x <= hi),
                     np.where((y >= lo) & (y <= hi), ratio, 0.0), eps)
    if ratio.max() > 1.0 + 1e-12:  # eps < 1, so a move from C into C
        raise MinorizationError(_EPS_TOO_LARGE)
    return (u < ratio).view(np.int8)


def _split_path(chain: Chain, smallset: SmallSetSpec, eps: float, x0,
                n_steps: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """n_steps moves of split chains from x0: xs and ds of shape
    (n_steps + 1, n), n = x0.size.

    Blocks of max(1, STEP_DRAWS // n) steps draw a normal z per chain and
    step, then a uniform u.  The chains move to mean(x) + sd*z, and _marks
    sets each move's bit from u; the last bit, whose move is not made, is a
    Bernoulli(eps) draw after the last block.  One chain steps on Python
    floats, since the array bookkeeping of a step would cost more than its
    arithmetic; many step in lockstep by chain.step.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    xs = np.empty((n_steps + 1, n))
    ds = np.empty((n_steps + 1, n), dtype=np.int8)
    xs[0] = x0
    steps = max(1, STEP_DRAWS // n)
    for t in range(0, n_steps, steps):
        shape = (min(steps, n_steps - t), n)
        z, u = rng.standard_normal(shape), rng.random(shape)
        end = t + shape[0]
        if n == 1:
            x, mean, sd, path = float(xs[t, 0]), chain.mean, chain.sd, []
            for z_s in z[:, 0].tolist():
                x = mean(x) + sd * z_s
                path.append(x)
            xs[t + 1:end + 1, 0] = path
        else:
            for s in range(t, end):
                xs[s + 1] = chain.step(xs[s], z[s - t])
        ds[t:end] = _marks(chain, smallset, eps, xs[t:end], xs[t + 1:end + 1],
                           z, u)
    ds[n_steps] = rng.random(n) < eps
    return xs, ds


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

    @property
    def n_blocks(self) -> int:
        return max(0, self.atom_visit_times.size - 1)

    def block_lengths(self) -> np.ndarray:
        return np.diff(self.atom_visit_times)

    def block_sums(self, values: np.ndarray) -> np.ndarray:
        cum = np.concatenate([[0.0], np.cumsum(values)])
        t = self.atom_visit_times
        return cum[t[1:] + 1] - cum[t[:-1] + 1]


def run_split(spec: DriftSpec, eta: float, smallset: SmallSetSpec, x0, n_steps: int,
              rng) -> RegenerationBlocks:
    """Simulate one split-chain trajectory of n_steps transitions.

    x0 may be a float or a GridMeasure (one draw).  The chain steps on
    Python floats (_split_path), as a one-replicate split_ensemble does, and
    equals that run bit for bit, generator state included.
    """
    eps = _split_constant(spec, eta, smallset)
    x = x0.sample(1, rng)[0] if isinstance(x0, GridMeasure) else float(x0)
    xs, ds = (a[:, 0] for a in _split_path(Chain(spec, eta, eta), smallset,
                                           eps, x, n_steps, rng))
    in_c = np.asarray(smallset.contains(xs))
    visits = np.flatnonzero(in_c & (ds == 1))
    return RegenerationBlocks(xs=xs, ds=ds, in_c=in_c, atom_visit_times=visits)


def split_ensemble(spec: DriftSpec, eta: float, smallset: SmallSetSpec,
                   x0: np.ndarray, n_steps: int, rng
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Independent split chains from the starts x0, advanced in lockstep
    (_split_path).  Returns (xs, ds) with shape (n_steps + 1, n_replicates).
    """
    eps = _split_constant(spec, eta, smallset)
    return _split_path(Chain(spec, eta, eta), smallset, eps, x0, n_steps, rng)


@dataclass(frozen=True)
class AtomReturnCheck:
    k: int
    empirical: float
    exact: float
    se: float


def _c_grid(smallset: SmallSetSpec) -> Grid:
    """The 2001 trapezoid nodes over C that average over nu."""
    return Grid(smallset.c_lower, smallset.c_upper, 2001)


def atom_return_check(spec: DriftSpec, eta: float, smallset: SmallSetSpec,
                      ks, n_mc: int, grid: Grid, seed: int = 0
                      ) -> list[AtomReturnCheck]:
    """Compare empirical k-step atom-to-atom mass with eps * (nu P^{k-1})(C),
    eps the split constant of resolve_split_epsilon.

    Empirical: n_mc split chains started at the atom; the statistic at k is
    the fraction sitting in C x {1} after exactly k steps.  A chain at the
    atom moves to nu, so each chain starts from nu and its step k - 1 is
    the atom chain's step k.
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
    eps = resolve_split_epsilon(smallset)
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    hits = dict.fromkeys(ks, 0)
    chunks = np.random.SeedSequence(seed).spawn(-(-n_mc // MC_CHUNK))
    for i, ss in enumerate(chunks):
        rng = np.random.default_rng(ss)
        m = min(MC_CHUNK, n_mc - i * MC_CHUNK)
        xs, ds = split_ensemble(spec, eta, smallset, sample_nu(smallset, rng, m),
                                max(ks) - 1, rng)
        for k in ks:
            hits[k] += int(np.count_nonzero(smallset.contains(xs[k - 1])
                                            & (ds[k - 1] == 1)))
        del xs, ds  # freed before the next chunk and the quadrature below
    p_hats = {k: hits[k] / n_mc for k in ks}

    chain, c = Chain(spec, eta, eta), _c_grid(smallset)
    grid = _coarse(chain, grid)
    lo, hi = smallset.c_lower, smallset.c_upper
    nu = GridMeasure(c, np.full(c.n_nodes, 1.0 / smallset.length))
    exact_by_k = {1: eps, 2: eps * _step_mass(chain, c, nu.density, lo, hi)}
    for k, (pieces, _) in enumerate(_laws(chain, grid, nu, range(1, max(ks) - 1)), 3):
        (_, columns), = pieces  # grid is its own coarse grid: one piece
        exact_by_k[k] = eps * _step_mass(chain, grid, columns[:, 0], lo, hi)

    out = []
    for k in ks:
        se = math.sqrt(max(p_hats[k] * (1.0 - p_hats[k]), 1e-300) / n_mc)
        out.append(AtomReturnCheck(k, p_hats[k], exact_by_k[k], se))
    return out


@dataclass(frozen=True)
class RegenEstimate:
    value: float
    ci_low: float
    ci_high: float
    n_blocks: int


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
        return RegenEstimate(ratio, ratio, ratio, blocks.n_blocks)
    half = T_975 * sd / math.sqrt(nb)
    return RegenEstimate(ratio, ratio - half, ratio + half, blocks.n_blocks)


@dataclass(frozen=True)
class AtomTailFit:
    slope: float
    decay_factor: float
    gamma_max: float
    n_blocks: int


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
    if len(ns) >= 2:
        slope, _ = np.polyfit(ns, logs, 1)
        slope = float(slope)
    else:
        slope = -math.inf
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
                       n_blocks=n_obs)
