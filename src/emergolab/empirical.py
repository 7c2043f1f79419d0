"""Statistical comparisons between sampled ensembles and grid densities."""

from __future__ import annotations

import math

import numpy as np

from .kernel import GridMeasure


def coarse_bin_edges(measure: GridMeasure) -> np.ndarray:
    """Bin edges that coarsen the engine grid by an integer cell factor.

    Shared edges keep the binned comparison between a histogram and the
    quadrature density exact up to the interpolant.
    """
    n_cells = measure.grid.n_nodes - 1
    factor = max(1, n_cells // 128)
    idx = np.arange(0, n_cells + 1, factor)
    if idx[-1] != n_cells:
        idx = np.append(idx, n_cells)
    return measure.grid.nodes[idx]


def binned_probabilities(measure: GridMeasure, edges: np.ndarray) -> np.ndarray:
    return np.diff(measure.cdf_at(edges))


def binned_tv(samples: np.ndarray, measure: GridMeasure,
              edges: np.ndarray) -> float:
    """TV distance between the sample histogram and the binned density.

    Sample mass outside the edges counts fully toward the distance, as does
    the density mass not captured by the bins.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    counts, _ = np.histogram(samples, bins=edges)
    p_hat = counts / n
    q = binned_probabilities(measure, edges)
    inside = 0.5 * float(np.sum(np.abs(p_hat - q)))
    out_sample = 1.0 - counts.sum() / n
    out_density = max(0.0, 1.0 - float(q.sum()))
    return inside + 0.5 * (out_sample + out_density)


def binned_tv_envelope(q: np.ndarray, n: int, n_se: float = 4.0) -> float:
    """Null expectation plus n_se deviations of the binned TV statistic.

    Under the hypothesis that the n samples come from the binned law q, each
    |p_hat_k - q_k| is approximately half-normal with scale
    sqrt(q_k(1-q_k)/n); the envelope is the implied mean of the TV statistic
    plus n_se of its standard deviations.
    """
    # clip away float cancellation from the exact interval integrals
    q = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
    var = q * (1.0 - q) / n
    mean_abs = np.sqrt(2.0 * var / math.pi)
    mean_tv = 0.5 * float(mean_abs.sum())
    sd_tv = 0.5 * math.sqrt(float(np.sum(var * (1.0 - 2.0 / math.pi))))
    return mean_tv + n_se * sd_tv


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov statistic against a callable CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    F = np.asarray(cdf(xs), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - F)
    lower = np.max(F - np.arange(0, n) / n)
    return float(max(upper, lower))


def dkw_envelope(n: int, level: float = 0.999) -> float:
    """Dvoretzky-Kiefer-Wolfowitz sup-CDF bound holding with probability level."""
    alpha = 1.0 - level
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))
