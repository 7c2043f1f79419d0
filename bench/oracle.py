"""Exact laws of the OU Euler-Maruyama chain, independent of emergolab.

With drift g(x) = -kappa*x the EM chain is the AR(1) recursion
x' = a*x + sqrt(eta)*sigma*Z with a = 1 - eta*kappa, so every n-step law
from a point and the stationary law are Gaussian in closed form.
"""

import math

import numpy as np


def ar1_law(eta, x0=None, n=None, kappa=1.0, sigma=1.0):
    """(mean, variance) of P^n(x0, .), or of the stationary law if n is None."""
    a = 1.0 - eta * kappa
    v_inf = eta * sigma ** 2 / (1.0 - a * a)
    if n is None:
        return 0.0, v_inf
    return a ** n * x0, v_inf * (1.0 - a ** (2 * n))


def normal_pdf(x, mean, var):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def normal_prob(lo, hi, mean, var):
    s = math.sqrt(2.0 * var)
    return 0.5 * (math.erf((hi - mean) / s) - math.erf((lo - mean) / s))


def density_tv(x, density, mean, var):
    """Trapezoid TV between a density tabulated at nodes x and an exact normal.

    The trapezoid rule is the one the program uses for its own TV, so the
    comparison isolates the error of the kernel quadrature.
    """
    diff = np.abs(np.asarray(density, dtype=float) - normal_pdf(x, mean, var))
    return 0.5 * float(np.trapezoid(diff, x))
