"""Drift functions, their regularity constants, and derived step-size scalars.

The two built-in drift families are the linear (Ornstein-Uhlenbeck) drift
g(x) = -kappa*x and the bounded perturbation g(x) = -kappa*x + a*tanh(x).
Arbitrary drifts are supported through :func:`custom`, but their constants
must be declared by the caller; they are verified, never inferred.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import PreconditionError

OU = "ou"
BOUNDED = "bounded"
CUSTOM = "custom"

# Relative rounding, in machine epsilons, that check_assumptions allows on
# each term of an audited value: a g evaluation, a product, a sum.
ROUNDING = 4.0


@dataclass(frozen=True)
class DriftSpec:
    """A drift g together with its declared regularity constants.

    L is a Lipschitz constant of g, (K1, K2) the dissipativity constants in
    (g(x)-g(y))(x-y) <= -K1*(x-y)^2 + K2, and c_offset the constant c in
    x*g(x) <= -K1*x^2/2 + c.  sigma is the diffusion coefficient.
    """

    kind: str
    sigma: float
    L: float
    K1: float
    K2: float = 0.0
    c_offset: float = 0.0
    kappa: float = 1.0
    a: float = 0.0
    custom_g: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.L <= 0:
            raise ValueError("L must be positive")
        if self.K1 <= 0:
            raise ValueError("K1 must be positive")
        if self.K2 < 0:
            raise ValueError("K2 must be nonnegative")
        if self.c_offset < 0:
            raise ValueError("c_offset must be nonnegative")
        if self.kind == CUSTOM and self.custom_g is None:
            raise ValueError("custom drift requires a callable")

    @property
    def g0(self) -> float:
        return float(eval_drift(self, 0.0))


def ornstein_uhlenbeck(kappa: float = 1.0, sigma: float = 1.0) -> DriftSpec:
    """Linear drift g(x) = -kappa*x with its exact constants."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return DriftSpec(kind=OU, sigma=sigma, L=kappa, K1=kappa, K2=0.0,
                     c_offset=0.0, kappa=kappa)


def bounded_perturbation(kappa: float = 1.0, a: float = 0.5,
                         sigma: float = 1.0) -> DriftSpec:
    """Drift g(x) = -kappa*x + a*tanh(x).

    Valid constants: L = kappa + |a| since |g'| <= kappa + |a|, and
    K1 = kappa - max(a, 0) because |tanh x - tanh y| <= |x - y|.  The
    perturbed identity x + g(x) = (1-kappa)*x + a*tanh(x) is bounded iff
    kappa = 1, which is the regime used for uniform-ergodicity experiments.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    k1 = kappa - max(a, 0.0)
    if k1 <= 0:
        raise ValueError("kappa - max(a, 0) must be positive for a valid K1")
    return DriftSpec(kind=BOUNDED, sigma=sigma, L=kappa + abs(a), K1=k1,
                     K2=0.0, c_offset=0.0, kappa=kappa, a=a)


def custom(g: Callable[[float], float], sigma: float, L: float, K1: float,
           K2: float = 0.0, c_offset: float = 0.0) -> DriftSpec:
    """Wrap a user drift with user-declared constants."""
    return DriftSpec(kind=CUSTOM, sigma=sigma, L=L, K1=K1, K2=K2,
                     c_offset=c_offset, custom_g=g)


def eval_drift(spec: DriftSpec, x):
    """Evaluate g at x (scalar or array).

    A Python float x of a built-in drift stays on Python floats, with the
    same values as the array path (np.tanh, not math.tanh, which differs by
    an ulp on about a quarter of inputs): one split chain calls this once
    per step.
    """
    if type(x) is float and spec.kind in (OU, BOUNDED):
        if not math.isfinite(x):
            raise ValueError("drift argument must be finite")
        if spec.kind == OU:
            return -spec.kappa * x
        return -spec.kappa * x + spec.a * float(np.tanh(x))
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("drift argument must be finite")
    if spec.kind == OU:
        out = -spec.kappa * x
    elif spec.kind == BOUNDED:
        out = -spec.kappa * x + spec.a * np.tanh(x)
    else:
        out = np.vectorize(spec.custom_g, otypes=[float])(x)
    return out if out.ndim else float(out)


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
class AssumptionReport:
    """Attained maxima and pass flags for the drift regularity checks."""

    lipschitz_max: float
    lipschitz_ok: bool
    dissipativity_max: float
    dissipativity_ok: bool
    quadratic_max: float
    quadratic_ok: bool
    second_derivative_max: float

    @property
    def all_ok(self) -> bool:
        return self.lipschitz_ok and self.dissipativity_ok and self.quadratic_ok

    def to_text(self) -> str:
        lines = [
            f"lipschitz_max={self.lipschitz_max!r}",
            f"lipschitz_ok={self.lipschitz_ok}",
            f"dissipativity_max={self.dissipativity_max!r}",
            f"dissipativity_ok={self.dissipativity_ok}",
            f"quadratic_max={self.quadratic_max!r}",
            f"quadratic_ok={self.quadratic_ok}",
            f"second_derivative_max={self.second_derivative_max!r}",
        ]
        return "\n".join(lines)


def check_assumptions(spec: DriftSpec, probe_points) -> AssumptionReport:
    """Numerically audit the declared constants of a drift.

    Checks, over sampled pairs and points:
      (i)   sup |g(x)-g(y)| / |x-y|             <= L
      (ii)  sup (g(x)-g(y))(x-y) + K1*(x-y)^2   <= K2
      (iii) sup x*g(x) + K1*x^2/2               <= c_offset
      (iv)  max |g''| by centered second differences (reported only).

    A failed flag is recorded, not raised.  Pairs are sampled both locally
    (adjacent probe points, where the difference quotient of a smooth g
    peaks) and globally (random pairs from the probe set).  Each value is
    held to its constant up to the rounding of the terms it is formed from
    (ROUNDING machine epsilons of each), so that an exact constant passes
    at any probe span; the reported maxima are the values as computed.
    """
    pts = np.sort(np.asarray(probe_points, dtype=float))
    if pts.size < 2:
        raise ValueError("need at least 2 probe points")
    g = eval_drift(spec, pts)

    # local pairs (consecutive probe points), then global pairs drawn by
    # the stdlib so that numpy.random is not loaded
    rnd = random.Random(20240817)
    i = np.array(rnd.choices(range(pts.size), k=4096))
    j = np.array(rnd.choices(range(pts.size), k=4096))
    step = np.arange(1, pts.size)
    a, b = np.concatenate([step, i]), np.concatenate([step - 1, j])
    keep = pts[a] != pts[b]
    a, b = a[keep], b[keep]
    dx, dg = pts[a] - pts[b], g[a] - g[b]
    adx, adg = np.abs(dx), np.abs(dg)
    g_size = np.abs(g[a]) + np.abs(g[b]) + adg  # what dg's rounding scales with
    quot = adg / adx
    dissip = dg * dx + spec.K1 * dx ** 2
    quad = pts * g + 0.5 * spec.K1 * pts ** 2

    u = ROUNDING * np.finfo(float).eps
    lip_ok = np.max(quot - u * g_size / adx) <= spec.L
    dis_ok = np.max(dissip - u * (adx * g_size + spec.K1 * dx ** 2)) <= spec.K2
    quad_ok = np.max(quad - u * (np.abs(pts * g) + 0.5 * spec.K1 * pts ** 2)) \
        <= spec.c_offset

    steps = np.diff(pts)
    steps = steps[steps > 0]
    h = min(max(1e-5, float(np.min(steps)) if steps.size else 1e-5), 1e-3)
    gpp = (eval_drift(spec, pts + h) - 2.0 * g + eval_drift(spec, pts - h)) / h ** 2
    gpp_max = float(np.max(np.abs(gpp)))

    return AssumptionReport(
        lipschitz_max=float(np.max(quot)),
        lipschitz_ok=bool(lip_ok),
        dissipativity_max=float(np.max(dissip)),
        dissipativity_ok=bool(dis_ok),
        quadratic_max=float(np.max(quad)),
        quadratic_ok=bool(quad_ok),
        second_derivative_max=gpp_max,
    )


@dataclass(frozen=True)
class DerivedConstants:
    """Step-size dependent scalars derived from a drift's constants."""

    eta: float
    lambda_eta: float
    b_eta: float
    beta_eta: float
    beta_valid: bool
    radius: float
    eta1: float
    eta2: float
    eta0: float


def lambda_of(spec: DriftSpec, eta) -> float:
    """Contraction factor lambda(eta) = 1 - K1*eta/2 + 2*L^2*eta^2."""
    eta = np.asarray(eta, dtype=float)
    out = 1.0 - 0.5 * spec.K1 * eta + 2.0 * spec.L ** 2 * eta ** 2
    return out if out.ndim else float(out)


def b_of(spec: DriftSpec, eta) -> float:
    """Drift-condition offset
    b_eta = K1*L/2 - 2*L^2*eta^2 + 2*g(0)^2*eta^2 + eta*sigma^2 + 2*c*eta.
    """
    eta = np.asarray(eta, dtype=float)
    out = (0.5 * spec.K1 * spec.L - 2.0 * spec.L ** 2 * eta ** 2
           + 2.0 * spec.g0 ** 2 * eta ** 2 + eta * spec.sigma ** 2
           + 2.0 * spec.c_offset * eta)
    return out if out.ndim else float(out)


def radius_of(spec: DriftSpec, eta) -> float:
    """Half-width f1(eta) = 2*b_eta/(K1*eta) of the return set D_eta."""
    eta = np.asarray(eta, dtype=float)
    out = 2.0 * b_of(spec, eta) / (spec.K1 * eta)
    return out if out.ndim else float(out)


def eta_thresholds(spec: DriftSpec) -> tuple[float, float, float]:
    """(eta1, eta2, eta0): validity thresholds for lambda and f1.

    eta1 is the vertex K1/(8 L^2) of the quadratic lambda, capped below 1;
    lambda is decreasing on (0, eta1] and lies in (0,1) there.  eta2 keeps
    f1 decreasing: eta2 = 1 when g(0)^2 <= L^2, else the zero of
    4*(g(0)^2 - L^2)*eta^2 - K1*L, capped at 1.  eta0 = min(eta1, eta2).
    """
    one_minus = math.nextafter(1.0, 0.0)
    eta1 = min(spec.K1 / (8.0 * spec.L ** 2), one_minus)
    g0sq = spec.g0 ** 2
    if g0sq <= spec.L ** 2:
        eta2 = 1.0
    else:
        eta2 = min(1.0, math.sqrt(spec.K1 * spec.L / (4.0 * (g0sq - spec.L ** 2))))
    return eta1, eta2, min(eta1, eta2)


def derive_constants(spec: DriftSpec, eta: float) -> DerivedConstants:
    """Compute every derived scalar at step size eta.

    When lambda(eta) falls outside (0,1) the constants are still returned,
    with beta_eta flagged invalid (and set to NaN).
    """
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta={eta!r} outside (0, 1)")
    lam = lambda_of(spec, eta)
    b = b_of(spec, eta)
    beta_valid = 0.0 < lam < 1.0
    beta = 1.0 / lam if beta_valid else float("nan")
    eta1, eta2, eta0 = eta_thresholds(spec)
    return DerivedConstants(
        eta=eta,
        lambda_eta=lam,
        b_eta=b,
        beta_eta=beta,
        beta_valid=beta_valid,
        radius=2.0 * b / (spec.K1 * eta),
        eta1=eta1,
        eta2=eta2,
        eta0=eta0,
    )


def lyapunov(x):
    """V(x) = 1 + x^2."""
    x = np.asarray(x, dtype=float)
    out = 1.0 + x ** 2
    return out if out.ndim else float(out)


def closed_form_PV(spec: DriftSpec, eta: float, x):
    """Exact one-step expectation of V(x) = 1 + x^2 under the kernel.

    One step from x is Gaussian with mean x + eta*g(x) and variance
    eta*sigma^2 (Chain), so P V(x) = 1 + (x + eta*g(x))^2 + eta*sigma^2.
    """
    chain = Chain(spec, eta, eta)
    out = 1.0 + chain.mean(np.asarray(x, dtype=float)) ** 2 + chain.var
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DriftConditionReport:
    """Outcome of verifying P V <= lambda V + b 1_D on a grid."""

    all_pass: bool
    worst_margin: float
    worst_x: float
    n_violations: int
    constants: DerivedConstants


def verify_drift_condition(spec: DriftSpec, eta: float,
                           x_grid) -> DriftConditionReport:
    """Check P V(x) <= lambda(eta) V(x) + b_eta 1_{|x|<=radius} pointwise.

    The indicator uses the closed set |x| <= radius.  The margin reported is
    min over x of rhs - lhs; negative margin means a violation.
    """
    dc = derive_constants(spec, eta)
    if not (0.0 < dc.lambda_eta < 1.0):
        raise PreconditionError(
            f"lambda(eta)={dc.lambda_eta!r} not in (0,1); "
            f"the drift condition requires eta <= eta0={dc.eta0!r}")
    x = np.asarray(x_grid, dtype=float)
    lhs = closed_form_PV(spec, eta, x)
    indicator = (np.abs(x) <= dc.radius).astype(float)
    rhs = dc.lambda_eta * lyapunov(x) + dc.b_eta * indicator
    margin = rhs - lhs
    worst = int(np.argmin(margin))
    return DriftConditionReport(
        all_pass=bool(np.all(margin >= -1e-12)),
        worst_margin=float(margin[worst]),
        worst_x=float(x[worst]),
        n_violations=int(np.sum(margin < -1e-12)),
        constants=dc,
    )
