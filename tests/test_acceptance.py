"""End-to-end acceptance suite.

One test per headline guarantee; each prints a single PASS/FAIL line so the
suite reads as a checklist under pytest -s.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

import emergolab as eg
from emergolab import cli, empirical
from emergolab.drifts import eta_thresholds, lambda_of, radius_of

pytestmark = pytest.mark.filterwarnings("ignore:lambda")


def report(name, ok):
    print(f"acceptance[{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_01_ou_invariant_oracle(ou, grid12):
    ok = True
    for eta in (0.1, 0.5):
        pi = eg.invariant_measure(ou, eta, grid12).measure
        var = eta / (1.0 - (1.0 - eta) ** 2)
        oracle = eg.gaussian_on_grid(grid12, 0.0, var)
        ok &= eg.tv_distance(pi, oracle) <= 1e-6
    report("ou-invariant-oracle", ok)


def test_02_drift_condition(ou, bp):
    ok = True
    for spec in (ou, bp):
        eta0 = eta_thresholds(spec)[2]
        for eta in (eta0 / 4, eta0 / 2, eta0):
            r = radius_of(spec, eta)
            rep = eg.verify_drift_condition(
                spec, eta, np.linspace(-10 * r, 10 * r, 10 ** 4))
            ok &= rep.all_pass and rep.n_violations == 0
    report("drift-condition", ok)


def test_03_minorization(ou, smallset_ou):
    ok = abs(smallset_ou.epsilon - 0.1189) <= 1e-4
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 10 ** 4)
    y = rng.uniform(-1, 1, 10 ** 4)
    p = eg.transition_density(ou, 0.5, x, y)
    ok &= bool(np.all(p >= smallset_ou.epsilon * smallset_ou.nu_pdf(y) - 1e-12))
    report("minorization", ok)


def test_04_exponential_return_moment(ou):
    dc = eg.derive_constants(ou, 0.1)
    est = eg.exp_beta_sigma(ou, 0.1, 0.0, dc.beta_eta,
                            (-dc.radius, dc.radius), 10 ** 5,
                            horizon=10 ** 4, seed=20240817)
    bound = eg.lyapunov(0.0) + dc.b_eta * dc.beta_eta
    ok = (abs(bound - 1.598) < 1e-3 and est.usable
          and est.mean < bound and est.ci_high < bound
          and est.censor_bias_bound < 1e-6)
    report("exp-return-moment", ok)


def test_05_split_marginal(ou, smallset_ou, grid12):
    n_rep, n_steps = 10 ** 5, 5
    rng = np.random.default_rng(5)
    xs, _ = eg.split_ensemble(ou, 0.5, smallset_ou, np.zeros(n_rep),
                              n_steps, rng)
    dist = eg.n_step_from_point(ou, 0.5, 0.0, n_steps, grid12)
    edges = empirical.coarse_bin_edges(dist)
    q = empirical.binned_probabilities(dist, edges)
    tv = empirical.binned_tv(xs[n_steps], dist, edges)
    report("split-marginal", tv <= empirical.binned_tv_envelope(q, n_rep, 4.0))


def test_06_atom_identity(ou, smallset_ou, grid12):
    checks = eg.atom_return_check(ou, 0.5, smallset_ou, [1, 2, 3, 5],
                                  20000, grid12, seed=7)
    eps = eg.resolve_split_epsilon(ou, 0.5, smallset_ou)
    ok = checks[0].exact == pytest.approx(eps)
    for c in checks:
        ok &= abs(c.empirical - c.exact) <= 3 * c.se
    report("atom-identity", ok)


def test_07_regenerative_invariance(ou, smallset_ou):
    rng = np.random.default_rng(3)
    blocks = eg.run_split(ou, 0.5, smallset_ou, 0.0, 40000, rng)
    vals = np.where(np.abs(blocks.xs) <= 1.0, 1.0, 0.0)
    est = eg.regenerative_pi_estimate(blocks, values=vals)
    report("regenerative-invariance",
           blocks.n_blocks >= 10 ** 3 and est.ci_low <= 0.77934 <= est.ci_high)


def test_08_uniform_ergodicity(ou, bp):
    x_grid = np.linspace(-5, 5, 201)
    rep_bp = eg.uniform_sup_tv(bp, 0.5, x_grid, list(range(1, 21)))
    ok = abs(rep_bp.m - 0.4795) <= 1e-3
    ok &= bool(np.all(rep_bp.sup_tv <= (1 - rep_bp.m) ** np.arange(1, 21) + 1e-6))
    rep_ou = eg.uniform_sup_tv(ou, 0.5, x_grid, list(range(1, 21)))
    ok &= abs(rep_ou.m - 1.0) <= 1e-9
    ok &= bool(np.all(rep_ou.spread < 1e-8))
    report("uniform-ergodicity", ok)


def test_09_geometric_rate_fit(ou, grid12):
    curve = eg.tv_decay_curve(ou, 0.5, 3.0, 40, grid=grid12)
    fit = eg.fit_geometric_rate(curve)
    ok = 1.8 <= fit.delta_hat <= 2.2
    synth = eg.DecayCurve(initial="synthetic", eta=0.5,
                          values=0.55 ** np.arange(1, 31),
                          tail_uncertainty=0.0, floor=1e-12)
    ok &= abs(eg.fit_geometric_rate(synth).delta_hat - 1 / 0.55) <= 1e-6
    ok &= eg.summability_check(curve, (1 + fit.delta_hat) / 2).consistent
    ok &= not eg.summability_check(curve, 2 * fit.delta_hat).consistent
    report("geometric-rate-fit", ok)


def test_10_threshold_monotonicity(ou, bp):
    ok = True
    for spec in (ou, bp):
        eta1, eta2, _ = eta_thresholds(spec)
        g1 = np.linspace(eta1 / 1000, eta1, 1000)
        ok &= bool(np.all(np.diff(lambda_of(spec, g1)) <= 1e-15))
        g2 = np.linspace(eta2 / 1000, min(eta2, 0.999), 1000)
        ok &= bool(np.all(np.diff(radius_of(spec, g2)) <= 1e-9))
    ok &= eta_thresholds(ou)[2] == pytest.approx(0.125)
    report("threshold-monotonicity", ok)


def test_11_determinism(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[drift]\nkind = ou\n\n[experiment]\neta = 0.5\n"
                   "x0 = 0.0\nn_steps = 4000\n")
    runs = []
    for name, workers in (("w1", "1"), ("w8", "8")):
        out = tmp_path / name
        status = cli.main(["split-sim", "--config", str(cfg),
                           "--out", str(out), "--seed", "1234"])
        assert status == 0
        runs.append(out)
    ok = True
    for fname in ("trace.csv", "blocks.csv", "report.txt",
                  "config.resolved.ini"):
        ok &= ((runs[0] / fname).read_bytes() == (runs[1] / fname).read_bytes())
    report("determinism", ok)
