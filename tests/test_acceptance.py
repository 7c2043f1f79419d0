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
    _, sigmas, censored = eg.return_times_ensemble(
        ou, 0.1, 0.0, (-dc.radius, dc.radius), 10 ** 4, 10 ** 5, seed=20240817)
    est = eg.exp_moment(sigmas, censored, dc.beta_eta, 10 ** 4)
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
    eps = eg.resolve_split_epsilon(smallset_ou)
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
    for name in ("a", "b"):
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


def normal_tv(m1, v1, m2, v2):
    """Closed-form TV distance of N(m1, v1) and N(m2, v2): the densities
    cross where a quadratic in x vanishes, and between its roots the sign of
    p1 - p2 is fixed, so TV is half the sum of |P1(I) - P2(I)| over the
    pieces I.  The roots come from the cancellation-free quadratic formula."""
    a = 0.5 / v2 - 0.5 / v1
    b = m1 / v1 - m2 / v2
    c = 0.5 * m2 * m2 / v2 - 0.5 * m1 * m1 / v1 + 0.5 * math.log(v2 / v1)
    if a == 0.0:
        roots = [] if b == 0.0 else [-c / b]
    elif b * b < 4.0 * a * c:
        roots = []
    else:
        q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
        roots = sorted([q / a, c / q] if q else [0.0])
    edges = [-math.inf, *roots, math.inf]
    s1, s2 = math.sqrt(v1), math.sqrt(v2)
    return 0.5 * sum(abs((norm.cdf(hi, m1, s1) - norm.cdf(lo, m1, s1))
                         - (norm.cdf(hi, m2, s2) - norm.cdf(lo, m2, s2)))
                     for lo, hi in zip(edges[:-1], edges[1:]))


def test_12_decay_curves_on_default_grids(ou):
    # OU from x0 = 3: P^n(x0, .) = N(a^n x0, v (1 - a^(2n))) and pi = N(0, v),
    # a = 1 - eta; default grids sized from the bulk and the start keep
    # their spacing, and so the reported TV within 1e-5, as eta falls
    x0, ns = 3.0, np.arange(1, 41)
    curves = [row.curve for row in eg.step_size_study(ou, [0.5, 0.1, 0.05], x0,
                                                       ns.size, n_nodes=2049)]
    curves.append(eg.tv_decay_curve(ou, 0.02, x0, ns.size))  # 4097 nodes
    worst = 0.0
    for curve in curves:
        a = 1.0 - curve.eta
        v = curve.eta / (1.0 - a * a)
        exact = [normal_tv(a ** n * x0, v * (1.0 - a ** (2 * n)), 0.0, v) for n in ns]
        worst = max(worst, float(np.max(np.abs(curve.values - exact))))
    report("decay-curves-on-default-grids", worst <= 1e-5)


@pytest.mark.parametrize("sigma, eta", [(1.0, 0.005), (1000.0, 0.5)])
def test_13_defaults_at_small_eta_and_large_sigma(tmp_path, sigma, eta):
    # no [grid]: the default grid follows the bulk and the kernel sd, not
    # the return set, whose radius grows like 1/eta and sigma^2
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[drift]\nkind = ou\nsigma = {sigma!r}\n[experiment]\n"
                   f"eta = {eta!r}\neta_list = {eta!r}\n")
    ok = True
    for sub in ("invariant", "tv-decay", "study") if sigma == 1.0 else ("invariant",):
        out = tmp_path / sub
        ok &= cli.main([sub, "--config", str(cfg), "--out", str(out)]) == 0
    lines = (tmp_path / "invariant" / "report.txt").read_text().splitlines()
    variance = float(next(l for l in lines if l.startswith("variance=")).partition("=")[2])
    exact = eta * sigma ** 2 / (1.0 - (1.0 - eta) ** 2)
    ok &= abs(variance - exact) <= 1e-6 * exact
    ok &= "check:fixed_point=PASS" in lines
    report(f"defaults-sigma-{sigma!r}-eta-{eta!r}", ok)


# Baseline defects with exact oracles, as strict xfails: a change that
# mends one turns its xfail into an XPASS failure and removes the marker.

def _ou_run(tmp_path, sub, experiment):
    cfg = tmp_path / f"{sub}.ini"
    cfg.write_text("[drift]\nkind = ou\n[experiment]\n" + "".join(
        f"{k} = {v}\n" for k, v in experiment.items()))
    out = tmp_path / sub
    assert cli.main([sub, "--config", str(cfg), "--out", str(out)]) == 0
    return out


def _csv_rows(path):
    """A CSV artifact's data rows, below its comment and header lines."""
    return [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith("#")][1:]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_study_rate_per_unit_time_is_exact(tmp_path):
    # OU's spectral gap is kappa*eta, so the per-unit-time rate at
    # eta = 0.02 is (1 - eta)^(-1/eta) = 2.746; the fitted slope gives 1.666
    out = _ou_run(tmp_path, "study", {"eta_list": 0.02, "x0": 3.0,
                                      "n_steps": 40})
    header, row = (out / "study.csv").read_text().splitlines()
    rate = float(dict(zip(header.split(","), row.split(",")))
                 ["delta_per_unit_time"])
    assert abs(rate - (1.0 - 0.02) ** (-1.0 / 0.02)) <= 1e-6


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
@pytest.mark.parametrize("eta", [0.5, 0.1, 0.02, 0.005])
def test_tv_decay_matches_closed_form(tmp_path, eta):
    # P^n(3, .) = N(a^n 3, v (1 - a^(2n))) and pi = N(0, v), a = 1 - eta
    out = _ou_run(tmp_path, "tv-decay", {"eta": eta, "x0": 3.0, "n_steps": 20})
    rows = _csv_rows(out / "curve_main.csv")
    a = 1.0 - eta
    v = eta / (1.0 - a * a)
    for n in (1, 2, 5, 20):
        exact = normal_tv(a ** n * 3.0, v * (1.0 - a ** (2 * n)), 0.0, v)
        assert abs(float(rows[n - 1][1]) - exact) <= 1e-8, n


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
def test_tv_decay_writes_an_envelope(tmp_path):
    out = _ou_run(tmp_path, "tv-decay", {"eta": 0.5, "x0": 3.0, "n_steps": 20})
    rows = _csv_rows(out / "curve_main.csv")
    assert all(envelope for _, _, envelope in rows)
    a, v = 0.5, 0.5 / 0.75
    assert all(float(envelope) >= normal_tv(a ** n * 3.0, v * (1.0 - a ** (2 * n)),
                                            0.0, v)
               for n, (_, _, envelope) in enumerate(rows, 1))


def _report_values(out):
    """report.txt as {key: value}, split at the last '='."""
    lines = (out / "report.txt").read_text().splitlines()
    return dict(line.rpartition("=")[::2] for line in lines)


def _split_sim_power(out, rep):
    # Kac: the path's expected atom visits are eps times its steps in C,
    # and the regenerative check needs 30 blocks
    in_c = sum(int(row[3]) for row in _csv_rows(out / "trace.csv")[1:])
    return float(rep["epsilon_split"]) * in_c >= 30


def _atom_check_power(out, rep):
    # the identity check at k can fail only if no hit at all would fail it
    return all(float(exact) > 3.0 * max(float(se), 1e-12)
               for _, _, exact, se in _csv_rows(out / "atom_check.csv"))


def _uniform_sup_power(out, rep):
    # the envelope at the last n bounds something and is not already 0
    return 0.0 < float(_csv_rows(out / "uniform_sup.csv")[-1][3]) <= 0.5


def _return_times_power(out, rep):
    # the expected replicates whose first step leaves D = [-r, r]; OU at
    # eta = 0.005 steps from x0 to N(0.995 x0, 0.005)
    rows = _csv_rows(out / "return_times.csv")
    mean, r, sd = 0.995 * float(rows[0][1]), float(rep["radius"]), math.sqrt(0.005)
    return len(rows) * (norm.sf((r - mean) / sd) + norm.cdf((-r - mean) / sd)) >= 10


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
@pytest.mark.parametrize("sub, kind, power", [
    ("split-sim", "ou", _split_sim_power),
    ("atom-check", "ou", _atom_check_power),
    ("uniform-sup", "bounded", _uniform_sup_power),
    ("uniform-sup", "ou", _uniform_sup_power),
    ("return-times", "ou", _return_times_power)],
    ids=["split-sim", "atom-check", "uniform-sup-bounded", "uniform-sup-ou",
         "return-times"])
def test_small_eta_defaults_have_power(tmp_path, sub, kind, power):
    # eta = 0.005 with every other setting at its default, seed 5: a check
    # with no power must say VACUOUS rather than PASS
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[drift]\nkind = {kind}\n[experiment]\neta = 0.005\n")
    out = tmp_path / "o"
    assert cli.main([sub, "--config", str(cfg), "--out", str(out),
                     "--seed", "5"]) in (0, 1)
    rep = _report_values(out)
    assert "VACUOUS" in {v for k, v in rep.items() if k.startswith("check:")} \
        or power(out, rep)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
@pytest.mark.parametrize("eta", [0.5, 0.1, 0.02, 0.005])
def test_invariant_reports_a_certified_pi_error(tmp_path, eta):
    # the true TV distance of the computed pi to N(0, v), on its own nodes
    out = _ou_run(tmp_path, "invariant", {"eta": eta})
    x, p = np.array(_csv_rows(out / "invariant_density.csv"), dtype=float).T
    w = np.full(x.size, x[1] - x[0])
    w[[0, -1]] *= 0.5
    v = eta / (1.0 - (1.0 - eta) ** 2)
    true_tv = 0.5 * float(w @ np.abs(p - norm.pdf(x, scale=math.sqrt(v))))
    assert float(_report_values(out)["pi_error_bound"]) >= true_tv
