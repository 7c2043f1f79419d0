import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emergolab as eg
from emergolab.drifts import (ROUNDING, b_of, eta_thresholds, eval_drift,
                              lambda_of, radius_of)
from emergolab.errors import PreconditionError


class TestDriftSpecs:
    def test_ou_constants(self, ou):
        assert ou.L == 1.0
        assert ou.K1 == 1.0
        assert ou.K2 == 0.0
        assert ou.c_offset == 0.0
        assert ou.g0 == 0.0

    def test_bounded_constants(self, bp):
        assert bp.L == 1.5
        assert bp.K1 == 0.5
        assert bp.g0 == 0.0

    def test_bounded_rejects_overwhelming_perturbation(self):
        with pytest.raises(ValueError):
            eg.bounded_perturbation(kappa=1.0, a=1.5)

    def test_eval_vectorized(self, bp):
        xs = np.array([-2.0, 0.0, 3.0])
        expect = -xs + 0.5 * np.tanh(xs)
        assert np.allclose(eval_drift(bp, xs), expect)

    def test_eval_rejects_nonfinite(self, ou):
        with pytest.raises(ValueError):
            eval_drift(ou, float("nan"))

    def test_custom_requires_callable(self):
        with pytest.raises(ValueError):
            eg.drifts.DriftSpec(kind="custom", sigma=1.0, L=1.0, K1=1.0)


class TestAssumptionAudit:
    def test_builtins_pass(self, ou, bp):
        pts = np.linspace(-30, 30, 2001)
        for spec in (ou, bp):
            rep = eg.check_assumptions(spec, pts)
            assert rep.all_ok, rep

    @pytest.mark.parametrize("span", [10.0, 1e3, 1e5])
    def test_exact_constants_pass_at_any_span(self, span):
        # rounding grows like span^2; the tolerance scales with it, while an
        # OU K1 (tight at every pair) overstated by a relative 1e-12 fails
        import dataclasses
        pts = np.linspace(-span, span, 4001)
        ou = eg.ornstein_uhlenbeck(kappa=2.5, sigma=0.7)
        for spec in (ou, eg.bounded_perturbation(kappa=3.0, a=-2.0, sigma=0.3)):
            assert eg.check_assumptions(spec, pts).all_ok, spec
        bad = dataclasses.replace(ou, K1=ou.K1 * (1.0 + 1e-12))
        assert not eg.check_assumptions(bad, pts).dissipativity_ok

    def test_understated_lipschitz_flagged(self):
        bad = eg.custom(lambda x: -3.0 * x, sigma=1.0, L=1.0, K1=1.0)
        rep = eg.check_assumptions(bad, np.linspace(-10, 10, 501))
        assert not rep.lipschitz_ok
        assert rep.lipschitz_max > 2.9

    def test_understated_quadratic_flagged(self):
        # x*g(x) = -x^2/2 + 5 needs c_offset = 5, not 0
        bad = eg.custom(lambda x: -0.5 * x + 5.0 / x if x != 0 else 0.0,
                        sigma=1.0, L=10.0, K1=1.0, K2=100.0, c_offset=0.0)
        rep = eg.check_assumptions(bad, np.linspace(1.0, 10.0, 301))
        assert not rep.quadratic_ok

    def test_flags_do_not_raise(self):
        bad = eg.custom(lambda x: -5.0 * x, sigma=1.0, L=1.0, K1=1.0)
        rep = eg.check_assumptions(bad, np.linspace(-5, 5, 201))
        assert isinstance(rep.all_ok, bool)


class TestDerivedConstants:
    # frozen oracle: OU kappa=sigma=1, eta=0.1
    def test_ou_eta_01(self, ou):
        dc = eg.derive_constants(ou, 0.1)
        assert dc.lambda_eta == pytest.approx(0.97, abs=1e-12)
        assert dc.b_eta == pytest.approx(0.58, abs=1e-12)
        assert dc.beta_eta == pytest.approx(1.0 / 0.97, rel=1e-12)
        assert dc.radius == pytest.approx(11.6, abs=1e-9)
        assert dc.beta_valid

    def test_ou_thresholds(self, ou):
        eta1, eta2, eta0 = eta_thresholds(ou)
        assert eta1 == pytest.approx(0.125)
        assert eta2 == 1.0
        assert eta0 == pytest.approx(0.125)

    def test_bp_thresholds(self, bp):
        eta1, eta2, eta0 = eta_thresholds(bp)
        assert eta1 == pytest.approx(0.5 / (8 * 2.25))
        assert eta2 == 1.0
        assert eta0 == eta1

    def test_invalid_lambda_flagged_not_raised(self, ou):
        dc = eg.derive_constants(ou, 0.5)
        assert dc.lambda_eta == pytest.approx(1.25)
        assert not dc.beta_valid
        assert math.isnan(dc.beta_eta)

    def test_eta2_branch_large_g0(self):
        # g(0)^2 > L^2 activates the finite eta2 branch
        spec = eg.custom(lambda x: -x + 10.0, sigma=1.0, L=1.0, K1=1.0,
                         c_offset=50.0)
        eta1, eta2, eta0 = eta_thresholds(spec)
        assert eta2 == pytest.approx(math.sqrt(1.0 / (4.0 * 99.0)))
        assert eta0 == min(eta1, eta2)

    def test_eta_range_validated(self, ou):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                eg.derive_constants(ou, bad)


class TestLambdaRadiusMonotone:
    def test_lambda_nonincreasing_up_to_eta1(self, ou, bp):
        for spec in (ou, bp):
            eta1 = eta_thresholds(spec)[0]
            etas = np.linspace(eta1 / 1000, eta1, 1000)
            lam = lambda_of(spec, etas)
            assert np.all(np.diff(lam) <= 1e-15)
            assert np.all((lam > 0) & (lam < 1))

    def test_radius_nonincreasing_up_to_eta2(self, ou, bp):
        for spec in (ou, bp):
            eta2 = eta_thresholds(spec)[1]
            etas = np.linspace(eta2 / 1000, min(eta2, 0.999), 1000)
            f1 = radius_of(spec, etas)
            assert np.all(np.diff(f1) <= 1e-9)


class TestDriftCondition:
    def test_closed_form_pv(self, ou):
        x = np.array([0.0, 1.0, -2.0])
        mean = x - 0.1 * x
        assert np.allclose(eg.closed_form_PV(ou, 0.1, x), 1 + mean ** 2 + 0.1)

    def test_holds_on_grid(self, ou, bp):
        for spec in (ou, bp):
            eta0 = eta_thresholds(spec)[2]
            rep = eg.verify_drift_condition(
                spec, eta0, np.linspace(-200, 200, 5001))
            assert rep.all_pass
            assert rep.n_violations == 0
            assert rep.worst_margin >= 0

    def test_rejects_invalid_lambda(self, ou):
        with pytest.raises(PreconditionError, match="eta0"):
            eg.verify_drift_condition(ou, 0.5, np.linspace(-5, 5, 11))

    def test_violation_detected_outside_theory(self, ou):
        # dropping b must surface as a violation inside D (b is not slack)
        dc = eg.derive_constants(ou, 0.1)
        lhs = eg.closed_form_PV(ou, 0.1, 0.0)
        rhs_no_b = dc.lambda_eta * eg.lyapunov(0.0)
        assert lhs > rhs_no_b

    def test_lyapunov(self):
        assert eg.lyapunov(3.0) == 10.0
        assert np.allclose(eg.lyapunov(np.array([0.0, 2.0])), [1.0, 5.0])


@st.composite
def _drift(draw):
    kind = draw(st.sampled_from(["ou", "bounded", "custom"]))
    kappa = draw(st.floats(0.2, 5.0))
    if kind == "ou":
        return eg.ornstein_uhlenbeck(kappa=kappa)
    if kind == "bounded":
        return eg.bounded_perturbation(
            kappa=kappa, a=draw(st.floats(-kappa, kappa, exclude_max=True)))
    return eg.drifts.custom(lambda x: -kappa * x + math.sin(x), sigma=1.0,
                            L=kappa + 1.0, K1=kappa)


@settings(max_examples=300, deadline=None, database=None)
@given(spec=_drift(), x=st.floats(-1e100, 1e100))
def test_eval_drift_float_matches_array(spec, x):
    # one split chain evaluates g on Python floats; the values must be the
    # array path's, bit for bit (signed zeros included)
    one = eg.drifts.eval_drift(spec, x)
    assert type(one) is float
    ref = eg.drifts.eval_drift(spec, np.array([x]))[0]
    assert np.float64(one).tobytes() == ref.tobytes()


@pytest.mark.parametrize("spec", [
    eg.ornstein_uhlenbeck(kappa=2.0),
    eg.bounded_perturbation(kappa=1.0, a=0.5),
    eg.drifts.custom(math.sin, sigma=1.0, L=1.0, K1=1.0),
], ids=["ou", "bounded", "custom"])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_eval_drift_float_rejects_nonfinite(spec, x):
    with pytest.raises(ValueError, match="drift argument must be finite"):
        eg.drifts.eval_drift(spec, x)


# kappa = 9 makes lambda's 2*L^2*eta^2 the leading term, so that an ulp of
# eta^2 shows in lambda(eta)
_BUILTINS = [eg.ornstein_uhlenbeck(kappa=9.0, sigma=0.8),
             eg.bounded_perturbation(kappa=1.0, a=0.5, sigma=1.1)]


@pytest.mark.parametrize("spec", _BUILTINS, ids=["ou", "bounded"])
def test_scalars_float_matches_array(spec):
    # a float gives a float equal to the element of the 1-element array
    # result; a float v ** 2 (libm pow) misses the array's v * v on about
    # one input in a thousand, so the points are many and full-mantissa
    rnd = random.Random(7)
    etas = [rnd.uniform(1e-3, 0.999) for _ in range(3000)]
    xs = [rnd.uniform(-50.0, 50.0) for _ in range(3000)]
    cases = [(f, eta) for eta in etas for f in (
        lambda v: lambda_of(spec, v), lambda v: b_of(spec, v),
        lambda v: radius_of(spec, v))]
    cases += [(eg.lyapunov, x) for x in xs]
    cases += [(lambda v, eta=eta: eg.closed_form_PV(spec, eta, v), x)
              for eta in (0.01, 0.1, 0.3) for x in xs[:1000]]
    for f, v in cases:
        one = f(v)
        assert type(one) is float
        assert one == f(np.array([v]))[0], v


def _allowance(values, tol):
    """A bound on |max(values) - max(other)| when each |values_i - other_i|
    is at most tol_i: either maximum sits where values is within 2 max(tol)
    of its own."""
    return float(np.max(tol[values >= np.max(values) - 2.0 * np.max(tol)]))


def _numpy_audit(spec, probe_points):
    """check_assumptions on numpy arrays (the chain's g, np.tanh), with the
    rounding allowance of each reported maximum."""
    pts = np.sort(np.asarray(probe_points, dtype=float))
    g = eval_drift(spec, pts)
    rnd = random.Random(20240817)
    i = np.array(rnd.choices(range(pts.size), k=4096))
    j = np.array(rnd.choices(range(pts.size), k=4096))
    step = np.arange(1, pts.size)
    a, b = np.concatenate([step, i]), np.concatenate([step - 1, j])
    keep = pts[a] != pts[b]
    a, b = a[keep], b[keep]
    dx, dg = pts[a] - pts[b], g[a] - g[b]
    adx, adg = np.abs(dx), np.abs(dg)
    g_size = np.abs(g[a]) + np.abs(g[b]) + adg
    quot = adg / adx
    dissip = dg * dx + spec.K1 * dx ** 2
    quad = pts * g + 0.5 * spec.K1 * pts ** 2
    u = ROUNDING * np.finfo(float).eps
    steps = np.diff(pts)
    steps = steps[steps > 0]
    h = min(max(1e-5, float(np.min(steps)) if steps.size else 1e-5), 1e-3)
    g_hi, g_lo = eval_drift(spec, pts + h), eval_drift(spec, pts - h)
    gpp = np.abs((g_hi - 2.0 * g + g_lo) / h ** 2)
    report = eg.AssumptionReport(
        lipschitz_max=float(np.max(quot)),
        lipschitz_ok=bool(np.max(quot - u * g_size / adx) <= spec.L),
        dissipativity_max=float(np.max(dissip)),
        dissipativity_ok=bool(np.max(
            dissip - u * (adx * g_size + spec.K1 * dx ** 2)) <= spec.K2),
        quadratic_max=float(np.max(quad)),
        quadratic_ok=bool(np.max(quad - u * (
            np.abs(pts * g) + 0.5 * spec.K1 * pts ** 2)) <= spec.c_offset),
        second_derivative_max=float(np.max(gpp)))
    allowed = {
        "lipschitz_max": _allowance(quot, u * g_size / adx),
        "dissipativity_max": _allowance(
            dissip, u * (adx * g_size + spec.K1 * dx ** 2)),
        "quadratic_max": _allowance(
            quad, u * (np.abs(pts * g) + 0.5 * spec.K1 * pts ** 2)),
        "second_derivative_max": _allowance(
            gpp, u * (np.abs(g_hi) + 2.0 * np.abs(g) + np.abs(g_lo)) / h ** 2)}
    return report, allowed


def _numpy_drift_condition(spec, eta, x_grid):
    """verify_drift_condition on numpy arrays (the chain's P V), with the
    rounding allowance of the worst margin."""
    dc = eg.derive_constants(spec, eta)
    x = np.asarray(x_grid, dtype=float)
    lhs = eg.closed_form_PV(spec, eta, x)
    rhs = dc.lambda_eta * eg.lyapunov(x) + dc.b_eta * (np.abs(x) <= dc.radius)
    margin = rhs - lhs
    worst = int(np.argmin(margin))
    report = eg.drifts.DriftConditionReport(
        all_pass=bool(np.all(margin >= -1e-12)),
        worst_margin=float(margin[worst]),
        worst_x=float(x[worst]),
        n_violations=int(np.sum(margin < -1e-12)))
    u = ROUNDING * np.finfo(float).eps
    return report, _allowance(-margin, u * (lhs + np.abs(rhs)))


def _audit_cases():
    ou = eg.ornstein_uhlenbeck(kappa=2.5, sigma=0.7)
    bounded = eg.bounded_perturbation(kappa=3.0, a=-2.0, sigma=0.3)
    rnd = random.Random(11)
    shuffled = [rnd.uniform(-40.0, 40.0) for _ in range(3001)]
    for span in (10.0, 116.0, 1e5):
        grid = np.linspace(-span, span, 4001)
        yield "ou", ou, grid
        yield "ou", eg.ornstein_uhlenbeck(), grid
        yield "ou", dataclasses.replace(ou, K1=ou.K1 * (1.0 + 1e-12)), grid
        yield "bounded", bounded, grid
        yield "bounded", eg.bounded_perturbation(), grid
        yield "bounded", dataclasses.replace(bounded, L=2.0), grid
    yield "ou", eg.ornstein_uhlenbeck(kappa=0.7), shuffled
    yield "bounded", eg.bounded_perturbation(a=0.9), shuffled
    yield "custom", eg.custom(lambda x: -x + math.sin(x), sigma=1.0, L=1.5,
                              K1=0.5, K2=8.0, c_offset=4.0), shuffled


def test_audit_matches_numpy_reference():
    # the float audit against the array computation: every field equal on
    # OU and a custom drift; on the bounded drift (libm tanh against
    # np.tanh) every flag equal and each maximum within its allowance
    for kind, spec, pts in _audit_cases():
        got = eg.check_assumptions(spec, pts)
        ref, allowed = _numpy_audit(spec, pts)
        if kind != "bounded":
            assert got == ref, spec
            continue
        for f in dataclasses.fields(ref):
            mine, theirs = getattr(got, f.name), getattr(ref, f.name)
            if f.name.endswith("_ok"):
                assert mine is theirs, (spec, f.name)
            else:
                assert type(mine) is float
                assert abs(mine - theirs) <= allowed[f.name], (spec, f.name)


@pytest.mark.parametrize("spec", _BUILTINS, ids=["ou", "bounded"])
def test_drift_condition_matches_numpy_reference(spec):
    eta0 = eta_thresholds(spec)[2]
    for eta in (eta0 / 4, eta0 / 2, eta0):
        r = radius_of(spec, eta)
        for grid in (np.linspace(-10 * r, 10 * r, 10 ** 4),
                     np.linspace(-0.5 * r, 3 * r, 777)):
            got = eg.verify_drift_condition(spec, eta, grid)
            ref, allowed = _numpy_drift_condition(spec, eta, grid)
            if spec.kind == "ou":
                assert got == ref
            else:
                assert (got.all_pass, got.n_violations) == (ref.all_pass,
                                                            ref.n_violations)
                assert abs(got.worst_margin - ref.worst_margin) <= allowed


def test_audits_reject_nonfinite_points(ou, bp):
    for spec in (ou, bp):
        with pytest.raises(ValueError, match="drift argument must be finite"):
            eg.check_assumptions(spec, [0.0, 1.0, math.nan])
        with pytest.raises(ValueError, match="drift argument must be finite"):
            eg.verify_drift_condition(spec, 0.01, [0.0, math.inf])
