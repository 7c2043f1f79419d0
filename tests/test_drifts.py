import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emergolab as eg
from emergolab.drifts import b_of, eta_thresholds, lambda_of, radius_of
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
        assert np.allclose(bp.g(xs), expect)

    def test_eval_rejects_nonfinite(self, ou):
        with pytest.raises(ValueError):
            ou.g(float("nan"))

    def test_custom_requires_callable(self):
        with pytest.raises(ValueError):
            eg.drifts.DriftSpec(kind="custom", sigma=1.0, L=1.0, K1=1.0)


class TestAssumptionAudit:
    def test_builtins_pass(self, ou, bp):
        pts = np.linspace(-30, 30, 2001)
        for spec in (ou, bp):
            rep = eg.check_assumptions(spec, pts)
            assert rep.all_ok, rep.to_text()

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

    def test_b_variant(self, ou):
        # for L = 1 both variants coincide; for L != 1 they differ
        assert b_of(ou, 0.1, "k1l") == b_of(ou, 0.1, "k1")
        fast = eg.ornstein_uhlenbeck(kappa=2.0)
        assert b_of(fast, 0.01, "k1l") != b_of(fast, 0.01, "k1")
        with pytest.raises(ValueError):
            b_of(ou, 0.1, "other")

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
