import math
import warnings

import numpy as np
import pytest

import emergolab as eg
from emergolab.errors import GridTooSmallError
from emergolab.kernel import gaussian_on_grid
from emergolab.rates import invariant_cached, write_study_csv

from conftest import gaussian_tv


@pytest.fixture(scope="module")
def pi_ou_05(ou, grid12):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return invariant_cached(ou, 0.5, grid12, 1e-9)


@pytest.fixture(scope="module")
def curve_x3(ou, grid12):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return eg.tv_decay_curve(ou, 0.5, 3.0, 40, grid=grid12)


class TestDecayCurve:
    def test_monotone(self, curve_x3):
        assert np.all(np.diff(curve_x3.values) <= 1e-8)

    def test_ar1_oracle(self, ou, grid12):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            curve = eg.tv_decay_curve(ou, 0.5, 0.0, 15, grid=grid12)
        for n in range(1, 16):
            vn = (2 / 3) * (1 - 0.25 ** n)
            want = gaussian_tv(0, vn, 0, 2 / 3)
            assert abs(curve.values[n - 1] - want) < 1e-6

    def test_one_step_oracle_from_three(self, curve_x3):
        want = gaussian_tv(1.5, 0.5, 0, 2 / 3)
        assert curve_x3.values[0] == pytest.approx(want, abs=1e-6)

    def test_stationary_start_floors(self, ou, grid12, pi_ou_05):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            curve = eg.tv_decay_curve(ou, 0.5, pi_ou_05, 5, grid=grid12)
        assert np.all(curve.values <= 10 * 1e-9)
        assert curve.usable().size == 0

    def test_csv_round(self, curve_x3, tmp_path):
        curve_x3.write_csv(tmp_path / "c.csv")
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines[0].startswith("# experiment=")
        assert lines[1] == "n,d_tv,envelope"
        assert len(lines) == 42
        assert "np.float64" not in lines[2]


class TestRateFit:
    def test_ou_from_three(self, curve_x3):
        fit = eg.fit_geometric_rate(curve_x3)
        assert 1.8 <= fit.delta_hat <= 2.2

    def test_ou_from_zero_variance_rate(self, ou, grid12):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            curve = eg.tv_decay_curve(ou, 0.5, 0.0, 30, grid=grid12)
        fit = eg.fit_geometric_rate(curve)
        assert 3.6 <= fit.delta_hat <= 4.4

    def test_synthetic_exact(self):
        curve = eg.DecayCurve(initial="synthetic", eta=0.5,
                              values=0.7 ** np.arange(1, 31),
                              tail_uncertainty=0.0, floor=1e-12)
        fit = eg.fit_geometric_rate(curve)
        assert fit.delta_hat == pytest.approx(1 / 0.7, abs=1e-6)
        assert fit.residual_rms < 1e-10

    def test_too_few_points(self):
        curve = eg.DecayCurve(initial="synthetic", eta=0.5,
                              values=np.array([0.5, 0.25, 1e-15, 1e-15, 1e-15]),
                              tail_uncertainty=0.0, floor=1e-8)
        with pytest.raises(ValueError, match="floor"):
            eg.fit_geometric_rate(curve)

    def test_head_dropped(self):
        # a hump before clean geometric decay must not pollute the fit
        n = np.arange(1, 41)
        vals = 0.5 ** n
        vals[:5] = [0.9, 0.89, 0.7, 0.3, 0.1]
        curve = eg.DecayCurve(initial="synthetic", eta=0.5, values=vals,
                              tail_uncertainty=0.0, floor=1e-14)
        fit = eg.fit_geometric_rate(curve)
        assert fit.delta_hat == pytest.approx(2.0, rel=1e-3)
        assert fit.fit_window[0] > 1


class TestSummability:
    def test_below_rate_consistent(self, curve_x3):
        fit = eg.fit_geometric_rate(curve_x3)
        rep = eg.summability_check(curve_x3, (1 + fit.delta_hat) / 2)
        assert rep.consistent
        assert math.isfinite(rep.partial_sum)

    def test_above_rate_flagged(self, curve_x3):
        fit = eg.fit_geometric_rate(curve_x3)
        rep = eg.summability_check(curve_x3, 2 * fit.delta_hat)
        assert not rep.consistent

    def test_weighted_sum_stabilizes(self, ou, grid12):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            curve = eg.tv_decay_curve(ou, 0.5, 0.0, 30, grid=grid12)
        rep = eg.summability_check(curve, 2.0)
        assert rep.consistent  # 2^n * 4^{-n} is summable

    def test_delta_validated(self, curve_x3):
        with pytest.raises(ValueError):
            eg.summability_check(curve_x3, 1.0)

    def test_weight_sequence_vanishes_below_rate(self, curve_x3):
        fit = eg.fit_geometric_rate(curve_x3)
        dprime = (1 + fit.delta_hat) / 2
        ns = curve_x3.usable()
        seq = dprime ** ns * curve_x3.values[ns - 1]
        assert seq[-1] < seq[0] * 1e-3


class TestUniformSup:
    def test_bp_envelope(self, bp):
        rep = eg.uniform_sup_tv(bp, 0.5, np.linspace(-5, 5, 51), [1, 3, 5, 10])
        assert rep.m == pytest.approx(0.4795, abs=1e-3)
        assert rep.envelope_ok

    def test_ou_rows_identical(self, ou):
        rep = eg.uniform_sup_tv(ou, 0.5, np.linspace(-5, 5, 51), [1, 2])
        assert rep.m == pytest.approx(1.0, abs=1e-9)
        assert np.all(rep.spread < 1e-8)

    def test_n_zero_convention(self, ou):
        rep = eg.uniform_sup_tv(ou, 0.5, np.linspace(-5, 5, 11), [0, 1])
        assert rep.sup_tv[0] == 1.0

    def test_exploratory_without_minorization(self, grid12):
        fast = eg.ornstein_uhlenbeck(kappa=2.0)
        with pytest.warns(UserWarning, match="exploratory"), \
             warnings.catch_warnings():
            warnings.simplefilter("always")
            rep = eg.uniform_sup_tv(fast, 0.1, np.linspace(-2, 2, 5), [1],
                                    grid=grid12)
        assert rep.m is None
        assert rep.envelope is None

    def test_exploratory_leak_raises(self):
        fast = eg.ornstein_uhlenbeck(kappa=2.0)
        small = eg.Grid(-1.0, 1.0, 513)
        with pytest.warns(UserWarning, match="exploratory"), \
             pytest.raises(GridTooSmallError, match="leakage"):
            eg.uniform_sup_tv(fast, 0.5, [0.0, 0.9], [1, 2, 3], grid=small)
        with pytest.raises(GridTooSmallError, match="leakage"):
            eg.tv_decay_curve(fast, 0.5, 0.9, 3, grid=small)

    @pytest.mark.parametrize("x0", [0.0, 1.5])
    def test_single_start_matches_decay_curve(self, grid12, x0):
        # both tables propagate through the same kernel step
        fast = eg.ornstein_uhlenbeck(kappa=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = eg.uniform_sup_tv(fast, 0.1, [x0], range(1, 21), grid=grid12)
            curve = eg.tv_decay_curve(fast, 0.1, x0, 20, grid=grid12)
        np.testing.assert_allclose(rep.sup_tv, curve.values, rtol=0, atol=1e-15)

    def test_csv(self, bp, tmp_path):
        rep = eg.uniform_sup_tv(bp, 0.5, np.linspace(-2, 2, 11), [1, 2])
        rep.write_csv(tmp_path / "u.csv")
        lines = (tmp_path / "u.csv").read_text().splitlines()
        assert lines[1] == "n,sup_d_tv,spread,envelope"
        assert "np.float64" not in lines[2]


class TestStepSizeStudy:
    def test_rate_tracks_step_size(self, ou):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = eg.step_size_study(ou, [0.05, 0.1, 0.2], 3.0, 60,
                                      n_nodes=2049)
        for row in rows:
            assert row.delta_hat == pytest.approx(1 / (1 - row.eta), rel=0.1)
            assert row.m == pytest.approx(1.0, abs=1e-9)

    def test_stationary_rows_undefined(self, ou, grid12, pi_ou_05):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = eg.step_size_study(ou, [0.5], pi_ou_05, 10)
        assert rows[0].delta_hat is None
        assert rows[0].delta_per_unit_time is None

    def test_csv_deterministic(self, ou, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = eg.step_size_study(ou, [0.2, 0.5], 3.0, 20, n_nodes=1025)
        write_study_csv(rows, tmp_path / "a.csv")
        write_study_csv(rows, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
