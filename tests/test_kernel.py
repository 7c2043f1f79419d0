import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

import emergolab as eg
from emergolab.errors import ApplicabilityError, GridTooSmallError
from emergolab.kernel import gaussian_on_grid

from conftest import gaussian_tv


class TestGridMeasure:
    def test_gaussian_integral_and_tail(self, grid12):
        m = gaussian_on_grid(grid12, 0.0, 1.0)
        assert m.integral() == pytest.approx(1.0, abs=1e-8)
        assert m.tail_bound == pytest.approx(2 * norm.sf(12.0), rel=1e-6)
        assert m.mean() == pytest.approx(0.0, abs=1e-10)
        assert m.variance() == pytest.approx(1.0, abs=1e-6)

    def test_prob_interval_matches_cdf(self, grid12):
        m = gaussian_on_grid(grid12, 0.5, 2.0)
        got = m.prob_interval(-1.0, 1.0)
        want = norm.cdf(1.0, 0.5, math.sqrt(2)) - norm.cdf(-1.0, 0.5, math.sqrt(2))
        assert got == pytest.approx(want, abs=1e-6)

    def test_cdf_monotone(self, grid12):
        m = gaussian_on_grid(grid12, 0.0, 1.0)
        pts = np.linspace(-11, 11, 101)
        c = m.cdf_at(pts)
        assert np.all(np.diff(c) >= 0)
        assert c[-1] == pytest.approx(1.0, abs=1e-6)

    def test_sampling_matches_law(self, grid12):
        m = gaussian_on_grid(grid12, 0.0, 1.0)
        xs = m.sample(200000, np.random.default_rng(0))
        # DKW bound on the empirical CDF against the measure's own CDF
        from emergolab.empirical import dkw_envelope, ks_statistic
        assert ks_statistic(xs, m.cdf_at) <= dkw_envelope(200000)

    def test_normalization_enforced(self, grid12):
        with pytest.raises(ValueError, match="integrates"):
            eg.GridMeasure(grid12, np.ones(grid12.n_nodes), tail_bound=0.0)

    def test_write_csv_deterministic(self, grid12, tmp_path):
        m = gaussian_on_grid(grid12, 0.0, 1.0)
        m.write_csv(tmp_path / "a.csv")
        m.write_csv(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        header = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert header.startswith("#") and "tail_bound=" in header


class TestKernelStep:
    def test_transition_density_matches_norm(self, ou):
        x, y = 1.3, -0.2
        mean = x - 0.1 * x
        want = norm.pdf(y, mean, math.sqrt(0.1))
        assert eg.transition_density(ou, 0.1, x, y) == pytest.approx(want)

    def test_gaussian_conjugacy(self, ou, grid12):
        # OU step maps N(mu, v) to N((1-eta)mu, (1-eta)^2 v + eta sigma^2)
        xi = gaussian_on_grid(grid12, 1.0, 0.5)
        out = eg.apply_kernel(ou, 0.5, xi)
        want = gaussian_on_grid(grid12, 0.5, 0.25 * 0.5 + 0.5)
        assert eg.tv_distance(out, want) <= 1e-8

    def test_mass_preserved(self, ou, grid12):
        xi = gaussian_on_grid(grid12, 0.0, 1.0)
        out = eg.apply_kernel(ou, 0.1, xi)
        assert out.integral() == pytest.approx(1.0, abs=1e-7)
        assert out.tail_bound >= xi.tail_bound

    def test_leak_raises_with_suggestion(self, ou):
        small = eg.Grid(-1.0, 1.0, 2049)
        xi = gaussian_on_grid(small, 0.0, 0.02)
        with pytest.raises(GridTooSmallError) as err:
            eg.apply_kernel(ou, 0.5, xi)
        assert err.value.suggested_upper > 1.0
        assert err.value.suggested_lower < -1.0

    def test_n_step_oracle(self, ou, grid12):
        # AR(1): P^n(0,.) = N(0, v_n), v_n = eta sigma^2 (1-rho^{2n})/(1-rho^2)
        out = eg.n_step_from_point(ou, 0.5, 0.0, 3, grid12)
        v3 = (2.0 / 3.0) * (1.0 - 0.25 ** 3)
        want = gaussian_on_grid(grid12, 0.0, v3)
        assert eg.tv_distance(out, want) <= 1e-8

    def test_matrix_free_agrees_with_dense(self, ou):
        dense_grid = eg.Grid(-10.0, 10.0, 513)
        xi = gaussian_on_grid(dense_grid, 0.0, 1.0)
        want = eg.apply_kernel(ou, 0.1, xi)
        import emergolab.kernel as ke
        old = ke.DENSE_MATRIX_LIMIT
        try:
            ke.DENSE_MATRIX_LIMIT = 1
            got = eg.apply_kernel(ou, 0.1, xi)
        finally:
            ke.DENSE_MATRIX_LIMIT = old
        assert eg.tv_distance(got, want) <= 1e-12

    def test_matrix_free_invariant_agrees_with_dense(self, ou, monkeypatch):
        import emergolab.kernel as ke
        grid = eg.Grid(-10.0, 10.0, 513)
        want = eg.invariant_measure(ou, 0.2, grid)
        monkeypatch.setattr(ke, "DENSE_MATRIX_LIMIT", 1)
        got = eg.invariant_measure(ou, 0.2, grid)
        assert got.iterations == want.iterations
        assert eg.tv_distance(got.measure, want.measure) <= 1e-12
        assert got.measure.tail_bound == pytest.approx(want.measure.tail_bound,
                                                       rel=1e-9, abs=1e-300)

    def test_matrix_free_uniform_sup_agrees_with_dense(self, bp, monkeypatch):
        import emergolab.kernel as ke
        from emergolab import rates
        xs = np.linspace(-4.0, 4.0, 9)
        rates._invariant.cache_clear()
        want = eg.uniform_sup_tv(bp, 0.5, xs, [1, 2, 4])
        rates._invariant.cache_clear()
        monkeypatch.setattr(ke, "DENSE_MATRIX_LIMIT", 1)
        got = eg.uniform_sup_tv(bp, 0.5, xs, [1, 2, 4])
        assert np.max(np.abs(got.sup_tv - want.sup_tv)) <= 1e-12


def _dense_reference(spec, eta, grid):
    """The unbanded quadrature matrix, K[i, j] = p(x_j, y_i) * w_j."""
    x = grid.nodes
    return eg.transition_density(spec, eta, x[None, :], x[:, None]) * grid.weights


def _band_bound(grid, sd, band_sd):
    return 2.0 * (grid.spacing / sd * norm.pdf(band_sd) + norm.sf(band_sd))


class TestBand:
    @pytest.mark.parametrize("drift, eta", [("ou", 0.1), ("bp", 0.5)])
    @pytest.mark.parametrize("limit", [None, 1])
    def test_apply_kernel_matches_unbanded(self, request, monkeypatch,
                                           drift, eta, limit):
        import emergolab.kernel as ke
        spec = request.getfixturevalue(drift)
        if limit is not None:
            monkeypatch.setattr(ke, "DENSE_MATRIX_LIMIT", limit)
        grid = eg.Grid(-12.0, 12.0, 1025)
        xi = gaussian_on_grid(grid, 1.0, 0.5)
        got = eg.apply_kernel(spec, eta, xi)
        want = np.maximum(_dense_reference(spec, eta, grid) @ xi.density, 0.0)
        tv = 0.5 * float(np.trapezoid(np.abs(got.density - want), dx=grid.spacing))
        assert tv <= 1e-12

    @pytest.mark.parametrize("band_sd", [None, 2.0])
    def test_dropped_mass_is_certified(self, ou, monkeypatch, band_sd):
        import emergolab.kernel as ke
        if band_sd is not None:
            # a narrow band makes the dropped mass visible; the uncached
            # path keeps the narrow blocks out of the operator cache
            monkeypatch.setattr(ke, "BAND_SD", band_sd)
            monkeypatch.setattr(ke, "DENSE_MATRIX_LIMIT", 1)
        eta = 0.1
        chain = ke.Chain(ou, eta, eta)
        grid = eg.Grid(-12.0, 12.0, 1025)
        bound = _band_bound(grid, chain.sd, ke.BAND_SD)
        ref = _dense_reference(ou, eta, grid)
        x = grid.nodes
        outside = np.abs(x[:, None] - chain.mean(x)[None, :]) > ke.BAND_SD * chain.sd
        # quadrature mass w_i * p(x_j, y_i) of each column outside the band
        column_mass = grid.weights[:, None] * ref / grid.weights[None, :]
        assert np.all(np.sum(np.where(outside, column_mass, 0.0), axis=0) <= bound)

        xi = gaussian_on_grid(grid, 1.0, 0.5)
        out = eg.apply_kernel(ou, eta, xi)
        mass = float(np.sum(grid.weights * xi.density))
        assert out.tail_bound >= xi.tail_bound + bound * mass
        lost = float(grid.weights @ (ref @ xi.density - out.density))
        assert lost <= out.tail_bound - xi.tail_bound + 1e-14  # 1e-14: rounding
        if band_sd is not None:
            assert lost > 1e-6

    def test_cached_operator_is_banded(self, ou):
        import emergolab.kernel as ke
        grid = eg.default_grid(ou, 0.1, n_nodes=2049)
        blocks = ke._kernel_matrix(ke.Chain(ou, 0.1, 0.1), grid)
        assert sum(block.size for _, _, block in blocks) < 0.2 * grid.n_nodes ** 2

    def test_tracer_contract(self):
        # bench/tracer.py reads these names; a rename would break --trace 1
        import inspect
        import emergolab.kernel as ke
        assert ke._kernel_matrix.cache_info().maxsize == 8
        assert ke.DENSE_MATRIX_LIMIT == 8192
        for name, arg in (("apply_kernel", "xi"), ("invariant_measure", "grid")):
            fn = getattr(ke, name)
            assert inspect.isfunction(fn) and fn.__module__ == "emergolab.kernel"
            assert list(inspect.signature(fn).parameters)[2] == arg


class TestOffGrid:
    def test_upper_tail_matches_norm_sf(self):
        import emergolab.kernel as ke
        z = np.concatenate([np.linspace(-40.0, 40.0, 8001),
                            [8.5, 26.0, 37.0, 37.5, 38.0, 38.5, 39.0]])
        got = np.array([ke._upper_tail(float(t)) for t in z])
        # relative agreement wherever the tail is a normal double; below the
        # smallest one (z > 37.5) results are subnormal or 0 and hold few bits
        np.testing.assert_allclose(got, norm.sf(z), rtol=1e-13,
                                   atol=np.finfo(float).tiny)

    @pytest.mark.parametrize("limit", [None, 1])
    def test_apply_kernel_off_grid_term(self, ou, monkeypatch, limit):
        import emergolab.kernel as ke
        if limit is not None:
            monkeypatch.setattr(ke, "DENSE_MATRIX_LIMIT", limit)
        eta = 0.1
        sd = math.sqrt(eta)
        grid = eg.Grid(-5.5, 5.5, 513)
        g = gaussian_on_grid(grid, 0.0, 1.0)
        xi = eg.GridMeasure(grid, g.density / g.integral(), tail_bound=0.0)
        mean = (1.0 - eta) * grid.nodes  # OU, kappa = 1
        mass = grid.weights * xi.density
        off_grid = float(np.sum(mass * (norm.sf(grid.upper, mean, sd)
                                        + norm.cdf(grid.lower, mean, sd))))
        band = _band_bound(grid, sd, ke.BAND_SD) * float(np.sum(mass))
        assert off_grid > 1e-9  # the off-grid term dominates the band term
        out = eg.apply_kernel(ou, eta, xi)
        assert out.tail_bound - band == pytest.approx(off_grid, rel=1e-12)

    def test_off_grid_vector_cached_per_operator(self, ou):
        import emergolab.kernel as ke
        grid = eg.Grid(-7.25, 7.25, 257)  # used by no other test
        xi = gaussian_on_grid(grid, 0.0, 1.0)
        before = ke._off_grid.cache_info()
        eg.apply_kernel(ou, 0.1, xi)
        first = ke._off_grid.cache_info()
        eg.apply_kernel(ou, 0.1, xi)
        second = ke._off_grid.cache_info()
        assert second.maxsize == 8
        assert first.misses == before.misses + 1
        assert (second.misses, second.hits) == (first.misses, first.hits + 1)


class TestStartLaws:
    def test_batched_columns_match_gaussian_on_grid(self, ou, grid12):
        import emergolab.kernel as ke
        chain = ke.Chain(ou, 0.1, 0.1)
        # the last start sits near the edge, where the outside mass is large
        means = chain.mean(np.array([-3.0, 0.0, 0.7, 5.0, 13.0]))
        columns, tails = ke._start_laws(grid12, means, chain.var)
        assert columns.shape == (grid12.n_nodes, means.size)
        for k, m in enumerate(means):
            one = gaussian_on_grid(grid12, m, chain.var)
            np.testing.assert_allclose(columns[:, k], one.density, rtol=0, atol=1e-15)
            assert tails[k] == pytest.approx(one.tail_bound, rel=1e-12, abs=1e-15)
        assert tails[-1] > 0.1


class TestFirstStepLeak:
    """The first step and the converged invariant density reject a grid
    that leaks more than LEAK_TOL, as every later step does."""

    fast = eg.ornstein_uhlenbeck(kappa=2.0)
    small = eg.Grid(-1.0, 1.0, 513)   # N(0, 0.5) puts 0.157 outside

    def test_start_law_itself_unchecked(self):
        law = gaussian_on_grid(self.small, 0.0, 0.5)
        assert law.tail_bound == pytest.approx(0.157, abs=1e-3)

    def test_n_step_from_point_first_step(self):
        with pytest.raises(GridTooSmallError, match="leakage") as err:
            eg.n_step_from_point(self.fast, 0.5, 0.9, 1, self.small)
        assert err.value.suggested_lower < -1.0 < 1.0 < err.value.suggested_upper

    @pytest.mark.filterwarnings("ignore:lambda")
    def test_invariant_measure_converged_density(self):
        with pytest.raises(GridTooSmallError, match="leakage"):
            eg.invariant_measure(self.fast, 0.5, self.small)

    @pytest.mark.filterwarnings("ignore:lambda")
    def test_one_step_tables(self):
        with pytest.warns(UserWarning, match="exploratory"), \
             pytest.raises(GridTooSmallError, match="leakage"):
            eg.uniform_sup_tv(self.fast, 0.5, [0.0, 0.9], [1], grid=self.small)
        with pytest.raises(GridTooSmallError, match="leakage"):
            eg.tv_decay_curve(self.fast, 0.5, 0.9, 1, grid=self.small)

    def test_start_columns_on_a_holding_grid(self, grid12):
        # pi fits on grid12; one step from 14 (mean 11.2, sd 0.32) does not
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(GridTooSmallError, match="leakage"):
                eg.uniform_sup_tv(self.fast, 0.1, [0.0, 14.0], [1], grid=grid12)
        with pytest.raises(GridTooSmallError, match="leakage") as err:
            eg.tv_decay_curve(self.fast, 0.1, 14.0, 1, grid=grid12)
        # the suggested grid holds that first step
        wider = eg.Grid(err.value.suggested_lower, err.value.suggested_upper, 4097)
        assert eg.n_step_from_point(self.fast, 0.1, 14.0, 1, wider).tail_bound < 1e-8

    def test_nu_one_step(self, ou, smallset_ou):
        from emergolab.splitting import _nu_one_step
        with pytest.raises(GridTooSmallError, match="leakage"):
            _nu_one_step(ou, 0.5, smallset_ou, eg.Grid(-2.0, 2.0, 513))


@st.composite
def _kernel_and_start_law(draw):
    if draw(st.booleans()):
        spec = eg.ornstein_uhlenbeck(kappa=draw(st.floats(0.2, 2.0)))
    else:
        spec = eg.bounded_perturbation(
            kappa=1.0, a=draw(st.floats(-0.9, 0.9, exclude_min=True,
                                        exclude_max=True)))
    eta = draw(st.floats(0.02, 0.9))
    half = draw(st.floats(3.0, 15.0))
    h_max = 0.5 * math.sqrt(eta) * spec.sigma
    n_min = max(16, math.ceil(2.0 * half / h_max) + 1)
    n_nodes = draw(st.integers(n_min, 2 * n_min))
    grid = eg.Grid(-half, half, n_nodes)
    m = draw(st.floats(-half / 2.0, half / 2.0))
    sd = draw(st.floats(2.0 * grid.spacing, half / 2.0))
    return spec, eta, gaussian_on_grid(grid, m, sd * sd)


@settings(max_examples=100, deadline=None, database=None)
@given(_kernel_and_start_law())
def test_apply_kernel_never_creates_mass(case):
    # either the grid is rejected, or xi P is a valid measure with no more
    # mass than xi
    spec, eta, xi = case
    try:
        out = eg.apply_kernel(spec, eta, xi)
    except GridTooSmallError:
        return
    assert out.integral() <= xi.integral() + 1e-12
    assert out.tail_bound >= xi.tail_bound


class TestInvariantMeasure:
    def test_fixed_point(self, ou, grid12):
        pi = eg.invariant_measure(ou, 0.1, grid12, tol=1e-9).measure
        assert eg.tv_distance(pi, eg.apply_kernel(ou, 0.1, pi)) <= 1e-8

    def test_seed_independence(self, ou, grid12):
        res1 = eg.invariant_measure(ou, 0.1, grid12)
        alt = gaussian_on_grid(grid12, 3.0, 0.25)
        res2 = eg.invariant_measure(ou, 0.1, grid12, seed_measure=alt)
        assert eg.tv_distance(res1.measure, res2.measure) <= 1e-8

    def test_warns_outside_validity(self, ou, grid12):
        with pytest.warns(UserWarning, match="outside"):
            eg.invariant_measure(ou, 0.5, grid12)

    def test_budget_exhaustion(self, ou, grid12):
        from emergolab.errors import ConvergenceError
        with pytest.raises(ConvergenceError) as err:
            eg.invariant_measure(ou, 0.1, grid12, tol=1e-16, max_iters=5)
        assert err.value.last_increment > 0


class TestTvDistance:
    def test_metric_properties(self, grid12):
        rng = np.random.default_rng(1)
        ms = [gaussian_on_grid(grid12, rng.uniform(-2, 2), rng.uniform(0.5, 2))
              for _ in range(3)]
        a, b, c = ms
        assert eg.tv_distance(a, b) == pytest.approx(eg.tv_distance(b, a))
        assert eg.tv_distance(a, a) == 0.0
        assert eg.tv_distance(a, c) <= eg.tv_distance(a, b) + eg.tv_distance(b, c) + 1e-12
        assert 0.0 <= eg.tv_distance(a, b) <= 1.0

    def test_closed_form_oracle(self, grid12):
        # TV(N(0,1), N(3,1)) = 2 Phi(1.5) - 1
        a = gaussian_on_grid(grid12, 0.0, 1.0)
        b = gaussian_on_grid(grid12, 3.0, 1.0)
        # tolerance set by the trapezoid error at the |p-q| kink
        assert eg.tv_distance(a, b) == pytest.approx(2 * norm.cdf(1.5) - 1, abs=5e-6)

    def test_kernel_contracts(self, ou, grid12):
        a = gaussian_on_grid(grid12, -1.0, 1.0)
        b = gaussian_on_grid(grid12, 2.0, 0.5)
        assert (eg.tv_distance(eg.apply_kernel(ou, 0.1, a), eg.apply_kernel(ou, 0.1, b))
                <= eg.tv_distance(a, b) + 1e-12)

    def test_grid_mismatch_rejected(self, grid12):
        other = eg.Grid(-10.0, 10.0, 4097)
        with pytest.raises(ValueError):
            eg.tv_distance(gaussian_on_grid(grid12, 0, 1),
                           gaussian_on_grid(other, 0, 1))


class TestMinorization:
    def test_epsilon_oracle(self, smallset_ou):
        # corner infimum at |y - x/2| = 1.5: eps = 2 exp(-2.25)/sqrt(pi)
        want = 2.0 * math.exp(-2.25) / math.sqrt(math.pi)
        assert smallset_ou.epsilon == pytest.approx(want, abs=1e-5)

    def test_pointwise_domination(self, ou, smallset_ou):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, 10000)
        y = rng.uniform(-1, 1, 10000)
        p = eg.transition_density(ou, 0.5, x, y)
        assert np.all(p >= smallset_ou.epsilon * smallset_ou.nu_pdf(y) - 1e-12)

    def test_epsilon_linear_in_small_sets(self, ou):
        e1 = eg.minorization_epsilon(ou, 0.5, -0.01, 0.01).epsilon
        e2 = eg.minorization_epsilon(ou, 0.5, -0.005, 0.005).epsilon
        assert e1 / e2 == pytest.approx(2.0, rel=1e-3)

    def test_epsilon_in_unit_interval(self, ou):
        for half in (1e-6, 0.1, 1.0, 3.0):
            eps = eg.minorization_epsilon(ou, 0.5, -half, half).epsilon
            assert 0.0 < eps <= 1.0


class TestWholeSpaceMinorization:
    def test_ou_identity_map_gives_full_mass(self, ou):
        assert eg.whole_space_minorization(ou, 0.5) == pytest.approx(1.0, abs=1e-9)

    def test_bounded_perturbation_oracle(self, bp):
        want = 2.0 * norm.sf(0.5 / math.sqrt(0.5))
        assert eg.whole_space_minorization(bp, 0.5) == pytest.approx(want, abs=1e-5)

    def test_continuity_to_identity(self):
        tiny = eg.bounded_perturbation(kappa=1.0, a=1e-4)
        assert eg.whole_space_minorization(tiny, 0.5) == pytest.approx(1.0, abs=1e-3)

    def test_unbounded_raises(self):
        fast = eg.ornstein_uhlenbeck(kappa=2.0)  # x + g(x) = -x
        with pytest.raises(ApplicabilityError, match="x"):
            eg.whole_space_minorization(fast, 0.5)

    def test_doeblin_rate(self):
        assert eg.doeblin_rate(0.5) == 2.0
        assert eg.doeblin_rate(1.0) == math.inf
        with pytest.raises(ValueError):
            eg.doeblin_rate(0.0)


class TestDefaultGrid:
    def test_covers_return_set(self, ou):
        g = eg.default_grid(ou, 0.1)
        r = eg.drifts.radius_of(ou, 0.1)
        assert g.upper >= 4 * r
        assert g.lower == -g.upper
