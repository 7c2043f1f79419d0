import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

import emergolab as eg
from emergolab import cli, kernel as ke
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

    def test_interval_mass_matches_cdf(self, grid12):
        m = gaussian_on_grid(grid12, 0.5, 2.0)
        lo, hi = m.cdf_at([-1.0, 1.0])
        got = hi - lo
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

    @staticmethod
    def _write(m, path):  # the invariant_density.csv layout of the CLI
        g = m.grid
        cli.write_csv(path, ("x", "density"), (g.nodes, m.density),
                      f"lower={g.lower!r} upper={g.upper!r} n={g.n_nodes} "
                      f"tail_bound={m.tail_bound!r}")

    def test_write_csv_deterministic(self, grid12, tmp_path):
        m = gaussian_on_grid(grid12, 0.0, 1.0)
        self._write(m, tmp_path / "a.csv")
        self._write(m, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        header = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert header.startswith("#") and "tail_bound=" in header

    def test_write_csv_matches_row_loop(self, grid12, tmp_path):
        # the columnar writer gives the bytes of one formatted row per node
        m = gaussian_on_grid(grid12, 0.3, 2.0)
        self._write(m, tmp_path / "a.csv")
        want = (f"# lower={grid12.lower!r} upper={grid12.upper!r} "
                f"n={grid12.n_nodes} tail_bound={m.tail_bound!r}\nx,density\n")
        for x, d in zip(grid12.nodes, m.density):
            want += f"{float(x)!r},{float(d)!r}\n"
        assert (tmp_path / "a.csv").read_text() == want


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
        ke._solved.cache_clear()  # solve again, not a cache hit
        monkeypatch.setattr(ke, "DENSE_MATRIX_LIMIT", 1)
        got = eg.invariant_measure(ou, 0.2, grid)
        assert got.iterations == want.iterations
        assert eg.tv_distance(got.measure, want.measure) <= 1e-12
        assert got.measure.tail_bound == pytest.approx(want.measure.tail_bound,
                                                       rel=1e-9, abs=1e-300)

    def test_matrix_free_uniform_sup_agrees_with_dense(self, bp, monkeypatch):
        import emergolab.kernel as ke
        xs = np.linspace(-4.0, 4.0, 9)
        ke._solved.cache_clear()
        want = eg.uniform_sup_tv(bp, 0.5, xs, [1, 2, 4])
        ke._solved.cache_clear()
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

    @pytest.mark.parametrize("drift, eta, h", [("ou", 0.1, 0.1), ("bp", 0.5, 1.0)])
    def test_read_out_rows_match_dense(self, request, monkeypatch, drift, eta, h):
        # K[i, j] = p(x_j, y_i) * w_j from the coarse grid's nodes x_j to the
        # nodes y_i of a finer grid, against an unbanded scipy reference
        import emergolab.kernel as ke
        chain = ke.Chain(request.getfixturevalue(drift), eta, h)
        rows = eg.Grid(-12.0, 12.0, 1025)
        grid = ke._coarse(chain, rows)
        assert grid != rows
        x, y = grid.nodes, rows.nodes
        want = norm.pdf(y[:, None], loc=chain.mean(x)[None, :],
                        scale=chain.sd) * grid.weights
        got = np.zeros_like(want)
        for lo, jlo, block in ke._kernel_matrix(chain, grid, rows):
            got[lo:lo + block.shape[0], jlo:jlo + block.shape[1]] = block
        assert np.max(np.abs(got - want)) <= 1e-12
        v = gaussian_on_grid(grid, 1.0, 0.5).density
        for limit in (ke.DENSE_MATRIX_LIMIT, 1):
            monkeypatch.setattr(ke, "DENSE_MATRIX_LIMIT", limit)
            assert np.max(np.abs(ke._matvec(chain, grid, v, rows) - want @ v)) <= 1e-12

    def test_cached_operator_is_banded(self, ou):
        import emergolab.kernel as ke
        grid = eg.default_grid(ou, 0.1, n_nodes=2049)
        blocks = ke._kernel_matrix(ke.Chain(ou, 0.1, 0.1), grid)
        assert sum(block.size for _, _, block in blocks) < 0.2 * grid.n_nodes ** 2

    def test_blocks_span_the_band(self, ou):
        # a block has the rows that span one band width of 17 sd, 34 on the
        # sd/2 grid, so the cached solve operator holds about twice its band
        # (blocks of 128 rows would hold 1.9 MB here)
        import emergolab.kernel as ke
        chain = ke.Chain(ou, 0.05, 0.05)
        grid = ke._coarse(chain, eg.default_grid(ou, 0.05, n_nodes=2049))
        r = min(128, int(17 * chain.sd / grid.spacing))
        assert r == 34
        blocks = ke._kernel_matrix(chain, grid)
        assert [lo for lo, _, _ in blocks] == list(range(0, grid.n_nodes, r))
        for lo, _, block in blocks:
            assert block.shape[0] == min(r, grid.n_nodes - lo)
        assert sum(block.nbytes for _, _, block in blocks) < 2 ** 20

    def test_tracer_contract(self, ou, monkeypatch):
        # bench/tracer.py reads these names; a rename would break --trace 1
        import inspect
        import emergolab.kernel as ke
        # it counts an operator build as a rise in the cache's misses
        builds = []
        real = ke._kernel_blocks
        monkeypatch.setattr(ke, "_kernel_blocks",
                            lambda *args: builds.append(args) or real(*args))
        ke._kernel_matrix.cache_clear()
        grid = eg.Grid(-6.0, 6.0, 31)  # its own coarse grid at both etas
        xi = gaussian_on_grid(grid, 0.0, 1.0)
        for eta, new in ((0.5, 1), (0.5, 0), (0.2, 1), (0.5, 0)):
            before = ke._kernel_matrix.cache_info().misses
            eg.apply_kernel(ou, eta, xi)
            assert ke._kernel_matrix.cache_info().misses - before == new
        assert len(builds) == 2
        assert ke.DENSE_MATRIX_LIMIT == 8192
        for name, arg in (("apply_kernel", "xi"), ("invariant_measure", "grid")):
            fn = getattr(ke, name)
            assert inspect.isfunction(fn) and fn.__module__ == "emergolab.kernel"
            assert list(inspect.signature(fn).parameters)[2] == arg
        # its spans give rates.invariant_cached_calls and the cache hit ratio
        import emergolab.rates as ra
        fn = ra.invariant_cached
        assert inspect.isfunction(fn) and fn.__module__ == "emergolab.rates"


class TestOperatorCache:
    """Operators from a grid that is its own coarse grid are cached; a step
    from a finer grid streams its blocks and keeps none of them."""

    def test_fine_step_streams(self, ou, monkeypatch):
        chain = ke.Chain(ou, 0.5, 0.5)
        grid = eg.Grid(-10.0, 10.0, 2049)
        assert ke._coarse(chain, grid) != grid
        xi = gaussian_on_grid(grid, 1.0, 0.5)
        ke._kernel_matrix.cache_clear()
        try:
            got = eg.apply_kernel(ou, 0.5, xi)
            assert ke._kernel_matrix.cache_info().currsize == 0
            # the same step through the cache, bit for bit
            monkeypatch.setattr(ke, "_coarse", lambda chain, grid: grid)
            want = eg.apply_kernel(ou, 0.5, xi)
            assert ke._kernel_matrix.cache_info().currsize == 1
        finally:
            ke._kernel_matrix.cache_clear()
        assert np.array_equal(got.density, want.density)
        assert got.tail_bound == want.tail_bound

    def test_one_chain_at_a_time(self, ou, operators, solves):
        # the lib-sweep pattern: per chain, two requested node counts read
        # out from the chain's one sd/2 operator, then the next chain; the
        # 3 entries build each operator once (2 entries built 12 of these 9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for eta in (0.5, 0.3, 0.2):
                for n in (257, 513):
                    grid = eg.default_grid(ou, eta, n_nodes=n)
                    eg.n_step_from_point(ou, eta, 3.0, 2, grid)
                    pi = eg.invariant_measure(ou, eta, grid).measure
                    eg.apply_kernel(ou, eta, pi)
                    eg.tv_decay_curve(ou, eta, 3.0, 5, grid=grid)
        info = ke._kernel_matrix.cache_info()
        assert info.misses == len({key for key, _ in operators}) == 9
        assert info.hits > 0 and info.currsize == 3

    def test_fine_step_memory(self, ou):
        # the whole banded operator of this grid holds about 330 MB; a
        # streamed step holds one 128-row block of at most 8192 columns
        import tracemalloc
        grid = eg.Grid(-10.0, 10.0, 8192)
        xi = gaussian_on_grid(grid, 0.0, 1.0)
        tracemalloc.start()
        try:
            eg.apply_kernel(ou, 0.5, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20


class TestOffGrid:
    def test_upper_tails_match_the_loop(self):
        # libm is called only between the thresholds; the filled entries
        # are those the loop gives, bit for bit
        zero, one = ke._TAIL_ZERO, ke._TAIL_ONE
        z = np.concatenate([
            np.linspace(-50.0, 50.0, 100001),
            [np.inf, -np.inf, np.nan, 0.0, -0.0, zero, one,
             38.475365730404555, -8.292361075813597],  # where the loop turns
            np.nextafter(zero, [-np.inf, np.inf]),
            np.nextafter(one, [-np.inf, np.inf])])
        want = np.array([ke._upper_tail(v) for v in z.tolist()])
        assert ke._upper_tails(z).tobytes() == want.tobytes()
        assert ke._upper_tail(zero) == 0.0 and ke._upper_tail(one) == 1.0
        assert ke._upper_tails(np.empty(0)).shape == (0,)

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
        assert second.maxsize == 3
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
        # nu P, stepped from the nodes of C onto a grid it leaks off
        from emergolab.splitting import _c_grid
        c = _c_grid(smallset_ou)
        nu = ke.GridMeasure(c, np.full(c.n_nodes, 1.0 / smallset_ou.length))
        with pytest.raises(GridTooSmallError, match="leakage"):
            next(ke._laws(ke.Chain(ou, 0.5, 0.5), eg.Grid(-2.0, 2.0, 513), nu, [1]))


class TestExpandingChain:
    """A leaking grid whose suggested bounds the mean map sends beyond both
    ends names the expanding map; a chain that contracts there, even one
    that expands near 0, keeps its grid advice."""

    @pytest.mark.filterwarnings("ignore:lambda")
    @pytest.mark.parametrize("spec, eta, grid, error, match", [
        # mean map (1 - 2.5*eta)*x: -0.975x contracts, -1.025x expands
        (eg.ornstein_uhlenbeck(kappa=2.5), 0.79, eg.Grid(-1.0, 1.0, 257),
         GridTooSmallError, "grid should cover"),
        (eg.ornstein_uhlenbeck(kappa=2.5), 0.81, eg.Grid(-1.0, 1.0, 257),
         ApplicabilityError, "mean map .* beyond both ends"),
        # mean map -0.35x - 0.9*tanh(x): slope -1.25 at 0, bounded beyond
        (eg.bounded_perturbation(kappa=1.5, a=-1.0), 0.9, eg.Grid(-0.1, 0.1, 16),
         GridTooSmallError, "grid should cover"),
    ], ids=["ou-contracting", "ou-expanding", "bounded-expanding-near-0"])
    def test_step(self, spec, eta, grid, error, match):
        with pytest.raises(error, match=match):
            eg.apply_kernel(spec, eta, gaussian_on_grid(grid, 0.0, 1.0))

    @pytest.mark.parametrize("sub", ["invariant", "tv-decay"])
    def test_cli_names_the_map(self, tmp_path, capsys, sub):
        # kappa = 50 at eta = 0.5: the mean map -24x, which no grid holds
        cfg = tmp_path / "c.ini"
        cfg.write_text("[drift]\nkind = ou\nkappa = 50\n[experiment]\neta = 0.5\n")
        with pytest.warns(UserWarning, match="lambda"):
            status = cli.main([sub, "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert status == 3
        assert "mean map x + 0.5*g(x)" in err and "grid should cover" not in err


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

    def test_seed_independence(self, ou, grid12, monkeypatch):
        # uniqueness: a power iteration started from N(3, 0.25) instead of
        # N(0, 1) reaches the same invariant measure
        res1 = eg.invariant_measure(ou, 0.1, grid12)
        monkeypatch.setattr(ke, "gaussian_on_grid",
                            lambda grid, mean, var: gaussian_on_grid(grid, 3.0, 0.25))
        ke._solved.cache_clear()
        try:
            res2 = eg.invariant_measure(ou, 0.1, grid12)
        finally:
            ke._solved.cache_clear()  # keep the odd start out of the cache
        assert res2 is not res1
        assert eg.tv_distance(res1.measure, res2.measure) <= 1e-8

    def test_warns_outside_validity(self, ou, grid12):
        # on every call, a cache hit included
        for _ in range(2):
            with pytest.warns(UserWarning, match="outside"):
                eg.invariant_measure(ou, 0.5, grid12)

    def test_default_solve_is_cached_and_read_only(self, ou, grid12, solves):
        first = eg.invariant_measure(ou, 0.1, grid12)
        assert eg.invariant_measure(ou, 0.1, grid12) is first
        assert len(solves) == 1
        with pytest.raises(ValueError, match="read-only"):
            first.measure.density[0] = 1.0
        # the cache keys on tol, too
        eg.invariant_measure(ou, 0.1, grid12, tol=1e-8)
        assert len(solves) == 2

    @pytest.mark.parametrize("eta, h", [(0.5, 0.5), (0.05, 0.05), (0.5, 1.0)])
    def test_matches_dense_eigenvector(self, bp, eta, h):
        # an independent reference: K assembled whole on the nodes, with no
        # band, and its eigenvector for the eigenvalue nearest 1; h = 1 is
        # the chain uniform_sup_tv propagates
        g = eg.resolution_grid(bp, eta)
        x, w = g.nodes, g.weights
        mean = x + h * (-x + 0.5 * np.tanh(x))
        var = eta * bp.sigma ** 2
        K = norm.pdf(x[:, None], mean[None, :], math.sqrt(var)) * w[None, :]
        vals, vecs = np.linalg.eig(K)
        ref = vecs[:, np.argmin(np.abs(vals - 1.0))].real
        ref /= w @ ref
        got = ke._invariant(ke.Chain(bp, eta, h), g, ke.INVARIANT_TOL).measure
        assert 0.5 * float(w @ np.abs(got.density - ref)) <= 1e-10

    def test_basis_grows_in_chunks(self, bp):
        # 166 Krylov vectors of 2311 nodes (2.9 MB) in two arrays of 128;
        # growing one array by doubling, copying as it grew, peaked at 10.5 MB
        import tracemalloc
        chain = ke.Chain(bp, 3e-4, 3e-4)
        grid = ke._coarse(chain, eg.Grid(-10.0, 10.0, 4097))
        ke._kernel_matrix.cache_clear()
        tracemalloc.start()
        try:
            _, iterations = ke._gmres(chain, grid, ke.INVARIANT_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert iterations > ke.KRYLOV_CHUNK
        assert peak < 8 * 2 ** 20

    def test_chunked_basis_matches_one_array(self, ou, monkeypatch):
        chain = ke.Chain(ou, 0.1, 0.1)
        grid = eg.resolution_grid(ou, 0.1)
        one, n1 = ke._gmres(chain, grid, ke.INVARIANT_TOL)
        monkeypatch.setattr(ke, "KRYLOV_CHUNK", 3)
        chunked, n2 = ke._gmres(chain, grid, ke.INVARIANT_TOL)
        assert n1 == n2 > 3 * 3
        np.testing.assert_allclose(chunked, one, rtol=0, atol=1e-12 * one.max())

    def test_budget_exhaustion(self, ou, grid12, monkeypatch):
        # the budget is read when the solve runs, not when it is defined
        from emergolab.errors import ConvergenceError
        monkeypatch.setattr(ke, "MAX_ITERS", 5)
        ke._solved.cache_clear()
        try:
            with pytest.raises(ConvergenceError, match="in 5 Krylov vectors") as err:
                eg.invariant_measure(ou, 0.1, grid12)
        finally:
            ke._solved.cache_clear()  # keep the cut-short failure out
        assert err.value.residual_bound > 0


class TestTvDistance:
    def test_clipped_at_one(self):
        # two disjoint hat densities, each integrating to 1 + 5e-9 (within
        # Q_TOL): the trapezoid gives 1 + 5e-9, a TV distance is at most 1
        grid = eg.Grid(0.0, 1.0, 17)
        hats = []
        for i in (3, 12):
            d = np.zeros(17)
            d[i] = (1.0 + 5e-9) / grid.spacing
            hats.append(eg.GridMeasure(grid, d))
        assert eg.tv_distance(*hats) == 1.0

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


class TestTvInPlace:
    """_tv writes |p - q| over the law block it is given, so every block it
    gets is its caller's own."""

    def test_tv_distance_writes_neither_measure(self, ou, grid12):
        a = gaussian_on_grid(grid12, -1.0, 1.0)
        b = eg.invariant_measure(ou, 0.5, grid12).measure  # read-only
        before = a.density.copy(), b.density.copy()
        assert eg.tv_distance(a, b) == eg.tv_distance(b, a) > 0.0
        assert np.array_equal(a.density, before[0])
        assert np.array_equal(b.density, before[1])

    def test_yielded_block_is_not_the_state(self, ou):
        # no grid is coarser than this one, so _laws steps on it and each
        # law it reports is also the state it steps from next
        chain = ke.Chain(ou, 0.5, 0.5)
        grid = eg.Grid(-6.0, 6.0, 31)
        assert ke._coarse(chain, grid) == grid
        want = [c.copy() for c, _ in ke._laws(chain, grid, [0.0, 1.0], [1, 2, 3])]
        got = []
        for columns, _ in ke._laws(chain, grid, [0.0, 1.0], [1, 2, 3]):
            got.append(columns.copy())
            columns[:] = 0.0  # a caller may write over its block, as _tv does
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_table_holds_one_law_block(self, bp, operators, solves):
        # 101 starts on the 2049-node grid: a law block is 1.6 MB and the
        # operators 0.6 MB; the table also holds the coarse laws and a few
        # row blocks of products (0.2 MB), where a copy of the block per TV
        # step took a second 1.6 MB
        import tracemalloc
        xs = np.linspace(-5.0, 5.0, 101)
        tracemalloc.start()
        try:
            rep = eg.uniform_sup_tv(bp, 0.5, xs, range(1, 11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.m is not None  # the 2049-node grid of the bounded mean
        block = 2049 * xs.size * 8
        built = {key: blocks for key, blocks in operators}
        ops = sum(b.nbytes for blocks in built.values() for _, _, b in blocks)
        assert len(built) == 2 and ops < block
        assert peak < ops + 1.5 * block


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


def _wiggly():
    # mean x + eta*g(x) = (1 - eta)*x + 1.5*eta*sin(4x): not monotone on C
    return eg.custom(lambda x: -x + 1.5 * math.sin(4.0 * x), sigma=1.0,
                     L=7.0, K1=1.0)


class TestClosedFormConstants:
    @pytest.mark.parametrize("eta", [0.5, 0.1, 0.02, 0.005])
    def test_doeblin_mass_is_gaussian_overlap(self, bp, eta):
        # x + g(x) = 0.5*tanh(x) ranges over [-0.5, 0.5]
        want = 2.0 * norm.sf(1.0 / (2.0 * math.sqrt(eta)))
        got = eg.whole_space_minorization(bp, eta)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("c_lower, c_upper", [(-1.0, 1.0), (-0.3, 0.8)])
    def test_non_monotone_mean_matches_brute_force(self, c_lower, c_upper):
        spec, eta = _wiggly(), 0.5
        eps = eg.minorization_epsilon(spec, eta, c_lower, c_upper).epsilon
        xs = np.linspace(c_lower, c_upper, 30001)[:, None]
        ys = np.linspace(c_lower, c_upper, 101)[None, :]
        p_min = float(np.min(eg.transition_density(spec, eta, xs, ys)))
        assert eps == pytest.approx(p_min * (c_upper - c_lower), rel=1e-6)

    def test_non_monotone_mean_dominates_random_pairs(self):
        spec, eta = _wiggly(), 0.5
        smallset = eg.minorization_epsilon(spec, eta, -1.0, 1.0)
        rng = np.random.default_rng(4)
        x, y = rng.uniform(-1.0, 1.0, (2, 20000))
        p = eg.transition_density(spec, eta, x, y)
        # the scan of the mean is accurate to well within a relative 1e-6
        assert np.all(p >= smallset.epsilon * smallset.nu_pdf(y) * (1.0 - 1e-6))


@settings(max_examples=100, deadline=None, database=None)
@given(st.sampled_from(["ou", "bounded", "wiggly"]), st.floats(1e-3, 0.99),
       st.floats(-5.0, 5.0), st.floats(1e-6, 10.0))
def test_epsilon_below_two_phi_one(kind, eta, c_lower, length):
    # z >= Leb(C)/(2 sd) caps epsilon at 2*phi(1) = 0.4839...
    spec = {"ou": eg.ornstein_uhlenbeck(kappa=1.0),
            "bounded": eg.bounded_perturbation(kappa=1.0, a=0.5),
            "wiggly": _wiggly()}[kind]
    eps = eg.minorization_epsilon(spec, eta, c_lower, c_lower + length).epsilon
    assert 0.0 <= eps < 0.49


class TestDefaultGrid:
    def test_covers_return_set(self, ou):
        g = eg.default_grid(ou, 0.1)
        r = eg.drifts.radius_of(ou, 0.1)
        assert g.upper >= 4 * r
        assert g.lower == -g.upper


class TestResolutionGrid:
    @pytest.mark.parametrize("kind", ["ou", "bounded"])
    @pytest.mark.parametrize("eta", [0.9, 0.5, 0.1, 0.005])
    def test_covers_bulk_at_half_sd(self, ou, bp, kind, eta):
        spec = {"ou": ou, "bounded": bp}[kind]
        g = eg.resolution_grid(spec, eta)
        half = 10.0 * spec.sigma / math.sqrt(spec.K1)
        assert (g.lower, g.upper) == (-half, half)
        assert g.spacing <= 0.5 * math.sqrt(eta) * spec.sigma
        # and no finer than needed: one node fewer breaks the rule
        assert 2 * half / (g.n_nodes - 2) > 0.5 * math.sqrt(eta) * spec.sigma

    @pytest.mark.parametrize("eta", [0.5, 0.1, 0.02, 0.005, 1e-3])
    def test_one_step_mass_matches_ar1(self, ou, eta):
        # pi = pi P, so one exact step from the nodes gives pi(C) with no
        # interpolant; the AR(1) law is N(0, eta/(1 - (1 - eta)^2)).  The
        # solve stops on its estimated error, not its residual alone, so the
        # error stays near tol = 1e-9 as eta and the spectral gap shrink,
        # and its Krylov vectors grow far slower than 1/eta.
        g = eg.resolution_grid(ou, eta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = eg.invariant_measure(ou, eta, g)
        assert result.iterations < 150
        pi = result.measure
        got = ke._step_mass(ke.Chain(ou, eta, eta), g, pi.density, -1.0, 1.0)
        sd = math.sqrt(eta / (1.0 - (1.0 - eta) ** 2))
        assert got == pytest.approx(norm.cdf(1.0 / sd) - norm.cdf(-1.0 / sd),
                                    abs=2e-9)

    def test_step_mass_of_a_point_law(self, ou):
        # one OU step at eta = 0.5 takes N(0.15, 0.5) to N(0.075, 0.125 + 0.5)
        g = eg.resolution_grid(ou, 0.5)
        x = gaussian_on_grid(g, 0.15, 0.5)
        got = ke._step_mass(ke.Chain(ou, 0.5, 0.5), g, x.density, 0.2, 1.7)
        law = norm(0.075, math.sqrt(0.125 + 0.5))
        assert got == pytest.approx(law.cdf(1.7) - law.cdf(0.2), abs=1e-12)
        with pytest.raises(ValueError):
            ke._step_mass(ke.Chain(ou, 0.5, 0.5), g, x.density, 1.0, 0.0)


class TestCoarse:
    @pytest.mark.parametrize("kind, eta, h", [("ou", 0.5, 0.5), ("ou", 0.1, 0.1),
                                              ("ou", 0.005, 0.005),
                                              ("bounded", 0.5, 1.0)])
    @pytest.mark.parametrize("n_nodes", [16, 40, 257, 2049, 4097])
    def test_contract(self, ou, bp, kind, eta, h, n_nodes):
        # the same interval at h <= sd/2 with no more nodes than the grid,
        # and the grid itself when it is no finer than that
        chain = ke.Chain({"ou": ou, "bounded": bp}[kind], eta, h)
        grid = eg.Grid(-12.0, 12.0, n_nodes)
        c = ke._coarse(chain, grid)
        assert (c.lower, c.upper) == (grid.lower, grid.upper)
        assert c.n_nodes <= grid.n_nodes
        if c.n_nodes < grid.n_nodes:
            assert c.spacing <= 0.5 * chain.sd
            assert c.n_nodes == ke._resolved_nodes(24.0, chain.sd)
        else:
            assert c is grid
            assert grid.n_nodes <= ke._resolved_nodes(24.0, chain.sd)

    @pytest.mark.parametrize("kind", ["ou", "bounded"])
    @pytest.mark.parametrize("eta", [0.9, 0.5, 0.1, 0.005])
    def test_identity_on_resolution_grid(self, ou, bp, kind, eta):
        spec = {"ou": ou, "bounded": bp}[kind]
        g = eg.resolution_grid(spec, eta)
        for h in (eta, 1.0):
            assert ke._coarse(ke.Chain(spec, eta, h), g) is g


class TestCoarseGridRejected:
    # h/sd = 2 passes every mass check and gives TV errors near 8e-3
    coarse = eg.Grid(-10.0, 10.0, 33)    # h = 0.625, sd = sqrt(0.1)

    @pytest.mark.parametrize("entry", ["start-law", "step", "invariant"])
    def test_names_a_sufficient_n_nodes(self, ou, entry):
        fine = eg.resolution_grid(ou, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(GridTooSmallError, match="n_nodes") as err:
                if entry == "start-law":
                    eg.n_step_from_point(ou, 0.1, 0.0, 1, self.coarse)
                elif entry == "step":
                    eg.apply_kernel(ou, 0.1, gaussian_on_grid(self.coarse, 0.0, 1.0))
                else:
                    eg.invariant_measure(ou, 0.1, self.coarse)
        n = int(str(err.value).split("n_nodes = ")[1].split()[0])
        assert n == fine.n_nodes
        resolved = eg.Grid(self.coarse.lower, self.coarse.upper, n)
        assert resolved.spacing <= 0.5 * math.sqrt(0.1)
        assert eg.n_step_from_point(ou, 0.1, 0.0, 2, resolved).tail_bound < 1e-8

    def test_spacing_at_sd_accepted(self, ou):
        at_sd = eg.Grid(-10.0, 10.0, 2 + math.ceil(20.0 / math.sqrt(0.1)))
        assert at_sd.spacing <= math.sqrt(0.1)
        eg.n_step_from_point(ou, 0.1, 0.0, 2, at_sd)
