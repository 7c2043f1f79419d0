import math
import warnings

import numpy as np
import pytest

import emergolab as eg
from emergolab import cli
from emergolab.errors import GridTooSmallError
from emergolab.kernel import gaussian_on_grid
from emergolab.rates import invariant_cached

from conftest import gaussian_tv


@pytest.fixture(scope="module")
def pi_ou_05(ou, grid12):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return invariant_cached(ou, 0.5, grid12)


@pytest.fixture(scope="module")
def curve_x3(ou, grid12):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return eg.tv_decay_curve(ou, 0.5, 3.0, 40, grid=grid12)


@pytest.fixture
def built(monkeypatch):
    """Empties the operator cache and records the size of every kernel block
    built from then on, cached or streamed."""
    import emergolab.kernel as ke
    sizes = []
    real = ke._kernel_blocks

    def counting(*args):
        for lo, jlo, block in real(*args):
            sizes.append(block.size)
            yield lo, jlo, block

    monkeypatch.setattr(ke, "_kernel_blocks", counting)
    ke._kernel_matrix.cache_clear()
    return sizes


class TestDecayCurve:
    def test_shares_the_solve_of_invariant_measure(self, ou, grid12, solves):
        pi = eg.invariant_measure(ou, 0.2, grid12).measure
        eg.tv_decay_curve(ou, 0.2, 1.0, 5, grid=grid12)
        assert invariant_cached(ou, 0.2, grid12) is pi
        assert len(solves) == 1

    def test_grid_of_the_measure_checked_first(self, ou, grid12, solves):
        xi = gaussian_on_grid(eg.Grid(-10.0, 10.0, 1025), 0.0, 1.0)
        with pytest.raises(ValueError, match=r"lives on Grid\(.*-10\.0.*"
                                             r"not on grid=Grid\(.*-12\.0"):
            eg.tv_decay_curve(ou, 0.2, xi, 5, grid=grid12)
        assert not solves  # rejected before the invariant solve

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

    @pytest.mark.parametrize("start", ["point", "measure"])
    def test_second_curve_reuses_operators(self, ou, built, start):
        # the coarse-grid steps and the read-outs onto grid are cached, so a
        # second curve on the same setting builds nothing for them; only a
        # measure's first steps from grid, onto grid (n = 1) and onto the
        # coarse grid, are one-offs that stream again
        import emergolab.kernel as ke
        grid = eg.default_grid(ou, 0.5, n_nodes=2049)
        initial = 3.0 if start == "point" else gaussian_on_grid(grid, 3.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eg.tv_decay_curve(ou, 0.5, initial, 20, grid=grid)
            first = len(built)
            eg.tv_decay_curve(ou, 0.5, initial, 20, grid=grid)
        chain = ke.Chain(ou, 0.5, 0.5)
        coarse = ke._coarse(chain, grid)

        def blocks(rows):  # blocks of one step read on rows (_kernel_blocks)
            r = min(128, int(17 * chain.sd / rows.spacing))
            return -(-rows.n_nodes // r)
        streamed = 0 if start == "point" else blocks(grid) + blocks(coarse)
        assert first > streamed
        assert len(built) - first == streamed

    def test_csv_round(self, curve_x3, tmp_path):
        cli._write_curve(tmp_path / "c.csv", curve_x3, "tv-decay")
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

    def test_exploratory_leak_raises(self, solves):
        # the second table re-raises the cached error without solving again
        fast = eg.ornstein_uhlenbeck(kappa=2.0)
        small = eg.Grid(-1.0, 1.0, 513)
        with pytest.warns(UserWarning, match="exploratory"), \
             pytest.raises(GridTooSmallError, match="leakage"):
            eg.uniform_sup_tv(fast, 0.5, [0.0, 0.9], [1, 2, 3], grid=small)
        with pytest.warns(UserWarning, match="lambda"), \
             pytest.raises(GridTooSmallError, match="leakage"):
            eg.tv_decay_curve(fast, 0.5, 0.9, 3, grid=small)
        assert len(solves) == 1

    def test_repeated_n_rejected(self, bp):
        with pytest.raises(ValueError, match="n_list .* 1 repeats"):
            eg.uniform_sup_tv(bp, 0.5, [0.0], [1, 1])

    @pytest.mark.parametrize("x_grid, n_list, name", [([0.0], [], "n_list"),
                                                      ([], [1], "x_grid")])
    def test_empty_list_rejected(self, bp, solves, x_grid, n_list, name):
        with pytest.raises(ValueError, match=f"{name} must"):
            eg.uniform_sup_tv(bp, 0.5, x_grid, n_list)
        assert not solves  # rejected before the invariant solve

    def test_sup_tv_clipped_at_one(self, bp):
        # m underflows to 0 at eta = 1e-4; the trapezoid of |column - pi|
        # read 1.0000000000000007 at n = 1 and 2 before the clip
        rep = eg.uniform_sup_tv(bp, 1e-4, np.linspace(-2, 2, 11), [1, 2, 3])
        assert np.all(rep.sup_tv <= 1.0)
        assert rep.sup_tv[0] == 1.0

    @pytest.mark.parametrize("x0", [0.0, 1.5])
    def test_single_start_matches_decay_curve(self, grid12, x0):
        # both tables propagate through the same kernel step
        fast = eg.ornstein_uhlenbeck(kappa=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = eg.uniform_sup_tv(fast, 0.1, [x0], range(1, 21), grid=grid12)
            curve = eg.tv_decay_curve(fast, 0.1, x0, 20, grid=grid12)
        np.testing.assert_allclose(rep.sup_tv, curve.values, rtol=0, atol=1e-15)

    def test_operator_cache_footprint(self, bp, built):
        # the Doeblin path's 2049-node grid holds the operator of the sd/2
        # grid and the read-out rows from it, not its own banded operator
        # (0.68 n^2 entries); no eviction, so every block built is cached
        import emergolab.kernel as ke
        ke._solved.cache_clear()
        try:
            eg.uniform_sup_tv(bp, 0.5, np.linspace(-5, 5, 101), range(1, 21))
        finally:
            ke._solved.cache_clear()
        assert 0 < sum(built) < 0.05 * 2049 ** 2

    def test_one_law_block_held_at_a_time(self, bp):
        # a law block of 101 columns on 2049 nodes takes 1.65 MB; the loop
        # holds one law and its difference from pi, not three such blocks
        # (5.5 MB), on top of the solve and the operators built cold here
        import tracemalloc
        import emergolab.kernel as ke
        ke._solved.cache_clear()
        ke._kernel_matrix.cache_clear()
        tracemalloc.start()
        try:
            eg.uniform_sup_tv(bp, 0.5, np.linspace(-5, 5, 101), range(1, 21))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            ke._solved.cache_clear()
        assert peak < 4.5 * 2 ** 20

    def test_tail_uncertainty_of_a_leaky_grid(self, bp):
        # the grid ends 5.7 kernel sd beyond the Doeblin chain's mean range
        # [-0.5, 0.5], so a step from the edge leaks Q(5.7) = 6e-9, just
        # under LEAK_TOL; the table carries that tail, as a decay curve does
        from emergolab.kernel import LEAK_TOL
        sd = math.sqrt(0.5)
        leaky = eg.Grid(-0.5 - 5.7 * sd, 0.5 + 5.7 * sd, 257)
        starts = np.linspace(-2, 2, 11)
        rep = eg.uniform_sup_tv(bp, 0.5, starts, [0, 1, 2, 3], grid=leaky)
        edge_leak = 0.5 * math.erfc(5.7 / math.sqrt(2.0))
        assert 0.5 * edge_leak < rep.tail_uncertainty < 2.0 * LEAK_TOL
        wide = eg.uniform_sup_tv(bp, 0.5, starts, [0, 1, 2, 3])
        assert 0.0 < wide.tail_uncertainty < 1e-14

    def test_csv(self, bp, tmp_path):
        rep = eg.uniform_sup_tv(bp, 0.5, np.linspace(-2, 2, 11), [1, 2])
        cli.write_csv(tmp_path / "u.csv", ("n", "sup_d_tv", "spread", "envelope"),
                      (rep.n_list, rep.sup_tv, rep.spread, rep.envelope),
                      f"experiment=uniform-sup m={rep.m!r}")
        lines = (tmp_path / "u.csv").read_text().splitlines()
        assert lines[1] == "n,sup_d_tv,spread,envelope"
        assert "np.float64" not in lines[2]


class TestTwoGrids:
    """Steps on the sd/2 grid read on the requested nodes against steps on
    the requested grid itself: both integrate a kernel step to far below the
    solver tolerance, so the reported numbers agree to 1e-8."""

    @pytest.fixture
    def one_grid(self, monkeypatch):
        import emergolab.kernel as ke

        def run(fn):
            ke._solved.cache_clear()
            try:
                two = fn()
                ke._solved.cache_clear()
                with monkeypatch.context() as m:
                    m.setattr(ke, "_coarse", lambda chain, grid: grid)
                    one = fn()
            finally:
                ke._solved.cache_clear()  # keep one-grid solves out of the cache
            return two, one
        return run

    @pytest.mark.parametrize("eta", [0.5, 0.1])
    def test_invariant_and_curve(self, ou, eta, one_grid):
        grid = eg.default_grid(ou, eta, n_nodes=2049)

        def both():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = eg.invariant_measure(ou, eta, grid)
                curve = eg.tv_decay_curve(ou, eta, 3.0, 40, grid=grid)
            return res, curve

        (res2, curve2), (res1, curve1) = one_grid(both)
        assert res2.solve_nodes < res1.solve_nodes == grid.n_nodes
        np.testing.assert_allclose(res2.measure.density, res1.measure.density,
                                   rtol=0, atol=1e-8)
        np.testing.assert_allclose(curve2.values, curve1.values, rtol=0, atol=1e-8)

    def test_uniform_sup_table(self, bp, one_grid):
        two, one = one_grid(lambda: eg.uniform_sup_tv(
            bp, 0.5, np.linspace(-5, 5, 101), range(1, 21)))
        assert two.solve_nodes < one.solve_nodes == 2049
        np.testing.assert_allclose(two.sup_tv, one.sup_tv, rtol=0, atol=1e-8)
        np.testing.assert_allclose(two.spread, one.spread, rtol=0, atol=1e-8)


class TestOneTVRule:
    """tv_distance, the decay curves and the uniform-sup tables read one TV
    rule (kernel._tv) off one propagation (kernel._laws), bit for bit."""

    @pytest.mark.filterwarnings("ignore:lambda")
    @pytest.mark.parametrize("eta", [0.5, 0.1, 0.05])
    def test_curve_table_and_tv_distance(self, eta):
        # x + g(x) = 0.5x is unbounded, so the table steps the EM chain itself
        ou = eg.ornstein_uhlenbeck(kappa=0.5)
        ns = range(1, 9)
        curve = eg.tv_decay_curve(ou, eta, 3.0, len(ns))
        with pytest.warns(UserWarning, match="exploratory"):
            table = eg.uniform_sup_tv(ou, eta, [3.0], ns)
        grid = eg.default_grid(ou, eta)
        pi = eg.invariant_measure(ou, eta, grid).measure
        direct = [eg.tv_distance(eg.n_step_from_point(ou, eta, 3.0, n, grid), pi)
                  for n in ns]
        assert curve.values.tolist() == table.sup_tv.tolist() == direct


class TestStepSizeStudy:
    def test_rate_tracks_step_size(self, ou):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = eg.step_size_study(ou, [0.05, 0.1, 0.2], 3.0, 60,
                                      n_nodes=2049)
        for row in rows:
            assert row.delta_hat == pytest.approx(1 / (1 - row.eta), rel=0.1)
            assert row.m == pytest.approx(1.0, abs=1e-9)

    def test_operator_footprint(self, ou, operators, solves):
        # the study of the cli benchmark: per eta, the solve operator of the
        # sd/2 grid and its read-out onto 2049 rows (8 in all), each built
        # once; an eta's operators are dead once its curve ends, so the
        # cache holds at most 3, read by weak reference (0.82 MB on the
        # default grids of the bulk and the start)
        import weakref
        import emergolab.kernel as ke
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eg.step_size_study(ou, [0.5, 0.2, 0.1, 0.05], 3.0, 40, n_nodes=2049)
        info = ke._kernel_matrix.cache_info()
        assert info.misses == len({key for key, _ in operators}) == 8
        assert info.currsize <= 3
        size = {key: sum(b.nbytes for _, _, b in blocks) for key, blocks in operators}
        alive = {key: weakref.ref(blocks[0][2]) for key, blocks in operators}
        operators.clear()  # now only the cache holds an operator
        held = [size[key] for key, ref in alive.items() if ref() is not None]
        assert len(held) == info.currsize
        assert sum(held) <= 1.0 * 2 ** 20

    def test_no_earlier_read_out_is_held(self, ou, operators, solves):
        # an eta's read-out onto 2049 rows is dropped when the next eta's
        # chain first asks, before that chain builds anything; the solve
        # operators leave by least recent use, and none is built twice
        import weakref
        import emergolab.kernel as ke
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eg.step_size_study(ou, [0.5, 0.2, 0.1, 0.05], 3.0, 40, n_nodes=2049)
        assert ke._kernel_matrix.cache_info().misses == 8
        alive = {key: weakref.ref(blocks[0][2]) for key, blocks in operators}
        assert len(alive) == 8
        operators.clear()  # now only the cache holds an operator
        held = [key for key, ref in alive.items() if ref() is not None]
        assert len(held) == ke._kernel_matrix.cache_info().currsize == 3
        assert [chain.eta for chain, grid, rows in held if rows != grid] == [0.05]

    def test_repeated_eta_rejected(self, ou, solves):
        with pytest.raises(ValueError, match="eta_list .* 0.5 repeats"):
            eg.step_size_study(ou, [0.5, 0.2, 0.5], 3.0, 10, n_nodes=257)
        assert not solves  # rejected before the first row is computed

    def test_stationary_rows_undefined(self, ou, grid12, pi_ou_05):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = eg.step_size_study(ou, [0.5], pi_ou_05, 10)
        assert rows[0].delta_hat is None
        assert rows[0].delta_per_unit_time is None

    def test_underflowed_doeblin_mass_has_no_rate(self, ou, monkeypatch):
        # at small eta the bounded drift's m underflows to 0: a vacuous
        # bound, not a failure
        monkeypatch.setattr(eg.kernel, "whole_space_minorization",
                            lambda spec, eta: 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = eg.step_size_study(ou, [0.5], 3.0, 10, n_nodes=1025)
        assert rows[0].m == 0.0
        assert rows[0].delta_hat is not None

    def test_csv_deterministic(self, ou, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = eg.step_size_study(ou, [0.2, 0.5], 3.0, 20, n_nodes=1025)
        for name in ("a.csv", "b.csv"):
            cli.write_csv(tmp_path / name,
                          ("eta", "delta_hat", "delta_per_unit_time", "m"),
                          ([r.eta for r in rows], [r.delta_hat for r in rows],
                           [r.delta_per_unit_time for r in rows],
                           [r.m for r in rows]))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
