import math

import numpy as np
import pytest
from scipy.stats import kstest

import emergolab as eg
from emergolab.errors import MinorizationError
from emergolab.splitting import _sample_residual_many


class TestSplitEpsilon:
    def test_default_is_half(self, ou, smallset_ou):
        eps = eg.resolve_split_epsilon(ou, 0.5, smallset_ou)
        assert eps == pytest.approx(smallset_ou.epsilon / 2.0)

    def test_full_epsilon_rejected_when_not_dominated(self, ou, smallset_ou):
        # p >= 2 eps nu fails at the corners of C^2 for the sharp eps
        with pytest.raises(MinorizationError):
            eg.resolve_split_epsilon(ou, 0.5, smallset_ou, use_full_epsilon=True)

    def test_full_epsilon_accepted_when_dominated(self, ou):
        loose = eg.SmallSetSpec(-1.0, 1.0, 0.02)
        eps = eg.resolve_split_epsilon(ou, 0.5, loose, use_full_epsilon=True)
        assert eps == pytest.approx(0.02)


class TestSamplers:
    def test_nu_uniform_on_c(self, smallset_ou):
        rng = np.random.default_rng(0)
        xs = eg.sample_nu(smallset_ou, rng, size=20000)
        assert xs.min() >= -1.0 and xs.max() <= 1.0
        stat = kstest(xs, "uniform", args=(-1.0, 2.0)).pvalue
        assert stat > 1e-4

    def test_residual_requires_x_in_c(self, ou, smallset_ou):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            eg.sample_residual(ou, 0.5, 5.0, smallset_ou, 0.05, rng)

    def test_residual_mixture_identity(self, ou, smallset_ou):
        # eps*nu + (1-eps)*residual must reproduce the one-step law:
        # compare means at x = 0.8 (one-step mean 0.4)
        rng = np.random.default_rng(1)
        eps = eg.resolve_split_epsilon(ou, 0.5, smallset_ou)
        n = 100000
        res = _sample_residual_many(ou, 0.5, np.full(n, 0.8), smallset_ou, eps, rng)
        nu = eg.sample_nu(smallset_ou, rng, size=n)
        mix = np.where(rng.random(n) < eps, nu, res)
        one_step_mean = 0.4
        one_step_sd = math.sqrt(0.5)
        assert abs(mix.mean() - one_step_mean) <= 5 * one_step_sd / math.sqrt(n)

    def test_wrong_eps_detected(self, ou, smallset_ou):
        rng = np.random.default_rng(2)
        with pytest.raises(MinorizationError):
            _sample_residual_many(ou, 0.5, np.zeros(1000), smallset_ou,
                                  0.9, rng)


class TestSplitStep:
    def test_atom_regenerates_from_nu(self, ou, smallset_ou):
        rng = np.random.default_rng(3)
        xs = np.array([eg.step_split(ou, 0.5, smallset_ou,
                                     eg.SplitState(0.3, 1), rng).x
                       for _ in range(5000)])
        assert xs.min() >= -1.0 and xs.max() <= 1.0
        assert kstest(xs, "uniform", args=(-1.0, 2.0)).pvalue > 1e-4

    def test_off_c_moves_like_plain_chain(self, ou, smallset_ou):
        rng = np.random.default_rng(4)
        xs = np.array([eg.step_split(ou, 0.5, smallset_ou,
                                     eg.SplitState(6.0, 0), rng).x
                       for _ in range(5000)])
        assert abs(xs.mean() - 3.0) <= 5 * math.sqrt(0.5 / 5000)
        assert abs(xs.std(ddof=1) - math.sqrt(0.5)) < 0.05

    def test_d_is_refreshed_bernoulli(self, ou, smallset_ou):
        rng = np.random.default_rng(5)
        eps = eg.resolve_split_epsilon(ou, 0.5, smallset_ou)
        ds = np.array([eg.step_split(ou, 0.5, smallset_ou,
                                     eg.SplitState(0.0, 0), rng).d
                       for _ in range(20000)])
        se = math.sqrt(eps * (1 - eps) / ds.size)
        assert abs(ds.mean() - eps) <= 4 * se

    def test_invalid_d_rejected(self):
        with pytest.raises(ValueError):
            eg.SplitState(0.0, 2)


class TestRunSplit:
    def test_trajectory_bookkeeping(self, ou, smallset_ou):
        rng = np.random.default_rng(6)
        blocks = eg.run_split(ou, 0.5, smallset_ou, 0.0, 2000, rng)
        assert blocks.xs.size == 2001
        t = blocks.atom_visit_times
        assert np.all(np.diff(t) >= 1)
        # atom visits are exactly the in-C & d=1 states
        mask = blocks.in_c & (blocks.ds == 1)
        assert np.array_equal(np.flatnonzero(mask), t)
        assert blocks.block_lengths().sum() == t[-1] - t[0]

    def test_block_sums_partition_the_trace(self, ou, smallset_ou):
        rng = np.random.default_rng(7)
        blocks = eg.run_split(ou, 0.5, smallset_ou, 0.0, 3000, rng)
        vals = blocks.xs ** 2
        t = blocks.atom_visit_times
        sums = blocks.block_sums(vals)
        assert sums.sum() == pytest.approx(vals[t[0] + 1:t[-1] + 1].sum())

    def test_marginal_matches_plain_chain(self, ou, smallset_ou, grid12):
        # x-marginal of the split chain after n steps equals xi P^n
        rng = np.random.default_rng(8)
        n_rep = 40000
        xs, _ = eg.split_ensemble(ou, 0.5, smallset_ou, np.zeros(n_rep), 3, rng)
        from emergolab import empirical
        dist = eg.n_step_from_point(ou, 0.5, 0.0, 3, grid12)
        edges = empirical.coarse_bin_edges(dist)
        q = empirical.binned_probabilities(dist, edges)
        tv = empirical.binned_tv(xs[3], dist, edges)
        assert tv <= empirical.binned_tv_envelope(q, n_rep)

    def test_csv_writers(self, ou, smallset_ou, tmp_path):
        rng = np.random.default_rng(9)
        blocks = eg.run_split(ou, 0.5, smallset_ou, 0.0, 500, rng)
        blocks.write_trace_csv(tmp_path / "t.csv")
        blocks.write_blocks_csv(tmp_path / "b.csv")
        tl = (tmp_path / "t.csv").read_text().splitlines()
        assert tl[0] == "step,x,d,in_C,atom_visit"
        assert len(tl) == 502
        bl = (tmp_path / "b.csv").read_text().splitlines()
        assert bl[0] == "block,length,sum"
        assert len(bl) == 1 + blocks.n_blocks
        assert "np.float64" not in tl[1] + bl[min(1, len(bl) - 1)]


class TestAtomReturn:
    def test_k1_exact_epsilon(self, ou, smallset_ou, grid12):
        checks = eg.atom_return_check(ou, 0.5, smallset_ou, [1], 5000,
                                      grid12, seed=0)
        eps = eg.resolve_split_epsilon(ou, 0.5, smallset_ou)
        assert checks[0].exact == pytest.approx(eps)

    def test_identity_within_three_se(self, ou, smallset_ou, grid12):
        checks = eg.atom_return_check(ou, 0.5, smallset_ou, [1, 2, 3], 20000,
                                      grid12, seed=7)
        for c in checks:
            assert abs(c.empirical - c.exact) <= 3 * c.se


class TestRegenerativeEstimator:
    def test_requires_enough_blocks(self, ou, smallset_ou):
        rng = np.random.default_rng(10)
        blocks = eg.run_split(ou, 0.5, smallset_ou, 0.0, 60, rng)
        with pytest.raises(ValueError):
            eg.regenerative_pi_estimate(blocks, values=blocks.xs * 0 + 1)

    def test_estimates_stationary_probability(self, ou, smallset_ou):
        rng = np.random.default_rng(3)
        blocks = eg.run_split(ou, 0.5, smallset_ou, 0.0, 40000, rng)
        vals = np.where(np.abs(blocks.xs) <= 1.0, 1.0, 0.0)
        est = eg.regenerative_pi_estimate(blocks, values=vals)
        from scipy.stats import norm
        oracle = norm.cdf(1, 0, math.sqrt(2 / 3)) - norm.cdf(-1, 0, math.sqrt(2 / 3))
        assert est.ci_low <= oracle <= est.ci_high
        assert est.n_blocks >= 1000

    def test_t_quantile_constant(self):
        from scipy.stats import t
        from emergolab import splitting
        assert splitting.T_975 == t.ppf(0.975, splitting.N_BATCHES - 1)

    def test_constant_function_degenerate(self, ou, smallset_ou):
        rng = np.random.default_rng(11)
        blocks = eg.run_split(ou, 0.5, smallset_ou, 0.0, 5000, rng)
        est = eg.regenerative_pi_estimate(blocks, values=np.ones(blocks.xs.size))
        assert est.value == pytest.approx(1.0)

    def test_test_function_interface(self, ou, smallset_ou):
        rng = np.random.default_rng(12)
        blocks = eg.run_split(ou, 0.5, smallset_ou, 0.0, 8000, rng)
        a = eg.regenerative_pi_estimate(blocks, test_function=lambda x: x ** 2)
        b = eg.regenerative_pi_estimate(blocks, values=blocks.xs ** 2)
        assert a.value == pytest.approx(b.value)


class TestAtomReturnTail:
    def test_geometric_tail_fit(self, ou, smallset_ou):
        rng = np.random.default_rng(13)
        blocks = eg.run_split(ou, 0.5, smallset_ou, 0.0, 30000, rng)
        fit = eg.atom_return_tail(blocks)
        assert fit.gamma_max > 1.0
        # return-time tail must decay: fitted survival slope is negative
        assert fit.slope < 0
        assert 0.0 < fit.decay_factor < 1.0


def _split_case(kind, eta):
    spec = eg.ornstein_uhlenbeck(kappa=1.0) if kind == "ou" \
        else eg.bounded_perturbation(kappa=1.0, a=0.5)
    return spec, eg.minorization_epsilon(spec, eta, -1.0, 1.0)


class TestScalarLoop:
    """run_split and step_split step one chain on Python floats; they must
    draw the stream of a one-replicate split_ensemble run, bit for bit."""

    @pytest.mark.parametrize("kind", ["ou", "bounded"])
    @pytest.mark.parametrize("eta", [0.5, 0.1])
    @pytest.mark.parametrize("start", ["point", "measure"])
    @pytest.mark.parametrize("d0", [None, 0, 1])
    def test_run_split_matches_ensemble(self, kind, eta, start, d0):
        spec, smallset = _split_case(kind, eta)
        x0 = 0.4 if start == "point" else \
            eg.gaussian_on_grid(eg.Grid(-6.0, 6.0, 257), 0.5, 1.0)
        seed = 17 + 2 * (d0 or 0) + (start == "measure")
        scalar, lockstep = np.random.default_rng(seed), np.random.default_rng(seed)
        blocks = eg.run_split(spec, eta, smallset, x0, 2000, scalar, d0=d0)
        x = x0.sample(1, lockstep) if start == "measure" else [x0]
        xs, ds = eg.split_ensemble(spec, eta, smallset, x, 2000, lockstep,
                                   d0=None if d0 is None else [d0])
        assert np.array_equal(blocks.xs, xs[:, 0])
        assert np.array_equal(blocks.ds, ds[:, 0])
        assert blocks.ds.dtype == ds.dtype
        assert scalar.bit_generator.state == lockstep.bit_generator.state

    @pytest.mark.parametrize("kind", ["ou", "bounded"])
    @pytest.mark.parametrize("eta", [0.5, 0.1])
    def test_chained_step_split_matches_ensemble(self, kind, eta):
        spec, smallset = _split_case(kind, eta)
        scalar, lockstep = np.random.default_rng(23), np.random.default_rng(23)
        state = eg.SplitState(-0.2, 1)
        path = [state]
        for _ in range(50):
            path.append(eg.step_split(spec, eta, smallset, path[-1], scalar))
        xs, ds = eg.split_ensemble(spec, eta, smallset, [state.x], 50,
                                   lockstep, d0=[state.d])
        assert [s.x for s in path] == xs[:, 0].tolist()
        assert [s.d for s in path] == ds[:, 0].tolist()
        assert all(type(s.x) is float for s in path[1:])
        assert scalar.bit_generator.state == lockstep.bit_generator.state

    def test_one_chain_avoids_the_lockstep_loop(self, ou, smallset_ou,
                                                monkeypatch):
        from emergolab import splitting

        def lockstep(*args, **kwargs):
            raise AssertionError("one chain went through the lockstep loop")
        monkeypatch.setattr(splitting, "split_ensemble", lockstep)
        monkeypatch.setattr(splitting, "_advance_x", lockstep)
        rng = np.random.default_rng(0)
        assert eg.run_split(ou, 0.5, smallset_ou, 0.0, 300, rng).xs.size == 301
        assert eg.step_split(ou, 0.5, smallset_ou, eg.SplitState(0.0, 0),
                             rng).d in (0, 1)

    def test_too_large_eps_raises_like_lockstep(self, ou, smallset_ou):
        for run in (lambda rng: eg.run_split(ou, 0.5, smallset_ou, 0.0, 2000,
                                             rng, eps=0.95),
                    lambda rng: eg.split_ensemble(ou, 0.5, smallset_ou, [0.0],
                                                  2000, rng, eps=0.95)):
            with pytest.raises(MinorizationError):
                run(np.random.default_rng(1))

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1])
    def test_eps_outside_unit_interval(self, ou, smallset_ou, eps):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="eps"):
            eg.run_split(ou, 0.5, smallset_ou, 0.0, 10, rng, eps=eps)
        with pytest.raises(ValueError, match="eps"):
            eg.step_split(ou, 0.5, smallset_ou, eg.SplitState(0.0, 0), rng,
                          eps=eps)

    def test_explosive_chain_names_the_drift_argument(self):
        # mean -3.5*x: |x| overflows to inf, and the next step must stop
        fast = eg.ornstein_uhlenbeck(kappa=5.0)
        smallset = eg.minorization_epsilon(fast, 0.9, -1.0, 1.0)
        with pytest.raises(ValueError, match="drift argument must be finite"):
            eg.run_split(fast, 0.9, smallset, 3.0, 2000,
                         np.random.default_rng(3))
