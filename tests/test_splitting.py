import math
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest, norm

import emergolab as eg
from emergolab import cli
from emergolab.errors import MinorizationError
from emergolab.kernel import Chain
from emergolab.splitting import _residual_draws


class TestSplitEpsilon:
    def test_default_is_half(self, smallset_ou):
        eps = eg.resolve_split_epsilon(smallset_ou)
        assert eps == pytest.approx(smallset_ou.epsilon / 2.0)

    def test_oversized_set_is_detected(self, ou, smallset_ou):
        # a hand-built C claiming four times the sharp constant splits at
        # twice it: p < eps*nu at the corners of C^2, which the residual
        # draws from the corner x = 1 reach
        oversized = eg.SmallSetSpec(-1.0, 1.0, 4.0 * smallset_ou.epsilon)
        eps = eg.resolve_split_epsilon(oversized)
        with pytest.raises(MinorizationError):
            _residual_draws(Chain(ou, 0.5, 0.5), np.ones(10 ** 4), oversized,
                            eps, np.random.default_rng(0))

    def test_hand_built_set_gives_half(self):
        assert eg.resolve_split_epsilon(eg.SmallSetSpec(-1.0, 1.0, 0.04)) == 0.02


class TestFullEpsilonThreshold:
    # a hand-built C whose constant is twice the exact one splits with the
    # full exact constant, p >= eps*nu on C^2; a fifth more is detected
    @pytest.mark.parametrize("kind", ["ou", "bounded"])
    def test_either_side_of_threshold(self, kind):
        spec, exact = _split_case(kind, 0.5)
        chain, corner = Chain(spec, 0.5, 0.5), np.ones(10 ** 4)
        inside = eg.SmallSetSpec(-1.0, 1.0, 2.0 * exact.epsilon)
        assert eg.resolve_split_epsilon(inside) == exact.epsilon
        _residual_draws(chain, corner, inside, exact.epsilon,
                        np.random.default_rng(0))
        outside = eg.SmallSetSpec(-1.0, 1.0, 2.4 * exact.epsilon)
        with pytest.raises(MinorizationError):
            _residual_draws(chain, corner, outside,
                            eg.resolve_split_epsilon(outside),
                            np.random.default_rng(0))


class TestInitialBits:
    @pytest.mark.parametrize("d0", [[2], [1, 2], [-1], [0.5], [256]])
    def test_split_ensemble_rejects_bad_bits(self, ou, smallset_ou, d0):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="d0"):
            eg.split_ensemble(ou, 0.5, smallset_ou, [0.2] * len(d0), 3, rng,
                              d0=d0)

    @pytest.mark.parametrize("d0", [2, -1, 0.5])
    def test_run_split_rejects_bad_bit(self, ou, smallset_ou, d0):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="d0"):
            eg.run_split(ou, 0.5, smallset_ou, 0.2, 3, rng, d0=d0)


class TestSamplers:
    def test_nu_uniform_on_c(self, smallset_ou):
        rng = np.random.default_rng(0)
        xs = eg.sample_nu(smallset_ou, rng, size=20000)
        assert xs.min() >= -1.0 and xs.max() <= 1.0
        stat = kstest(xs, "uniform", args=(-1.0, 2.0)).pvalue
        assert stat > 1e-4

    def test_residual_mixture_identity(self, ou, smallset_ou):
        # eps*nu + (1-eps)*residual must reproduce the one-step law:
        # compare means at x = 0.8 (one-step mean 0.4)
        rng = np.random.default_rng(1)
        eps = eg.resolve_split_epsilon(smallset_ou)
        n = 100000
        res = _residual_draws(Chain(ou, 0.5, 0.5), np.full(n, 0.8), smallset_ou,
                              eps, rng)
        nu = eg.sample_nu(smallset_ou, rng, size=n)
        mix = np.where(rng.random(n) < eps, nu, res)
        one_step_mean = 0.4
        one_step_sd = math.sqrt(0.5)
        assert abs(mix.mean() - one_step_mean) <= 5 * one_step_sd / math.sqrt(n)

    def test_residual_step_law(self, ou, smallset_ou):
        # one step of 10**5 residual chains (x = 0.8, d = 0) against the
        # residual CDF (Phi((y - m)/sd) - eps*nu((-inf, y]))/(1 - eps)
        from emergolab import splitting
        n, chain = 100000, Chain(ou, 0.5, 0.5)
        eps = eg.resolve_split_epsilon(smallset_ou)
        rng = np.random.default_rng(19)
        (z, u, r, _), = splitting._step_draws(chain, smallset_ou, eps, 1, n, rng)
        y = splitting._advance_x(chain, smallset_ou, eps, np.full(n, 0.8),
                                 np.zeros(n, dtype=np.int8), z[0], u[0], r[0],
                                 rng)
        m, sd = 0.4, math.sqrt(0.5)

        def cdf(v):
            nu = np.clip((v + 1.0) / 2.0, 0.0, 1.0)
            return (norm.cdf((v - m) / sd) - eps * nu) / (1.0 - eps)
        assert kstest(y, cdf).pvalue > 1e-6

    def test_wrong_eps_detected(self, ou, smallset_ou):
        rng = np.random.default_rng(2)
        with pytest.raises(MinorizationError):
            _residual_draws(Chain(ou, 0.5, 0.5), np.zeros(1000), smallset_ou,
                            0.9, rng)


class TestSplitStep:
    """One split-kernel transition from (x, d): run_split with n_steps=1."""

    def test_atom_regenerates_from_nu(self, ou, smallset_ou):
        rng = np.random.default_rng(3)
        xs = np.array([eg.run_split(ou, 0.5, smallset_ou, 0.3, 1, rng,
                                    d0=1).xs[1]
                       for _ in range(5000)])
        assert xs.min() >= -1.0 and xs.max() <= 1.0
        assert kstest(xs, "uniform", args=(-1.0, 2.0)).pvalue > 1e-4

    def test_off_c_moves_like_plain_chain(self, ou, smallset_ou):
        rng = np.random.default_rng(4)
        xs = np.array([eg.run_split(ou, 0.5, smallset_ou, 6.0, 1, rng,
                                    d0=0).xs[1]
                       for _ in range(5000)])
        assert abs(xs.mean() - 3.0) <= 5 * math.sqrt(0.5 / 5000)
        assert abs(xs.std(ddof=1) - math.sqrt(0.5)) < 0.05

    def test_d_is_refreshed_bernoulli(self, ou, smallset_ou):
        rng = np.random.default_rng(5)
        eps = eg.resolve_split_epsilon(smallset_ou)
        ds = np.array([eg.run_split(ou, 0.5, smallset_ou, 0.0, 1, rng,
                                    d0=0).ds[1]
                       for _ in range(20000)])
        se = math.sqrt(eps * (1 - eps) / ds.size)
        assert abs(ds.mean() - eps) <= 4 * se


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
        _write_trace(blocks, tmp_path / "t.csv")
        _write_blocks(blocks, tmp_path / "b.csv", np.ones_like(blocks.xs))
        tl = (tmp_path / "t.csv").read_text().splitlines()
        assert tl[0] == "step,x,d,in_C,atom_visit"
        assert len(tl) == 502
        bl = (tmp_path / "b.csv").read_text().splitlines()
        assert bl[0] == "block,length,sum"
        assert len(bl) == 1 + blocks.n_blocks
        assert "np.float64" not in tl[1] + bl[min(1, len(bl) - 1)]



def _write_trace(blocks, path):
    """trace.csv in the columns that the split-sim runner writes."""
    atom = np.zeros(blocks.xs.size, dtype=int)
    atom[blocks.atom_visit_times] = 1
    cli.write_csv(path, ("step", "x", "d", "in_C", "atom_visit"),
                  (range(blocks.xs.size), blocks.xs, blocks.ds,
                   blocks.in_c.astype(int), atom))


def _write_blocks(blocks, path, values):
    """blocks.csv in the columns that the split-sim runner writes."""
    cli.write_csv(path, ("block", "length", "sum"),
                  (range(blocks.n_blocks), blocks.block_lengths(),
                   blocks.block_sums(values)))


def _trace_rows(blocks):
    """The per-step loop the trace writer replaced: the byte reference."""
    atom = np.zeros(blocks.xs.size, dtype=int)
    atom[blocks.atom_visit_times] = 1
    return "step,x,d,in_C,atom_visit\n" + "".join(
        f"{t},{float(blocks.xs[t])!r},{int(blocks.ds[t])},"
        f"{int(blocks.in_c[t])},{atom[t]}\n" for t in range(blocks.xs.size))


def _blocks_rows(blocks, values):
    """The per-block loop the blocks writer replaced."""
    sums = blocks.block_sums(values)
    return "block,length,sum\n" + "".join(
        f"{j},{int(ln)},{float(s)!r}\n"
        for j, (ln, s) in enumerate(zip(blocks.block_lengths(), sums)))


class TestColumnarWriters:
    """trace.csv and blocks.csv are formatted from whole columns; their
    bytes must equal the per-row loops they replaced."""

    def test_edge_values(self, tmp_path):
        # -0.0, the least subnormal, exponent notation and an inexact 0.1
        xs = np.array([-0.0, 5e-324, 1e-05, 0.1, 1e22, -0.5])
        ds = np.array([1, 0, 1, 0, 1, 1], dtype=np.int8)
        in_c = np.array([True, False, True, True, True, False])
        blocks = eg.RegenerationBlocks(
            xs=xs, ds=ds, in_c=in_c,
            atom_visit_times=np.flatnonzero(in_c & (ds == 1)))
        _write_trace(blocks, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == _trace_rows(blocks)
        assert (tmp_path / "t.csv").read_text().splitlines()[1] == "0,-0.0,1,1,1"
        for values in (np.ones_like(xs), xs):
            _write_blocks(blocks, tmp_path / "b.csv", values)
            assert (tmp_path / "b.csv").read_text() == _blocks_rows(blocks, values)

    def test_split_trajectory(self, ou, smallset_ou, tmp_path):
        blocks = eg.run_split(ou, 0.5, smallset_ou, 0.0, 3000,
                              np.random.default_rng(14))
        assert blocks.n_blocks > 30
        _write_trace(blocks, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == _trace_rows(blocks)
        vals = blocks.in_c.astype(float)
        _write_blocks(blocks, tmp_path / "b.csv", vals)
        assert (tmp_path / "b.csv").read_text() == _blocks_rows(blocks, vals)

    def test_split_sim_artifacts(self, ou, tmp_path):
        # the runner's trace.csv and blocks.csv against the row loops over
        # the trajectory that the library draws from the same seed
        (tmp_path / "c.ini").write_text(
            "[drift]\nkind = ou\n[experiment]\neta = 0.5\nx0 = 0.25\n"
            "n_steps = 2000\n")
        with pytest.warns(UserWarning, match=r"lambda\(eta\)=1\.25"):
            assert cli.main(["split-sim", "--config", str(tmp_path / "c.ini"),
                             "--out", str(tmp_path / "o"), "--seed", "3"]) in (0, 1)
        smallset = eg.minorization_epsilon(ou, 0.5, -1.0, 1.0)
        eps = eg.resolve_split_epsilon(smallset)
        rng = np.random.default_rng(np.random.SeedSequence(3))
        blocks = eg.run_split(ou, 0.5, smallset, 0.25, 2000, rng)
        assert (tmp_path / "o" / "trace.csv").read_text() == _trace_rows(blocks)
        assert ((tmp_path / "o" / "blocks.csv").read_text()
                == _blocks_rows(blocks, blocks.in_c.astype(float)))

class TestAtomReturn:
    def test_k1_exact_epsilon(self, ou, smallset_ou, grid12):
        checks = eg.atom_return_check(ou, 0.5, smallset_ou, [1], 5000,
                                      grid12, seed=0)
        eps = eg.resolve_split_epsilon(smallset_ou)
        assert checks[0].exact == pytest.approx(eps)

    def test_identity_within_three_se(self, ou, smallset_ou, grid12):
        checks = eg.atom_return_check(ou, 0.5, smallset_ou, [1, 2, 3], 20000,
                                      grid12, seed=7)
        for c in checks:
            assert abs(c.empirical - c.exact) <= 3 * c.se

    def test_k2_matches_adaptive_quadrature(self, ou, smallset_ou, grid12):
        # eps/|C| * int_C P(x, C) dx, P(x, .) = N(x/2, 1/2) at eta = 0.5
        eps = eg.resolve_split_epsilon(smallset_ou)
        sd = math.sqrt(0.5)
        mass, _ = quad(lambda x: norm.cdf((1.0 - 0.5 * x) / sd)
                       - norm.cdf((-1.0 - 0.5 * x) / sd), -1.0, 1.0,
                       epsabs=1e-13, epsrel=1e-13)
        checks = eg.atom_return_check(ou, 0.5, smallset_ou, [2], 100, grid12)
        assert checks[0].exact == pytest.approx(eps * mass / 2.0, abs=1e-8)

    def test_repeated_k_rejected(self, ou, smallset_ou, grid12):
        with pytest.raises(ValueError, match="ks .* 2 repeats"):
            eg.atom_return_check(ou, 0.5, smallset_ou, [2, 2], 100, grid12)

    def test_empty_ks_rejected(self, ou, smallset_ou, grid12):
        with pytest.raises(ValueError, match="ks must list at least one value"):
            eg.atom_return_check(ou, 0.5, smallset_ou, [], 100, grid12)

    def test_ensemble_freed_before_quadrature(self, ou, smallset_ou, grid12,
                                              monkeypatch):
        # the (k_max + 1) x n_mc ensemble must not be held while nu P is
        # built (kernel._laws), which is the largest allocation of the check
        from emergolab import splitting
        held = []
        ensemble, laws = splitting.split_ensemble, splitting._laws

        def keep_refs(*args, **kwargs):
            xs, ds = ensemble(*args, **kwargs)
            held.extend([weakref.ref(xs), weakref.ref(ds)])
            return xs, ds

        def check_freed(*args, **kwargs):
            assert held and all(ref() is None for ref in held)
            return laws(*args, **kwargs)
        monkeypatch.setattr(splitting, "split_ensemble", keep_refs)
        monkeypatch.setattr(splitting, "_laws", check_freed)
        checks = eg.atom_return_check(ou, 0.5, smallset_ou, [1, 3], 2000,
                                      grid12, seed=2)
        monkeypatch.undo()
        assert checks == eg.atom_return_check(ou, 0.5, smallset_ou, [1, 3],
                                              2000, grid12, seed=2)


    def test_ensemble_runs_in_chunks(self, ou, smallset_ou, grid12,
                                     monkeypatch):
        # each chunk of MC_CHUNK chains runs on its own child of
        # SeedSequence(seed), so the first chunks of an ensemble are the
        # whole of a smaller one, as sample_paths' path chunks are
        from emergolab import splitting
        sizes, hits = [], []
        ensemble = splitting.split_ensemble

        def record(spec, eta, smallset, x0, *args, **kwargs):
            xs, ds = ensemble(spec, eta, smallset, x0, *args, **kwargs)
            sizes.append(x0.size)
            hits.append(int(np.count_nonzero(smallset.contains(xs[3])
                                             & (ds[3] == 1))))
            return xs, ds
        monkeypatch.setattr(splitting, "split_ensemble", record)
        monkeypatch.setattr(splitting, "MC_CHUNK", 400)
        big = eg.atom_return_check(ou, 0.5, smallset_ou, [3], 1000, grid12, seed=4)
        assert sizes == [400, 400, 200]
        assert big[0].empirical == sum(hits) / 1000
        small = eg.atom_return_check(ou, 0.5, smallset_ou, [3], 800, grid12, seed=4)
        assert small[0].empirical == (hits[0] + hits[1]) / 800

    def test_no_chains_rejected(self, ou, smallset_ou, grid12):
        with pytest.raises(ValueError, match="n_mc must be >= 1"):
            eg.atom_return_check(ou, 0.5, smallset_ou, [1], 0, grid12)


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
    """run_split steps one chain on Python floats; it must draw the stream
    of a one-replicate split_ensemble run, bit for bit."""

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

    def test_one_chain_avoids_the_lockstep_loop(self, ou, smallset_ou,
                                                monkeypatch):
        from emergolab import splitting

        def lockstep(*args, **kwargs):
            raise AssertionError("one chain went through the lockstep loop")
        monkeypatch.setattr(splitting, "split_ensemble", lockstep)
        monkeypatch.setattr(splitting, "_advance_x", lockstep)
        rng = np.random.default_rng(0)
        assert eg.run_split(ou, 0.5, smallset_ou, 0.0, 300, rng).xs.size == 301

    def test_too_large_eps_raises_like_lockstep(self, ou):
        loose = eg.SmallSetSpec(-1.0, 1.0, 1.9)  # eps = 0.95
        for run in (lambda rng: eg.run_split(ou, 0.5, loose, 0.0, 2000, rng),
                    lambda rng: eg.split_ensemble(ou, 0.5, loose, [0.0], 2000,
                                                  rng)):
            with pytest.raises(MinorizationError):
                run(np.random.default_rng(1))

    @pytest.mark.parametrize("kind", ["ou", "bounded"])
    def test_matches_ensemble_across_blocks(self, kind, monkeypatch):
        # blocks of 7 steps: 200 steps cross 28 block boundaries, and the
        # rejected proposals re-propose between them
        from emergolab import splitting
        spec, smallset = _split_case(kind, 0.5)
        monkeypatch.setattr(splitting, "STEP_DRAWS", 7)
        rejected = []
        residual = splitting._residual_draws

        def count(chain, x, *args):
            rejected.append(x.size)
            return residual(chain, x, *args)
        monkeypatch.setattr(splitting, "_residual_draws", count)
        scalar, lockstep = np.random.default_rng(23), np.random.default_rng(23)
        blocks = eg.run_split(spec, 0.5, smallset, 0.4, 200, scalar)
        xs, ds = eg.split_ensemble(spec, 0.5, smallset, [0.4], 200, lockstep)
        assert rejected  # the lockstep side re-proposed at least once
        assert np.array_equal(blocks.xs, xs[:, 0])
        assert np.array_equal(blocks.ds, ds[:, 0])
        assert scalar.bit_generator.state == lockstep.bit_generator.state

    def test_too_large_eps_raises_inside_a_block(self, ou):
        # on C = [-0.2, 0.2] at eps = 0.5, eps*nu/p(x, y) > 1 for every y in
        # C, so the first residual proposal in C raises before any
        # re-proposal: the generator has drawn one block of 200 steps, no more
        narrow = eg.SmallSetSpec(-0.2, 0.2, 1.0)  # eps = 0.5
        reference = np.random.default_rng(5)
        for draw in (reference.standard_normal, reference.random, reference.random):
            draw(200)
        for run in (lambda rng: eg.run_split(ou, 0.5, narrow, 0.0, 200, rng,
                                             d0=0),
                    lambda rng: eg.split_ensemble(ou, 0.5, narrow, [0.0], 200,
                                                  rng, d0=[0])):
            rng = np.random.default_rng(5)
            with pytest.raises(MinorizationError):
                run(rng)
            assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1])
    def test_eps_outside_unit_interval(self, ou, eps):
        rng = np.random.default_rng(2)
        smallset = eg.SmallSetSpec(-1.0, 1.0, 2.0 * eps)
        with pytest.raises(ValueError, match="eps"):
            eg.run_split(ou, 0.5, smallset, 0.0, 10, rng)
        with pytest.raises(ValueError, match="eps"):  # the lockstep chains too
            eg.split_ensemble(ou, 0.5, smallset, [0.0, 0.5], 10, rng)

    def test_explosive_chain_names_the_drift_argument(self):
        # mean -3.5*x: |x| overflows to inf, and the next step must stop
        fast = eg.ornstein_uhlenbeck(kappa=5.0)
        smallset = eg.minorization_epsilon(fast, 0.9, -1.0, 1.0)
        with pytest.raises(ValueError, match="drift argument must be finite"):
            eg.run_split(fast, 0.9, smallset, 3.0, 2000,
                         np.random.default_rng(3))
