import math

import numpy as np
import pytest

import emergolab as eg
from emergolab import cli
from emergolab.kernel import Chain, gaussian_on_grid
from emergolab.simulate import PATH_CHUNK


def write_paths_csv(paths, path):
    """A path ensemble as replicate,step,x rows."""
    n_paths, n_cols = paths.shape
    cli.write_csv(path, ("replicate", "step", "x"),
                  (np.repeat(np.arange(n_paths), n_cols),
                   np.tile(np.arange(n_cols), n_paths), paths.ravel()))


def write_return_times_csv(x0s, sigmas, censored, path):
    """return_times.csv in the columns that the return-times runner writes."""
    cli.write_csv(path, ("replicate", "x0", "sigma", "censored"),
                  (range(x0s.size), x0s, sigmas, censored.astype(int)))


class TestSamplePaths:
    def test_shape_and_start(self, ou):
        cfg = eg.PathConfig(eta=0.1, n_steps=50, seed=0, x0=2.0)
        paths = eg.sample_paths(ou, cfg, 100)
        assert paths.shape == (100, 51)
        assert np.all(paths[:, 0] == 2.0)

    def test_seed_reproducibility(self, ou):
        cfg = eg.PathConfig(eta=0.1, n_steps=20, seed=7, x0=0.0)
        a = eg.sample_paths(ou, cfg, 10)
        b = eg.sample_paths(ou, cfg, 10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, ou):
        a = eg.sample_paths(ou, eg.PathConfig(0.1, 20, 7, 0.0), 10)
        b = eg.sample_paths(ou, eg.PathConfig(0.1, 20, 8, 0.0), 10)
        assert not np.array_equal(a, b)

    def test_path_subsets_stable_under_ensemble_size(self, ou):
        # chunk streams filled row by row: the first 10 paths of a 50-path
        # ensemble coincide with a 10-path ensemble at the same seed
        cfg = eg.PathConfig(eta=0.1, n_steps=20, seed=3, x0=0.0)
        small = eg.sample_paths(ou, cfg, 10)
        big = eg.sample_paths(ou, cfg, 50)
        assert np.array_equal(big[:10], small)

    def test_subsets_stable_with_measure_start(self, ou, grid12):
        xi = gaussian_on_grid(grid12, 0.0, 1.0)
        cfg = eg.PathConfig(eta=0.1, n_steps=5, seed=3, x0=xi)
        small = eg.sample_paths(ou, cfg, 10)
        big = eg.sample_paths(ou, cfg, PATH_CHUNK + 10)
        assert np.array_equal(big[:10], small)

    def test_chunk_regenerated_from_its_own_stream(self, ou):
        eta, n, seed, x0 = 0.1, 20, 6, 1.5
        paths = eg.sample_paths(ou, eg.PathConfig(eta, n, seed, x0),
                                PATH_CHUNK + 3)
        # chunk c's stream is child c of the seed's second (noise) child
        stream = np.random.SeedSequence(seed, spawn_key=(1, 1))
        noise = np.random.default_rng(stream).standard_normal(n)
        chain = Chain(ou, eta, eta)
        x = np.array([x0])
        want = [x0]
        for z in noise:
            x = chain.step(x, z)
            want.append(float(x[0]))
        assert np.array_equal(paths[PATH_CHUNK], want)
        assert not np.array_equal(paths[PATH_CHUNK], paths[0])

    def test_generators_per_chunk(self, ou, monkeypatch):
        # seeding cost: one generator per chunk plus one for initial states
        made = []
        real = np.random.default_rng

        def counting(*args, **kwargs):
            made.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        n = 10_000
        eg.sample_paths(ou, eg.PathConfig(0.1, 2, 0, 0.0), n)
        assert len(made) <= math.ceil(n / PATH_CHUNK) + 1

    def test_ar1_moments(self, ou):
        # OU EM chain is AR(1): mean rho^n x0, var eta sigma^2 (1-rho^{2n})/(1-rho^2)
        eta, x0, n, n_paths = 0.2, 3.0, 30, 20000
        assert n_paths > PATH_CHUNK  # the moments pool many chunk streams
        paths = eg.sample_paths(ou, eg.PathConfig(eta, n, 11, x0), n_paths)
        rho = 1 - eta
        for k in (1, 10, 30):
            mean = rho ** k * x0
            var = eta * (1 - rho ** (2 * k)) / (1 - rho ** 2)
            se_mean = math.sqrt(var / n_paths)
            assert abs(paths[:, k].mean() - mean) <= 4 * se_mean
            se_var = var * math.sqrt(2.0 / (n_paths - 1))
            assert abs(paths[:, k].var(ddof=1) - var) <= 4 * se_var

    def test_substream_independence(self, ou):
        paths = eg.sample_paths(ou, eg.PathConfig(0.1, 2000, 5, 0.0), 2)
        inc0 = np.diff(paths[0])
        inc1 = np.diff(paths[1])
        r = np.corrcoef(inc0, inc1)[0, 1]
        assert abs(r) < 4.0 / math.sqrt(inc0.size)

    def test_measure_initial_states(self, ou, grid12):
        xi = gaussian_on_grid(grid12, 0.0, 1.0)
        paths = eg.sample_paths(ou, eg.PathConfig(0.1, 1, 9, xi), 5000)
        assert abs(paths[:, 0].mean()) < 4.0 / math.sqrt(5000)

    def test_em_step_formula(self, ou):
        got = Chain(ou, 0.1, 0.1).step(2.0, 0.5)
        assert got == pytest.approx(2.0 - 0.2 + math.sqrt(0.1) * 0.5)


class TestReturnTimes:
    def test_whole_range_returns_immediately(self, ou):
        _, sigmas, censored = eg.return_times_ensemble(
            ou, 0.1, 0.0, (-1e9, 1e9), 100, 1, seed=0)
        assert sigmas.tolist() == [1] and not censored[0]

    def test_return_from_inside_almost_surely_one_step(self, ou):
        # one-step exit from 0 beyond +-11.6 has astronomically small mass
        _, sigmas, censored = eg.return_times_ensemble(
            ou, 0.1, 0.0, (-11.6, 11.6), 100, 5000, seed=1)
        assert np.mean(sigmas == 1) >= 0.999
        assert not censored.any()

    def test_censoring_is_data(self, ou):
        _, sigmas, censored = eg.return_times_ensemble(
            ou, 0.1, 0.0, (50.0, 60.0), horizon=3, n_rep=1, seed=0)
        assert censored[0] and sigmas.tolist() == [3]

    def test_median_return_grows_with_distance(self, ou):
        meds = []
        for x0 in (20.0, 200.0):
            _, sigmas, _ = eg.return_times_ensemble(
                ou, 0.1, x0, (-11.6, 11.6), 500, 400, seed=2)
            meds.append(np.median(sigmas))
        assert meds[1] > meds[0]

    def test_ensemble_deterministic(self, ou):
        a = eg.return_times_ensemble(ou, 0.1, 15.0, (-11.6, 11.6), 200, 100, seed=4)
        b = eg.return_times_ensemble(ou, 0.1, 15.0, (-11.6, 11.6), 200, 100, seed=4)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestExpMoment:
    def test_whole_range_gives_beta(self, ou):
        _, sigmas, censored = eg.return_times_ensemble(
            ou, 0.1, 0.0, (-1e9, 1e9), 50, 1000, seed=0)
        est = eg.exp_moment(sigmas, censored, 1.5, 50)
        assert est.mean == pytest.approx(1.5)
        assert est.usable
        assert est.censor_bias_bound == 0.0

    def test_moment_bound_from_origin(self, ou):
        dc = eg.derive_constants(ou, 0.1)
        _, sigmas, censored = eg.return_times_ensemble(
            ou, 0.1, 0.0, (-dc.radius, dc.radius), 1000, 20000, seed=1)
        est = eg.exp_moment(sigmas, censored, dc.beta_eta, 1000)
        bound = eg.lyapunov(0.0) + dc.b_eta * dc.beta_eta
        assert est.usable
        assert est.ci_high <= bound

    def test_uniform_bound_over_return_set(self, ou):
        dc = eg.derive_constants(ou, 0.1)
        bound = (1.0 + dc.radius ** 2) + dc.b_eta * dc.beta_eta
        for x0 in np.linspace(-dc.radius, dc.radius, 5):
            _, sigmas, censored = eg.return_times_ensemble(
                ou, 0.1, float(x0), (-dc.radius, dc.radius), 1000, 2000,
                seed=3)
            est = eg.exp_moment(sigmas, censored, dc.beta_eta, 1000)
            assert est.ci_high <= bound

    def test_all_censored_flagged(self, ou):
        _, sigmas, censored = eg.return_times_ensemble(
            ou, 0.1, 0.0, (50.0, 60.0), 3, 100, seed=0)
        est = eg.exp_moment(sigmas, censored, 1.5, 3)
        assert not est.usable
        assert est.n_censored == 100

    @pytest.mark.parametrize("beta", [1.0, 0.5])
    def test_beta_must_exceed_one(self, beta):
        with pytest.raises(ValueError, match="beta"):
            eg.exp_moment(np.array([1, 2]), np.zeros(2, dtype=bool), beta, 10)

    def test_overflowed_moment_is_inf(self):
        # 1.5^2000 is beyond the float range: the mean and its upper bound
        # read inf, without numpy's overflow and inf - inf warnings
        sigmas = np.array([3, 2000, 5])
        est = eg.exp_moment(sigmas, np.zeros(3, dtype=bool), 1.5, 10 ** 6)
        assert est.mean == math.inf and est.ci_high == math.inf
        assert est.usable


class TestCsvWriters:
    def test_paths_csv(self, ou, tmp_path):
        paths = eg.sample_paths(ou, eg.PathConfig(0.1, 3, 0, 0.0), 2)
        write_paths_csv(paths, tmp_path / "p.csv")
        lines = (tmp_path / "p.csv").read_text().splitlines()
        assert lines[0] == "replicate,step,x"
        assert len(lines) == 1 + 2 * 4
        assert "np.float64" not in lines[1]

    def test_return_times_csv(self, ou, tmp_path):
        x0s, sigmas, censored = eg.return_times_ensemble(
            ou, 0.1, 15.0, (-11.6, 11.6), 100, 3, seed=0)
        write_return_times_csv(x0s, sigmas, censored, tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == "replicate,x0,sigma,censored"
        assert len(lines) == 4


# Floats whose repr is easy to get wrong: signed zero, the least subnormal,
# exponent notation at both ends, and a value with no exact binary form.
EDGE_FLOATS = [-0.0, 5e-324, 1e-05, 0.1, 1e22]


def _paths_rows(paths):
    """The per-element loop the paths writer replaced: the byte reference."""
    return "replicate,step,x\n" + "".join(
        f"{r},{k},{float(paths[r, k])!r}\n"
        for r in range(paths.shape[0]) for k in range(paths.shape[1]))


def _return_times_rows(x0s, sigmas, censored):
    """The per-replicate loop the return-times writer replaced."""
    return "replicate,x0,sigma,censored\n" + "".join(
        f"{r},{float(x)!r},{int(s)},{int(c)}\n"
        for r, (x, s, c) in enumerate(zip(x0s, sigmas, censored)))


class TestColumnarWriters:
    """The writers format whole columns; their bytes must equal the
    per-row loops they replaced."""

    def test_paths_edge_values(self, tmp_path):
        paths = np.array([EDGE_FLOATS, [-x for x in EDGE_FLOATS]])
        write_paths_csv(paths, tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_text() == _paths_rows(paths)

    def test_paths_ensemble(self, ou, tmp_path):
        paths = eg.sample_paths(ou, eg.PathConfig(0.1, 7, 3, 2.0), 5)
        write_paths_csv(paths, tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_text() == _paths_rows(paths)

    def test_return_times_edge_values(self, tmp_path):
        horizon = 10 ** 9
        x0s = np.array(EDGE_FLOATS)
        sigmas = np.array([1, 2, 17, horizon - 1, horizon], dtype=np.int64)
        censored = np.array([False, False, False, False, True])
        write_return_times_csv(x0s, sigmas, censored, tmp_path / "r.csv")
        assert ((tmp_path / "r.csv").read_text()
                == _return_times_rows(x0s, sigmas, censored))
        assert (tmp_path / "r.csv").read_text().endswith(
            f"4,1e+22,{horizon},1\n")

    def test_return_times_ensemble(self, ou, tmp_path):
        # starts far from D, so sigma varies and some replicates censor
        ens = eg.return_times_ensemble(ou, 0.1, 40.0, (-11.6, 11.6), 12,
                                       200, seed=4)
        assert 0 < ens[2].sum() < 200
        write_return_times_csv(*ens, tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_text() == _return_times_rows(*ens)

    @pytest.mark.parametrize("n", [cli.CSV_CHUNK - 1, cli.CSV_CHUNK,
                                   cli.CSV_CHUNK + 1])
    def test_rows_around_a_chunk(self, n, tmp_path):
        rng = np.random.default_rng(n)
        x0s = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        sigmas = rng.integers(1, 10 ** 9, n)
        censored = rng.random(n) < 0.1
        write_return_times_csv(x0s, sigmas, censored, tmp_path / "r.csv")
        assert ((tmp_path / "r.csv").read_text()
                == _return_times_rows(x0s, sigmas, censored))

    def test_return_times_artifact(self, ou, tmp_path):
        # the runner's return_times.csv against the row loop over the
        # ensemble that the library draws from the same seed
        (tmp_path / "c.ini").write_text(
            "[drift]\nkind = ou\n[experiment]\neta = 0.1\nx0 = 40.0\n"
            "n_rep = 300\nhorizon = 12\n")
        cli.main(["return-times", "--config", str(tmp_path / "c.ini"),
                  "--out", str(tmp_path / "o"), "--seed", "6"])
        radius = eg.derive_constants(ou, 0.1).radius
        ens = eg.return_times_ensemble(ou, 0.1, 40.0, (-radius, radius), 12,
                                       300, 6)
        assert 0 < ens[2].sum() < 300
        assert ((tmp_path / "o" / "return_times.csv").read_text()
                == _return_times_rows(*ens))
