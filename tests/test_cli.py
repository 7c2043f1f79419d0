import math
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import emergolab as eg
from emergolab import cli
from emergolab.errors import ConfigError


def write_config(path, text):
    path.write_text(text)
    return str(path)


OU_CFG = """
[drift]
kind = ou
kappa = 1.0
sigma = 1.0

[experiment]
eta = 0.5
x0 = 3.0
n_steps = 12
"""


@pytest.fixture(autouse=True)
def quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini",
                           "[drift]\nkind = ou\nfoo = 1\n")
        with pytest.raises(ConfigError, match="foo"):
            cli.load_config(cfg)

    def test_unknown_section_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "[extra]\nx = 1\n")
        with pytest.raises(ConfigError, match="extra"):
            cli.load_config(cfg)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            cli.load_config("/nonexistent/path.ini")

    def test_eta_out_of_range_names_constraint(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini",
                           "[drift]\nkind = ou\n[experiment]\neta = 1.5\n")
        status = cli.main(["constants", "--config", cfg,
                           "--out", str(tmp_path / "o")])
        assert status == 2
        assert "(0.0, 1.0)" in capsys.readouterr().err

    def test_non_numeric_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini",
                           "[drift]\nkind = ou\n[experiment]\neta = fast\n")
        assert cli.main(["constants", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2

    def test_experiment_kind_mismatch(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini",
                           "[experiment]\nkind = invariant\neta = 0.1\n")
        assert cli.main(["constants", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2


class TestExitCodes:
    def test_all_checks_pass_zero(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", OU_CFG.replace("0.5", "0.1"))
        assert cli.main(["constants", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0

    def test_failed_check_one(self, tmp_path):
        # eta=0.5 puts lambda outside (0,1): beta_valid check fails
        cfg = write_config(tmp_path / "c.ini", OU_CFG)
        assert cli.main(["constants", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 1
        report = (tmp_path / "o" / "report.txt").read_text()
        assert "check:beta_valid=FAIL" in report

    def test_numerical_failure_three(self, tmp_path, capsys):
        # tiny grid cannot hold one kernel step: numerical failure, not crash
        cfg = write_config(tmp_path / "c.ini", OU_CFG + "\n[grid]\n"
                           "lower = -0.5\nupper = 0.5\nn_nodes = 129\n")
        assert cli.main(["invariant", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 3
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["uniform-sup", "tv-decay"])
    def test_leaking_grid_three(self, tmp_path, capsys, sub):
        # every propagation checks the off-grid leakage, uniform-sup included
        cfg = write_config(tmp_path / "c.ini",
                           "[drift]\nkind = ou\nkappa = 0.5\n"
                           "[grid]\nlower = -1\nupper = 1\nn_nodes = 513\n"
                           "[experiment]\neta = 0.5\nn_list = 1,2,3\n")
        assert cli.main([sub, "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 3
        assert "leakage" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["invariant", "tv-decay"])
    def test_leaking_first_step_three(self, tmp_path, capsys, sub):
        # one step, or the invariant density itself, leaks 0.157 off the grid
        cfg = write_config(tmp_path / "c.ini",
                           "[drift]\nkind = ou\nkappa = 2\n"
                           "[grid]\nlower = -1\nupper = 1\nn_nodes = 513\n"
                           "[experiment]\neta = 0.5\nx0 = 0.9\nn_steps = 1\n")
        assert cli.main([sub, "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 3
        assert "leakage" in capsys.readouterr().err

    def test_explosive_split_chain_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini",
                           "[drift]\nkind = ou\nkappa = 5\n"
                           "[experiment]\neta = 0.9\nx0 = 3\nn_steps = 2000\n")
        assert cli.main(["split-sim", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 3
        assert "drift argument must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, line", [
        ("uniform-sup", "n_list = 0,a"),
        ("uniform-sup", "n_list = -1,2"),
        ("atom-check", "k_list = 1,x"),
        ("atom-check", "k_list = 0,1"),
        ("return-times", "beta = 0.5"),
        ("tv-decay", "x0 = nan"),
    ])
    def test_malformed_list_or_beta_two(self, tmp_path, capsys, sub, line):
        cfg = write_config(tmp_path / "c.ini", "[drift]\nkind = ou\n"
                           f"[experiment]\neta = 0.1\n{line}\n")
        assert cli.main([sub, "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, text", [
        ("constants", "[drift]\nkind = ou\nsigma = 0\n[experiment]\neta = 0.1\n"),
        ("split-sim", "[drift]\nkind = ou\n[experiment]\neta = 0.5\n"
                      "c_lower = -30\nc_upper = 30\nn_steps = 100\n"),
        ("invariant", "[drift]\nkind = ou\n[grid]\ninvariant_tol = 0\n"
                      "[experiment]\neta = 0.1\n"),
        ("constants", "[drift]\nkind = ou\nsigma = inf\n[experiment]\neta = 0.1\n"),
    ], ids=["zero-sigma", "wide-small-set", "zero-invariant-tol",
            "infinite-sigma"])
    def test_invalid_drift_or_wide_small_set_two(self, tmp_path, capsys,
                                                 sub, text):
        cfg = write_config(tmp_path / "c.ini", text)
        assert cli.main([sub, "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, seed", [("split-sim", "-1"),
                                           ("return-times", "-5")])
    def test_negative_seed_flag_two(self, tmp_path, capsys, sub, seed):
        cfg = write_config(tmp_path / "c.ini", "[drift]\nkind = ou\n"
                           "[experiment]\neta = 0.1\n")
        assert cli.main([sub, "--config", cfg, "--out", str(tmp_path / "o"),
                         "--seed", seed]) == 2
        assert "experiment.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, section, key", [
        ("return-times", "experiment", "n_rep"),
        ("atom-check", "experiment", "n_mc"),
        ("atom-check", "experiment", "k_list"),
        ("split-sim", "experiment", "n_steps"),
        ("return-times", "experiment", "horizon"),
        ("invariant", "grid", "n_nodes"),
        ("uniform-sup", "experiment", "x_grid_points"),
    ])
    def test_oversized_count_two(self, tmp_path, capsys, sub, section, key):
        cfg = write_config(tmp_path / "c.ini", "[drift]\nkind = ou\n"
                           f"[{section}]\n{key} = {10 ** 15}\n"
                           + ("[experiment]\n" if section != "experiment" else "")
                           + "eta = 0.1\n")
        out = tmp_path / "o"
        assert cli.main([sub, "--config", cfg, "--out", str(out)]) == 2
        assert f"{section}.{key} = '{10 ** 15}'" in capsys.readouterr().err
        assert not out.exists()  # rejected at load, before the run starts

    def test_count_caps_admit_defaults_and_bench_sizes(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "[grid]\nn_nodes = 4097\n"
                           "[experiment]\nn_rep = 100000\nn_mc = 200000\n"
                           "k_list = 1,2,3,5,8\nn_steps = 30000\n"
                           "horizon = 1000000\nx_grid_points = 201\n")
        typed, _ = cli.load_config(cfg)
        assert typed["experiment"]["horizon"] == 10 ** 6

    # The default grid is too coarse at these step sizes: the library's
    # ValueError on the density's mass is a numerical failure, not a crash.
    @pytest.mark.parametrize("sub, text", [
        ("invariant", "[experiment]\neta = 0.001\n"),
        ("study", "[grid]\nn_nodes = 257\n[experiment]\neta_list = 0.01\n"),
    ], ids=["invariant-eta-0.001", "study-eta-0.01"])
    def test_library_value_error_three(self, tmp_path, capsys, sub, text):
        cfg = write_config(tmp_path / "c.ini", "[drift]\nkind = ou\n" + text)
        assert cli.main([sub, "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 3
        assert "numerical failure" in capsys.readouterr().err


def _within(value, rule):
    """Whether a value returned by load_config satisfies its schema rule."""
    if rule is str:
        return isinstance(value, str)
    if not isinstance(rule, cli._Number):
        return value in ("ou", "bounded")
    if rule.many:
        return bool(value) and all(_within(v, rule._replace(many=False))
                                   for v in value)
    lo, hi = (float(b) for b in rule.interval[1:-1].split(","))
    above = lo < value if rule.interval[0] == "(" else lo <= value
    below = value < hi if rule.interval[-1] == ")" else value <= hi
    return (type(value) is rule.cast and math.isfinite(value)
            and above and below)


_NUMBERS = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.floats()).map(repr)


@settings(max_examples=400, deadline=None, database=None)
@given(entry=st.sampled_from(sorted(cli._SCHEMA)),
       value=st.one_of(
           st.text(), _NUMBERS,
           st.lists(_NUMBERS, min_size=1, max_size=4).map(",".join),
           st.sampled_from(["OU", "bounded", "nan", "-inf", "1e400", "1.0",
                            " 16", "0", "1_000", "2,", "%", "\u0661"])))
def test_load_config_types_or_rejects(entry, value):
    """Any value of any key loads typed and in range, or is a ConfigError."""
    section, key = entry
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"[{section}]\n{key} = {value}\n")
        try:
            cfg, raw = cli.load_config(path)
        except ConfigError:
            return
    for s, items in cfg.items():
        for k, v in items.items():
            assert _within(v, cli._SCHEMA[s, k]), (s, k, raw[s][k], v)


class TestArtifacts:
    def test_report_and_resolved_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", OU_CFG)
        out = tmp_path / "run"
        assert cli.main(["tv-decay", "--config", cfg, "--out", str(out),
                         "--seed", "5"]) == 0
        report = (out / "report.txt").read_text()
        assert "delta_hat=" in report
        assert "check:tv_monotone=PASS" in report
        resolved = (out / "config.resolved.ini").read_text()
        assert "seed = 5" in resolved
        assert "kind = tv-decay" in resolved

    def test_resolved_config_round_trips(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", OU_CFG)
        out1 = tmp_path / "r1"
        cli.main(["tv-decay", "--config", cfg, "--out", str(out1)])
        out2 = tmp_path / "r2"
        cli.main(["tv-decay", "--config", str(out1 / "config.resolved.ini"),
                  "--out", str(out2)])
        assert ((out1 / "curve_main.csv").read_bytes()
                == (out2 / "curve_main.csv").read_bytes())

    def test_emit_plotdata(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", OU_CFG)
        out = tmp_path / "run"
        cli.main(["tv-decay", "--config", cfg, "--out", str(out)])
        assert cli.main(["emit-plotdata", "--out", str(out)]) == 0
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == "experiment,eta,n,d_tv,envelope"
        assert len(lines) == 13
        first = cli.main(["emit-plotdata", "--out", str(out)])
        assert first == 0  # idempotent, byte-stable
        assert lines == (out / "curves.csv").read_text().splitlines()

    def test_emit_plotdata_empty_dir(self, tmp_path, capsys):
        assert cli.main(["emit-plotdata", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("row", ["1,0.5", "one,0.5,"])
    def test_emit_plotdata_malformed_row_two(self, tmp_path, capsys, row):
        (tmp_path / "curve_x.csv").write_text(
            f"# experiment=tv-decay eta=0.1\nn,d_tv,envelope\n0,1.0,\n{row}\n")
        assert cli.main(["emit-plotdata", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "curve_x.csv, line 4" in err
        assert not (tmp_path / "curves.csv").exists()

    def test_env_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EMERGOLAB_OUT", str(tmp_path / "envroot"))
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.ini", OU_CFG.replace("0.5", "0.1"))
        assert cli.main(["constants", "--config", cfg]) == 0
        assert (tmp_path / "envroot" / "constants" / "report.txt").exists()


def test_return_times_report_matches_exp_beta_sigma(tmp_path):
    cfg = write_config(tmp_path / "c.ini", "[drift]\nkind = ou\n"
                       "[experiment]\neta = 0.1\nx0 = 20.0\n"
                       "n_rep = 200\nhorizon = 100\n")
    out = tmp_path / "o"
    cli.main(["return-times", "--config", cfg, "--out", str(out),
              "--seed", "3"])
    values = dict(line.split("=", 1) for line in
                  (out / "report.txt").read_text().splitlines())
    spec = eg.ornstein_uhlenbeck(kappa=1.0, sigma=1.0)
    dc = eg.derive_constants(spec, 0.1)
    est = eg.exp_beta_sigma(spec, 0.1, 20.0, dc.beta_eta,
                            (-dc.radius, dc.radius), 200, horizon=100, seed=3)
    assert values["exp_moment_estimate"] == repr(est.mean)
    assert values["exp_moment_ci_high"] == repr(est.ci_high)
    assert len((out / "return_times.csv").read_text().splitlines()) == 201


def test_cli_import_skips_scipy_stats():
    code = "import sys, emergolab.cli; print('scipy.stats' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_skips_scipy():
    code = "import sys, emergolab.cli; print('scipy' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", OU_CFG + "\nn_rep = 50\n")
        outs = []
        for name, workers in (("a", "1"), ("b", "8")):
            out = tmp_path / name
            assert cli.main(["split-sim", "--config", cfg, "--out", str(out),
                             "--seed", "9"]) == 0
            outs.append(out)
        for fname in ("trace.csv", "blocks.csv", "report.txt",
                      "config.resolved.ini"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, fname

    def test_seed_changes_trace(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", OU_CFG)
        cli.main(["split-sim", "--config", cfg, "--out", str(tmp_path / "a"),
                  "--seed", "1"])
        cli.main(["split-sim", "--config", cfg, "--out", str(tmp_path / "b"),
                  "--seed", "2"])
        assert ((tmp_path / "a" / "trace.csv").read_bytes()
                != (tmp_path / "b" / "trace.csv").read_bytes())
