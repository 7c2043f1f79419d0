import dataclasses
import importlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emergolab as eg
from emergolab import cli, kernel as ke
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

# Starts far outside D = [-11.6, 11.6], so return times vary.
RT_CFG = """
[drift]
kind = ou

[experiment]
eta = 0.1
x0 = 40.0
n_rep = 50
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

    def test_underflowed_doeblin_mass_reports(self, tmp_path):
        # bounded drift at eta = 1e-4: m = 2*Phi(-50) underflows to 0, a
        # vacuous envelope; the report is written without a rate line
        cfg = write_config(tmp_path / "c.ini",
                           "[drift]\nkind = bounded\nkappa = 1\na = 0.5\n"
                           "[experiment]\neta = 0.0001\nn_list = 1,2,3\n"
                           "x_grid_points = 11\nx_grid_span = 2\n")
        assert cli.main(["uniform-sup", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
        report = (tmp_path / "o" / "report.txt").read_text().splitlines()
        assert "m=0.0" in report
        assert "check:doeblin_envelope=PASS" in report
        assert not any(line.startswith("doeblin_delta") for line in report)
        header = (tmp_path / "o" / "uniform_sup.csv").read_text().splitlines()[0]
        assert header == "# experiment=uniform-sup m=0.0"

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

    @pytest.mark.parametrize("sub, key, line", [
        ("atom-check", "experiment.k_list", "eta = 0.5\nk_list = 2,2,3"),
        ("uniform-sup", "experiment.n_list", "eta = 0.5\nn_list = 1,1,2"),
        ("study", "experiment.eta_list", "eta_list = 0.5,0.50"),
    ], ids=["k_list", "n_list", "eta_list"])
    def test_repeated_list_entry_two(self, tmp_path, capsys, sub, key, line):
        # a repeat would write a row, a check line or a curve file twice
        cfg = write_config(tmp_path / "c.ini",
                           f"[drift]\nkind = ou\n[experiment]\n{line}\n")
        out = tmp_path / "o"
        assert cli.main([sub, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "repeats" in err
        assert not out.exists()

    def test_list_parser_rejects_repeats_only(self):
        parse = cli._Number(float, "(0.0, 1.0)", many=True)
        assert parse("0.5,0.25,0.125") == [0.5, 0.25, 0.125]
        with pytest.raises(ValueError, match="0.25 repeats"):
            parse("0.5,0.25,0.125,0.25")

    @pytest.mark.parametrize("sub", ["invariant", "tv-decay", "split-sim",
                                     "atom-check"])
    def test_coarse_grid_three(self, tmp_path, capsys, sub):
        # h/sd = 1.25/0.707: the resolution guard rejects the grid and names
        # the n_nodes that resolves the kernel
        cfg = write_config(tmp_path / "c.ini", "[drift]\nkind = ou\n"
                           "[grid]\nlower = -10\nupper = 10\nn_nodes = 17\n"
                           "[experiment]\neta = 0.5\nn_steps = 3000\n"
                           "k_list = 1,3\nn_mc = 100\n")
        assert cli.main([sub, "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "n_nodes = 58" in err

    def test_unwritable_artifact_two(self, tmp_path, capsys, monkeypatch):
        # a directory where report.txt goes: a config error, not a traceback
        monkeypatch.chdir(tmp_path)
        (tmp_path / "o5" / "report.txt").mkdir(parents=True)
        cfg = write_config(tmp_path / "c.ini", "[drift]\nkind = ou\n"
                           "[experiment]\neta = 0.1\n")
        assert cli.main(["constants", "--config", cfg, "--out", "o5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --out 'o5'") and "report.txt" in err

    @pytest.mark.parametrize("sub_path", ["", "sub"], ids=["file", "below-file"])
    def test_out_is_a_file_two(self, tmp_path, capsys, sub_path):
        cfg = write_config(tmp_path / "c.ini", "[drift]\nkind = ou\n"
                           "[experiment]\neta = 0.1\n")
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / sub_path if sub_path else blocker
        assert cli.main(["constants", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(out) in err
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("sub, text", [
        ("constants", "[drift]\nkind = ou\nsigma = 0\n[experiment]\neta = 0.1\n"),
        ("split-sim", "[drift]\nkind = ou\n[experiment]\neta = 0.5\n"
                      "c_lower = -30\nc_upper = 30\nn_steps = 100\n"),
        ("invariant", "[drift]\nkind = ou\n[grid]\ninvariant_tol = 0\n"
                      "[experiment]\neta = 0.1\n"),
        # the solve tolerance is fixed: any value is an unknown key
        ("invariant", "[drift]\nkind = ou\n[grid]\ninvariant_tol = 1e-9\n"
                      "[experiment]\neta = 0.1\n"),
        ("constants", "[drift]\nkind = ou\nsigma = inf\n[experiment]\neta = 0.1\n"),
    ], ids=["zero-sigma", "wide-small-set", "zero-invariant-tol",
            "invariant-tol", "infinite-sigma"])
    def test_invalid_drift_or_wide_small_set_two(self, tmp_path, capsys,
                                                 sub, text):
        cfg = write_config(tmp_path / "c.ini", text)
        assert cli.main([sub, "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["kind = ou\n", ""], ids=["ou", "no-kind"])
    def test_drift_a_with_ou_two(self, tmp_path, capsys, kind):
        # a shapes only the bounded drift; an OU run must not drop it silently
        cfg = write_config(tmp_path / "c.ini", f"[drift]\n{kind}a = 0.7\n"
                           "[experiment]\neta = 0.1\n")
        assert cli.main(["constants", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2
        assert "drift.a" in capsys.readouterr().err

    @pytest.mark.parametrize("lower, upper, status", [
        (-4, 20, 0), (-20, 4, 0), (1, 20, 2), (-20, 0, 2)],
        ids=["asymmetric", "mirrored", "above-0", "ends-at-0"])
    def test_uniform_sup_starts_inside_grid(self, tmp_path, capsys,
                                            lower, upper, status):
        # OU kappa = 2 at eta = 0.1 would start at +-5*radius, past -4
        cfg = write_config(tmp_path / "c.ini", "[drift]\nkind = ou\nkappa = 2\n"
                           f"[grid]\nlower = {lower}\nupper = {upper}\n"
                           "n_nodes = 2049\n[experiment]\neta = 0.1\n")
        assert cli.main(["uniform-sup", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == status
        if status == 2:
            assert "[grid]" in capsys.readouterr().err

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

    # 64 nodes on the default grid are too coarse for the kernel at these
    # step sizes: the library's error is a numerical failure, not a crash.
    @pytest.mark.parametrize("sub, text", [
        ("invariant", "[grid]\nn_nodes = 64\n[experiment]\neta = 0.001\n"),
        ("study", "[grid]\nn_nodes = 64\n[experiment]\neta_list = 0.01\n"),
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

    @pytest.mark.parametrize("sub, drift, h", [("invariant", "ou", 0.5),
                                               ("uniform-sup", "bounded", 1.0)])
    def test_solve_nodes_reported(self, tmp_path, sub, drift, h):
        # the power iteration runs on the sd/2 grid of the requested interval
        cfg = write_config(tmp_path / "c.ini",
                           f"[drift]\nkind = {drift}\nkappa = 1\n"
                           "[grid]\nlower = -12\nupper = 12\nn_nodes = 1025\n"
                           "[experiment]\neta = 0.5\nn_list = 1,2\n"
                           "x_grid_points = 11\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main([sub, "--config", cfg,
                             "--out", str(tmp_path / "o")]) == 0
        report = (tmp_path / "o" / "report.txt").read_text().splitlines()
        n = ke._resolved_nodes(24.0, math.sqrt(0.5))
        assert f"solve_nodes={n}" in report and n < 1025

    def test_uniform_sup_honours_grid(self, tmp_path):
        # [grid] sets the Doeblin path's grid; the trapezoid rule on the kink
        # of |P^n(x, .) - pi| errs by O(h^2), 2e-4 at 257 nodes
        tables = {}
        for n in (257, 1025):
            cfg = write_config(tmp_path / f"c{n}.ini",
                               "[drift]\nkind = bounded\nkappa = 1\na = 0.5\n"
                               f"[grid]\nn_nodes = {n}\n"
                               "[experiment]\neta = 0.5\nn_list = 1,2,3\n"
                               "x_grid_points = 11\n")
            out = tmp_path / f"o{n}"
            assert cli.main(["uniform-sup", "--config", cfg,
                             "--out", str(out)]) == 0
            tables[n] = (out / "uniform_sup.csv").read_bytes()
        assert tables[257] != tables[1025]
        rows = [np.loadtxt(io.BytesIO(t), delimiter=",", skiprows=2)
                for t in tables.values()]
        np.testing.assert_allclose(rows[0], rows[1], rtol=0, atol=1e-3)
        # the envelope (1 - m)^n does not depend on the grid
        assert np.array_equal(rows[0][:, 3], rows[1][:, 3])

    def test_uniform_sup_reports_tail_uncertainty(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini",
                           "[drift]\nkind = bounded\n"
                           "[experiment]\neta = 0.5\nn_list = 1,2\n"
                           "x_grid_points = 11\nx_grid_span = 2.0\n")
        assert cli.main(["uniform-sup", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
        table = eg.uniform_sup_tv(eg.bounded_perturbation(), 0.5,
                                  np.linspace(-2.0, 2.0, 11), [1, 2])
        assert _report(tmp_path / "o")["tail_uncertainty"] \
            == repr(table.tail_uncertainty)

    def test_decay_curves_report_tail_uncertainty(self, tmp_path):
        # tv-decay and study write each curve's off-grid bound to report.txt
        cfg = write_config(tmp_path / "c.ini", "[drift]\nkind = ou\n"
                           "[grid]\nn_nodes = 513\n[experiment]\neta = 0.5\n"
                           "eta_list = 0.5,0.2\nx0 = 3.0\nn_steps = 12\n")
        spec = eg.ornstein_uhlenbeck()
        assert cli.main(["tv-decay", "--config", cfg,
                         "--out", str(tmp_path / "t")]) == 0
        curve = eg.tv_decay_curve(spec, 0.5, 3.0, 12,
                                  grid=eg.default_grid(spec, 0.5, n_nodes=513, x0=3.0))
        assert _report(tmp_path / "t")["tail_uncertainty"] \
            == repr(curve.tail_uncertainty)
        assert cli.main(["study", "--config", cfg,
                         "--out", str(tmp_path / "s")]) == 0
        lines = (tmp_path / "s" / "report.txt").read_text().splitlines()
        for row in eg.step_size_study(spec, [0.5, 0.2], 3.0, 12, n_nodes=513):
            assert (f"tail_uncertainty[eta={row.eta!r}]="
                    f"{row.curve.tail_uncertainty!r}") in lines

    def test_study_reports_each_eta(self, tmp_path):
        # one delta_hat[eta=...] and one tail_uncertainty[eta=...] per eta,
        # each equal to its study.csv row and its curve
        cfg = write_config(tmp_path / "c.ini", "[drift]\nkind = ou\n"
                           "[grid]\nn_nodes = 513\n[experiment]\n"
                           "eta_list = 0.5,0.2\nx0 = 3.0\nn_steps = 12\n")
        out = tmp_path / "s"
        assert cli.main(["study", "--config", cfg, "--out", str(out)]) == 0
        values = _report(out)
        header, *rows = (out / "study.csv").read_text().splitlines()
        table = {row["eta"]: row for row in
                 (dict(zip(header.split(","), line.split(","))) for line in rows)}
        study = eg.step_size_study(eg.ornstein_uhlenbeck(), [0.5, 0.2], 3.0,
                                   12, n_nodes=513)
        assert sorted(k for k in values if k.startswith("delta_hat[")) \
            == ["delta_hat[eta=0.2]", "delta_hat[eta=0.5]"]
        for row in study:
            eta = repr(row.eta)
            assert values[f"delta_hat[eta={eta}]"] == table[eta]["delta_hat"]
            assert values[f"tail_uncertainty[eta={eta}]"] \
                == repr(row.curve.tail_uncertainty)

    def test_study_honours_grid_interval(self, tmp_path):
        # every eta reads its curve on [grid]'s interval; the default grid
        # at eta = 0.005 would span +-808 and need 45704 nodes
        cfg = write_config(tmp_path / "c.ini",
                           "[drift]\nkind = ou\n"
                           "[grid]\nlower = -10\nupper = 10\n"
                           "[experiment]\neta_list = 0.005\n")
        out = tmp_path / "o"
        assert cli.main(["study", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "curve_eta_0.005.csv").read_text().splitlines()
        assert lines[0] == "# experiment=study eta=0.005 initial=point:3.0"
        assert len(lines) == 2 + 40

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

    def test_emit_plotdata_no_data_rows(self, tmp_path):
        for eta in ("0.1", "0.2"):
            (tmp_path / f"curve_eta_{eta}.csv").write_text(
                f"# experiment=study eta={eta}\nn,d_tv,envelope\n")
        assert cli.main(["emit-plotdata", "--out", str(tmp_path)]) == 0
        assert ((tmp_path / "curves.csv").read_text()
                == "experiment,eta,n,d_tv,envelope\n")

    def test_emit_plotdata_sorts_eta_as_a_number(self, tmp_path):
        # file names and eta headers sort 0.0001, 0.5, 5e-05 as text
        for eta in ("0.5", "0.0001", "5e-05"):
            (tmp_path / f"curve_eta_{eta}.csv").write_text(
                f"# experiment=study eta={eta}\nn,d_tv,envelope\n2,0.1,\n1,0.2,\n")
        assert cli.main(["emit-plotdata", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "curves.csv").read_text().splitlines()[1:]
        assert [tuple(r.split(",")[1:3]) for r in rows] == [
            (eta, n) for eta in ("5e-05", "0.0001", "0.5") for n in "12"]

    def test_emit_plotdata_non_numeric_eta_two(self, tmp_path, capsys):
        (tmp_path / "curve_x.csv").write_text(
            "# experiment=tv-decay eta=small\nn,d_tv,envelope\n1,0.5,\n")
        assert cli.main(["emit-plotdata", "--out", str(tmp_path)]) == 2
        assert "curve_x.csv, line 3" in capsys.readouterr().err
        assert not (tmp_path / "curves.csv").exists()

    def test_write_csv_zero_rows(self, tmp_path):
        cli.write_csv(tmp_path / "a.csv", ("n", "x"), ([], np.empty(0)))
        assert (tmp_path / "a.csv").read_text() == "n,x\n"
        cli.write_csv(tmp_path / "b.csv", ("n",), (range(0),), "k=1")
        assert (tmp_path / "b.csv").read_text() == "# k=1\nn\n"

    def test_write_csv_cells(self, tmp_path):
        # str as it is, None empty, numbers as the repr of Python numbers
        cli.write_csv(tmp_path / "a.csv", ("s", "f", "i", "mixed"),
                      (["a", None], np.array([0.1, -0.0]),
                       np.array([1, 2], dtype=np.int8), [1e22, 3]))
        assert (tmp_path / "a.csv").read_text() == (
            "s,f,i,mixed\na,0.1,1,1e+22\n,-0.0,2,3\n")

    def test_write_csv_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError):
            cli.write_csv(tmp_path / "a.csv", ("a", "b"), ([1, 2], [1]))
        with pytest.raises(ValueError):
            cli.write_csv(tmp_path / "a.csv", ("a", "b"), ([1, 2],))

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


def _report(out):
    """report.txt as a dict; a key such as delta_hat[eta=0.5] holds an '=',
    so each line splits at its last one."""
    return dict(line.rpartition("=")[::2] for line in
                (out / "report.txt").read_text().splitlines())


def test_split_sim_pi_c_on_the_resolution_grid(tmp_path):
    # OU at eta = 0.5: pi = N(0, 2/3), so pi([-1, 1]) = erf(sqrt(3)/2)
    cfg = write_config(tmp_path / "c.ini", "[drift]\nkind = ou\n"
                       "[experiment]\neta = 0.5\nn_steps = 3000\n")
    assert cli.main(["split-sim", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "4"]) == 0
    values = _report(tmp_path / "o")
    assert float(values["pi_C_quadrature"]) == pytest.approx(
        math.erf(math.sqrt(3.0) / 2.0), abs=1e-8)
    grid = eg.resolution_grid(eg.ornstein_uhlenbeck(), 0.5)
    assert (values["grid_lower"], values["grid_upper"], values["grid_nodes"]) \
        == ("-10.0", "10.0", str(grid.n_nodes))


@pytest.mark.parametrize("grid, expect", [
    ("", ("-10.0", "10.0", "58")),
    ("[grid]\nn_nodes = 513\n", ("-10.0", "10.0", "513")),
    ("[grid]\nlower = -8\nupper = 9\n", ("-8.0", "9.0", "4097")),
], ids=["resolved", "user-nodes", "user-bounds"])
def test_atom_check_reports_its_grid(tmp_path, grid, expect):
    cfg = write_config(tmp_path / "c.ini", "[drift]\nkind = ou\n" + grid
                       + "[experiment]\neta = 0.5\nk_list = 1,3\nn_mc = 2000\n")
    assert cli.main(["atom-check", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "4"]) == 0
    values = _report(tmp_path / "o")
    assert (values["grid_lower"], values["grid_upper"], values["grid_nodes"]) \
        == expect


def test_return_times_report_matches_exp_beta_sigma(tmp_path):
    cfg = write_config(tmp_path / "c.ini", "[drift]\nkind = ou\n"
                       "[experiment]\neta = 0.1\nx0 = 20.0\n"
                       "n_rep = 200\nhorizon = 100\n")
    out = tmp_path / "o"
    cli.main(["return-times", "--config", cfg, "--out", str(out),
              "--seed", "3"])
    values = _report(out)
    spec = eg.ornstein_uhlenbeck(kappa=1.0, sigma=1.0)
    dc = eg.derive_constants(spec, 0.1)
    _, sigmas, censored = eg.return_times_ensemble(
        spec, 0.1, 20.0, (-dc.radius, dc.radius), 100, 200, seed=3)
    est = eg.exp_moment(sigmas, censored, dc.beta_eta, 100)
    assert values["exp_moment_estimate"] == repr(est.mean)
    assert values["exp_moment_ci_high"] == repr(est.ci_high)
    assert len((out / "return_times.csv").read_text().splitlines()) == 201


def test_return_times_reports_an_overflowed_moment_as_inf(tmp_path):
    # returns from x0 = 20000 take thousands of steps, so 1.5^sigma is beyond
    # the float range: both values read inf, and no RuntimeWarning is raised
    cfg = write_config(tmp_path / "c.ini", "[drift]\nkind = ou\n"
                       "kappa = 0.001\n[experiment]\neta = 0.1\n"
                       "x0 = 20000\nbeta = 1.5\nn_rep = 100\n")
    out = tmp_path / "o"
    assert cli.main(["return-times", "--config", cfg, "--out", str(out),
                     "--seed", "5"]) == 1
    values = _report(out)
    assert values["exp_moment_estimate"] == values["exp_moment_ci_high"] == "inf"
    assert values["check:exp_moment_below_bound"] == "FAIL"


@pytest.mark.filterwarnings("ignore:lambda")
def test_study_reports_an_overflowed_rate_as_inf(tmp_path):
    # the per-step rate 2.4995 at eta = 0.001 is 2.4995^1000 per unit time,
    # past the float range: it reads inf, and the run is not a failed check
    cfg = write_config(tmp_path / "c.ini", "[drift]\nkind = ou\nkappa = 600\n"
                       "sigma = 1\n[grid]\nlower = -2\nupper = 2\n"
                       "n_nodes = 2049\n[experiment]\neta_list = 0.001\n"
                       "x0 = 0.1\nn_steps = 40\n")
    out = tmp_path / "o"
    assert cli.main(["study", "--config", cfg, "--out", str(out)]) == 0
    header, row = (out / "study.csv").read_text().splitlines()
    assert header == "eta,delta_hat,delta_per_unit_time,m"
    eta, delta_hat, per_unit, m = row.split(",")
    assert float(delta_hat) == pytest.approx(2.4995, abs=1e-4)
    assert per_unit == "inf"


def test_return_times_writes_columns(tmp_path):
    cfg = write_config(tmp_path / "c.ini", RT_CFG)
    out = tmp_path / "o"
    assert cli.main(["return-times", "--config", cfg, "--out", str(out),
                     "--seed", "3"]) == 0
    assert len((out / "return_times.csv").read_text().splitlines()) == 51


def _fresh_python(code, *args):
    """Standard output of code run in a new interpreter on this package:
    pytest's own process has numpy and every layer loaded already."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_skips_scipy_stats():
    code = "import sys, emergolab.cli; print('scipy.stats' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


def test_cli_import_skips_scipy():
    code = "import sys, emergolab.cli; print('scipy' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


def test_verify_assumptions_exact_constants_at_small_eta(tmp_path):
    # at eta = 0.01 the probe span is about 2600, so the audited sums round
    # off by 1.5e-8: that is no violation of the exact OU constants
    cfg = write_config(tmp_path / "v.ini", "[drift]\nkind = ou\nkappa = 2.5\n"
                       "sigma = 0.7\n[experiment]\neta = 0.01\n")
    out = tmp_path / "o"
    assert cli.main(["verify-assumptions", "--config", cfg, "--out", str(out)]) == 0
    checks = [line for line in (out / "report.txt").read_text().splitlines()
              if line.startswith("check:")]
    assert checks == ["check:lipschitz=PASS", "check:dissipativity=PASS",
                      "check:quadratic_bound=PASS"]


@pytest.mark.parametrize("drift, failed", [
    ("kind = bounded\nl = 0.5\n", "lipschitz"),
    ("kind = ou\nk1 = 1.5\n", "dissipativity")], ids=["l", "k1"])
def test_verify_assumptions_failed_audit_one(tmp_path, drift, failed):
    # a constant the drift violates fails its check, and only that one
    cfg = write_config(tmp_path / "v.ini", f"[drift]\n{drift}"
                       "[experiment]\neta = 0.1\n")
    out = tmp_path / "o"
    assert cli.main(["verify-assumptions", "--config", cfg, "--out", str(out)]) == 1
    checks = [line for line in (out / "report.txt").read_text().splitlines()
              if line.startswith("check:")]
    assert checks == [f"check:{c}={'FAIL' if c == failed else 'PASS'}"
                      for c in ("lipschitz", "dissipativity", "quadratic_bound")]


def test_verify_assumptions_report_lines(tmp_path, monkeypatch):
    # the AssumptionReport's fields, in field order, as Report.add writes
    # them: a float as its repr, a flag as True or False
    reports = []
    check_assumptions = eg.drifts.check_assumptions

    def audit(*args):
        reports.append(check_assumptions(*args))
        return reports[-1]
    monkeypatch.setattr(eg.drifts, "check_assumptions", audit)
    cfg = write_config(tmp_path / "v.ini", "[drift]\nkind = bounded\n"
                       "[experiment]\neta = 0.1\n")
    out = tmp_path / "o"
    assert cli.main(["verify-assumptions", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "report.txt").read_text().splitlines()[2:9]
    names = [f.name for f in dataclasses.fields(eg.AssumptionReport)]
    assert names == ["lipschitz_max", "lipschitz_ok", "dissipativity_max",
                     "dissipativity_ok", "quadratic_max", "quadratic_ok",
                     "second_derivative_max"]
    (report,) = reports
    assert lines == [f"{n}={getattr(report, n)!r}" for n in names]
    assert all(line.split("=")[1] in ("True", "False")
               for line in lines if "_ok=" in line)


def test_verify_assumptions_skips_numpy_random(tmp_path):
    # its random probe pairs come from the stdlib; numpy.random costs 6 MB
    cfg = write_config(tmp_path / "v.ini", "[drift]\nkind = bounded\n"
                       "[experiment]\neta = 0.1\n")
    code = ("import sys; from emergolab import cli; "
            "status = cli.main(['verify-assumptions', '--config', sys.argv[1], "
            "'--out', sys.argv[2]]); print(status, 'numpy.random' in sys.modules)")
    assert _fresh_python(code, cfg, str(tmp_path / "o")).split() == ["0", "False"]


LAYERS = {f"emergolab.{m}" for m in ("drifts", "kernel", "rates", "simulate",
                                     "splitting", "empirical")}

# Runs each step in turn in one process and prints, per step, its exit
# status and the numpy and emergolab modules loaded after it.
_IMPORT_STEPS = """
import json, sys
def loaded():
    return [m for m in sys.modules if m == "numpy" or m.startswith("emergolab.")]
steps = {}
import emergolab
steps["import emergolab"] = (0, loaded())
import emergolab.cli
steps["import emergolab.cli"] = (0, loaded())
for name, argv in json.loads(sys.argv[1]):
    steps[name] = (emergolab.cli.main(argv), loaded())
print(json.dumps(steps))
"""


def test_each_subcommand_loads_only_its_layers(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    (run / "curve_eta_0.1.csv").write_text(
        "# experiment=study eta=0.1\nn,d_tv,envelope\n1,0.5,\n")
    unknown = write_config(tmp_path / "u.ini", "[drift]\nkind = ou\nfoo = 1\n")
    constants = write_config(tmp_path / "c.ini", OU_CFG.replace("0.5", "0.1"))
    study = write_config(tmp_path / "s.ini", "[drift]\nkind = ou\n"
                         "[grid]\nn_nodes = 257\n"
                         "[experiment]\neta_list = 0.5,0.25\nn_steps = 10\n")
    argvs = [
        ("emit-plotdata", ["emit-plotdata", "--out", str(run)]),
        ("unknown key", ["constants", "--config", unknown,
                         "--out", str(tmp_path / "u")]),
        ("constants", ["constants", "--config", constants,
                       "--out", str(tmp_path / "c")]),
        *((f"verify-assumptions {kind}", [
            "verify-assumptions", "--out", str(tmp_path / kind), "--config",
            write_config(tmp_path / f"{kind}.ini", f"[drift]\nkind = {kind}\n")])
          for kind in ("ou", "bounded")),
        ("study", ["study", "--config", study, "--out", str(tmp_path / "s")]),
    ]
    steps = json.loads(_fresh_python(_IMPORT_STEPS, json.dumps(argvs)))
    statuses = {name: status for name, (status, _) in steps.items()}
    assert statuses == {"import emergolab": 0, "import emergolab.cli": 0,
                        "emit-plotdata": 0, "unknown key": 2, "constants": 0,
                        "verify-assumptions ou": 0,
                        "verify-assumptions bounded": 0, "study": 0}
    loaded = {name: set(modules) for name, (_, modules) in steps.items()}
    for name in ("import emergolab", "import emergolab.cli", "emit-plotdata",
                 "unknown key"):
        assert not loaded[name] & (LAYERS | {"numpy"}), name
    # the audits run on Python floats
    for name in ("constants", "verify-assumptions ou",
                 "verify-assumptions bounded"):
        assert "emergolab.drifts" in loaded[name]
        assert not loaded[name] & (LAYERS - {"emergolab.drifts"} | {"numpy"}), name
    assert {"emergolab.kernel", "emergolab.rates"} <= loaded["study"]
    assert not loaded["study"] & {"emergolab.simulate", "emergolab.splitting"}


def test_return_times_loads_no_quadrature_layer(tmp_path):
    # a point start needs only the EM chain, not kernel's grids and measures
    cfg = write_config(tmp_path / "r.ini", "[drift]\nkind = ou\n[experiment]\n"
                       "eta = 0.1\nn_rep = 200\nhorizon = 1000\n")
    argvs = [("return-times", ["return-times", "--config", cfg,
                               "--out", str(tmp_path / "r")])]
    steps = json.loads(_fresh_python(_IMPORT_STEPS, json.dumps(argvs)))
    status, modules = steps["return-times"]
    assert status == 0
    assert set(modules) & LAYERS == {"emergolab.drifts", "emergolab.simulate"}


def test_package_namespace_matches_its_modules():
    star = {}
    exec("from emergolab import *", star)
    assert sorted(n for n in star if not n.startswith("__")) == eg.__all__
    public = {n for n in dir(eg) if not n.startswith("_")}
    # the two submodules outside the table load only when imported by name
    assert set(eg.__all__) <= public <= set(eg.__all__) | {"cli", "empirical"}
    for name in eg.__all__:
        owner = eg._MODULE_OF[name]
        module = importlib.import_module(f"emergolab.{owner}")
        expected = module if name == owner else getattr(module, name)
        assert getattr(eg, name) is expected, name
    with pytest.raises(AttributeError, match="no_such_name"):
        eg.no_such_name


def test_public_surface_is_pinned():
    # a public name is added or dropped on purpose, here
    assert eg.__all__ == [
        "AssumptionReport", "DecayCurve", "DerivedConstants", "DriftSpec",
        "ExpMomentEstimate", "Grid", "GridMeasure", "PathConfig", "RateFit",
        "RegenerationBlocks", "SmallSetSpec", "apply_kernel",
        "atom_return_check", "atom_return_tail", "bounded_perturbation",
        "check_assumptions", "closed_form_PV", "custom", "default_grid",
        "derive_constants", "doeblin_rate", "drifts", "errors", "eval_drift",
        "exp_moment", "fit_geometric_rate", "gaussian_on_grid",
        "invariant_measure", "kernel", "lyapunov", "minorization_epsilon",
        "n_step_from_point", "ornstein_uhlenbeck", "rates",
        "regenerative_pi_estimate", "resolution_grid", "resolve_split_epsilon",
        "return_times_ensemble", "run_split", "sample_nu", "sample_paths",
        "simulate", "split_ensemble", "splitting", "step_size_study",
        "summability_check", "transition_density", "tv_decay_curve",
        "tv_distance", "uniform_sup_tv", "verify_drift_condition",
        "whole_space_minorization"]


@pytest.mark.parametrize("name", ["em_step", "return_time", "ReturnTimeSample",
                                  "step_split", "SplitState", "sample_residual",
                                  "exp_beta_sigma"])
def test_removed_names_stay_removed(name):
    with pytest.raises(AttributeError, match=name):
        getattr(eg, name)


@pytest.mark.parametrize("fn, keyword", [
    (eg.invariant_measure, "tol"), (eg.rates.invariant_cached, "tol"),
    (eg.tv_decay_curve, "tol"), (eg.uniform_sup_tv, "tol"),
    (eg.step_size_study, "tol"), (eg.run_split, "eps"),
    (eg.split_ensemble, "eps"), (eg.resolve_split_epsilon, "use_full_epsilon")],
    ids=lambda v: getattr(v, "__name__", v))
def test_removed_keywords_stay_removed(fn, keyword):
    # the solve tolerance is kernel.INVARIANT_TOL and the split constant
    # half the small set's, with no option to pass another
    assert keyword not in inspect.signature(fn).parameters


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        runs = (("split-sim", OU_CFG, ("trace.csv", "blocks.csv")),
                ("return-times", RT_CFG, ("return_times.csv",)),
                ("atom-check", OU_CFG + "n_mc = 2000\nk_list = 1,2\n",
                 ("atom_check.csv",)))
        for sub, text, artifacts in runs:
            cfg = write_config(tmp_path / f"{sub}.ini", text)
            outs = [tmp_path / f"{sub}-{name}" for name in "ab"]
            for out in outs:
                assert cli.main([sub, "--config", cfg, "--out", str(out),
                                 "--seed", "9"]) == 0
            for fname in artifacts + ("report.txt", "config.resolved.ini"):
                a = (outs[0] / fname).read_bytes()
                b = (outs[1] / fname).read_bytes()
                assert a == b, (sub, fname)

    def test_seed_changes_trace(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", OU_CFG)
        cli.main(["split-sim", "--config", cfg, "--out", str(tmp_path / "a"),
                  "--seed", "1"])
        cli.main(["split-sim", "--config", cfg, "--out", str(tmp_path / "b"),
                  "--seed", "2"])
        assert ((tmp_path / "a" / "trace.csv").read_bytes()
                != (tmp_path / "b" / "trace.csv").read_bytes())
