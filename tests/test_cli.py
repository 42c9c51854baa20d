import csv
import json
import re
import subprocess
import sys

import numpy as np
import pytest

import robustrates.cli
import robustrates.gheat
from robustrates import (
    Constant,
    RateParams,
    TimeGrid,
    ValidationError,
    VolBand,
    price_classical_hw,
    simulate_bundle,
)
from robustrates.cli import _OPTIONS, _Config, build_parser, main
from robustrates.gheat import _terminal_grid


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def strict_json(text):
    """JSON as the standard has it: ``NaN`` and ``Infinity`` are errors."""
    def reject(constant):
        raise ValueError(f"non-finite value {constant} in JSON output")

    return json.loads(text, parse_constant=reject)


@pytest.fixture
def flat_curve(tmp_path):
    p = tmp_path / "flat.csv"
    p.write_text("T,f\n0,0.02\n10,0.02\n")
    return str(p)


class TestPrice:
    def test_flat_curve_reproduces_discounts(self, tmp_path, flat_curve):
        out = tmp_path / "prices.csv"
        code = run_cli("price", "--curve", flat_curve, "--maturities", "0,1,2,5,10", "--out", str(out))
        assert code == 0
        rows = read_csv(out)
        for row in rows:
            T = float(row["T"])
            assert float(row["price_robust"]) == pytest.approx(np.exp(-0.02 * T), abs=1e-12)

    def test_zero_maturity_row_is_par(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run_cli("price", "--maturities", "0", "--out", str(out)) == 0
        row = read_csv(out)[0]
        assert float(row["price_lower"]) == 1.0
        assert float(row["price_robust"]) == 1.0
        assert float(row["price_upper"]) == 1.0

    def test_degenerate_band_collapses_envelope(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run_cli("price", "--band", "0.01,0.01", "--maturities", "1,5", "--out", str(out)) == 0
        for row in read_csv(out):
            assert row["price_lower"] == row["price_upper"]

    def test_edges_are_the_classical_prices(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run_cli("price", "--mu", "0.03", "--alpha", "0.3", "--out", str(out)) == 0
        params = RateParams(r0=0.02, alpha=0.3, mu=0.03)
        for row in read_csv(out):
            T = float(row["T"])
            for column, sigma in (("price_lower", 0.005), ("price_upper", 0.02)):
                expected = price_classical_hw(params, sigma, 0.0, T, 0.02)
                assert float(row[column]) == expected

    def test_output_round_trips_17_digits(self, tmp_path):
        out = tmp_path / "p.csv"
        run_cli("price", "--maturities", "3", "--out", str(out))
        row = read_csv(out)[0]
        v = float(row["price_robust"])
        assert f"{v:.17g}" == row["price_robust"]

    def test_non_finite_edge_price_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # sigma_hi^2 int B^2 / 2 passes 709 at T = 1e7, so the upper price overflows
        out = tmp_path / "p.csv"
        assert run_cli("price", "--maturities", "1,1e7", "--out", str(out)) == 2
        assert capsys.readouterr() == (
            "", "numerical failure: price at maturity 10000000.0 is not finite\n"
        )
        assert not out.exists()


class TestGap:
    def test_degenerate_band_no_gap(self, tmp_path):
        out = tmp_path / "gap.json"
        code = run_cli(
            "gap", "--band", "0.01,0.01", "--paths", "4096", "--steps", "32",
            "--out", str(out),
        )
        assert code == 0
        doc = strict_json(out.read_text())
        assert doc["gap"] == 0.0
        assert not doc["gap_significant"]

    def test_band_gap_flagged_and_matches_closed_form(self, tmp_path):
        out = tmp_path / "gap.json"
        code = run_cli(
            "gap", "--paths", "20000", "--steps", "128", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        doc = strict_json(out.read_text())
        assert doc["gap_significant"]
        assert abs(doc["gap"] - doc["closed_form_gap"]) <= 3 * doc["se"]

    def test_wider_band_wider_gap(self, tmp_path):
        gaps = {}
        for name, band in (("narrow", "0.005,0.02"), ("wide", "0.005,0.03")):
            out = tmp_path / f"{name}.json"
            run_cli("gap", "--band", band, "--paths", "8192", "--steps", "64",
                    "--seed", "5", "--out", str(out))
            gaps[name] = strict_json(out.read_text())["gap"]
        assert gaps["wide"] > gaps["narrow"]


class TestVerify:
    def test_shifted_dynamics_passes(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = run_cli(
            "verify", "--paths", "20000", "--steps", "128", "--checkpoints", "0,0.25,0.5,1.0",
            "--n-constant", "2", "--n-switching", "1", "--out", str(out),
        )
        assert code == 0
        rows = read_csv(out)
        assert rows and all(r["pass"] == "true" for r in rows)
        zero_rows = [r for r in rows if float(r["t"]) == 0.0]
        assert zero_rows and all(r["pass"] == "true" for r in zero_rows)

    def test_adversarial_unshifted_fails(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = run_cli(
            "verify", "--paths", "20000", "--steps", "128", "--dynamics", "original",
            "--checkpoints", "0.5,1.0", "--n-constant", "2", "--n-switching", "0",
            "--out", str(out),
        )
        assert code == 3
        rows = read_csv(out)
        failed = {r["scenario"] for r in rows if r["pass"] == "false"}
        assert "const[0.005]" in failed and "const[0.02]" in failed


@pytest.mark.filterwarnings("error")  # the error line reports the overflow, numpy does not
@pytest.mark.parametrize("argv, message", [
    # prices near 1e219 (verify) and 1 / D_T near 1e192 (gap) are finite, their squares are not
    (("verify", "--r0", "-800"), "non-finite mean or se in scenario 'const[0.005]'"),
    (("gap", "--r0", "-700"), "non-finite mean or se in scenario 'const[0.005]'"),
    (("verify", "--r0", "-2000"), "price at maturity 1.0 is not finite"),
    (("gap", "--maturity", "1e7"), "price at maturity 10000000.0 is not finite"),
    # the exact t = 0 row passes, but the drift fit's squared residuals overflow
    (("verify", "--r0", "-800", "--checkpoints", "0"),
     "non-finite drift fit or terminal error in scenario 'const[0.005]'"),
])
def test_non_finite_statistic_exits_2_and_writes_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "report"
    code = run_cli(*argv, "--paths", "16", "--steps", "4", "--out", str(out))
    assert code == 2
    assert capsys.readouterr() == ("", f"numerical failure: {message}\n")
    assert not out.exists()


class TestCalibrateCmd:
    def test_roundtrip_report(self, tmp_path, flat_curve):
        out = tmp_path / "cal.csv"
        code = run_cli("calibrate", "--curve", flat_curve, "--maturities", "1,2,5", "--out", str(out))
        assert code == 0
        for row in read_csv(out):
            assert float(row["abs_error"]) <= 1e-10

    def test_missing_curve_is_validation_error(self):
        assert run_cli("calibrate") == 1

    @pytest.mark.parametrize("command", ["price", "calibrate"])
    def test_missing_curve_file_is_named(self, tmp_path, capsys, command):
        missing = tmp_path / "no_such.csv"
        assert run_cli(command, "--curve", str(missing)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "No such file" in err and str(missing) in err


class TestSimulate:
    def test_bit_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = run_cli("simulate", "--paths", "1", "--steps", "16", "--seed", "9",
                           "--out", str(out))
            assert code == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        assert outs[0].startswith("t,sigma,B,qv,lambda,r,D\n")

    def test_round_trippable_digits(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli("simulate", "--sigma", "0.013", "--steps", "3", "--paths", "2",
                       "--path-index", "1", "--seed", "3", "--out", str(out))
        assert code == 0
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in out.read_text().splitlines()[1:]])
        params = RateParams(r0=0.02, alpha=1.0, mu=0.0)
        bundle = simulate_bundle(Constant(0.013), VolBand(0.005, 0.02), TimeGrid(1.0, 3), params,
                                 seed=3, n_paths=2, dynamics="shifted")
        assert np.all(rows[:, 1] == 0.013)
        columns = (bundle.grid.times, bundle.b[1], bundle.qv[1], bundle.lam[1], bundle.r[1],
                   bundle.d[1])
        # 17 significant digits give back every array value bit for bit
        assert rows[:, [0, 2, 3, 4, 5, 6]].tobytes() == np.column_stack(columns).tobytes()

    def test_bad_path_index(self, capsys):
        assert run_cli("simulate", "--paths", "1", "--path-index", "5") == 1
        assert capsys.readouterr() == ("", "error: path_index 5 out of range\n")

    def test_zero_paths_names_the_count(self, capsys):
        assert run_cli("simulate", "--paths", "0", "--steps", "4") == 1
        assert capsys.readouterr() == ("", "error: n_paths must be >= 1\n")


class TestGheatCmd:
    def test_square_payoff(self, capsys):
        code = run_cli("gheat", "--phi", "square", "--nodes-per-width", "40")
        assert code == 0
        printed = capsys.readouterr().out
        value = float(printed.split("=")[1])
        assert value == pytest.approx(4e-4, rel=0.01)

    def test_unknown_payoff_rejected(self):
        assert run_cli("gheat", "--phi", "wiggle") == 1

    def test_dump_and_value_come_from_one_solve(self, tmp_path, capsys, monkeypatch):
        calls = []
        solve = robustrates.gheat.solve_gheat

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        # gexpectation_terminal looks the solver up in robustrates.gheat
        monkeypatch.setattr(robustrates.gheat, "solve_gheat", counting_solve)
        monkeypatch.setattr(robustrates.cli, "solve_gheat", counting_solve)
        out = tmp_path / "f.csv"
        code = run_cli("gheat", "--phi", "relu", "--nodes-per-width", "40", "--out", str(out))
        assert code == 0
        assert len(calls) == 1
        printed = float(capsys.readouterr().out.split("=")[1])
        rows = read_csv(out)
        t_last = max(float(r["t"]) for r in rows)
        last = [r for r in rows if float(r["t"]) == t_last]
        x = np.array([float(r["x"]) for r in last])
        u = np.array([float(r["u"]) for r in last])
        assert printed == float(np.interp(0.0, x, u))

    def test_csv_dump_shape(self, tmp_path):
        out = tmp_path / "u.csv"
        assert run_cli("gheat", "--nodes-per-width", "20", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,u"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        nx = _terminal_grid(VolBand(0.005, 0.02), 1.0, 20, 8.0).nx
        slices = np.unique(rows[:, 0])
        assert slices.size > 2 and rows.shape == (slices.size * nx, 3)
        # slice by slice, each over the nodes in order; the first is phi = x^2
        assert np.array_equal(rows[:, 0], np.repeat(slices, nx))
        assert np.array_equal(rows[:nx, 2], rows[:nx, 1] ** 2)


class TestErrors:
    def test_bad_band_is_validation_error(self):
        assert run_cli("price", "--band", "0.02,0.01") == 1

    def test_config_file_merge_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"maturities": "1", "band": "0.01,0.01"}))
        out = tmp_path / "p.csv"
        code = run_cli("price", "--config", str(cfg), "--band", "0.005,0.02", "--out", str(out))
        assert code == 0
        row = read_csv(out)[0]
        # the flag band (non-degenerate) must be in effect, not the config one
        assert row["price_lower"] != row["price_upper"]

    def test_missing_config_file(self):
        assert run_cli("price", "--config", "/nonexistent/cfg.json") == 1

    @pytest.mark.parametrize(
        "raw, expected",
        [("false", False), ("No", False), ("0", False), (False, False), (0, False),
         ("true", True), ("YES", True), ("1", True), (True, True)],
    )
    def test_config_boolean_parsed(self, tmp_path, raw, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"antithetic": raw}))
        args = build_parser().parse_args(["gap", "--config", str(cfg)])
        assert _Config(args).mc_config(1.0).antithetic is expected

    @pytest.mark.parametrize("raw", ["maybe", "2", "", None, 0.5])
    def test_bad_boolean_exits_1(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"antithetic": raw}))
        assert run_cli("gap", "--config", str(cfg), "--paths", "64", "--steps", "4") == 1
        assert "error:" in capsys.readouterr().err
        if isinstance(raw, str):
            with pytest.raises(SystemExit) as exc:
                run_cli("gap", "--antithetic", raw, "--paths", "64", "--steps", "4")
            assert exc.value.code == 1

    @pytest.mark.parametrize(
        "entry",
        [{"kind": "constant"}, {"kind": "piecewise", "values": [0.01]},
         {"kind": "switching", "intensity": 1.0}, ["constant", 0.01], "constant"],
    )
    def test_malformed_scenario_file_exits_1(self, tmp_path, capsys, entry):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({
            "band": {"lo": 0.005, "hi": 0.02},
            "scenarios": [{"kind": "constant", "value": 0.01}, entry],
        }))
        assert run_cli("gap", "--scenarios", str(fam), "--paths", "64", "--steps", "4") == 1
        assert "error: malformed scenario entry 1" in capsys.readouterr().err

    def test_empty_scenario_file_exits_1(self, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"band": {"lo": 0.005, "hi": 0.02}, "scenarios": []}))
        assert run_cli("verify", "--scenarios", str(fam), "--paths", "64", "--steps", "4") == 1
        assert "error: scenario family is empty" in capsys.readouterr().err

    def test_degenerate_pde_grid_exits_1(self, capsys):
        assert run_cli("gheat", "--pad-widths", "0") == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.filterwarnings("error")  # one error line, no numpy warning before it
    @pytest.mark.parametrize("argv, message", [
        (("price", "--maturities", "1"), "volatility band top 1e+200 has no finite square"),
        (("gap", "--paths", "16", "--steps", "4"), "volatility band top 1e+200 has no finite square"),
        (("verify", "--paths", "16", "--steps", "4"), "volatility band top 1e+200 has no finite square"),
        (("simulate", "--steps", "4"), "volatility band top 1e+200 has no finite square"),
        (("gheat",), "volatility band top 1e+200 has no finite square"),
    ])
    def test_band_top_without_a_finite_square_exits_1(self, capsys, argv, message):
        assert run_cli(*argv, "--band", "0.005,1e200") == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.filterwarnings("error")
    def test_pde_grid_whose_spacing_squared_underflows_exits_1(self, capsys):
        assert run_cli("gheat", "--band", "1e-170,1e-160") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error: node spacing \S+ has no finite, positive square\n", err)

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--paths", "2", "--path-index", "5"],
         ["simulate", "--path-index", "-1"],
         ["price", "--maturities", "1,-1"]],
    )
    def test_bad_input_leaves_no_output_file(self, tmp_path, capsys, argv):
        out = tmp_path / "f.csv"
        assert run_cli(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("phi, number", [("call:inf", "inf"), ("const:nan", "nan"),
                                             ("call:-Infinity", "-Infinity"), ("call:x", "x")])
    def test_payoff_number_must_be_finite(self, capsys, phi, number):
        assert run_cli("gheat", "--phi", phi, "--nodes-per-width", "20") == 1
        assert capsys.readouterr() == ("", f"error: expected a finite number, got '{number}'\n")

    @pytest.mark.filterwarnings("error")  # one error line, no numpy warning before it
    @pytest.mark.parametrize("argv, paths, antithetic", [
        (("verify", "--paths", "2"), 2, True),
        (("gap", "--paths", "2"), 2, True),
        (("gap", "--paths", "2", "--n-constant", "2", "--n-switching", "0"), 2, True),
        (("verify", "--paths", "1", "--antithetic", "false"), 1, False),
        (("gap", "--paths", "1", "--antithetic", "no"), 1, False),
    ])
    def test_one_independent_sample_exits_1(self, tmp_path, capsys, argv, paths, antithetic):
        """One sample has no standard error, so no row could be judged on it."""
        out = tmp_path / "report"
        assert run_cli(*argv, "--steps", "4", "--out", str(out)) == 1
        message = (f"paths = {paths} with antithetic = {antithetic} gives 1 independent sample; "
                   "a standard error needs at least 2")
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, name", [
        (("verify", "--paths", "16"), "base_seed"),
        (("gap", "--paths", "16"), "base_seed"),
        (("simulate",), "seed"),
    ])
    def test_negative_seed_exits_1_naming_it(self, tmp_path, capsys, argv, name):
        out = tmp_path / "report"
        assert run_cli(*argv, "--seed", "-1", "--steps", "4", "--out", str(out)) == 1
        assert capsys.readouterr() == ("", f"error: {name} must be an integer >= 0, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("doc, n_paths", [
        ({"paths": 4}, 4), ({"paths": 2, "antithetic": False}, 2), ({"paths": 2}, None),
    ])
    def test_two_independent_samples_admitted_from_a_config_file(self, tmp_path, doc, n_paths):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        config = _Config(build_parser().parse_args(["verify", "--config", str(cfg)]))
        if n_paths is None:
            with pytest.raises(ValidationError, match="gives 1 independent sample"):
                config.mc_config(1.0)
        else:
            assert config.mc_config(1.0).n_paths == n_paths

    @pytest.mark.filterwarnings("error")
    def test_repeated_checkpoint_exits_1(self, capsys):
        assert run_cli("verify", "--checkpoints", "1,1", "--paths", "16", "--steps", "4") == 1
        message = "checkpoints must be distinct grid times, at least one; got [1.0, 1.0]"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", ["1.5", "true", "-1"])
    def test_scenario_file_seed_not_a_non_negative_integer_exits_1(self, tmp_path, capsys, seed):
        fam = tmp_path / "fam.json"
        fam.write_text('{"band": {"lo": 0.005, "hi": 0.02}, "scenarios": '
                       f'[{{"kind": "switching", "intensity": 1.0, "seed": {seed}}}]}}')
        assert run_cli("gap", "--scenarios", str(fam), "--paths", "16", "--steps", "4") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: malformed scenario entry 0: ValidationError: switching seed ")


# options that each command accepted at one time but never read
NOT_READ = {
    "simulate": ["--antithetic", "--scenarios"],
    "price": ["--seed", "--paths", "--steps", "--horizon", "--scenarios", "--antithetic"],
    "gap": ["--horizon"],
    "verify": ["--horizon"],
    "calibrate": ["--seed", "--band", "--paths", "--steps", "--r0", "--mu", "--horizon",
                  "--scenarios", "--antithetic"],
    "gheat": ["--seed", "--alpha", "--paths", "--steps", "--r0", "--mu", "--curve",
              "--scenarios", "--antithetic"],
}

# keeps a run short wherever these flags are accepted
SMALL = {"gap": ["--paths", "64", "--steps", "4"], "verify": ["--paths", "64", "--steps", "4"]}


class TestOptionTable:
    @pytest.mark.parametrize(
        "argv",
        [[command, flag, "1", *SMALL.get(command, [])]
         for command, flags in NOT_READ.items() for flag in flags]
        + [["price", "--maturities", "1,,2"], ["calibrate", "--maturities", ",1"],
           ["verify", "--checkpoints", "0.5,,1"], ["verify", "--checkpoints", ""],
           ["gap", "--paths", "2.5"], ["gap", "--band", "1"], ["gap", "--antithetic", "maybe"],
           ["price", "--maturities", "1,inf"], ["verify", "--checkpoints", "nan"],
           ["gheat", "--pad-widths", "inf"], ["gap", "--alpha", "nan"], ["gap", "--band", "0.01,inf"],
           ["simulate", "--horizon=-inf"]],
    )
    def test_rejected_by_the_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, extra",
        [("simulate", ["--steps", "4"]), ("price", []), ("gap", SMALL["gap"]),
         ("verify", SMALL["verify"]), ("calibrate", ["--curve", "{curve}"]),
         ("gheat", ["--nodes-per-width", "20"])],
    )
    def test_every_accepted_option_is_read(self, tmp_path, monkeypatch, flat_curve,
                                           command, extra):
        read = set()
        get = _Config.get

        def recording_get(self, key):
            read.add(key)
            return get(self, key)

        monkeypatch.setattr(_Config, "get", recording_get)
        extra = [arg.format(curve=flat_curve) for arg in extra]
        assert run_cli(command, "--out", str(tmp_path / "out"), *extra) in (0, 3)
        accepted = set(vars(build_parser().parse_args([command]))) - {"command"}
        # --config is opened before any option is resolved, not through get
        assert read == accepted - {"config"}

    @pytest.mark.parametrize(
        "command, doc, key",
        [("gap", {"paths": True, "antithetic": False, "steps": 4}, "paths"),
         ("gap", {"steps": 12.9, "paths": 64}, "steps"),
         ("gap", {"n_constant": 2.5, "paths": 64, "steps": 4}, "n_constant"),
         ("gap", {"alpha": True, "paths": 64, "steps": 4}, "alpha"),
         ("price", {"maturities": "1,,2"}, "maturities"),
         ("price", {"maturities": [1, "", 2]}, "maturities"),
         ("verify", {"checkpoints": "0.5,,1", "paths": 64, "steps": 4}, "checkpoints"),
         ("verify", {"checkpoints": [0.5, None], "paths": 64, "steps": 4}, "checkpoints"),
         ("price", {"out": None}, "out"),
         ("gap", {"pathz": 64, "paths": 64, "steps": 4}, "pathz"),
         ("price", {"out": 5}, "out"),
         ("gheat", {"phi": 1}, "phi"),
         ("gap", {"paths": "2.5", "steps": 4}, "paths"),
         ("gap", {"paths": 2.5, "steps": 4}, "paths"),
         ("gap", {"alpha": "x", "paths": 64, "steps": 4}, "alpha"),
         ("gap", {"alpha": 10**400, "paths": 64, "steps": 4}, "alpha"),
         ("price", {"maturities": "1,inf"}, "maturities"),
         ("price", {"maturities": [1, float("inf")]}, "maturities"),
         ("verify", {"checkpoints": "nan", "paths": 64, "steps": 4}, "checkpoints"),
         ("verify", {"checkpoints": [float("nan")], "paths": 64, "steps": 4}, "checkpoints"),
         ("gheat", {"pad_widths": "inf"}, "pad_widths"),
         ("gheat", {"pad_widths": float("inf")}, "pad_widths"),
         ("gap", {"alpha": float("nan"), "paths": 64, "steps": 4}, "alpha"),
         ("gap", {"band": [0.01, float("inf")], "paths": 64, "steps": 4}, "band"),
         ("simulate", {"horizon": "-inf"}, "horizon")],
    )
    def test_bad_config_value_exits_1(self, tmp_path, capsys, command, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(command, "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{key}'" in err
        if key in _OPTIONS:
            # the flag's own converter message, e.g. "expected an integer, got '2.5'"
            with pytest.raises(ValueError) as exc:
                _OPTIONS[key][0](doc[key])
            assert err == f"error: config key '{key}': {exc.value}\n"
            assert "invalid literal" not in err and "could not convert" not in err

    @pytest.mark.parametrize(
        "argv, doc",
        [(["price", "--mu", "inf", "--maturities", "1"], {"mu": "-inf", "maturities": "1"}),
         (["gap", "--mu", "nan", *SMALL["gap"]], {"mu": "nan", "paths": 64, "steps": 4}),
         (["simulate", "--mu", "inf", "--steps", "4"], {"mu": "inf", "steps": 4})],
        ids=["price", "gap", "simulate"],
    )
    def test_non_finite_mu_exits_1(self, tmp_path, capsys, argv, doc):
        # the float converter rejects it before RateParams would
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"error: argument --mu: expected a finite number, got '{argv[2]}'\n" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(argv[0], "--config", str(cfg)) == 1
        message = f"error: config key 'mu': expected a finite number, got '{doc['mu']}'\n"
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize(
        "argv, message",
        [(["price", "--maturities", "1,,2"], "expected a finite number, got ''"),
         (["gap", "--paths", "2.5"], "expected an integer, got '2.5'"),
         (["gap", "--band", "1"], "band expects 'lo,hi', got '1'"),
         (["gap", "--antithetic", "maybe"], "expected true/false, 1/0 or yes/no, got 'maybe'"),
         (["gap", "--alpha", "x"], "expected a finite number, got 'x'"),
         (["gheat", "--pad-widths", "inf"], "expected a finite number, got 'inf'")],
        ids=["maturities", "paths", "band", "antithetic", "alpha", "pad_widths"],
    )
    def test_rejected_flag_shows_the_converter_message(self, capsys, argv, message):
        with pytest.raises(SystemExit):
            run_cli(*argv)
        flag = argv[1]
        assert f"error: argument {flag}: {message}\n" in capsys.readouterr().err

    def test_config_text_option_must_be_a_string(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"out": 5}))
        assert run_cli("price", "--config", "cfg.json") == 1
        assert "error: config key 'out': expected a string, got 5" in capsys.readouterr().err
        assert not (tmp_path / "5").exists()

    def test_config_keys_of_other_commands_are_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phi": "relu", "paths": 64, "maturities": [1.0, 1e1]}))
        assert run_cli("price", "--config", str(cfg)) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "10"]

    @pytest.mark.parametrize(
        "command, flag, default",
        [("simulate", "--paths", "1"), ("gap", "--n-constant", "12"),
         ("verify", "--n-constant", "3"), ("verify", "--n-switching", "0")],
    )
    def test_help_shows_the_command_default(self, capsys, command, flag, default):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        # the option's own entry, not its "[--flag METAVAR]" in the usage line
        shown = re.search(rf"(?<!\[){flag} [A-Z_]+ [^(]*\(default ([^)]*)\)", text)
        assert shown and shown.group(1) == default


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "robustrates.cli", "price", "--maturities", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("T,price_lower,price_robust,price_upper")


def test_malformed_flag_exits_as_validation_error():
    # argparse-level failures must use exit code 1, not argparse's default 2
    proc = subprocess.run(
        [sys.executable, "-m", "robustrates.cli", "price", "--alpha", "notanumber"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "error" in proc.stderr.lower()
