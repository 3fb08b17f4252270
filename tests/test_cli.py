"""Tests for the batch command-line interface."""

import argparse
import json
import math
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from helirep.cli import _parse_grid, main
from helirep.gelfand_yaglom import dirac_system, system_to_config
from test_byte_contract import DEMOS, DIGESTS, child_env, run_demo

DIRAC_CONFIG = {
    "reps": [{"l1": "1/2", "l2": "0"}, {"l1": "0", "l2": "1/2"}],
    "coeffs": [
        {"from": 2, "to": 1, "lp": "1/2", "l": "1/2", "re": 1.0, "im": 0.0},
        {"from": 1, "to": 2, "lp": "1/2", "l": "1/2", "re": -1.0, "im": 0.0},
    ],
    "kappa": [1.0, 0.0],
}


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestZfun:
    def test_identity_point(self, capsys):
        code, rep = run_json(
            capsys, "zfun", "--l", "1/2", "--m", "1/2", "--n", "1/2"
        )
        assert code == 0
        row = rep["results"]["rows"][0]
        assert row["series"] == [1.0, 0.0]
        assert row["factorized"] == [1.0, 0.0]
        assert row["discrepancy"] == 0.0

    def test_mixed_corner_value(self, capsys):
        code, rep = run_json(
            capsys, "zfun", "--l", "1/2", "--m", "1/2", "--n", "1/2",
            "--theta", repr(math.pi / 3), "--tau", "1.0",
        )
        assert code == 0
        row = rep["results"]["rows"][0]
        assert abs(row["series"][0] - math.cos(math.pi / 6) * math.cosh(0.5)) < 1e-15
        assert abs(row["series"][1] - math.sin(math.pi / 6) * math.sinh(0.5)) < 1e-15

    def test_defaults_put_both_projections_at_top(self, capsys):
        code, rep = run_json(capsys, "zfun", "--l", "3/2")
        assert code == 0
        row = rep["results"]["rows"][0]
        assert row["m"] == "3/2" and row["n"] == "3/2"

    def test_grid_run_is_fast_and_tight(self, capsys):
        start = time.perf_counter()
        code, rep = run_json(
            capsys, "zfun", "--l", "4", "--m", "2", "--n", "1",
            "--grid", "0:1.5:10000", "--tau", "0.8",
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert len(rep["results"]["rows"]) == 10000
        assert rep["residuals"]["max_discrepancy"] < 1e-10
        assert elapsed < 1.0

    def test_csv_format(self, capsys):
        code = main(["zfun", "--l", "1", "--grid", "0:1:5", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("l,m,n,theta,tau,series_re")
        assert len(lines) == 6

    def test_bad_label_is_usage_error(self, capsys):
        assert main(["zfun", "--l", "banana"]) == 2
        assert "spin label" in capsys.readouterr().err

    def test_projection_out_of_range(self, capsys):
        assert main(["zfun", "--l", "1/2", "--m", "3/2"]) == 2

    def test_bad_grid(self, capsys):
        assert main(["zfun", "--l", "1", "--grid", "0:1"]) == 2
        assert main(["zfun", "--l", "1", "--grid", "0:1:0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["zfun", "--l", "1", "--grid", "0:1:1000000000"],
        ["zfun", "--l", "1", "--grid", "0:1:100001"],
        ["radial", "--chain", "dirac", "--grid", "0.5:60:1000000000"],
    ])
    def test_grid_count_past_the_bound_is_refused(self, capsys, argv):
        # Refused before any point is allocated.
        assert main(argv) == 2
        assert "grid N must be an integer between 1 and 100000" in capsys.readouterr().err

    @pytest.mark.parametrize("spin, twice", [("517", 1034), ("100000", 200000)])
    def test_spin_past_the_cap_is_refused(self, capsys, spin, twice):
        # 2l = 1034 used to end in an OverflowError traceback, and
        # l = 100000 to build for minutes.
        start = time.perf_counter()
        assert main(["zfun", "--l", spin, "--m", "0", "--n", "0",
                     "--theta", "1", "--tau", "0.1"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err == ("helirep: twice the spin must be an integer between 0 "
                       f"and 1000, got {twice}\n")

    def test_grid_count_bound_is_inclusive(self):
        assert _parse_grid("0:1:100000") == (0.0, 1.0, 100000)

    def test_high_spin_sweep_to_pi_is_finite(self, capsys):
        code = main([
            "zfun", "--l", "40", "--m=1", "--n=-1", "--tau", "0.4",
            "--grid", "0:3.14159:200",
        ])
        out = capsys.readouterr().out
        assert code == 0
        rep = json.loads(out, parse_constant=lambda name: pytest.fail(name))
        rows = rep["results"]["rows"]
        assert len(rows) == 200
        for row in rows:
            assert all(math.isfinite(v) for v in row["series"] + row["factorized"])
        # Accuracy at this spin away from the poles is a separate matter.
        assert math.isfinite(rep["residuals"]["max_discrepancy"])

    def test_spin_200_norms_do_not_overflow(self, capsys):
        # The factorized route's exact norms pass the float range from
        # l ~ 86; the point value itself is finite.
        code = main(["zfun", "--l", "200", "--theta", "1", "--tau", "1"])
        out = capsys.readouterr().out
        assert code == 0
        rep = json.loads(out, parse_constant=lambda name: pytest.fail(name))
        row = rep["results"]["rows"][0]
        assert all(math.isfinite(v) for v in row["series"] + row["factorized"])

    def test_negative_projection_as_separate_argument(self, capsys):
        assert main(["zfun", "--l", "3/2", "--m", "1/2", "--n", "-1/2"]) == 0
        separate = capsys.readouterr().out
        assert main(["zfun", "--l", "3/2", "--m", "1/2", "--n=-1/2"]) == 0
        assert separate == capsys.readouterr().out
        assert main(["zfun", "--l", "3/2", "--m", "-3/2", "--n", "-1/2"]) == 0
        assert json.loads(capsys.readouterr().out)["inputs"]["m"] == "-3/2"
        with pytest.raises(SystemExit) as exc:
            main(["zfun", "--l", "3/2", "--n"])
        assert exc.value.code == 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_overflowing_sweep_is_refused_in_both_formats(capsys, fmt):
    # At l = 40, tau = 700 both routes overflow.  CSV used to print rows
    # of nan with exit 0, and both formats printed numpy's warnings.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["zfun", "--l", "40", "--tau", "700", "--grid", "0:3:5",
                     "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "helirep: a result is not a finite number (overflow)\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_formats_carry_the_same_numbers(capsys, fmt):
    # Both formats come from one %-template per row; each field must
    # read back as the float it was computed from.
    argv = ["zfun", "--l", "7/2", "--m", "3/2", "--n=-1/2", "--tau", "-0.0",
            "--grid", "-1:7:40"]
    code, rep = run_json(capsys, *argv)
    assert code == 0
    assert main(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("l,m,n,theta,tau,series_re,series_im,factorized_re,"
                        "factorized_im,discrepancy")
    assert len(lines) == 41
    for line, row in zip(lines[1:], rep["results"]["rows"]):
        fields = line.split(",")
        assert fields[:3] == [row["l"], row["m"], row["n"]] == ["7/2", "3/2", "-1/2"]
        assert fields[4] == "-0.0" and math.copysign(1.0, row["tau"]) == -1.0
        assert [float(f) for f in fields[3:]] == [
            row["theta"], row["tau"], *row["series"], *row["factorized"],
            row["discrepancy"]]
    assert rep["residuals"]["max_discrepancy"] == max(
        row["discrepancy"] for row in rep["results"]["rows"])


@pytest.mark.parametrize("separate, attached", [
    (["zfun", "--l", "1/2", "--theta", "-1e-3"],
     ["zfun", "--l", "1/2", "--theta=-1e-3"]),
    (["zfun", "--l", "1/2", "--tau", "-2.5e-1", "--grid", "-1:1:3"],
     ["zfun", "--l", "1/2", "--tau=-2.5e-1", "--grid=-1:1:3"]),
    (["zfun", "--l", "3/2", "--m", "-3/2", "--format", "csv"],
     ["zfun", "--l", "3/2", "--m=-3/2", "--format", "csv"]),
    (["radial", "--chain", "dirac", "--init", "-1,0,0,0", "--grid", "0.5:2:100"],
     ["radial", "--chain", "dirac", "--init=-1,0,0,0", "--grid", "0.5:2:100"]),
], ids=["theta", "tau-grid", "m", "init"])
def test_negative_value_as_separate_argument(capsys, separate, attached):
    # Every option that takes a value accepts one that starts with '-'.
    assert main(separate) == 0
    out = capsys.readouterr().out
    assert main(attached) == 0
    assert out == capsys.readouterr().out


def test_negative_tolerance_as_separate_argument(capsys):
    assert main(["verify", "cg", "--tol", "-1e-3"]) == 2
    assert "finite positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["zfun", "--l", "1/2", "--theta", "nan"],
    ["zfun", "--l", "1/2", "--tau", "inf"],
    ["zfun", "--l", "1/2", "--grid", "0:nan:5"],
    ["zfun", "--l", "1", "--m", "1/2"],
    ["verify", "cg", "--tol", "nan"],
    ["verify", "cg", "--tol", "-1"],
    ["verify", "cg", "--tol", "0"],
    ["radial", "--chain", "dirac", "--grid", "0.5:nan:500"],
    ["radial", "--chain", "dirac", "--grid", "0.5:inf:500"],
])
def test_non_finite_or_invalid_numbers_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("helirep: ")


def test_non_finite_env_tolerance_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("HELIREP_TOL", "nan")
    assert main(["verify", "cg"]) == 2
    assert capsys.readouterr().out == ""


class TestVerify:
    def test_cg_suite_passes(self, capsys):
        code, rep = run_json(capsys, "verify", "cg")
        assert code == 0
        assert rep["command"] == "verify"
        assert rep["results"]["ok"] is True
        assert rep["results"]["suite"] == "cg"
        assert set(rep["residuals"]) == {
            row["name"] for row in rep["results"]["checks"]
        }

    def test_schur_reports_realized_signs(self, capsys):
        code, rep = run_json(capsys, "verify", "schur")
        assert code == 0
        assert rep["results"]["realized_signs"] == {"s1": 1, "s2": 1, "s3": -1}

    def test_gy_with_dirac_chain(self, capsys):
        code, rep = run_json(capsys, "verify", "gy", "--chain", "dirac")
        assert code == 0
        assert rep["results"]["similarity_scale"] == [0.5, 0.0]

    def test_impossible_tolerance_fails(self, capsys):
        code, rep = run_json(capsys, "verify", "grouplaw", "--tol", "1e-30")
        assert code == 1
        assert rep["results"]["ok"] is False

    def test_env_var_sets_default_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("HELIREP_TOL", "1e-30")
        code, _ = run_json(capsys, "verify", "grouplaw")
        assert code == 1
        monkeypatch.setenv("HELIREP_TOL", "not-a-number")
        assert main(["verify", "grouplaw"]) == 2
        capsys.readouterr()

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HELIREP_TOL", "1e-30")
        code, _ = run_json(capsys, "verify", "grouplaw", "--tol", "1e-10")
        assert code == 0

    def test_missing_suite(self, capsys):
        assert main(["verify"]) == 2

    def test_unknown_suite_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nope"])
        assert exc.value.code == 2

    def test_conflicting_suite_spellings(self, capsys):
        assert main(["verify", "cg", "--suite", "schur"]) == 2

    def test_csv_rows(self, capsys):
        code = main(["verify", "cg", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "suite,check,residual,tol,ok"
        assert all(line.endswith("true") for line in lines[1:])


class TestGyBuild:
    def test_dirac_preset_writes_six_files(self, capsys, tmp_path):
        code, rep = run_json(
            capsys, "gy-build", "--chain", "dirac", "--out", str(tmp_path)
        )
        assert code == 0
        assert rep["results"]["dim"] == 4
        assert rep["results"]["files"] == [
            "lambda1.json", "lambda2.json", "lambda3.json",
            "lambda1c.json", "lambda2c.json", "lambda3c.json",
        ]
        system = dirac_system()
        for name in ("lambda1", "lambda2", "lambda3"):
            payload = json.loads((tmp_path / f"{name}.json").read_text())
            got = np.array(
                [[complex(re, im) for re, im in row] for row in payload["matrix"]]
            )
            assert np.array_equal(got, getattr(system, name).data)
            assert len(payload["labels"]) == 4

    def test_chain_config_file(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(DIRAC_CONFIG))
        code, rep = run_json(
            capsys, "gy-build", "--chain", str(path), "--out", str(tmp_path)
        )
        assert code == 0
        built = json.loads((tmp_path / "lambda3.json").read_text())
        system = dirac_system()
        got = np.array(
            [[complex(re, im) for re, im in row] for row in built["matrix"]]
        )
        assert np.array_equal(got, system.lambda3.data)

    def test_empty_chain_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"reps": [], "coeffs": []}))
        assert main(["gy-build", "--chain", str(path)]) == 2
        assert "nonempty" in capsys.readouterr().err

    def test_missing_file(self, capsys, tmp_path):
        assert main(["gy-build", "--chain", str(tmp_path / "nope.json")]) == 2

    def test_garbage_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["gy-build", "--chain", str(path)]) == 2


class TestRadial:
    def test_csv_has_steps_plus_one_rows(self, capsys):
        code = main([
            "radial", "--chain", "dirac", "--variant", "alt",
            "--init", "1,0,1j,0", "--grid", "0.5:60:200", "--format", "csv",
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 202
        assert lines[0].startswith("r,")
        for line in lines[1:]:
            for cell in line.split(","):
                float(cell)

    def test_json_report(self, capsys):
        code, rep = run_json(
            capsys, "radial", "--chain", "dirac", "--variant", "alt",
            "--init", "1,0,1j,0", "--grid", "0.5:60:10000",
        )
        assert code == 0
        assert rep["residuals"]["equation_defect"] < 1e-7
        assert rep["results"]["rows"] == 10001
        probe = rep["results"]["probe"]
        assert probe["verdict"] == "pass"
        assert abs(probe["envelope_exponent"] + 0.5) < 0.1

    def test_default_init(self, capsys):
        code, rep = run_json(
            capsys, "radial", "--chain", "dirac", "--grid", "0.5:20:100"
        )
        assert code == 0
        assert rep["inputs"]["init"][0] == [1.0, 0.0]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code = main([
            "radial", "--chain", "dirac", "--grid", "0.5:20:100",
            "--format", "csv", "--out", str(path),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert len(path.read_text().splitlines()) == 102

    def test_zero_init_reports_no_oscillation(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_json(capsys, "radial", "--chain", "dirac",
                                 "--init", "0,0,0,0", "--grid", "0.5:20:200")
        assert code == 0
        assert rep["residuals"]["equation_defect"] == 0.0
        probe = rep["results"]["probe"]
        assert (probe["verdict"], probe["detail"]) == ("fail", "no oscillation detected")
        assert probe["periods"] == 0.0

    def test_wrong_init_length(self, capsys):
        # The library's one count check, not the CLI, refuses it.
        assert main(["radial", "--chain", "dirac", "--init", "1,0"]) == 2
        assert capsys.readouterr().err == (
            "helirep: initial vector must have 4 components\n")

    @pytest.mark.parametrize("init", ["inf,0,0,0", "nan,0,0,0", "1,0,infj,0"])
    def test_non_finite_init_is_usage_error(self, capsys, init):
        # Refused before the solve, where the step size would be NaN.
        assert main(["radial", "--chain", "dirac", "--init", init]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "helirep: initial vector components must be finite\n"

    def test_bad_ansatz_weight(self, capsys):
        assert main(["radial", "--chain", "dirac", "--l0", "0"]) == 2

    @pytest.mark.parametrize("kappa", [[0.0, 400.0], [1e300, 1e300]])
    def test_stalled_integration_is_usage_error(self, capsys, tmp_path, kappa):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({**DIRAC_CONFIG, "kappa": kappa}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["radial", "--chain", str(path), "--grid", "0.5:60:200"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("helirep: integration stalled at r = ")
        assert captured.err.count("\n") == 1


class TestVerifyRadialTotality:
    """``verify radial`` on chains whose solves overflow or have no normal
    form: a report or one ``helirep:`` line, never a warning or traceback."""

    def run(self, capsys, tmp_path, config):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "radial", "--chain", str(path), "--format", "csv"])
        return code, capsys.readouterr()

    def test_overflowing_order_estimate_fails_its_row(self, capsys, tmp_path):
        config = system_to_config(dirac_system())
        code, captured = self.run(capsys, tmp_path, {**config, "kappa": [0.0, 400.0]})
        assert code == 1
        assert captured.err == ""
        rows = {line.split(",")[1]: line for line in captured.out.splitlines()}
        assert rows["convergence order deficit (target >= 4)"] == (
            "radial,convergence order deficit (target >= 4),1.0,0.0,false"
        )

    def test_stalled_solve_is_usage_error(self, capsys, tmp_path):
        config = system_to_config(dirac_system())
        code, captured = self.run(capsys, tmp_path, {**config, "kappa": [1e300, 1e300]})
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("helirep: integration stalled at r = ")
        assert captured.err.count("\n") == 1

    def test_singular_derivative_is_usage_error(self, capsys, tmp_path):
        code, captured = self.run(capsys, tmp_path, {**DIRAC_CONFIG, "coeffs": []})
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "helirep: derivative matrix is singular — the system has no normal form\n"
        )


class TestNonFiniteChainConfig:
    """A NaN coefficient or mass in a chain file is a usage error (exit 2)
    on every command that loads one, not an SVD failure, a stalled solve
    or NaN matrices."""

    @pytest.mark.parametrize("command", [["verify", "gy"], ["gy-build"], ["radial"]],
                             ids=["verify-gy", "gy-build", "radial"])
    @pytest.mark.parametrize("config", [
        {**DIRAC_CONFIG, "coeffs": [{**DIRAC_CONFIG["coeffs"][0], "re": math.nan},
                                    DIRAC_CONFIG["coeffs"][1]]},
        {**DIRAC_CONFIG, "kappa": [math.nan, 0.0]},
        {**DIRAC_CONFIG, "kappa_dot": [1.0, math.inf]},
    ], ids=["coefficient", "kappa", "kappa_dot"])
    def test_usage_error(self, capsys, tmp_path, command, config):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(config))
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        out = tmp_path / "out"
        code = main(command + ["--chain", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith(f"helirep: invalid chain config {str(path)!r}: ")
        assert "finite" in captured.err
        assert captured.err.count("\n") == 1


class TestExitTwoBoundary:
    """``main`` maps every library or output error to exit 2 with one
    ``helirep:`` line; exit 1 stays a failed suite."""

    def check(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("helirep: ")
        assert captured.err.count("\n") == 1
        return captured.err

    def test_out_in_missing_directory(self, capsys, tmp_path):
        # FileNotFoundError
        self.check(capsys, ["verify", "cg", "--out",
                            str(tmp_path / "nonexistent" / "x.json")])

    def test_out_under_a_file(self, capsys, tmp_path):
        # NotADirectoryError
        (tmp_path / "afile").write_text("")
        self.check(capsys, ["zfun", "--l", "1", "--out",
                            str(tmp_path / "afile" / "x")])

    def test_gy_build_out_is_a_file(self, capsys, tmp_path):
        # FileExistsError
        (tmp_path / "afile").write_text("")
        self.check(capsys, ["gy-build", "--chain", "dirac", "--out",
                            str(tmp_path / "afile")])

    @pytest.mark.parametrize("command", [["verify", "gy"], ["gy-build"], ["radial"]],
                             ids=["verify-gy", "gy-build", "radial"])
    def test_config_that_is_not_an_object(self, capsys, tmp_path, command):
        path = tmp_path / "chain.json"
        path.write_text("[1, 2]")
        self.check(capsys, command + ["--chain", str(path),
                                      "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("rep", [2.9, True], ids=["float", "bool"])
    def test_rep_number_that_is_not_a_count(self, capsys, tmp_path, rep):
        config = {**DIRAC_CONFIG, "coeffs": [{**DIRAC_CONFIG["coeffs"][0], "from": rep},
                                             DIRAC_CONFIG["coeffs"][1]]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(config))
        self.check(capsys, ["verify", "gy", "--chain", str(path)])

    @pytest.mark.parametrize("command", [["verify", "gy"], ["gy-build"], ["radial"]],
                             ids=["verify-gy", "gy-build", "radial"])
    def test_schema_error_names_the_field(self, capsys, tmp_path, command):
        # A rep without "l2" used to print the bare KeyError text "'l2'".
        config = {**DIRAC_CONFIG, "reps": [DIRAC_CONFIG["reps"][0], {"l1": "0"}]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(config))
        err = self.check(capsys, command + ["--chain", str(path)])
        assert err == f"helirep: invalid chain config {str(path)!r}: reps[1] needs 'l2'\n"

    @pytest.mark.parametrize("command", [["verify", "gy"], ["gy-build"], ["radial"]],
                             ids=["verify-gy", "gy-build", "radial"])
    def test_chain_above_the_dense_gate(self, capsys, tmp_path, command):
        # 4225 rows: refused before any label or matrix is built.
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"reps": [{"l1": "32", "l2": "32"}]}))
        err = self.check(capsys, command + ["--chain", str(path),
                                            "--out", str(tmp_path / "out")])
        assert err == (f"helirep: invalid chain config {str(path)!r}: dense carrier "
                       "rows must be an integer between 1 and 4096, got 4225\n")


class TestDeterminism:
    def test_zfun_bytes_stable(self, capsys):
        argv = ["zfun", "--l", "2", "--grid", "0:1:50", "--tau", "0.3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_verify_bytes_stable(self, capsys):
        main(["verify", "cg"])
        first = capsys.readouterr().out
        main(["verify", "cg"])
        assert capsys.readouterr().out == first

    def test_radial_bytes_stable(self, capsys):
        argv = ["radial", "--chain", "dirac", "--grid", "0.5:20:200",
                "--format", "csv"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_gy_build_bytes_stable(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gy-build", "--chain", "dirac", "--out", str(a)])
        main(["gy-build", "--chain", "dirac", "--out", str(b)])
        capsys.readouterr()
        for name in ("lambda1", "lambda2", "lambda3c"):
            assert (a / f"{name}.json").read_bytes() == (b / f"{name}.json").read_bytes()


class TestParserReuse:
    """``main`` builds its parser once per process; later calls only parse
    and dispatch, and print what a fresh process prints."""

    def test_no_parser_built_after_the_first_call(self, capsys, monkeypatch,
                                                 tmp_path):
        main(["zfun", "--l", "1/2"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        codes = [main(argv) for argv in (
            ["zfun", "--l", "3/2", "--theta", "-0.2"],
            ["verify", "cg", "--format", "csv"],
            ["zfun", "--l", "1", "--grid", "0:1:4", "--out",
             str(tmp_path / "sweep.json")],
            ["radial", "--chain", "dirac", "--grid", "0.5:2:100"],
            ["verify"],
        )]
        capsys.readouterr()
        assert codes == [0, 0, 0, 0, 2]
        assert built == []

    def test_no_state_leaks_between_calls(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("HELIREP_TOL", raising=False)
        out = tmp_path / "F"
        assert main(["zfun", "--l", "2", "--grid", "0:1:3", "--format", "csv",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("l,m,n,theta,")
        assert main(["verify", "cg", "--tol", "1e-3"]) == 0
        assert main(["verify"]) == 2
        capsys.readouterr()
        for argv in (["zfun", "--l", "1/2", "--theta", "0.3"],
                     ["verify", "cg"]):
            code = main(argv)
            got = capsys.readouterr().out
            fresh = subprocess.run(
                [sys.executable, "-m", "helirep.cli", *argv],
                capture_output=True, text=True, env=child_env(),
            )
            assert (code, got) == (fresh.returncode, fresh.stdout), argv


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "helirep.cli", "zfun", "--l", "1/2"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "zfun"

    def test_console_script(self, tmp_path):
        # Runs the entry point declared in pyproject.toml through the
        # wrapper an installer would generate, so no install is needed.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        spec = tomllib.loads(pyproject.read_text())["project"]["scripts"]["helirep"]
        module, attr = spec.split(":")
        exe = tmp_path / "helirep"
        exe.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        exe.chmod(0o755)
        proc = subprocess.run(
            [str(exe), "verify", "cg"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["command"] == "verify"

    @pytest.mark.skipif(
        shutil.which("helirep") is None, reason="no helirep executable on PATH"
    )
    def test_installed_console_script(self):
        proc = subprocess.run(
            [shutil.which("helirep"), "verify", "cg"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    """Each demo exits 0 and prints the bytes whose SHA-256 the byte
    contract holds."""
    code, digest, err = run_demo(demo, tmp_path)
    assert code == 0, err
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))["demos"]
    assert digest == want[demo.name], (
        f"{demo.name} prints other bytes than the committed digest; a "
        "deliberate change regenerates it with tests/test_byte_contract.py "
        "--write")
