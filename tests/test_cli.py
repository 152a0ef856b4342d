import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import trigconv as tc
from trigconv.cli import main
from conftest import CONSTANT_ONE, SAWTOOTH, SQUARE


@pytest.fixture(scope="module")
def square_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "square.json"
    path.write_text(json.dumps(SQUARE))
    return str(path)


@pytest.fixture(scope="module")
def sawtooth_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "sawtooth.json"
    path.write_text(json.dumps(SAWTOOTH))
    return str(path)


@pytest.fixture(scope="module")
def constant_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "one.json"
    path.write_text(json.dumps(CONSTANT_ONE))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_json_record(self, capsys, square_file):
        code, out, err = run_cli(capsys, "validate", "--function", square_file)
        assert code == 0
        assert err == ""
        record = json.loads(out)
        assert record["command"] == "validate"
        assert record["valid"] is True
        assert record["segments"] == 2
        assert record["jumps"] == [0.0]
        assert record["columns"] == ["segment", "lo", "hi", "lo_value", "hi_value"]
        assert record["rows"] == [[0, -math.pi, 0.0, -1.0, -1.0],
                                  [1, 0.0, math.pi, 1.0, 1.0]]

    def test_rows_non_empty(self, capsys, constant_file):
        code, out, _ = run_cli(capsys, "validate", "--function", constant_file)
        assert code == 0
        assert len(json.loads(out)["rows"]) >= 1


class TestCoeffs:
    def test_values_round_trip(self, capsys, sawtooth_file, sawtooth):
        code, out, _ = run_cli(capsys, "coeffs", "--function", sawtooth_file,
                               "--n", "3")
        assert code == 0
        record = json.loads(out)
        c = tc.coefficients(sawtooth, 3)
        assert record["rows"][0] == [0, c.a0, 0.0]
        for k in (1, 2, 3):
            assert record["rows"][k] == [k, c.a[k - 1], c.b[k - 1]]

    def test_csv_layout(self, capsys, sawtooth_file):
        code, out, _ = run_cli(capsys, "coeffs", "--function", sawtooth_file,
                               "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,a_k,b_k"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(lines[2].split(",")[2]) == pytest.approx(2.0, abs=1e-9)


class TestPartialSum:
    def test_paths_agree(self, capsys, sawtooth_file):
        code, out, _ = run_cli(capsys, "partialsum", "--function", sawtooth_file,
                               "--x", "1.0", "--n", "5,15")
        assert code == 0
        record = json.loads(out)
        assert record["columns"][-1] == "abs_difference"
        assert [row[0] for row in record["rows"]] == [5, 15]
        for row in record["rows"]:
            assert row[4] < 1e-6
            assert row[4] == abs(row[2] - row[3])

    @pytest.mark.parametrize("x, orders", [("4.0", "10,400"), ("1.0", "-1,400")],
                             ids=["abscissa", "order"])
    def test_bad_input_refused_before_coefficients(self, capsys, monkeypatch,
                                                   sawtooth_file, x, orders):
        def refuse(*args, **kwargs):
            raise AssertionError("coefficients tabulated before input was validated")
        monkeypatch.setattr(tc.fourier, "coefficients", refuse)
        code, _, err = run_cli(capsys, "partialsum", "--function", sawtooth_file,
                               "--x", x, f"--n={orders}")
        assert code == 1
        assert err.startswith("DomainError")


class TestConverge:
    def test_error_shrinks_along_schedule(self, capsys, sawtooth_file):
        code, out, _ = run_cli(capsys, "converge", "--function", sawtooth_file,
                               "--x", "1.0", "--n", "10,100")
        assert code == 0
        record = json.loads(out)
        assert record["jump_half_difference"] == 0.0
        rows = record["rows"]
        assert rows[0][2] == pytest.approx(1.0, abs=1e-12)  # predicted
        assert rows[1][3] < rows[0][3]

    def test_pi_literal_abscissa(self, capsys, sawtooth_file):
        code, out, _ = run_cli(capsys, "converge", "--function", sawtooth_file,
                               "--x", "pi", "--n", "5,10")
        assert code == 0
        record = json.loads(out)
        assert record["inputs"]["x"] == math.pi
        assert abs(record["rows"][-1][1]) < 1e-9


class TestKernel:
    def test_both_forms_and_mean(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--n", "5,8", "--x", "0.3")
        assert code == 0
        record = json.loads(out)
        assert len(record["rows"]) == 2
        for row in record["rows"]:
            assert row[4] < 1e-12
            assert row[5] == pytest.approx(1.0, abs=1e-9)

    def test_pi_literal(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--n", "1", "--x", "pi")
        assert code == 0
        record = json.loads(out)
        assert record["rows"][0][3] == pytest.approx(-0.5, abs=1e-12)


class TestBlocks:
    def test_block_table(self, capsys, constant_file):
        code, out, _ = run_cli(capsys, "blocks", "--function", constant_file,
                               "--i", "10", "--h", "pi/2")
        assert code == 0
        record = json.loads(out)
        assert record["full_blocks"] == 5
        values = [row[3] for row in record["rows"]]
        assert len(values) == 5
        signs = np.sign(values)
        assert signs[0] == 1.0
        assert (signs[:-1] * signs[1:] == -1.0).all()
        for row in record["rows"]:
            assert row[5] == pytest.approx(1.0, abs=1e-8)  # mean_factor


class TestTail:
    def test_gap_below_next_term_everywhere(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--n", "50", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,term,partial_sum,abs_gap,next_term"
        assert len(lines) == 51
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[3]) < float(parts[4])


class TestLimit:
    def test_constant_function_limit(self, capsys, constant_file):
        code, out, _ = run_cli(capsys, "limit", "--function", constant_file,
                               "--i", "10,100", "--g", "0", "--h", "pi/2")
        assert code == 0
        record = json.loads(out)
        rows = record["rows"]
        assert rows[0][2] == pytest.approx(math.pi / 2, abs=1e-12)
        assert rows[1][3] < rows[0][3]


class TestCauchy:
    def test_three_series_with_default_band(self, capsys):
        code, out, _ = run_cli(capsys, "cauchy", "--n", "100000")
        assert code == 0
        record = json.loads(out)
        assert record["inputs"]["bound"] == -3.0
        by_kind = {row[0]: row for row in record["rows"]}
        assert set(by_kind) == {"u", "v", "diff"}
        assert by_kind["u"][5] is None
        assert by_kind["v"][5] == 18
        assert by_kind["diff"][5] == 11
        assert abs(by_kind["u"][3]) <= 1.0 and abs(by_kind["u"][4]) <= 1.0

    def test_custom_band(self, capsys):
        code, out, _ = run_cli(capsys, "cauchy", "--n", "10", "--x", "-2.0")
        assert code == 0
        record = json.loads(out)
        by_kind = {row[0]: row for row in record["rows"]}
        assert by_kind["diff"][5] == 4

    def test_single_term_keeps_negative_zero(self, capsys):
        # v's first sum is -1 * (1 - 1) = -0.0; its sign is part of the bytes
        for fmt, expected in (("json", '["v", 1, -0, -0, -0, null]'),
                              ("csv", "v,1,-0,-0,-0,")):
            code, out, _ = run_cli(capsys, "cauchy", "--n", "1", "--format", fmt)
            assert code == 0
            assert expected in out

    def test_csv_leaves_missing_witness_empty(self, capsys):
        code, out, _ = run_cli(capsys, "cauchy", "--n", "100", "--format", "csv")
        assert code == 0
        for line in out.splitlines()[1:]:
            parts = line.split(",")
            if parts[0] == "u":
                assert parts[5] == ""


class TestOutputContract:
    def test_byte_determinism(self, capsys, sawtooth_file):
        argv = ["coeffs", "--function", sawtooth_file, "--n", "4"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        argv_csv = argv + ["--format", "csv"]
        _, first_csv, _ = run_cli(capsys, *argv_csv)
        _, second_csv, _ = run_cli(capsys, *argv_csv)
        assert first_csv == second_csv

    def test_float_round_trip_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--n", "7", "--x", "0.937")
        assert code == 0
        record = json.loads(out)
        assert record["rows"][0][3] == tc.dirichlet_kernel(7, 0.937)

    def test_out_flag_writes_identical_bytes(self, capsys, tmp_path, sawtooth_file):
        target = tmp_path / "coeffs.csv"
        argv = ["coeffs", "--function", sawtooth_file, "--n", "3",
                "--format", "csv"]
        _, stdout_text, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == stdout_text

    def test_single_line_json(self, capsys, square_file):
        _, out, _ = run_cli(capsys, "validate", "--function", square_file)
        assert out.endswith("\n")
        assert out.count("\n") == 1


class TestPinnedBytes:
    """Exact output of records that involve no quadrature, so numerical
    changes elsewhere leave them alone."""

    def test_validate(self, capsys, square_file):
        path = json.dumps(square_file)
        expected = {
            "json": (
                '{"command": "validate", "format": "json", "inputs": {"function": '
                + path + '}, "valid": true, "segments": 2, "jumps": [0], '
                '"columns": ["segment", "lo", "hi", "lo_value", "hi_value"], '
                '"rows": [[0, -3.1415926535897931, 0, -1, -1], '
                '[1, 0, 3.1415926535897931, 1, 1]]}\n'),
            "csv": ("segment,lo,hi,lo_value,hi_value\n"
                    "0,-3.1415926535897931,0,-1,-1\n"
                    "1,0,3.1415926535897931,1,1\n"),
        }
        for fmt, text in expected.items():
            assert run_cli(capsys, "validate", "--function", square_file,
                           "--format", fmt) == (0, text, "")

    def test_cauchy(self, capsys):
        expected = {
            "json": (
                '{"command": "cauchy", "format": "json", "inputs": {"n": 5, "bound": -3}, '
                '"columns": ["kind", "terms", "last_sum", "min_sum", "max_sum", '
                '"band_escape"], "rows": ['
                '["u", 5, -0.81745708350303636, -1, -0.29289321881345254, null], '
                '["v", 5, 1.4658762498302971, -0, 1.713089845330255, null], '
                '["diff", 5, -2.2833333333333332, -2.2833333333333332, -1, null]]}\n'),
            "csv": ("kind,terms,last_sum,min_sum,max_sum,band_escape\n"
                    "u,5,-0.81745708350303636,-1,-0.29289321881345254,\n"
                    "v,5,1.4658762498302971,-0,1.713089845330255,\n"
                    "diff,5,-2.2833333333333332,-2.2833333333333332,-1,\n"),
        }
        for fmt, text in expected.items():
            assert run_cli(capsys, "cauchy", "--n", "5", "--format", fmt) == (0, text, "")

    def test_path_with_control_character_and_quote(self, capsys, tmp_path):
        path = tmp_path / 'tab\tand "quote".json'
        path.write_text(json.dumps(SQUARE))
        code, out, _ = run_cli(capsys, "validate", "--function", str(path))
        assert code == 0
        assert json.loads(out)["inputs"]["function"] == str(path)


class TestExitCodes:
    def test_missing_file_is_a_computation_error(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--function", "/nope.json")
        assert code == 1
        assert out == ""
        assert "FileNotFoundError" in err

    def test_invalid_spec_is_a_computation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "validate", "--function", str(bad))
        assert code == 1
        assert "SpecSyntaxError" in err

    def test_domain_error_is_a_computation_error(self, capsys, constant_file):
        code, _, err = run_cli(capsys, "blocks", "--function", constant_file,
                               "--i", "0", "--h", "pi/2")
        assert code == 1
        assert "DomainError" in err

    @pytest.mark.parametrize("argv", [
        ["tail", "--n", "10000000000000"],
        ["tail", "--n", "1000001"],
        ["blocks", "--i", "1e13", "--h", "1.0"],
        ["blocks", "--i", "1e300"],
        ["limit", "--i", "10,1e13"],
        ["coeffs", "--n", "100000000000000000000"],
        ["partialsum", "--x", "0.5", "--n", "100000000000000000000"],
        ["converge", "--x", "0.5", "--n", "10,100000000000000000000"],
    ])
    def test_order_or_frequency_above_maximum(self, capsys, constant_file, argv):
        if argv[0] != "tail":
            argv = [argv[0], "--function", constant_file, *argv[1:]]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("DomainError:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["kernel", "--n", "5", "--x", "nan"],
        ["kernel", "--n", "5", "--x", "inf"],
        ["cauchy", "--n", "10", "--x=-inf"],
    ], ids=["kernel-nan", "kernel-inf", "cauchy-inf"])
    def test_non_finite_number_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("DomainError:")
        assert "Traceback" not in err

    def test_comma_list_where_single_expected(self, capsys, sawtooth_file):
        code, _, err = run_cli(capsys, "coeffs", "--function", sawtooth_file,
                               "--n", "3,5")
        assert code == 2
        assert "usage error" in err

    def test_argparse_rejects_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_argparse_rejects_bad_number(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["kernel", "--n", "3", "--x", "zero"])
        assert info.value.code == 2


class TestEntryPoint:
    def test_module_invocation(self, sawtooth_file):
        # the child imports the same package as this process, installed or not
        package_root = os.path.dirname(os.path.dirname(tc.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "trigconv.cli", "validate",
             "--function", sawtooth_file],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert result.returncode == 0
        assert json.loads(result.stdout)["valid"] is True
