import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import trigconv as tc
from trigconv import cli
from trigconv.cli import main
from conftest import CONSTANT_ONE, MALFORMED_SPECS, SAWTOOTH, SQUARE


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

    @pytest.mark.parametrize("orders", ["0", "0,3"])
    def test_order_zero_is_the_mean(self, capsys, sawtooth_file, orders):
        code, out, _ = run_cli(capsys, "partialsum", "--function", sawtooth_file,
                               "--x", "1.0", "--n", orders)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row[0] for row in rows] == [int(n) for n in orders.split(",")]
        # the sawtooth's mean term is 0, by both paths
        assert rows[0][2] == pytest.approx(0.0, abs=1e-12)
        assert rows[0][3] == pytest.approx(0.0, abs=1e-12)

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
    """Exact output bytes.  ``validate`` and ``cauchy`` involve no
    quadrature, so numerical changes elsewhere leave them alone; the
    ``_TABLES`` records change only with a deliberate numerical change."""

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

    # Commands whose tables run long in the benchmark, at small sizes;
    # "<one.json>" and "<square.json>" stand for the JSON-quoted spec paths.
    _TABLES = {
        "tail --n 3": {
            "json": (
                '{"command": "tail", "format": "json", "inputs": {"n": 3, "tol": 1e-10}, '
                '"columns": ["n", "term", "partial_sum", "abs_gap", "next_term"], "rows": ['
                '[1, 1.8519370519824665, 1.8519370519824665, 0.28114072518756994, '
                '0.43378547584983768], '
                '[2, 0.43378547584983768, 1.4181515761326289, 0.15264475066226768, '
                '0.25661022284733287], '
                '[3, 0.25661022284733287, 1.6747617989799617, 0.10396547218506513, '
                '0.18260057339550126]]}\n'),
            "csv": (
                "n,term,partial_sum,abs_gap,next_term\n"
                "1,1.8519370519824665,1.8519370519824665,0.28114072518756994,0.43378547584983768\n"
                "2,0.43378547584983768,1.4181515761326289,0.15264475066226768,0.25661022284733287\n"
                "3,0.25661022284733287,1.6747617989799617,0.10396547218506513,0.18260057339550126\n"),
        },
        "blocks --function <one.json> --i 10 --h pi/2": {
            "json": (
                '{"command": "blocks", "format": "json", "inputs": {"function": <one.json>, '
                '"i": 10, "h": 1.5707963267948966, "tol": 1e-08}, "full_blocks": 5, '
                '"columns": ["block", "lo", "hi", "value", "weight_magnitude", "mean_factor"], '
                '"rows": ['
                '[1, 0, 0.31415926535897931, 1.8571968075395164, 1.8571968075395164, 1], '
                '[2, 0.31415926535897931, 0.62831853071795862, -0.44993800360553665, '
                '0.44993800360553665, 1], '
                '[3, 0.62831853071795862, 0.94247779607693793, 0.2848586385261716, '
                '0.2848586385261716, 1], '
                '[4, 0.94247779607693793, 1.2566370614359172, -0.22526849372939109, '
                '0.22526849372939109, 1], '
                '[5, 1.2566370614359172, 1.5707963267948966, 0.20299232111051038, '
                '0.20299232111051038, 1]]}\n'),
            "csv": (
                "block,lo,hi,value,weight_magnitude,mean_factor\n"
                "1,0,0.31415926535897931,1.8571968075395164,1.8571968075395164,1\n"
                "2,0.31415926535897931,0.62831853071795862,-0.44993800360553665,"
                "0.44993800360553665,1\n"
                "3,0.62831853071795862,0.94247779607693793,0.2848586385261716,"
                "0.2848586385261716,1\n"
                "4,0.94247779607693793,1.2566370614359172,-0.22526849372939109,"
                "0.22526849372939109,1\n"
                "5,1.2566370614359172,1.5707963267948966,0.20299232111051038,"
                "0.20299232111051038,1\n"),
        },
        "kernel --n 5,8 --x 0.3": {
            "json": (
                '{"command": "kernel", "format": "json", "inputs": {"n": [5, 8], '
                '"x": 0.29999999999999999, "tol": 1e-10}, "columns": ["n", "t", '
                '"cosine_sum", "closed_form", "abs_difference", "mean"], "rows": ['
                '[5, 0.29999999999999999, 3.3353770284503255, 3.3353770284503255, 0, '
                '1], '
                '[8, 0.29999999999999999, 1.8659351136161355, 1.8659351136161357, '
                '2.2204460492503131e-16, 0.99999999999999967]]}\n'),
            "csv": (
                "n,t,cosine_sum,closed_form,abs_difference,mean\n"
                "5,0.29999999999999999,3.3353770284503255,3.3353770284503255,0,"
                "1\n"
                "8,0.29999999999999999,1.8659351136161355,1.8659351136161357,"
                "2.2204460492503131e-16,0.99999999999999967\n"),
        },
        "coeffs --function <square.json> --n 4": {
            "json": (
                '{"command": "coeffs", "format": "json", "inputs": {"function": '
                '<square.json>, "n": 4, "tol": 1e-10}, "columns": ["k", "a_k", "b_k"], '
                '"rows": [[0, 0, 0], [1, 4.8136001329057333e-18, 1.273239544735163], '
                '[2, 9.3866784455816969e-18, -1.2918751353596242e-17], '
                '[3, -1.169532283379582e-16, 0.42441318157838764], '
                '[4, 6.6006139570820204e-18, 2.0309175320873877e-17]]}\n'),
            "csv": (
                "k,a_k,b_k\n0,0,0\n1,4.8136001329057333e-18,1.273239544735163\n"
                "2,9.3866784455816969e-18,-1.2918751353596242e-17\n"
                "3,-1.169532283379582e-16,0.42441318157838764\n"
                "4,6.6006139570820204e-18,2.0309175320873877e-17\n"),
        },
    }

    @pytest.mark.parametrize("command", list(_TABLES))
    def test_table(self, capsys, constant_file, square_file, command):
        paths = {"<one.json>": constant_file, "<square.json>": square_file}
        argv = [paths.get(word, word) for word in command.split()]
        for fmt, text in self._TABLES[command].items():
            for token, path in paths.items():
                text = text.replace(token, json.dumps(path))
            assert run_cli(capsys, *argv, "--format", fmt) == (0, text, "")

    def test_path_with_control_character_and_quote(self, capsys, tmp_path):
        path = tmp_path / 'tab\tand "quote".json'
        path.write_text(json.dumps(SQUARE))
        code, out, _ = run_cli(capsys, "validate", "--function", str(path))
        assert code == 0
        assert json.loads(out)["inputs"]["function"] == str(path)


def _render_per_cell(head, table):
    """The record as formatting every cell with ``cli._scalar`` writes it."""
    fmt = head["format"]
    rows = [[cli._scalar(v, fmt) for v in row] for row in zip(*table.values())]
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(table)
        writer.writerows(rows)
        return buffer.getvalue()
    head = {**head, "columns": list(table)}
    fields = ", ".join(f"{cli._json(k)}: {cli._json(v)}" for k, v in head.items())
    body = ", ".join("[" + ", ".join(row) + "]" for row in rows)
    return "{" + fields + f', "rows": [{body}]}}\n'


class TestRender:
    """``_render`` picks one format per column; its bytes are those of the
    per-cell ``_scalar`` rule."""

    TABLES = {
        "mixed": {"mixed": [None, True, 'a, "b"', 7, 2.5],
                  "x": [math.nan, math.inf, -math.inf, -0.0, 5e-324],
                  "k": [0, -3, 10**30, 1, 2],
                  "flag": [False, True, False, True, False]},
        "one-column-empty-cell": {"text": [None, "", "x"]},
        "one-column-floats": {"x": [0.1, -0.0]},
        "no-rows": {"a": [], "b": []},
        "no-columns": {},
    }

    @pytest.mark.parametrize("name", list(TABLES))
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_matches_per_cell_rule(self, name, fmt):
        table = self.TABLES[name]
        head = {"command": "t", "format": fmt, "inputs": {"n": 1}}
        assert cli._render(head, table) == _render_per_cell(head, table)

    def test_float_column_cells(self):
        head = {"command": "t", "format": "csv"}
        text = cli._render(head, {"x": [math.nan, math.inf, -math.inf, -0.0, 5e-324],
                                  "s": ['a, "b"', None, True, 1, 0.5]})
        assert text == ('x,s\nnan,"a, ""b"""\ninf,\n-inf,true\n-0,1\n'
                        '4.9406564584124654e-324,0.5\n')

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("labels", [("lo", "hi", "n"), ("lo",)], ids=["three", "alone"])
    def test_preformatted_columns(self, fmt, labels):
        # one array shifted by a row, formatted once, against its floats
        values = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e22, -2.5])
        lo, hi = cli._shifted_text(values)
        assert type(lo) is type(hi) is cli._Text
        columns = {"lo": (lo, values[:-1].tolist()), "hi": (hi, values[1:].tolist()),
                   "n": (list(range(7)), list(range(7)))}
        head = {"command": "t", "format": fmt, "inputs": {"n": 1}}
        text = {label: columns[label][0] for label in labels}
        plain = {label: columns[label][1] for label in labels}
        assert cli._render(head, text) == _render_per_cell(head, plain)


MONOTONE = {"segments": [
    {"lo": "-pi", "hi": "pi", "kind": "exponential", "params": {"a": 1.5, "b": -0.7}},
]}


class TestSharedFloatColumns:
    """``tail`` and ``blocks`` format their shifted float columns once; the
    bytes are those of the per-cell rule on the plain float table."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_tail(self, capsys, fmt):
        t = tc.tail(3000, 1e-10)
        plain = {"n": list(range(1, 3001)),
                 "term": t.terms[:-1].tolist(),
                 "partial_sum": t.partial_sums.tolist(),
                 "abs_gap": np.abs(t.partial_sums - math.pi / 2).tolist(),
                 "next_term": t.terms[1:].tolist()}
        head = {"command": "tail", "format": fmt, "inputs": {"n": 3000, "tol": 1e-10}}
        expected = _render_per_cell(head, plain)
        assert run_cli(capsys, "tail", "--n", "3000", "--format", fmt) == (0, expected, "")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_blocks(self, capsys, tmp_path, fmt):
        path = tmp_path / "monotone.json"
        path.write_text(json.dumps(MONOTONE))
        h = 1.5
        d = tc.decompose(tc.load_spec(str(path)), 2000.0, h, 1e-8)
        plain = {"block": list(range(1, len(d.block_values) + 1)),
                 "lo": d.boundaries[:-1].tolist(),
                 "hi": d.boundaries[1:].tolist(),
                 "value": d.block_values.tolist(),
                 "weight_magnitude": d.weight_magnitudes.tolist(),
                 "mean_factor": d.block_means.tolist()}
        head = {"command": "blocks", "format": fmt,
                "inputs": {"function": str(path), "i": 2000.0, "h": h, "tol": 1e-8},
                "full_blocks": d.full_blocks}
        expected = _render_per_cell(head, plain)
        assert len(plain["lo"]) > 900
        assert run_cli(capsys, "blocks", "--function", str(path), "--i", "2000", "--h", "1.5",
                       "--format", fmt) == (0, expected, "")


class TestNonUtf8Path:
    """A spec path with a byte that is not UTF-8 reaches ``main`` as a lone
    surrogate; the JSON record escapes it, so the output stays valid UTF-8
    and gives the original bytes back."""

    @pytest.fixture
    def byte_path(self, tmp_path):
        raw = os.path.join(os.fsencode(tmp_path), b"x\xff.json")
        with open(raw, "w") as fh:
            fh.write(json.dumps(SQUARE))
        return raw

    def test_json_stdout_and_out_file(self, capsys, tmp_path, byte_path):
        path = os.fsdecode(byte_path)
        code, out, err = run_cli(capsys, "validate", "--function", path)
        assert (code, err) == (0, "")
        assert "\\udcff" in out
        assert os.fsencode(json.loads(out.encode("utf-8"))["inputs"]["function"]) == byte_path
        target = tmp_path / "record.json"
        code, out, err = run_cli(capsys, "validate", "--function", path, "--out", str(target))
        assert (code, out, err) == (0, "", "")
        text = target.read_bytes().decode("utf-8")
        assert os.fsencode(json.loads(text)["inputs"]["function"]) == byte_path

    def test_csv_out_file(self, capsys, tmp_path, byte_path):
        target = tmp_path / "record.csv"
        code, out, err = run_cli(capsys, "validate", "--function", os.fsdecode(byte_path),
                                 "--format", "csv", "--out", str(target))
        assert (code, out, err) == (0, "", "")
        assert target.read_bytes().startswith(b"segment,lo,hi,lo_value,hi_value\n")

    def test_process_stdout_is_valid_utf8(self, byte_path):
        package_root = os.path.dirname(os.path.dirname(tc.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "trigconv.cli", "validate", "--function", byte_path],
            capture_output=True, env={**os.environ, "PYTHONPATH": path})
        assert result.returncode == 0, result.stderr
        record = json.loads(result.stdout.decode("utf-8"))
        assert os.fsencode(record["inputs"]["function"]) == byte_path


class TestParserCache:
    def test_one_parser_serves_every_call(self, capsys, sawtooth_file):
        calls = [["coeffs", "--function", sawtooth_file, "--n", "4"],
                 ["coeffs", "--function", sawtooth_file, "--n", "3,5"],
                 ["kernel", "--n", "3", "--x", "zero"],
                 ["cauchy", "--n", "7", "--format", "csv"]]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(outcome(argv))
        cli._build_parser.cache_clear()
        cached = [outcome(argv) for argv in calls]
        assert cli._build_parser.cache_info().misses == 1
        assert cached == fresh
        assert [c[0] for c in cached] == [0, 2, 2, 0]


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

    @pytest.mark.parametrize("name", MALFORMED_SPECS)
    def test_malformed_spec_file(self, capsys, tmp_path, name):
        data, phrase = MALFORMED_SPECS[name]
        path = tmp_path / "spec.json"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "validate", "--function", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("SpecSyntaxError:")
        assert phrase in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("target, error", [("missing/x.json", "FileNotFoundError"),
                                               (".", "IsADirectoryError")],
                             ids=["missing-directory", "directory"])
    def test_out_path_that_cannot_be_written(self, capsys, tmp_path, target, error):
        code, out, err = run_cli(capsys, "tail", "--n", "3", "--out", str(tmp_path / target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"{error}:")
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("argv", [
        ["coeffs", "--n", "3,5"],
        ["tail", "--n", "3,4"],
        ["cauchy", "--n", "3,4"],
        ["blocks", "--i", "10,20"],
    ], ids=["coeffs", "tail", "cauchy", "blocks"])
    def test_comma_list_where_single_expected(self, capsys, sawtooth_file, argv):
        if argv[0] in ("coeffs", "blocks"):
            argv = [argv[0], "--function", sawtooth_file, *argv[1:]]
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert info.value.code == 2
        assert out == ""
        assert f"argument {argv[-2]}: " in err
        assert repr(argv[-1]) in err

    def test_comma_list_with_a_bad_entry(self, capsys, sawtooth_file):
        with pytest.raises(SystemExit) as info:
            main(["partialsum", "--function", sawtooth_file, "--x", "0.5", "--n", "3,x"])
        out, err = capsys.readouterr()
        assert info.value.code == 2
        assert out == ""
        assert "expected an integer or comma list of integers" in err

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
