"""Command line interface: formats, exit codes, batch mode."""
import ast
import csv
import dataclasses
import inspect
import io
import json

import pytest

from pcfzeros import chain, cli
from pcfzeros.cli import main
from pcfzeros.config import DEFAULT_CONFIG, ChainConfig
from pcfzeros.errors import (ConvergenceError, HermiteParameterError,
                             StepFailureError)


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_csv_output(capsys):
    code, out, err = run(["--a", "-1.7", "--L", "12"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "re", "im", "est_rel_error", "iterations"]
    assert len(rows) == 24  # header + 23 zeros
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(23)]
    # unverified runs leave the error column as nan
    assert all(r[3] == "nan" for r in rows[1:])


def test_json_output_and_roundtrip(capsys):
    code, out, err = run(
        ["--a", "2.3", "--L", "10", "--format", "json", "--verify"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == 2.3
    assert doc["L"] == 10.0
    assert set(doc["config"]) >= {"eps", "delta", "taylor_order", "lg_order"}
    assert len(doc["zeros"]) == 16
    for rec in doc["zeros"]:
        assert rec["est_rel_error"] is not None
        assert rec["est_rel_error"] < 1e-11
    # 17 significant digits survive a JSON round trip bit-exactly
    again = json.loads(json.dumps(doc))
    assert again == doc


def test_verify_fills_error_column(capsys):
    code, out, err = run(
        ["--a", "-1.7", "--L", "12", "--verify"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert all(float(r[3]) < 1e-11 for r in rows)


def test_deterministic_output(capsys):
    argv = ["--a", "-3.2", "--L", "15", "--verify"]
    out1 = run(argv, capsys)[1]
    out2 = run(argv, capsys)[1]
    assert out1 == out2


def test_hermite_parameter_exits_1(capsys):
    code, out, err = run(["--a", "-2.5", "--L", "10"], capsys)
    assert code == 1
    assert "hermite" in err.lower()


def test_half_is_not_hermite(capsys):
    code, out, err = run(["--a", "0.5", "--L", "10"], capsys)
    assert code == 0


def test_bad_flag_exits_1(capsys):
    code, out, err = run(["--a", "1.0"], capsys)  # missing --L
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["--a", "-1.7", "--L", "12", "--taylor-order", "3"],
    ["--a", "-1.7", "--L", "12", "--lg-order", "0"],
    ["--a", "20.5", "--L", "50", "--lg-order", "0"],
])
def test_bad_order_is_invalid_configuration(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert "invalid configuration" in err
    assert out == ""


def test_config_fields_are_exactly_the_cli_settings(capsys):
    # every run setting is a CLI flag: ChainConfig holds no field the CLI
    # does not set, and the JSON report echoes all of them
    fields = {f.name for f in dataclasses.fields(ChainConfig)}
    tree = ast.parse(inspect.getsource(cli._make_config))
    (call,) = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
               and getattr(n.func, "id", None) == "ChainConfig"]
    assert {kw.arg for kw in call.keywords} == fields
    code, out, err = run(["--a", "2.3", "--L", "10", "--format", "json"],
                         capsys)
    assert code == 0
    assert set(json.loads(out)["config"]) == fields


def test_parser_defaults_are_the_config_defaults():
    # ChainConfig is the one home of the defaults; the flags take theirs
    # from DEFAULT_CONFIG
    args = cli.build_parser().parse_args([])
    assert cli._make_config(args) == DEFAULT_CONFIG
    for f in dataclasses.fields(ChainConfig):
        assert getattr(args, f.name) == getattr(DEFAULT_CONFIG, f.name)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "zeros.csv"
    code, out, err = run(
        ["--a", "-1.7", "--L", "12", "--out", str(path)], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(path.read_text())))
    assert len(rows) == 24


def test_table_mode(tmp_path, capsys):
    table = tmp_path / "cases.txt"
    table.write_text("-1.7 12\n2.3 10\n")
    code, out, err = run(["--table", str(table)], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a,L,n_zeros,wall_time_seconds"
    first = lines[1].split(",")
    assert first[0] == "-1.7" and int(first[2]) == 23
    second = lines[2].split(",")
    assert int(second[2]) == 16


def test_table_mode_empty_file(tmp_path, capsys):
    table = tmp_path / "empty.txt"
    table.write_text("")
    code, out, err = run(["--table", str(table)], capsys)
    assert code == 0
    assert out.strip() == "a,L,n_zeros,wall_time_seconds"


def test_table_mode_malformed_line(tmp_path, capsys):
    table = tmp_path / "bad.txt"
    table.write_text("-1.7 12\noops\n")
    code, out, err = run(["--table", str(table)], capsys)
    assert code == 1
    assert ":2:" in err


def test_table_mode_keeps_going_past_failing_row(tmp_path, capsys):
    table = tmp_path / "mixed.txt"
    # -1.5 is Hermite; inf would reach round() in the Hermite test
    table.write_text("-1.7 12\n-1.5 10\ninf 10\n2.3 10\n")
    code, out, err = run(["--table", str(table)], capsys)
    assert code == 1
    lines = out.strip().split("\n")
    assert lines[0] == "a,L,n_zeros,wall_time_seconds"
    assert [int(ln.split(",")[2]) for ln in lines[1:]] == [23, 16]
    assert ":2:" in err
    assert ":3: a=inf and L=10.0 must be finite" in err


@pytest.mark.parametrize("a, L", [("inf", "10"), ("-inf", "10"),
                                  ("nan", "10"), ("2.3", "inf"),
                                  ("2.3", "nan")])
def test_non_finite_input_exits_1(a, L, capsys):
    # main returns rather than raising: no traceback reaches the user
    code, out, err = run([f"--a={a}", f"--L={L}"], capsys)
    assert code == 1
    assert "finite" in err
    assert out == ""


def test_domain_over_zero_cap_exits_1(monkeypatch, capsys):
    def must_not_run(*args):
        raise AssertionError("refine_first_zero ran")
    monkeypatch.setattr(chain, "refine_first_zero", must_not_run)
    code, out, err = run(["--a", "1", "--L", "1e5"], capsys)
    assert code == 1
    assert "zeros" in err
    assert out == ""


@pytest.mark.parametrize("exc, status", [
    (HermiteParameterError, 1), (ValueError, 1),
    (ConvergenceError, 2), (StepFailureError, 2)])
def test_single_run_and_table_share_exit_status(exc, status, tmp_path,
                                                monkeypatch, capsys):
    def failing(*args):
        raise exc("forced")
    monkeypatch.setattr(cli, "run_chain", failing)
    table = tmp_path / "cases.txt"
    table.write_text("-1.7 12\n")
    for argv in (["--a", "-1.7", "--L", "12"], ["--table", str(table)]):
        code, out, err = run(argv, capsys)
        assert code == status, argv
        assert "forced" in err


def test_custom_eps(capsys):
    code, out, err = run(
        ["--a", "-1.7", "--L", "12", "--eps", "1e-13"], capsys)
    assert code == 0
    assert len(out.strip().split("\n")) == 24
