"""Command line interface: formats, exit codes, batch mode."""
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcfzeros
from pcfzeros import chain, cli
from pcfzeros.cli import main
from pcfzeros.config import MAX_ZEROS
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
    assert set(doc) == {"a", "L", "zeros"}
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


def test_argparse_exits_map_to_0_and_1(capsys):
    # argparse exits 0 after --help and 2 on a usage error; main returns
    # 0 and 1, and leaves argparse's text as it is
    code, out, err = run(["--help"], capsys)
    assert code == 0
    assert out.startswith("usage: pcfzeros") and err == ""
    code, out, err = run(["--a", "x", "--L", "10"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: pcfzeros")
    assert "pcfzeros: error: argument --a: invalid float value: 'x'" in err


@pytest.mark.parametrize("flag, value", [
    ("--eps", "1e-13"), ("--delta", "1e-4"), ("--taylor-order", "30"),
    ("--lg-order", "12")])
def test_settings_are_not_flags(flag, value, capsys):
    # tolerances and orders are constants of config.py, not run settings
    code, out, err = run(["--a", "-1.7", "--L", "12", flag, value], capsys)
    assert code == 1
    assert f"unrecognized arguments: {flag} {value}" in err
    assert out == ""


def test_out_file(tmp_path, capsys):
    path = tmp_path / "zeros.csv"
    code, out, err = run(
        ["--a", "-1.7", "--L", "12", "--out", str(path)], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(path.read_text())))
    assert len(rows) == 24


def test_unwritable_out_exits_1(tmp_path, capsys):
    path = tmp_path / "missing" / "zeros.csv"
    table = tmp_path / "cases.txt"
    table.write_text("2.3 10\n")
    for argv in (["--a", "2.3", "--L", "10"], ["--table", str(table)]):
        code, out, err = run(argv + ["--out", str(path)], capsys)
        assert code == 1, argv
        assert out == ""
        assert err.startswith(f"pcfzeros: cannot write {path}: ")
        assert "Traceback" not in err


def test_table_mode(tmp_path, capsys):
    table = tmp_path / "cases.txt"
    # blank lines and '#' lines are skipped
    table.write_text("# a L\n-1.7 12\n\n   \n  # 2.3 50\n2.3 10\n")
    code, out, err = run(["--table", str(table)], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a,L,n_zeros,wall_time_seconds"
    first = lines[1].split(",")
    assert first[0] == "-1.7" and int(first[2]) == 23
    second = lines[2].split(",")
    assert int(second[2]) == 16
    assert len(lines) == 3 and err == ""


def test_unreadable_table_exits_1(tmp_path, capsys):
    code, out, err = run(["--table", str(tmp_path / "missing.txt")], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("pcfzeros: cannot read table file: ")


@pytest.mark.parametrize("flags, named", [
    (["--a", "2.3"], "--a"), (["--L", "10"], "--L"),
    (["--verify"], "--verify"), (["--format", "json"], "--format"),
    (["--format", "json", "--verify", "--a", "2.3", "--L", "10"],
     "--a, --L, --verify, --format")])
def test_table_mode_rejects_flags_it_ignores(flags, named, tmp_path,
                                             capsys):
    # each line gives its own a and L, and the counts are always CSV
    table = tmp_path / "cases.txt"
    table.write_text("2.3 10\n")
    code, out, err = run(["--table", str(table), *flags], capsys)
    assert code == 1
    assert err == f"pcfzeros: --table does not take {named}\n"
    assert out == ""
    # the CSV format it writes anyway is no conflict
    code, out, err = run(["--table", str(table), "--format", "csv"], capsys)
    assert code == 0 and err == ""


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


def test_overflowing_zero_index_exits_1(capsys):
    # the zero index of L = 1e200 overflows to inf; main returns rather
    # than raising, with the zero-cap message
    code, out, err = run(["--a", "-1.7", "--L", "1e200"], capsys)
    assert code == 1
    assert err == ("pcfzeros: a=-1.7, L=1e+200 holds more than "
                   f"{MAX_ZEROS} zeros\n")
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


def _command(*args):
    """Run `python -m pcfzeros.cli` as its own process, on this package."""
    src = Path(pcfzeros.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "pcfzeros.cli", *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_command_runs_as_a_process(tmp_path):
    # the module's __main__ line turns main's return value into the exit
    # status of the process
    proc = _command("--a", "-1.7", "--L", "12")
    assert proc.returncode == 0, proc.stderr
    assert len(list(csv.reader(io.StringIO(proc.stdout)))) == 24
    assert proc.stderr == ""
    table = tmp_path / "cases.txt"
    table.write_text("-1.7 12\n-1.5 10\n")
    proc = _command("--table", str(table))
    assert proc.returncode == 1
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "a,L,n_zeros,wall_time_seconds"
    assert [ln.split(",")[:3] for ln in lines[1:]] == [["-1.7", "12", "23"]]
    assert proc.stderr.startswith(f"pcfzeros: {table}:2: ")
    assert proc.stderr.count("\n") == 1
