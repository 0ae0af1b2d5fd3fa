import json
import subprocess
import sys

import pytest

from dlstrata import dlclassify
from dlstrata.cli import GENUS_LIMIT, main
from tests import src_env


def run(args):
    return main(args)


def test_strata_rank_one(tmp_path):
    out = tmp_path / "strata.json"
    assert run(["strata", "--c", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["header"]["tool"] == "dlstrata"
    rows = payload["rows"]
    assert len(rows) == 2
    assert sorted(r["dimension"] for r in rows) == [0, 1]
    assert all(r["irreducible"] in (True, False) for r in rows)


def test_strata_rank_two_with_lift(tmp_path):
    out = tmp_path / "strata2.json"
    assert run(["strata", "--c", "2", "--g", "4", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 4
    assert sorted(r["dimension"] for r in rows) == [0, 1, 2, 3]
    for r in rows:
        assert len(r["lifted_one_line"]) == 8
        assert r["lifted_length"] == r["length"]


def test_strata_config_errors(capsys, tmp_path):
    out = tmp_path / "strata.json"
    assert run(["strata", "--c", "1", "--g", str(GENUS_LIMIT), "--out", str(out)]) == 0
    # each bad configuration ends with one line on stderr, no traceback
    for argv in (
        ["--c", "7"],
        ["--c", "2", "--g", "3"],
        ["--c", "1", "--g", "1000000000"],  # over the genus limit
    ):
        assert run(["strata"] + argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv


def test_census_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["census", "--c", "1", "--p", "2", "--m", "1",
                "--format", "csv", "--out", str(a)]) == 0
    assert run(["census", "--c", "1", "--p", "2", "--m", "1",
                "--format", "csv", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    assert any("modulus" in c for c in comments)
    assert data[0] == "p,m,c,label_word,label_oneline,count"
    assert data[1] == "2,1,1,,1 2,5"
    assert data[2] == "2,1,1,1,2 1,0"


def test_census_json_header(tmp_path):
    out = tmp_path / "census.json"
    assert run(["census", "--c", "1", "--p", "3", "--m", "1",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["header"]["field"] == {"p": 3, "k": 2, "modulus": [1, 0, 1]}
    assert sum(r["count"] for r in payload["rows"]) == 10


def test_census_config_errors(capsys):
    assert run(["census", "--c", "1", "--p", "4", "--m", "1"]) == 2
    assert run(["census", "--c", "1", "--p", "2", "--m", "11"]) == 2
    capsys.readouterr()
    # a huge prime and a huge degree are refused at once, in one line
    for argv in (
        ["--c", "1", "--p", "1000000000000000003", "--m", "1"],
        ["--c", "1", "--p", "3", "--m", "100000000"],
    ):
        assert run(["census"] + argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv
        assert "exceeds the table limit" in captured.err, argv


def test_verify_exit_codes(capsys):
    assert run(["verify", "--c", "1", "--g", "2", "--p", "2", "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert "verify: PASS over 5 points" in out
    assert "stratum e: 5/5 passed" in out
    assert run(["verify", "--c", "1", "--g", "1", "--p", "2", "--m", "1"]) == 2
    assert run(["verify", "--c", "1", "--g", "2", "--p", "6", "--m", "1"]) == 2
    capsys.readouterr()
    # each bad configuration ends with one line on stderr, no traceback
    for argv in (
        ["--c", "0", "--g", "2", "--p", "2", "--m", "1"],
        ["--c", "1", "--g", "2", "--p", "2", "--m", "1", "--trials", "-3"],
        ["--c", "1", "--g", "2", "--p", "2", "--m", "1", "--trials", "0"],
        ["--c", "1", "--g", "2", "--p", "2", "--m", "6"],  # order 4096
        ["--c", "2", "--g", "4", "--p", "2", "--m", "4"],  # 16.8M points
        ["--c", "1", "--g", "2", "--p", "1000000000000000003", "--m", "1"],
        ["--c", "1", "--g", "2", "--p", "3", "--m", "100000000"],
        ["--c", "1", "--g", "100000", "--p", "2", "--m", "1"],  # over the genus limit
        ["--c", "1", "--g", "2", "--p", "2", "--m", "1", "--trials", "2", "--seed", "-1"],
    ):
        assert run(["verify"] + argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv


def test_verify_sampled(capsys):
    assert run(["verify", "--c", "1", "--g", "2", "--p", "2", "--m", "2",
                "--trials", "7", "--seed", "1"]) == 0
    assert "over 7 points" in capsys.readouterr().out


def test_bedard_dump(tmp_path):
    out = tmp_path / "seqs.json"
    assert run(["bedard", "--c", "2", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 4
    for row in rows:
        assert row["steps"][-1]["u"] == row["u_inf"]
    assert run(["bedard", "--c", "6"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["strata", "--c", "1"],
        ["census", "--c", "1", "--p", "2", "--m", "1"],
        ["census", "--c", "1", "--p", "2", "--m", "1", "--format", "csv"],
        ["bedard", "--c", "1"],
    ],
)
def test_unwritable_out_exits_two_with_one_line(capsys, tmp_path, argv):
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert run(argv + ["--out", str(out)]) == 2, (argv, out)
        captured = capsys.readouterr()
        assert captured.out == "", (argv, out)
        assert captured.err.count("\n") == 1 and str(out) in captured.err, (argv, out)
    assert not (tmp_path / "missing").exists()


def test_census_refuses_an_unwritable_out_before_classifying(capsys, tmp_path, monkeypatch):
    def census(*args):
        raise AssertionError("census ran before --out was checked")

    monkeypatch.setattr(dlclassify, "census", census)
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        argv = ["census", "--c", "2", "--p", "2", "--m", "2", "--out", str(out)]
        assert run(argv) == 2, out
        captured = capsys.readouterr()
        assert captured.out == "", out
        assert captured.err.count("\n") == 1 and str(out) in captured.err, out
    # a writable path goes on to the census, and an existing file is left
    # as it is until the output is written
    existing = tmp_path / "kept.json"
    existing.write_text("kept")
    with pytest.raises(AssertionError, match="census ran"):
        run(["census", "--c", "1", "--p", "2", "--m", "1", "--out", str(existing)])
    assert existing.read_text() == "kept"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dlstrata", "strata", "--c", "1"],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"]


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["census", "--c", "1"])  # missing required flags
    assert exc.value.code == 2
