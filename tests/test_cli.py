import hashlib
import json
import subprocess
import sys
import time

import pytest

from dlstrata import dlclassify
from dlstrata.cli import GENUS_LIMIT, main
from tests import src_env
from tests.test_acceptance import CENSUS_CONFIGS


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


# sha256 of each strata/bedard output file.  The header carries the tool
# version, so a version bump changes every digest; any other change to
# these bytes must be deliberate.
OUTPUT_DIGESTS = {
    "strata --c 1": "5489260d07f0b313887637b96f7fdf1914b9fd21930af444c76c0a94a3dac81d",
    "strata --c 1 --g 2": "ca3282d1e3dedb0afcd8b5b42492d326facaefa4065dc726090a1af9adaa00e1",
    "strata --c 1 --g 3": "1abac604667595fc73d63f5fd7a06fd166a9dab8c55465bc08a2c66ee29db44b",
    "strata --c 2": "b3110f276da15fbbcd1dcddc72f06456c2e65364b5fb2618827e5c2c38ff0268",
    "strata --c 2 --g 4": "f6938f3a551bc3717bf082ddc3944de6350bc71bd06aeae5a525abec0a481180",
    "strata --c 2 --g 5": "89dfec291ed58937876e923bc1c8ad55e48fe39af1d5f0ac57f187c71fc6b35f",
    "strata --c 3": "5f5105be63b86642c600a88ee7b7893cf19d1617ef0e25f808d9c7764c006152",
    "strata --c 3 --g 6": "30a171ea1f3e78a8344310310ca2954fee28bb78f3e99e4c1d2c76dee1387740",
    "strata --c 3 --g 7": "e329700c199f8f5a5bd6bbd1f006ded334b385da4858f91cc204f96936a304c4",
    "strata --c 4": "9d5ddfdd744110edff8b567323f120c793e6489cb91364e055d8ed27391dea7a",
    "strata --c 4 --g 8": "98e8923b4cdcfb51f375e5ab4ffa865600d3f362e5ecd89385adbc570f2db602",
    "strata --c 4 --g 9": "dac1db445c76e876bf1f3e90834d476b249a70f12bcb20ab59cfa3403b2ce82a",
    "strata --c 5": "c41a289486f306b02532ac8ec879e0554a10e138e407cb6bb25ca9e1fbae723e",
    "strata --c 5 --g 10": "ac015ce340d97c78880c476d33d8d82402e2682e924db586ad678b0ecfa55ff5",
    "strata --c 5 --g 11": "a92ce5d4a04e4d926bb53f7915297a1e857a8f88dc3610bb67caaccb14c2f72d",
    "strata --c 6": "5af6641bfa92ffcd5314e8efa84524f53b134d877089c362a77e88269740d4ec",
    "strata --c 6 --g 12": "49f44363620d1921f7b428a462e7e7dabec14e73d5fcaa5b71ff9321ef54221b",
    "strata --c 6 --g 13": "57c95c89baa745af6241442765e96bc59320c17bb0aaa0c9338053b42c65222f",
    "bedard --c 1": "4f1dceb2a0477e4248956fb06f655731c5c3cfc7efea4d93c18692d48c9fb22e",
    "bedard --c 2": "564b090c9200c00e3de1188c768027af3ac219ea3a83a38a5b044f0e7c082f82",
    "bedard --c 3": "427079f0929c57e9775cefd96fc07a25960ce3231a091eb24a06407a7f7b8afd",
    "bedard --c 4": "a8f2accf922f8c31cbe9de719efa3feed20ab2def24bd26a9beea8e11a6c2bfd",
    "bedard --c 5": "8c1141b2107411c97fa1b5dd550d517293e3b62e5cf28a536c647ef85ba7d710",
}


@pytest.mark.parametrize("command", sorted(OUTPUT_DIGESTS))
def test_strata_and_bedard_bytes_are_pinned(tmp_path, command):
    out = tmp_path / "out.json"
    assert run(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_DIGESTS[command]


# sha256 of the census CSV and JSON output for every CENSUS_CONFIGS
# entry; the header carries the tool version, as above.
CENSUS_DIGESTS = {
    "census --c 1 --p 2 --m 1 --format csv": "8d166447f69ebad326d0951b60da2c2231c76e92f2803f7399597bb68bf2a6ef",
    "census --c 1 --p 2 --m 1 --format json": "1804311be2f4fb730f17ad584a368db44554e301a059df404ebababc9a5e5811",
    "census --c 1 --p 2 --m 2 --format csv": "7ae5869f758ae1f94492e62422aefdb72dccc0e476d0611bdec0fc145ca0ecdd",
    "census --c 1 --p 2 --m 2 --format json": "55eb337ab1d9f33bf96299363737962959468f1d6f4dac3dcaca8e4692b99d80",
    "census --c 1 --p 3 --m 1 --format csv": "8f104a55cf5177e175dbbe558995bb07a4cbec442acff090dfd5e27cf820995a",
    "census --c 1 --p 3 --m 1 --format json": "f94cff8176dbd7d2929438dcae1992a96360e7928d6504efd55179dcd391f6b5",
    "census --c 1 --p 3 --m 2 --format csv": "8108f8898ef024f768d2db044eabfb00db0b83fe8ae46388ddf6306498633cf2",
    "census --c 1 --p 3 --m 2 --format json": "11b314a891a58537e20d661eb5ef7d79fdf1ddbe643626290d9c87ddfb3b2753",
    "census --c 2 --p 2 --m 1 --format csv": "38cb146ad56eec89a11d9f943dfc7c2956c129aedb6c945d56b1d1f90e637c97",
    "census --c 2 --p 2 --m 1 --format json": "9d451a6aa84efee53610601e6785772e2846be208c3bef4603db859f26babc51",
    "census --c 2 --p 2 --m 2 --format csv": "cb5c0424ced607fa994cf2a9f241aeb4eec15f9f04c5c8c48649980b48e65984",
    "census --c 2 --p 2 --m 2 --format json": "852c2f9ed70f674ad3903e8f8d17d3e1dd25a183f1b7f14d3af378f88efab4cb",
    "census --c 2 --p 3 --m 1 --format csv": "ece7a64b27c6a6e1b1de0f763251c9ca54a41524185e3d6cb055208b75d57184",
    "census --c 2 --p 3 --m 1 --format json": "77e08a4e6ef6ba1b7a6a715fa8e51aedf75d0df2543a3a1409c32b8432c80773",
}


def test_census_digests_cover_every_census_config():
    assert set(CENSUS_DIGESTS) == {
        f"census --c {c} --p {p} --m {m} --format {fmt}"
        for c, p, m in CENSUS_CONFIGS
        for fmt in ("csv", "json")
    }


@pytest.mark.parametrize("command", sorted(CENSUS_DIGESTS))
def test_census_bytes_are_pinned(tmp_path, command):
    out = tmp_path / "out"
    assert run(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CENSUS_DIGESTS[command]


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
    # a huge prime, a huge degree and a huge rank are refused at once,
    # in one line; the rank is refused before its whole point count is
    # multiplied out
    for argv, message in (
        (["--c", "1", "--p", "1000000000000000003", "--m", "1"], "exceeds the table limit"),
        (["--c", "1", "--p", "3", "--m", "100000000"], "exceeds the table limit"),
        (["--c", "100000", "--p", "2", "--m", "1"], "desk-scale limit"),
        (["--c", "200", "--p", "2", "--m", "1"], "desk-scale limit"),
    ):
        start = time.perf_counter()
        assert run(["census"] + argv) == 2, argv
        assert time.perf_counter() - start < 5, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv
        assert message in captured.err, argv


@pytest.mark.parametrize("c", ["0", "-1"])
def test_census_refuses_a_rank_below_one(capsys, c):
    # the census's own message, not the symplectic space's
    assert run(["census", "--c", c, "--p", "2", "--m", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "census requires c >= 1\n"


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


def test_verify_sampled_bytes_are_pinned(capsys):
    # 60 seeded points over F_16 at genus 5, one line per stratum met
    assert run(["verify", "--c", "2", "--g", "5", "--p", "2", "--m", "2",
                "--trials", "60", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("verify: PASS over 60 points\n")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "7cfa521fa0b3984ab6175172b8c2488b2f9f4865e373e8bfb5a09d09dd6ed103"


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


def test_bad_flags_exit_two(capsys):
    # argument errors, type errors included, are one stderr line each
    for argv, message in (
        (["census", "--c", "1"], "dlstrata census: error: the following arguments are required"),
        (["census", "--c", "x", "--p", "2", "--m", "1"], "dlstrata census: error: argument --c"),
        (["verify", "--c", "1", "--g", "2", "--p", "2", "--m", "1", "--trials", "1.5"],
         "dlstrata verify: error: argument --trials"),
        (["census", "--c", "1", "--m", "1"], "dlstrata census: error: the following arguments are required: --p"),
        (["nonsense"], "dlstrata: error:"),
        ([], "dlstrata: error:"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.count("\n") == 1 and captured.err.startswith(message), captured.err
