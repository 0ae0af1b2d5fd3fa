"""Tests of the benchmark's own plumbing (not of dlstrata).

    python3 -m pytest perfbench -q

The traced runs below are fresh worker processes, as in the benchmark:
dlstrata memoizes group tables, so only a fresh process repeats its
call counts exactly.
"""

from __future__ import annotations

import importlib
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import clock  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SAMPLE = "sample-c3g6-q16"


def _bindings() -> dict:
    package = importlib.import_module("dlstrata")
    mods = [package] + [importlib.import_module(f"dlstrata.{m}") for m in spans.MODULES]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    flag = importlib.import_module("dlstrata.symplectic").Flag
    out[("Flag", "__init__")] = flag.__dict__["__init__"]
    return out


def test_restore_puts_back_every_original(tmp_path):
    from dlstrata import cli, dlclassify, gf, linalg

    before = _bindings()
    tracer = spans.Tracer().install()
    try:
        # wrapped where callers resolve it: in gf and where it was imported by name
        assert gf.field is not before[("dlstrata.gf", "field")]
        assert dlclassify.field is gf.field
        assert linalg.rref is not before[("dlstrata.linalg", "rref")]
        out = tmp_path / "census.json"
        assert cli.main(["census", "--c", "1", "--p", "2", "--m", "1", "--out", str(out)]) == 0
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
    rref = tracer.stat("linalg.rref")
    assert rref.calls > 0 and rref.cells > 0
    assert tracer.stat("dlclassify.classify_fine").calls == 5
    assert tracer.stat("dlclassify.classify_fine").self_time <= tracer.stat(
        "dlclassify.classify_fine").total


@pytest.fixture(scope="module")
def sample_runs():
    deadline = clock.now() + 150
    return {
        "traced_a": run.spawn(SAMPLE, 1, deadline, trace=True),
        "traced_b": run.spawn(SAMPLE, 1, deadline, trace=True),
        "other_seed": run.spawn(SAMPLE, 2, deadline),
    }


def test_two_traced_runs_with_one_seed_give_identical_counts(sample_runs):
    a, b = sample_runs["traced_a"], sample_runs["traced_b"]
    assert run.counts_of(a) == run.counts_of(b)
    assert run.counts_of(a)["linalg.rref"]["calls"] > 0
    assert a["trace"]["table_bytes"] == b["trace"]["table_bytes"] > 0
    assert a["labels"] == b["labels"]


def test_other_seed_changes_the_sample_but_not_the_verdicts(sample_runs):
    a, other = sample_runs["traced_a"], sample_runs["other_seed"]
    assert a["labels"] != other["labels"]
    recorded = oracles.load()
    assert oracles.check(SAMPLE, 1, a, recorded) == []
    assert oracles.check(SAMPLE, 2, other, recorded) == []
    assert a["failed"] == other["failed"] == 0


def test_a_wrong_label_fails_the_oracle(sample_runs):
    bad = dict(sample_runs["other_seed"])
    bad["labels"] = ["e"] + bad["labels"][1:]
    assert oracles.check(SAMPLE, 2, bad, oracles.load())


def test_a_failed_point_fails_the_oracle(sample_runs):
    bad = dict(sample_runs["other_seed"])
    bad["failed"] = 1
    assert any("returned False" in p for p in oracles.check(SAMPLE, 2, bad, oracles.load()))


def test_closed_forms():
    assert oracles.lagrangian_count(2, 16) == 4369
    assert oracles.closed_form_strata(2, 2, 2) == {"e": 85, "2": 1020}
    assert oracles.closed_form_strata(1, 2, 5) == {"e": 5, "1": 1020}


def test_rescaling_counts_work_at_reference_speed():
    slow = 2 * clock.REF_S
    bursts = [(0.0, 1.0, slow), (2.0, 3.0, slow)]
    assert clock.raw(bursts, 0.0, 3.0) == pytest.approx(1.0)
    assert clock.rescaled(bursts, 0.0, 3.0) == pytest.approx(0.5)
    assert clock.rescaled(bursts, 1.5, 3.0) == pytest.approx(0.25)


def test_without_the_sources_the_benchmark_refuses_to_run(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", SAMPLE, "--seed", "1",
         "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
