"""Exact checks on the output of every worker run.

Three kinds of oracle are used:

* closed forms, independent of the code under test: the Lagrangian count
  prod(q^i + 1), #e = #LG(2, F_{p^2}) and #s2 = (#lines of F_{p^2}^4) *
  ((q + 1) - (p^2 + 1)) for c = 2, and #e = p^2 + 1 for c = 1;
* values recorded at the commit that introduced the benchmark, in
  ``oracles.json`` (written by ``record.py``): the label of every point of
  the two exhaustive spaces, the bytes of the census output file, a
  digest of the sample labels for a range of seeds, and the number of
  points per run whose check raised or returned False (0 on every
  workload): a run with more failed points goes on to the end but is not
  correct;
* consistency between the program's own outputs: the CLI's per-stratum
  ``passed`` lines against the labels the hooks saw, and the exit code
  against the failures counted.

``check`` returns a list of problems; an empty list means every oracle
passed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
RECORDED = os.path.join(HERE, "oracles.json")

# (c, p, m) of the exhaustive spaces, and the point count of each workload.
SPACES = {"census-c2-q16": (2, 2, 2), "verify-c2g5-q16": (2, 2, 2), "field-q1024-c1": (1, 2, 5)}
SAMPLE_POINTS = 400
VERIFY_TRIALS = 400


def lagrangian_count(c: int, q: int) -> int:
    total = 1
    for i in range(1, c + 1):
        total *= q**i + 1
    return total


def closed_form_strata(c: int, p: int, m: int) -> dict[str, int]:
    """Stratum sizes that follow from counting rational points alone."""
    q, r = p ** (2 * m), p**2
    total = lagrangian_count(c, q)
    if c == 1:
        return {"e": r + 1, "1": total - (r + 1)}
    if c == 2:
        lg2 = (r + 1) * (r**2 + 1)  # #LG(2, F_r): the twist-fixed points
        lines = (r**4 - 1) // (r - 1)  # every line of F_r^4 is isotropic
        return {"e": lg2, "2": lines * ((q + 1) - (r + 1))}
    raise ValueError("closed forms are known for c <= 2 only")


def load() -> dict:
    with open(RECORDED) as fh:
        return json.load(fh)


def label_digest(labels: list[str]) -> str:
    return hashlib.sha256("\n".join(labels).encode()).hexdigest()


def _point_labels(name: str, report: dict, recorded: dict, problems: list[str]) -> None:
    """Each point's label against the recorded label of its index."""
    table = recorded[name if name != "verify-c2g5-q16" else "census-c2-q16"]
    legend, codes = table["legend"], table["labels"]
    wrong = [
        i for i, w in zip(report["indices"], report["labels"]) if legend[int(codes[i])] != w
    ]
    if len(report["indices"]) != len(report["labels"]):
        problems.append("a processed point could not be located in the enumeration")
    if wrong:
        problems.append(f"{len(wrong)} point labels differ from the recorded ones (first index {wrong[0]})")


def _census(report: dict, recorded: dict, problems: list[str]) -> None:
    c, p, m = SPACES["census-c2-q16"]
    q = p ** (2 * m)
    if report["rc"] != 0:
        problems.append(f"census exited with {report['rc']}")
        return
    if report["output_sha256"] != recorded["census-c2-q16"]["output_sha256"]:
        problems.append("census output bytes differ from the recorded digest")
    rows = json.loads(report["output_text"])["rows"]
    counts = {" ".join(map(str, r["label_word"])) or "e": r["count"] for r in rows}
    total = sum(counts.values())
    if total != lagrangian_count(c, q):
        problems.append(f"census total {total} != prod(q^i + 1) = {lagrangian_count(c, q)}")
    for word, n in closed_form_strata(c, p, m).items():
        if counts.get(word) != n:
            problems.append(f"stratum {word}: {counts.get(word)} != closed form {n}")
    if counts != recorded["census-c2-q16"]["counts"]:
        problems.append(f"stratum counts {counts} != recorded {recorded['census-c2-q16']['counts']}")
    if Counter(report["labels"]) != Counter({w: n for w, n in counts.items() if n}):
        problems.append("labels seen per point do not add up to the census rows")


_PASSED = re.compile(r"^stratum (.+): (\d+)/(\d+) passed$")


def _verify(name: str, report: dict, expected_points: int, problems: list[str]) -> None:
    lines = report["output_text"].splitlines()
    tallies = {}
    for line in lines[:-1]:
        hit = _PASSED.match(line)
        if hit is None:
            problems.append(f"unexpected verify output line {line!r}")
            continue
        tallies[hit.group(1)] = (int(hit.group(2)), int(hit.group(3)))
    seen = Counter(report["labels"])
    if {w: t for w, (_, t) in tallies.items()} != dict(seen):
        problems.append(f"per-stratum totals {tallies} disagree with the labels {dict(seen)}")
    lost = sum(t - g for g, t in tallies.values())
    if lost != report["failed"]:
        problems.append(f"{lost} points failed by the passed lines, {report['failed']} counted")
    verdict = "PASS" if report["failed"] == 0 else "FAIL"
    if not lines or lines[-1] != f"verify: {verdict} over {expected_points} points":
        problems.append(f"last verify line {lines[-1] if lines else ''!r}")
    if report["rc"] != (0 if report["failed"] == 0 else 1):
        problems.append(f"verify exited with {report['rc']} after {report['failed']} failures")
    if name == "field-q1024-c1":
        c, p, m = SPACES[name]
        forms = closed_form_strata(c, p, m)
        if dict(seen) != {w: n for w, n in forms.items() if n}:
            problems.append(f"strata {dict(seen)} != closed forms {forms}")


def check(name: str, seed: int, report: dict, recorded: dict) -> list[str]:
    """Problems found in one worker report; empty when every oracle passes."""
    problems: list[str] = []
    expected = {
        "census-c2-q16": lagrangian_count(2, 16),
        "verify-c2g5-q16": VERIFY_TRIALS,
        "sample-c3g6-q16": SAMPLE_POINTS,
        "field-q1024-c1": lagrangian_count(1, 1024),
    }[name]
    if report["points"] != expected:
        problems.append(f"{report['points']} points processed, {expected} expected")
    allowed = recorded["failed"][name]
    if report["failed"] > allowed:
        problems.append(f"{report['failed']} points raised or returned False, "
                        f"{allowed} at the recording commit")
    if name in SPACES:
        _point_labels(name, report, recorded, problems)
    if name == "census-c2-q16":
        _census(report, recorded, problems)
    elif name == "sample-c3g6-q16":
        digest = recorded["sample-c3g6-q16"]["label_sha256"].get(str(seed))
        if digest is not None and label_digest(report["labels"]) != digest:
            problems.append(f"sample labels differ from the digest recorded for seed {seed}")
    else:
        _verify(name, report, expected, problems)
    return problems
