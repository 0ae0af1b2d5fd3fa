"""Write oracles.json: the recorded values the oracles compare against.

    python3 perfbench/record.py

It records, from the code as it stands, the label of every point of the
two exhaustive workloads, the stratum counts and output digest of the
census, a digest of the sample labels for seeds 0..SAMPLE_SEEDS-1, and
the most points whose check raised or returned False in one run of each
workload (the verify sample with seed 0).  Run it only at a commit whose
outputs are known to be right: every later run of the benchmark is
checked against these values.
"""

from __future__ import annotations

import hashlib
import json
import os

import worker
from oracles import RECORDED, label_digest

WORK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work")
SAMPLE_SEEDS = 32


def _legend_and_codes(words: list[str], indices: list[int]) -> tuple[list[str], str]:
    legend = sorted(set(words), key=lambda w: (0 if w == "e" else len(w.split()), w))
    codes = [""] * len(words)
    for i, w in zip(indices, words):
        codes[i] = str(legend.index(w))
    return legend, "".join(codes)


def _exhaustive(run, space) -> tuple[dict, dict, int]:
    state = worker.Points(probe=False)
    result = run(state, 0, WORK)
    words = worker.label_words(state.labels)
    legend, codes = _legend_and_codes(words, worker.enumeration_indices(state.points, space))
    return {"legend": legend, "labels": codes}, result, state.failed


def main() -> None:
    os.makedirs(WORK, exist_ok=True)

    census, result, census_failed = _exhaustive(worker.run_census, (2, 2, 2))
    rows = json.loads(result["output"])["rows"]
    census["counts"] = {" ".join(map(str, r["label_word"])) or "e": r["count"] for r in rows}
    census["output_sha256"] = hashlib.sha256(result["output"]).hexdigest()
    field, _, field_failed = _exhaustive(worker.run_field, (1, 2, 5))
    verify = worker.Points(probe=False)
    worker.run_verify(verify, 0, WORK)

    digests = {}
    sample_failed = 0
    for seed in range(SAMPLE_SEEDS):
        state = worker.Points(probe=False)
        worker.run_sample(state, seed, WORK)
        digests[str(seed)] = label_digest(worker.label_words(state.labels))
        sample_failed = max(sample_failed, state.failed)

    recorded = {
        "census-c2-q16": census,
        "field-q1024-c1": field,
        "sample-c3g6-q16": {"label_sha256": digests},
        "failed": {
            "census-c2-q16": census_failed,
            "verify-c2g5-q16": verify.failed,
            "sample-c3g6-q16": sample_failed,
            "field-q1024-c1": field_failed,
        },
    }
    with open(RECORDED, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
