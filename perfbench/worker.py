"""One run of one workload in a fresh process; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --work DIR
        [--trace] [--probe]

The worker stamps the two moments the timings are taken from at stable
boundaries: the first point is ready when the point set exists (the
return of ``dlclassify._cached_lagrangians``, which the census and verify
commands enumerate through, or the end of the sampling), and the last
point is done when ``cli.main`` (or the sampling loop) returns.  Between
them it hooks, from outside, the per-point functions
(``dlclassify.classify_fine`` and ``dieudonne.verify_pullback``) only to
record each point's label, count points whose check raises or returns
False (the run goes on), and pace the calibration bursts of ``clock``.
With ``--probe`` the process exits as soon as the first point is ready,
which samples set-up alone.  With ``--trace`` every layer is wrapped by
``spans.Tracer`` as well.

The last line of standard output is one JSON report; run.py checks it
against the oracles.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import clock  # noqa: E402
from oracles import SAMPLE_POINTS, VERIFY_TRIALS  # noqa: E402

import numpy as np  # noqa: E402


class Points:
    """Per-point bookkeeping shared by the hooks of one run."""

    def __init__(self, probe: bool) -> None:
        self.probe = probe
        self.pacer = clock.Pacer()
        self.tracer = None
        self.t_ready: float | None = None
        self.t_done: float | None = None
        self.points: list = []
        self.labels: list[tuple[int, ...]] = []
        self._seen: set[bytes] = set()
        self.failed = 0
        self.errors: list[str] = []

    def ready(self) -> None:
        if self.t_ready is not None:
            return
        self.t_ready = clock.now()
        self.pace()
        if self.probe:
            # the CLI's own output may be redirected; the report is not
            out = sys.__stdout__
            out.write(json.dumps({"t_ready": self.t_ready, "bursts": self.pacer.bursts}) + "\n")
            out.flush()
            os._exit(0)

    def label(self, u, perm: tuple[int, ...]) -> None:
        """Record a point's label the first time a hook sees the point, so
        that classifying a point once or twice counts it once."""
        key = u.basis.tobytes()
        if key not in self._seen:
            self._seen.add(key)
            self.points.append(u)
            self.labels.append(perm)
        self.pace()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def done(self) -> None:
        self.t_done = clock.now()
        self.pace()

    def pace(self) -> None:
        spent = self.pacer.tick()
        if spent and self.tracer is not None:
            self.tracer.exclude(spent)


@contextlib.contextmanager
def patched(owner, attr: str, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _ready_after_enumeration(state: Points):
    """Stamp the first point ready when the CLI's point set exists."""
    from dlstrata import dlclassify

    enumerate_points = dlclassify._cached_lagrangians

    def hook(*args):
        points = enumerate_points(*args)
        state.ready()
        return points

    return patched(dlclassify, "_cached_lagrangians", hook)


# -- workloads ----------------------------------------------------------------


def run_census(state: Points, seed: int, work: str) -> dict:
    """census --c 2 --p 2 --m 2 through cli.main; the seed is not used."""
    from dlstrata import cli, dlclassify

    out = os.path.join(work, f"census-{os.getpid()}.json")
    classify = dlclassify.classify_fine

    def hook(u, qexp=2, check=True):
        try:
            label = classify(u, qexp, check)
        except Exception as exc:  # a failing check is counted; the census goes on
            state.fail(_describe(exc))
            label = classify(u, qexp, False)
        state.label(u, label.perm)
        return label

    with _ready_after_enumeration(state), patched(dlclassify, "classify_fine", hook):
        rc = cli.main(["census", "--c", "2", "--p", "2", "--m", "2", "--out", out])
    state.done()
    with open(out, "rb") as fh:
        output = fh.read()
    os.remove(out)
    return {"rc": rc, "output": output, "space": (2, 2, 2)}


def _run_verify(state: Points, argv: list[str], space: tuple[int, int, int]) -> dict:
    from dlstrata import cli, dieudonne, dlclassify

    classify = dlclassify.classify_fine
    verify = dieudonne.verify_pullback

    # the hooks pass every argument through, so a change to the signatures
    # (say, a label handed to verify_pullback) leaves them working
    def classify_hook(u, *args, **kwargs):
        label = classify(u, *args, **kwargs)
        state.label(u, label.perm)
        return label

    def verify_hook(u, *args, **kwargs):
        try:
            good = verify(u, *args, **kwargs)
        except Exception as exc:  # a failing point is counted; the run goes on
            state.fail(_describe(exc))
            return False
        if not good:
            state.fail("verify_pullback returned False")
        return good

    text = io.StringIO()
    with _ready_after_enumeration(state), patched(dlclassify, "classify_fine", classify_hook), \
            patched(dieudonne, "verify_pullback", verify_hook), contextlib.redirect_stdout(text):
        rc = cli.main(argv)
    state.done()
    return {"rc": rc, "output": text.getvalue().encode(), "space": space}


def run_verify(state: Points, seed: int, work: str) -> dict:
    """verify --c 2 --g 5 --p 2 --m 2 on a seeded sample of VERIFY_TRIALS points."""
    argv = ["verify", "--c", "2", "--g", "5", "--p", "2", "--m", "2",
            "--trials", str(VERIFY_TRIALS), "--seed", str(seed)]
    return _run_verify(state, argv, (2, 2, 2))


def run_field(state: Points, seed: int, work: str) -> dict:
    """verify --c 1 --g 2 --p 2 --m 5 over all points of F_1024; no seed."""
    argv = ["verify", "--c", "1", "--g", "2", "--p", "2", "--m", "5"]
    return _run_verify(state, argv, (1, 2, 5))


def run_sample(state: Points, seed: int, work: str) -> dict:
    """Seeded random rank-3 Lagrangians over F_16, classified and verified."""
    from dlstrata import dieudonne, dlclassify, gf, symplectic

    space = symplectic.SymplecticSpace(gf.field(2, 4), 3)
    rng = np.random.default_rng(seed)
    points = [symplectic.random_lagrangian(space, rng) for _ in range(SAMPLE_POINTS)]
    state.ready()
    for u in points:
        try:
            label = dlclassify.classify_fine(u, check=True)
            good = dieudonne.verify_pullback(u, 6)
        except Exception as exc:  # a failing point is counted; the run goes on
            state.fail(_describe(exc))
            label, good = None, True
        if not good:
            state.fail("verify_pullback returned False")
        # a random draw may repeat a point: every draw counts, so no dedup here
        state.points.append(u)
        state.labels.append(label.perm if label is not None else ())
        state.pace()
    state.done()
    return {"rc": 0, "output": b"", "space": None}


WORKLOADS = {
    "census-c2-q16": run_census,
    "verify-c2g5-q16": run_verify,
    "sample-c3g6-q16": run_sample,
    "field-q1024-c1": run_field,
}


# -- report -------------------------------------------------------------------


def label_words(labels: list[tuple[int, ...]]) -> list[str]:
    from dlstrata import weyl

    names = {(): "failed"}
    for perm in set(labels) - {()}:
        word = weyl.reduced_word(weyl.WeylElement(len(perm) // 2, perm))
        names[perm] = " ".join(map(str, word)) or "e"
    return [names[p] for p in labels]


def enumeration_indices(points: list, space: tuple[int, int, int] | None) -> list[int]:
    """Position of each point in the enumeration order of its space."""
    if space is None:
        return []
    from dlstrata import dlclassify, symplectic

    order = symplectic.enumerate_lagrangians(dlclassify.census_space(*space))
    where = {u.basis.tobytes(): i for i, u in enumerate(order)}
    return [where[u.basis.tobytes()] for u in points]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    state = Points(args.probe)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = state.tracer = Tracer().install()
    try:
        result = WORKLOADS[args.workload](state, args.seed, args.work)
    finally:
        if tracer is not None:
            tracer.restore()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if state.t_ready is None:
        raise RuntimeError("the point set was never built: dlclassify._cached_lagrangians did not run")
    state.pacer.bursts.append(clock.burst())  # closes the last stretch of work
    t_post = clock.now()
    report = {
        "t_ready": state.t_ready,
        "t_done": state.t_done,
        "t_post": t_post,
        "bursts": state.pacer.bursts,
        "points": len(state.labels),
        "failed": state.failed,
        "errors": state.errors,
        "rc": result["rc"],
        "output_sha256": hashlib.sha256(result["output"]).hexdigest(),
        "output_bytes": len(result["output"]),
        "output_text": result["output"].decode(),
        "rss_kb": rss_kb,
        "labels": label_words(state.labels),
        "indices": enumeration_indices(state.points, result["space"]),
    }
    if tracer is not None:
        report["trace"] = tracer.report()
    report["t_report"] = clock.now()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
