"""Command-line front end: stratum tables, censuses, end-to-end checks.

Subcommands
-----------
strata   JSON table of the fine strata for rank c (optionally lifted to
         genus g).
census   classify every Lagrangian over F_{p^{2m}}; CSV or JSON output.
verify   run the module-label identity over all (or sampled) points.
bedard   dump every stabilizing sequence for the Lagrangian type.

Exit codes: 0 success, 1 verification or partition failure, 2 bad
configuration, an unwritable ``--out`` (``census`` checks the path
before it classifies) or a sampled ``verify`` without numpy; each exit
2 comes with one line on stderr.
Output is deterministic for a fixed command line, and each file embeds
a header describing the tool version, the echoed configuration, and
the field modulus in use.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from . import __version__, bedard, dlclassify, dieudonne, weyl
from .gf import field

# Largest genus strata and verify accept: a verify run at g = 64 over
# F_1024 peaks near 54 MB, about 17 MB of it the field's tables, and the
# lifted tables and modules grow with g without bound.
GENUS_LIMIT = 64


def _header(config: dict, ctx=None) -> dict:
    head = {"tool": "dlstrata", "version": __version__, "config": config}
    if ctx is not None:
        head["field"] = {"p": ctx.p, "k": ctx.k, "modulus": list(ctx.modulus)}
    return head


def _write(text: str, out: str | None) -> int:
    if not out:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def _unwritable(out: str | None) -> str | None:
    """Why ``out`` cannot be written, or None; nothing is opened.

    Opening the file to find out would truncate an existing one, so this
    only looks at the path: a directory, a missing or unwritable parent
    directory, or an existing file without write permission.  ``_write``
    still reports any error that opening meets later.
    """
    if not out:
        return None
    parent = os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(out if os.path.exists(out) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return None
    return f"cannot write {out}: {os.strerror(code)}"


def _emit_json(payload: dict, out: str | None) -> int:
    return _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _emit_lines(lines: list[str], out: str | None) -> int:
    return _write("\n".join(lines) + "\n", out)


def cmd_strata(args) -> int:
    if not 1 <= args.c <= 6:
        print("strata requires 1 <= c <= 6", file=sys.stderr)
        return 2
    if args.g is not None and args.g < 2 * args.c:
        print("lift requires g >= 2c", file=sys.stderr)
        return 2
    if args.g is not None and args.g > GENUS_LIMIT:
        print(f"lift requires g <= {GENUS_LIMIT}", file=sys.stderr)
        return 2
    rows = bedard.stratum_table(args.c, args.g)
    config = {"command": "strata", "c": args.c, "g": args.g}
    return _emit_json({"header": _header(config), "rows": rows}, args.out)


def cmd_census(args) -> int:
    try:
        ctx = field(args.p, 2 * args.m)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    problem = _unwritable(args.out)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    config = {"command": "census", "c": args.c, "p": args.p, "m": args.m}
    try:
        records = dlclassify.census(args.c, args.p, args.m)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"census failed: {exc}", file=sys.stderr)
        return 1
    if args.format == "csv":
        lines = [
            f"# tool=dlstrata version={__version__}",
            f"# config c={args.c} p={args.p} m={args.m}",
            f"# field p={ctx.p} k={ctx.k} modulus={list(ctx.modulus)}",
        ] + dlclassify.census_csv_rows(records)
        return _emit_lines(lines, args.out)
    payload = {
        "header": _header(config, ctx),
        "rows": dlclassify.census_json_rows(records),
    }
    return _emit_json(payload, args.out)


def cmd_verify(args) -> int:
    try:
        field(args.p, 2 * args.m)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.c < 1:
        print("verify requires c >= 1", file=sys.stderr)
        return 2
    if args.g < 2 * args.c:
        print("verify requires g >= 2c", file=sys.stderr)
        return 2
    if args.g > GENUS_LIMIT:
        print(f"verify requires g <= {GENUS_LIMIT}", file=sys.stderr)
        return 2
    if args.trials is not None and args.trials < 1:
        print("verify requires --trials >= 1", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("verify requires --seed >= 0", file=sys.stderr)
        return 2
    try:
        total = dlclassify.bounded_total(args.c, args.p, args.m, "verify")
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    sample = args.trials is not None and args.trials < total
    if sample:
        # the sample is the one draw of the CLI, and the one use of numpy,
        # so a missing numpy is refused before any point is enumerated
        try:
            import numpy as np
        except ImportError:
            print("verify --trials needs numpy (the 'draws' extra)", file=sys.stderr)
            return 2
    points = dlclassify._cached_lagrangians(args.c, args.p, args.m)
    if sample:
        rng = np.random.default_rng(args.seed)
        idx = rng.choice(len(points), size=args.trials, replace=False)
        points = [points[int(i)] for i in sorted(idx)]
    passed: dict[tuple[int, ...], list[int]] = {}
    ok = True
    for u in points:
        fine = dlclassify.classify_fine(u)
        good = dieudonne.verify_pullback(u, args.g, fine=fine)
        ok &= good
        tally = passed.setdefault(fine.perm, [0, 0])
        tally[0] += int(good)
        tally[1] += 1
    for w in weyl.enumerate_IW(args.c):
        if w.perm in passed:
            word = " ".join(map(str, weyl.reduced_word(w))) or "e"
            got, total = passed[w.perm]
            print(f"stratum {word}: {got}/{total} passed")
    print(f"verify: {'PASS' if ok else 'FAIL'} over {len(points)} points")
    return 0 if ok else 1


def cmd_bedard(args) -> int:
    if not 1 <= args.c <= 5:
        print("bedard requires 1 <= c <= 5", file=sys.stderr)
        return 2
    I, F = bedard.siegel_frobenius(args.c)
    rows = []
    for seq in bedard.enumerate_sequences(args.c, I, F):
        rows.append(
            {
                "u_inf": list(seq.u_inf.perm),
                "I_inf": sorted(seq.I_inf),
                "steps": [
                    {"u": list(u.perm), "I": sorted(t)} for u, t in seq.steps
                ],
            }
        )
    config = {"command": "bedard", "c": args.c}
    return _emit_json({"header": _header(config), "rows": rows}, args.out)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one stderr line and exit 2.

    Argparse prints a usage block before each error; here the error
    line stands alone.  The subcommand parsers are of this class too,
    since ``add_subparsers`` makes them with the parent's class.
    """

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dlstrata",
        description="stratum tables, censuses and module-label verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_strata = sub.add_parser("strata", help="fine stratum table for rank c")
    p_strata.add_argument("--c", type=int, required=True)
    p_strata.add_argument("--g", type=int, default=None)
    p_strata.add_argument("--out", default=None)
    p_strata.set_defaults(func=cmd_strata)

    p_census = sub.add_parser("census", help="classify all Lagrangian points")
    p_census.add_argument("--c", type=int, required=True)
    p_census.add_argument("--p", type=int, required=True)
    p_census.add_argument("--m", type=int, required=True)
    p_census.add_argument("--format", choices=("json", "csv"), default="json")
    p_census.add_argument("--out", default=None)
    p_census.set_defaults(func=cmd_census)

    p_verify = sub.add_parser("verify", help="module label against lifted fine label")
    p_verify.add_argument("--c", type=int, required=True)
    p_verify.add_argument("--g", type=int, required=True)
    p_verify.add_argument("--p", type=int, required=True)
    p_verify.add_argument("--m", type=int, required=True)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_bedard = sub.add_parser("bedard", help="dump the stabilizing sequences")
    p_bedard.add_argument("--c", type=int, required=True)
    p_bedard.add_argument("--out", default=None)
    p_bedard.set_defaults(func=cmd_bedard)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
