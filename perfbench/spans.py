"""Per-layer spans and counters, recorded from outside dlstrata.

A ``Tracer`` replaces every public function of the dlstrata modules with a
timing wrapper, at each module attribute that callers resolve: a function
imported by name into another module (``from .gf import field``) is
replaced there too, and ``symplectic.Flag.__init__`` is wrapped on its
class.  Each wrapper records calls, inclusive time and self time (its
duration minus the time its child spans cover).  ``restore`` puts every
original object back.

A few counters are read off arguments and results at the same
boundaries: matrix cells fed to ``linalg.rref``, the candidates a caller
scans (``weyl.min_double_reps`` inside ``symplectic.relpos``,
``weyl.enumerate_IW`` inside ``dieudonne.eo_type``), refinement rounds
per classified point, canonical-flag members, and the bytes of the field
tables built.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

PACKAGE = "dlstrata"
MODULES = ("gf", "linalg", "weyl", "bedard", "symplectic", "dlclassify", "dieudonne", "cli")

# Per-element helpers called inside the candidate scans.  They stay
# unwrapped so that a scan's cost lands in the self time of the function
# that scans (relpos, eo_type), which is the number a scan-removing
# change should move.
INLINE = frozenset({"weyl.r_w", "dieudonne.final_type_of"})

# Private output writers of the CLI, wrapped so that output time shows.
EXTRA = ("cli._emit_json", "cli._emit_lines")

# Scans whose result length is charged to the calling span as candidates.
SCANS = frozenset({"weyl.min_double_reps", "weyl.enumerate_IW"})


class Stat:
    """Totals for one wrapped function."""

    __slots__ = ("calls", "total", "self_time", "cells", "candidates", "refines", "members")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.cells = 0
        self.candidates = 0
        self.refines = 0
        self.members = 0


def _targets() -> dict[str, object]:
    """Name -> function for every public function of the traced modules."""
    found: dict[str, object] = {}
    for short in MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if attr.startswith("_") or isinstance(obj, type) or name in INLINE:
                continue
            if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                found[name] = obj
    for name in EXTRA:
        short, attr = name.split(".")
        found[name] = getattr(importlib.import_module(f"{PACKAGE}.{short}"), attr)
    sym = importlib.import_module(f"{PACKAGE}.symplectic")
    found["symplectic.Flag.init"] = sym.Flag.__dict__["__init__"]
    return found


def table_bytes(ctx) -> int:
    """Bytes of the numpy lookup tables held by a field context."""
    total = 0
    for value in vars(ctx).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (list, tuple)):
            total += sum(v.nbytes for v in value if isinstance(v, np.ndarray))
        elif isinstance(value, dict):
            total += sum(v.nbytes for v in value.values() if isinstance(v, np.ndarray))
    return total


class Tracer:
    """Wraps the dlstrata layers between ``install`` and ``restore``."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.fields: dict[int, object] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- install / restore ------------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = _targets()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{short}") for short in MODULES
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        flag = importlib.import_module(f"{PACKAGE}.symplectic").Flag
        init = flag.__dict__["__init__"]
        self._patches.append((flag, "__init__", init))
        flag.__init__ = wrappers[id(init)]
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter
        is_scan = name in SCANS
        is_rref = name == "linalg.rref"
        is_refine = name == "symplectic.refine"
        is_canonical = name == "dieudonne.canonical_flag"
        is_field = name == "gf.field"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            # frame: [time covered by child spans, candidates, refine calls]
            frame = [0.0, 0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[0]
                stat.candidates += frame[1]
                stat.refines += frame[2]
                if stack:
                    stack[-1][0] += duration
            if is_rref:
                shape = np.shape(args[1])
                stat.cells += shape[0] * shape[1] if len(shape) == 2 else 0
            elif is_scan and stack:
                stack[-1][1] += len(result)
            elif is_refine and stack:
                stack[-1][2] += 1
            elif is_canonical:
                stat.members += len(result.members)
            elif is_field:
                self.fields[id(result)] = result
            return result

        return span

    def exclude(self, seconds: float) -> None:
        """Keep benchmark time spent inside an open span out of its self time."""
        if self._stack:
            self._stack[-1][0] += seconds

    # -- results ------------------------------------------------------------

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def report(self) -> dict:
        """Totals of every wrapped function that ran (times in seconds), self
        time by module, and the bytes of the field tables built."""
        stats = {
            name: {field: getattr(s, field) for field in Stat.__slots__}
            for name, s in self.stats.items()
            if s.calls
        }
        layers = {short: 0.0 for short in MODULES}
        for name, s in self.stats.items():
            layers[name.split(".")[0]] += s.self_time
        tables = sum(table_bytes(ctx) for ctx in self.fields.values())
        return {"stats": stats, "layer_self": layers, "table_bytes": tables}
