import os
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from dlstrata.linalg import Rows

ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict:
    """The environment with src/ on PYTHONPATH, for subprocess runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@lru_cache(maxsize=None)
def tables(ctx) -> SimpleNamespace:
    """Numpy copies of a field's tables, for array references in tests.

    ``add`` and ``mul`` are q x q, ``neg`` and ``inv`` length q, and
    ``frob[r]`` the code table of x -> x^(p^r).  The field keeps only its
    nested tuples; these copies are built once per field.
    """
    return SimpleNamespace(
        add=np.array(ctx.add_list, dtype=np.int32),
        mul=np.array(ctx.mul_list, dtype=np.int32),
        neg=np.array(ctx.neg_list, dtype=np.int32),
        inv=np.array(ctx.inv_list, dtype=np.int32),
        frob=[np.array(t, dtype=np.int32) for t in ctx.frob_lists],
    )


DTYPE = np.int32


def as_rows(mat: np.ndarray) -> Rows:
    """The rows of a 2-d array as a tuple of tuples of Python ints."""
    return tuple(map(tuple, np.asarray(mat, dtype=DTYPE).tolist()))


def as_array(rows: Sequence[Sequence[int]], ncols: int) -> np.ndarray:
    """A fresh C-contiguous int32 array of shape (len(rows), ncols)."""
    return np.array(rows, dtype=DTYPE).reshape(len(rows), ncols)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int32)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int32)
