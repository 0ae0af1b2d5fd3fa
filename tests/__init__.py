import os
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np

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
    """Numpy copies of a field's list tables, for array references in tests.

    ``add`` and ``mul`` are q x q, ``neg`` and ``inv`` length q, and
    ``frob[r]`` the code table of x -> x^(p^r).  The field keeps only the
    lists; these copies are built once per field.
    """
    return SimpleNamespace(
        add=np.array(ctx.add_list, dtype=np.int32),
        mul=np.array(ctx.mul_list, dtype=np.int32),
        neg=np.array(ctx.neg_list, dtype=np.int32),
        inv=np.array(ctx.inv_list, dtype=np.int32),
        frob=[np.array(t, dtype=np.int32) for t in ctx.frob_lists],
    )


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int32)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int32)
